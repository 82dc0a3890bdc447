"""Terminating Gauss hypergeometric sums and the completeness witness.

Every hypergeometric instance used by the eigenstate machinery terminates (a
nonpositive-integer numerator parameter), so F(a, b, c; z) is an exact finite
Pochhammer sum here -- no transformation or continuation theory.  On top of it
sit the contiguous and derivative identities that drive the density argument,
the f_N function family, and a numerical Gram-matrix witness that the
transported finite eigenstates span each ladder.
"""

from __future__ import annotations

import math

import numpy as np

from .eigenstates import EigenstateSpec, psi_p_theta
from .fock_ladder import LadderState
from .lattice import alpha_c, ytilde_from_y
from .pair_transform import apply_exp_pair
from . import oracle

__all__ = [
    "hyp_f",
    "contiguous_residual",
    "derivative_residual",
    "f_family",
    "f_recurrence_residual",
    "gram_witness",
    "projection_sweep",
]


def _termination_index(a: float, b: float) -> int:
    """Smallest m with (a)_m (b)_m = 0; requires a terminating parameter."""
    candidates = []
    for v in (a, b):
        if v <= 0 and float(v).is_integer():
            candidates.append(int(-v))
    if not candidates:
        raise ValueError(f"series does not terminate: a={a}, b={b}")
    return min(candidates)


def hyp_f(a: float, b: float, c: float, z: complex) -> complex:
    """Terminating Gauss series F(a, b, c; z) = sum_m (a)_m (b)_m / ((c)_m m!) z^m.

    At least one of a, b must be a nonpositive integer.  A nonpositive
    integer c is rejected unless the series terminates before the (c)_m zero.
    """
    m_top = _termination_index(a, b)
    if c <= 0 and float(c).is_integer() and m_top > -int(c):
        raise ValueError(f"(c)_m vanishes before termination: c={c}, top={m_top}")
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    for m in range(m_top):
        term *= (a + m) * (b + m) / ((c + m) * (m + 1.0)) * z
        total += term
    return total


def contiguous_residual(m: int, N: int, p: int, z: complex) -> complex:
    """LHS - RHS of the three-term contiguous relation used by the density proof.

    (m z) F(-m+1, -N, p+1; z) = -(p+1+2N) F(-m, -N, p+1; z)
                               + (p+1+N) F(-m, -N-1, p+1; z)
                               + N F(-m, -N+1, p+1; z),

    with the N = 0 exceptional form (the raising term is absent):
    (m z) F(-m+1, 0, p+1; z) = -(p+1) F(-m, 0, p+1; z) + (p+1) F(-m, -1, p+1; z).
    """
    if m < 0 or N < 0 or p < 0:
        raise ValueError("m, N, p must be >= 0")
    lhs = m * z * hyp_f(-m + 1, -N, p + 1, z)
    rhs = -(p + 1 + 2 * N) * hyp_f(-m, -N, p + 1, z) + (p + 1 + N) * hyp_f(
        -m, -N - 1, p + 1, z
    )
    if N > 0:
        rhs += N * hyp_f(-m, -N + 1, p + 1, z)
    return lhs - rhs


def derivative_residual(a: int, b: float, c: float) -> float:
    """Laurent-coefficient mismatch in d/dz z^m F(-m, b, c; 1/z) = m z^(m-1) F(-m+1, b, c; 1/z).

    Here m = -a > 0.  Both sides are finite sums in powers of z; comparing
    the coefficient of z^(m-1-s) reduces the identity to
    (m - s)(-m)_s = m (-m+1)_s, which must hold to rounding for every s.
    """
    if a >= 0 or not float(a).is_integer():
        raise ValueError(f"a must be a negative integer, got {a}")
    m = -int(a)
    if c <= 0 and float(c).is_integer() and m > -int(c):
        raise ValueError(f"(c)_s vanishes before termination: c={c}")
    worst = 0.0
    poch_a = 1.0  # (a)_s
    poch_a1 = 1.0  # (a+1)_s
    poch_b = 1.0
    poch_c = 1.0
    fact = 1.0
    for s in range(m + 1):  # both Pochhammers are exactly zero beyond s = m
        t_lhs = (m - s) * poch_a * poch_b / (poch_c * fact)
        t_rhs = m * poch_a1 * poch_b / (poch_c * fact)
        worst = max(worst, abs(t_lhs - t_rhs))
        poch_a *= a + s
        poch_a1 *= a + 1 + s
        poch_b *= b + s
        poch_c *= c + s
        fact *= s + 1.0
    return worst


def f_family(N: int, p: int, ytilde: float, d: np.ndarray, z: complex) -> complex:
    """f_N(z) = sum_m conj(d_m) z^m sqrt(binom(p+m, m)) F(-m, -N, p+1; 1/(ytilde z)).

    The d_m are the rescaled coefficients of a test state on the p-ladder;
    f_0 reduces to the plain weighted power series since F(., 0, .; w) = 1.
    """
    if z == 0:
        raise ValueError("z = 0 is outside the family's domain (argument 1/z)")
    d = np.asarray(d, dtype=complex)
    w = 1.0 / (ytilde * z)
    total = 0.0 + 0.0j
    binom_pm = 1.0
    for m, dm in enumerate(d):
        if m > 0:
            binom_pm *= (p + m) / m
        if dm != 0:
            total += np.conj(dm) * z**m * math.sqrt(binom_pm) * hyp_f(-m, -N, p + 1, w)
    return total


def _f_family_poly(N: int, p: int, ytilde: float, d: np.ndarray) -> np.ndarray:
    """Polynomial coefficients of f_N in z (exact finite expansion)."""
    d = np.asarray(d, dtype=complex)
    n = len(d)
    coeffs = np.zeros(n, dtype=complex)
    binom_pm = 1.0
    w_pow = 1.0 / ytilde
    for m, dm in enumerate(d):
        if m > 0:
            binom_pm *= (p + m) / m
        if dm == 0:
            continue
        pref = np.conj(dm) * math.sqrt(binom_pm)
        term = 1.0 + 0.0j
        coeffs[m] += pref
        for s in range(1, min(m, N) + 1):
            term *= (-m + s - 1) * (-N + s - 1) / ((p + s) * s) * w_pow
            coeffs[m - s] += pref * term
    return coeffs


def f_recurrence_residual(N: int, p: int, ytilde: float, d: np.ndarray, z: complex) -> float:
    """|d/dz f_N - ytilde (-(p+1+2N) f_N + (p+1+N) f_{N+1} + N f_{N-1})| at z.

    The derivative is taken exactly on the polynomial coefficients of f_N, so
    the residual probes only the three-term structure, not a finite
    difference.
    """
    if z == 0:
        raise ValueError("z = 0 is outside the family's domain")
    coeffs_n = _f_family_poly(N, p, ytilde, d)
    dcoeffs = coeffs_n[1:] * np.arange(1, len(coeffs_n))
    deriv = _polyval(dcoeffs, z)
    rhs = ytilde * (
        -(p + 1 + 2 * N) * f_family(N, p, ytilde, d, z)
        + (p + 1 + N) * f_family(N + 1, p, ytilde, d, z)
        + (N * f_family(N - 1, p, ytilde, d, z) if N > 0 else 0.0)
    )
    return abs(deriv - rhs)


def _polyval(coeffs: np.ndarray, z: complex) -> complex:
    total = 0.0 + 0.0j
    for c in coeffs[::-1]:
        total = total * z + c
    return complex(total)


def transported_state(p: int, N: int, y: float, smax: int) -> LadderState:
    """exp(-alpha_c a*b*) applied to the finite (p, N) eigenstate, length smax+1."""
    ytil = ytilde_from_y(y)
    base = psi_p_theta(EigenstateSpec(p=p, theta=N, ytilde=ytil, smax=N))
    return apply_exp_pair(base.padded(smax), -alpha_c(y))


def gram_witness(p: int, y: float, Nmax: int, smax: int) -> np.ndarray:
    """Singular values of the normalized Gram of the transported eigenstates.

    Columns are exp(-alpha_c a*b*) Psi_(p,N) for N = 0..Nmax, unit-normalized
    after truncation at smax.  A smallest singular value bounded away from
    zero, stable under doubling smax, witnesses that the family spans the
    ladder's low sector; these states are eigenstates of a Hermitian block at
    distinct energies, so the Gram is near-diagonal by construction.
    """
    if Nmax > 63:
        raise ValueError(f"Nmax must be <= 63 (svd_small takes at most 64 states), got {Nmax}")
    if smax < 10 * Nmax:
        raise ValueError(f"smax must be >= 10*Nmax for a trustworthy Gram, got {smax}")
    cols = []
    for N in range(Nmax + 1):
        v = transported_state(p, N, y, smax).coeffs.real
        cols.append(v / np.linalg.norm(v))
    V = np.array(cols)
    gram = V @ V.T
    return oracle.svd_small(gram)


def projection_sweep(
    state: LadderState, y: float, Nmax: int, smax: int
) -> np.ndarray:
    """Squared projection norms of a state onto span{v_0..v_N}, N = 0..Nmax.

    The v_N (transported finite eigenstates) are mutually orthogonal, so each
    increment is just |<v_N, x>|^2; the sequence is nondecreasing and tends
    to ||x||^2 as the family is completed.
    """
    x = state.coeffs.real
    x = x / np.linalg.norm(x)
    out = np.zeros(Nmax + 1)
    total = 0.0
    for N in range(Nmax + 1):
        v = transported_state(state.p, N, y, smax).coeffs.real
        v = v / np.linalg.norm(v)
        total += float(v[: len(x)] @ x) ** 2
        out[N] = total
    return out
