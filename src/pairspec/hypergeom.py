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

from .eigenstates import _check_label, _psi_rows
from .fock_ladder import LadderState, _check_count, _check_counts, _finite, _norm, _refuse_rows
from .hamiltonians import _bog_energies, build_tridiagonal
from .lattice import _check_coupling, alpha_c, ytilde_from_y
# nothing here calls apply_exp_pair, but the benchmark harness's tracer test reads it in this namespace
from .pair_transform import apply_exp_pair  # noqa: F401
from . import oracle, pair_transform

__all__ = [
    "hyp_f",
    "contiguous_residual",
    "derivative_residual",
    "f_family",
    "f_recurrence_residual",
    "transported_state",
    "gram_witness",
    "projection_sweep",
]


def _termination_index(a, b) -> np.ndarray:
    """Smallest m with (a)_m (b)_m = 0, per row of (a, b); every row needs a
    terminating parameter, and the first that has none, or that terminates only
    at 2^63 or later, past the integer's range, is refused."""
    tops = [np.where((v <= 0) & (np.floor(v) == v), -v, np.inf)
            for v in (np.asarray(a, dtype=float), np.asarray(b, dtype=float))]
    top = np.minimum(*tops)
    _refuse_rows(top == np.inf, lambda a, b: (
        f"series does not terminate: a={a}, b={b}"), a, b)
    _refuse_rows(top >= 2.0**63, lambda a, b: (
        f"series terminates only after 2^63 terms: a={a}, b={b}"), a, b)
    return top.astype(int)


def hyp_f(a: float, b: float, c: float, z: complex) -> complex:
    """Terminating Gauss series F(a, b, c; z) = sum_m (a)_m (b)_m / ((c)_m m!) z^m.

    At least one of a, b must be a nonpositive integer.  A nonpositive
    integer c is rejected unless the series terminates before the (c)_m zero,
    and so are a non-finite z and a sum beyond double range.  This is the
    batch-1 face of :func:`_hyp_f`.
    """
    return complex(_hyp_f(a, b, c, z))


def _hyp_f(a, b, c, z) -> np.ndarray:
    """:func:`hyp_f` over rows of (a, b, c, z), which broadcast together.

    Each row stops at its own termination index: the term ratios past it are
    zero, so the running term stays zero there and the sum keeps its bits.
    The parameters are taken as doubles.  The running term and sum are kept
    as float pairs and every complex product takes :func:`pair_transform._cmul`'s formulas,
    so a row's sum has the bits of the same loop in CPython's float and
    complex arithmetic.  The first row that does not terminate,
    whose (c)_m vanishes first, or whose z or sum is not finite is refused
    with ``ValueError`` naming the row.
    """
    shown = a, b, c, z
    top = _termination_index(a, b)
    a, b, c, z, top = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, c)),
                                          np.asarray(z), top)
    _refuse_rows((c <= 0) & (np.floor(c) == c) & (top > -c), lambda c, top: (
        f"(c)_m vanishes before termination: c={c}, top={top}"), shown[2], top)
    ms = np.arange(float(top.max(initial=0)))
    # the ratios (a+m)(b+m) / ((c+m)(m+1)) z; past a row's top, (c+m) may vanish
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = (a[..., None] + ms) * (b[..., None] + ms) / ((c[..., None] + ms) * (ms + 1.0))
        steps = np.where(ms < top[..., None], ratio, 0.0) * z[..., None]
        step_re, step_im = (np.moveaxis(part, -1, 0).copy() for part in (steps.real, steps.imag))
        term_re, term_im = np.ones(a.shape), np.zeros(a.shape)
        total_re, total_im = term_re.copy(), term_im.copy()
        for sr, si in zip(step_re, step_im):
            term_re, term_im = term_re * sr - term_im * si, term_re * si + term_im * sr
            total_re += term_re
            total_im += term_im
        total = np.empty(a.shape, dtype=complex)
        total.real, total.imag = total_re, total_im  # in place: no zero changes sign
    _refuse_rows(~(np.isfinite(z) & np.isfinite(total)), lambda a, b, c, z: (
        f"F(a={a}, b={b}, c={c}; z={z}) is not finite in double precision"), *shown)
    return total


def contiguous_residual(m: int, N: int, p: int, z: complex) -> complex:
    """LHS - RHS of the three-term contiguous relation used by the density proof.

    (m z) F(-m+1, -N, p+1; z) = -(p+1+2N) F(-m, -N, p+1; z)
                               + (p+1+N) F(-m, -N-1, p+1; z)
                               + N F(-m, -N+1, p+1; z),

    with the N = 0 exceptional form (the raising term is absent):
    (m z) F(-m+1, 0, p+1; z) = -(p+1) F(-m, 0, p+1; z) + (p+1) F(-m, -1, p+1; z).
    This is the batch-1 face of :func:`_contiguous_residual`.
    """
    _check_count("m", m)
    _check_count("N", N)
    _check_count("p", p)
    lhs, rhs = _contiguous_residual(m, N, p, z)
    return complex(lhs) - complex(rhs)


def _contiguous_residual(m, N, p, z) -> tuple[np.ndarray, np.ndarray]:
    """The two sides (LHS, RHS) of :func:`contiguous_residual` over rows of counts (m, N, p)
    and z, which broadcast together; one :func:`_hyp_f` call per term, over all rows.

    A row with N = 0 evaluates its absent raising term as F(-m, 0, p+1; z) = 1
    times N = 0, which adds nothing.  The sums p+1, p+1+N and p+1+2N are formed
    exactly (p+1 in uint64, the others in Python ints) and rounded to double
    once, as CPython's int times complex rounds them: in int64 they wrap once N
    nears 2^62 or p reaches 2^63 - 1.  Its refusals are :func:`_hyp_f`'s.
    """
    m, N, p = (_check_counts(name, v) for name, v in (("m", m), ("N", N), ("p", p)))
    c = p.astype(np.uint64) + np.uint64(1)  # p + 1 <= 2^63: no wrap
    c_down, c_0 = (np.asarray(c.astype(object) + k * N.astype(object), dtype=float) for k in (1, 2))
    f_up, f_0, f_down, f_raise = (_hyp_f(a, b, c, z) for a, b in (
        (-m + 1, -N), (-m, -N), (-m, -N - 1), (-m, np.where(N > 0, -N + 1, 0))))
    with np.errstate(over="ignore", invalid="ignore"):  # as Python's complex arithmetic
        rhs = pair_transform._cmul(-c_0, f_0) + pair_transform._cmul(c_down, f_down)
        rhs += pair_transform._cmul(N, f_raise)
        return pair_transform._cmul(m * np.asarray(z), f_up), rhs


def derivative_residual(a: int, b: float, c: float) -> float:
    """Laurent-coefficient mismatch in d/dz z^m F(-m, b, c; 1/z) = m z^(m-1) F(-m+1, b, c; 1/z).

    Here m = -a > 0.  Both sides are finite sums in powers of z; comparing
    the coefficient of z^(m-1-s) reduces the identity to
    (m - s)(-m)_s = m (-m+1)_s, which must hold to rounding for every s.
    The worst mismatch is :func:`pair_transform._mismatch`'s over the pairs
    (t_lhs, -t_rhs); a term beyond double range raises ``ValueError``.
    """
    if a >= 0 or not float(a).is_integer():
        raise ValueError(f"a must be a negative integer, got {a}")
    m = -int(a)
    _finite(b, f"b must be finite, got {b}")
    _finite(c, f"c must be finite, got {c}")
    if c <= 0 and float(c).is_integer() and m > -int(c):
        raise ValueError(f"(c)_s vanishes before termination: c={c}")
    s = np.arange(m + 1.0)  # both Pochhammers are exactly zero beyond s = m
    factors = np.ones((5, m + 1))
    factors[:, 1:] = [a + s[:-1], a + 1 + s[:-1], b + s[:-1], c + s[:-1], s[1:]]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # refused below
        # (a)_s, (a+1)_s, (b)_s, (c)_s and s!, each one running product
        poch_a, poch_a1, poch_b, poch_c, fact = np.multiply.accumulate(factors, axis=1)
        t_lhs = (m - s) * poch_a * poch_b / (poch_c * fact)
        t_rhs = m * poch_a1 * poch_b / (poch_c * fact)
        _finite((t_lhs, t_rhs), f"the derivative identity at a={a}, b={b}, c={c} has terms beyond double range")
        return pair_transform._mismatch((t_lhs, -t_rhs), float)


def f_family(N: int, p: int, ytilde: float, d: np.ndarray, z: complex) -> complex:
    """f_N(z) = sum_m conj(d_m) z^m sqrt(binom(p+m, m)) F(-m, -N, p+1; 1/(ytilde z)).

    The d_m are the rescaled coefficients of a test state on the p-ladder;
    f_0 reduces to the plain weighted power series since F(., 0, .; w) = 1.
    It is evaluated as the polynomial :func:`_f_family_poly` at z, which must
    be finite and nonzero; ytilde must be finite and > 0, and d finite.
    """
    _check_count("N", N)
    _check_label(p, z, ytilde, name="z")
    if z == 0:
        raise ValueError("z = 0 is outside the family's domain (argument 1/z)")
    _finite(d, "d must be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        value = _polyval(_f_family_poly(N, p, ytilde, d), z)
    _finite(value, f"f_{N}(z) is beyond double range")
    return value


def _f_family_poly(N: int, p: int, ytilde: float, d: np.ndarray) -> np.ndarray:
    """f_N's coefficients in ascending powers of z, from the terminating sums
    z^m F(-m, -N, p+1; 1/(ytilde z))
    = sum_{s <= min(m, N)} (-m)_s (-N)_s / ((p+1)_s s! ytilde^s) z^(m-s)."""
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

    Every f is :func:`f_family`'s polynomial, whose derivative is taken
    exactly on its coefficients, so the residual probes only the three-term
    structure, not a finite difference.
    """
    rhs = ytilde * (  # first: f_family guards N, p and z, ahead of _f_family_poly
        -(p + 1 + 2 * N) * f_family(N, p, ytilde, d, z)
        + (p + 1 + N) * f_family(N + 1, p, ytilde, d, z)
        + (N * f_family(N - 1, p, ytilde, d, z) if N > 0 else 0.0)
    )
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        coeffs_n = _f_family_poly(N, p, ytilde, d)
        dcoeffs = coeffs_n[1:] * np.arange(1, len(coeffs_n))
        mismatch = abs(_polyval(dcoeffs, z) - rhs)
    _finite(mismatch, f"the f_{N} recurrence residual is beyond double range")
    return mismatch


def _polyval(coeffs: np.ndarray, z: complex) -> complex:
    total = 0.0 + 0.0j
    for c in coeffs[::-1]:
        total = total * z + c
    return complex(total)


# decay, in e-folds past the turning point, after which a state's tail is below
# double rounding
_TAIL_EFOLDS = 40.0


def _block_rows(p: int, y: float, lam: float, smax: int) -> int:
    """Last row of a Hermitian block that holds the states up to energy ``lam``.

    Past its turning point a state of the block decays by exp(-arccosh x_t)
    per row, x_t = (t + p/2 - lam) / (y (2t + p + 1)), which tends to alpha_c
    per row.  The block runs until that decay reaches ``_TAIL_EFOLDS``, so the
    dropped tail is below double rounding, and at least
    ln(eps) / (2 ln alpha_c) rows past ``smax``, over which the error of its
    Dirichlet end shrinks below rounding too (by alpha_c^2 per row).
    """
    t = max(0, math.floor((lam - p / 2.0 + y * (p + 1)) / (1.0 - 2.0 * y)))  # x_t = 1
    decay = 0.0
    while decay < _TAIL_EFOLDS:
        t += 1
        decay += math.acosh(max(1.0, (t + p / 2.0 - lam) / (y * (2 * t + p + 1))))
    pad = math.ceil(math.log(np.finfo(float).eps) / (2.0 * math.log(alpha_c(y))))
    return max(t, smax + pad)


def _transported_columns(p: int, y: float, ns: np.ndarray, smax: int) -> np.ndarray:
    """Rows exp(-alpha_c a*b*) Psi_(p,N), N in ``ns``, through index smax, c_0 = 1.

    Each is the eigenvector of the Hermitian block build_tridiagonal(p, y, y)
    at its closed-form energy bog_energy_ab(y, p, N), and its c_0 is the
    Meixner value M_N(0) = 1.  One twisted factorization over all N, run in
    ``pair_transform._EXT`` on a block padded by :func:`_block_rows`, gives
    them to rounding: the binomial shift's alternating sums are never formed.
    """
    _check_coupling(y, allow_zero=False)
    _check_count("smax", smax)
    lams = _bog_energies(y, p, ns, pair_transform._EXT)
    block = build_tridiagonal(p, y, y, _block_rows(p, y, float(np.max(lams)), smax))
    z = oracle._twisted_vectors(block.diag, block.super_, lams)[: smax + 1]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        z /= z[0]
        cut = pair_transform._zero_cut()
        if abs(z[-1]).min() <= cut:  # only tails reach it, and the last row is the deepest
            z[abs(z) <= cut] *= 0  # the signed zeros they round to
        cols = z.T.astype(float)
    _finite(cols, "transported state has coefficients beyond double range")
    return cols


def transported_state(p: int, N: int, y: float, smax: int) -> LadderState:
    """exp(-alpha_c a*b*) Psi_(p,N) through index smax, with c_0 = 1.

    The transported state is the eigenvector of the Hermitian block
    build_tridiagonal(p, y, y, .) at the energy bog_energy_ab(y, p, N): in
    m it is the Meixner function (-alpha_c)^m sqrt((p+1)_m / m!)
    F(-N, -m; p+1; 1 - 1/alpha_c^2).  It is computed to rounding at every N
    by a twisted factorization (see :func:`_transported_columns`), not by the
    binomial shift, whose alternating sums lose every digit by N ~ 60.
    """
    _check_count("N", N)
    return LadderState(p, _transported_columns(p, y, np.array([N]), smax)[0])


def _shifted_rows(p, N, y, smax: int) -> np.ndarray:
    """The same states by the binomial shift of Psi_(p,N), through index smax
    (>= N), over rows of (p, N, y): scalars, or one per row.

    Exact in exact arithmetic, but its alternating sums cancel more digits
    as N and y grow; it stays as the independent referee of
    :func:`transported_state` at N <= 16 and y <= 1/4, where it holds 1e-12.
    A row is ``apply_exp_pair`` of its ``psi_p_theta`` state padded to smax,
    bit for bit: one ``eigenstates._psi_rows`` and one
    ``pair_transform._exp_pair`` call for all rows.
    """
    p, N, y = np.broadcast_arrays(p, N, y)
    ys = y.ravel().tolist()
    ytil, alpha = (np.reshape([f(v) for v in ys], y.shape) for f in (ytilde_from_y, alpha_c))
    base = _psi_rows(p, N, ytil, N)
    coeffs = np.zeros(base.shape[:-1] + (smax + 1,), dtype=complex)
    coeffs[..., : base.shape[-1]] = base
    return pair_transform._exp_pair(coeffs, p, -alpha)


def gram_witness(p: int, y: float, Nmax: int, smax: int) -> np.ndarray:
    """Singular values of the normalized Gram of the transported eigenstates.

    Columns are exp(-alpha_c a*b*) Psi_(p,N) for N = 0..Nmax, unit-normalized
    after truncation at smax.  A smallest singular value bounded away from
    zero, stable under doubling smax, witnesses that the family spans the
    ladder's low sector.  The states are eigenvectors of one Hermitian block
    at distinct energies, computed to rounding (:func:`transported_state`),
    so the Gram is the identity up to rounding and to the truncated tails.
    """
    _check_count("Nmax", Nmax)
    _check_count("smax", smax)
    if Nmax > 63:
        raise ValueError(f"Nmax must be <= 63 (svd_small takes at most 64 states), got {Nmax}")
    if smax < 10 * Nmax:
        raise ValueError(f"smax must be >= 10*Nmax for a trustworthy Gram, got {smax}")
    V = _transported_columns(p, y, np.arange(Nmax + 1), smax)
    V /= _norm(V, "the norm of a transported state", axis=1)[:, None]
    return oracle.svd_small(V @ V.T)


def projection_sweep(
    state: LadderState, y: float, Nmax: int, smax: int
) -> np.ndarray:
    """Squared projection norms of a state onto span{v_0..v_N}, N = 0..Nmax.

    The v_N (transported finite eigenstates, truncated at smax) are
    orthogonal to rounding and to their truncated tails, so each increment
    is just |<v_N, x>|^2 / ||x||^2 for the complex x; the sequence is
    nondecreasing and tends to 1 as the family is completed.  A zero state,
    one whose norm is beyond double range, and one with more than smax + 1
    coefficients, is refused.
    """
    _check_count("Nmax", Nmax)
    re, im = state.coeffs.real, state.coeffs.imag
    what = "the norm of the ladder state"
    # hypot(a, 0) == a: a real state is normalized by the norm of its real array
    norm = math.hypot(_norm(re, what), _norm(im, what))
    if norm == math.inf:
        raise ValueError(f"{what} is beyond double range")
    if norm == 0.0:
        raise ValueError("projection_sweep needs a nonzero state")
    re, im = re / norm, im / norm
    V = _transported_columns(state.p, y, np.arange(Nmax + 1), smax)  # guards smax first
    if len(re) > smax + 1:
        raise ValueError(f"state has {len(re)} coefficients, more than smax + 1 = {smax + 1}")
    V /= _norm(V, "the norm of a transported state", axis=1)[:, None]
    V = V[:, : len(re)]
    return np.cumsum((V @ re) ** 2 + (V @ im) ** 2)
