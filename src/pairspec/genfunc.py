"""Generating functions of ladder states and their analytic structure.

A ladder state maps to the power series G(z) = sum_s C_s z^s with rescaled
coefficients C_s = sqrt(s!/(p+s)!) c_s; like the state, the series carries
only its imbalance p.  Eigenstates of the two-mode block solve a first-order
ODE whose leading polynomial has roots z+ and z-; the exponent B at z+
carries the energy, and the pair transform acts on G as the Moebius
substitution (1 + alpha z)^(-1) G(z / (1 + alpha z)).  Everything here is
coefficient arithmetic: the ODE is verified order by order, never
integrated, and radii come from ratio/root tests on the tail.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .eigenstates import _check_label
from .fock_ladder import LadderState, _check_count, _finite, _refuse_rows
from .hamiltonians import _check_couplings
from .lattice import alpha_c, y12
from . import pair_transform
from .pair_transform import _log_rescale

__all__ = [
    "GenFn",
    "from_state",
    "to_state",
    "ode_residual",
    "roots",
    "b_from_e",
    "e_from_b",
    "mobius",
    "q_invariant",
    "DiskClass",
    "singularity_radius",
]


@dataclass(frozen=True)
class GenFn:
    """Rescaled coefficient sequence C_s of one ladder state's power series."""

    p: int
    C: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        _check_count("p", self.p)
        C = np.asarray(self.C, dtype=complex)
        _finite(C, "series coefficients must be finite")
        object.__setattr__(self, "C", C)


def from_state(st: LadderState) -> GenFn:
    """C_s = sqrt(s!/(p+s)!) c_s; exact inverse of :func:`to_state`."""
    return GenFn(st.p, st.coeffs * np.exp(_log_rescale(st.p, len(st.coeffs))))


def to_state(g: GenFn) -> LadderState:
    return LadderState(g.p, g.C * np.exp(-_log_rescale(g.p, len(g.C))))


def ode_residual(g: GenFn, energy: complex, y1: float, y2: float) -> float:
    """Max coefficient mismatch of the eigenstate ODE, order by order.

    The series identity reads, at order m >= 1,

        y2 (m-1) C_{m-2} + (p/2 - E + m - 1) C_{m-1} + y1 (m+p) C_m = 0,

    (order 0 is the inhomogeneity C_0 y1 p on both sides).  Each order only
    looks backward, so every stored order is meaningful for truncated data.
    """
    _check_label(g.p, energy, name="energy")
    _check_couplings(y1, y2)
    C = g.C
    p = g.p
    if len(C) < 2:
        return 0.0
    m = np.arange(1, len(C), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        rows = (p / 2.0 - energy + m - 1.0) * C[:-1] + y1 * (m + p) * C[1:]
        rows[1:] += y2 * (m[1:] - 1.0) * C[:-2]
        worst = float(np.max(np.abs(rows)))
    _finite(worst, "the ODE residual is beyond double range")  # NaN: an infinite term
    return worst


def roots(y: float, alpha: float) -> tuple[float, float]:
    """Zeros z+- of the leading polynomial y2 z^2 + z + y1.

    Both are real and negative in range; z+ is computed in rationalized form
    -2 y1 / (1 + sqrt(1 - 4 y1 y2)) so no cancellation occurs.  At
    alpha = alpha_c the quadratic degenerates (y2 = 0): the finite root -y1
    is returned with -inf marking the escaped partner.  At alpha = 0 the two
    roots are exact inverses of each other; in general their product is
    y1/y2 >= 1.
    """
    y1, y2 = y12(y, alpha)
    if abs(alpha - alpha_c(y)) < 1e-14 or y2 == 0.0:
        return -y1, -math.inf
    disc = math.sqrt(1.0 - 4.0 * y1 * y2)
    z_plus = -2.0 * y1 / (1.0 + disc)
    z_minus = (-1.0 - disc) / (2.0 * y2)
    return z_plus, z_minus


def b_from_e(energy: complex, p: int, y: float, alpha: float) -> complex:
    """Exponent B of the generating function at z+ for a given block energy.

    B = ((p/2 - E - 1) z+ + y1 (p-1)) / (z+ + 2 y1); integer B >= p is the
    analyticity criterion that discretizes the spectrum.
    """
    _check_label(p, energy, name="energy")
    y1, _ = y12(y, alpha)
    z_plus, _ = roots(y, alpha)
    return ((p / 2.0 - energy - 1.0) * z_plus + y1 * (p - 1.0)) / (z_plus + 2.0 * y1)


def e_from_b(B: complex, p: int, y: float, alpha: float) -> complex:
    """Block energy at exponent B: E = sqrt(1 - 4 y1 y2) (B - (p-1)/2) - 1/2.

    Exact inverse of :func:`b_from_e` on the whole range 0 <= alpha <=
    alpha_c; the degenerate limit gives E = B - p/2, so the finite-sum
    eigenstates (energy p/2 + N) sit at the integers B = N + p.  At alpha = 0
    and p = 0 this reproduces the Hermitian-block spectrum at B = n.
    """
    _check_label(p, B, name="B")
    y1, y2 = y12(y, alpha)
    disc = math.sqrt(1.0 - 4.0 * y1 * y2)  # > 0 on the whole alpha range
    return disc * (B - (p - 1.0) / 2.0) - 0.5


def mobius(g: GenFn, alpha: float) -> GenFn:
    """Series of (1 + alpha z)^(-1) G(z / (1 + alpha z)) through order smax.

    Power-series composition by Horner's rule in u = z / (1 + alpha z),
    carried out one output order at a time.  The closing factor is folded in:
    (1 + alpha z)^(-1) G(u) = H(u) / z with H(w) = w G(w), so the result is
    H(u) shifted down by one order.  Let W_i be the Horner state after i
    coefficients of H.  Multiplying by u is the first-order recurrence
    (u W)[k] = W[k-1] - alpha (u W)[k-1], hence W_i[k] = W_{i-1}[k-1] -
    alpha W_i[k-1]: the column of order k, taken over all i, is one shift and
    one axpy of the column of order k-1, and its last entry is the
    coefficient of order k.  Only the rows that still reach that last entry
    are kept, one fewer per order, so the cost is n^2/2 complex axpys in n
    numpy steps with O(n) extra memory and no n x n array.  A result (or
    Horner state) beyond double range is refused with ``ValueError``.  This
    is the batch-1 face of :func:`_mobius`.

    This is the in-package referee of the exponential pair transform and is
    deliberately a different arithmetic route: repeated float64 differencing
    in the Moebius picture, sharing no code with the binomial columns
    (running products of C(m, s) t^(m-s) in ``pair_transform._EXT``) of
    :mod:`pairspec.pair_transform`; the two must agree coefficientwise.
    """
    if len(g.C) == 0:
        return g
    return GenFn(g.p, _mobius(g.C, alpha))


def _mobius(C: np.ndarray, alpha) -> np.ndarray:
    """:func:`mobius` over C of shape (n,) or (rows, n), alpha a scalar or
    one per row.

    The orders run over the first axis of a transposed copy, so a batch
    takes the same n numpy steps as a single series; a real alpha times a
    complex column rounds each part once, so a row has the bits of the
    single series.  The first row with a coefficient beyond double range is
    refused with ``ValueError`` naming the row.
    """
    n = C.shape[-1]
    # the order-1 column of H's Horner states is its order-0 column shifted:
    # over the rows that reach the result, the coefficients of G in reverse
    col = C[..., ::-1].T.copy()
    out = np.empty(col.shape, dtype=complex)
    out[0] = col[-1]
    # overflow becomes inf or nan here and is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n):
            col[:-1] -= alpha * col[1:]
            col = col[:-1]
            out[k] = col[-1]
    out = out.T
    _refuse_rows(~np.isfinite(out).all(axis=-1), lambda a: (
        f"Moebius image at alpha={a!r} of this length-{n} series has coefficients "
        "beyond double range"), alpha)
    return out


def q_invariant(y: float, alpha: float) -> float:
    """The alpha-independent combination Q = alpha y + 2y (y - alpha + alpha^2 y)
    / (1 - 2 alpha y - sqrt(1 - 4 y^2)).

    Q equals (1 + sqrt(1 - 4 y^2))/2 for every alpha in [0, alpha_c].  The
    defining quotient has a removable 0/0 at alpha = alpha_c (the denominator
    is exactly 2y (alpha_c - alpha)), so once the denominator drops below
    1e-3 the evaluation switches to the exactly cancelled form
    alpha y - y (alpha - alpha_r), alpha_r = (1 + sqrt(1-4y^2))/(2y).
    """
    y12(y, alpha)  # refuses y outside (0, 1/2) and alpha outside [0, alpha_c]
    root = math.sqrt(1.0 - 4.0 * y * y)
    den = 1.0 - 2.0 * alpha * y - root
    if abs(den) < 1e-3:
        alpha_r = (1.0 + root) / (2.0 * y)
        return alpha * y + y * (alpha_r - alpha)
    return alpha * y + 2.0 * y * (y - alpha + alpha * alpha * y) / den


class DiskClass(enum.Enum):
    ANALYTIC_IN_DISK = "AnalyticInDisk"
    SINGULAR_IN_DISK = "SingularInDisk"
    BOUNDARY = "Boundary"
    INCONCLUSIVE = "Inconclusive"


def singularity_radius(g: GenFn) -> tuple[float, DiskClass]:
    """Convergence-radius estimate of G and its unit-disk classification.

    A ratio test (median of consecutive magnitude ratios) and a root test
    (fitted log-magnitude slope, exact on geometric tails and only O(1/s)
    biased by power-law prefactors) are evaluated over the trailing half of
    the *numerically meaningful* coefficients and the larger estimate wins.
    Entries below 1e-11 of the peak are treated as zero: series produced by
    floating transforms bottom out at an absolute noise floor, and fitting
    that floor would fake a unit radius.  The classification band around
    radius 1 is 2% wide, absorbing the slow corrections such tails carry.
    Fewer than 64 coefficients, or a tail too sparse to test, is
    Inconclusive; an exactly terminating (polynomial) tail is analytic with
    infinite radius.
    """
    n = len(g.C)
    if n < 64:
        return math.nan, DiskClass.INCONCLUSIVE
    mags = np.abs(g.C)
    peak = mags.max()
    if peak == 0.0:
        return math.inf, DiskClass.ANALYTIC_IN_DISK
    usable = np.nonzero(mags > 1e-11 * peak)[0]
    last = int(usable[-1])
    if (last <= 8 or last < n // 2) and mags[last + 1 :].max(initial=0.0) == 0.0:
        return math.inf, DiskClass.ANALYTIC_IN_DISK
    window = usable[usable >= max(4, last // 2)]
    if len(window) < 6:
        return math.nan, DiskClass.INCONCLUSIVE
    slope = np.polyfit(window.astype(float), np.log(mags[window]), 1)[0]
    root_est = float(np.exp(-slope))
    in_window = set(window.tolist())
    ratios = [mags[m - 1] / mags[m] for m in window if m - 1 in in_window]
    ratio_est = float(np.median(ratios)) if ratios else 0.0
    radius = max(root_est, ratio_est)
    if radius > 1.02:
        return radius, DiskClass.ANALYTIC_IN_DISK
    if radius < 0.98:
        return radius, DiskClass.SINGULAR_IN_DISK
    return radius, DiskClass.BOUNDARY
