"""Closed-form excited states on pair ladders and their diagnostics.

The critical-transform block (y2 = 0, coupling ytilde) has an explicit
eigenstate for every imbalance p and complex label theta:

    c_s = ytilde^(-s) * binom(theta, s) * binom(p+s, s)^(-1/2),

with energy p/2 + theta.  The label terminates the sum exactly when theta is
a nonnegative integer; otherwise square-summability is decided by ytilde and
the Stirling tail exponent.  This module builds the states two independent
ways (product formula and energy recurrence), classifies normalizability,
and measures eigen-residuals.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .fock_ladder import LadderState
from .hamiltonians import apply_hab_alpha

__all__ = [
    "EigenstateSpec",
    "Normalizability",
    "psi_p_theta",
    "recurrence_coeffs",
    "classify_normalizable",
    "tail_constant",
    "stirling_tail_limit",
    "coeff_log_magnitudes",
    "partial_norms",
    "residual",
]


class Normalizability(enum.Enum):
    FINITE_SUM = "FiniteSum"
    NORMALIZABLE = "Normalizable"
    NOT_NORMALIZABLE = "NotNormalizable"


@dataclass(frozen=True)
class EigenstateSpec:
    """Construction inputs for one ladder eigenstate.

    ``theta`` may be any complex number; ``smax`` caps the stored expansion
    (the sum itself terminates at s = theta when theta is a nonnegative
    integer).
    """

    p: int
    theta: complex
    ytilde: float
    smax: int
    mirror: bool = False


def _integer_theta(theta: complex) -> int | None:
    """The nonnegative integer value of theta, or None."""
    if theta.imag != 0.0:
        return None
    r = theta.real
    if r >= 0 and r == int(r):
        return int(r)
    return None


def psi_p_theta(spec: EigenstateSpec, normalize: bool = False) -> LadderState:
    """Build the eigenstate from the product-form generalized binomial.

    binom(theta, s) is accumulated as the finite product prod_{j<s}(theta-j)/s!
    (no Gamma quotients, so integer theta hits exact zeros) and binom(p+s, s)
    is accumulated separately, giving arithmetic independent of the energy
    recurrence route.  The internal convention is c_0 = 1; ``normalize``
    rescales to unit norm and is refused for non-square-summable labels.

    From the first s at which the product leaves double range (ytilde^(-s)
    overflows, or a factor or the coefficient over- or underflows) the
    remaining coefficients are formed in log space instead: the magnitude
    from :func:`coeff_log_magnitudes`' running log-sum, the phase as the
    running product of (theta-j)/|theta-j|.  A coefficient that is itself
    beyond double range raises ``ValueError`` naming the largest
    representable ``smax``.
    """
    if spec.ytilde <= 0:
        raise ValueError(f"ytilde must be > 0, got {spec.ytilde}")
    theta = complex(spec.theta)
    n_int = _integer_theta(theta)
    top = spec.smax if n_int is None else min(spec.smax, n_int)
    c = np.zeros(spec.smax + 1, dtype=complex)
    binom_theta = 1.0 + 0.0j
    binom_ps = 1.0  # binom(p+s, s)
    c[0] = 1.0
    for s in range(1, top + 1):
        binom_theta *= (theta - (s - 1)) / s
        binom_ps *= (spec.p + s) / s
        try:
            c[s] = spec.ytilde ** (-s) * binom_theta / math.sqrt(binom_ps)
        except OverflowError:
            break  # c[s] stays zero and is caught below
    # no factor vanishes before top, so a zero is an underflow
    left = np.flatnonzero((c[1 : top + 1] == 0) | ~np.isfinite(c[1 : top + 1]))
    if left.size:
        start = 1 + int(left[0])
        c[start : top + 1] = _log_space_coeffs(spec, start, top)
    st = LadderState(spec.p, c, spec.mirror)
    if normalize:
        if classify_normalizable(spec.ytilde, theta, spec.p) is Normalizability.NOT_NORMALIZABLE:
            raise ValueError("state is not square-summable; refusing to normalize")
        st = LadderState(spec.p, c / st.norm(), spec.mirror)
    return st


def _log_space_coeffs(spec: EigenstateSpec, start: int, top: int) -> np.ndarray:
    """Coefficients c_start..c_top of :func:`psi_p_theta` assembled in log space."""
    theta = complex(spec.theta)
    with np.errstate(over="ignore"):
        mag = np.exp(_log_coeffs(spec.ytilde, theta, spec.p, top).real)
    phase = _unit_phases(theta, top)
    beyond = np.flatnonzero(~np.isfinite(mag[start:]))
    if beyond.size:
        s = start + int(beyond[0])
        raise ValueError(
            f"eigenstate coefficient c_{s} (p={spec.p}, theta={spec.theta}, "
            f"ytilde={spec.ytilde}) is beyond double range; the largest "
            f"representable smax is {s - 1}"
        )
    return (phase * mag)[start:]


def recurrence_coeffs(energy: complex, p: int, ytilde: float, smax: int) -> LadderState:
    """Iterate the eigenvalue difference scheme upward from c_0 = 1.

    c_{s+1} = (E - p/2 - s) c_s / (ytilde sqrt((p+s+1)(s+1))).  Coefficient-
    wise this must reproduce :func:`psi_p_theta` with theta = E - p/2.
    """
    if ytilde <= 0:
        raise ValueError(f"ytilde must be > 0, got {ytilde}")
    c = np.zeros(smax + 1, dtype=complex)
    c[0] = 1.0
    for s in range(smax):
        c[s + 1] = (energy - p / 2.0 - s) * c[s] / (ytilde * math.sqrt((p + s + 1) * (s + 1)))
    return LadderState(p, c)


def classify_normalizable(ytilde: float, theta: complex, p: int) -> Normalizability:
    """Decide square-summability of the (p, theta) expansion at coupling ytilde.

    Integer labels terminate.  Otherwise the tail behaves like
    ytilde^(-2s) / s^(2*theta+2+p), so ytilde < 1 diverges, ytilde > 1
    converges, and at ytilde = 1 the power of s decides.
    """
    if ytilde <= 0:
        raise ValueError(f"ytilde must be > 0, got {ytilde}")
    theta = complex(theta)
    if _integer_theta(theta) is not None:
        return Normalizability.FINITE_SUM
    if ytilde < 1.0:
        return Normalizability.NOT_NORMALIZABLE
    if ytilde > 1.0:
        return Normalizability.NORMALIZABLE
    exponent = 2.0 * theta.real + 2.0 + p
    if exponent > 1.0:
        return Normalizability.NORMALIZABLE
    return Normalizability.NOT_NORMALIZABLE


def coeff_log_magnitudes(ytilde: float, theta: float, p: int, smax: int) -> np.ndarray:
    """log |c_s| for s = 0..smax, computed entirely in log space.

    Only real non-integer theta is supported (the nonterminating case); the
    running sum of log|theta - j| replaces the Gamma quotient so no pole is
    ever evaluated.
    """
    if ytilde <= 0:
        raise ValueError(f"ytilde must be > 0, got {ytilde}")
    if _integer_theta(complex(theta)) is not None:
        raise ValueError("theta is a nonnegative integer; the expansion terminates")
    return _log_coeffs(ytilde, theta, p, smax).real


def _log_coeffs(ytilde: float, theta: complex, p: int, smax: int) -> np.ndarray:
    """log c_s = log|c_s| + i arg c_s for s = 0..smax.

    The real part is -inf past a terminating theta; arg c_s lies in (-pi, pi]
    and is exactly 0 or pi for real theta.
    """
    s = np.arange(smax + 1, dtype=float)
    j = np.arange(smax, dtype=float)
    with np.errstate(divide="ignore"):  # theta - j = 0 terminates the expansion
        log_binom_theta = np.concatenate(
            ([0.0], np.cumsum(np.log(np.abs(theta - j))))
        ) - np.array([math.lgamma(v + 1.0) for v in s])
    log_binom_ps = np.array(
        [math.lgamma(p + v + 1.0) - math.lgamma(v + 1.0) - math.lgamma(p + 1.0) for v in s]
    )
    arg = np.angle(_unit_phases(theta, smax))
    return -s * math.log(ytilde) + log_binom_theta - 0.5 * log_binom_ps + 1j * arg


def _unit_phases(theta: complex, smax: int) -> np.ndarray:
    """prod_{j<s} (theta-j)/|theta-j| for s = 0..smax: exactly +-1 for real
    theta, and 0 past a terminating one."""
    step = theta - np.arange(smax, dtype=float)
    unit = np.divide(step, np.abs(step), out=np.zeros_like(step), where=step != 0)
    return np.concatenate(([1.0 + 0.0j], np.cumprod(unit)))


def partial_norms(ytilde: float, theta: float, p: int, smax: int) -> np.ndarray:
    """Running sums sum_{s<=S} |c_s|^2 for S = 0..smax, via log-space terms."""
    logc = coeff_log_magnitudes(ytilde, theta, p, smax)
    # running logsumexp keeps the divergent case finite in log space
    out = np.empty(smax + 1)
    running = -np.inf
    for i, lc in enumerate(2.0 * logc):
        hi = max(running, lc)
        running = hi + math.log(math.exp(running - hi) + math.exp(lc - hi))
        out[i] = running
    return np.exp(out)


def tail_constant(
    ytilde: float, theta: float, p: int, srange: np.ndarray
) -> np.ndarray:
    """Rescaled tail ratios r_s = |c_s|^2 ytilde^(2s) s^(2 theta + 2 + p).

    For nonterminating real theta the ratios converge to
    Gamma(1+p) / Gamma(-theta)^2, the Stirling constant of the coefficient
    tail; everything is assembled in log space and exponentiated once.
    """
    srange = np.asarray(srange, dtype=int)
    if srange.size == 0:
        return np.zeros(0)
    smax = int(srange.max())
    logc = coeff_log_magnitudes(ytilde, theta, p, smax)
    s = srange.astype(float)
    logr = 2.0 * logc[srange] + 2.0 * s * math.log(ytilde) + (2.0 * theta + 2.0 + p) * np.log(s)
    return np.exp(logr)


def stirling_tail_limit(theta: float, p: int) -> float:
    """Gamma(1+p) / Gamma(-theta)^2 via lgamma (theta real, non-integer).

    The square makes the sign of Gamma(-theta) irrelevant, so log|Gamma| is
    exactly what is needed.
    """
    return math.exp(math.lgamma(1.0 + p) - 2.0 * math.lgamma(-theta))


def residual(st: LadderState, y1: float, y2: float, energy: complex) -> float:
    """|| (H - E) st || with the top boundary row excluded.

    Row smax of the operator image needs the missing coefficient c_{smax+1},
    so it (and any spillover row) is dropped from the norm; exact finite
    eigenstates stored with at least one trailing zero give ~1e-16 * ||st||.
    """
    image = apply_hab_alpha(st, y1, y2)
    top = st.smax  # rows 0 .. smax-1 are fully determined by the stored data
    diff = image.coeffs[:top] - energy * st.coeffs[:top]
    return float(np.linalg.norm(diff))
