"""Closed-form excited states on pair ladders and their diagnostics.

The critical-transform block (y2 = 0, coupling ytilde) has an explicit
eigenstate for every imbalance p and complex label theta:

    c_s = ytilde^(-s) * binom(theta, s) * binom(p+s, s)^(-1/2),

with energy p/2 + theta.  The label terminates the sum exactly when theta is
a nonnegative integer; otherwise square-summability is decided by ytilde and
the Stirling tail exponent.  This module builds the states two independent
ways (the product formula as a log-space product in extended precision, and
the energy recurrence, its referee), classifies normalizability, and
measures eigen-residuals.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from . import pair_transform
from .fock_ladder import LadderState, _check_count, _check_counts, _norm
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

    ``p`` and ``smax`` are integers >= 0 (``smax`` caps the stored expansion;
    the sum itself terminates at s = theta when theta is a nonnegative
    integer), ``theta`` is finite and ``ytilde`` finite and > 0.
    """

    p: int
    theta: complex
    ytilde: float
    smax: int

    def __post_init__(self) -> None:
        _check_label(self.p, self.theta, self.ytilde, self.smax)


def _check_label(p: int, theta: complex, ytilde=1.0, smax=0, name="theta") -> None:
    """The one label guard: p and smax integers >= 0, theta (called ``name``) finite,
    ytilde finite and > 0; a function without ytilde or smax keeps the default."""
    _check_count("p", p)
    _check_count("smax", smax)
    if not cmath.isfinite(theta):
        raise ValueError(f"{name} must be finite, got {theta}")
    if not 0 < ytilde < math.inf:
        raise ValueError(f"ytilde must be finite and > 0, got {ytilde}")


def _check_tail_theta(theta: float) -> None:
    """Refuse a label without a real Stirling tail: a non-real or a nonnegative
    integer theta."""
    theta = complex(theta)
    if theta.imag != 0.0:
        raise ValueError(f"theta must be real, got {theta}")
    if _integer_theta(theta) is not None:
        raise ValueError("theta is a nonnegative integer; the expansion terminates")


def _integer_theta(theta: complex) -> int | None:
    """The nonnegative integer value of theta, or None."""
    r = theta.real
    return int(r) if theta.imag == 0.0 and r >= 0 and r.is_integer() else None


def psi_p_theta(spec: EigenstateSpec, normalize: bool = False) -> LadderState:
    """Build the eigenstate as the log-space product c_s = phase_s exp(L_s).

    L_s and phase_s are :func:`_log_terms`' running log sum (in
    ``pair_transform._EXT``) and running product of unit phases; exp(L_s) is
    taken in ``_EXT`` and rounded to double once.  No Gamma quotient or
    factorial is formed, so the arithmetic is independent of the energy
    recurrence (:func:`recurrence_coeffs`), and past a terminating theta the
    coefficients are exactly zero.  Against 40-digit mpmath the relative error
    stays near 1e-14 up to smax = 300 where ``_EXT`` is x87 extended
    precision, and near 1e-12 where it is double.  The internal convention is
    c_0 = 1; ``normalize`` rescales to unit norm and is refused for
    non-square-summable labels.  A coefficient beyond double range raises
    ``ValueError`` naming the largest representable ``smax``.
    """
    log_mag, phase = _log_terms(spec.ytilde, complex(spec.theta), spec.p, spec.smax)
    with np.errstate(over="ignore"):  # refused below
        mag = np.exp(log_mag).astype(float)
    label = f"p={spec.p}, theta={spec.theta}, ytilde={spec.ytilde}"
    _refuse_beyond_range(mag, "eigenstate coefficient", label)
    c = np.zeros(spec.smax + 1, dtype=complex)
    np.multiply(phase, mag, out=c[: len(mag)])
    st = LadderState(spec.p, c)
    if normalize:
        if classify_normalizable(spec.ytilde, spec.theta, spec.p) is Normalizability.NOT_NORMALIZABLE:
            raise ValueError("state is not square-summable; refusing to normalize")
        st = LadderState(spec.p, c / st.norm())
    return st


def _refuse_beyond_range(values: np.ndarray, what: str, label: str) -> None:
    """Raise ValueError at the first s with values[s] beyond double range,
    naming that index and the largest representable smax."""
    finite = np.isfinite(values)
    if not finite.all():
        s = int(np.argmin(finite))
        raise ValueError(
            f"{what} c_{s} ({label}) is beyond double range; "
            f"the largest representable smax is {s - 1}"
        )


def recurrence_coeffs(energy: complex, p: int, ytilde: float, smax: int) -> LadderState:
    """Iterate the eigenvalue difference scheme upward from c_0 = 1.

    c_{s+1} = (E - p/2 - s) c_s / (ytilde sqrt((p+s+1)(s+1))).  Coefficient-
    wise this must reproduce :func:`psi_p_theta` with theta = E - p/2.  A
    coefficient beyond double range raises ``ValueError`` naming it.
    """
    _check_label(p, energy, ytilde, smax, "energy")
    c = np.zeros(smax + 1, dtype=complex)
    c[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        for s in range(smax):
            c[s + 1] = (energy - p / 2.0 - s) * c[s] / (ytilde * math.sqrt((p + s + 1) * (s + 1)))
    _refuse_beyond_range(c, "recurrence coefficient", f"energy={energy}, p={p}, ytilde={ytilde}")
    return LadderState(p, c)


def classify_normalizable(ytilde: float, theta: complex, p: int) -> Normalizability:
    """Decide square-summability of the (p, theta) expansion at coupling ytilde.

    Integer labels terminate.  Otherwise the tail behaves like
    ytilde^(-2s) / s^(2*theta+2+p), so ytilde < 1 diverges, ytilde > 1
    converges, and at ytilde = 1 the power of s decides.
    """
    _check_label(p, theta, ytilde)
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


def _transform_in_domain(ytilde: float, theta: complex, p: int, alpha: float) -> bool:
    """Whether exp(-alpha a*b*), alpha in (0, 1), keeps the (p, theta) state at
    coupling ytilde square-summable: the state's own verdict
    (:func:`classify_normalizable`) at the mapped coupling ytilde / (1 + alpha ytilde).

    In rescaled coordinates C_s = sqrt(s!/(p+s)!) c_s the state's generating
    function G(z) = sum C_s z^s is proportional to 2F1(-theta, 1; p+1; -z/ytilde),
    and the transform's Taylor shift (``pair_transform``) maps it to
    (1 + alpha z)^(-1) G(z / (1 + alpha z)).  A terminating theta makes G a
    polynomial, whose image is analytic out to the pole at -1/alpha, beyond
    the unit disk: always in the domain.  Otherwise G's one singularity is the
    branch point -ytilde, where G ~ (1 + z/ytilde)^(p+theta) (times a log
    where p+theta is a nonnegative integer), so that
    |c_s|^2 ~ ytilde^(-2s) s^-(2 Re theta + 2 + p).  The image's branch point
    is the point that z -> z / (1 + alpha z) sends to -ytilde, namely
    -ytilde / (1 + alpha ytilde); the pole at -1/alpha lies farther out, and
    the map is conformal there, so the local exponent stays p+theta and only
    the coupling moves.  So the image grows
    geometrically where ytilde (1 - alpha) < 1 and decays where it is > 1,
    and at a mapped coupling of 1 the exponent 2 Re theta + 2 + p decides, as
    for the state itself.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    mapped = ytilde / (1.0 + alpha * ytilde)
    return classify_normalizable(mapped, theta, p) is not Normalizability.NOT_NORMALIZABLE


def coeff_log_magnitudes(ytilde: float, theta: float, p: int, smax: int) -> np.ndarray:
    """log |c_s| for s = 0..smax, computed entirely in log space.

    Only real non-integer theta is supported (the nonterminating case); the
    running sum of log|theta - j| replaces the Gamma quotient so no pole is
    ever evaluated.
    """
    _check_label(p, theta, ytilde, smax)
    _check_tail_theta(theta)
    return _log_terms(ytilde, theta, p, smax)[0].astype(float)


def _log_terms(ytilde: float, theta: complex, p: int, smax: int) -> tuple[np.ndarray, np.ndarray]:
    """log|c_s| in ``pair_transform._EXT`` and the unit phase c_s / |c_s|, for
    s = 0 up to smax or a terminating theta, whichever comes first: log|c_s|
    is a running sum, in ``_EXT``, of the logs of the term ratios
    |c_j / c_{j-1}| ytilde = |theta+1-j| / sqrt(j (j+p)), each less log ytilde
    (also in ``_EXT``); no Gamma or factorial is formed.  The phase is the
    running product of the unit factors (theta+1-j) / |theta+1-j|, exactly
    +-1 for real theta.  An underflowed term ratio gives log|c_s| = -inf.  A step
    theta+1-j whose modulus is beyond double range is halved (exactly) first.
    """
    n_int = _integer_theta(theta)
    top = smax if n_int is None else min(smax, n_int)
    j = np.arange(1.0, top + 1)
    step = theta - (j - 1)  # nonzero up to top
    size = np.abs(step)
    # |step| <= |theta.real| + |theta.imag| + j - 1, so only a theta past this bound
    # can overflow |step|; such steps are halved (the phase keeps) and log 2 is
    # added back to their log ratios
    huge = abs(theta.real) + abs(theta.imag) > 1e308
    if huge:
        halved = np.isinf(size)
        step[halved] *= 0.5
        size[halved] = np.abs(step[halved])
    log_mag = np.zeros(top + 1, dtype=pair_transform._EXT)
    with np.errstate(divide="ignore"):  # an underflowed ratio: log|c_s| = -inf
        np.log(size / np.sqrt(j * (j + p)), out=log_mag[1:])
    log_mag[1:] -= np.log(pair_transform._EXT(ytilde))
    if huge:
        log_mag[1:][halved] += np.log(pair_transform._EXT(2.0))
    np.add.accumulate(log_mag, out=log_mag)
    phase = np.empty(top + 1, dtype=complex)
    phase[0] = 1.0
    np.divide(step.real, size, out=phase.real[1:])  # part by part, as CPython divides by a float
    np.divide(step.imag, size, out=phase.imag[1:])
    np.multiply.accumulate(phase, out=phase)
    return log_mag, phase


def partial_norms(ytilde: float, theta: float, p: int, smax: int) -> np.ndarray:
    """Running sums sum_{s<=S} |c_s|^2 for S = 0..smax, via log-space terms.

    A sum beyond double range raises ``ValueError`` naming its index.
    """
    logc = coeff_log_magnitudes(ytilde, theta, p, smax)
    # a running log-sum-exp keeps the divergent case finite in log space
    with np.errstate(over="ignore"):
        norms = np.exp(np.logaddexp.accumulate(2.0 * logc))
    _refuse_beyond_range(norms, "partial norm through", f"p={p}, theta={theta}, ytilde={ytilde}")
    return norms


def tail_constant(
    ytilde: float, theta: float, p: int, srange: np.ndarray
) -> np.ndarray:
    """Rescaled tail ratios r_s = |c_s|^2 ytilde^(2s) s^(2 theta + 2 + p).

    For nonterminating real theta the ratios converge to
    Gamma(1+p) / Gamma(-theta)^2, the Stirling constant of the coefficient
    tail; everything is assembled in log space and exponentiated once.
    """
    srange = _check_counts("srange", srange, low=1)  # s^(2 theta + 2 + p) has no log at s = 0
    logc = coeff_log_magnitudes(ytilde, theta, p, int(srange.max(initial=0)))
    s = srange.astype(float)
    logr = 2.0 * logc[srange] + 2.0 * s * math.log(ytilde) + (2.0 * theta + 2.0 + p) * np.log(s)
    with np.errstate(over="ignore"):
        ratios = np.exp(logr)
    beyond = srange[~np.isfinite(ratios)]
    if beyond.size:
        raise ValueError(
            f"tail ratio r_{beyond.min()} (p={p}, theta={theta}, ytilde={ytilde}) "
            "is beyond double range"
        )
    return ratios


def stirling_tail_limit(theta: float, p: int) -> float:
    """Gamma(1+p) / Gamma(-theta)^2 via lgamma (theta real, non-integer).

    The square makes the sign of Gamma(-theta) irrelevant, so log|Gamma| is
    exactly what is needed.  A limit that is not a normal double (beyond
    double range, or below its normal range, as at theta = +-1e-300) is
    refused with ``ValueError``.
    """
    _check_label(p, theta)
    _check_tail_theta(theta)
    try:
        limit = math.exp(math.lgamma(1.0 + p) - 2.0 * math.lgamma(-theta))
    except OverflowError:
        limit = math.inf
    if not pair_transform._TINY <= limit < math.inf:
        where = "beyond double range" if limit else "below double's normal range"
        raise ValueError(
            f"the tail limit Gamma(1+p) / Gamma(-theta)^2 at p={p}, theta={theta} is {where}"
        )
    return limit


def residual(st: LadderState, y1: float, y2: float, energy: complex) -> float:
    """|| (H - E) st || with the top boundary row excluded.

    Row smax of the operator image needs the missing coefficient c_{smax+1},
    so it (and any spillover row) is dropped from the norm; exact finite
    eigenstates stored with at least one trailing zero give ~1e-16 * ||st||.
    A non-finite energy, and a residual beyond double range, raise ``ValueError``.
    """
    _check_label(st.p, energy, name="energy")
    image = apply_hab_alpha(st, y1, y2)
    top = st.smax  # rows 0 .. smax-1 are fully determined by the stored data
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _norm
        diff = image.coeffs[:top] - energy * st.coeffs[:top]
    return _norm(diff, "the residual")
