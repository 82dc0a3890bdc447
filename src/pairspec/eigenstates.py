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
from .fock_ladder import LadderState, _check_count, _check_counts, _norm, _per_row, _refuse_rows
from .hamiltonians import _check_couplings, _hab_rows

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
    if _terminates(theta):
        raise ValueError("theta is a nonnegative integer; the expansion terminates")


def _terminates(theta):
    """Whether theta, a complex number or array, is a nonnegative integer, where
    the expansion stops at s = theta."""
    r = theta.real
    return (theta.imag == 0.0) & (r >= 0) & (np.floor(r) == r)


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
    ``ValueError`` naming the largest representable ``smax``.  This is the
    batch-1 face of :func:`_psi_rows`.
    """
    st = LadderState(spec.p, _psi_rows(spec.p, spec.theta, spec.ytilde, spec.smax))
    if normalize:
        if classify_normalizable(spec.ytilde, spec.theta, spec.p) is Normalizability.NOT_NORMALIZABLE:
            raise ValueError("state is not square-summable; refusing to normalize")
        st = LadderState(spec.p, st.coeffs / st.norm())
    return st


def _psi_rows(p, theta, ytilde, smax) -> np.ndarray:
    """The coefficients of :func:`psi_p_theta` over rows of labels (p, theta,
    ytilde, smax), which broadcast together and are valid labels (not checked
    here): shape (max smax + 1,) with a leading batch axis where they have one,
    each row zero past its own smax.  A row has the bits of its single state.
    The first row with a coefficient beyond double range is refused with
    ``ValueError`` naming the row.
    """
    log_mag, phase = _log_terms(ytilde, theta, p, smax)
    with np.errstate(over="ignore"):  # refused below
        mag = np.exp(log_mag).astype(float)
    _refuse_beyond_range(mag, "eigenstate coefficient", lambda p, theta, ytilde: (
        f"p={p}, theta={theta}, ytilde={ytilde}"), p, theta, ytilde)
    c = np.zeros(mag.shape[:-1] + (int(np.max(smax)) + 1,), dtype=complex)
    np.multiply(phase, mag, out=c[..., : mag.shape[-1]])  # +0 past a row's top, where the phase is 0
    return c


def _refuse_beyond_range(values: np.ndarray, what: str, label, *args) -> None:
    """Raise ValueError at the first row (leading axes) of values with an entry
    beyond double range, at that row's first such index s along the last axis,
    naming s and the largest representable smax; ``label(*args at the row)``
    describes the row, as ``fock_ladder._refuse_rows`` reads its arguments."""
    finite = np.isfinite(values)
    if not finite.all():
        _refuse_rows(~finite.all(axis=-1), lambda s, *row: (
            f"{what} c_{s} ({label(*row)}) is beyond double range; "
            f"the largest representable smax is {s - 1}"), np.argmin(finite, axis=-1), *args)


def recurrence_coeffs(energy: complex, p: int, ytilde: float, smax: int) -> LadderState:
    """Iterate the eigenvalue difference scheme upward from c_0 = 1.

    c_{s+1} = (E - p/2 - s) c_s / (ytilde sqrt((p+s+1)(s+1))).  Coefficient-
    wise this must reproduce :func:`psi_p_theta` with theta = E - p/2.  A
    coefficient beyond double range raises ``ValueError`` naming it.  This is
    the batch-1 face of :func:`_recurrence_rows`.
    """
    _check_label(p, energy, ytilde, smax, "energy")
    return LadderState(p, _recurrence_rows(energy, p, ytilde, smax))


def _recurrence_rows(energy, p, ytilde, smax) -> np.ndarray:
    """The coefficients of :func:`recurrence_coeffs` over rows of (energy, p,
    ytilde, smax), which broadcast together and are valid (not checked here):
    shape (max smax + 1,) with a leading batch axis where they have one, each
    row zero past its own smax.

    Step s forms (E - p/2 - s) c_s in CPython's complex arithmetic: the factor
    E - p/2 - s as CPython subtracts a float and then an int, and the product
    by ``pair_transform._cmul``, whose formulas are those of numpy's scalar
    complex multiply (its array loop may fuse multiply-adds).  The quotient by
    ytilde sqrt((p+s+1)(s+1)) is numpy's complex-by-real division, the loop its
    scalar division runs.  So a row has the bits of the scalar iteration in
    CPython's ints while p + smax < 2^53, where p+s+1 is exact in a double and
    (p+s+1)(s+1) is rounded once, as CPython rounds the exact int.  The first
    row with a coefficient beyond double range is refused with ``ValueError``
    naming the row.
    """
    shown = energy, p, ytilde
    energy, p, ytilde, smax = np.broadcast_arrays(
        np.asarray(energy, dtype=complex), np.asarray(p, dtype=float),
        np.asarray(ytilde, dtype=float), np.asarray(smax))
    # step s on the first axis: for a single row, c[s] is a numpy scalar
    s = np.arange(float(smax.max(initial=0))).reshape((-1,) + (1,) * energy.ndim)
    factor = np.empty(s.shape[:1] + energy.shape, dtype=complex)
    factor.real = energy.real - p / 2.0 - s
    factor.imag = energy.imag
    den = ytilde * np.sqrt((p + (s + 1.0)) * (s + 1.0))
    c = np.zeros((len(s) + 1,) + energy.shape, dtype=complex)
    c[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        for j in range(len(s)):
            c[j + 1] = pair_transform._cmul(factor[j], c[j]) / den[j]
    c = np.moveaxis(c, 0, -1)
    c[np.arange(c.shape[-1]) > smax[..., None]] = 0.0  # each row stops at its own smax
    _refuse_beyond_range(c, "recurrence coefficient", lambda energy, p, ytilde: (
        f"energy={energy}, p={p}, ytilde={ytilde}"), *shown)
    return c


def classify_normalizable(ytilde: float, theta: complex, p: int) -> Normalizability:
    """Decide square-summability of the (p, theta) expansion at coupling ytilde.

    Integer labels terminate.  Otherwise the tail behaves like
    ytilde^(-2s) / s^(2*theta+2+p), so ytilde < 1 diverges, ytilde > 1
    converges, and at ytilde = 1 the power of s decides.
    """
    _check_label(p, theta, ytilde)
    theta = complex(theta)
    if _terminates(theta):
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


def _log_terms(ytilde, theta, p, smax) -> tuple[np.ndarray, np.ndarray]:
    """log|c_s| in ``pair_transform._EXT`` and the unit phase c_s / |c_s|, for
    s = 0 up to smax or a terminating theta, whichever comes first: log|c_s|
    is a running sum, in ``_EXT``, of the logs of the term ratios
    |c_j / c_{j-1}| ytilde = |theta+1-j| / sqrt(j (j+p)), each less log ytilde
    (also in ``_EXT``); no Gamma or factorial is formed.  The phase is the
    running product of the unit factors (theta+1-j) / |theta+1-j|, exactly
    +-1 for real theta.  An underflowed term ratio gives log|c_s| = -inf.  A step
    theta+1-j whose modulus is beyond double range is halved (exactly) first.

    The labels broadcast together, and a leading batch axis, where they have
    one, is a batch of rows along the last axis, up to the largest row's top.
    Past its own top a row's steps are 1 and its log ratios 0, so the sum keeps
    its value at the top (no 0/0 phase, no log of 0), and its phases are 0.
    A row has the bits of the single label: the sums run along the last axis.
    """
    ytilde, theta, p, smax = np.broadcast_arrays(
        np.asarray(ytilde, dtype=float), np.asarray(theta, dtype=complex),
        np.asarray(p, dtype=float), np.asarray(smax))
    stops = _terminates(theta) & (theta.real < smax)
    top = np.array(smax)
    top[stops] = theta.real[stops]  # an integer below smax: exact
    j = np.arange(1.0, top.max(initial=0) + 1)
    dead = j > top[..., None]
    step = theta[..., None] - (j - 1)  # nonzero up to top
    step[dead] = 1.0
    size = np.abs(step)
    # |step| <= |theta.real| + |theta.imag| + j - 1, so only a theta past 1e308
    # can overflow |step|; such steps are halved (the phase keeps) and log 2 is
    # added back to their log ratios
    halved = np.isinf(size)
    huge = halved.any()
    if huge:
        step[halved] *= 0.5
        size[halved] = np.abs(step[halved])
    log_mag = np.zeros(dead.shape[:-1] + (len(j) + 1,), dtype=pair_transform._EXT)
    steps = log_mag[..., 1:]
    with np.errstate(divide="ignore"):  # an underflowed ratio: log|c_s| = -inf
        np.log(size / np.sqrt(j * (j + p[..., None])), out=steps)
    steps -= np.log(ytilde.astype(pair_transform._EXT))[..., None]
    if huge:
        steps[halved] += np.log(pair_transform._EXT(2.0))
    steps[dead] = 0.0
    np.add.accumulate(log_mag, axis=-1, out=log_mag)
    phase = np.empty(log_mag.shape, dtype=complex)
    phase[..., 0] = 1.0
    np.divide(step.real, size, out=phase.real[..., 1:])  # part by part, as CPython divides by a float
    np.divide(step.imag, size, out=phase.imag[..., 1:])
    np.multiply.accumulate(phase, axis=-1, out=phase)
    phase[..., 1:][dead] = 0.0
    return log_mag, phase


def partial_norms(ytilde: float, theta: float, p: int, smax: int) -> np.ndarray:
    """Running sums sum_{s<=S} |c_s|^2 for S = 0..smax, via log-space terms.

    A sum beyond double range raises ``ValueError`` naming its index.
    """
    logc = coeff_log_magnitudes(ytilde, theta, p, smax)
    # a running log-sum-exp keeps the divergent case finite in log space
    with np.errstate(over="ignore"):
        norms = np.exp(np.logaddexp.accumulate(2.0 * logc))
    _refuse_beyond_range(norms, "partial norm through", lambda: f"p={p}, theta={theta}, ytilde={ytilde}")
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
    A non-finite energy or coupling, and a residual beyond double range, raise
    ``ValueError``.  This is the batch-1 face of :func:`_residual_rows`.
    """
    _check_label(st.p, energy, name="energy")
    _check_couplings(y1, y2)
    return float(_residual_rows(st.coeffs, st.p, y1, y2, energy, st.smax))


def _residual_rows(coeffs: np.ndarray, p, y1, y2, energy, smax) -> np.ndarray:
    """:func:`residual` over coefficient rows (the last axis) with a leading
    batch axis where they have one; p, the couplings, the energy and smax are
    scalars or one per row, and valid (not checked here), and a row is zero
    past its own smax.

    Each row drops its own top row, smax, and every row after it.  Its norm is
    ``fock_ladder._norm(..., axis=-1)`` over its rows 0..smax-1 alone, the rows
    of one smax at a time: zero padding would move numpy's pairwise sum, so a
    row has the bits of its single call.  The first row with an entry of
    (H - E) c beyond double range is refused with ``ValueError`` naming the
    row; a norm beyond double range from finite entries, which needs entries
    near 1e308, is refused by ``_norm`` without a row.
    """
    n = coeffs.shape[-1]
    tops = np.maximum(np.broadcast_to(smax, coeffs.shape[:-1]), 0)  # the empty state's smax is -1
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        diff = _hab_rows(coeffs, p, y1, y2)[..., :n] - _per_row(energy) * coeffs
    finite = np.isfinite(diff)
    if not finite.all():  # entries past a row's top do not count
        kept = np.arange(n) < tops[..., None]
        _refuse_rows(~(finite | ~kept).all(axis=-1), lambda: "the residual is beyond double range")
    flat, flat_tops = diff.reshape(tops.size, n), tops.reshape(-1)
    norms = np.empty(len(flat))
    for top in set(flat_tops.tolist()):
        at = flat_tops == top
        norms[at] = _norm(flat[at, :top], "the residual", axis=-1)
    return norms.reshape(tops.shape)
