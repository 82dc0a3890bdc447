"""The non-unitary pair transform exp(t a*b*) on ladder states.

In the rescaled coordinates C_s = sqrt(s!/(p+s)!) c_s the transform is a pure
binomial convolution

    C'_m = sum_{s<=m} C_s t^(m-s) binom(m, s),

with t = -alpha for the forward map and +alpha for its inverse: a Taylor
shift, computed as one extended-precision running product per nonzero C_s
(_binomial_columns, the one kernel behind apply_exp_pair, domain_check and
conjugation_check).  The module also provides a numerical domain test for
the transform, an operational check of the conjugation identity
exp(-P) a exp(P) = a - alpha a*_{-k} (exact because the commutator series
terminates), and the per-mode ground state.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .fock_ladder import LadderState
from .lattice import ModelParams, half_lattice, mode_params

__all__ = [
    "apply_exp_pair",
    "DomainVerdict",
    "domain_check",
    "conjugation_check",
    "mode_ground_state",
    "pair_occupancy",
    "depletion_report",
    "rescale_to_genfn_coords",
    "rescale_from_genfn_coords",
]


_TINY = np.finfo(float).tiny  # smallest normal double
_LOG_SUBNORMAL = math.log(np.finfo(float).smallest_subnormal)


def _log_rescale(p: int, n: int) -> np.ndarray:
    """log sqrt(s!/(p+s)!) for s = 0..n-1."""
    s = np.arange(n, dtype=float)
    return 0.5 * np.array([math.lgamma(v + 1.0) - math.lgamma(p + v + 1.0) for v in s])


def rescale_to_genfn_coords(coeffs: np.ndarray, p: int) -> np.ndarray:
    """c_s -> C_s = sqrt(s!/(p+s)!) c_s (log-factorial based, overflow safe)."""
    return coeffs * np.exp(_log_rescale(p, len(coeffs)))


def rescale_from_genfn_coords(rescaled: np.ndarray, p: int) -> np.ndarray:
    """C_s -> c_s = sqrt((p+s)!/s!) C_s."""
    return rescaled * np.exp(-_log_rescale(p, len(rescaled)))


def _binomial_columns(t: float, leads: np.ndarray):
    """Yield (s, lead_s C(m, s) t^(m-s) for m = s..n-1) for every nonzero lead_s.

    Each column is one running product of the ratios t m / (m - s) in
    np.longdouble, started at lead_s, so every entry is only as large as the
    term it stands for: no binomial is formed on its own, and a column leaves
    extended range only where the term itself does.
    """
    n = len(leads)
    m = np.arange(n, dtype=np.longdouble)
    tm = np.longdouble(t) * m
    for s in np.flatnonzero(leads):
        col = np.empty(n - s, dtype=np.longdouble)
        col[0] = leads[s]
        np.divide(tm[s + 1 :], m[1 : n - s], out=col[1:])
        yield s, np.cumprod(col, out=col)


def _binomial_shift(C: np.ndarray, t: float) -> np.ndarray:
    """C'_m = sum_{s<=m} C_s C(m, s) t^(m-s): each column, led by |C_s|, is
    rounded once to float64 and added times the phase C_s/|C_s|."""
    mag = np.abs(C)
    out = np.zeros(len(C), dtype=complex)
    for s, col in _binomial_columns(t, mag):
        # the division multiplies by 1/|C_s|, which overflows for a subnormal
        # |C_s|; scaling both by a power of two first is exact
        scale = 1.0 if mag[s] >= _TINY else 2.0**64
        out[s:] += (C[s] * scale / (mag[s] * scale)) * col.astype(float)
    return out


def apply_exp_pair(st: LadderState, alpha_signed: float) -> LadderState:
    """Apply exp(alpha_signed * a*b*) to a finite ladder state.

    The output is truncated at the input smax; pad the input first when the
    spread-out tail matters.  alpha_signed = -alpha gives the eigenstate
    transport map, +alpha its inverse on finite states.

    In rescaled coordinates the map is the Taylor shift of the module
    docstring.  Every nonzero coefficient contributes one column of terms,
    formed as a running product in extended precision and rounded once to
    double, so the cost is O(n |support|) time and O(n) extra memory, and
    each output coefficient carries a rounding error of order (m+1) eps times
    the sum of its terms' magnitudes (cancellation in the alternating sums is
    not recovered).

    Raises ValueError when a transformed coefficient (or one of its terms) is
    not representable in double precision, e.g. a unit coefficient at
    s = 1500 with n = 3001 and alpha = 0.9, whose image reaches 1e833.
    """
    n = len(st.coeffs)
    if n == 0 or alpha_signed == 0.0:
        return st
    logr = _log_rescale(st.p, n)
    # overflow becomes inf or nan here and is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        out = _binomial_shift(st.coeffs * np.exp(logr), alpha_signed) * np.exp(-logr)
    if not np.all(np.isfinite(out)):
        raise ValueError(
            f"exp({alpha_signed!r} a*b*) of this length-{n} state has coefficients "
            "beyond double range"
        )
    return LadderState(st.p, out, st.mirror)


class DomainVerdict(enum.Enum):
    IN_DOMAIN = "InDomain"
    NOT_IN_DOMAIN = "NotInDomain"
    INCONCLUSIVE = "Inconclusive"


def domain_check(
    log_coeffs: np.ndarray,
    alpha: float,
    p: int,
    horizon: int,
) -> DomainVerdict:
    """Numerically probe whether exp(-alpha a*b*) keeps a state square-summable.

    ``log_coeffs`` holds the complex logarithms log|c_s| + i arg c_s of the
    state's coefficients for s = 0..horizon (a real part of -inf marks a
    zero), so a state may be given far beyond double range.  A coefficient
    below double's subnormal range counts as zero.  The transformed rescaled
    coefficients are formed up to the horizon from the binomial columns of
    the Taylor shift in np.longdouble; a state whose terms leave that range
    (about 1e4932) is refused with ``ValueError``.  Because the convolutions
    alternate in sign, every coefficient carries a noise ceiling set by its
    largest term; only coefficients safely above that ceiling are treated as
    known, the rest only as bounded by it.  The verdict is ``NOT_IN_DOMAIN``
    when the certified tail grows geometrically, ``IN_DOMAIN`` when the
    partial norms of the certified-or-bounded sequence are Cauchy (the last
    window adds under 1e-10 of the head), and ``INCONCLUSIVE`` otherwise --
    including when the arithmetic genuinely cannot tell, e.g. for strongly
    cancelling states whose noise ceiling itself diverges.  Evidence, not
    proof.
    """
    if horizon < 100:
        raise ValueError(f"horizon must be >= 100, got {horizon}")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    log_c = np.asarray(log_coeffs, dtype=complex)
    if log_c.ndim != 1 or len(log_c) <= horizon:
        raise ValueError(f"log_coeffs must hold c_0..c_{horizon}, got shape {log_c.shape}")
    log_c = log_c[: horizon + 1]
    if np.isnan(log_c).any():
        raise ValueError("log_coeffs contains NaN")
    live = log_c.real >= _LOG_SUBNORMAL
    leads = np.zeros(horizon + 1, dtype=np.longdouble)
    with np.errstate(over="ignore", invalid="ignore"):
        log_lead = log_c.real[live] + _log_rescale(p, horizon + 1)[live]
        leads[live] = np.exp(log_lead.astype(np.longdouble))
        # the columns C(m, s) alpha^(m-s) are positive: the sign (-1)^(m-s) is
        # (-1)^s in each column's weight times a (-1)^m that |C'_m| ignores
        weight = np.exp(1j * log_c.imag) * (-1.0) ** np.arange(horizon + 1)
        w_re, w_im = weight.real.astype(np.longdouble), weight.imag.astype(np.longdouble)
        re, im, top = np.zeros((3, horizon + 1), dtype=np.longdouble)
        for s, col in _binomial_columns(alpha, leads):
            re[s:] += w_re[s] * col
            im[s:] += w_im[s] * col
            np.maximum(top[s:], col, out=top[s:])
        out = np.hypot(re, im)
    if not (np.all(np.isfinite(out)) and np.all(np.isfinite(top))):
        raise ValueError("terms of the transformed state are beyond extended range (1e4932)")
    if not top.any():
        return DomainVerdict.IN_DOMAIN  # zero state
    noise = top * (1e-15 * np.maximum(np.cumsum(live), 4))
    cert_idx = np.flatnonzero(out > 10.0 * noise)
    if len(cert_idx) >= 16:
        window = cert_idx[len(cert_idx) // 2 :]
        slope = np.polyfit(window.astype(float), np.log(out[window]).astype(float), 1)[0]
        if slope > 5e-3:
            return DomainVerdict.NOT_IN_DOMAIN
    # Cauchy probe on partial norms of the known-or-bounded magnitudes, in log space
    with np.errstate(divide="ignore"):
        log_sq = 2.0 * np.log(np.maximum(out, noise))
    half = horizon // 2 + 1
    head = np.logaddexp.reduce(log_sq[:half], initial=-np.inf)
    inc = np.logaddexp.reduce(log_sq[half:], initial=-np.inf)
    if inc <= math.log(1e-10) + max(head, 0.0):
        return DomainVerdict.IN_DOMAIN
    return DomainVerdict.INCONCLUSIVE


def conjugation_check(alpha: float, smax: int) -> float:
    """Max entrywise deviation of exp(-P) a_k exp(P) from a_k - alpha a*_{-k}.

    Matrix representations of both sides are built on the p = 0 and p = 1
    ladders (the annihilator a_k and the creator a*_{-k} both shift to the
    neighbouring ladder).  The identity is exact -- the commutator series
    terminates -- so only rows at the truncation edge are polluted; rows up
    to smax-2 are compared.  The kernels and products run in extended
    precision, which keeps the alternating binomial sums below 1e-12 for
    smax up to about 12 at alpha near 1 and up to 40 at alpha = 0.2; past
    that the cancellation shows, e.g. about 2e-7 at (alpha, smax) = (0.9, 30).
    """
    if smax < 4:
        raise ValueError(f"smax must be >= 4, got {smax}")
    dt = np.longdouble
    n = smax + 1
    e_minus, e_plus = np.zeros((n, n), dtype=dt), np.zeros((n, n), dtype=dt)
    for kern, t in ((e_minus, -alpha), (e_plus, alpha)):
        for s, col in _binomial_columns(t, np.ones(n)):
            kern[s:, s] = col
    worst = 0.0
    for p in (0, 1):
        # rescaled-coordinate generators on the source ladder p, target p-1
        # (p = 0 targets the mirror p = 1 ladder; factors below are exact
        # integers in these coordinates)
        a_op = np.zeros((n, n), dtype=dt)
        bdag_op = np.zeros((n, n), dtype=dt)
        if p == 1:
            for s in range(n):
                a_op[s, s] = p + s
            for s in range(n - 1):
                bdag_op[s + 1, s] = s + 1
        else:
            for s in range(1, n):
                a_op[s - 1, s] = 1.0
            for s in range(n):
                bdag_op[s, s] = 1.0
        lhs = e_plus @ (a_op @ e_minus)
        rhs = a_op - dt(alpha) * bdag_op
        dev = np.abs(lhs - rhs)[: smax - 1, :]
        worst = max(worst, float(dev.max()))
    return worst


def mode_ground_state(alpha: float, smax: int, normalize: bool = False) -> LadderState:
    """Truncated per-mode ground state exp(-P)|vac>: c_n = alpha^n on the p=0 ladder."""
    if not 0 <= alpha < 1:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    c = alpha ** np.arange(smax + 1, dtype=float)
    if normalize:
        c = c / np.linalg.norm(c)
    return LadderState(0, c.astype(complex))


def pair_occupancy(st: LadderState) -> float:
    """<a*a> of a p = 0 ladder state: sum s |c_s|^2 / sum |c_s|^2."""
    w = np.abs(st.coeffs) ** 2
    total = w.sum()
    if total == 0:
        return 0.0
    return float(np.sum(np.arange(len(w)) * w) / total)


def depletion_report(mp: ModelParams, nmax: int) -> dict:
    """Half-lattice condensate depletion of the ground state vs the nominal N.

    Each (k, -k) pair contributes 2 alpha(k)^2 / (1 - alpha(k)^2) expected
    particles outside the condensate.  The ratio to N is the self-consistency
    figure for the average-particle constraint; it is reported, not asserted.
    """
    per_mode = []
    total = 0.0
    for k in half_lattice(mp.L, nmax):
        mode = mode_params(mp, k)
        occ = 2.0 * mode.alpha**2 / (1.0 - mode.alpha**2)
        per_mode.append((mode.n, occ))
        total += occ
    return {
        "depletion": total,
        "N": mp.N,
        "depletion_fraction": total / mp.N,
        "per_mode": per_mode,
    }
