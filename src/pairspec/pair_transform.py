"""The non-unitary pair transform exp(t a*b*) on ladder states.

In the rescaled coordinates C_s = sqrt(s!/(p+s)!) c_s the transform is a pure
binomial convolution

    C'_m = sum_{s<=m} C_s t^(m-s) binom(m, s),

with t = -alpha for the forward map and +alpha for its inverse: a Taylor
shift, computed as one extended-precision running product per nonzero C_s
(_binomial_columns with numerators t m, the one kernel behind apply_exp_pair,
conjugation_check and wu_sector.apply_exp_w, whose numerators are the
subdiagonal of W).  Whether the transform keeps an eigenstate square-summable
has a closed form (eigenstates._transform_in_domain).  The module also provides
an operational check of the conjugation identity
exp(P) a exp(-P) = a - alpha a*_{-k} (exact because the commutator series
terminates) in its intertwined form a exp(-P) = exp(-P) (a - alpha a*_{-k}),
which needs no inverse and reads as two relations between the columns of the
one kernel at t = -alpha, and the per-mode ground state.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .fock_ladder import LadderState, _check_count, _finite
from .lattice import ModelParams, _mode_table

__all__ = [
    "apply_exp_pair",
    "conjugation_check",
    "mode_ground_state",
    "pair_occupancy",
    "depletion_report",
]


_TINY = np.finfo(float).tiny  # smallest normal double
# The extended type of every column kernel, here and in wu_sector and
# hypergeom, which read it as pair_transform._EXT at call time.  It is x87
# 80-bit on Linux x86-64 and plain double under MSVC and on macOS arm64.
# On x86-64 two kinds of x87 operation take a microcode assist: rounding to a
# zero or subnormal double (about 185 ns against 1 ns, :func:`_zero_cut`), and
# any arithmetic with a +-inf or NaN operand (an add with half its operands -inf
# took 78 ns per element against 4.1 ns on finite data, on a shared 2-vCPU
# AVX-512 VM); the kernels keep both out of their _EXT loops.
_EXT = np.longdouble


def _refuse_rows(bad: np.ndarray, message: Callable[..., str], *args) -> None:
    """Raise ValueError at the first index i where ``bad`` is set.

    A batched kernel passes one flag per row; the message is
    message(*entries of args at row i), each arg broadcast against ``bad``,
    led by "row i: ".  A 0-d ``bad`` is a scalar face: its message gets the
    args as the caller gave them and names no row.
    """
    if bad.any():
        index = np.unravel_index(np.argmax(bad), bad.shape)
        if not index:
            raise ValueError(message(*args))
        row = (np.broadcast_to(v, bad.shape)[index].item() for v in args)
        raise ValueError(f"row {', '.join(map(str, index))}: " + message(*row))


def _zero_cut():
    """2^-1075 in ``_EXT``: the largest magnitude that rounds to a zero double
    (0 where ``_EXT`` is double).  On x86-64 rounding an x87 long double whose
    double is zero or subnormal takes a microcode assist, about 185 ns against
    1 ns, so the kernels round only entries above it, or zero the rest first."""
    return np.ldexp(_EXT(1.0), -1075)


def _beyond_ext() -> str:  # the figure is 1e4932 for x87 and 1e308 for double
    return f"beyond extended range (1e{int(np.log10(np.finfo(_EXT).max))})"


def _log_rescale(p, n: int) -> np.ndarray:
    """log sqrt(s!/(p+s)!) for s = 0..n-1: C_s = exp(this) c_s.

    (p+s)!/s! is p! times the running product of the term ratios 1 + p/j,
    j <= s, so its log is log p! plus a running sum of log1p(p/j), taken in
    ``_EXT``: no two logs near s log s are differenced.  An array of p gives
    one such row per entry, each formed once per distinct p.
    """
    if np.ndim(p):
        distinct, row = np.unique(p, return_inverse=True)
        return np.array([_log_rescale(int(q), n) for q in distinct])[row.reshape(np.shape(p))]
    steps = np.zeros(n, dtype=_EXT)
    np.log1p(p / np.arange(1.0, n), out=steps[1:])
    return -0.5 * (np.add.accumulate(steps, out=steps) + math.lgamma(p + 1.0)).astype(float)


def _taylor_numerators(t, n: int) -> np.ndarray:
    """Numerators t m, m < n, on the first axis, with t's axes (a batch of
    rows) after it: column s is then lead_s C(m, s) t^(m-s)."""
    return np.multiply.outer(np.arange(n, dtype=_EXT), np.asarray(t, dtype=_EXT))


def _binomial_columns(num: np.ndarray, leads: np.ndarray, floor=0.0):
    """Yield (s, lead_s prod_{j=s+1}^{m} num_j / (j-s), m = s..n-1) per nonzero
    lead_s, each column cut to its live prefix.

    Each column is one running product of the ratios num_m / (m - s) in
    ``_EXT``, started at lead_s, so every entry is only as large as the
    term it stands for: no binomial or factorial is formed on its own, and a
    column leaves extended range only where the term itself does.  The index
    m runs over the first axis of ``num`` and ``leads``; a second axis, the
    same for both, is a batch of rows.  A batch forms column s over every
    row wherever any row's lead_s is nonzero, and the column is zero in a row
    whose lead_s is.  The loop over s runs over the first axis, so a 1-D
    call makes the same numpy calls per column as a batch does.  Every column
    is written into one buffer: a column is valid until the next is drawn.

    Each column yielded stops before its first entry whose magnitude (the
    largest over a batch of rows) is at most ``floor`` (:func:`_live_length`);
    a NaN counts as live, so an overflowing column is yielded whole.  The
    dead entries form a suffix.  At floor 0 they are exact zeros, since a
    running product that reaches zero stays there.  At a floor below every
    nonzero lead (:func:`_zero_cut` for double leads), a Taylor column's
    magnitudes |lead| C(m, s) |t|^(m-s) are unimodal in m, as the ratios
    |t| m / (m - s) decrease, and the rounded running product keeps that
    order.  Either way the dropped entries round to +-0, which adds nothing
    to an accumulator that starts at +0: it is never -0.
    """
    n = len(leads)
    m = np.arange(n, dtype=_EXT).reshape((n,) + (1,) * (leads.ndim - 1))
    live = leads if leads.ndim == 1 else leads.reshape(n, -1).any(axis=1)
    buffer = np.empty(leads.shape, dtype=_EXT)
    for s in np.flatnonzero(live):
        col = buffer[: n - s]
        col[0] = leads[s]
        np.divide(num[s + 1 :], m[1 : n - s], out=col[1:])
        np.multiply.accumulate(col, out=col)
        yield s, col[: _live_length(col, floor)]


def _live_length(col: np.ndarray, floor) -> int:
    """The length of col's live prefix along its first axis: the entries before
    the first whose magnitude (the largest over a batch of rows) is <= floor,
    for a column whose dead entries form a suffix (see :func:`_binomial_columns`).

    The last entry is checked first, and the prefix is bisected only when it
    is dead.  A NaN counts as live.
    """
    # a scalar's abs costs a tenth of numpy's reduction over a batch
    peak = abs if col.ndim == 1 else lambda row: np.abs(row).max()
    if not peak(col[-1]) <= floor:
        return len(col)
    lo, hi = 0, len(col) - 1  # the prefix length lies in [lo, hi], and hi is dead
    while lo < hi:
        mid = (lo + hi) // 2
        if peak(col[mid]) <= floor:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _binomial_shift(C: np.ndarray, t) -> np.ndarray:
    """C'_m = sum_{s<=m} C_s C(m, s) t^(m-s), m on the first axis of C and
    rows (a batch) on an optional second, with t a scalar or one per row.

    Each column, led by |C_s|, is rounded once to float64 and added times the
    phase C_s/|C_s|, but only over its live prefix at floor :func:`_zero_cut`
    (see :func:`_binomial_columns`): the entries past it round to a zero
    double, so the output keeps its bits, and the cost is per live entry,
    since rounding a dead one would take an x87 underflow assist.  The
    phases are formed once, before the columns: the division multiplies by
    1/|C_s|, which overflows for a subnormal |C_s|, so both are first scaled
    by 2^64 there (exact).  A zero C_s has zero phase, so a row adds nothing
    in a column where its lead is zero.
    """
    mag = np.abs(C)
    scale = np.where(mag >= _TINY, 1.0, 2.0**64)
    phase = C * scale / (mag * scale)
    phase[mag == 0.0] = 0.0
    out = np.zeros(C.shape, dtype=complex)
    num = _taylor_numerators(np.broadcast_to(t, C.shape[1:]), len(C))  # one t per row
    for s, col in _binomial_columns(num, mag, _zero_cut()):
        out[s : s + len(col)] += phase[s] * col.astype(float)
    return out


def _exp_pair(coeffs: np.ndarray, p, t) -> np.ndarray:
    """exp(t a*b*) applied to coeffs of shape (n,) or (rows, n), each row on
    the ladder of its p at its t (scalars, or one per row).

    The array form behind :func:`apply_exp_pair`, whose arithmetic it is:
    a row has the bits of the single state (but t = 0 gives the identity
    only to rounding; the face returns the state itself).  The first row
    with a coefficient beyond double range is refused with ``ValueError``
    naming the row.
    """
    n = coeffs.shape[-1]
    logr = _log_rescale(p, n)
    # overflow becomes inf or nan here and is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        out = _binomial_shift((coeffs * np.exp(logr)).T, t).T * np.exp(-logr)
    _refuse_rows(~np.isfinite(out).all(axis=-1), lambda t: (
        f"exp({t!r} a*b*) of this length-{n} state has coefficients beyond double range"), t)
    return out


def apply_exp_pair(st: LadderState, alpha_signed: float) -> LadderState:
    """Apply exp(alpha_signed * a*b*) to a finite ladder state.

    The output is truncated at the input smax; pad the input first when the
    spread-out tail matters.  alpha_signed = -alpha gives the eigenstate
    transport map, +alpha its inverse on finite states.

    In rescaled coordinates the map is the Taylor shift of the module
    docstring.  Every nonzero coefficient contributes one column of terms,
    formed as a running product in extended precision and rounded once to
    double over its live prefix, the entries that do not round to zero.  So
    the cost is O(n |support|) time, most of it per live entry, and O(n)
    extra memory: on x86-64 rounding a dead entry would cost an x87 underflow
    assist, about 185 ns.  Each output coefficient carries a rounding error
    of order (m+1) eps times the sum of its terms' magnitudes (cancellation
    in the alternating sums is not recovered).  This is the batch-1 face of :func:`_exp_pair`.

    Raises ValueError when a transformed coefficient (or one of its terms) is
    not representable in double precision, e.g. a unit coefficient at
    s = 1500 with n = 3001 and alpha = 0.9, whose image reaches 1e833.
    """
    n = len(st.coeffs)
    if n == 0 or alpha_signed == 0.0:
        return st
    return LadderState(st.p, _exp_pair(st.coeffs, st.p, alpha_signed))


def conjugation_check(alpha: float, smax: int) -> float:
    """Worst relative deviation of a_k E = E (a_k - alpha a*_{-k}), E = exp(-P).

    That is exp(P) a_k exp(-P) = a_k - alpha a*_{-k} with no inverse (exact:
    the commutator series terminates).  On the p = 0 and p = 1 ladders, between
    which a_k and a*_{-k} move, it is two relations between the columns of the
    kernel E[m, s] = C(m, s) (-alpha)^(m-s) in rescaled coordinates, m, s <= smax:

        p = 0 (Pascal's rule):  E[m+1, s] = E[m, s-1] - alpha E[m, s]
        p = 1 (absorption):     (m - s) E[m, s] = -alpha (s+1) E[m, s+1]

    Each deviation is :func:`_mismatch`'s, in ``_EXT``; O(smax^2), rounding
    level wherever tried.  The earlier E(+alpha) a E(-alpha) form's
    absolute deviation cancelled: 1.7e-7 at (alpha, smax) = (0.9, 30).
    Raises ValueError for a non-finite alpha or terms beyond extended range.
    """
    _check_count("smax", smax, low=4)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    n = smax + 1
    kern = np.zeros((n, n + 1), dtype=_EXT)  # column 0 holds E[m, -1] = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for s, col in _binomial_columns(_taylor_numerators(-alpha, n), np.ones(n)):
            kern[s : s + len(col), s + 1] = col
        e, m_minus_s = kern[:, 1:], np.subtract.outer(np.arange(n), np.arange(n - 1))
        worst = float(np.max([_mismatch(terms, _EXT) for terms in (
            (e[1:], -kern[:-1, :-1], alpha * e[:-1]),
            (m_minus_s * e[:, :-1], alpha * e[:, 1:] * np.arange(1, n)))]))
    _finite(worst, f"exp(-P) at alpha={alpha!r} has terms {_beyond_ext()}")  # NaN: an infinite term
    return worst


def _mismatch(terms, dtype) -> float:
    """The worst |sum of terms| / (sum of |terms| + finfo(dtype).tiny / eps) over
    the entries of equal-shaped term arrays that should cancel: an identity's
    mismatch relative to its terms' size, with subnormal terms counted as zero."""
    fin = np.finfo(dtype)
    return float(np.max(abs(sum(terms)) / (sum(map(abs, terms)) + fin.tiny / fin.eps)))


def _transported_energy(energy: complex, y: float, alpha: float) -> complex:
    """(1 - 2 alpha y) E - alpha y: the block energy E at coupling y carried by
    exp(-alpha a*b*), the Hermitian block's energy when alpha = alpha_c(y)."""
    return (1.0 - 2.0 * alpha * y) * energy - alpha * y


def mode_ground_state(alpha: float, smax: int) -> LadderState:
    """Truncated per-mode ground state exp(-P)|vac>: c_n = alpha^n on the p=0 ladder."""
    if not 0 <= alpha < 1:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    _check_count("smax", smax)
    return LadderState(0, alpha ** np.arange(smax + 1, dtype=float))


def pair_occupancy(st: LadderState) -> float:
    """<a*a> of a p = 0 ladder state: sum s |c_s|^2 / sum |c_s|^2.

    The magnitudes are divided by the largest before squaring, so the squares
    stay in double range for any finite state.
    """
    mag = np.abs(st.coeffs)
    peak = mag.max(initial=0.0)
    if peak == 0:
        return 0.0
    w = (mag / peak) ** 2
    return float(np.sum(np.arange(len(w)) * w) / w.sum())


def depletion_report(mp: ModelParams, nmax: int) -> dict:
    """Half-lattice condensate depletion of the ground state vs the nominal N.

    Each (k, -k) pair contributes 2 alpha(k)^2 / (1 - alpha(k)^2) expected
    particles outside the condensate.  The ratio to N is the self-consistency
    figure for the average-particle constraint; it is reported, not asserted.
    """
    table = _mode_table(mp, nmax)
    alpha2 = table.alpha * table.alpha
    occ = 2.0 * alpha2 / (1.0 - alpha2)
    total = float(np.add.accumulate(occ)[-1])  # in half-lattice order, as lattice._alpha_total
    return {
        "depletion": total,
        "N": mp.N,
        "depletion_fraction": total / mp.N,
        "per_mode": list(zip(zip(*table.n.T.tolist()), occ.tolist())),
    }
