"""States on a fixed-imbalance pair ladder and the elementary operator actions.

A ladder state is a finite coefficient sequence c_s over the occupation pairs
|p+s, s> for fixed integer imbalance p >= 0.  The swapped family |s, p+s> is
the same ladder with k and -k relabelled, and the half lattice keeps one k
per (k, -k) pair, so the imbalance p is the only label a state carries.
Operators never mix ladders with different p.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LadderState",
    "apply_ab",
    "apply_adbd",
    "apply_halfnumber",
    "inner",
]


@dataclass(frozen=True)
class LadderState:
    """Coefficients c_s of sum_s c_s |p+s, s>."""

    p: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        _check_count("p", self.p)
        arr = np.asarray(self.coeffs, dtype=complex)
        _finite(arr, "ladder state coefficients must be finite")
        object.__setattr__(self, "coeffs", arr)

    @property
    def smax(self) -> int:
        return len(self.coeffs) - 1

    def norm(self) -> float:
        return _norm(self.coeffs, "the norm of the ladder state")

    def padded(self, smax: int) -> "LadderState":
        """Same state with zero coefficients appended through index smax."""
        _check_count("smax", smax)
        if smax < self.smax:
            raise ValueError("padding cannot shrink the state")
        out = np.zeros(smax + 1, dtype=complex)
        out[: len(self.coeffs)] = self.coeffs
        return LadderState(self.p, out)


def _check_count(name: str, value: int, low: int = 0) -> None:
    """The one guard for a count (imbalance, truncation, cutoff, index): an integer >= low,
    and not a bool (``True`` is an ``int`` to Python)."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value}")


def _finite(values, message: str) -> None:
    """Raise ValueError(message) unless every entry of values is finite.

    values is an array, a scalar, or a tuple of them, checked one by one.  A
    Python or numpy integer, float or complex takes ``cmath.isfinite`` (0.04 us,
    where ``np.isfinite`` builds an array for 1.9 us), and an int beyond double
    range is refused with the same message; anything else, a long double
    scalar too, takes ``np.isfinite``.
    """
    for value in values if type(values) is tuple else (values,):
        if isinstance(value, np.ndarray) or not isinstance(value, (int, float, complex, np.integer)):
            ok = np.isfinite(value).all()
        else:
            try:
                ok = cmath.isfinite(value)
            except OverflowError:  # an int beyond double range
                ok = False
        if not ok:
            raise ValueError(message)


# at a norm of at least 2^-480, a square below double's normal range (2^-1022)
# is off by at most 2^-1075, under 2^-115 of the norm's square; below it the
# squares may underflow, so the parts are scaled first
_SMALL_NORM = 2.0**-480


def _norm(values: np.ndarray, what: str, axis=None):
    """The l2 norm of values (called what), or with ``axis`` the norm of each
    slice along it as an array, refused with ValueError beyond double range.

    It is ``np.linalg.norm`` at that axis, bit for bit, unless a square leaves
    double range or the norm is below ``_SMALL_NORM``, where the squares may
    underflow; then each finite slice is scaled by the largest magnitude of
    its parts first.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        norm = np.linalg.norm(values, axis=axis)
        kept = (_SMALL_NORM <= norm) & (norm < math.inf)
        if not (kept if axis is None else kept.all()):  # a scalar's truth costs a tenth of all()
            big = np.maximum(*(np.abs(part).max(axis=axis, initial=0.0, keepdims=True)
                               for part in (values.real, values.imag)))
            # a zero slice keeps its norm, 0
            redo = ~kept & np.isfinite(values).all(axis=axis) & (big > 0.0).reshape(np.shape(norm))
            if redo.any():
                scaled = big * np.linalg.norm(values / np.where(big > 0.0, big, 1.0), axis=axis, keepdims=True)
                norm = np.where(redo, scaled.reshape(np.shape(norm)), norm)
            if not np.isfinite(norm).all():
                raise ValueError(f"{what} is beyond double range")
    return float(norm) if axis is None else norm


def _check_counts(name: str, values, low: int = 0) -> np.ndarray:
    """The guard for an array of counts: each entry integral and >= low, and no bool
    array, as :func:`_check_count` refuses bools (empty passes).  Returns the entries as
    integers, so a finite entry of magnitude 2^63 or more, which that cast would wrap,
    is refused too; only comparisons run on it, since an int past 64 bits makes an
    object array."""
    arr = np.asarray(values)
    if arr.dtype.kind in "ufO":  # an int64 stays below 2^63, and a bool is refused below
        with np.errstate(invalid="ignore"):  # a NaN compares False and is refused below
            mag = np.abs(arr)
            wide = np.asarray((mag >= 2**63) & (mag < math.inf))
        if wide.any():
            raise ValueError(f"{name} entries must be integers in [{low}, 2^63), got {arr[wide].flat[0]}")
    bad = arr[~((arr.dtype != bool) & np.isfinite(arr) & (arr >= low) & (np.trunc(arr) == arr))]
    if bad.size:
        raise ValueError(f"{name} entries must be integers >= {low}, got {bad.flat[0]}")
    return arr.astype(int)


def _image(st: LadderState, coeffs: np.ndarray, what: str) -> LadderState:
    """st's image coeffs under what, refused by name where LadderState's guard refuses it."""
    try:
        return LadderState(st.p, coeffs)
    except ValueError:
        raise ValueError(f"the image under {what} is beyond double range") from None


def apply_ab(st: LadderState) -> LadderState:
    """Annihilate one quantum from each mode: c'_s = sqrt((p+s+1)(s+1)) c_{s+1}.

    The truncation index shrinks by one; the vacuum row is dropped exactly.
    """
    s = np.arange(len(st.coeffs) - 1)
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _image
        return _image(st, np.sqrt((st.p + s + 1.0) * (s + 1.0)) * st.coeffs[1:], "ab")


def apply_adbd(st: LadderState) -> LadderState:
    """Create one quantum in each mode: c'_s = sqrt((p+s) s) c_{s-1}."""
    c = st.coeffs
    if len(c) == 0:
        return st
    s = np.arange(1, len(c) + 1)
    out = np.zeros(len(c) + 1, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _image
        out[1:] = np.sqrt((st.p + s) * s.astype(float)) * c
    return _image(st, out, "a*b*")


def apply_halfnumber(st: LadderState) -> LadderState:
    """Half total number operator: c'_s = (p/2 + s) c_s."""
    s = np.arange(len(st.coeffs))
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _image
        return _image(st, (st.p / 2.0 + s) * st.coeffs, "(a*a + b*b)/2")


def inner(x: LadderState, y: LadderState) -> complex:
    """l2 pairing, conjugate-linear in the first slot.

    States on different ladders (p differs) are orthogonal.  A pairing beyond
    double range raises ``ValueError``.
    """
    if x.p != y.p:
        return 0.0 + 0.0j
    n = min(len(x.coeffs), len(y.coeffs))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        pairing = complex(np.vdot(x.coeffs[:n], y.coeffs[:n]))
    if not cmath.isfinite(pairing):
        raise ValueError("the pairing <x, y> is beyond double range")
    return pairing
