"""Two-mode block Hamiltonians on pair ladders and their Bogoliubov energies.

The block H(y1, y2) = (a*a + b*b)/2 + y1*ab + y2*a*b* acts tridiagonally on
each fixed-p ladder; ``build_tridiagonal`` materializes that matrix row
scheme, ``apply_hab_alpha`` applies it as an operator (the batch-1 face of
``_hab_rows``), and ``bog_energy_ab`` gives the closed-form spectrum of the
Hermitian y1 = y2 = y case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fock_ladder import (
    LadderState,
    _ab_rows,
    _adbd_rows,
    _check_count,
    _check_counts,
    _finite,
    _halfnumber_rows,
    _image_rows,
    _per_row,
)
from .lattice import ModeParams, _check_coupling

__all__ = [
    "HabMatrix",
    "apply_hab_alpha",
    "build_tridiagonal",
    "bog_energy_ab",
    "lhy_block",
]


@dataclass(frozen=True)
class HabMatrix:
    """Tridiagonal matrix of the two-mode block on the p-ladder.

    Row s encodes (p/2 + s) c_s + y1 sqrt((p+s+1)(s+1)) c_{s+1}
    + y2 sqrt((p+s) s) c_{s-1}.  ``super_`` holds the y1 entries (s, s+1),
    ``sub`` the y2 entries (s+1, s); y2 = 0 makes the matrix upper bidiagonal
    with its spectrum on the diagonal.
    """

    y1: float
    y2: float
    smax: int
    diag: np.ndarray = field(repr=False)
    super_: np.ndarray = field(repr=False)
    sub: np.ndarray = field(repr=False)

    def dense(self) -> np.ndarray:
        m = np.diag(self.diag.astype(float))
        idx = np.arange(self.smax)
        m[idx, idx + 1] = self.super_
        m[idx + 1, idx] = self.sub
        return m

    def matvec(self, c: np.ndarray) -> np.ndarray:
        c = np.asarray(c)
        out = self.diag * c
        out[:-1] = out[:-1] + self.super_ * c[1:]
        out[1:] = out[1:] + self.sub * c[:-1]
        return out


def apply_hab_alpha(st: LadderState, y1: float, y2: float) -> LadderState:
    """Apply (a*a + b*b)/2 + y1*ab + y2*a*b* to a ladder state.

    The result gains one truncation slot whenever the pair-creation coupling
    y2 is nonzero; nothing is silently wrapped or dropped.  Non-finite
    couplings are refused, as by :func:`build_tridiagonal`.  This is the
    batch-1 face of :func:`_hab_rows`.
    """
    _check_couplings(y1, y2)
    return LadderState(st.p, _hab_rows(st.coeffs, st.p, y1, y2))


def _check_couplings(y1: float, y2: float) -> None:
    """The one guard for the block's couplings: both finite."""
    _finite((y1, y2), f"couplings must be finite, got y1={y1}, y2={y2}")


def _hab_rows(coeffs: np.ndarray, p, y1, y2) -> np.ndarray:
    """:func:`apply_hab_alpha` on coefficient rows (the last axis) with a
    leading batch axis where they have one, each on the ladder of its p at its
    couplings (scalars, or one per row; finite, not checked here).

    It is built from the row forms of the three operators, as the face is
    from the operators: the half number, then y1 ab where y1 is nonzero, then
    y2 a*b* where y2 is nonzero, added in that order.  The image is one slot
    longer where any row's y2 is nonzero (that slot stays zero in a row whose
    y2 is zero).  A row whose coupling is zero passes a zero row to that
    operator, as its face skips it, and adds only zeros, so a row has the bits
    of its single call.  Refusals come in the face's order, each at its first
    row beyond double range: an operator's image, then the sum.
    """
    n = coeffs.shape[-1]
    down, up = _coupled(coeffs, y1), _coupled(coeffs, y2)
    out = np.zeros(coeffs.shape[:-1] + (n + (up is not None),), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _image_rows
        out[..., :n] += _halfnumber_rows(coeffs, p)
        for y, rows, part in ((y1, down, _ab_rows), (y2, up, _adbd_rows)):
            if rows is not None:
                image = part(rows, p)
                out[..., : image.shape[-1]] += _per_row(y) * image
    return _image_rows(out, "(a*a + b*b)/2 + y1*ab + y2*a*b*")


def _coupled(coeffs: np.ndarray, y):
    """The rows that a coupling y (a scalar, or one per row) acts on: coeffs,
    with a row zeroed where its y is zero, or None where every y is zero."""
    if not getattr(y, "ndim", 0):
        return coeffs if y != 0.0 else None
    on = y != 0.0
    return None if not on.any() else coeffs if on.all() else np.where(on[..., None], coeffs, 0.0)


def build_tridiagonal(p: int, y1: float, y2: float, smax: int) -> HabMatrix:
    """Explicit (smax+1) x (smax+1) matrix of the block on the p-ladder."""
    _check_count("smax", smax, low=1)
    _check_count("p", p)
    _check_couplings(y1, y2)
    s = np.arange(smax + 1, dtype=float)
    diag = p / 2.0 + s
    sup = y1 * np.sqrt((p + s[:-1] + 1.0) * (s[:-1] + 1.0))
    sub = y2 * np.sqrt((p + s[1:]) * s[1:])
    return HabMatrix(y1=y1, y2=y2, smax=smax, diag=diag, super_=sup, sub=sub)


def bog_energy_ab(y: float, p: int, n: int) -> float:
    """Spectrum of the Hermitian block: sqrt(1-4y^2) (n + p/2 + 1/2) - 1/2.

    n counts excited pairs on the p-ladder; the y -> 0 limit is the free
    ladder energy n + p/2.  This is the closed form the dense-diagonalization
    referee must reproduce.
    """
    return float(_bog_energies(y, p, n))


def _bog_energies(y: float, p: int, n: int | np.ndarray, dtype=float) -> np.ndarray:
    """:func:`bog_energy_ab` at every n of an array, evaluated in ``dtype``."""
    _check_coupling(y)
    _check_count("p", p)
    n = _check_counts("n", n)
    y = dtype(y)
    root = np.sqrt(1.0 - 4.0 * y * y)
    return root * (n + p / 2.0 + 0.5) - 0.5


def lhy_block(mode: ModeParams, p: int, n: int) -> float:
    """Excitation energy of one momentum pair block above its ground state.

    The block Hamiltonian carries the prefactor 2 (k^2 + 8 pi a rho); relative
    to the per-mode ground state the excitation collapses to (2n + p) eps_k
    with eps_k the quasiparticle energy, i.e. n + p quanta at +k and n at -k.
    """
    # epsilon^2 = ksq (ksq + 16 pi a rho), so 2 (ksq + 8 pi a rho) = ksq + eps^2/ksq
    prefactor = mode.ksq + mode.epsilon**2 / mode.ksq
    return float(prefactor * (bog_energy_ab(mode.y, p, n) - bog_energy_ab(mode.y, 0, 0)))
