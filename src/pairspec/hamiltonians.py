"""Two-mode block Hamiltonians on pair ladders and their Bogoliubov energies.

The block H(y1, y2) = (a*a + b*b)/2 + y1*ab + y2*a*b* acts tridiagonally on
each fixed-p ladder; ``build_tridiagonal`` materializes that matrix row
scheme, ``apply_hab_alpha`` applies it as an operator, and ``bog_energy_ab``
gives the closed-form spectrum of the Hermitian y1 = y2 = y case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fock_ladder import LadderState, _check_count, _check_counts, _finite, _image, apply_ab, apply_adbd, apply_halfnumber
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
    couplings are refused, as by :func:`build_tridiagonal`.
    """
    _finite((y1, y2), f"couplings must be finite, got y1={y1}, y2={y2}")
    out = np.zeros(len(st.coeffs) + (1 if y2 != 0.0 else 0), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _image
        out[: len(st.coeffs)] += apply_halfnumber(st).coeffs
        if y1 != 0.0:
            down = apply_ab(st).coeffs
            out[: len(down)] += y1 * down
        if y2 != 0.0:
            up = apply_adbd(st).coeffs
            out[: len(up)] += y2 * up
    return _image(st, out, "(a*a + b*b)/2 + y1*ab + y2*a*b*")


def build_tridiagonal(p: int, y1: float, y2: float, smax: int) -> HabMatrix:
    """Explicit (smax+1) x (smax+1) matrix of the block on the p-ladder."""
    _check_count("smax", smax, low=1)
    _check_count("p", p)
    _finite((y1, y2), f"couplings must be finite, got y1={y1}, y2={y2}")
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
