"""Momentum lattice and scalar model parameters of the LHY bose gas.

Units are chosen so that hbar = 2m = 1.  The gas lives in a periodic box of
side L, so momenta are k = 2*pi*n/L with integer 3-vectors n.  Everything
below is a pure function of the physical inputs (scattering length a, density
rho, box side L); per-mode derived quantities are collected in ``ModeParams``,
an immutable named tuple built once per half-lattice mode by ``mode_params``,
or holding numpy columns over the whole half lattice, built by ``_mode_table``.
Both evaluate the one statement of the formulas, ``_mode_formulas``, and give
the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .fock_ladder import _check_count

__all__ = [
    "ModelParams",
    "ModeParams",
    "AlphaSum",
    "half_lattice",
    "half_lattice_indices",
    "mode_params",
    "alpha_c",
    "y12",
    "alpha_sum",
    "ytilde_from_y",
]

# Consistency slack for rho == N / L^3 at construction.
_RHO_RTOL = 1e-9


@dataclass(frozen=True)
class ModelParams:
    """Physical inputs of the model.

    Parameters
    ----------
    a : float
        s-wave scattering length, >= 0 (a = 0 is the free gas).
    rho : float
        Number density N / L^3, > 0.
    L : float
        Box side length, > 0.
    N : float, optional
        Nominal particle count.  Derived as rho * L^3 when omitted; when
        supplied it must be consistent with rho and L.
    """

    a: float
    rho: float
    L: float
    N: float | None = None

    def __post_init__(self) -> None:
        for name, label in (("a", "scattering length"), ("rho", "density"),
                            ("L", "box side"), ("N", "particle count")):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{label} {name} must be finite, got {value}")
        if self.a < 0:
            raise ValueError(f"scattering length must be >= 0, got {self.a}")
        if self.rho <= 0:
            raise ValueError(f"density must be > 0, got {self.rho}")
        if self.L <= 0:
            raise ValueError(f"box side must be > 0, got {self.L}")
        given_n = self.N is not None
        if given_n and self.N <= 0:
            raise ValueError(f"particle count must be > 0, got {self.N}")
        try:
            volume = self.L**3
        except OverflowError:  # above double range; below it, L^3 rounds to 0
            volume = math.inf
        if not given_n:
            object.__setattr__(self, "N", self.rho * volume)
        if not (0.0 < volume < math.inf and 0.0 < self.N < math.inf
                and math.isfinite(self.gas_scale) and math.isfinite(self.mean_field_energy)):
            raise ValueError(
                f"a={self.a!r}, rho={self.rho!r}, L={self.L!r} put a derived scale beyond double "
                f"range: L^3={volume!r}, N={self.N!r}, 8*pi*a*rho={self.gas_scale!r}, "
                f"4*pi*a*rho*N={self.mean_field_energy!r}")
        if given_n and abs(self.rho - self.N / volume) > _RHO_RTOL * self.rho:
            raise ValueError(f"inconsistent inputs: rho={self.rho} but N/L^3={self.N / volume}")

    @property
    def volume(self) -> float:
        return self.L**3

    @property
    def gas_scale(self) -> float:
        """The interaction scale 8*pi*a*rho."""
        return 8.0 * math.pi * self.a * self.rho

    @property
    def mean_field_energy(self) -> float:
        """Constant energy offset 4*pi*a*rho*N."""
        return 4.0 * math.pi * self.a * self.rho * self.N


class ModeParams(NamedTuple):
    """Derived constants for one momentum mode k != 0.

    An immutable, hashable named tuple, since one is built per half-lattice
    mode: a field cannot be assigned.  ``y`` is the dimensionless coupling of
    the two-mode block, ``ytilde`` its critical-transform image
    y/sqrt(1-4y^2), ``alpha`` the pair-excitation amplitude (lower branch of
    the quadratic, always in [0, 1)), and ``epsilon`` the quasiparticle
    energy |k|*sqrt(k^2 + 16*pi*a*rho).
    """

    k: tuple[float, float, float]
    n: tuple[int, int, int]
    ksq: float
    y: float
    ytilde: float
    alpha: float
    epsilon: float


@dataclass(frozen=True)
class AlphaSum:
    """Truncated 4*pi*a*rho * sum of alpha(k) with a divergence marker.

    The full-lattice sum grows without bound as the cutoff increases whenever
    8*pi*a*rho > 0; it is reported raw (no renormalization is attempted here).
    """

    value: float
    grows_with_cutoff: bool


def _half_indices(nmax: int) -> np.ndarray:
    """(M, 3) integer table of the half lattice, sorted by (|n|^2, n1, n2, n3)."""
    _check_count("nmax", nmax, low=1)
    try:
        r = np.arange(-nmax, nmax + 1)
        n1, n2, n3 = (g.ravel() for g in np.meshgrid(r, r, r, indexing="ij"))
        half = (n3 > 0) | ((n3 == 0) & ((n2 > 0) | ((n2 == 0) & (n1 > 0))))
        n1, n2, n3 = n1[half], n2[half], n3[half]
        order = np.lexsort((n3, n2, n1, n1 * n1 + n2 * n2 + n3 * n3))
        return np.stack((n1, n2, n3), axis=1)[order]
    except (MemoryError, ValueError):  # numpy refuses a table beyond memory or index range
        raise ValueError(f"nmax={nmax} asks for a lattice table of (2*nmax+1)^3 = "
                         f"{(2 * nmax + 1) ** 3} points, more than can be allocated") from None


def half_lattice(L: float, nmax: int) -> list[tuple[float, float, float]]:
    """One representative k per (k, -k) pair of the cutoff cube lattice.

    Returns every k = 2*pi*n/L with n in {-nmax..nmax}^3 \\ {0} lying in the
    lexicographic-positive half space (n3 > 0, or n3 = 0 and n2 > 0, or
    n3 = n2 = 0 and n1 > 0), sorted by (|k|^2, lexicographic n).  Exactly half
    of the nonzero cube points appear, and the union with its negation and
    {0} tiles the cube disjointly.
    """
    if not math.isfinite(L):
        raise ValueError(f"box side L must be finite, got {L}")
    if L <= 0:
        raise ValueError(f"box side must be > 0, got {L}")
    scale = 2.0 * math.pi / L
    return list(zip(*(scale * _half_indices(nmax)).T.tolist()))


def half_lattice_indices(nmax: int) -> list[tuple[int, int, int]]:
    """Integer triples of :func:`half_lattice`, in the same order."""
    return list(zip(*_half_indices(nmax).T.tolist()))


def _check_coupling(y: float, allow_zero: bool = True) -> None:
    """Refuse a coupling y outside [0, 1/2), or outside (0, 1/2) without ``allow_zero``."""
    if not ((0 <= y) if allow_zero else (0 < y)) or not y < 0.5:  # NaN fails here too
        raise ValueError(f"coupling must lie in {'[' if allow_zero else '('}0, 1/2), got {y}")


def _ytilde(y, sqrt):
    """y / sqrt(1 - 4y^2), for a float or an array y, with the ``sqrt`` that fits it."""
    return y / sqrt(1.0 - 4.0 * y * y)


def ytilde_from_y(y: float) -> float:
    """y / sqrt(1 - 4y^2); maps (0, 1/2) onto (0, inf)."""
    _check_coupling(y)
    return _ytilde(y, math.sqrt)


def alpha_c(y: float) -> float:
    """Critical pair amplitude (1 - sqrt(1 - 4y^2)) / (2y).

    Evaluated in the rationalized form 2y / (1 + sqrt(1 - 4y^2)), which is
    exact at y = 0 and avoids cancellation for small y.
    """
    _check_coupling(y)
    return 2.0 * y / (1.0 + math.sqrt(1.0 - 4.0 * y * y))


def y12(y: float, alpha: float) -> tuple[float, float]:
    """Couplings (y1, y2) of the transformed two-mode block at amplitude alpha.

    y1 = y/(1-2*alpha*y) multiplies the pair annihilator, y2 =
    (y-alpha+alpha^2*y)/(1-2*alpha*y) the pair creator.  Both are strictly
    positive for 0 <= alpha < alpha_c(y); y2 vanishes exactly at alpha_c.
    """
    _check_coupling(y, allow_zero=False)
    ac = alpha_c(y)
    if not 0 <= alpha <= ac * (1.0 + 1e-12) + 1e-15:  # NaN fails here too
        raise ValueError(f"alpha={alpha} outside [0, alpha_c={ac}]")
    den = 1.0 - 2.0 * alpha * y
    return y / den, (y - alpha + alpha * alpha * y) / den


def _mode_formulas(ksq, g, sqrt):
    """(y, ytilde, alpha, epsilon) of the mode with k^2 = ksq at 8*pi*a*rho = g.

    The one statement of the per-mode formulas, for floats with ``math.sqrt``
    (:func:`mode_params`) and for arrays with ``np.sqrt`` (:func:`_mode_table`).
    It uses only + - * / and ``sqrt``, each correctly rounded, so both routes
    give the same bits.  It wants ksq > 0 with ksq + 2g finite; a mode so soft
    that y rounds to 1/2 divides by zero in ytilde.
    """
    eps = sqrt(ksq) * sqrt(ksq + 2.0 * g)
    y = 0.5 * g / (ksq + g)  # +0.0 at g = 0, and so are ytilde and alpha
    # minus branch of the quadratic for alpha(k), rationalized so the
    # large-k cancellation (ksq + g) - eps never happens; equals alpha_c(y(k))
    alpha = g / ((ksq + g) + eps)
    return y, _ytilde(y, sqrt), alpha, eps


def mode_params(mp: ModelParams, k: tuple[float, float, float]) -> ModeParams:
    """Per-mode derived constants.

    The condensate mode k = 0 is rejected, and so is a k whose
    k^2 + 16*pi*a*rho is beyond double range, and a mode so soft that
    k^2 + 8*pi*a*rho rounds to 8*pi*a*rho.
    """
    # x*x, not x**2: libm pow is not correctly rounded, and the array route squares
    ksq = k[0] * k[0] + k[1] * k[1] + k[2] * k[2]
    g = mp.gas_scale  # 8*pi*a*rho
    ksq_2g = ksq + 2.0 * g
    if not (0.0 < ksq and ksq_2g < math.inf):  # NaN fails here too
        if ksq == 0.0:
            raise ValueError("k = 0 has no mode parameters")
        raise ValueError(f"k={k!r} puts k^2 + 16*pi*a*rho={ksq_2g!r} beyond double range")
    scale = mp.L / (2.0 * math.pi)
    n = (round(k[0] * scale), round(k[1] * scale), round(k[2] * scale))
    try:
        y, ytil, alpha, eps = _mode_formulas(ksq, g, math.sqrt)
    except ZeroDivisionError:  # only y = 1/2 reaches here: ksq + g rounded to g
        raise ValueError(f"mode n={n} is too soft: k^2={ksq!r} is below the rounding "
                         f"of 8*pi*a*rho={g!r}, so y = g/(2(k^2 + g)) rounds to 1/2") from None
    return ModeParams(k, n, ksq, y, ytil, alpha, eps)


def _mode_table(mp: ModelParams, nmax: int) -> ModeParams:
    """:func:`mode_params` over the whole half lattice at once, as columns.

    A ``ModeParams`` whose fields are arrays in :func:`half_lattice` order: k
    and n of shape (M, 3), the rest of length M.  Row i has the bits of
    ``mode_params(mp, half_lattice(mp.L, nmax)[i])``.  A table with a mode
    that the scalar route refuses raises that refusal, for the first such
    mode, by handing it to :func:`mode_params`.
    """
    n = _half_indices(nmax)
    k = (2.0 * math.pi / mp.L) * n
    k1, k2, k3 = k.T
    ksq = k1 * k1 + k2 * k2 + k3 * k3
    g = mp.gas_scale
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        y, ytil, alpha, eps = _mode_formulas(ksq, g, np.sqrt)
        refused = ~((0.0 < ksq) & (ksq + 2.0 * g < np.inf)) | (y >= 0.5)
    if refused.any():
        mode_params(mp, tuple(k[np.argmax(refused)].tolist()))
        raise AssertionError("mode_params accepted a mode its table refuses")
    return ModeParams(k, n, ksq, y, ytil, alpha, eps)


def _alpha_total(mp: ModelParams, alphas: Iterable[float]) -> AlphaSum:
    """4*pi*a*rho * sum of 2*alpha over half-lattice amplitudes, in their order."""
    # np.add.accumulate adds one at a time in order; np.sum adds pairwise, other bits
    total = float(np.add.accumulate(2.0 * np.fromiter(alphas, dtype=float))[-1])
    # a > 0 whose 8*pi*a*rho underflows has every alpha = 0, like the free gas
    return AlphaSum(value=4.0 * math.pi * mp.a * mp.rho * total,
                    grows_with_cutoff=mp.gas_scale != 0.0)


def alpha_sum(mp: ModelParams, nmax: int) -> AlphaSum:
    """4*pi*a*rho * sum of alpha(k) over the full truncated lattice.

    The sum is taken in the deterministic half-lattice order (each term
    counted twice, alpha(-k) = alpha(k)) so repeated runs are bit-identical.
    """
    return _alpha_total(mp, (mode_params(mp, k).alpha for k in half_lattice(mp.L, nmax)))
