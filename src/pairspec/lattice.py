"""Momentum lattice and scalar model parameters of the LHY bose gas.

Units are chosen so that hbar = 2m = 1.  The gas lives in a periodic box of
side L, so momenta are k = 2*pi*n/L with integer 3-vectors n.  Everything
below is a pure function of the physical inputs (scattering length a, density
rho, box side L); per-mode derived quantities are collected in ``ModeParams``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "ModelParams",
    "ModeParams",
    "AlphaSum",
    "half_lattice",
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
        if self.a < 0:
            raise ValueError(f"scattering length must be >= 0, got {self.a}")
        if self.rho <= 0:
            raise ValueError(f"density must be > 0, got {self.rho}")
        if self.L <= 0:
            raise ValueError(f"box side must be > 0, got {self.L}")
        volume = self.L**3
        if self.N is None:
            object.__setattr__(self, "N", self.rho * volume)
        else:
            if self.N <= 0:
                raise ValueError(f"particle count must be > 0, got {self.N}")
            if abs(self.rho - self.N / volume) > _RHO_RTOL * self.rho:
                raise ValueError(
                    f"inconsistent inputs: rho={self.rho} but N/L^3={self.N / volume}"
                )

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


@dataclass(frozen=True)
class ModeParams:
    """Derived constants for one momentum mode k != 0.

    ``y`` is the dimensionless coupling of the two-mode block, ``ytilde`` its
    critical-transform image y/sqrt(1-4y^2), ``alpha`` the pair-excitation
    amplitude (lower branch of the quadratic, always in [0, 1)), and
    ``epsilon`` the quasiparticle energy |k|*sqrt(k^2 + 16*pi*a*rho).
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
    a > 0; it is reported raw (no renormalization is attempted here).
    """

    value: float
    grows_with_cutoff: bool


def _half_indices(nmax: int) -> np.ndarray:
    """(M, 3) integer table of the half lattice, sorted by (|n|^2, n1, n2, n3)."""
    r = np.arange(-nmax, nmax + 1)
    n1, n2, n3 = (g.ravel() for g in np.meshgrid(r, r, r, indexing="ij"))
    half = (n3 > 0) | ((n3 == 0) & ((n2 > 0) | ((n2 == 0) & (n1 > 0))))
    n1, n2, n3 = n1[half], n2[half], n3[half]
    order = np.lexsort((n3, n2, n1, n1 * n1 + n2 * n2 + n3 * n3))
    return np.stack((n1, n2, n3), axis=1)[order]


def half_lattice(L: float, nmax: int) -> list[tuple[float, float, float]]:
    """One representative k per (k, -k) pair of the cutoff cube lattice.

    Returns every k = 2*pi*n/L with n in {-nmax..nmax}^3 \\ {0} lying in the
    lexicographic-positive half space (n3 > 0, or n3 = 0 and n2 > 0, or
    n3 = n2 = 0 and n1 > 0), sorted by (|k|^2, lexicographic n).  Exactly half
    of the nonzero cube points appear, and the union with its negation and
    {0} tiles the cube disjointly.
    """
    if nmax < 1:
        raise ValueError(f"nmax must be >= 1, got {nmax}")
    if L <= 0:
        raise ValueError(f"box side must be > 0, got {L}")
    scale = 2.0 * math.pi / L
    return list(map(tuple, (scale * _half_indices(nmax)).tolist()))


def half_lattice_indices(nmax: int) -> list[tuple[int, int, int]]:
    """Integer triples of :func:`half_lattice`, in the same order."""
    return list(map(tuple, _half_indices(nmax).tolist()))


def ytilde_from_y(y: float) -> float:
    """y / sqrt(1 - 4y^2); maps (0, 1/2) onto (0, inf)."""
    if not 0 <= y < 0.5:
        raise ValueError(f"coupling must lie in [0, 1/2), got {y}")
    return y / math.sqrt(1.0 - 4.0 * y * y)


def alpha_c(y: float) -> float:
    """Critical pair amplitude (1 - sqrt(1 - 4y^2)) / (2y).

    Evaluated in the rationalized form 2y / (1 + sqrt(1 - 4y^2)), which is
    exact at y = 0 and avoids cancellation for small y.
    """
    if not 0 <= y < 0.5:
        raise ValueError(f"coupling must lie in [0, 1/2), got {y}")
    return 2.0 * y / (1.0 + math.sqrt(1.0 - 4.0 * y * y))


def y12(y: float, alpha: float) -> tuple[float, float]:
    """Couplings (y1, y2) of the transformed two-mode block at amplitude alpha.

    y1 = y/(1-2*alpha*y) multiplies the pair annihilator, y2 =
    (y-alpha+alpha^2*y)/(1-2*alpha*y) the pair creator.  Both are strictly
    positive for 0 <= alpha < alpha_c(y); y2 vanishes exactly at alpha_c.
    """
    if not 0 < y < 0.5:
        raise ValueError(f"coupling must lie in (0, 1/2), got {y}")
    ac = alpha_c(y)
    if alpha < 0 or alpha > ac * (1.0 + 1e-12) + 1e-15:
        raise ValueError(f"alpha={alpha} outside [0, alpha_c={ac}]")
    den = 1.0 - 2.0 * alpha * y
    return y / den, (y - alpha + alpha * alpha * y) / den


def mode_params(mp: ModelParams, k: tuple[float, float, float]) -> ModeParams:
    """Per-mode derived constants; the condensate mode k = 0 is rejected."""
    ksq = k[0] ** 2 + k[1] ** 2 + k[2] ** 2
    if ksq == 0.0:
        raise ValueError("k = 0 has no mode parameters")
    scale = mp.L / (2.0 * math.pi)
    n = tuple(int(round(ki * scale)) for ki in k)
    g = mp.gas_scale  # 8*pi*a*rho
    eps = math.sqrt(ksq) * math.sqrt(ksq + 2.0 * g)
    if g == 0.0:
        y = ytil = alpha = 0.0
    else:
        y = 0.5 * g / (ksq + g)
        ytil = ytilde_from_y(y)
        # minus branch of the quadratic for alpha(k), rationalized so the
        # large-k cancellation (ksq + g) - eps never happens; equals alpha_c(y(k))
        alpha = g / ((ksq + g) + eps)
    return ModeParams(k=k, n=n, ksq=ksq, y=y, ytilde=ytil, alpha=alpha, epsilon=eps)


def _alpha_total(mp: ModelParams, alphas: Iterable[float]) -> AlphaSum:
    """4*pi*a*rho * sum of 2*alpha over half-lattice amplitudes, in their order."""
    if mp.a == 0.0:
        return AlphaSum(value=0.0, grows_with_cutoff=False)
    total = 0.0
    for alpha in alphas:
        total += 2.0 * alpha
    return AlphaSum(value=4.0 * math.pi * mp.a * mp.rho * total, grows_with_cutoff=True)


def alpha_sum(mp: ModelParams, nmax: int) -> AlphaSum:
    """4*pi*a*rho * sum of alpha(k) over the full truncated lattice.

    The sum is taken in the deterministic half-lattice order (each term
    counted twice, alpha(-k) = alpha(k)) so repeated runs are bit-identical.
    """
    modes = half_lattice(mp.L, nmax) if mp.a else []  # the free gas sums nothing
    return _alpha_total(mp, (mode_params(mp, k).alpha for k in modes))
