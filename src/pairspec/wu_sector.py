"""Fixed-N three-mode sector (k, -k, 0) of the particle-conserving model.

The transformed particle-conserving Hamiltonian acts on the basis
|n_k = p+s, n_{-k} = s, n_0 = Ntot - p - 2s> as an upper-bidiagonal matrix:
its spectrum reads off the diagonal eps_k (2s + p) with no numerics, and the
eigenvectors have an exact closed form in the sector coupling
ytilde(k) = 8 pi a / (|B| eps_k); the log of each entry is a running sum of
the logs of the ratios of consecutive entries.  Only this transformed side is
checked, with exp(W) exp(-W) = I for the nilpotent pair operator W.  Whether
exp(W) maps the eigenvectors to eigenstates of the untransformed sector
operator is open (ROADMAP item 1): no code builds that operator, and
U Lambda U^-1 with U = [exp(W) v_n] is not symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import pair_transform
from .fock_ladder import _check_count, _finite, _refuse_rows
from .lattice import ModelParams, ModeParams

__all__ = [
    "WuSector",
    "wu_ytilde",
    "build_transformed_wu",
    "wu_eigenstate",
    "apply_exp_w",
]


@dataclass(frozen=True)
class WuSector:
    """Basis bookkeeping for total particle number Ntot and imbalance p.

    Basis index s = 0 .. dim-1 labels |p+s, s, Ntot-p-2s>; every element
    conserves the total count by construction.
    """

    Ntot: int
    p: int
    mode: ModeParams

    def __post_init__(self) -> None:
        _check_count("Ntot", self.Ntot, low=1)
        _check_count("p", self.p)
        if self.p > self.Ntot:
            raise ValueError(f"p must lie in [0, Ntot], got {self.p}")

    @property
    def dim(self) -> int:
        return (self.Ntot - self.p) // 2 + 1


def wu_ytilde(mode: ModeParams, mp: ModelParams) -> float:
    """Sector coupling 8 pi a / (|B| eps_k); 0 in the free limit a = 0.

    Scales like 1/L^3 at fixed k, a, rho.
    """
    return 8.0 * math.pi * mp.a / (mp.volume * mode.epsilon)


def _pair_amplitude(sector: WuSector, lead: float) -> np.ndarray:
    """lead sqrt((p+s) s) sqrt((N0+2)(N0+1)), N0 = Ntot - p - 2s, for s = 1..dim-1:
    the pair amplitude between |p+s, s, N0> and |p+s-1, s-1, N0+2>."""
    s = np.arange(1, sector.dim)
    n0 = sector.Ntot - sector.p - 2 * s
    return lead * np.sqrt((sector.p + s) * s) * np.sqrt((n0 + 2) * (n0 + 1))


def _bands(sector: WuSector, mp: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal (s, s), s = 0..dim-1, and superdiagonal (s-1, s), s = 1..dim-1,
    of the transformed sector matrix (see :func:`build_transformed_wu`)."""
    beta = 8.0 * math.pi * mp.a / mp.volume  # k and -k terms summed
    diag = sector.mode.epsilon * (2 * np.arange(sector.dim) + sector.p)
    return diag, _pair_amplitude(sector, beta)


def build_transformed_wu(sector: WuSector, mp: ModelParams) -> np.ndarray:
    """Upper-bidiagonal sector matrix of the transformed Hamiltonian.

    Diagonal eps_k (2s + p); entry (s-1, s) couples s -> s-1 through
    a_k a_{-k} (a_0*)^2 with amplitude
    beta sqrt((p+s) s) sqrt((N0+2)(N0+1)), N0 = Ntot - p - 2s.  The
    sub-diagonal is identically zero and constant offsets are excluded
    (energies are relative to the sector ground).  Dense view of the bands.
    """
    diag, upper = _bands(sector, mp)
    m = np.diag(diag)
    np.fill_diagonal(m[:, 1:], upper)
    return m


def wu_eigenstate(sector: WuSector, mp: ModelParams, n_index: int) -> np.ndarray:
    """Unit eigenvector of the sector matrix at eigenvalue eps_k (2 n_index + p).

    Closed form (frozen against the back-substitution referee; see the
    regression tests):

        c_s = (ytilde/2)^(-s) binom(n, s)
              [ binom(p+s, s) binom(Ntot-p, 2s) (2s)! ]^(-1/2),  s = 0..n.

    The combinatorial weight differs from a naive reading of the sector
    formula exactly by the binom(Ntot-p, 2s) factor, which carries the
    depletion of the finite condensate; the sector operator is the ground
    truth that fixes it.  log c_s is the running sum, in
    ``pair_transform._EXT``, of the logs of the term ratios

        c_j / c_{j-1} = (2/ytilde) (n+1-j) / sqrt(j (p+j) (N0_j+2) (N0_j+1)),

    N0_j = Ntot - p - 2j.  No factorial is formed, and the vector stays finite
    for sectors whose factorials exceed double range.  Only entries whose log
    is at least ``_LOG_ZERO`` are exponentiated, since the rest round to a
    zero double, and on x86-64 rounding an x87 long double to a zero or
    subnormal double costs a microcode assist (about 185 ns): the cost is per
    live entry, and at N = 10^4 about 60% of the entries are not live.  Where
    ytilde is 0 (the free limit, or a coupling that underflows) the
    eigenvectors are the basis vectors themselves.  This is the batch-1 face of :func:`_wu_eigenvectors`.
    """
    dim = sector.dim
    _check_count("n_index", n_index)
    if n_index >= dim:
        raise ValueError(f"n_index must lie in [0, {dim - 1}], got {n_index}")
    [(_, block)] = _wu_eigenvectors(sector, mp, [n_index])
    return block[0]


# below this log an entry's exp is under 2^-1075 and rounds to a zero double
_LOG_ZERO = -745.2

# entries (rows x dim) of one block of eigenvectors: about 64 bytes each in
# flight, so a block stays near half a MB at any sector size
_BLOCK_ENTRIES = 2**13


def _wu_eigenvectors(sector: WuSector, mp: ModelParams, ns):
    """Yield (n, rows): the :func:`wu_eigenstate` of each index in ``ns``
    (integers in [0, dim), not checked here), in blocks of consecutive
    entries of ``ns`` that hold at most ``_BLOCK_ENTRIES`` numbers.

    Row r of a block carries the running log sum of index n_r over
    j = 1..max(n).  The ratio of j = n_r + 1 is exactly zero, so the logs
    are taken only for j <= n_r and the steps past n_r are 0: no entry is
    -inf (x87 arithmetic on an infinite operand takes a microcode assist, see
    ``pair_transform._EXT``), the sum past n_r keeps its finite value at n_r,
    which the row maximum already counts, and the entries j <= n_r have the
    bits of a single index.  Only those are exponentiated; the rest stay
    exact zeros.  The norms are :func:`_row_norms`.
    """
    ns = np.asarray(ns, dtype=int)
    dim, p = sector.dim, sector.p
    ytil = wu_ytilde(sector.mode, mp)
    ext = pair_transform._EXT
    log_half = np.log(ext(ytil) / 2) if ytil else None
    cols = np.arange(dim)
    step = max(1, _BLOCK_ENTRIES // dim)
    for lo in range(0, len(ns), step):
        n = ns[lo : lo + step]
        v = np.zeros((len(n), dim))
        if ytil == 0.0:  # a = 0, or a coupling that underflows
            v[np.arange(len(n)), n] = 1.0
            yield n, v
            continue
        top = int(n.max())
        j = np.arange(1.0, top + 1)
        n0 = sector.Ntot - p - 2 * j
        # (c_j / c_{j-1})^2 (ytilde/2)^2, within a few roundings of double; its
        # log is taken in _EXT, so a large |log| adds no rounding of its own
        ratio_sq = (n[:, None] + 1 - j) ** 2 / (j * (p + j) * (n0 + 2) * (n0 + 1))
        # log c_s for s = 0..top up to s-independent terms, which the normalization drops
        log_w = np.zeros((len(n), top + 1), dtype=ext)
        live = cols[: top + 1] <= n[:, None]
        steps, live_steps = log_w[:, 1:], live[:, 1:]
        np.log(ratio_sq, out=steps, where=live_steps, dtype=ext)
        steps *= 0.5
        np.subtract(steps, log_half, out=steps, where=live_steps)
        np.add.accumulate(log_w, axis=-1, out=log_w)
        log_w -= log_w.max(axis=-1, keepdims=True)
        # v already holds the zero doubles that the other entries round to
        np.exp(log_w, out=v[:, : top + 1], where=live & (log_w >= _LOG_ZERO))
        yield n, v / _row_norms(v)[:, None]


# the gate on each residual of _wu_residuals, in wu and verify; a NaN residual fails it
_RESIDUAL_TOL = 1e-10


def _wu_residuals(sector: WuSector, mp: ModelParams):
    """Yield (n, lam_n, |(M - lam_n) v_n|), lam_n = eps_k (2n + p), in the blocks of
    :func:`_wu_eigenvectors`, M applied by its bands: the residual of ``wu`` and ``verify``."""
    diag, upper = _bands(sector, mp)
    for ns, vecs in _wu_eigenvectors(sector, mp, range(sector.dim)):
        image = (diag - diag[ns][:, None]) * vecs
        image[:, :-1] += upper * vecs[:, 1:]
        yield ns, diag[ns], _row_norms(image)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """The 2-norm of each row (last axis), with the bits of np.linalg.norm on
    that row alone: a stacked matmul of vectors takes the same BLAS dot."""
    return np.sqrt((rows[..., None, :] @ rows[..., :, None])[..., 0, 0])


def apply_exp_w(state: np.ndarray, sector: WuSector, sign: float = 1.0) -> np.ndarray:
    """Apply exp(sign * W) to a sector vector; exact, the series terminates.

    W is strictly lower bidiagonal, so exp(W)[m, s] = prod_{j=s}^{m-1} w_j /
    (m-s)! with w_j its subdiagonal.  Each nonzero input entry leads one such
    column, a running product summed in ``pair_transform._EXT`` and rounded to
    double once: O(dim |support|) time, O(dim) memory.  Raises ValueError when an
    entry of the image is beyond double range.  This is the batch-1 face of
    :func:`_exp_w_rows`.
    """
    state = np.asarray(state, dtype=float)
    if state.shape != (sector.dim,):
        raise ValueError(f"state must have shape ({sector.dim},)")
    _finite(state, "state must be finite")
    return _exp_w_rows(state, sector, sign)


def _exp_w_rows(states: np.ndarray, sectors, sign) -> np.ndarray:
    """:func:`apply_exp_w` over rows: ``states`` of shape (n,) with one sector,
    or (rows, n) with one sector per row, each row finite and zero past its
    sector's dim (not checked here), and ``sign`` a scalar or one per row.

    The rows ride on the batch axis of ``pair_transform._binomial_columns``.
    A row's numerators are zero past its dim, so its columns are exact zeros
    there, and each of its entries is the same running product in ``_EXT``,
    summed over the same columns in the same order, as for the single vector:
    a row has its bits.  The first row with an image entry beyond double range
    is refused with ``ValueError`` naming the row.
    """
    sectors = [sectors] if states.ndim == 1 else sectors
    leads = states.T  # m on the kernel's first axis, rows on its second
    # the entry (s, s-1) of sign * W with W = P a_0^2 / Ntot is the kernel's
    # numerator of row s
    num = np.zeros((len(leads), len(sectors)), dtype=pair_transform._EXT)
    for r, (sector, sg) in enumerate(zip(sectors, np.broadcast_to(sign, len(sectors)))):
        num[1 : sector.dim, r] = _pair_amplitude(sector, -sg * sector.mode.alpha / sector.Ntot)
    out = np.zeros(leads.shape, dtype=pair_transform._EXT)
    # overflow becomes inf or nan here and is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for s, col in pair_transform._binomial_columns(num.reshape(leads.shape), leads):
            out[s : s + len(col)] += col
        image = out.T.astype(float)
    dims = np.reshape([sector.dim for sector in sectors], image.shape[:-1])
    _refuse_rows(~np.isfinite(image).all(axis=-1), lambda sign, dim: (
        f"exp({sign!r} W) of this length-{dim} sector vector has entries beyond double range"),
        sign, dims)
    return image
