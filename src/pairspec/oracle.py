"""Independent dense linear algebra used to referee the analytic formulas.

Self-contained implementations (no LAPACK behind them): an implicit-shift QL
eigensolver for real symmetric tridiagonal matrices, with eigenvectors by
twisted factorization at the computed eigenvalues, a diagonal similarity
transform that symmetrizes the nonsymmetric ladder blocks (valid whenever
both couplings are positive), and a one-sided Jacobi SVD for the small Gram
matrices.  Being independent of the closed forms they certify is the whole
point; their own correctness is pinned by tests against known spectra.
"""

from __future__ import annotations

import math

import numpy as np

from .hamiltonians import HabMatrix

__all__ = [
    "sym_tridiag_eig",
    "symmetrize_tridiag",
    "svd_small",
]

_MAX_QL_SWEEPS = 50
# eigenvalue gaps, relative to ||T||_1: below the first the twist cannot tell two
# vectors apart; within the second the twisted vectors get a Gram-Schmidt pass
_DEGENERATE_GAP = 1e-8
_CLOSE_GAP = 1e-2


def sym_tridiag_eig(
    diag: np.ndarray,
    offdiag: np.ndarray,
    vectors: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) of a real symmetric tridiagonal matrix.

    Implicit-shift QL iteration with Givens rotations; ``offdiag[i]`` couples
    rows i and i+1.  With ``vectors=True`` the unit eigenvectors are returned
    as columns alongside the same values, bit for bit.  They come from one
    twisted factorization per eigenvalue (:func:`_twisted_vectors`), O(n) each,
    followed by one Gram-Schmidt pass over every group of eigenvalues closer
    than 1e-2 ||T||_1, which restores orthogonality to rounding without
    moving the residuals off the backward-stable level.  When two eigenvalues
    are closer than 1e-8 ||T||_1 (a numerically degenerate pair, which the
    twist cannot separate) the rotations of the QL sweeps are accumulated
    instead, at O(n^3).

    Parameters
    ----------
    diag, offdiag : array_like
        Diagonal (length n >= 1) and off-diagonal (length n-1) entries.
    vectors : bool
        Also return the eigenvectors, as the columns of an orthogonal matrix.
    """
    a = np.asarray(diag, dtype=float)
    n = len(a)
    if n == 0:
        raise ValueError("empty matrix")
    b = np.asarray(offdiag, dtype=float)
    if len(b) != n - 1:
        raise ValueError(f"offdiag must have length {n - 1}, got {len(b)}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):  # O(n), next to O(n^2) QL
        raise ValueError("diag and offdiag must be finite")
    values = np.sort(_ql_values(a.tolist(), b.tolist() + [0.0]), kind="stable")
    if not vectors:
        return values
    norm = _norm_one(a, b)
    if n > 1 and np.min(np.diff(values)) < _DEGENERATE_GAP * norm:
        z = np.eye(n)
        raw = _ql_values(a.tolist(), b.tolist() + [0.0], z)
        return values, z[:, np.argsort(raw, kind="stable")]
    z = _twisted_vectors(a, b, values)
    z /= np.linalg.norm(z, axis=0)
    _gram_schmidt_close(z, values, _CLOSE_GAP * norm)
    return values, z


def _norm_one(a: np.ndarray, b: np.ndarray) -> float:
    """1-norm of the symmetric tridiagonal matrix with diagonal a, off-diagonal b."""
    col = np.abs(a)
    col[:-1] += np.abs(b)
    col[1:] += np.abs(b)
    return float(np.max(col))


def _ql_values(d: list[float], e: list[float], z: np.ndarray | None = None) -> np.ndarray:
    """Eigenvalues, unsorted, by implicit-shift QL sweeps run in place on d and e.

    ``e`` carries one trailing zero.  When ``z`` is given, every Givens
    rotation is also applied to its columns; the values do not depend on it.
    """
    n = len(d)
    for low in range(n):
        sweeps = 0
        while True:
            for m in range(low, n - 1):
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) + dd == dd:
                    break
            else:
                m = n - 1
            if m == low:
                break
            sweeps += 1
            if sweeps > _MAX_QL_SWEEPS:
                raise RuntimeError("QL iteration failed to converge")
            g = (d[low + 1] - d[low]) / (2.0 * e[low])
            r = math.hypot(g, 1.0)
            g = d[m] - d[low] + e[low] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, low - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                if z is not None:
                    col = z[:, i + 1].copy()
                    z[:, i + 1] = s * z[:, i] + c * col
                    z[:, i] = c * z[:, i] - s * col
            else:
                d[low] -= p
                e[low] = g
                e[m] = 0.0
    return np.array(d)


def _twisted_vectors(diag: np.ndarray, off: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Null vectors of T - lambda, one column per lambda, by twisted factorization.

    For each lambda the forward pivots D+ of T - lambda = L+ D+ L+^T and the
    backward pivots D- of U- D- U-^T meet at the twist index r that minimizes
    |gamma_r|, gamma_r = D+_r + D-_r - (a_r - lambda); the column solves
    (T - lambda) z = gamma_r e_r with z_r = 1, outward from r by the ratios
    z_i = -b_i / D+_i z_{i+1} (i < r) and z_i = -b_{i-1} / D-_i z_{i-1} (i > r)
    (Parlett & Dhillon, LAA 1997).  At an eigenvalue accurate to rounding the
    residual is at the backward-stable level.  All lambdas run at once: each
    pivot step is one vector operation over them, and the outward solve is
    two masked cumulative products.  Pivots below eps ||T||_1 are replaced by
    that floor, so nothing divides by zero.  The arithmetic is done in the
    widest dtype of the inputs.
    """
    dtype = np.result_type(diag, off, lams, float)
    a = np.asarray(diag, dtype=dtype)
    b = np.asarray(off, dtype=dtype)
    lam = np.asarray(lams, dtype=dtype)
    n = len(a)
    floor = np.finfo(dtype).eps * max(_norm_one(a, b), np.finfo(dtype).tiny)
    b2 = b * b
    # two (n, len(lam)) arrays in all: the pivots, then in place the ratios
    # and the vectors
    dplus = np.empty((n, len(lam)), dtype=dtype)
    dminus = np.empty_like(dplus)
    for i in range(n):
        piv = a[i] - lam if i == 0 else (a[i] - lam) - b2[i - 1] / dplus[i - 1]
        dplus[i] = np.where(np.abs(piv) < floor, floor, piv)
    best = np.full(len(lam), np.inf, dtype=dtype)  # min |gamma_r| so far
    twist = np.zeros(len(lam), dtype=int)
    for i in range(n - 1, -1, -1):
        shift = a[i] - lam
        piv = shift if i == n - 1 else shift - b2[i] / dminus[i + 1]
        dminus[i] = np.where(np.abs(piv) < floor, floor, piv)
        gamma = np.abs(dplus[i] + dminus[i] - shift)
        closer = gamma <= best  # ties go to the lowest r
        best = np.where(closer, gamma, best)
        twist = np.where(closer, i, twist)
    rows = np.arange(n)[:, None]
    up = np.divide(-b[:, None], dplus[:-1], out=dplus[:-1])
    up[rows[:-1] >= twist] = 1
    down = np.divide(-b[:, None], dminus[1:], out=dminus[1:])
    down[rows[1:] <= twist] = 1
    np.cumprod(up[::-1], axis=0, out=up[::-1])
    np.cumprod(down, axis=0, out=down)
    z = dminus
    z[0] = 1
    z[:-1] *= up
    return z


def _gram_schmidt_close(z: np.ndarray, values: np.ndarray, window: float) -> None:
    """One Gram-Schmidt pass, in place, of each unit column against the columns
    before it whose eigenvalue lies within ``window`` (values ascending)."""
    low = 0
    for j in range(1, len(values)):
        while values[j] - values[low] >= window:
            low += 1
        if low < j:
            q = z[:, low:j]
            col = z[:, j]
            col -= q @ (q.T @ col)
            col /= np.linalg.norm(col)


def symmetrize_tridiag(m: HabMatrix) -> tuple[np.ndarray, np.ndarray, dict]:
    """Diagonal similarity taking the y1/y2 block to symmetric tridiagonal form.

    Valid when both couplings are strictly positive (true on the whole
    amplitude range below critical); the transformed off-diagonals are the
    geometric means sqrt(y1 y2) sqrt((p+s+1)(s+1)) and eigenvalues are
    preserved exactly in exact arithmetic.  ``diagnostics`` reports the logs
    of the extreme entries of the scaling diagonal, which grow like
    (y2/y1)^(smax/2); their difference is the log of the scale ratio, which
    warns of overflow for lopsided couplings and cannot overflow itself.
    """
    if m.y1 <= 0.0 or m.y2 <= 0.0:
        raise ValueError("symmetrization requires y1 > 0 and y2 > 0; "
                         "use the diagonal read-off for the bidiagonal case")
    off = np.sqrt(m.super_ * m.sub)
    half_log_ratio = 0.5 * math.log(m.y2 / m.y1)
    log_scale = np.arange(m.smax + 1) * half_log_ratio
    diagnostics = {
        "scale_log_min": float(log_scale.min()),
        "scale_log_max": float(log_scale.max()),
    }
    return m.diag.copy(), off, diagnostics


def svd_small(matrix: np.ndarray) -> np.ndarray:
    """Singular values (descending) of a small real matrix, one-sided Jacobi.

    Columns are rotated pairwise until mutually orthogonal; the singular
    values are then the column norms.  Intended for matrices up to 64x64
    (Gram matrices of the completeness witness); accuracy ~1e-10 relative
    for well-conditioned inputs.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("matrix must be 2-D and nonempty")
    if max(a.shape) > 64:
        raise ValueError("svd_small is restricted to dimensions <= 64")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix must be finite")
    u = a.copy()
    n = u.shape[1]
    for _ in range(60):
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                aii = float(u[:, i] @ u[:, i])
                ajj = float(u[:, j] @ u[:, j])
                aij = float(u[:, i] @ u[:, j])
                den = math.sqrt(aii) * math.sqrt(ajj)  # sqrt first: no underflow
                if den == 0.0 or aij == 0.0:
                    continue
                rel = abs(aij) / den
                off = max(off, rel)
                if rel <= 1e-15:
                    continue
                zeta = (ajj - aii) / (2.0 * aij)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(zeta, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = c * t
                col_i = u[:, i].copy()
                u[:, i] = c * col_i - s * u[:, j]
                u[:, j] = s * col_i + c * u[:, j]
        if off <= 1e-15:
            break
    sv = np.sqrt(np.sum(u * u, axis=0))
    return np.sort(sv)[::-1]
