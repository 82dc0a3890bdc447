"""Independent dense linear algebra used to referee the analytic formulas.

Self-contained implementations (no LAPACK behind them): a real symmetric
tridiagonal eigensolver, cut once into unreduced blocks -- each solved by
implicit-shift QL up to ``_DC_LEAF`` rows, by Cuppen's divide and conquer
above it, torn down to one-row leaves and merged back a tree height at a
time, every merge of a height in one O(n^2) numpy batch worked in chunks of
``_DC_CHUNK`` elements so memory stays O(n), and with eigenvectors by
twisted factorization at the computed eigenvalues -- a
diagonal similarity transform that symmetrizes the nonsymmetric ladder blocks
(valid whenever both couplings are positive), and a one-sided Jacobi SVD for
the small Gram matrices.  Being independent of the closed forms they certify
is the whole point; their own correctness is pinned by tests against known
spectra.
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
# blocks of up to this many rows take QL directly: on ladder blocks QL is ahead
# through 150 rows, level at 160 and behind from 170-180 (CPU time, calls
# interleaved); verify's largest block has 81 rows, so its values never come
# from the divide and conquer
_DC_LEAF = 160
_DC_CHUNK = 1 << 15  # elements of a merge's (roots x poles) arrays held at once
_MAX_SECULAR_STEPS = 64  # past this a root keeps its bracketed iterate
_EPS = float(np.finfo(float).eps)


def sym_tridiag_eig(
    diag: np.ndarray,
    offdiag: np.ndarray,
    vectors: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) of a real symmetric tridiagonal matrix.

    ``offdiag[i]`` couples rows i and i+1.  The matrix is cut once, at every
    size and for values and vectors alike, where QL would neglect a coupling:
    where |b_i| + (|a_i| + |a_{i+1}|) rounds to the diagonal sum, a test taken
    on a quarter of each entry where that sum overflows.  Each unreduced block
    is solved at its own power-of-two scale (:func:`_unreduced_eig`): up to
    ``_DC_LEAF`` rows by implicit-shift QL, O(n^2) Python steps; above, by
    Cuppen's divide and conquer (:func:`_divide_and_conquer`), O(n^2) numpy
    work in batches of one tree height, memory O(n).  With ``vectors=True``
    each block's unit eigenvectors come from one twisted factorization per
    eigenvalue (:func:`_twisted_vectors`), O(n) each, and one Gram-Schmidt
    pass over each group of eigenvalues closer than 1e-2 ||T||_1; only a pair
    closer than 1e-8 ||T||_1 inside one block, which the twist cannot tell
    apart, has that block's QL rotations accumulated instead, at O(n^3).  The
    values are one stable sort of the blocks' values, bit for bit the same
    with or without vectors, and the vectors, as columns, are the blocks'
    assembled block-diagonally in that order.

    Parameters
    ----------
    diag, offdiag : array_like
        Diagonal (length n >= 1) and off-diagonal (length n-1) entries.
    vectors : bool
        Also return the eigenvectors, as the columns of an orthogonal matrix.
    """
    a = np.asarray(diag, dtype=float)
    b = np.asarray(offdiag, dtype=float)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError(f"diag and offdiag must be 1-D, got shapes {a.shape} and {b.shape}")
    n = len(a)
    if n == 0:
        raise ValueError("empty matrix")
    if len(b) != n - 1:
        raise ValueError(f"offdiag must have length {n - 1}, got {len(b)}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):  # O(n), next to O(n^2) QL
        raise ValueError("diag and offdiag must be finite")
    with np.errstate(over="ignore"):  # where the sum overflows, a quarter of each entry cannot
        q = np.where(np.isinf(np.abs(b) + (np.abs(a[:-1]) + np.abs(a[1:]))), 0.25, 1.0)
    dd = q * np.abs(a[:-1]) + q * np.abs(a[1:])
    edges = [0, *(np.flatnonzero(q * np.abs(b) + dd == dd) + 1).tolist(), n]
    blocks = [_unreduced_eig(a[i:j], b[i : j - 1], vectors) for i, j in zip(edges, edges[1:])]
    if len(blocks) == 1:
        return blocks[0] if vectors else blocks[0][0]
    values = np.concatenate([v for v, _ in blocks])
    order = np.argsort(values, kind="stable")
    if not vectors:
        return values[order]
    rank, z = np.argsort(order), np.zeros((n, n))
    for i, j, (_, zb) in zip(edges, edges[1:], blocks):
        z[i:j, rank[i:j]] = zb
    return values[order], z


def _unreduced_eig(a: np.ndarray, b: np.ndarray, vectors: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Ascending eigenvalues of one unreduced block, and its unit eigenvectors as
    columns when ``vectors`` (else None), solved at its own power-of-two scale."""
    n = len(a)
    e, a, b = _unit_scaled(a, b)
    if n <= _DC_LEAF:
        values = np.sort(_ql_values(a.tolist(), b.tolist() + [0.0]), kind="stable")
    else:  # a +-1 diagonal similarity makes b >= 0
        values = _divide_and_conquer(a, np.abs(b))
    out = _unscaled(values, e, "eigenvalues")
    if not vectors:
        return out, None
    norm = _norm_one(a, b)
    if n > 1 and np.min(np.diff(values)) <= _DEGENERATE_GAP * norm:
        z = np.eye(n)
        raw = _ql_values(a.tolist(), b.tolist() + [0.0], z)
        return out, z[:, np.argsort(raw, kind="stable")]
    z = _twisted_vectors(a, b, values)
    z /= np.linalg.norm(z, axis=0)
    _gram_schmidt_close(z, values, _CLOSE_GAP * norm)
    return out, z


def _divide_and_conquer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues, for b >= 0, merged up from single rows a tree height at a time.

    Cuppen's tearing (Numer. Math. 36, 1981): with rho = b[k-1] and
    v = e_{k-1} + e_k, T = diag(T1, T2) + rho v v^T, where T1 and T2 are the
    halves with rho taken off their touching diagonal entries.  In the
    halves' eigenbases the coupling only reads the last row of T1's
    eigenvectors and the first row of T2's, so those two rows are all that a
    merge takes from below.  Halving at k = n // 2 down to single rows tears
    every coupling: leaf i is the value a_i - b_{i-1} - b_i, and both of its
    rows are 1.  The merges then run bottom up, all those of one tree height
    as one batch (:func:`_merge`), each keeping its values and its first and
    last rows in place over the rows it covers.  Only the next merge up reads
    those rows, so the root merge returns its values alone.
    """
    values = a.copy()
    values[:-1] -= b
    values[1:] -= b
    first, last = np.ones(len(a)), np.ones(len(a))
    levels = _merge_levels(len(a))
    for height, (lo, mid, hi) in enumerate(levels, 1):
        sizes = hi - lo
        edges = np.append(0, np.cumsum(sizes))
        seg = np.repeat(np.arange(len(lo)), sizes)
        pos = np.arange(edges[-1]) + (lo - edges[:-1])[seg]  # the rows the merges cover
        upper = pos >= mid[seg]
        z = np.where(upper, first[pos], last[pos]) / math.sqrt(2.0)
        if height == len(levels):  # the root, one merge over every row
            return _merge(values, z, 2.0 * b[mid - 1], None, edges)[0]
        rows = np.stack([np.where(upper, 0.0, first[pos]), np.where(upper, last[pos], 0.0)])
        values[pos], (first[pos], last[pos]) = _merge(values[pos], z, 2.0 * b[mid - 1], rows, edges)
    return values


def _merge_levels(n: int) -> list[np.ndarray]:
    """The merges of each tree height, lowest first, as (3, merges) arrays of lo, mid, hi.

    Rows lo:hi split at mid = lo + (hi - lo) // 2, down to single rows; a
    merge of m rows has height ceil(log2 m), above both of its halves.
    """
    levels, stack = {}, [(0, n)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo > 1:
            mid = lo + (hi - lo) // 2
            levels.setdefault((hi - lo - 1).bit_length(), []).append((lo, mid, hi))
            stack += [(lo, mid), (mid, hi)]
    return [np.array(sorted(levels[h])).T for h in sorted(levels)]


def _merge(d: np.ndarray, z: np.ndarray, rho: np.ndarray, rows: np.ndarray | None,
           edges: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenvalues of diag(d) + rho z z^T for a batch of merges, and ``rows`` times
    its eigenvectors.  With ``rows`` None it returns (values, None) and stops
    after :func:`_secular_roots`: the values do not depend on the rows.

    Merge s owns the entries edges[s]:edges[s+1] of d and z and those columns
    of ``rows``, with its own rho[s] >= 0 and |z| = 1 over them; its values
    come back ascending in the same entries.  Deflation as in LAPACK's
    dlaed2: a pole whose weight rho |z_i| is below tol = 8 eps max(|d|, rho)
    (both over its merge) is an eigenvalue as it stands, and of two
    neighbouring poles whose gap t satisfies |t c s| <= tol, for the rotation
    (c, s) that zeroes the first one's weight, the first is one too.  That
    rotation acts alike on z and on the carried rows.  The remaining poles of
    a merge are strictly increasing, each root of its secular equation lies
    between two of them (:func:`_secular_roots`), and the eigenvector of root
    lam_j is zhat / (d - lam_j), zhat being Gu & Eisenstat's weights (SIMAX 16,
    1995) for which the computed roots are exact, so the rows stay orthogonal
    to rounding.  Every (roots x poles) array is built ``_DC_CHUNK`` elements
    at a time (:func:`_pole_blocks`).
    """
    seg = np.repeat(np.arange(len(rho)), np.diff(edges))
    order = np.lexsort((d, seg))
    d, z = d[order], z[order]
    if rows is not None:
        rows = rows[:, order]
    tol = 8.0 * _EPS * np.maximum(np.maximum.reduceat(np.abs(d), edges[:-1]), rho)[seg]
    keep = rho[seg] * np.abs(z) > tol
    idx = np.flatnonzero(keep)
    # |t c s| <= |t| / 2, so only neighbours closer than 2 tol can deflate; a
    # rotation only moves the survivor down towards its partner, which widens
    # the next gap, and the partner dropped is always the lower one
    close = (np.diff(d[idx]) <= 2.0 * tol[idx[1:]]) & (seg[idx[1:]] == seg[idx[:-1]])
    for m in np.flatnonzero(close) + 1:
        i, j = idx[m - 1], idx[m]
        r = math.hypot(z[i], z[j])
        c, s = z[j] / r, -z[i] / r
        if abs((d[j] - d[i]) * c * s) <= tol[i]:
            z[i], z[j] = 0.0, r
            if rows is not None:
                rows[:, i], rows[:, j] = c * rows[:, i] + s * rows[:, j], c * rows[:, j] - s * rows[:, i]
            d[i], d[j] = d[i] * c * c + d[j] * s * s, d[i] * s * s + d[j] * c * c
            keep[i] = False
    idx = np.flatnonzero(keep)
    dk, zk, kseg = d[idx], z[idx], seg[idx]
    k = len(dk)
    kedges = np.append(0, np.cumsum(np.bincount(kseg, minlength=len(rho))))
    org, tau = _secular_roots(dk, zk, rho, kedges)
    dorg = dk[org]  # root j is dorg[j] + tau[j]
    d[idx] = dorg + tau
    order = np.lexsort((d, seg))
    if rows is None:
        return d[order], None
    # each merge's poles and roots as a row of (merges, widest) tables; a pad
    # below every pole, with zero weight, adds nothing and divides by no zero
    pad = float(np.min(dk, initial=0.0)) - 1.0
    dtab, otab, ttab = _by_merge(dk, kedges, pad), _by_merge(dorg, kedges, pad), _by_merge(tau, kedges)
    col = np.arange(k) - kedges[kseg]  # each pole's column
    zhat = np.empty(k)
    for i, s in _pole_blocks(kseg, dtab.shape[1]):
        # zhat_i^2 = (lam_i - d_i) prod_{j != i} (lam_j - d_i) / (d_j - d_i): each
        # factor positive, each root paired with a pole as in LAPACK's dlaed3
        num = otab[s]  # a gathered copy, worked in place
        num -= dk[i, None]
        num += ttab[s]
        den = dtab[s]
        den -= dk[i, None]
        den[np.arange(len(den)), col[i]] = 1.0
        num /= den
        zhat[i] = np.sqrt(np.prod(num, axis=1))
    ztab = _by_merge(np.copysign(zhat, zk), kedges)
    carried = np.stack([_by_merge(row, kedges) for row in rows[:, idx]])
    for j, s in _pole_blocks(kseg, dtab.shape[1]):
        u = dtab[s]
        u -= dorg[j, None]
        u -= tau[j, None]
        np.divide(ztab[s], u, out=u)  # (roots, poles)
        rows[:, idx[j]] = np.einsum("kij,ij->ki", carried[:, s], u) / np.sqrt(np.einsum("ij,ij->i", u, u))
    return d[order], rows[:, order]


def _by_merge(x: np.ndarray, edges: np.ndarray, pad: float = 0.0) -> np.ndarray:
    """The (merges, widest) table whose row s is x[edges[s]:edges[s+1]], padded with ``pad``."""
    sizes = np.diff(edges)
    table = np.full((len(sizes), max(1, int(np.max(sizes)))), pad)
    table[np.arange(table.shape[1]) < sizes[:, None]] = x
    return table


def _pole_blocks(seg: np.ndarray, width: int):
    """Chunks of about ``_DC_CHUNK`` (rows x poles) elements, for rows grouped by
    merge, seg[r] being the merge of row r and ``width`` that of its table.

    Yields (r, s): the slice r of the chunk's rows and s = seg[r], which
    gathers one table row per row, a fresh copy the caller may overwrite.
    """
    step = max(1, _DC_CHUNK // width)
    for r0 in range(0, len(seg), step):
        yield slice(r0, r0 + step), seg[r0 : r0 + step]


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _secular_roots(d: np.ndarray, z: np.ndarray, rho: np.ndarray,
                   edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots of f_s(lam) = 1 + rho_s sum_i z_i^2 / (d_i - lam), the sum over the
    poles d[edges[s]:edges[s+1]] of merge s, strictly increasing.

    Root j lies in (d_j, d_{j+1}), the last of a merge in
    (d_last, d_last + rho_s |z|^2].  Each is returned as an origin pole and an
    offset tau from it: the pole at the nearer end of its interval, picked by
    the sign of f at the midpoint, so that every d_i - lam = (d_i - d_origin)
    - tau keeps its relative accuracy (as in LAPACK's dlaed4).  The step is
    R.-C. Li's middle way (LAPACK Working Note 89, 1994): the poles below the
    iterate and those above are each modelled by one pole at the interval's
    ends, matching value and slope, and the model's root is taken.  A step
    that leaves the bracket the signs of f have built is replaced by
    bisection, so every root stays strictly inside its interval; a root is
    done once |f| / rho is within the rounding bound of its evaluation.  The
    roots of all merges iterate together, only the unconverged ones still in
    play, at most ``_MAX_SECULAR_STEPS`` times.  On steeply graded blocks the
    sums and steps overflow or divide by zero: the solve runs with those errors
    ignored, and the bracket test turns each inf or nan step into bisection.
    """
    k = len(d)
    org, tau = np.arange(k), np.empty(k)
    if k == 0:  # all deflated, as for rho = 0
        return org, tau
    seg = np.repeat(np.arange(len(rho)), np.diff(edges))
    top = edges[seg + 1] - 1  # the last pole of each root's merge
    last = org == top
    z2 = z * z
    rinv = 1.0 / rho[seg]
    gap = np.append(np.diff(d), 0.0)
    # the last of each merge: a bound past the root
    gap[last] = (2.0 * rho * np.bincount(seg, weights=z2, minlength=len(rho)))[seg[last]]
    # poles as in _merge's tables: a zero weight below them all
    dtab, ztab = _by_merge(d, edges, float(np.min(d, initial=0.0)) - 1.0), _by_merge(z2, edges)
    # the roots in play, their iterates and brackets, from the intervals' midpoints
    j = org.copy()
    t, lo, hi = gap / 2, np.zeros(k), gap.copy()
    for step in range(_MAX_SECULAR_STEPS):
        w, dpsi, dphi, err = _secular_terms(dtab, ztab, rinv[j], d[org[j]], t, seg[j])
        done = np.abs(w) <= _EPS * err
        lo, hi = np.where(w < 0, t, lo), np.where(w > 0, t, hi)
        dl = (d[j] - d[org[j]]) - t  # d_j - lam and d_{j+1} - lam, as in the sums
        dr = (d[np.minimum(j + 1, top[j])] - d[org[j]]) - t
        new = t + _middle_way(w, dpsi, dphi, dl, dr, last[j])
        t = np.where(done, t, np.where((lo < new) & (new < hi), new, (lo + hi) / 2))
        if step == 0:
            # f < 0 at the midpoint: the root is nearer the upper pole, the new origin
            right = (w < 0) & ~done & ~last
            org += right
            shift = np.where(right, gap, 0.0)
            t, lo, hi = t - shift, lo - shift, hi - shift
        tau[j] = t
        j, t, lo, hi = j[~done], t[~done], lo[~done], hi[~done]
        if not len(j):
            break
    return org, tau


def _secular_terms(dtab: np.ndarray, ztab: np.ndarray, rinv: np.ndarray, dorg: np.ndarray,
                   tau: np.ndarray, seg: np.ndarray):
    """f / rho at the iterates lam = dorg + tau and the slopes of its two halves.

    Iterate c sums over row seg[c] of the (merges, widest) tables of poles
    ``dtab`` and squared weights ``ztab``; rinv[c] is its merge's 1/rho.
    Returns w = 1/rho + psi + phi, psi' and phi', psi summing the poles below
    the iterate (negative terms) and phi those above, and the bound on the
    rounding error of w that the convergence test uses (after dlaed4).
    """
    out = np.empty((4, len(tau)))
    for c, s in _pole_blocks(seg, dtab.shape[1]):
        r = dtab[s]  # a gathered copy, worked in place
        r -= dorg[c, None]
        r -= tau[c, None]
        np.divide(1.0, r, out=r)
        above = ztab[s]
        above *= r
        below = np.minimum(above, 0.0)
        above -= below
        out[:, c] = (below.sum(axis=1), above.sum(axis=1),
                     np.einsum("ij,ij->i", below, r), np.einsum("ij,ij->i", above, r))
    psi, phi, dpsi, dphi = out
    w = rinv + psi + phi
    err = 8.0 * (phi - psi + rinv) + np.abs(tau) * (dpsi + dphi)
    return w, dpsi, dphi, err


def _middle_way(w, dpsi, dphi, dl, dr, last):
    """The middle-way step from the iterate, dl and dr being d_j - lam and d_{j+1} - lam.

    The model c + s1 / (dl - eta) + s2 / (dr - eta) with s1 = psi' dl^2 and
    s2 = phi' dr^2 has one root between the poles, the root
    (a - sqrt(a^2 - 4 b c)) / (2 c) of c eta^2 - a eta + b.  Beyond the last
    pole phi is empty and the model has the one pole, whose root is dl w / c.
    Steps that overflow or divide by zero (ignored within
    :func:`_secular_roots`) come out inf or nan, and bisection takes them.
    """
    c = w - dl * dpsi - dr * dphi
    a = (dl + dr) * w - dl * dr * (dpsi + dphi)
    b = dl * dr * w
    disc = np.sqrt(np.abs(a * a - 4.0 * b * c))
    eta = np.where(a <= 0, (a - disc) / (2.0 * c), 2.0 * b / (a + disc))
    eta = np.where(c == 0, b / a, eta)
    return np.where(last, dl * w / (w - dl * dpsi), eta)


def _unit_scaled(a: np.ndarray, b: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """(e, a / 2^e, b / 2^e) with ||T||_1 / 2^e in [1/2, 1).

    The scaling is exact and every solver step is homogeneous, so a block in
    the normal range keeps its bits, and a block near either end of double
    range stays clear of overflow where the twisted factorization and the
    merges square b, and of the subnormals in which QL stalls.  A 1-norm
    beyond double range takes its exponent from a quarter of the entries.
    """
    with np.errstate(over="ignore"):
        norm = _norm_one(a, b)
    if norm == math.inf:  # finite entries whose sum overflows: a quarter of each cannot
        e = math.frexp(_norm_one(np.ldexp(a, -2), np.ldexp(b, -2)))[1] + 2
    else:
        e = math.frexp(norm)[1]
    return e, np.ldexp(a, -e), np.ldexp(b, -e)


def _unscaled(x: np.ndarray, e: int, what: str) -> np.ndarray:
    """x * 2^e, refusing the ``what`` of a matrix beyond double range."""
    with np.errstate(over="ignore"):
        x = np.ldexp(x, e)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what} of this matrix lie beyond double range")
    return x


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
    A block that the local deflation test holds for ``_MAX_QL_SWEEPS`` sweeps
    is cut normwise (:func:`_normwise_cut`), and its sweep count restarts.
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
            if sweeps > _MAX_QL_SWEEPS:  # graded blocks can hold every coupling above the local test
                _normwise_cut(d, e, low, m)
                sweeps = 0
                continue
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


def _normwise_cut(d: list[float], e: list[float], low: int, m: int) -> None:
    """Zero the first coupling e[low..m-1] of at most eps ||T||_1, the normwise
    test of EISPACK's tql1 (Bowdler, Martin, Reinsch & Wilkinson, Numer. Math.
    11, 1968), with ||T||_1 that of the current iterate; raise ValueError if
    none passes it."""
    tol = _EPS * _norm_one(np.array(d), np.array(e[:-1]))
    cut = next((i for i in range(low, m) if abs(e[i]) <= tol), None)
    if cut is None:
        raise ValueError("QL iteration failed to converge: no coupling is below eps ||T||_1")
    e[cut] = 0.0


def _twisted_vectors(diag: np.ndarray, off: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Null vectors of T - lambda, one column per lambda, by twisted factorization.

    For each lambda the forward pivots D+ of T - lambda = L+ D+ L+^T and the
    backward pivots D- of U- D- U-^T meet at the twist index r that minimizes
    |gamma_r|, gamma_r = D+_r + D-_r - (a_r - lambda); the column solves
    (T - lambda) z = gamma_r e_r with z_r = 1, outward from r by the ratios
    z_i = -b_i / D+_i z_{i+1} (i < r) and z_i = -b_{i-1} / D-_i z_{i-1} (i > r)
    (Parlett & Dhillon, LAA 1997).  At an eigenvalue accurate to rounding the
    residual is at the backward-stable level.  All lambdas run at once: each
    pivot step is one vector operation over them, the twist is picked after
    both sweeps a block of rows at a time, and the outward solve is two
    masked cumulative products.  Pivots below eps ||T||_1 are replaced by
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
    for i in range(n - 1, -1, -1):
        piv = a[i] - lam if i == n - 1 else (a[i] - lam) - b2[i] / dminus[i + 1]
        dminus[i] = np.where(np.abs(piv) < floor, floor, piv)
    best = np.full(len(lam), np.inf, dtype=dtype)  # min |gamma_r| so far
    twist = np.zeros(len(lam), dtype=int)
    # blocks of a quarter chunk: at a whole chunk the block temporaries raised
    # the peak RSS of `gram --nmax 63 --smax 640` by 1.5 MB
    width = max(1, _DC_CHUNK // 4 // max(len(lam), 1))
    for r0 in range(0, n, width):  # ties go to the lowest r, within a block and across
        r = slice(r0, r0 + width)
        gamma = dplus[r] + dminus[r]
        gamma -= a[r, None] - lam
        np.abs(gamma, out=gamma)
        at = np.argmin(gamma, axis=0)
        low = np.take_along_axis(gamma, at[None], axis=0)[0]
        closer = low < best
        best = np.where(closer, low, best)
        twist = np.where(closer, r0 + at, twist)
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
    values are then the column norms.  Each column's squared norm is taken
    once and retaken only after that column rotates, so a pair that needs no
    rotation costs one dot product.  A wide m x k matrix (k > m) is rotated
    as its transpose, whose m columns carry every nonzero singular value, and
    the k - m others are returned as exact zeros.  Intended for matrices up
    to 64x64 (Gram matrices of the completeness witness); accuracy ~1e-10
    relative for well-conditioned inputs.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("matrix must be 2-D and nonempty")
    if max(a.shape) > 64:
        raise ValueError("svd_small is restricted to dimensions <= 64")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix must be finite")
    m, k = a.shape
    if k > m:
        return np.concatenate([svd_small(a.T), np.zeros(k - m)])
    # an exact power of two brings the largest entry near 1, so that the column
    # dot products neither overflow nor underflow at 1e200 or 1e-300 entries
    e = math.frexp(float(np.max(np.abs(a))))[1]
    u = np.ldexp(a, -e)
    n = u.shape[1]
    sq = [float(u[:, i] @ u[:, i]) for i in range(n)]  # retaken only where a column rotates
    for _ in range(60):
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                aii, ajj = sq[i], sq[j]
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
                sq[i], sq[j] = float(u[:, i] @ u[:, i]), float(u[:, j] @ u[:, j])
        if off <= 1e-15:
            break
    sv = _unscaled(np.sqrt(np.sum(u * u, axis=0)), e, "singular values")
    return np.sort(sv)[::-1]
