"""Referee kernels that skip arithmetic whose result is known or never read.

``oracle.svd_small`` takes each column's squared norm once and retakes it only
after that column rotates, where it took three dot products per pair; the
divide and conquer's root merge (``oracle._divide_and_conquer``) stops after
the secular solve, since nothing reads the first and last rows it formed.
Each must keep the bits of the route it replaced, written out here as it was
before.  Every test runs with ``pair_transform._EXT`` as the host's long
double and as float64: the Gram matrices come from the ``_EXT`` columns of
the transported states, and the referee itself runs in double in both.
"""

import math

import numpy as np
import pytest

from pairspec import hypergeom, oracle, pair_transform
from pairspec.hamiltonians import build_tridiagonal


@pytest.fixture(params=[np.longdouble, np.float64], ids=["longdouble", "float64"], autouse=True)
def ext(request, monkeypatch):
    monkeypatch.setattr(pair_transform, "_EXT", request.param)
    return request.param


def svd_reference(matrix):
    """svd_small with all three dot products of every pair taken afresh."""
    a = np.array(matrix, dtype=float)
    e = math.frexp(float(np.max(np.abs(a))))[1]
    u = np.ldexp(a, -e)
    n = u.shape[1]
    for _ in range(60):
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                aii = float(u[:, i] @ u[:, i])
                ajj = float(u[:, j] @ u[:, j])
                aij = float(u[:, i] @ u[:, j])
                den = math.sqrt(aii) * math.sqrt(ajj)
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
    sv = np.ldexp(np.sqrt(np.sum(u * u, axis=0)), e)
    return np.sort(sv)[::-1]


def gram(monkeypatch, nmax, smax):
    """The Gram matrix that gram_witness hands to svd_small."""
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "svd_small", lambda m: m)
        return hypergeom.gram_witness(0, 0.45, nmax, smax)


@pytest.mark.parametrize("nmax, smax", [(16, 400), (63, 640)])
def test_svd_small_of_the_gram_keeps_its_bits(monkeypatch, nmax, smax):
    g = gram(monkeypatch, nmax, smax)
    assert g.shape == (nmax + 1, nmax + 1)
    assert oracle.svd_small(g).tobytes() == svd_reference(g).tobytes()


def svd_shapes():
    """Random m x k matrices with m, k <= 64: single rows and columns, a zero
    column (the den == 0 path), and entries near 1e300 and 1e-300.  Wide
    matrices and square ones above 16 columns take up to 60 sweeps of
    k^2 / 2 pairs, so one 64 x 64 matrix stands for them, unscaled."""
    rng = np.random.default_rng(30)
    shapes = [(1, 1), (1, 17), (1, 64), (17, 1), (64, 1), (40, 5), (64, 16), (12, 12)]
    shapes += [(m, int(rng.integers(1, min(m, 16) + 1))) for m in rng.integers(1, 65, 4).tolist()]
    cases = [rng.standard_normal((64, 64))]
    for m, k in shapes:
        a = rng.standard_normal((m, k))
        cases += [a, a * 1e300, a * 1e-300]
        if k > 1:
            z = a.copy()
            z[:, int(rng.integers(k))] = 0.0
            cases.append(z)
    return cases


def test_svd_small_keeps_its_bits_on_random_shapes():
    cases = svd_shapes()
    assert any(not c[:, j].any() for c in cases for j in range(c.shape[1]))
    for a in cases:
        m, k = a.shape
        # a wide matrix is rotated as its transpose, and its k - m other values are exact zeros
        want = svd_reference(a) if k <= m else np.concatenate([svd_reference(a.T), np.zeros(k - m)])
        assert oracle.svd_small(a).tobytes() == want.tobytes(), a.shape


def dc_reference(a, b):
    """_divide_and_conquer with the rows formed at every merge, the root's too."""
    values = a.copy()
    values[:-1] -= b
    values[1:] -= b
    first, last = np.ones(len(a)), np.ones(len(a))
    for lo, mid, hi in oracle._merge_levels(len(a)):
        sizes = hi - lo
        edges = np.append(0, np.cumsum(sizes))
        seg = np.repeat(np.arange(len(lo)), sizes)
        pos = np.arange(edges[-1]) + (lo - edges[:-1])[seg]
        upper = pos >= mid[seg]
        z = np.where(upper, first[pos], last[pos]) / math.sqrt(2.0)
        rows = np.stack([np.where(upper, 0.0, first[pos]), np.where(upper, last[pos], 0.0)])
        values[pos], (first[pos], last[pos]) = oracle._merge(values[pos], z, 2.0 * b[mid - 1], rows, edges)
    return values


def dc_blocks():
    """Unit-scaled blocks of 161-1000 rows, as _unreduced_eig hands them over."""
    rng = np.random.default_rng(31)
    blocks = {}
    for n, p in ((161, 0), (300, 1), (1000, 0)):
        ladder = build_tridiagonal(p, 0.3, 0.3, n - 1)
        blocks[f"ladder-{n}"] = (ladder.diag, ladder.super_)
    for n in (200, 517):
        blocks[f"random-{n}"] = (rng.standard_normal(n) * 3, rng.standard_normal(n - 1))
    n = 400
    blocks["graded-400"] = (10.0 ** -(np.arange(n) / 20), 10.0 ** -((np.arange(n - 1) + 0.5) / 20))
    d, e = rng.standard_normal(200), rng.standard_normal(199)
    blocks["glued-5x200"] = (np.tile(d, 5), np.concatenate([np.append(e, 1e-9)] * 5)[:-1])
    return {name: oracle._unit_scaled(d, e)[1:] for name, (d, e) in blocks.items()}


_DC = dc_blocks()


@pytest.mark.parametrize("name", sorted(_DC))
def test_divide_and_conquer_values_keep_their_bits(name):
    a, b = _DC[name]
    assert len(a) > oracle._DC_LEAF
    b = np.abs(b)
    assert oracle._divide_and_conquer(a, b).tobytes() == dc_reference(a, b).tobytes()
