import math
import re
import time
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from pairspec import oracle
from pairspec.hamiltonians import bog_energy_ab, build_tridiagonal
from pairspec.hypergeom import gram_witness
from pairspec.oracle import svd_small, sym_tridiag_eig, symmetrize_tridiag
from test_dead_arithmetic import svd_reference


def dense_tridiag(diag, off):
    n = len(diag)
    m = np.diag(np.asarray(diag, dtype=float))
    idx = np.arange(n - 1)
    m[idx, idx + 1] = off
    m[idx + 1, idx] = off
    return m


class TestSymTridiagEig:
    def test_two_by_two_closed_form(self):
        y = 0.3
        vals = sym_tridiag_eig([0.0, 1.0], [y])
        root = math.sqrt(1 + 4 * y * y)
        np.testing.assert_allclose(vals, [(1 - root) / 2, (1 + root) / 2], rtol=1e-14)
        assert vals[0] == pytest.approx(-0.0830952, abs=1e-7)
        assert vals[1] == pytest.approx(1.0830952, abs=1e-7)

    def test_diagonal_matrix(self):
        vals = sym_tridiag_eig([3.0, -1.0, 2.0], [0.0, 0.0])
        np.testing.assert_allclose(vals, [-1.0, 2.0, 3.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sym_tridiag_eig([], [])

    @pytest.mark.parametrize("d, e", [([math.nan, 1.0], [0.5]), ([math.inf, 1.0], [0.5]),
                                      ([1.0, 1.0], [math.nan])])
    def test_non_finite_entries_refused(self, d, e):
        with pytest.raises(ValueError, match="must be finite"):
            sym_tridiag_eig(d, e)

    @pytest.mark.parametrize("d, e, shapes", [(1.0, [], "() and (0,)"),
                                              ([1.0, 2.0, 3.0], np.ones((2, 2)), "(3,) and (2, 2)")],
                             ids=["scalar-diag", "2d-offdiag"])
    def test_non_1d_refused(self, d, e, shapes):
        with pytest.raises(ValueError, match=re.escape(f"must be 1-D, got shapes {shapes}")):
            sym_tridiag_eig(d, e)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sym_tridiag_eig([1.0, 2.0], [0.1, 0.2])

    def test_against_numpy_reference(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            d = rng.standard_normal(n) * 3
            e = rng.standard_normal(n - 1)
            vals = sym_tridiag_eig(d, e)
            ref = np.linalg.eigvalsh(dense_tridiag(d, e))
            np.testing.assert_allclose(vals, ref, atol=1e-11 * max(1, np.abs(ref).max()))

    def test_eigenvector_residuals(self):
        rng = np.random.default_rng(29)
        n = 30
        d = rng.standard_normal(n) * 2
        e = rng.standard_normal(n - 1)
        m = dense_tridiag(d, e)
        vals, vecs = sym_tridiag_eig(d, e, vectors=True)
        scale = np.abs(m).sum(axis=1).max()
        for i in range(n):
            res = np.linalg.norm(m @ vecs[:, i] - vals[i] * vecs[:, i])
            assert res <= 1e-10 * scale
        # orthonormality of the accumulated rotations
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(n), atol=1e-12)

    @staticmethod
    def assert_eigenpairs(d, e, vals, vecs):
        # the gates the referee-verify benchmark holds every eigensolve to
        m = dense_tridiag(d, e)
        scale = np.abs(m).sum(axis=1).max()
        res = np.max(np.linalg.norm(m @ vecs - vecs * vals, axis=0))
        assert res <= 1e-10 * scale
        assert np.max(np.abs(vecs.T @ vecs - np.eye(len(vals)))) <= 1e-12

    @pytest.mark.parametrize("n, p, y", [(200, 0, 0.3), (300, 1, 0.27), (1000, 0, 0.34)])
    def test_ladder_block_vectors(self, n, p, y):
        block = build_tridiagonal(p, y, y, n - 1)
        t0 = time.process_time()  # CPU time: other processes on the host do not count
        vals, vecs = sym_tridiag_eig(block.diag, block.super_, vectors=True)
        elapsed = time.process_time() - t0
        self.assert_eigenpairs(block.diag, block.super_, vals, vecs)
        if n == 1000:
            assert elapsed < 1.0  # O(n^2) twisted vectors; Givens accumulation took ~11 s
        else:
            assert np.array_equal(vals, sym_tridiag_eig(block.diag, block.super_))

    def test_random_vectors(self):
        rng = np.random.default_rng(53)
        for trial in range(24):
            n = int(rng.integers(1, 201))
            d = rng.standard_normal(n) * 3
            e = rng.standard_normal(n - 1)
            if trial % 4 == 1:
                e[rng.random(n - 1) < 0.2] = 0.0  # split into independent blocks
            if trial % 4 == 2:
                e *= 1e-9  # nearly diagonal: localized vectors, close eigenvalues
            vals, vecs = sym_tridiag_eig(d, e, vectors=True)
            self.assert_eigenpairs(d, e, vals, vecs)
            assert np.array_equal(vals, sym_tridiag_eig(d, e))

    def test_degenerate_pairs_fall_back_to_rotations(self):
        # Wilkinson-type: the top eigenvalue pairs agree to rounding, which
        # one twist per eigenvalue cannot separate
        n = 301
        d = np.abs(np.arange(n) - 150.0)
        e = np.ones(n - 1)
        vals, vecs = sym_tridiag_eig(d, e, vectors=True)
        assert np.min(np.diff(vals)) < 1e-8 * (np.max(d) + 2)
        self.assert_eigenpairs(d, e, vals, vecs)
        assert np.array_equal(vals, sym_tridiag_eig(d, e))

    @pytest.mark.parametrize("d, e", [
        ([1.0, 1.0, 1.0], [0.0, 0.0]),  # a triple eigenvalue
        ([2.0, 1.0, 2.0, 1.0], [0.5, 0.0, 0.5]),  # two equal 2x2 blocks: two double ones
        ([0.0, 0.0, 0.0], [0.0, 0.0]),  # the zero matrix: no scale to measure gaps by
    ])
    def test_exactly_degenerate_split_matrix(self, d, e):
        vals, vecs = sym_tridiag_eig(d, e, vectors=True)
        assert np.min(np.diff(vals)) == 0.0
        self.assert_eigenpairs(d, e, vals, vecs)
        assert np.array_equal(vals, sym_tridiag_eig(d, e))

    @pytest.mark.parametrize("size", [1e300, 1e-300])
    def test_vectors_at_the_ends_of_double_range(self, size):
        # without a power-of-two scaling first, b^2 in the twisted factorization
        # overflows to NaN vectors at 1e300, and QL stalls in subnormals at 1e-300
        rng = np.random.default_rng(29)
        d = size * 2.0 * rng.standard_normal(30)
        e = size * rng.standard_normal(29)
        vals, vecs = sym_tridiag_eig(d, e, vectors=True)
        assert np.array_equal(vals, sym_tridiag_eig(d, e))
        # the gates are relative to ||T||_1: hold them on the block scaled by an
        # exact power of two, where the residual's norm stays in range
        k = 2.0 ** -math.frexp(np.abs(dense_tridiag(d, e)).sum(axis=1).max())[1]
        self.assert_eigenpairs(d * k, e * k, vals * k, vecs)

    def test_one_norm_beyond_double_range(self):
        # |1e308| + |1e308| overflows: the scaling takes its exponent without that sum
        vals, vecs = sym_tridiag_eig([1e308, -1e308], [1e308], vectors=True)
        np.testing.assert_allclose(vals, [-math.sqrt(2.0) * 1e308, math.sqrt(2.0) * 1e308], rtol=1e-15)
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(2), atol=1e-15)

    def test_glued_copies_take_vectors_per_block(self, monkeypatch):
        # five copies of a ladder block cut by zero couplings: every value is
        # five-fold, which the twist cannot separate in one matrix, but each
        # copy alone is an unreduced block with distinct values
        block = build_tridiagonal(0, 0.3, 0.3, 199)
        d, e = _glued(block.diag, block.super_, 5, 0.0)
        rotated = []
        ql = oracle._ql_values
        monkeypatch.setattr(oracle, "_ql_values", lambda d, e, z=None: (
            rotated.append(z is not None) or ql(d, e, z)))
        vals, vecs = sym_tridiag_eig(d, e, vectors=True)
        assert not any(rotated)
        self.assert_eigenpairs(d, e, vals, vecs)
        assert np.array_equal(vals, sym_tridiag_eig(d, e))

    def test_cut_beyond_double_range(self):
        # |a_i| + |a_{i+1}| = 1.8e308 overflows: the cut is taken on a quarter of
        # each entry, so the couplings of 1e300 are kept, not all neglected
        d, e = np.full(200, 0.9e308), np.full(199, 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = sym_tridiag_eig(d, e)
        assert np.array_equal(vals, 4.0 * sym_tridiag_eig(d / 4, e / 4))
        assert np.ptp(vals) == pytest.approx(4e300, rel=1e-3)

    @pytest.mark.parametrize("vectors", [False, True])
    def test_eigenvalues_beyond_double_range_refused(self, vectors):
        # the top eigenvalue (1 + sqrt 2) 1e308 has no double
        with pytest.raises(ValueError, match="^eigenvalues of this matrix lie beyond double range$"):
            sym_tridiag_eig([1e308] * 3, [1e308] * 2, vectors=vectors)

    def test_single_entry_and_diagonal_vectors(self):
        vals, vecs = sym_tridiag_eig([2.5], [], vectors=True)
        assert vals.tolist() == [2.5] and vecs.tolist() == [[1.0]]
        vals, vecs = sym_tridiag_eig([3.0, -1.0, 2.0], [0.0, 0.0], vectors=True)
        np.testing.assert_array_equal(np.abs(vecs), np.eye(3)[:, [1, 2, 0]])

    def test_twist_ties_go_to_the_lowest_row(self, monkeypatch):
        # a persymmetric block mirrors its pivots bit for bit, so
        # |gamma_r| = |gamma_{n-1-r}| and, at even n, every minimum is a tie;
        # blocks of one row put the tied rows in different blocks
        rng = np.random.default_rng(5)
        half, couplings = rng.standard_normal(6), rng.standard_normal(6)
        d, e = np.concatenate((half, half[::-1])), np.concatenate((couplings, couplings[-2::-1]))
        vals = sym_tridiag_eig(d, e)
        one_block = oracle._twisted_vectors(d, e, vals)
        monkeypatch.setattr(oracle, "_DC_CHUNK", 4)
        z = oracle._twisted_vectors(d, e, vals)
        twists = [np.flatnonzero(col == 1.0)[0] for col in z.T]  # z_r = 1 exactly at the twist
        assert max(twists) < len(d) // 2
        np.testing.assert_array_equal(z, one_block)

    def test_large_block_fast(self):
        block = build_tridiagonal(0, 0.3, 0.3, 300)
        vals = sym_tridiag_eig(block.diag, block.super_)
        assert len(vals) == 301
        assert np.all(np.diff(vals) > 0)


try:  # not a public name of mpmath, so it may move; eigsy below is the fallback
    from mpmath.matrices.eigen_symmetric import tridiag_eigen
except ImportError:
    tridiag_eigen = None


def _mp_eigvals(d, e):
    """The 40-digit referee: the implicit QL (EISPACK's imtql2) that mpmath.eigsy
    runs after its Householder step, here on the tridiagonal entries themselves,
    O(n^2) 40-digit operations; without it, mpmath.eigsy on the dense matrix, O(n^3)."""
    n = len(d)
    with mpmath.workdps(40):
        if tridiag_eigen is None:
            m = mpmath.zeros(n)
            for i in range(n):
                m[i, i] = d[i]
            for i in range(n - 1):
                m[i, i + 1] = m[i + 1, i] = e[i]
            return np.sort([float(v) for v in mpmath.eigsy(m, eigvals_only=True)])
        vals = [mpmath.mpf(float(x)) for x in d]
        tridiag_eigen(mpmath.mp, vals, [mpmath.mpf(float(x)) for x in e] + [mpmath.mpf(0)])
        return np.sort([float(v) for v in vals])


def _strict_eigvals(d, e):
    """sym_tridiag_eig's values with every floating-point warning an error."""
    with warnings.catch_warnings(), np.errstate(divide="raise", over="raise", invalid="raise"):
        warnings.simplefilter("error")
        return sym_tridiag_eig(d, e)


def _glued(block_d, block_e, copies, coupling):
    """``copies`` equal blocks joined by ``coupling``: clusters of near-equal values."""
    d = np.tile(block_d, copies)
    e = np.concatenate([np.append(block_e, coupling)] * copies)[:-1]
    return d, e


def _dc_blocks():
    rng = np.random.default_rng(61)
    blocks = {f"random-{n}": (rng.standard_normal(n) * 3, rng.standard_normal(n - 1)) for n in (13, 24, 40)}
    blocks["constant-diagonal"] = (np.full(20, 0.5), np.zeros(19))  # one value, 20 times
    blocks["glued-tiny"] = _glued(rng.standard_normal(3), rng.standard_normal(2), 10, 1e-12)
    blocks["glued-zero"] = _glued(rng.standard_normal(5), rng.standard_normal(4), 6, 0.0)
    d, e = rng.standard_normal(34), rng.standard_normal(33)
    e[[16, 8, 24, 3]] = 0.0  # independent blocks, split off before any merge
    blocks["interior-zeros"] = (d, e)
    blocks["zero-middle"] = (np.concatenate([d[:10], np.zeros(14), d[24:]]), np.concatenate([e[:9], np.zeros(15), e[24:]]))
    blocks["scaled-1e300"] = tuple(1e300 * x for x in blocks["random-24"])
    d, e = rng.standard_normal(16), rng.standard_normal(15)
    d[7:9], e[7] = 0.0, 1e-30  # a coupling too weak to move any value: the top merge deflates all
    blocks["weak-top-coupling"] = (d, e)
    blocks["wilkinson-21"] = (np.abs(np.arange(21) - 10.0), np.ones(20))
    blocks["graded"] = (10.0 ** -np.arange(24.0), 10.0 ** -(np.arange(23.0) + 0.5))
    # steeper grading: secular steps that overflow or divide by zero, taken by bisection
    blocks["graded-steep-24"] = (10.0 ** (-7 * np.arange(24.0)), 10.0 ** -(7 * np.arange(23.0) + 3.5))
    blocks["graded-steep-40"] = (10.0 ** (-5 * np.arange(40.0)), 10.0 ** -(5 * np.arange(39.0) + 2.5))
    return blocks


_DC_BLOCKS = _dc_blocks()


class TestDivideAndConquer:
    """The divide and conquer above the crossover, cut to 4-8 rows so that small blocks take it."""

    @pytest.mark.parametrize("name", sorted(_DC_BLOCKS))
    def test_against_mpmath(self, name, monkeypatch):
        d, e = _DC_BLOCKS[name]
        ref = _mp_eigvals(d, e)
        norm = oracle._norm_one(np.asarray(d), np.asarray(e))
        # a chunk of 16 elements puts one or two roots in play at a time
        for leaf, chunk in ((4, 1 << 15), (5, 16), (8, 1 << 15)):
            monkeypatch.setattr(oracle, "_DC_LEAF", leaf)
            monkeypatch.setattr(oracle, "_DC_CHUNK", chunk)
            vals = _strict_eigvals(d, e)
            assert np.all(np.diff(vals) >= 0)
            assert np.max(np.abs(vals - ref)) <= 1e-13 * norm, (leaf, chunk)

    def test_graded_at_the_crossover(self):
        # a block graded by 100 per row, past the default _DC_LEAF: some 400
        # secular steps overflow or divide by zero, and none may warn
        d, e = 10.0 ** (-2 * np.arange(200.0)), 10.0 ** -(2 * np.arange(199.0) + 1)
        vals = _strict_eigvals(d, e)
        assert np.max(np.abs(vals - _mp_eigvals(d, e))) <= 1e-13 * oracle._norm_one(d, e)

    @pytest.mark.parametrize("a, b, n", [(2.0, -1.0, 40), (2.0, -1.0, 100), (1.0, 1.0, 100)])
    def test_constant_blocks_closed_form(self, a, b, n, monkeypatch):
        # mirror-image halves have equal values: every merge rotates close poles
        with mpmath.workdps(40):
            ref = np.sort([float(a + 2 * b * mpmath.cos(k * mpmath.pi / (n + 1))) for k in range(1, n + 1)])
        for leaf in (4, 5, 8):
            monkeypatch.setattr(oracle, "_DC_LEAF", leaf)
            vals = sym_tridiag_eig(np.full(n, a), np.full(n - 1, b))
            assert np.max(np.abs(vals - ref)) <= 1e-13 * (abs(a) + 2 * abs(b)), leaf

    @pytest.mark.parametrize("steps", [1, 2, oracle._MAX_SECULAR_STEPS])
    def test_secular_roots_stay_in_their_intervals(self, steps, monkeypatch):
        # however short the iteration is cut, root j lies strictly in (d_j, d_{j+1})
        monkeypatch.setattr(oracle, "_MAX_SECULAR_STEPS", steps)
        rng = np.random.default_rng(67)
        d = np.cumsum(rng.uniform(1e-3, 1.0, 300))
        z = rng.standard_normal(300)
        z /= np.linalg.norm(z)
        rho, edges = np.array([2.5]), np.array([0, 300])  # one merge of the batched form
        org, tau = oracle._secular_roots(d, z, rho, edges)
        lam = d[org] + tau
        assert np.all(d < lam) and np.all(lam[:-1] < d[1:]) and lam[-1] <= d[-1] + rho[0]
        # the (roots x poles) terms built 16 elements at a time: the same roots
        monkeypatch.setattr(oracle, "_DC_CHUNK", 16)
        assert np.array_equal(oracle._secular_roots(d, z, rho, edges)[1], tau)
        monkeypatch.setattr(oracle, "_DC_LEAF", 4)
        assert np.all(np.isfinite(_strict_eigvals(*_DC_BLOCKS["random-40"])))

    @pytest.mark.parametrize("n", [97, 131])
    def test_uneven_batches_against_mpmath(self, n, monkeypatch):
        # halving 97 or 131 rows leaves merges of different sizes in most
        # batches of one tree height (48 and 49 rows, ..., 5 beside 8); a chunk
        # of 16 elements gathers the roots of several small merges at once
        monkeypatch.setattr(oracle, "_DC_LEAF", 4)
        assert sum(np.ptp(hi - lo) > 0 for lo, _, hi in oracle._merge_levels(n)) >= 4
        rng = np.random.default_rng(n)
        d, e = rng.standard_normal(n) * 3, rng.standard_normal(n - 1)
        ref = _mp_eigvals(d, e)
        for chunk in (16, 1 << 15):
            monkeypatch.setattr(oracle, "_DC_CHUNK", chunk)
            vals = _strict_eigvals(d, e)
            assert np.all(np.diff(vals) >= 0)
            assert np.max(np.abs(vals - ref)) <= 1e-13 * oracle._norm_one(d, e), chunk

    def test_one_merge_deflates_beside_one_that_does_not(self, monkeypatch):
        # four glued 8-row copies: a coupling of 1e-15 at the copy edges moves no
        # value by more than rounding but is not negligible to QL's cut, so the
        # merges torn there (rows 16 and 8) deflate every pole; with a full
        # coupling at row 24 the merge beside the one at row 8 deflates none
        monkeypatch.setattr(oracle, "_DC_LEAF", 4)
        rng = np.random.default_rng(71)
        d, e = _glued(rng.standard_normal(8), rng.standard_normal(7), 4, 1e-15)
        e[23] = 0.7
        ref = _mp_eigvals(d, e)
        kept = []
        roots = oracle._secular_roots
        monkeypatch.setattr(oracle, "_secular_roots", lambda d, z, rho, edges: (
            kept.append(np.diff(edges)) or roots(d, z, rho, edges)))
        for chunk in (16, 1 << 15):
            monkeypatch.setattr(oracle, "_DC_CHUNK", chunk)
            vals = _strict_eigvals(d, e)
            assert np.max(np.abs(vals - ref)) <= 1e-13 * oracle._norm_one(d, e), chunk
        # the two merges of 16 rows: the left keeps no pole, the right all 16
        assert sum(list(sizes) == [0, 16] for sizes in kept) == 2
        assert sum(list(sizes) == [0] for sizes in kept) == 2  # the top merge, torn at row 16

    def test_vectors_read_the_same_values(self, monkeypatch):
        monkeypatch.setattr(oracle, "_DC_LEAF", 6)
        for d, e in (_DC_BLOCKS["random-40"], _DC_BLOCKS["wilkinson-21"], (np.full(40, 2.0), np.full(39, -1.0))):
            vals, vecs = sym_tridiag_eig(d, e, vectors=True)
            assert np.array_equal(vals, sym_tridiag_eig(d, e))
            TestSymTridiagEig.assert_eigenpairs(d, e, vals, vecs)

    def test_no_numpy_2_only_calls(self, monkeypatch):
        # pyproject asks for numpy >= 1.24: the merges may not lean on numpy 2's
        # row-dot functions
        for name in ("vecdot", "vecmat", "matvec"):
            monkeypatch.delattr(np, name, raising=False)
            monkeypatch.delattr(np.linalg, name, raising=False)
        monkeypatch.setattr(oracle, "_DC_LEAF", 4)
        d, e = _DC_BLOCKS["random-40"]
        vals, vecs = sym_tridiag_eig(d, e, vectors=True)
        TestSymTridiagEig.assert_eigenpairs(d, e, vals, vecs)

    @pytest.mark.parametrize("n", [2, 81, 96, oracle._DC_LEAF])
    def test_plain_ql_up_to_leaf(self, n):
        # every block verify builds has at most 81 rows: their values, and the
        # verify bytes, are those of QL alone
        assert oracle._DC_LEAF >= 82
        rng = np.random.default_rng(n)
        block = build_tridiagonal(1, 0.3, 0.3, n - 1)
        for d, e in ((block.diag, block.super_), (rng.standard_normal(n), rng.standard_normal(n - 1))):
            ql = np.sort(oracle._ql_values(d.tolist(), e.tolist() + [0.0]), kind="stable")
            assert np.array_equal(sym_tridiag_eig(d, e), ql)

    def test_ladder_2000_within_budget(self):
        block = build_tridiagonal(0, 0.3, 0.3, 1999)
        t0 = time.process_time()  # CPU time: other processes on the host do not count
        vals = sym_tridiag_eig(block.diag, block.super_)
        elapsed = time.process_time() - t0
        dev = max(abs(vals[n] - bog_energy_ab(0.3, 0, n)) for n in range(8))
        assert dev <= 1e-8
        assert elapsed < 1.5  # QL alone took 2.2-2.6 s on a shared 2-vCPU VM


def _random_block(seed, m):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(m) * 3, rng.standard_normal(m - 1)


def _ladder_block(p, y, m):
    block = build_tridiagonal(p, y, y, m - 1)
    return block.diag, block.super_


_SPLIT_BLOCKS = hs.one_of(
    hs.builds(_ladder_block, hs.integers(0, 3), hs.sampled_from([0.1, 0.3, 0.45]),
              hs.sampled_from([2, 7, 40, 170])),
    hs.builds(_random_block, hs.integers(0, 2**16), hs.integers(1, 40)),
    # Wilkinson's W21+: its top values pair up to rounding inside one block
    hs.just((np.abs(np.arange(21) - 10.0), np.ones(20))),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(hs.lists(_SPLIT_BLOCKS, min_size=1, max_size=5), hs.sampled_from([0.0, 2.0**-55]),
       hs.sampled_from([1.0, 1e300, 1e-300]))
def test_split_matrix_eigenpairs(blocks, glue, scale):
    # blocks joined by zero couplings or by ones just below QL's cut, 2^-55 of
    # the diagonal sum beside them, at either end of double range
    d = scale * np.concatenate([bd for bd, _ in blocks])
    e = [scale * be for _, be in blocks]
    ends = np.cumsum([len(bd) for bd, _ in blocks])[:-1]
    e = np.concatenate([np.append(be, glue * (abs(d[i - 1]) + abs(d[i]))) for be, i in zip(e, ends)] + e[-1:])
    rotated, ql = [], oracle._ql_values

    def spy(d, e, z=None):
        if z is not None:
            rotated.append(len(d))
        return ql(d, e, z)

    with warnings.catch_warnings(), mock.patch.object(oracle, "_ql_values", spy):
        warnings.simplefilter("error")
        vals, vecs = sym_tridiag_eig(d, e, vectors=True)
        assert np.array_equal(vals, sym_tridiag_eig(d, e))
    assert np.all(np.diff(vals) >= 0)
    # rotations are accumulated only inside one unreduced block, never over a glued matrix
    assert set(rotated) <= {len(bd) for bd, _ in blocks}
    # the gates hold relative to ||T||_1, on the matrix scaled by a power of two
    k = 2.0 ** -math.frexp(oracle._norm_one(d, e))[1]
    TestSymTridiagEig.assert_eigenpairs(d * k, e * k, vals * k, vecs)


class TestSymmetrize:
    def test_equal_couplings_identity_scaling(self):
        m = build_tridiagonal(0, 0.3, 0.3, 5)
        diag, off, info = symmetrize_tridiag(m)
        np.testing.assert_allclose(diag, m.diag)
        np.testing.assert_allclose(off, m.super_)
        assert info["scale_log_max"] - info["scale_log_min"] == 0.0

    def test_lopsided_couplings_report_finite_logs(self):
        # the scale ratio (0.3/1e-3)^1000 is beyond double range; its log is not
        _, _, info = symmetrize_tridiag(build_tridiagonal(0, 0.3, 1e-3, 2000))
        assert info["scale_log_max"] - info["scale_log_min"] == pytest.approx(1000 * math.log(300.0))

    def test_reference_entries(self):
        m = build_tridiagonal(0, 0.375, 0.1, 2)
        _, off, _ = symmetrize_tridiag(m)
        np.testing.assert_allclose(off, [0.19364916731037085, 0.3872983346207417], rtol=1e-12)

    def test_bidiagonal_rejected(self):
        with pytest.raises(ValueError):
            symmetrize_tridiag(build_tridiagonal(0, 0.3, 0.0, 4))

    def test_eigenvalues_preserved(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            p = int(rng.integers(0, 4))
            y1, y2 = rng.uniform(0.05, 0.7, 2)
            m = build_tridiagonal(p, y1, y2, 19)
            diag, off, _ = symmetrize_tridiag(m)
            sym_vals = sym_tridiag_eig(diag, off)
            ref = np.sort(np.linalg.eigvals(m.dense()).real)
            np.testing.assert_allclose(sym_vals, ref, atol=1e-10 * max(1, np.abs(ref).max()))

    def test_trace_powers_preserved(self):
        m = build_tridiagonal(1, 0.4, 0.15, 12)
        diag, off, _ = symmetrize_tridiag(m)
        a = m.dense()
        b = dense_tridiag(diag, off)
        pa, pb = np.eye(a.shape[0]), np.eye(a.shape[0])
        for _ in range(4):
            pa = pa @ a
            pb = pb @ b
            assert np.trace(pa) == pytest.approx(np.trace(pb), rel=1e-9)


class TestSvdSmall:
    def test_identity(self):
        np.testing.assert_allclose(svd_small(np.eye(3)), [1, 1, 1])

    def test_rank_one(self):
        u = np.array([[1.0], [0.0], [0.0]])
        v = np.array([[0.6, 0.8]])
        sv = svd_small(u @ v)
        np.testing.assert_allclose(sv, [1.0, 0.0], atol=1e-14)

    def test_jordan_block(self):
        phi = (1 + math.sqrt(5.0)) / 2
        sv = svd_small(np.array([[1.0, 1.0], [0.0, 1.0]]))
        np.testing.assert_allclose(sv, [phi, 1 / phi], rtol=1e-12)
        assert sv[0] == pytest.approx(1.6180340, abs=1e-7)
        assert sv[1] == pytest.approx(0.6180340, abs=1e-7)

    def test_against_numpy_reference(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            m = rng.standard_normal((int(rng.integers(2, 12)), int(rng.integers(2, 12))))
            sv = svd_small(m)
            ref = np.linalg.svd(m, compute_uv=False)
            k = min(m.shape)
            np.testing.assert_allclose(sv[:k], ref, atol=1e-10 * max(1, ref.max()))

    @pytest.mark.parametrize("size", [1e200, 1e-300])
    def test_entries_at_the_ends_of_double_range(self, size):
        # unscaled, the column dot products overflow to NaN or underflow to 0
        sv = svd_small(size * np.array([[1.0, 1.0], [1.0, -1.0]]))
        np.testing.assert_allclose(sv, [math.sqrt(2.0) * size] * 2, rtol=1e-15)

    def test_gram_63_within_budget(self):
        # gram --nmax 63 --smax 640: a 64 x 64 Gram, the identity to rounding, 2
        # sweeps of 2016 pairs with 9 rotations.  Three dot products per pair
        # (svd_reference) took 15-16 ms CPU on a shared 2-vCPU VM, one 6.2-6.6 ms.
        # That host's speed drifts by up to 2x for seconds at a time, so the
        # budget is a share of the reference's time, each the best of 5, interleaved
        with mock.patch.object(oracle, "svd_small", lambda m: m):
            gram = gram_witness(0, 0.45, 63, 640)
        assert np.all(np.abs(svd_small(gram) - 1.0) <= 1e-8)
        routes = {"kernel": svd_small, "reference": svd_reference}
        best = dict.fromkeys(routes, math.inf)
        for _ in range(5):
            for name, route in routes.items():
                t0 = time.thread_time()  # this thread: BLAS workers and other processes do not count
                route(gram)
                best[name] = min(best[name], time.thread_time() - t0)
        assert best["kernel"] < 0.7 * best["reference"]  # 0.40-0.41 here, 1.00 for the old route

    def test_wide_matrix_is_its_transpose_within_budget(self):
        # rotating all 64 columns of a 20 x 64 matrix took 0.3-0.6 s CPU, its
        # 64 x 20 transpose 18 ms; the budget is a share of the transpose's
        # time, each the best of 5, interleaved
        a = np.random.default_rng(20).standard_normal((20, 64))
        sv = svd_small(a)
        assert sv.tobytes() == np.concatenate([svd_small(a.T), np.zeros(44)]).tobytes()
        np.testing.assert_allclose(sv[:20], np.linalg.svd(a, compute_uv=False), rtol=1e-13)
        routes = {"wide": a, "transpose": a.T}
        best = dict.fromkeys(routes, math.inf)
        for _ in range(5):
            for name, matrix in routes.items():
                t0 = time.thread_time()
                svd_small(matrix)
                best[name] = min(best[name], time.thread_time() - t0)
        assert best["wide"] < 2.0 * best["transpose"]

    def test_singular_values_beyond_double_range_refused(self):
        with pytest.raises(ValueError, match="^singular values of this matrix lie beyond double range$"):
            svd_small(np.full((2, 2), 1e308))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            svd_small(np.zeros((0, 0)))

    def test_large_rejected(self):
        with pytest.raises(ValueError):
            svd_small(np.zeros((65, 65)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entries_refused(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            svd_small(np.array([[bad, 0.0], [0.0, 1.0]]))


def _graded(c, n, reverse):
    """a_i = 10^(-c i), b_i = 10^(-c (i + 1/2)), i from 0, in that order or reversed."""
    i = np.arange(n)
    a, b = 10.0 ** (-c * i), 10.0 ** (-c * (i[:-1] + 0.5))
    return (a[::-1].copy(), b[::-1].copy()) if reverse else (a, b)


# QL's local test held a coupling of each of these blocks above it for 50
# sweeps, in at least one direction, before the normwise cut (c, n, reversed)
GRADED = [(c, n, reverse) for c, n in [(5, 40), (3, 60), (1, 100), (1.5, 160)] for reverse in (False, True)]


def test_graded_blocks_converge_within_the_normwise_bound():
    t0 = time.process_time()  # CPU time: other processes on the host do not count
    values = [sym_tridiag_eig(*_graded(*case)) for case in GRADED]
    elapsed = time.process_time() - t0
    assert elapsed < 3.0  # 0.3 s on a 2-vCPU x86-64 VM, most of it c = 1.5 at n = 160
    for (c, n, reverse), vals in zip(GRADED, values):
        a, b = _graded(c, n, reverse)
        # 40 digits at n <= 60; above it LAPACK's dense eigensolver, itself normwise accurate
        ref = _mp_eigvals(a, b) if n <= 60 else np.linalg.eigvalsh(dense_tridiag(a, b))
        assert np.max(np.abs(vals - ref)) <= n * oracle._EPS * oracle._norm_one(a, b), (c, n, reverse)


def test_ql_without_a_normwise_cut_is_refused(monkeypatch):
    # no coupling of [[1, 1], [1, 1]] is negligible, so a cut after no sweeps has nowhere to go
    monkeypatch.setattr(oracle, "_MAX_QL_SWEEPS", 0)
    message = "QL iteration failed to converge: no coupling is below eps ||T||_1"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sym_tridiag_eig([1.0, 1.0], [1.0])


def ql_two_loops(d, e, z=None):
    """oracle._ql_values as it was before its deflation test moved into the
    sweep: a scan from low for the first negligible coupling before every sweep."""
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
            if sweeps > oracle._MAX_QL_SWEEPS:
                oracle._normwise_cut(d, e, low, m)
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


def _ql_blocks():
    """(id, diag, off): ladder blocks up to verify's 81 rows and beyond, random
    ones, Wilkinson's W21+, the graded blocks that take the normwise cut, split
    blocks and underflowing couplings; sym_tridiag_eig refuses non-finite ones."""
    rng = np.random.default_rng(34)
    blocks = [(f"ladder-{p}-{y}-{n}", *_ladder_block(p, y, n))
              for p, y, n in [(0, 0.3, 81), (1, 0.45, 61), (2, 0.1, 20), (0, 0.3, 160), (0, 0.49, 81)]]
    blocks += [(f"random-{n}", rng.standard_normal(n) * 3, rng.standard_normal(n - 1)) for n in (1, 2, 3, 9, 40, 81)]
    blocks.append(("wilkinson-21", np.abs(np.arange(21) - 10.0), np.ones(20)))
    blocks += [(f"graded-{c}-{n}-{reverse}", *_graded(c, n, reverse)) for c, n, reverse in GRADED[:4]]
    blocks.append(("split", np.arange(8.0), np.array([1.0, 0.0, 2.0, 1e-300, 0.5, 0.0, 3.0])))
    blocks.append(("underflow", np.zeros(6), np.array([1e-300, 0.0, 1e-320, 1.0, 5e-324])))
    return blocks


def _ql_outcome(ql, d, e, z=None):
    """The bytes of QL's values and of z after it."""
    return ql(d.tolist(), e.tolist() + [0.0], z).tobytes(), None if z is None else z.tobytes()


@pytest.mark.parametrize("vectors", [False, True], ids=["values", "vectors"])
@pytest.mark.parametrize("d, e", [b[1:] for b in _ql_blocks()], ids=[b[0] for b in _ql_blocks()])
def test_ql_sweep_keeps_the_bits_of_the_two_loop_form(d, e, vectors):
    # the in-sweep deflation test makes the same comparisons on the same values
    # as the scan it replaces: the same values and rotations, bit for bit
    got, want = (_ql_outcome(ql, d, e, np.eye(len(d)) if vectors else None) for ql in (oracle._ql_values, ql_two_loops))
    assert got == want


@pytest.mark.parametrize("d, e", [b[1:] for b in _ql_blocks()], ids=[b[0] for b in _ql_blocks()])
def test_ql_values_do_not_depend_on_the_rotations_kept(d, e):
    plain, rotated = _ql_outcome(oracle._ql_values, d, e), _ql_outcome(oracle._ql_values, d, e, np.eye(len(d)))
    assert plain[0] == rotated[0]
