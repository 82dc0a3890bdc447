"""Every batched kernel against a loop of its scalar face: the same bits.

Each public scalar function (``apply_exp_pair``, ``mobius``, ``hyp_f``,
``contiguous_residual``, ``wu_eigenstate``) is the batch-1 face of one array
form with a leading batch axis, which ``verify`` calls once per check.  The
comparisons use ``np.array_equal``, not a tolerance: a batch that moved one
bit of one row would move ``verify``'s deviations.
"""

import math
import re

import numpy as np
import pytest

from pairspec import fock_ladder, genfunc, hypergeom, pair_transform, wu_sector
from pairspec.fock_ladder import LadderState
from pairspec.lattice import ModelParams, mode_params

README_MODEL = ModelParams(a=0.0198944, rho=1.0, L=6.2831853)


def _rows(seed: int, rows: int, n: int, leads: str) -> np.ndarray:
    """Random complex coefficient rows; ``leads`` adds exact zeros, whole zero
    rows, and subnormal magnitudes (whose phases take the 2^64 scaling)."""
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    if leads == "zero-and-subnormal":
        C[rng.random((rows, n)) < 0.4] = 0.0
        C[0] = 0.0
        tiny = rng.random((rows, n)) < 0.15
        C[tiny] = 5e-324 * rng.integers(1, 10**6, tiny.sum()) * np.exp(1j * rng.uniform(0, 6, tiny.sum()))
    return C


# (id, seed, rows, n, leads, p values, t range)
STATE_BATCHES = [
    ("different-p", 1, 30, 40, "dense", (0, 6), (-0.9, 0.9)),
    ("zero-and-subnormal", 2, 25, 33, "zero-and-subnormal", (0, 4), (-0.5, 0.5)),
    ("one-row", 3, 1, 61, "dense", (2, 3), (-0.3, -0.1)),
]


def _state_batch(seed, rows, n, leads, p_range, t_range):
    rng = np.random.default_rng(seed + 100)
    C = _rows(seed, rows, n, leads)
    return C, rng.integers(*p_range, rows), rng.uniform(*t_range, rows)


@pytest.mark.parametrize("seed, rows, n, leads, p_range, t_range",
                         [case[1:] for case in STATE_BATCHES], ids=[case[0] for case in STATE_BATCHES])
class TestStateKernels:
    def test_exp_pair_rows_are_apply_exp_pair(self, seed, rows, n, leads, p_range, t_range):
        C, ps, ts = _state_batch(seed, rows, n, leads, p_range, t_range)
        if leads == "zero-and-subnormal":
            assert np.any((C != 0) & (np.abs(C) < np.finfo(float).tiny))
        loop = [pair_transform.apply_exp_pair(LadderState(int(p), c), float(t)).coeffs
                for c, p, t in zip(C, ps, ts)]
        assert np.array_equal(pair_transform._exp_pair(C, ps, ts), loop)

    def test_mobius_rows_are_mobius(self, seed, rows, n, leads, p_range, t_range):
        C, ps, ts = _state_batch(seed, rows, n, leads, p_range, t_range)
        alphas = np.abs(ts)
        loop = [genfunc.mobius(genfunc.GenFn(int(p), c), float(a)).C for c, p, a in zip(C, ps, alphas)]
        assert np.array_equal(genfunc._mobius(C, alphas), loop)

    def test_log_rescale_rows(self, seed, rows, n, leads, p_range, t_range):
        _, ps, _ = _state_batch(seed, rows, n, leads, p_range, t_range)
        loop = [pair_transform._log_rescale(int(p), n) for p in ps]
        assert np.array_equal(pair_transform._log_rescale(ps, n), loop)


@pytest.mark.parametrize("rows", [3, 11])  # 11 rows: as many as the second column's ratios
def test_shared_p_and_t(rows):
    C = _rows(7, rows, 13, "zero-and-subnormal")
    loop = [pair_transform.apply_exp_pair(LadderState(2, c), -0.4).coeffs for c in C]
    assert np.array_equal(pair_transform._exp_pair(C, 2, -0.4), loop)
    loop = [genfunc.mobius(genfunc.GenFn(2, c), 0.4).C for c in C]
    assert np.array_equal(genfunc._mobius(C, 0.4), loop)


# the hyp_f rows of checks._contiguous, then ones with non-integer b and c
_ZS = (0.3, 0.7, 1.5, -0.4, 0.2 + 0.5j)
_GRID = [(a, b, p + 1, z) for m in range(7) for n in range(7) for p in range(7) for z in _ZS
         for a, b in ((-m + 1, -n), (-m, -n), (-m, -n - 1), (-m, -n + 1))]


def _hyp_rows():
    rng = np.random.default_rng(5)
    extra = [(-int(rng.integers(0, 30)), float(rng.uniform(-20, 20)), float(rng.uniform(0.1, 9)),
              complex(rng.uniform(-2, 2), rng.uniform(-2, 2))) for _ in range(200)]
    return _GRID + extra + [(-1, -5, 2, -0.4), (-3, -1, -2, 0.5), (0, -2, 1, 7.0)]


def _python_hyp_f(a, b, c, z):
    """The terminating sum in CPython's float and complex arithmetic, which
    rounds every product of a complex multiply on its own (no fused
    multiply-add)."""
    top = min(int(-v) for v in (a, b) if v <= 0 and float(v).is_integer())
    total = term = 1.0 + 0.0j
    for m in range(top):
        term *= (a + m) * (b + m) / ((c + m) * (m + 1.0)) * z
        total += term
    return total


def test_hyp_f_has_the_bits_of_python_arithmetic():
    rows = _hyp_rows()
    assert np.array_equal([hypergeom.hyp_f(*row) for row in rows], [_python_hyp_f(*row) for row in rows])


def test_contiguous_residual_has_the_bits_of_python_arithmetic():
    for m, n, p, z in [(m, n, p, z) for m in range(7) for n in range(7) for p in range(7) for z in _ZS]:
        F = _python_hyp_f
        rhs = -(p + 1 + 2 * n) * F(-m, -n, p + 1, z) + (p + 1 + n) * F(-m, -n - 1, p + 1, z)
        if n > 0:
            rhs += n * F(-m, -n + 1, p + 1, z)
        assert hypergeom.contiguous_residual(m, n, p, z) == m * z * F(-m + 1, -n, p + 1, z) - rhs


def test_hyp_f_rows_are_hyp_f():
    rows = _hyp_rows()
    a, b, c, z = (np.array(col) for col in zip(*rows))
    assert z.dtype == complex  # real z rows ride in a complex batch
    assert np.array_equal(hypergeom._hyp_f(a, b, c, z), [hypergeom.hyp_f(*row) for row in rows])


@pytest.mark.parametrize("z", [0.3, -0.4, 1.5, 0.2 + 0.5j])
def test_hyp_f_real_and_complex_z_batches(z):
    rows = [row for row in _GRID if row[3] == z]
    a, b, c, _ = (np.array(col) for col in zip(*rows))
    assert np.array_equal(hypergeom._hyp_f(a, b, c, z), [hypergeom.hyp_f(*row) for row in rows])


def test_exact_zero_sum():
    # 1 + (-1)(-5)/(2 1) (-0.4) = 1 - 1 exactly, alone and inside a batch
    assert hypergeom.hyp_f(-1, -5, 2, -0.4) == 0.0
    batch = hypergeom._hyp_f(np.array([-3, -1, -2]), -5, 2, -0.4)
    assert batch[1] == 0.0
    assert np.array_equal(batch, [hypergeom.hyp_f(a, -5, 2, -0.4) for a in (-3, -1, -2)])


def test_contiguous_residual_rows():
    m, n, p, iz = np.indices((7, 7, 7, len(_ZS))).reshape(4, -1)
    z = np.array(_ZS)[iz]
    loop = [hypergeom.contiguous_residual(*map(int, row[:3]), _ZS[row[3]]) for row in zip(m, n, p, iz)]
    lhs, rhs = hypergeom._contiguous_residual(m, n, p, z)
    assert np.array_equal(lhs - rhs, loop)


def _sector(ntot, p, a=README_MODEL.a):
    mp = ModelParams(a=a, rho=README_MODEL.rho, L=README_MODEL.L)
    return wu_sector.WuSector(ntot, p, mode_params(mp, (0.0, 0.0, 2.0 * math.pi / mp.L))), mp


@pytest.mark.parametrize("ntot, p, a, ns", [
    (2000, 0, README_MODEL.a, None),  # 1001 indices, blocks of 8 rows
    (17, 3, README_MODEL.a, [5, 0, 3, 7]),
    (16, 0, 0.0, None),  # the free sector: basis vectors
], ids=["N-2000", "unordered", "free"])
def test_wu_blocks_are_wu_eigenstate(ntot, p, a, ns):
    sector, mp = _sector(ntot, p, a)
    ns = range(sector.dim) if ns is None else ns
    blocks = list(wu_sector._wu_eigenvectors(sector, mp, ns))
    if ntot == 2000:
        assert len(blocks) > 1 and len(blocks[0][0]) * sector.dim <= wu_sector._BLOCK_ENTRIES
    assert np.array_equal(np.concatenate([n for n, _ in blocks]), list(ns))
    loop = [wu_sector.wu_eigenstate(sector, mp, n) for n in ns]
    assert np.array_equal(np.concatenate([v for _, v in blocks]), loop)


def test_row_norms_are_linalg_norm():
    rows = np.random.default_rng(6).standard_normal((40, 77)) * 10.0 ** np.arange(-20, 20)[:, None]
    assert np.array_equal(wu_sector._row_norms(rows), [np.linalg.norm(r) for r in rows])


def test_norm_rows_keep_numpys_bits_and_rescale_the_rest():
    # rows whose squares overflow or underflow, a zero row, and rows numpy gets right
    scales = 10.0 ** np.array([-300, -200, 0, 100, 150, 200, 300])
    rows = np.random.default_rng(7).standard_normal((7, 50)) * scales[:, None]
    rows[0] = 0.0
    got = fock_ladder._norm(rows, "a row's norm", axis=1)
    with np.errstate(over="ignore", under="ignore"):
        numpy = np.linalg.norm(rows, axis=1)
    kept = (fock_ladder._SMALL_NORM <= numpy) & (numpy < math.inf)
    assert kept.tolist() == [False, False, True, True, True, False, False]
    assert np.array_equal(got[kept], numpy[kept])
    assert got[0] == 0.0
    np.testing.assert_allclose(got[1:], [fock_ladder._norm(r, "a row's norm") for r in rows[1:]], rtol=1e-15)
    with pytest.raises(ValueError, match="^a row's norm is beyond double range$"):
        fock_ladder._norm(np.array([[1.0, 1.0], [1.5e308, 1.5e308]]), "a row's norm", axis=1)


# each refusal names the first failing row and then reads as the face's message
def _face_message(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


def test_exp_pair_refusal_names_first_row():
    C = np.zeros((4, 3001), dtype=complex)
    C[:, 1500] = 1.0
    ts = np.array([-0.1, -0.2, -0.9, -0.95])
    want = _face_message(lambda: pair_transform.apply_exp_pair(LadderState(0, C[2]), -0.9))
    with pytest.raises(ValueError, match=f"^row 2: {re.escape(want)}$"):
        pair_transform._exp_pair(C, np.zeros(4, dtype=int), ts)


def test_mobius_refusal_names_first_row():
    C = np.full((3, 5), 1e308 + 0j)
    alphas = np.array([0.1, -3.0, -4.0])
    want = _face_message(lambda: genfunc.mobius(genfunc.GenFn(0, C[1]), -3.0))
    with pytest.raises(ValueError, match=f"^row 1: {re.escape(want)}$"):
        genfunc._mobius(C, alphas)


@pytest.mark.parametrize("a, b, c, z, row", [
    ([-1, 0.5, 1.5], [-2, 0.5, 0.5], 1.0, 0.3, 1),  # does not terminate
    ([-1, -3, -4], -5, [1, -2, -2], 0.3, 1),  # (c)_m vanishes first
    ([-2, -2, -2], -2, 1, [0.3, 1e200, math.nan], 1),  # sum beyond double range
    ([-2, -2], -2, 1, [0.3, math.inf], 1),  # z not finite
], ids=["nonterminating", "c-vanishes", "inf-sum", "inf-z"])
def test_hyp_f_refusal_names_first_row(a, b, c, z, row):
    at = [np.broadcast_to(np.asarray(v), (len(a),))[row].item() for v in (a, b, c, z)]
    want = _face_message(lambda: hypergeom.hyp_f(*at))
    with pytest.raises(ValueError, match=f"^row {row}: {re.escape(want)}$"):
        hypergeom._hyp_f(np.array(a), np.array(b), np.array(c), np.array(z))
