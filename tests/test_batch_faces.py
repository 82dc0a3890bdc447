"""Every batched kernel against a loop of its scalar face: the same bits.

Each public scalar function (``apply_exp_pair``, ``mobius``, ``hyp_f``,
``contiguous_residual``, ``wu_eigenstate``, ``psi_p_theta``,
``recurrence_coeffs``, ``apply_exp_w``) is the batch-1 face of one array
form with a leading batch axis, which ``verify`` calls once per check.  The
comparisons use ``np.array_equal``, not a tolerance: a batch that moved one
bit of one row would move ``verify``'s deviations.
"""

import math
import re

import numpy as np
import pytest

from pairspec import checks, eigenstates, fock_ladder, genfunc, hamiltonians, hypergeom, pair_transform, wu_sector
from pairspec.fock_ladder import LadderState
from pairspec.lattice import ModelParams, half_lattice, mode_params

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


def _labels(seed: int, rows: int, terminating: bool) -> tuple:
    """(p, theta, ytilde, smax) rows: mixed p and complex theta, or real theta
    with nonnegative integers among them, each row with its own smax."""
    rng = np.random.default_rng(seed)
    p = rng.integers(0, 8, rows)
    if terminating:
        theta = np.where(rng.random(rows) < 0.6, rng.integers(-3, 25, rows), rng.uniform(-6, 6, rows)) + 0j
    else:
        theta = rng.uniform(-4, 4, rows) + 1j * rng.uniform(-4, 4, rows)
    return p, theta, rng.uniform(0.1, 3.0, rows), rng.integers(0, 31, rows)


@pytest.mark.parametrize("terminating", [False, True], ids=["complex-theta", "terminating-theta"])
def test_psi_rows_are_psi_p_theta(terminating):
    p, theta, ytil, smax = _labels(21, 150, terminating)
    rows = eigenstates._psi_rows(p, theta, ytil, smax)
    assert rows.shape == (150, smax.max() + 1)
    for row, label in zip(rows, zip(p.tolist(), theta.tolist(), ytil.tolist(), smax.tolist())):
        c = eigenstates.psi_p_theta(eigenstates.EigenstateSpec(*label)).coeffs
        assert np.array_equal(row[: len(c)], c)
        assert not np.any(row[len(c):]) and not np.signbit(row[len(c):].real).any()
    if terminating:  # rows that stop at their theta inside a wider batch
        assert np.any((theta.real >= 0) & (theta.real < smax) & (theta.real == np.floor(theta.real)))


def _scalar_recurrence(energy, p, ytilde, smax):
    """The energy recurrence as a loop of CPython and numpy scalar arithmetic."""
    c = np.zeros(smax + 1, dtype=complex)
    c[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(smax):
            c[s + 1] = (energy - p / 2.0 - s) * c[s] / (ytilde * math.sqrt((p + s + 1) * (s + 1)))
    return c


@pytest.mark.parametrize("terminating", [False, True], ids=["complex-theta", "terminating-theta"])
def test_recurrence_rows_have_the_bits_of_the_scalar_loop(terminating):
    p, theta, ytil, smax = _labels(22, 150, terminating)
    energy = p / 2.0 + theta
    rows = eigenstates._recurrence_rows(energy, p, ytil, smax)
    for row, label in zip(rows, zip(energy.tolist(), p.tolist(), ytil.tolist(), smax.tolist())):
        c = eigenstates.recurrence_coeffs(*label).coeffs
        assert row[: len(c)].tobytes() == c.tobytes() == _scalar_recurrence(*label).tobytes()
        assert not np.any(row[len(c):])


def _verify_sectors():
    """The 24 sectors of checks._wu_sector, in its order."""
    mp = checks._REFERENCE
    return [wu_sector.WuSector(ntot, p, mode_params(mp, k)) for k in half_lattice(mp.L, 1)[:3]
            for ntot in (2, 7, 16) for p in range(0, 5, 2) if p <= ntot]


def test_exp_w_rows_are_apply_exp_w():
    sectors = _verify_sectors()
    assert len(sectors) == 24
    rng = np.random.default_rng(23)
    x = np.zeros((len(sectors), max(sector.dim for sector in sectors)))
    for row, sector in zip(x, sectors):
        row[: sector.dim] = rng.standard_normal(sector.dim) * (rng.random(sector.dim) < 0.7)
    forward = wu_sector._exp_w_rows(x, sectors, 1.0)
    back = wu_sector._exp_w_rows(forward, sectors, -1.0)
    for row, fwd, bwd, sector in zip(x, forward, back, sectors):
        face = wu_sector.apply_exp_w(row[: sector.dim], sector, 1.0)
        assert np.array_equal(fwd[: sector.dim], face)
        assert np.array_equal(bwd[: sector.dim], wu_sector.apply_exp_w(face, sector, -1.0))
        assert not np.any(fwd[sector.dim:]) and not np.any(bwd[sector.dim:])
    signs = rng.choice([-1.0, 1.0], len(sectors))
    loop = [wu_sector.apply_exp_w(row[: sector.dim], sector, sign) for row, sector, sign in zip(x, sectors, signs)]
    mixed = wu_sector._exp_w_rows(x, sectors, signs)
    assert all(np.array_equal(row[: len(want)], want) for row, want in zip(mixed, loop))


def test_psi_refusal_names_first_row():
    p, theta, ytil, smax = np.zeros(3, dtype=int), np.full(3, 0.5 + 0j), np.array([1.0, 1e-3, 1e-4]), 300
    want = _face_message(lambda: eigenstates.psi_p_theta(eigenstates.EigenstateSpec(0, 0.5 + 0j, 1e-3, 300)))
    with pytest.raises(ValueError, match=f"^row 1: {re.escape(want)}$"):
        eigenstates._psi_rows(p, theta, ytil, smax)


def test_recurrence_refusal_names_first_row():
    ytil = np.array([1.0, 1e-3, 1e-4])
    want = _face_message(lambda: eigenstates.recurrence_coeffs(0.5 + 0j, 0, 1e-3, 300))
    with pytest.raises(ValueError, match=f"^row 1: {re.escape(want)}$"):
        eigenstates._recurrence_rows(np.full(3, 0.5 + 0j), np.zeros(3, dtype=int), ytil, 300)


def test_exp_w_refusal_names_first_row():
    sectors = _verify_sectors()[5:8]  # N = 16 at p = 0, 2, 4: dims 9, 8, 7
    x = np.zeros((3, 9))
    for row, sector, lead in zip(x, sectors, (1.0, 1.5e308, 1.5e308)):
        row[: sector.dim] = lead
    want = _face_message(lambda: wu_sector.apply_exp_w(x[1, :8], sectors[1], -1.0))
    with pytest.raises(ValueError, match=f"^row 1: {re.escape(want)}$"):
        wu_sector._exp_w_rows(x, sectors, -1.0)


def _ragged(seed: int, rows: int, n: int) -> tuple:
    """Zero-padded rows of random lengths 0..n (dense, zero and subnormal
    entries), their lengths, and mixed p."""
    rng = np.random.default_rng(seed + 200)
    C = _rows(seed, rows, n, "zero-and-subnormal")
    lengths = rng.integers(0, n + 1, rows)
    lengths[:3] = n, 0, 1
    C[np.arange(n) >= lengths[:, None]] = 0.0
    return C, lengths, rng.integers(0, 7, rows)


LADDER_FACES = [
    (fock_ladder._ab_rows, fock_ladder.apply_ab, -1),
    (fock_ladder._adbd_rows, fock_ladder.apply_adbd, 1),
    (fock_ladder._halfnumber_rows, fock_ladder.apply_halfnumber, 0),
]


@pytest.mark.parametrize("rows, face, grow", LADDER_FACES, ids=[f[1].__name__ for f in LADDER_FACES])
@pytest.mark.parametrize("seed, batch, n, leads, p_range, t_range",
                         [case[1:] for case in STATE_BATCHES], ids=[case[0] for case in STATE_BATCHES])
def test_ladder_rows_are_their_faces(rows, face, grow, seed, batch, n, leads, p_range, t_range):
    C, ps, _ = _state_batch(seed, batch, n, leads, p_range, t_range)
    got = rows(C, ps)
    assert got.shape == (batch, n + grow)
    assert np.array_equal(got, [face(LadderState(int(p), c)).coeffs for c, p in zip(C, ps)])
    assert np.array_equal(rows(C, 3), [face(LadderState(3, c)).coeffs for c in C])  # one p for all rows


@pytest.mark.parametrize("rows, face, grow", LADDER_FACES, ids=[f[1].__name__ for f in LADDER_FACES])
def test_ladder_rows_of_zero_padded_states(rows, face, grow):
    # a row's image begins with the image of its own length, then zeros
    C, lengths, ps = _ragged(8, 40, 17)
    got = rows(C, ps)
    for row, c, length, p in zip(got, C, lengths, ps):
        want = face(LadderState(int(p), c[:length])).coeffs
        assert np.array_equal(row[: len(want)], want)
        assert not np.any(row[len(want):]) and not np.signbit(row[len(want):].real).any()


def _couplings(seed: int, rows: int) -> tuple:
    """Per-row couplings y1, y2 with zeros, negatives and repeats among them."""
    rng = np.random.default_rng(seed + 300)
    y1, y2 = rng.uniform(-0.6, 0.6, (2, rows))
    y1[rng.random(rows) < 0.25] = 0.0
    y2[rng.random(rows) < 0.25] = 0.0
    return y1, y2


def _hab_face(c, p, y1, y2):
    return hamiltonians.apply_hab_alpha(LadderState(int(p), c), float(y1), float(y2)).coeffs


@pytest.mark.parametrize("seed, batch, n, leads, p_range, t_range",
                         [case[1:] for case in STATE_BATCHES], ids=[case[0] for case in STATE_BATCHES])
def test_hab_rows_are_apply_hab_alpha(seed, batch, n, leads, p_range, t_range):
    C, ps, _ = _state_batch(seed, batch, n, leads, p_range, t_range)
    y1, y2 = _couplings(seed, batch)
    got = hamiltonians._hab_rows(C, ps, y1, y2)
    assert got.shape == (batch, n + bool(np.any(y2)))
    for row, c, p, a, b in zip(got, C, ps, y1, y2):
        want = _hab_face(c, p, a, b)
        assert np.array_equal(row[: len(want)], want) and not np.any(row[len(want):])
    for a, b in ((0.3, 0.0), (0.0, -0.2), (0.25, 0.25)):  # couplings shared by all rows
        assert np.array_equal(hamiltonians._hab_rows(C, ps, a, b), [_hab_face(c, p, a, b) for c, p in zip(C, ps)])


def test_hab_rows_of_zero_padded_states():
    C, lengths, ps = _ragged(9, 40, 17)
    y1, y2 = _couplings(9, 40)
    for row, c, length, p, a, b in zip(hamiltonians._hab_rows(C, ps, y1, y2), C, lengths, ps, y1, y2):
        want = _hab_face(c[:length], p, a, b)
        assert np.array_equal(row[: len(want)], want) and not np.any(row[len(want):])


def test_hab_row_whose_coupling_is_zero_is_not_refused_for_its_operator():
    # a*b* of [0, 1e308] overflows, so a face with y2 = 0 skips it; the row does too
    C = np.array([[0.0, 1e308], [1.0, 0.5]], dtype=complex)
    got = hamiltonians._hab_rows(C, 0, 0.1, np.array([0.0, 0.2]))
    assert np.array_equal(got[0, :2], _hab_face(C[0], 0, 0.1, 0.0)) and got[0, 2] == 0
    assert np.array_equal(got[1], _hab_face(C[1], 0, 0.1, 0.2))


def _residual_face(c, p, y1, y2, energy, smax):
    return eigenstates.residual(LadderState(int(p), c[: smax + 1]), float(y1), float(y2), complex(energy))


@pytest.mark.parametrize("energies", ["real", "complex"])
def test_residual_rows_are_residual(energies):
    # rows of their own smax and p, padded past it; couplings with zeros; an
    # energy per row
    C, lengths, ps = _ragged(10, 60, 25)
    # a row whose largest entry is subnormal has no norm (_norm refuses it): zero rows instead
    C[np.abs(C).max(axis=1) < np.finfo(float).tiny] = 0.0
    assert np.any((np.abs(C) < np.finfo(float).tiny) & (C != 0)) and not np.any(C[0])
    smax = np.maximum(lengths - 1, 0)
    y1, y2 = _couplings(10, 60)
    rng = np.random.default_rng(11)
    energy = rng.uniform(-3, 9, 60) + (1j * rng.uniform(-2, 2, 60) if energies == "complex" else 0.0)
    got = eigenstates._residual_rows(C, ps, y1, y2, energy, smax)
    want = [_residual_face(*row) for row in zip(C, ps, y1, y2, energy, smax)]
    assert np.array_equal(got, want)
    # the face's own bits: its norm is over rows 0..smax-1, not the padded ones
    short = smax < smax.max()
    assert np.any(short & (smax >= 9))
    assert np.array_equal(eigenstates._residual_rows(C, ps, 0.3, 0.0, 1.5, smax),
                          [_residual_face(c, p, 0.3, 0.0, 1.5, m) for c, p, m in zip(C, ps, smax)])


@pytest.mark.parametrize("coeffs", [[], [2.0]], ids=["empty", "one-entry"])
@pytest.mark.parametrize("y2", [0.0, 0.1])
def test_residual_without_rows_is_zero(coeffs, y2):
    # smax = -1 and 0 leave no row below the top one
    assert eigenstates.residual(LadderState(1, coeffs), 0.3, y2, 1.5) == 0.0
    assert np.array_equal(eigenstates._residual_rows(np.array([[2.0, 0.0], [0.0, 0.0]]), 1, 0.3, y2, 1.5, [0, -1]),
                          [0.0, 0.0])


def test_residual_rows_of_eigenstates_are_small():
    # verify's grid: finite eigenstates with their own smax in one batch
    ytil, p, n = (g.ravel() for g in np.meshgrid((0.5, 2.0), range(0, 9, 4), range(0, 13, 4), indexing="ij"))
    rows = eigenstates._psi_rows(p, n, ytil, n + 2)
    res = eigenstates._residual_rows(rows, p, ytil, 0.0, p / 2.0 + n, n + 2)
    assert np.all(res <= 1e-12 * fock_ladder._norm(rows, "norm", axis=1))


@pytest.mark.parametrize("rows, face, what", [
    (fock_ladder._ab_rows, fock_ladder.apply_ab, "ab"),
    (fock_ladder._adbd_rows, fock_ladder.apply_adbd, "a*b*"),
    (fock_ladder._halfnumber_rows, fock_ladder.apply_halfnumber, "(a*a + b*b)/2"),
], ids=["ab", "adbd", "halfnumber"])
def test_ladder_refusal_names_first_row(rows, face, what):
    C = np.array([[1.0, 2.0, 3.0], [1.0, 1e308, 1e308], [1e308, 1e308, 1e308]], dtype=complex)
    want = _face_message(lambda: face(LadderState(0, C[1])))
    assert want == f"the image under {what} is beyond double range"
    with pytest.raises(ValueError, match=f"^row 1: {re.escape(want)}$"):
        rows(C, 0)


def test_hab_refusal_names_first_row():
    C = np.array([[1.0, 0.5], [1e307, 1e307], [1e307, 1e307]], dtype=complex)
    y1 = np.array([1e300, 1e300, 1e300])
    want = _face_message(lambda: hamiltonians.apply_hab_alpha(LadderState(0, C[1]), 1e300, 0.0))
    with pytest.raises(ValueError, match=f"^row 1: {re.escape(want)}$"):
        hamiltonians._hab_rows(C, 0, y1, 0.0)


def test_residual_refusal_names_first_row():
    C = np.array([[1.0, 0.5, 0.0], [1.0, 1e300, 0.0], [1.0, 0.5, 0.0]], dtype=complex)
    energy = np.array([0.3, 1e10, 1e309 / 1e300])
    want = _face_message(lambda: eigenstates.residual(LadderState(0, C[1]), 0.3, 0.1, 1e10))
    assert want == "the residual is beyond double range"
    with pytest.raises(ValueError, match=f"^row 1: {re.escape(want)}$"):
        eigenstates._residual_rows(C, 0, 0.3, 0.1, energy, 2)
