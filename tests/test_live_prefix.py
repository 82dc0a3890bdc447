"""Rounding extended precision to double only where the double is not zero.

On x86-64, rounding an x87 long double whose double is zero or subnormal
costs a microcode assist (about 185 ns against 1 ns).  So ``_binomial_columns``
yields each column only over its live prefix (``_live_length``), cut for the
shift where the entries round to a zero double and for its other consumers
(``conjugation_check``, ``apply_exp_w``) at the exact-zero tail;
``_wu_eigenvectors`` exponentiates only logs at or above ``_LOG_ZERO``, and
``_transported_columns`` turns the entries that round to zero into signed
zeros before its cast.  x87 arithmetic on an infinite operand takes an assist
too, so ``_wu_eigenvectors`` takes no log past each row's index, where the
ratio is 0.  Each must keep the bits of the plain route, written out here as
it was before: every column whole (the kernel at floor -inf), every log taken
and every entry exponentiated, every entry cast.  Every test runs with
``pair_transform._EXT`` as the host's long double and as float64, where
2^-1075 rounds to 0 and the live prefix is the nonzero one.
"""

import math

import numpy as np
import pytest

from pairspec import hypergeom, oracle, pair_transform, wu_sector
from pairspec.fock_ladder import LadderState
from pairspec.hamiltonians import _bog_energies, build_tridiagonal
from pairspec.lattice import ModelParams, mode_params
from pairspec.pair_transform import _binomial_columns, _live_length, _taylor_numerators, _zero_cut


@pytest.fixture(params=[np.longdouble, np.float64], ids=["longdouble", "float64"], autouse=True)
def ext(request, monkeypatch):
    monkeypatch.setattr(pair_transform, "_EXT", request.param)
    return request.param


def shift_reference(C, t):
    """_binomial_shift with every column rounded to double whole."""
    mag = np.abs(C)
    scale = np.where(mag >= pair_transform._TINY, 1.0, 2.0**64)
    phase = C * scale / (mag * scale)
    phase[mag == 0.0] = 0.0
    out = np.zeros(C.shape, dtype=complex)
    num = _taylor_numerators(np.broadcast_to(t, C.shape[1:]), len(C))
    for s, col in _binomial_columns(num, mag, -np.inf):  # no entry is at most -inf
        out[s:] += phase[s] * col.astype(float)
    return out


def outcome(call):
    """call()'s result as bytes, or its ValueError message."""
    try:
        return call().tobytes()
    except ValueError as err:
        return str(err)


def exp_pair_both(monkeypatch, coeffs, p, t):
    """(outcome of _exp_pair, outcome with the reference shift swapped in)."""
    got = outcome(lambda: pair_transform._exp_pair(coeffs, p, t))
    with monkeypatch.context() as patch:
        patch.setattr(pair_transform, "_binomial_shift", shift_reference)
        want = outcome(lambda: pair_transform._exp_pair(coeffs, p, t))
    return got, want


def random_batch(rng):
    """rows 1-11, n 2-300, leads log-uniform in [1e-320, 1] with random phases,
    20% of them zero, and one all-zero row in three batches; t in (-0.95, 0.95),
    with a row at t = 0 and rows at 1 <= |t| <= 2 mixed in."""
    rows, n = int(rng.integers(1, 12)), int(rng.integers(2, 301))
    coeffs = 10.0 ** rng.uniform(-320, 0, (rows, n)) * np.exp(2j * np.pi * rng.random((rows, n)))
    coeffs[rng.random((rows, n)) < 0.2] = 0.0
    if rng.random() < 1 / 3:
        coeffs[rng.integers(rows)] = 0.0
    t = rng.uniform(-0.95, 0.95, rows)
    kind = rng.integers(0, 4, rows)
    t[kind == 0] = 0.0
    t[kind == 1] = rng.choice([-1.0, 1.0], np.count_nonzero(kind == 1)) * rng.uniform(1, 2, np.count_nonzero(kind == 1))
    return coeffs, int(rng.integers(0, 3)), t


@pytest.mark.parametrize("seed", range(40))
def test_exp_pair_batches_keep_their_bits(monkeypatch, seed):
    coeffs, p, t = random_batch(np.random.default_rng(seed))
    got, want = exp_pair_both(monkeypatch, coeffs, p, t)
    assert got == want


@pytest.mark.parametrize(("n", "ratio", "t"), [
    (60, 0.5, -0.5), (60, 0.9, 0.9), (300, 0.7, -0.05), (600, 0.6, 0.1), (2000, 0.7, -0.05),
])
def test_apply_exp_pair_single_states_keep_their_bits(monkeypatch, n, ratio, t):
    rng = np.random.default_rng(n)
    st = LadderState(1, ratio ** np.arange(n) * np.exp(2j * np.pi * rng.random(n)))
    got = pair_transform.apply_exp_pair(st, t).coeffs
    with monkeypatch.context() as patch:
        patch.setattr(pair_transform, "_binomial_shift", shift_reference)
        want = pair_transform.apply_exp_pair(st, t).coeffs
    assert got.tobytes() == want.tobytes()


def test_subnormal_leads_keep_their_bits(monkeypatch):
    # leads at and near the smallest subnormal, where a column starts at most
    # one step above the cut
    coeffs = np.zeros((3, 40), dtype=complex)
    coeffs[0, ::3] = 5e-324
    coeffs[1, 1::2] = -1e-310j
    coeffs[2, 5] = 2.5e-320 + 5e-324j
    for t in (-0.05, 0.5, -1.0, [0.0, 0.3, -0.7]):
        got, want = exp_pair_both(monkeypatch, coeffs, 0, t)
        assert got == want


def test_overflowing_state_is_still_refused(monkeypatch):
    # a unit coefficient at s = 1500 with n = 3001 reaches 1e833 at alpha 0.9
    coeffs = np.zeros(3001, dtype=complex)
    coeffs[1500] = 1.0
    got, want = exp_pair_both(monkeypatch, coeffs, 0, -0.9)
    assert got == want == "exp(-0.9 a*b*) of this length-3001 state has coefficients beyond double range"


def check_prefix(col, floor):
    k = _live_length(col, floor)
    mags = np.abs(col).reshape(len(col), -1).max(axis=1)
    assert k == 0 or mags[k - 1] > floor
    assert k == len(col) or mags[k:].max() <= floor
    return k


@pytest.mark.parametrize("seed", range(20))
def test_live_prefix_on_both_floors(ext, seed):
    """The shift's columns (leads that are doubles, the cut of a zero double)
    and columns at floor 0 (positive t, leads down to the type's smallest
    subnormal), 1-D and batched."""
    rng = np.random.default_rng(seed)
    fin = np.finfo(ext)
    deepest = -(fin.minexp - fin.nmant)  # -log2 of the smallest subnormal
    tails = set()
    for rows in (None, 3):
        shape = (int(rng.integers(100, 400)),) + (() if rows is None else (rows,))
        cases = {  # (leads, t, floor, a first lead whose column dies within 100 steps)
            "cut": (10.0 ** rng.uniform(-323, 0, shape), rng.uniform(-0.5, 0.5, shape[1:]), _zero_cut(), 1e-300),
            "zero": (np.ldexp(ext(1.0), -rng.integers(0, deepest, shape)), rng.uniform(0, 0.5, shape[1:]), 0.0,
                     np.ldexp(ext(1.0), 64 - deepest)),
        }
        for name, (leads, t, floor, dying) in cases.items():
            leads = leads.astype(ext)
            leads[rng.random(shape) < 0.2] = 0.0
            leads[0] = dying
            for s, col in _binomial_columns(_taylor_numerators(t, shape[0]), leads, -np.inf):
                if 0 < check_prefix(col, floor) < len(col):
                    tails.add(name)
    assert tails == {"cut", "zero"}  # both kinds of column have dead tails


def test_live_prefix_counts_nan_as_live():
    assert _live_length(np.array([1.0, 0.0, math.nan]), 0.0) == 3
    assert _live_length(np.array([1.0, math.nan, 0.0]), 0.0) == 2
    assert _live_length(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]), 0.0) == 1


def same_bits(a, b):
    """Bit equality of two arrays of the extended type, whose x87 form pads
    each number with bytes that carry no value."""
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


MP = ModelParams(a=0.025, rho=1.0, L=2 * math.pi)
MODE = mode_params(MP, (0, 0, 1))
ROW_NORMS = wu_sector._row_norms  # the references call it unspied


def wu_reference(sector, ns):
    """_wu_eigenvectors' rows for the indices ns, every entry exponentiated:
    (the rows before normalization, the rows)."""
    ns = np.asarray(ns)
    ext, p = pair_transform._EXT, sector.p
    j = np.arange(1.0, ns.max() + 1)
    n0 = sector.Ntot - p - 2 * j
    ratio_sq = (ns[:, None] + 1 - j) ** 2 / (j * (p + j) * (n0 + 2) * (n0 + 1))
    log_w = np.zeros((len(ns), len(j) + 1), dtype=ext)
    with np.errstate(divide="ignore"):
        log_w[:, 1:] = 0.5 * np.log(ratio_sq, dtype=ext) - np.log(ext(wu_sector.wu_ytilde(MODE, MP)) / 2)
    np.add.accumulate(log_w, axis=-1, out=log_w)
    v = np.zeros((len(ns), sector.dim))
    v[:, : len(j) + 1] = np.exp(log_w - log_w.max(axis=-1, keepdims=True))
    return v, v / ROW_NORMS(v)[:, None]


@pytest.fixture
def unnormalized(monkeypatch):
    """The rows _wu_eigenvectors hands to _row_norms, in call order."""
    seen = []

    def spy(rows):
        seen.append(rows.copy())
        return ROW_NORMS(rows)

    monkeypatch.setattr(wu_sector, "_row_norms", spy)
    return seen


@pytest.mark.parametrize("p", [0, 1])
def test_wu_eigenvectors_keep_their_bits(unnormalized, p):
    sector = wu_sector.WuSector(2000, p, MODE)
    for ns, rows in wu_sector._wu_eigenvectors(sector, MP, range(sector.dim)):
        want_raw, want = wu_reference(sector, ns)
        assert unnormalized.pop().tobytes() == want_raw.tobytes()
        assert rows.tobytes() == want.tobytes()


@pytest.mark.parametrize("ntot", [16, 50, 170])
@pytest.mark.parametrize("p", [0, 1])
def test_wu_eigenvectors_of_small_sectors_keep_their_bits(unnormalized, ntot, p):
    # one block holds every row: row r's logs stop at n_r, where the reference
    # takes them on through max(n), -inf from n_r + 1 on
    sector = wu_sector.WuSector(ntot, p, MODE)
    [(ns, rows)] = wu_sector._wu_eigenvectors(sector, MP, range(sector.dim))
    assert len(ns) == sector.dim
    want_raw, want = wu_reference(sector, ns)
    assert unnormalized.pop().tobytes() == want_raw.tobytes()
    assert rows.tobytes() == want.tobytes()


def test_wu_eigenstate_at_ten_thousand_keeps_its_bits(unnormalized):
    sector = wu_sector.WuSector(10**4, 0, MODE)
    for n in (0, 1, 700, 2500, 5000):
        got = wu_sector.wu_eigenstate(sector, MP, n)
        want_raw, want = wu_reference(sector, [n])
        assert unnormalized.pop(0).tobytes() == want_raw.tobytes()
        assert got.tobytes() == want[0].tobytes()


def test_exp_below_the_log_floor_rounds_to_zero(ext):
    logs = np.linspace(wu_sector._LOG_ZERO - 4.0, wu_sector._LOG_ZERO, 400001, dtype=ext)[:-1]
    assert not np.exp(logs).astype(float).any()
    assert np.exp(ext(math.log(2.0**-1074))).astype(float) > 0.0  # the floor is not far below


def transported_reference(p, y, ns, smax):
    """_transported_columns with every entry cast."""
    lams = _bog_energies(y, p, ns, pair_transform._EXT)
    block = build_tridiagonal(p, y, y, hypergeom._block_rows(p, y, float(np.max(lams)), smax))
    z = oracle._twisted_vectors(block.diag, block.super_, lams)[: smax + 1]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        z /= z[0]
        return z.T.astype(float)


@pytest.mark.parametrize(("p", "y", "nmax", "smax"), [(0, 0.45, 16, 2000), (1, 0.3, 8, 1200), (2, 0.1, 4, 400)])
def test_transported_columns_keep_their_bits(p, y, nmax, smax):
    ns = np.arange(nmax + 1)
    got = hypergeom._transported_columns(p, y, ns, smax)
    want = transported_reference(p, y, ns, smax)
    assert got.tobytes() == want.tobytes()
    if pair_transform._EXT is np.longdouble and smax >= 1200:
        assert np.signbit(got[got == 0.0]).any()  # the signed zeros are kept


def watched_columns(monkeypatch):
    """Install a spy on the column kernel that checks every column it yields
    against the same column formed whole, and return the list of
    (floor, the yielded length, the whole length) it records."""
    columns, seen = pair_transform._binomial_columns, []

    def spy(num, leads, floor=0.0):
        whole = columns(num, leads, -np.inf)  # a generator of its own, with its own buffer
        for (s, col), (s_whole, full) in zip(columns(num, leads, floor), whole, strict=True):
            assert s == s_whole and same_bits(col, full[: len(col)])
            mags = np.abs(full).reshape(len(full), -1).max(axis=1)
            assert not (mags[: len(col)] <= floor).any()  # live up to the last entry; NaN is live
            assert (mags[len(col) :] <= floor).all()  # nothing dropped above the floor
            seen.append((floor, len(col), len(full)))
            yield s, col

    monkeypatch.setattr(pair_transform, "_binomial_columns", spy)
    return seen


FREE = ModelParams(a=0.0, rho=1.0, L=2 * math.pi)  # W = 0: every column dies after its lead


@pytest.mark.parametrize("seed", range(12))
def test_every_consumer_reads_only_live_columns(monkeypatch, seed):
    """The shift (1-D and batched), conjugation_check and apply_exp_w: each
    column the kernel yields is live to its last entry, and what it drops is
    at most the floor."""
    rng = np.random.default_rng(seed)
    seen = watched_columns(monkeypatch)
    coeffs, p, t = random_batch(rng)
    outcome(lambda: pair_transform._exp_pair(coeffs, p, t))
    outcome(lambda: pair_transform._exp_pair(coeffs[0], p, t[0]))
    pair_transform.conjugation_check(rng.choice([1e-300, rng.uniform(-0.95, 0.95)]), int(rng.integers(4, 60)))
    for mp in (MP, FREE):
        sector = wu_sector.WuSector(int(rng.integers(2, 400)), int(rng.integers(0, 2)), mode_params(mp, (0, 0, 1)))
        state = rng.standard_normal(sector.dim)
        state[rng.random(sector.dim) < 0.3] = 0.0
        outcome(lambda: wu_sector.apply_exp_w(state, sector, rng.choice([-1.0, 1.0])))
    floors = {floor for floor, *_ in seen}
    assert floors == {0.0, _zero_cut()} or (_zero_cut() == 0.0 and floors == {0.0})
    assert any(k < n for _, k, n in seen)  # some column is cut


def full_columns(monkeypatch):
    """Patch the live prefix to the whole column: the route before the cut."""
    monkeypatch.setattr(pair_transform, "_live_length", lambda col, floor: len(col))


def test_underflowing_conjugation_kernel_keeps_its_bits(monkeypatch):
    # at alpha = 1e-300 the columns of E underflow to exact zeros: every long
    # column is cut, 17 entries in (1e-4951 for x87) or 2 (1e-324 for double)
    with monkeypatch.context() as patch:
        seen = watched_columns(patch)
        got = pair_transform.conjugation_check(1e-300, 40)
    assert all(k < n for _, k, n in seen if n > 17)
    full_columns(monkeypatch)
    want = pair_transform.conjugation_check(1e-300, 40)
    assert got == want
    if pair_transform._EXT is np.longdouble:
        assert got == 1.659993092070237e-19


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_free_gas_exp_w_keeps_its_bits(monkeypatch, sign):
    # a = 0 makes W = 0: each column is its lead, and exp(W) is the identity
    sector = wu_sector.WuSector(300, 1, mode_params(FREE, (0, 0, 1)))
    state = np.random.default_rng(5).standard_normal(sector.dim)
    with monkeypatch.context() as patch:
        seen = watched_columns(patch)
        got = wu_sector.apply_exp_w(state, sector, sign)
    assert all(k == 1 for _, k, _ in seen) and len(seen) == sector.dim
    full_columns(monkeypatch)
    want = wu_sector.apply_exp_w(state, sector, sign)
    assert got.tobytes() == want.tobytes() == state.tobytes()
