import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from pairspec.hamiltonians import bog_energy_ab
from pairspec.hypergeom import transported_state
from pairspec.lattice import (
    AlphaSum,
    ModelParams,
    _mode_table,
    alpha_c,
    alpha_sum,
    half_lattice,
    half_lattice_indices,
    mode_params,
    y12,
    ytilde_from_y,
)
from pairspec.wu_sector import WuSector

REF = dict(a=1.0 / (16.0 * math.pi), rho=1.0, L=2.0 * math.pi)


class TestModelParams:
    def test_derives_particle_count(self):
        mp = ModelParams(a=0.01, rho=2.0, L=3.0)
        assert mp.N == pytest.approx(2.0 * 27.0)

    def test_consistent_count_accepted(self):
        ModelParams(a=0.01, rho=1.0, L=2.0, N=8.0)

    def test_inconsistent_count_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(a=0.01, rho=1.0, L=2.0, N=9.0)

    def test_free_gas_allowed(self):
        mp = ModelParams(a=0.0, rho=1.0, L=1.0)
        assert mp.gas_scale == 0.0

    @pytest.mark.parametrize(
        "bad",
        [
            dict(a=-1.0),
            dict(rho=0.0),
            dict(L=-2.0),
            *(dict([(name, value)]) for name in ("a", "rho", "L", "N")
              for value in (math.inf, -math.inf, math.nan)),
            # finite inputs whose derived scales leave double range
            dict(L=1e200),  # L^3 overflows
            dict(L=1e-200),  # L^3 underflows to 0
            dict(a=0.01, rho=1e300, L=1e5),  # N = rho L^3 overflows
            dict(rho=1e-300, L=1e-10),  # N underflows to 0
            dict(a=1e300, rho=1e10),  # 8 pi a rho overflows
            dict(a=1e150, rho=1e150),  # 4 pi a rho N overflows
        ],
    )
    def test_invalid_inputs(self, bad):
        kwargs = dict(a=0.01, rho=1.0, L=2.0)
        kwargs.update(bad)
        if not all(map(math.isfinite, bad.values())):
            ((name, _),) = bad.items()
            topic = f"{name} must be finite"  # names the input
        elif min(bad.values()) > 0:  # names all three inputs
            a, rho, L = kwargs["a"], kwargs["rho"], kwargs["L"]
            topic = re.escape(f"a={a!r}, rho={rho!r}, L={L!r} put a derived scale beyond double range")
        else:
            topic = None
        with pytest.raises(ValueError, match=topic):
            ModelParams(**kwargs)


class TestHalfLattice:
    def test_counts(self):
        # 26 and 124 nonzero cube points, halved
        assert len(half_lattice(2.0 * math.pi, 1)) == 13
        assert len(half_lattice(2.0 * math.pi, 2)) == 62

    def test_empty_cutoff_rejected(self):
        with pytest.raises(ValueError):
            half_lattice(2.0 * math.pi, 0)
        with pytest.raises(ValueError):
            half_lattice(-1.0, 2)

    @pytest.mark.parametrize("L", [math.inf, math.nan])
    def test_non_finite_box_side_refused(self, L):
        # inf gave k = (0, 0, 0) triples and nan gave NaN triples
        with pytest.raises(ValueError, match=f"^box side L must be finite, got {L}$"):
            half_lattice(L, 1)

    def test_partitions_cube(self):
        for nmax in (1, 2, 5):
            half = set(half_lattice_indices(nmax))
            mirror = {(-a, -b, -c) for (a, b, c) in half}
            assert not half & mirror
            cube = {
                (i, j, k)
                for i in range(-nmax, nmax + 1)
                for j in range(-nmax, nmax + 1)
                for k in range(-nmax, nmax + 1)
            } - {(0, 0, 0)}
            assert half | mirror == cube

    def test_sorted_by_norm_then_lex(self):
        for nmax in (1, 2, 5):
            idx = half_lattice_indices(nmax)
            keys = [(a * a + b * b + c * c, (a, b, c)) for (a, b, c) in idx]
            assert keys == sorted(keys)


class TestModeParams:
    def test_value_type(self):
        mp = ModelParams(**REF)
        m = mode_params(mp, (0.0, 0.0, 1.0))
        with pytest.raises(AttributeError):
            m.alpha = 0.5
        twin = mode_params(mp, (0.0, 0.0, 1.0))
        assert twin == m and hash(twin) == hash(m)
        assert hash(WuSector(4, 0, m)) == hash(WuSector(4, 0, twin))
        assert repr(m).startswith("ModeParams(k=(0.0, 0.0, 1.0), n=(0, 0, 1), ksq=1.0, y=")

    def test_free_limit(self):
        mp = ModelParams(a=0.0, rho=1.0, L=2.0 * math.pi)
        m = mode_params(mp, (0.0, 1.0, 1.0))
        assert m.y == 0.0 and m.ytilde == 0.0 and m.alpha == 0.0
        assert m.epsilon == pytest.approx(m.ksq)

    def test_reference_mode(self):
        # 8 pi a rho = 1/2 at the reference parameters
        mp = ModelParams(**REF)
        m = mode_params(mp, (0.0, 0.0, 1.0))
        assert m.y == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert m.epsilon == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert m.alpha == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), rel=1e-13)
        assert m.ytilde == pytest.approx(1.0 / (4.0 * math.sqrt(2.0)), rel=1e-15)

    def test_zero_mode_rejected(self):
        with pytest.raises(ValueError):
            mode_params(ModelParams(**REF), (0.0, 0.0, 0.0))
        # k^2 + 16 pi a rho beyond double range: the square overflows, the sum of
        # squares does, or only the sum with 16 pi a rho does (eps_k was inf)
        ref, dense = ModelParams(**REF), ModelParams(a=1e306, rho=1.0, L=2.0)
        for mp, k in ((ref, (1e160, 0.0, 0.0)), (ref, (0.0, 1e154, 1e154)), (ref, (math.inf, 0.0, 0.0)),
                      (ref, (math.nan, 0.0, 0.0)), (dense, (1.3e154, 0.0, 0.0))):
            with pytest.raises(ValueError, match="beyond double range"):
                mode_params(mp, k)

    def test_squares_by_multiplication(self):
        # libm pow, behind x**2, is not correctly rounded; x*x is, like np.square
        x = 2.0 * math.pi / 1.7 * 143  # k of n = (143, 0, 0) at L = 1.7
        if x**2 == x * x:
            pytest.skip("this libm rounds x**2 correctly at x")
        for k in ((x, 0.0, 0.0), (0.0, 1.0, x)):
            assert mode_params(ModelParams(**REF), k).ksq == k[0] * k[0] + k[1] * k[1] + k[2] * k[2]
        assert mode_params(ModelParams(**REF), (x, 0.0, 0.0)).ksq != x**2

    def test_branch_identity_alpha_equals_alpha_c(self):
        mp = ModelParams(**REF)
        for k in half_lattice(mp.L, 3):
            m = mode_params(mp, k)
            assert abs(m.alpha - alpha_c(m.y)) < 1e-12

    def test_dispersion_identities(self):
        mp = ModelParams(**REF)
        g = mp.gas_scale
        for k in half_lattice(mp.L, 3):
            m = mode_params(mp, k)
            assert m.epsilon**2 == pytest.approx(m.ksq * (m.ksq + 2 * g), rel=1e-12)
            assert m.epsilon == pytest.approx(
                (m.ksq + g) * math.sqrt(1 - 4 * m.y**2), rel=1e-12
            )


class TestAlphaC:
    def test_point_values(self):
        assert alpha_c(0.3) == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert alpha_c(1.0 / math.sqrt(8.0)) == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-14)
        assert alpha_c(0.0) == 0.0

    def test_monotone(self):
        ys = np.linspace(1e-4, 0.499, 300)
        vals = [alpha_c(y) for y in ys]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_radical_identity(self):
        for y in np.linspace(1e-3, 0.4999, 400):
            assert abs(1 - 2 * alpha_c(y) * y - math.sqrt(1 - 4 * y * y)) < 1e-12

    @pytest.mark.parametrize("y", [-0.1, 0.5, 0.7])
    def test_out_of_range(self, y):
        with pytest.raises(ValueError):
            alpha_c(y)


class TestY12:
    def test_identity_at_zero(self):
        assert y12(0.3, 0.0) == (0.3, pytest.approx(0.3))

    def test_critical_point(self):
        y1, y2 = y12(0.3, 1.0 / 3.0)
        assert y1 == pytest.approx(0.375, rel=1e-15)
        assert abs(y2) < 1e-15

    def test_generic_point(self):
        y1, y2 = y12(0.3, 0.1)
        assert y1 == pytest.approx(0.3 / 0.94, rel=1e-15)
        assert y2 == pytest.approx((0.3 - 0.1 + 0.003) / 0.94, rel=1e-14)

    def test_beyond_critical_rejected(self):
        with pytest.raises(ValueError):
            y12(0.3, 0.4)

    def test_strictly_positive_below_critical(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            y = rng.uniform(0.01, 0.49)
            al = rng.uniform(0.0, alpha_c(y) * 0.999)
            y1, y2 = y12(y, al)
            assert y1 > 0 and y2 > 0

    def test_ytilde_limit(self):
        # y1 at the critical amplitude equals ytilde
        y = 0.3
        y1, _ = y12(y, alpha_c(y))
        assert y1 == pytest.approx(ytilde_from_y(y), rel=1e-14)


# every function that takes a coupling shares lattice._check_coupling, each with its interval
_COUPLING_TAKERS = [
    (ytilde_from_y, "[0, 1/2)"),
    (alpha_c, "[0, 1/2)"),
    (lambda y: y12(y, 0.0), "(0, 1/2)"),
    (lambda y: bog_energy_ab(y, 0, 1), "[0, 1/2)"),
    (lambda y: transported_state(0, 1, y, 3), "(0, 1/2)"),
]


@pytest.mark.parametrize("call, interval", _COUPLING_TAKERS,
                         ids=["ytilde_from_y", "alpha_c", "y12", "bog_energy_ab", "transported_state"])
def test_coupling_range_is_one_guard(call, interval):
    for y in (-0.1, 0.5, 0.7, math.nan, *((0.0,) if interval[0] == "(" else ())):
        with pytest.raises(ValueError, match=re.escape(f"coupling must lie in {interval}, got {y}")):
            call(y)
    call(0.3)
    if interval[0] == "[":
        call(0.0)


class TestAlphaSum:
    def test_free_gas(self):
        res = alpha_sum(ModelParams(a=0.0, rho=1.0, L=2 * math.pi), 2)
        assert res.value == 0.0 and not res.grows_with_cutoff
        # a > 0 whose 8 pi a rho underflows is free at every mode, and in the sum
        mp = ModelParams(a=1e-300, rho=1e-300, L=1.0)
        assert mp.a > 0 and mp.gas_scale == 0.0
        assert alpha_sum(mp, 1) == AlphaSum(value=0.0, grows_with_cutoff=False)
        with pytest.raises(ValueError, match="nmax must be an integer >= 1"):  # validated like a > 0
            alpha_sum(ModelParams(a=0.0, rho=1.0, L=1.0), 0)

    def test_grows_with_cutoff(self):
        mp = ModelParams(**REF)
        v1 = alpha_sum(mp, 1)
        v2 = alpha_sum(mp, 2)
        v3 = alpha_sum(mp, 3)
        assert v1.grows_with_cutoff
        assert 0 < v1.value < v2.value < v3.value


_LOG_UNIFORM = hs.floats(-300.0, 300.0).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(hs.one_of(hs.just(0.0), _LOG_UNIFORM), _LOG_UNIFORM, _LOG_UNIFORM)
def test_scales_are_finite_or_refused(a, rho, L):
    # a model and its lowest mode either raise ValueError or are finite
    try:
        mp = ModelParams(a=a, rho=rho, L=L)
    except ValueError:
        return
    assert mp.volume > 0 and mp.N > 0
    assert all(map(math.isfinite, (mp.volume, mp.N, mp.gas_scale, mp.mean_field_energy)))
    try:
        m = mode_params(mp, half_lattice(mp.L, 1)[0])
    except ValueError:
        return
    assert all(map(math.isfinite, (m.ksq, m.y, m.ytilde, m.alpha, m.epsilon)))
    assert 0.0 <= m.y < 0.5


_COLUMNS = ("ksq", "y", "ytilde", "alpha", "epsilon")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(hs.one_of(hs.just(0.0), _LOG_UNIFORM), _LOG_UNIFORM, _LOG_UNIFORM, hs.integers(1, 4))
@example(0.0, 1.0, 2.0 * math.pi, 3)  # the free gas
@example(1e-300, 1e-300, 1.0, 2)  # a > 0 whose 8 pi a rho underflows to 0
@example(REF["a"], REF["rho"], REF["L"], 4)
@example(1e306, 4.0, 0.5, 1)  # k^2 + 16 pi a rho overflows at every mode
def test_mode_table_rows_are_mode_params(a, rho, L, nmax):
    # the array route has the scalar route's bits, and refuses what it refuses
    try:
        mp = ModelParams(a=a, rho=rho, L=L)
    except ValueError:
        return
    try:
        modes = [mode_params(mp, k) for k in half_lattice(mp.L, nmax)]
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            _mode_table(mp, nmax)
        assert str(refused.value) == str(exc)
        return
    table = _mode_table(mp, nmax)
    assert table.n.tolist() == [list(m.n) for m in modes]
    assert np.array_equal(table.k.view(np.int64), np.array([m.k for m in modes]).view(np.int64))
    for name in _COLUMNS:
        want = np.array([getattr(m, name) for m in modes])
        assert np.array_equal(getattr(table, name).view(np.int64), want.view(np.int64)), name


def test_mode_table_refuses_an_empty_cutoff():
    with pytest.raises(ValueError, match="nmax must be an integer >= 1, got 0"):
        _mode_table(ModelParams(**REF), 0)
