import math

import numpy as np
import pytest

from pairspec.lattice import (
    ModelParams,
    alpha_c,
    alpha_sum,
    half_lattice,
    half_lattice_indices,
    mode_params,
    y12,
    ytilde_from_y,
)

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

    @pytest.mark.parametrize("bad", [dict(a=-1.0), dict(rho=0.0), dict(L=-2.0)])
    def test_invalid_inputs(self, bad):
        kwargs = dict(a=0.01, rho=1.0, L=2.0)
        kwargs.update(bad)
        with pytest.raises(ValueError):
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


class TestAlphaSum:
    def test_free_gas(self):
        res = alpha_sum(ModelParams(a=0.0, rho=1.0, L=2 * math.pi), 2)
        assert res.value == 0.0 and not res.grows_with_cutoff

    def test_grows_with_cutoff(self):
        mp = ModelParams(**REF)
        v1 = alpha_sum(mp, 1)
        v2 = alpha_sum(mp, 2)
        v3 = alpha_sum(mp, 3)
        assert v1.grows_with_cutoff
        assert 0 < v1.value < v2.value < v3.value
