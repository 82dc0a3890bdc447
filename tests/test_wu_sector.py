import math

import numpy as np
import pytest

from pairspec.lattice import ModelParams, mode_params
from pairspec.wu_sector import (
    WuSector,
    apply_exp_w,
    build_transformed_wu,
    wu_eigenstate,
    wu_ytilde,
)

REF = dict(a=1.0 / (16.0 * math.pi), rho=1.0, L=2.0 * math.pi)


def make(ntot, p, a=None):
    mp = ModelParams(**(REF if a is None else dict(REF, a=a)))
    mode = mode_params(mp, (0.0, 0.0, 1.0))
    return WuSector(ntot, p, mode), mp, mode


def backsub_eigvec(matrix, n):
    """Independent referee: back-substitution on the upper-bidiagonal matrix."""
    lam = matrix[n, n]
    v = np.zeros(matrix.shape[0])
    v[n] = 1.0
    for s in range(n - 1, -1, -1):
        v[s] = matrix[s, s + 1] * v[s + 1] / (lam - matrix[s, s])
    return v / np.linalg.norm(v)


class TestSector:
    def test_dimension(self):
        sector, *_ = make(9, 1)
        assert sector.dim == 5

    def test_occupations_conserve_total(self):
        sector, *_ = make(11, 3)
        for s in range(sector.dim):
            occ = sector.occupations(s)
            assert all(v >= 0 for v in occ)
            assert sum(occ) == 11

    def test_invalid_inputs(self):
        mode = make(4, 0)[2]
        with pytest.raises(ValueError):
            WuSector(0, 0, mode)
        with pytest.raises(ValueError):
            WuSector(4, 5, mode)


class TestWuYtilde:
    def test_reference_value(self):
        sector, mp, mode = make(4, 0)
        expect = (8 * math.pi * mp.a) / ((2 * math.pi) ** 3 * math.sqrt(2.0))
        assert wu_ytilde(mode, mp) == pytest.approx(expect, rel=1e-15)

    def test_free_limit_flags_zero(self):
        mp = ModelParams(a=0.0, rho=1.0, L=2 * math.pi)
        mode = mode_params(mp, (0.0, 0.0, 1.0))
        assert wu_ytilde(mode, mp) == 0.0

    def test_volume_scaling(self):
        _, mp, mode = make(4, 0)
        mp_half = ModelParams(a=mp.a, rho=mp.rho, L=mp.L / 2)
        assert wu_ytilde(mode, mp_half) / wu_ytilde(mode, mp) == pytest.approx(8.0, rel=1e-13)


class TestBuildTransformedWu:
    def test_two_particle_sector(self):
        sector, mp, mode = make(2, 0)
        m = build_transformed_wu(sector, mp)
        beta = 8 * math.pi * mp.a / mp.volume
        np.testing.assert_allclose(np.diag(m), [0.0, 2 * mode.epsilon])
        assert m[0, 1] == pytest.approx(beta * math.sqrt(2.0), rel=1e-14)
        assert m[1, 0] == 0.0

    def test_strictly_upper_triangular(self):
        for ntot, p in ((7, 1), (16, 4), (12, 0)):
            sector, mp, _ = make(ntot, p)
            m = build_transformed_wu(sector, mp)
            assert np.all(np.tril(m, -1) == 0.0)

    def test_spectrum_reads_off_diagonal(self):
        sector, mp, mode = make(9, 1)
        m = build_transformed_wu(sector, mp)
        np.testing.assert_allclose(
            np.diag(m), mode.epsilon * (2 * np.arange(sector.dim) + 1), rtol=1e-15
        )

    def test_free_gas_diagonal(self):
        sector, mp, mode = make(4, 0, a=0.0)
        m = build_transformed_wu(sector, mp)
        np.testing.assert_allclose(m, np.diag(mode.ksq * 2.0 * np.arange(3.0)))


class TestWuEigenstate:
    def test_top_of_triangle(self):
        sector, mp, _ = make(5, 3)
        v = wu_eigenstate(sector, mp, 0)
        np.testing.assert_allclose(v, [1.0, 0.0])

    def test_two_particle_back_substitution(self):
        sector, mp, _ = make(2, 0)
        m = build_transformed_wu(sector, mp)
        v = wu_eigenstate(sector, mp, 1)
        np.testing.assert_allclose(v, backsub_eigvec(m, 1), rtol=1e-12)

    def test_four_particle_spectrum(self):
        sector, mp, mode = make(4, 0)
        m = build_transformed_wu(sector, mp)
        np.testing.assert_allclose(np.diag(m), mode.epsilon * np.array([0.0, 2.0, 4.0]))

    def test_matches_back_substitution_referee(self):
        sector, mp, _ = make(13, 1)
        m = build_transformed_wu(sector, mp)
        for n in range(sector.dim):
            mine = wu_eigenstate(sector, mp, n)
            ref = backsub_eigvec(m, n)
            if np.dot(mine, ref) < 0:
                ref = -ref
            np.testing.assert_allclose(mine, ref, atol=1e-12)

    def test_frozen_weight_regression(self):
        # combinatorial weight [C(p+s,s) C(Ntot-p, 2s) (2s)!]^(-1/2) with
        # coupling ytilde/2; ratios frozen from the sector-operator referee
        sector, mp, _ = make(4, 0)
        ytil = wu_ytilde(sector.mode, mp)
        v = wu_eigenstate(sector, mp, 2)
        assert v[1] / v[2] == pytest.approx(ytil * math.sqrt(2.0), rel=1e-12)
        assert v[0] / v[2] == pytest.approx(ytil**2 * math.sqrt(6.0) / 2.0, rel=1e-12)

    def test_large_sector_top_index(self):
        # C(Ntot, 2s) (2s)! overflows a double from Ntot = 180 on
        sector, mp, mode = make(180, 0)
        n = sector.dim - 1
        v = wu_eigenstate(sector, mp, n)
        m = build_transformed_wu(sector, mp)
        lam = mode.epsilon * 2 * n
        assert np.all(np.isfinite(v))
        assert np.linalg.norm(m @ v - lam * v) <= 1e-10 * lam

    def test_bad_index_rejected(self):
        sector, mp, _ = make(4, 0)
        with pytest.raises(ValueError):
            wu_eigenstate(sector, mp, 3)


class TestApplyExpW:
    def test_free_limit_identity(self):
        sector, mp, _ = make(6, 0, a=0.0)
        x = np.arange(1.0, sector.dim + 1)
        np.testing.assert_allclose(apply_exp_w(x, sector, mp), x)

    def test_single_application(self):
        sector, mp, mode = make(2, 0)
        out = apply_exp_w(np.array([1.0, 0.0]), sector, mp)
        np.testing.assert_allclose(
            out, [1.0, -mode.alpha / 2.0 * math.sqrt(2.0)], rtol=1e-14
        )

    def test_nilpotency(self):
        # W^dim vanishes, so the exponential series terminates exactly
        sector, mp, _ = make(10, 2)
        from pairspec.wu_sector import _w_matrix

        w = _w_matrix(sector, mp, 1.0)
        assert np.all(np.linalg.matrix_power(w, sector.dim) == 0.0)

    def test_inverse_pair(self):
        rng = np.random.default_rng(8)
        for ntot, p in ((5, 1), (16, 0), (12, 4)):
            sector, mp, _ = make(ntot, p)
            x = rng.standard_normal(sector.dim)
            y = apply_exp_w(apply_exp_w(x, sector, mp, 1.0), sector, mp, -1.0)
            assert np.max(np.abs(y - x)) <= 1e-13 * np.max(np.abs(x))

    def test_shape_checked(self):
        sector, mp, _ = make(4, 0)
        with pytest.raises(ValueError):
            apply_exp_w(np.ones(5), sector, mp)
