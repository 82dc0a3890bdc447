import math
import time
import tracemalloc

import numpy as np
import pytest

from pairspec.cli import main
from pairspec.lattice import ModelParams, mode_params
from pairspec.wu_sector import (
    WuSector,
    _wu_eigenvectors,
    apply_exp_w,
    build_transformed_wu,
    wu_eigenstate,
    wu_ytilde,
)
from test_live_prefix import MODE, MP, wu_reference
from test_pair_transform import needs_x87

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
    @needs_x87
    def test_small_sectors_within_budget(self):
        # two of the benchmark's N = 170 sectors, one block of 85 or 86 rows each.
        # Taking the logs out to the block's last index (wu_reference) makes half
        # the x87 entries -inf, each an assist: 3.5-4.9 ms CPU for the two on a
        # shared 2-vCPU VM, against 1.2-1.8 ms.  That host's speed drifts by up to
        # 2x for seconds at a time, so the budget is a share of the reference's
        # time, each the best of 5, interleaved
        sectors = [WuSector(170, p, MODE) for p in (0, 1)]
        routes = {
            "kernel": lambda: [list(_wu_eigenvectors(s, MP, range(s.dim))) for s in sectors],
            "reference": lambda: [wu_reference(s, range(s.dim)) for s in sectors],
        }
        best = dict.fromkeys(routes, math.inf)
        for _ in range(5):
            for name, route in routes.items():
                t0 = time.thread_time()  # this thread: BLAS workers and other processes do not count
                route()
                best[name] = min(best[name], time.thread_time() - t0)
        assert best["kernel"] < 0.7 * best["reference"]  # 0.35-0.38 here, 1.00 for the old route

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
        np.testing.assert_allclose(apply_exp_w(x, sector), x)

    def test_single_application(self):
        sector, mp, mode = make(2, 0)
        out = apply_exp_w(np.array([1.0, 0.0]), sector)
        np.testing.assert_allclose(
            out, [1.0, -mode.alpha / 2.0 * math.sqrt(2.0)], rtol=1e-14
        )

    def test_inverse_pair(self):
        rng = np.random.default_rng(8)
        for ntot, p in ((5, 1), (16, 0), (12, 4)):
            sector, mp, _ = make(ntot, p)
            x = rng.standard_normal(sector.dim)
            y = apply_exp_w(apply_exp_w(x, sector, 1.0), sector, -1.0)
            assert np.max(np.abs(y - x)) <= 1e-13 * np.max(np.abs(x))

    def test_shape_checked(self):
        sector, mp, _ = make(4, 0)
        with pytest.raises(ValueError):
            apply_exp_w(np.ones(5), sector)

    @pytest.mark.parametrize("ntot, every", [(50, 1), (200, 10)])
    @pytest.mark.parametrize("p", [0, 1])
    def test_matches_mpmath_columns(self, ntot, every, p):
        # exp(W)[m, s] = prod_{j=s}^{m-1} w_j / (m-s)! from the closed-form
        # couplings, summed at 40 digits over the eigenvectors' entries
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        mp = ModelParams(a=0.0198944, rho=1.0, L=2.0 * math.pi)
        sector = WuSector(ntot, p, mode_params(mp, (1.0, 0.0, 0.0)))
        alpha = mpmath.mpf(sector.mode.alpha)
        w = [
            -alpha / ntot * mpmath.sqrt((p + s + 1) * (s + 1)) * mpmath.sqrt(n0 * (n0 - 1))
            for s in range(sector.dim - 1)
            for n0 in [ntot - p - 2 * s]
        ]
        for n in range(0, sector.dim, every):
            v = wu_eigenstate(sector, mp, n)
            ref = [mpmath.mpf(0)] * sector.dim
            for s in np.flatnonzero(v):
                term = mpmath.mpf(v[s])
                ref[s] += term
                for m in range(s + 1, sector.dim):
                    term *= w[m - 1] / (m - s)
                    ref[m] += term
            ref = np.array([float(x) for x in ref])
            err = np.linalg.norm(apply_exp_w(v, sector) - ref) / np.linalg.norm(ref)
            assert err <= 1e-12, (n, err)

    def test_image_beyond_double_range_refused(self):
        mp = ModelParams(a=0.3, rho=1.0, L=2.0 * math.pi)
        sector = WuSector(12000, 0, mode_params(mp, (1.0, 0.0, 0.0)))
        with pytest.raises(ValueError, match="beyond double range"):
            apply_exp_w(np.ones(sector.dim), sector)

    def test_non_finite_state_refused(self):
        sector, mp, _ = make(6, 0)
        with pytest.raises(ValueError, match="finite"):
            apply_exp_w(np.array([1.0, math.nan, 0.0, 0.0]), sector)


class TestWuCliMemory:
    def test_report_is_linear_in_memory(self, capsys):
        # the banded route holds O(dim) numbers; a dense dim x dim sector
        # matrix at N = 2000 alone is 8 MB
        tracemalloc.start()
        try:
            code = main(["wu", "--a", "0.0198944", "--rho", "1", "--L", "6.2831853",
                         "--N", "2000", "--p", "0", "--kn", "0,0,1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak <= 2 * 2**20, peak
