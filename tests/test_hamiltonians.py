import math

import numpy as np
import pytest

from pairspec.fock_ladder import LadderState
from pairspec.hamiltonians import apply_hab_alpha, bog_energy_ab, build_tridiagonal, lhy_block
from pairspec.lattice import ModelParams, mode_params
from pairspec.oracle import sym_tridiag_eig


def state(p, coeffs):
    return LadderState(p, np.array(coeffs, dtype=complex))


class TestApplyHabAlpha:
    def test_pure_number_operator(self):
        out = apply_hab_alpha(state(0, [1, 1]), 0.0, 0.0)
        np.testing.assert_allclose(out.coeffs, [0, 1])

    def test_eigenstate_at_unit_energy(self):
        ytil = 0.35
        out = apply_hab_alpha(state(0, [1, 1 / ytil]), ytil, 0.0)
        np.testing.assert_allclose(out.coeffs, [1, 1 / ytil], rtol=1e-14)

    def test_pair_creation_on_vacuum(self):
        y = 0.3
        out = apply_hab_alpha(state(0, [1]), y, y)
        np.testing.assert_allclose(out.coeffs, [0, y])

    @pytest.mark.parametrize("y1, y2", [(math.nan, 0.1), (0.1, math.inf)])
    def test_non_finite_couplings_rejected(self, y1, y2):
        # the wording of build_tridiagonal's guard; NaN was returned before
        with pytest.raises(ValueError, match=f"^couplings must be finite, got y1={y1}, y2={y2}$"):
            apply_hab_alpha(state(0, [1.0, 0.5]), y1, y2)


class TestBuildTridiagonal:
    def test_symmetric_two_by_two(self):
        y = 0.3
        m = build_tridiagonal(0, y, y, 1).dense()
        np.testing.assert_allclose(m, [[0, y], [y, 1]])

    def test_bidiagonal_spectrum_on_diagonal(self):
        m = build_tridiagonal(0, 0.7, 0.0, 5)
        assert np.all(m.sub == 0.0)
        np.testing.assert_allclose(m.diag, np.arange(6.0))

    def test_imbalanced_entries(self):
        m = build_tridiagonal(2, 0.1, 0.1, 1).dense()
        np.testing.assert_allclose(
            m, [[1.0, 0.1 * math.sqrt(3.0)], [0.1 * math.sqrt(3.0), 2.0]]
        )

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            build_tridiagonal(0, 0.1, 0.1, 0)

    def test_non_integer_p_rejected(self):
        with pytest.raises(ValueError, match="^p must be an integer >= 0, got 1.5$"):
            build_tridiagonal(1.5, 0.3, 0.3, 3)

    @pytest.mark.parametrize("smax, message", [
        (2.5, "^smax must be an integer >= 1, got 2.5$"),  # was a block whose dense() failed
        (-1, "^smax must be an integer >= 1, got -1$"),
        (0, "^smax must be an integer >= 1, got 0$"),
    ], ids=["fraction", "negative", "zero"])
    def test_bad_smax_rejected(self, smax, message):
        with pytest.raises(ValueError, match=message):
            build_tridiagonal(0, 0.3, 0.3, smax)

    @pytest.mark.parametrize("y1, y2", [(math.inf, 0.3), (0.3, -math.inf), (math.nan, 0.3), (0.3, math.nan)])
    def test_non_finite_couplings_rejected(self, y1, y2):
        with pytest.raises(ValueError, match=f"^couplings must be finite, got y1={y1}, y2={y2}$"):
            build_tridiagonal(0, y1, y2, 4)

    def test_matches_operator_action(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            p = int(rng.integers(0, 4))
            smax = int(rng.integers(2, 24))
            y1, y2 = rng.uniform(0.05, 0.8, 2)
            c = rng.standard_normal(smax + 1) + 1j * rng.standard_normal(smax + 1)
            st = LadderState(p, c)
            via_matrix = build_tridiagonal(p, y1, y2, smax).matvec(c)
            via_op = apply_hab_alpha(st, y1, y2).coeffs[: smax + 1]
            np.testing.assert_allclose(via_matrix, via_op, atol=1e-13)

    def test_hermitian_case_symmetric(self):
        m = build_tridiagonal(1, 0.25, 0.25, 6).dense()
        np.testing.assert_allclose(m, m.T)


class TestBogEnergy:
    def test_free_limit(self):
        assert bog_energy_ab(0.0, 2, 3) == pytest.approx(3 + 1.0)

    def test_reference_values(self):
        assert bog_energy_ab(0.3, 0, 0) == pytest.approx(-0.1, abs=1e-15)
        assert bog_energy_ab(0.3, 0, 1) == pytest.approx(0.7, abs=1e-14)

    def test_spacing(self):
        de = bog_energy_ab(0.3, 0, 4) - bog_energy_ab(0.3, 0, 3)
        assert de == pytest.approx(0.8, rel=1e-14)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bog_energy_ab(0.6, 0, 0)
        with pytest.raises(ValueError):
            bog_energy_ab(0.3, -1, 0)
        with pytest.raises(ValueError, match="^p must be an integer >= 0, got 1.5$"):
            bog_energy_ab(0.3, 1.5, 2)

    def test_oracle_confirms_closed_form(self):
        # truncated Hermitian block vs the dense referee
        y, smax = 0.3, 120
        block = build_tridiagonal(0, y, y, smax)
        vals = sym_tridiag_eig(block.diag, block.super_)
        for n in range(4):
            assert vals[n] == pytest.approx(bog_energy_ab(y, 0, n), abs=1e-10)


class TestLhyBlock:
    def test_free_gas(self):
        mp = ModelParams(a=0.0, rho=1.0, L=2 * math.pi)
        mode = mode_params(mp, (0.0, 1.0, 1.0))
        for p, n in ((1, 0), (0, 2), (3, 1)):
            assert lhy_block(mode, p, n) == pytest.approx((2 * n + p) * mode.ksq, rel=1e-12)

    def test_single_quantum(self):
        mp = ModelParams(a=1 / (16 * math.pi), rho=1.0, L=2 * math.pi)
        mode = mode_params(mp, (0.0, 0.0, 1.0))
        assert lhy_block(mode, 1, 0) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_single_pair(self):
        mp = ModelParams(a=1 / (16 * math.pi), rho=1.0, L=2 * math.pi)
        mode = mode_params(mp, (0.0, 0.0, 1.0))
        assert lhy_block(mode, 0, 1) == pytest.approx(2 * math.sqrt(2.0), rel=1e-12)

    def test_matches_quasiparticle_count(self):
        mp = ModelParams(a=0.02, rho=3.0, L=5.0)
        mode = mode_params(mp, (2 * math.pi / 5.0, 0.0, 0.0))
        for p in range(4):
            for n in range(4):
                assert lhy_block(mode, p, n) == pytest.approx(
                    (2 * n + p) * mode.epsilon, rel=1e-11
                )
