import math

import numpy as np
import pytest

from pairspec.fock_ladder import LadderState, inner
from pairspec.hypergeom import (
    contiguous_residual,
    derivative_residual,
    f_family,
    f_recurrence_residual,
    gram_witness,
    hyp_f,
    projection_sweep,
    transported_state,
)
from pairspec.lattice import alpha_c


class TestHypF:
    def test_unit_when_b_zero(self):
        for z in (0.3, -2.0, 0.2 + 0.5j):
            assert hyp_f(5.0, 0, 1.0, z) == 1.0

    def test_two_term_sum(self):
        z = 0.7
        assert hyp_f(-1, -1, 1, z) == pytest.approx(1 + z)

    def test_pochhammer_ratio(self):
        z = 0.25
        assert hyp_f(-2, -1, 1, z) == pytest.approx(1 + 2 * z)

    def test_terminates_on_second_parameter(self):
        # b = -1 cuts the series before a = -5 would
        z = 1.5
        assert hyp_f(-5, -1, 2, z) == pytest.approx(1 + (-5) * (-1) / 2 * z)

    def test_nonterminating_rejected(self):
        with pytest.raises(ValueError):
            hyp_f(0.5, 0.5, 1.0, 0.3)

    def test_bad_denominator_rejected(self):
        with pytest.raises(ValueError):
            hyp_f(-5, -5, -2, 0.3)

    def test_denominator_ok_if_terminates_first(self):
        assert hyp_f(-1, -3, -2, 0.5) == pytest.approx(1 + (-1) * (-3) / (-2) * 0.5)


class TestContiguous:
    def test_hand_check(self):
        z = 0.7
        assert contiguous_residual(1, 1, 0, z) == pytest.approx(0.0, abs=1e-14)
        # LHS of that instance is z itself
        assert 1 * z * hyp_f(0, -1, 1, z) == pytest.approx(z)

    def test_m_zero_trivial(self):
        for n, p in ((0, 0), (2, 1), (4, 3)):
            assert contiguous_residual(0, n, p, 0.9) == pytest.approx(0.0, abs=1e-13)

    def test_exceptional_case(self):
        assert contiguous_residual(2, 0, 1, 0.3) == pytest.approx(0.0, abs=1e-14)


class TestDerivative:
    def test_b_zero_trivial(self):
        assert derivative_residual(-1, 0.0, 1.0) <= 1e-15

    def test_positive_a_rejected(self):
        with pytest.raises(ValueError):
            derivative_residual(1, 0.0, 1.0)


class TestFFamily:
    def test_leading_term_only(self):
        for n in range(4):
            assert f_family(n, 2, 0.7, np.array([1.0]), 0.5) == pytest.approx(1.0)

    def test_n_zero_weighted_series(self):
        d = np.array([0.3, -0.2, 0.5])
        z = 0.4
        p = 2
        expect = sum(
            d[m] * math.sqrt(math.comb(p + m, m)) * z**m for m in range(3)
        )
        assert f_family(0, p, 1.3, d, z) == pytest.approx(expect, rel=1e-13)

    def test_affine_example(self):
        # d = [0, 1], p = 0, unit coupling: f_N(z) = z + N
        for n in range(4):
            for z in (0.4, 0.9, 0.3 - 0.2j):
                assert f_family(n, 0, 1.0, np.array([0.0, 1.0]), z) == pytest.approx(z + n)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            f_family(1, 0, 1.0, np.array([1.0]), 0.0)


class TestFRecurrence:
    def test_constant_test_state(self):
        assert f_recurrence_residual(2, 1, 0.8, np.array([1.0]), 0.5) <= 1e-14

    def test_affine_hand_check(self):
        assert f_recurrence_residual(1, 0, 1.0, np.array([0.0, 1.0]), 0.4) <= 1e-13

    def test_random_sweep(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(0, 5))
            p = int(rng.integers(0, 5))
            ytil = rng.uniform(0.5, 2.0)
            d = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            z = complex(rng.uniform(0.2, 0.9), rng.uniform(-0.3, 0.3))
            r = f_recurrence_residual(n, p, ytil, d, z)
            scale = max(1.0, abs(f_family(n, p, ytil, d, z)))
            assert r <= 1e-11 * scale


class TestGramWitness:
    def test_single_state_norm(self):
        y = 1.0 / math.sqrt(8.0)
        ac = alpha_c(y)
        sv = gram_witness(0, y, 0, 60)
        assert sv.shape == (1,)
        assert sv[0] == pytest.approx(1.0, rel=1e-12)
        # pre-normalization norm of the transported vacuum is geometric
        v = transported_state(0, 0, y, 200)
        assert v.norm() ** 2 == pytest.approx(1.0 / (1.0 - ac**2), rel=1e-12)

    def test_unit_coupling_family_positive(self):
        sv = gram_witness(0, 1.0 / math.sqrt(8.0), 3, 60)
        assert sv.shape == (4,)
        assert sv.min() > 1e-8 * sv.max()

    def test_cross_ladder_orthogonality(self):
        a = transported_state(0, 2, 0.45, 80)
        b = transported_state(1, 2, 0.45, 80)
        assert inner(a, b) == 0

    def test_short_truncation_rejected(self):
        with pytest.raises(ValueError):
            gram_witness(0, 0.45, 8, 40)

    def test_stability_under_doubling(self):
        sv80 = gram_witness(1, 0.45, 4, 80)
        sv160 = gram_witness(1, 0.45, 4, 160)
        assert abs(sv80[-1] - sv160[-1]) < 0.01 * sv80[-1]


class TestProjectionSweep:
    def test_monotone_and_completing(self):
        rng = np.random.default_rng(7)
        profile = (0.6 ** np.arange(81)) * rng.uniform(0.5, 1.0, 81)
        st = LadderState(0, profile)
        projs = projection_sweep(st, 0.45, 8, 80)
        assert np.all(np.diff(projs) >= -1e-14)
        assert projs[-1] > 0.8
        assert 1 - projs[-1] < 0.5 * (1 - projs[0])

    def test_finite_eigenstate_projects_fully(self):
        # a transported member of the family lies in its own span
        st = transported_state(0, 3, 0.45, 80)
        projs = projection_sweep(st, 0.45, 5, 80)
        assert projs[-1] == pytest.approx(1.0, abs=1e-10)
