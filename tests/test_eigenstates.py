import math

import numpy as np
import pytest

from pairspec.eigenstates import (
    EigenstateSpec,
    Normalizability,
    classify_normalizable,
    coeff_log_magnitudes,
    partial_norms,
    psi_p_theta,
    recurrence_coeffs,
    residual,
    stirling_tail_limit,
    tail_constant,
)
from pairspec.fock_ladder import LadderState


class TestPsiPTheta:
    def test_single_pair_state(self):
        for ytil in (0.5, 1.0, 2.0):
            st = psi_p_theta(EigenstateSpec(0, 1, ytil, 4))
            np.testing.assert_allclose(st.coeffs, [1.0, 1.0 / ytil, 0, 0, 0])

    def test_imbalanced_state(self):
        st = psi_p_theta(EigenstateSpec(1, 1, 1.0, 3))
        np.testing.assert_allclose(st.coeffs, [1.0, 1.0 / math.sqrt(2.0), 0, 0])
        assert residual(st.padded(6), 1.0, 0.0, 1.5) < 1e-14

    def test_theta_zero_collapses(self):
        st = psi_p_theta(EigenstateSpec(7, 0, 0.3, 5))
        np.testing.assert_allclose(st.coeffs, [1, 0, 0, 0, 0, 0])
        assert residual(st, 0.3, 0.0, 3.5) < 1e-15

    def test_invalid_ytilde(self):
        with pytest.raises(ValueError):
            psi_p_theta(EigenstateSpec(0, 1, 0.0, 4))

    def test_normalize_flag(self):
        st = psi_p_theta(EigenstateSpec(0, 2, 1.5, 8), normalize=True)
        assert st.norm() == pytest.approx(1.0, rel=1e-14)

    def test_normalize_refused_for_divergent(self):
        with pytest.raises(ValueError):
            psi_p_theta(EigenstateSpec(0, 0.5, 0.5, 8), normalize=True)

    @pytest.mark.parametrize(("ytil", "smax", "largest"), [(0.01, 200, 156), (0.5, 2000, 1040)])
    def test_beyond_double_range(self, ytil, smax, largest):
        # ytilde^(-s) alone overflows from s = 155 (ytilde = 0.01) and s = 1024
        # (ytilde = 0.5); the coefficients themselves a few orders later
        with pytest.raises(ValueError, match=f"largest representable smax is {largest}$"):
            psi_p_theta(EigenstateSpec(0, 0.5, ytil, smax))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            c = psi_p_theta(EigenstateSpec(0, 0.5, ytil, largest)).coeffs
        # binom(1/2, s) = Gamma(3/2) / (s! Gamma(3/2 - s)), of sign (-1)^(s-1)
        s = np.arange(1, largest + 1)
        lg = np.vectorize(math.lgamma)
        want = -s * math.log(ytil) + math.lgamma(1.5) - lg(s + 1.0) - lg(1.5 - s)
        np.testing.assert_allclose(np.log(np.abs(c[1:])), want, rtol=0, atol=1e-10)
        assert np.all(np.sign(c[1:].real) == (-1.0) ** (s - 1))
        assert np.all(c.imag == 0)


class TestRecurrence:
    def test_terminating_energy(self):
        st = recurrence_coeffs(1.0, 0, 2.0, 6)
        np.testing.assert_allclose(st.coeffs, [1, 0.5, 0, 0, 0, 0, 0], atol=1e-16)

    def test_theta_zero(self):
        st = recurrence_coeffs(1.5, 3, 0.7, 5)
        np.testing.assert_allclose(st.coeffs, [1, 0, 0, 0, 0, 0], atol=1e-16)

    def test_hand_iterated_values(self):
        st = recurrence_coeffs(0.5, 0, 2.0, 2)
        np.testing.assert_allclose(st.coeffs, [1.0, 0.25, -0.03125], rtol=1e-15)

    def test_matches_formula_random(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            p = int(rng.integers(0, 6))
            theta = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            ytil = rng.uniform(0.2, 3.0)
            a = psi_p_theta(EigenstateSpec(p, theta, ytil, 25)).coeffs
            b = recurrence_coeffs(p / 2 + theta, p, ytil, 25).coeffs
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-250)


class TestClassification:
    def test_divergent_below_unit_coupling(self):
        assert (
            classify_normalizable(0.5, 2.5, 0) is Normalizability.NOT_NORMALIZABLE
        )

    def test_normalizable_above_unit_coupling(self):
        assert classify_normalizable(1.5, 2.5, 0) is Normalizability.NORMALIZABLE

    def test_integer_labels_terminate(self):
        for ytil in (0.2, 1.0, 5.0):
            assert classify_normalizable(ytil, 3, 2) is Normalizability.FINITE_SUM

    def test_boundary_coupling_uses_tail_exponent(self):
        # sum 1/s^(2 theta + 2 + p): converges iff the exponent exceeds 1
        assert classify_normalizable(1.0, 0.5, 0) is Normalizability.NORMALIZABLE
        assert classify_normalizable(1.0, -0.8, 0) is Normalizability.NOT_NORMALIZABLE

    def test_divergence_witness(self):
        norms = partial_norms(0.5, 0.5, 0, 200)
        assert norms.max() > 1e6

    def test_partial_norms_cauchy_when_normalizable(self):
        norms = partial_norms(1.5, 0.5, 0, 400)
        assert norms[-1] - norms[300] < 1e-10 * norms[300]


class TestTailConstant:
    @pytest.mark.parametrize(
        "theta,p,limit",
        [
            (0.5, 0, 1.0 / (4.0 * math.pi)),
            (0.5, 2, 1.0 / (2.0 * math.pi)),
            (-0.5, 0, 1.0 / math.pi),
        ],
    )
    def test_known_limits(self, theta, p, limit):
        assert stirling_tail_limit(theta, p) == pytest.approx(limit, rel=1e-12)
        ratios = tail_constant(1.0, theta, p, np.array([1000, 2000, 4000]))
        assert ratios[-1] == pytest.approx(limit, rel=0.05)

    def test_relative_drift_settles(self):
        ratios = tail_constant(1.0, 0.5, 0, np.arange(2000, 4001, 500))
        drift = np.max(np.abs(ratios - ratios[-1])) / ratios[-1]
        assert drift < 0.05

    def test_integer_theta_rejected(self):
        with pytest.raises(ValueError):
            tail_constant(1.0, 2.0, 0, np.array([10]))
        with pytest.raises(ValueError):
            coeff_log_magnitudes(1.0, 3.0, 0, 10)


class TestResidual:
    def test_exact_finite_eigenstates(self):
        for ytil in (0.5, 1.0, 2.0):
            for p in range(0, 21, 5):
                for n in range(0, 21, 5):
                    st = psi_p_theta(EigenstateSpec(p, n, ytil, n + 2))
                    assert residual(st, ytil, 0.0, p / 2 + n) <= 1e-12 * st.norm()

    def test_generic_state_fails(self):
        rng = np.random.default_rng(2)
        st = LadderState(0, rng.standard_normal(10))
        assert residual(st, 0.4, 0.0, 1.23) > 1e-3

    def test_boundary_row_excluded(self):
        # a truncated infinite state looks exact away from the boundary
        st = psi_p_theta(EigenstateSpec(0, 2.5, 1.5, 40))
        assert residual(st, 1.5, 0.0, 2.5) <= 1e-12 * st.norm()


class TestCollapseLimit:
    def test_small_coupling_localizes(self):
        overlaps = []
        for ytil in (0.1, 0.01, 0.001):
            st = psi_p_theta(EigenstateSpec(2, 3, ytil, 6), normalize=True)
            overlaps.append(abs(st.coeffs[3]))
        assert overlaps[0] < overlaps[1] < overlaps[2]
        assert overlaps[-1] > 1.0 - 1e-4
