import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from pairspec.eigenstates import EigenstateSpec, psi_p_theta, residual
from pairspec.fock_ladder import LadderState
from pairspec.hypergeom import transported_state
from pairspec.lattice import ModelParams, alpha_c, ytilde_from_y
from pairspec.pair_transform import (
    DomainVerdict,
    apply_exp_pair,
    conjugation_check,
    depletion_report,
    domain_check,
    mode_ground_state,
    pair_occupancy,
)


def state(p, coeffs):
    return LadderState(p, np.array(coeffs, dtype=complex))


class TestApplyExpPair:
    def test_vacuum_becomes_geometric(self):
        out = apply_exp_pair(state(0, [1] + [0] * 7), -0.5)
        np.testing.assert_allclose(out.coeffs, (-0.5) ** np.arange(8.0), atol=1e-15)

    def test_zero_amplitude_is_identity(self):
        st = state(1, [1, 2, 3])
        out = apply_exp_pair(st, 0.0)
        np.testing.assert_allclose(out.coeffs, st.coeffs)

    def test_two_term_convolution(self):
        # input c = [1, 1] on p = 0: C'_m = (-a)^(m-1) (m - a) for m >= 1
        alpha = 0.3
        out = apply_exp_pair(state(0, [1, 1]).padded(9), -alpha)
        m = np.arange(1, 10)
        expect = np.concatenate(([1.0], (-alpha) ** (m - 1) * (m - alpha)))
        np.testing.assert_allclose(out.coeffs, expect, atol=1e-14)

    def test_inverse_on_finite_states(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            p = int(rng.integers(0, 4))
            alpha = rng.uniform(0.05, 0.5)
            support = int(rng.integers(1, 9))
            st = state(p, rng.standard_normal(support) + 1j * rng.standard_normal(support))
            st = st.padded(24)
            back = apply_exp_pair(apply_exp_pair(st, -alpha), alpha)
            keep = 24 - support  # below the truncation echo of the support
            np.testing.assert_allclose(
                back.coeffs[: keep + 1], st.coeffs[: keep + 1], atol=1e-9
            )

    def test_eigenstate_transport(self):
        for y in (0.3, 0.45):
            ac = alpha_c(y)
            ytil = ytilde_from_y(y)
            for p in range(3):
                for n in range(4):
                    st = psi_p_theta(EigenstateSpec(p, n, ytil, n)).padded(300)
                    moved = apply_exp_pair(st, -ac)
                    e_ab = (1 - 2 * ac * y) * (p / 2 + n) - ac * y
                    assert residual(moved, y, y, e_ab) <= 1e-8 * moved.norm()


EPS = 2.0**-53
# every floating-point warning inside the transform fails these tests
RAISE = dict(over="raise", invalid="raise", divide="raise")


def loop_reference(C, t):
    """The former math.comb double loop, kept as the accuracy baseline."""
    n = len(C)
    out = np.zeros(n, dtype=complex)
    for m in range(n):
        for s in np.flatnonzero(C[: m + 1]):
            out[m] += C[s] * math.comb(m, int(s)) * t ** (m - int(s))
    return out


def mp_reference(C, t):
    """Exact-enough shift and the sum of term magnitudes, per m, in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    n = len(C)
    with mpmath.workdps(60):
        fact = [mpmath.factorial(k) for k in range(n)]
        tpow = [mpmath.mpf(t) ** k for k in range(n)]
        exact = [mpmath.mpc(0)] * n
        absum = [mpmath.mpf(0)] * n
        for s in np.flatnonzero(C):
            cs = mpmath.mpc(complex(C[s]))
            for m in range(s, n):
                term = cs * fact[m] / (fact[s] * fact[m - s]) * tpow[m - s]
                exact[m] += term
                absum[m] += abs(term)
        return np.array([complex(v) for v in exact]), np.array([float(v) for v in absum])


def assert_within_bound(got, exact, absum):
    """|error_m| <= 4 (m+1) eps sum_s |C_s C(m,s) t^(m-s)| for every m."""
    bound = 4.0 * (np.arange(len(got)) + 1.0) * EPS * absum
    assert np.all(np.abs(got - exact) <= bound)


class TestBinomialShiftReferees:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        hs.lists(hs.integers(-(2**20), 2**20), min_size=1, max_size=40),
        hs.integers(-15, 15),
        hs.integers(0, 12),
    )
    def test_exact_fraction_shift(self, numerators, t_num, scale):
        # dyadic inputs and t: every term is exact in Fraction, and the double
        # inputs carry no rounding of their own
        t = Fraction(t_num, 16)
        C = [Fraction(k, 2**scale) for k in numerators]
        n = len(C)
        with np.errstate(**RAISE):
            got = apply_exp_pair(state(0, [float(c) for c in C]), float(t)).coeffs
        exact = np.zeros(n)
        absum = np.zeros(n)
        for m in range(n):
            terms = [C[s] * math.comb(m, s) * t ** (m - s) for s in range(m + 1)]
            exact[m] = float(sum(terms))
            absum[m] = float(sum(abs(v) for v in terms))
        assert_within_bound(got, exact, absum)

    @pytest.mark.parametrize(("n", "support", "t", "seed"), [
        (150, 150, -0.9, 1),
        (300, 25, 0.6, 2),
        (600, 30, -0.3, 3),
    ])
    def test_mpmath_random_states(self, n, support, t, seed):
        rng = np.random.default_rng(seed)
        C = np.zeros(n, dtype=complex)
        idx = rng.choice(n, size=support, replace=False)
        C[idx] = (rng.standard_normal(support) + 1j * rng.standard_normal(support)) * 0.97**idx
        with np.errstate(**RAISE):
            got = apply_exp_pair(state(0, C), t).coeffs
        assert_within_bound(got, *mp_reference(C, t))

    def test_mpmath_cancelling_transported_state(self):
        # y = 0.3, N = 40: the alternating sums cancel by about eight digits
        y, N, smax = 0.3, 40, 599
        base = psi_p_theta(EigenstateSpec(0, N, ytilde_from_y(y), N)).padded(smax).coeffs
        t = -alpha_c(y)
        with np.errstate(**RAISE):
            got = transported_state(0, N, y, smax).coeffs
        exact, absum = mp_reference(base, t)
        assert_within_bound(got, exact, absum)
        rel = np.linalg.norm(got - exact) / np.linalg.norm(exact)
        rel_loop = np.linalg.norm(loop_reference(base, t) - exact) / np.linalg.norm(exact)
        assert rel <= rel_loop

    def test_large_binomials_closed_form(self):
        # binom(1100, 550) ~ 1e329 is beyond double range, its terms are not
        s0, n, t = 550, 1101, -0.5
        c = np.zeros(n, dtype=complex)
        c[s0] = 1.0
        with np.errstate(**RAISE):
            out = apply_exp_pair(LadderState(0, c), t).coeffs
        assert np.all(out[:s0] == 0)
        m = np.arange(s0, n)
        lg = np.vectorize(math.lgamma)
        want = np.exp(
            lg(m + 1.0) - lg(s0 + 1.0) - lg(m - s0 + 1.0) + (m - s0) * math.log(-t)
        ) * (-1.0) ** (m - s0)
        np.testing.assert_allclose(out[s0:], want, rtol=1e-11, atol=0)

    def test_far_apart_coefficients_keep_their_range(self):
        # the intermediate binomials reach 1e557, every output stays below 1e4
        c = np.zeros(2001, dtype=complex)
        c[0] = c[1999] = 1.0
        with np.errstate(**RAISE):
            out = apply_exp_pair(LadderState(0, c), -0.9).coeffs
        assert out[1999] == pytest.approx(1.0, rel=1e-12)
        assert out[2000] == pytest.approx(-1800.0, rel=1e-12)

    def test_subnormal_coefficient_keeps_its_phase(self):
        out = apply_exp_pair(state(0, [1, 1e-320, 0, 0]), -0.1).coeffs
        np.testing.assert_allclose(out, [1, -0.1, 0.01, -0.001], rtol=1e-15, atol=0)

    def test_unrepresentable_image_refused(self):
        # true image of e_1500 reaches ~1e833
        c = np.zeros(3001, dtype=complex)
        c[1500] = 1.0
        with np.errstate(**RAISE), pytest.raises(ValueError, match="beyond double range"):
            apply_exp_pair(LadderState(0, c), -0.9)


def log_coeffs(coeffs, n):
    """Complex logs of coeffs padded with zeros (real part -inf) to n entries."""
    out = np.full(n, -np.inf, dtype=complex)
    with np.errstate(divide="ignore"):
        out[: len(coeffs)] = np.log(np.asarray(coeffs, dtype=complex))
    return out


class TestDomainCheck:
    def test_finite_states_in_domain(self):
        coeffs = psi_p_theta(EigenstateSpec(0, 3, 1.0, 3)).coeffs
        assert domain_check(log_coeffs(coeffs, 201), 0.7, 0, 200) is DomainVerdict.IN_DOMAIN

    def test_geometric_growth_rejected(self):
        for phase in (0.0, math.pi / 2):  # a global phase leaves the verdict alone
            log_c = np.arange(201) * math.log(2.0) + 1j * phase
            assert domain_check(log_c, 0.9, 0, 200) is DomainVerdict.NOT_IN_DOMAIN

    def test_geometric_decay_accepted(self):
        log_c = np.arange(201) * math.log(0.5)
        assert domain_check(log_c, 0.3, 0, 200) is DomainVerdict.IN_DOMAIN

    def test_deep_cancellation_is_inconclusive(self):
        # true transform decays, but the alternating sums cancel far below
        # double precision; the honest verdict is "cannot certify"
        log_c = np.arange(201) * math.log(0.5)
        assert domain_check(log_c, 0.9, 0, 200) is DomainVerdict.INCONCLUSIVE

    @pytest.mark.parametrize("ratio, alpha, horizon", [(0.7, 0.9, 400), (0.7, 0.9, 2000), (0.6, 0.95, 1800)])
    def test_cancellation_stays_inconclusive_at_long_horizons(self, ratio, alpha, horizon):
        # at the two long horizons the noise ceiling passes 1e154, so the
        # squared partial norms must be summed in log space
        log_c = np.arange(horizon + 1) * math.log(ratio)
        assert domain_check(log_c, alpha, 0, horizon) is DomainVerdict.INCONCLUSIVE

    def test_zero_state_in_domain(self):
        assert domain_check(log_coeffs([1.0], 151), 0.5, 0, 150) is DomainVerdict.IN_DOMAIN

    def test_normalizable_noninteger_label_still_excluded(self):
        # above unit coupling the state is square-summable, yet its branch
        # point maps inside the unit disk, so the transform must reject it
        ytil = 1.5
        y = math.sqrt(ytil**2 / (1.0 + 4.0 * ytil**2))
        coeffs = psi_p_theta(EigenstateSpec(0, 0.5, ytil, 400)).coeffs
        verdict = domain_check(np.log(coeffs), alpha_c(y), 0, 400)
        assert verdict is DomainVerdict.NOT_IN_DOMAIN

    @pytest.mark.parametrize("horizon", [300, 400])
    def test_undone_pair_transform_never_rejected(self, horizon):
        # c_s = alpha^s is exp(alpha a*b*)|vac>, so exp(-alpha a*b*) maps it
        # back to the vacuum; every transformed c_m (m > 0) is pure
        # cancellation noise, and a noise ceiling set too low would read that
        # noise as geometric growth
        for alpha in [i / 100 for i in range(55, 71)]:
            log_c = np.arange(horizon + 1) * math.log(alpha)
            verdict = domain_check(log_c, alpha, 0, horizon)
            assert verdict is not DomainVerdict.NOT_IN_DOMAIN, alpha

    def test_growth_beyond_double_range_rejected(self):
        # c_200 = 1e400 has no double, its logarithm does
        log_c = np.arange(201) * math.log(100.0)
        assert domain_check(log_c, 0.5, 0, 200) is DomainVerdict.NOT_IN_DOMAIN

    def test_beyond_extended_range_refused(self):
        log_c = np.arange(201) * math.log(1e30)  # c_200 = 1e6000
        with pytest.raises(ValueError, match="beyond extended range"):
            domain_check(log_c, 0.5, 0, 200)

    def test_short_horizon_rejected(self):
        with pytest.raises(ValueError):
            domain_check(np.full(51, -np.inf), 0.5, 0, 50)

    def test_short_input_rejected(self):
        with pytest.raises(ValueError, match="c_0..c_150"):
            domain_check(np.zeros(150), 0.5, 0, 150)

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            domain_check(np.full(151, -np.inf), 0.0, 0, 150)
        with pytest.raises(ValueError):
            domain_check(np.full(151, -np.inf), 1.0, 0, 150)


class TestConjugation:
    def test_zero_amplitude(self):
        assert conjugation_check(0.0, 8) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.3, 0.9])
    def test_identity_exact(self, alpha):
        assert conjugation_check(alpha, 12) <= 1e-12

    def test_small_truncation_rejected(self):
        with pytest.raises(ValueError):
            conjugation_check(0.5, 3)


class TestGroundState:
    def test_zero_amplitude_is_vacuum(self):
        st = mode_ground_state(0.0, 5)
        np.testing.assert_allclose(st.coeffs, [1, 0, 0, 0, 0, 0])

    def test_norm_squared(self):
        st = mode_ground_state(0.5, 60)
        assert st.norm() ** 2 == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_occupancy_closed_form(self):
        for alpha in (0.1, 0.5, 0.9):
            st = mode_ground_state(alpha, 600)
            assert pair_occupancy(st) == pytest.approx(
                alpha**2 / (1 - alpha**2), abs=1e-10
            )

    def test_unnormalizable_rejected(self):
        with pytest.raises(ValueError):
            mode_ground_state(1.0, 10)


class TestDepletionReport:
    def test_report_fields(self):
        mp = ModelParams(a=1 / (16 * math.pi), rho=1.0, L=2 * math.pi)
        rep = depletion_report(mp, 2)
        assert rep["N"] == pytest.approx(mp.rho * mp.L**3)
        assert rep["depletion"] > 0
        assert len(rep["per_mode"]) == 62
        total = sum(occ for _, occ in rep["per_mode"])
        assert rep["depletion"] == pytest.approx(total)

    def test_free_gas_no_depletion(self):
        rep = depletion_report(ModelParams(a=0.0, rho=1.0, L=2 * math.pi), 1)
        assert rep["depletion"] == 0.0
