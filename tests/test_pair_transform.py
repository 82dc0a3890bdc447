import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from pairspec import pair_transform
from pairspec.eigenstates import (
    EigenstateSpec,
    Normalizability,
    _transform_in_domain,
    classify_normalizable,
    psi_p_theta,
    residual,
)
from pairspec.fock_ladder import LadderState
from pairspec.genfunc import DiskClass, from_state, mobius, singularity_radius
from pairspec.lattice import ModelParams, alpha_c, ytilde_from_y
from pairspec.pair_transform import (
    apply_exp_pair,
    conjugation_check,
    depletion_report,
    mode_ground_state,
    pair_occupancy,
)

# the rounding-level bounds and the command pins hold where the extended type
# of the kernels is x87 80-bit (see pair_transform._EXT)
needs_x87 = pytest.mark.skipif(np.finfo(pair_transform._EXT).nmant != 63,
                               reason="needs x87 extended precision")


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

    def test_dense_2000_within_budget(self):
        # rounding every column whole took about 0.23 s on a shared 2-vCPU VM,
        # most of it x87 underflow assists on the entries that round to zero;
        # the live prefixes take about 0.04 s
        rng = np.random.default_rng(2000)
        st = LadderState(0, 0.7 ** np.arange(2000) * np.exp(2j * np.pi * rng.random(2000)))
        t0 = time.process_time()  # CPU time: other processes on the host do not count
        out = apply_exp_pair(st, -0.05)
        elapsed = time.process_time() - t0
        assert np.all(np.isfinite(out.coeffs))
        assert elapsed < 0.1


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
        base = psi_p_theta(EigenstateSpec(0, N, ytilde_from_y(y), N)).padded(smax)
        t = -alpha_c(y)
        with np.errstate(**RAISE):
            got = apply_exp_pair(base, t).coeffs
        base = base.coeffs
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


@pytest.mark.parametrize("p", [1, 3, 10])
def test_mpmath_log_rescale(p):
    # log sqrt(s!/(p+s)!) from 40-digit log-Gammas; two logs near s log s may
    # not be differenced in double
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        want = [float((mpmath.loggamma(s + 1) - mpmath.loggamma(p + s + 1)) / 2) for s in range(4000)]
    assert np.max(np.abs(pair_transform._log_rescale(p, 4000) - want)) <= 1e-13


def mapped_coupling_slope(ytil, theta, p, alpha, orders):
    """Slope of log|c'_m|^2 against log m over the given orders, c' = exp(-alpha a*b*) c
    for the (p, theta) state at coupling ytil, each c'_m summed in 50-digit mpmath
    as C'_m = sum_s C_s C(m, s) (-alpha)^(m-s), C_s = sqrt(s!/(p+s)!) c_s (up to
    a constant factor, which the slope ignores)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        theta, ytil, alpha = mpmath.mpc(theta), mpmath.mpf(ytil), mpmath.mpf(alpha)
        C = [mpmath.mpc(1)]
        for s in range(1, max(orders) + 1):  # C_s / C_{s-1} = (theta + 1 - s) / ((p + s) ytilde)
            C.append(C[-1] * (theta + 1 - s) / ((p + s) * ytil))
        logs = []
        for m in orders:
            term, total = mpmath.mpf(1), mpmath.mpc(0)  # term = C(m, s) (-alpha)^(m-s), from s = m down
            for s in range(m, -1, -1):
                total += C[s] * term
                term *= -alpha * s / (m - s + 1)
            log_rescale = mpmath.loggamma(p + m + 1) - mpmath.loggamma(m + 1)
            logs.append(float(log_rescale + 2 * mpmath.log(abs(total))))
    return np.polyfit(np.log(orders), logs, 1)[0]


class TestDomainCheck:
    """The transform-domain verdict eigenstate --transform prints: the
    closed form eigenstates._transform_in_domain."""

    def test_finite_states_in_domain(self):
        for ytil in (1e-3, 1.0, 5.0):
            assert _transform_in_domain(ytil, 3, 0, 0.7)
            assert _transform_in_domain(ytil, 3.0, 2, 0.999)

    def test_geometric_growth_rejected(self):
        for theta in (0.5, 0.5 + 3j):  # away from ytilde' = 1 the imaginary part plays no role
            assert not _transform_in_domain(0.5, theta, 0, 0.9)  # c_s ~ 2^s

    def test_geometric_decay_accepted(self):
        for theta in (0.5, -2.5 + 1j):
            assert _transform_in_domain(2.0, theta, 1, 0.3)  # ytilde (1 - alpha) = 1.4

    def test_zero_state_in_domain(self):
        # theta = 0 is the vacuum, c_s = 0 past s = 0, at every coupling
        assert _transform_in_domain(1e-300, 0.0, 0, 0.5)

    def test_normalizable_noninteger_label_still_excluded(self):
        # above unit coupling the state is square-summable, yet its branch
        # point maps inside the unit disk, so the transform must reject it
        ytil = 1.5
        y = math.sqrt(ytil**2 / (1.0 + 4.0 * ytil**2))
        assert classify_normalizable(ytil, 0.5, 0) is Normalizability.NORMALIZABLE
        assert not _transform_in_domain(ytil, 0.5, 0, alpha_c(y))

    def test_growth_beyond_double_range_rejected(self):
        # c_200 of this state is about 1e400: no coefficient is formed
        assert not _transform_in_domain(0.01, 0.5, 0, 0.5)

    def test_alpha_range_enforced(self):
        for alpha in (0.0, 1.0, -0.1, 1.5, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^alpha must lie in \\(0, 1\\), got {alpha}$"):
                _transform_in_domain(2.0, 0.5, 0, alpha)

    def test_nan_refused(self):
        with pytest.raises(ValueError, match="^theta must be finite, got"):
            _transform_in_domain(2.0, complex(math.nan, 0.0), 0, 0.5)

    def test_grid_against_the_moebius_series(self):
        # the referees: mobius transports the state's series, singularity_radius
        # classifies the image's radius; the band |ytilde' - 1| < 0.1 is left
        # out, and classes are compared, not radii, since the estimate is
        # biased on fast-decaying tails
        rng = np.random.default_rng(31)
        labels = []
        while len(labels) < 60:
            ytil, alpha = rng.uniform(0.5, 4.0), rng.uniform(0.02, 0.9)
            if abs(ytil / (1.0 + alpha * ytil) - 1.0) >= 0.1:
                labels.append((ytil, alpha, int(rng.integers(0, 4)), rng.uniform(-3.0, 6.0)))
        sides = set()
        for ytil, alpha, p, theta in labels:
            g = from_state(psi_p_theta(EigenstateSpec(p, theta, ytil, 400)))
            _, disk = singularity_radius(mobius(g, alpha))
            in_domain = _transform_in_domain(ytil, theta, p, alpha)
            assert disk is (DiskClass.ANALYTIC_IN_DISK if in_domain else DiskClass.SINGULAR_IN_DISK), (
                ytil, alpha, p, theta)
            sides.add(in_domain)
        assert sides == {True, False}

    @pytest.mark.parametrize("theta, p", [(-0.8, 0), (0.3, 0), (-0.6, 1), (0.5 + 0.4j, 2)])
    def test_exponent_decides_at_unit_mapped_coupling(self, theta, p):
        # ytilde = 2, alpha = 1/2: ytilde' = 1 exactly, where |c'_m|^2 ~ m^-(2 Re theta + 2 + p)
        exponent = 2.0 * complex(theta).real + 2.0 + p
        slope = mapped_coupling_slope(2.0, theta, p, 0.5, [200, 250, 300, 350, 400])
        assert slope == pytest.approx(-exponent, abs=0.05)
        assert _transform_in_domain(2.0, theta, p, 0.5) is (exponent > 1.0)


class TestConjugation:
    def test_zero_amplitude(self):
        assert conjugation_check(0.0, 8) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.3, 0.9])
    def test_identity_exact(self, alpha):
        assert conjugation_check(alpha, 12) <= 1e-12

    def test_small_truncation_rejected(self):
        with pytest.raises(ValueError):
            conjugation_check(0.5, 3)

    @needs_x87
    @pytest.mark.parametrize("alpha, smax", [(0.9, 30), (0.9, 200), (0.2, 40), (1e-20, 300),
                                             (3.0, 20), (-0.5, 20)])
    def test_rounding_level(self, alpha, smax):
        # alpha = 1e-20 at smax = 300 has terms below extended range; they
        # count as zero, not as a relative deviation of 1
        assert conjugation_check(alpha, smax) < 1e-16

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_refused(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            conjugation_check(alpha, 10)

    def test_terms_beyond_extended_range_refused(self):
        with pytest.raises(ValueError, match="beyond extended range"):
            conjugation_check(1e300, 20)

    @staticmethod
    def _break_column(monkeypatch, factor):
        """Multiply column s = 3 of the kernel by factor."""
        columns = pair_transform._binomial_columns

        def broken(num, leads):
            for s, col in columns(num, leads):
                yield s, col * factor if s == 3 else col

        monkeypatch.setattr(pair_transform, "_binomial_columns", broken)

    def test_scaled_column_is_seen(self, monkeypatch):
        self._break_column(monkeypatch, 1.0 + 1e-9)
        assert conjugation_check(0.5, 12) >= 1e-10

    def test_nan_in_kernel_is_not_dropped(self, monkeypatch):
        self._break_column(monkeypatch, math.nan)
        with pytest.raises(ValueError, match="beyond extended range"):
            conjugation_check(0.5, 12)

    def test_kernel_at_plus_alpha_is_seen(self, monkeypatch):
        numerators = pair_transform._taylor_numerators
        monkeypatch.setattr(pair_transform, "_taylor_numerators", lambda t, n: numerators(-t, n))
        assert conjugation_check(0.5, 12) >= 0.5


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

    def test_non_integer_smax_rejected(self):
        # was a 4-entry state
        with pytest.raises(ValueError, match="^smax must be an integer >= 0, got 2.5$"):
            mode_ground_state(0.5, 2.5)

    def test_zero_state_occupancy_is_zero(self):
        assert pair_occupancy(state(0, [0.0, 0.0, 0.0])) == 0.0

    # |c|^2 of these leaves double range: it overflows (inf/inf) or underflows
    # to a zero state unless the magnitudes are scaled first
    @pytest.mark.parametrize("c", [1e200, 1e-200])
    def test_occupancy_beyond_squared_range(self, c):
        assert pair_occupancy(state(0, [c, c])) == 0.5


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
