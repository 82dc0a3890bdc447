import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from pairspec import pair_transform
from pairspec.eigenstates import (
    EigenstateSpec,
    _log_terms,
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


    def test_tiny_theta(self):
        # theta + 1 - 1 rounds to 0 for theta = 1e-17, so a route through
        # theta + 1 - j read c_s = 0 from s = 2 on (c_2 is about -5e583) and
        # log|c_s| = -inf from s = 1 on
        with pytest.raises(ValueError, match="largest representable smax is 1$"):
            psi_p_theta(EigenstateSpec(0, 1e-17, 1e-300, 50))
        assert coeff_log_magnitudes(1.0, 1e-17, 0, 3)[1] == pytest.approx(math.log(1e-17), rel=1e-15)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = psi_p_theta(EigenstateSpec(0, 5e-324, 0.5, 50)).coeffs
        assert c[1] == 2 * 5e-324 and np.all(np.isfinite(c))


def _mpmath_coeffs(p, theta, ytil, smax):
    """c_s = ytilde^(-s) binom(theta, s) binom(p+s, s)^(-1/2) at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        th, y = mpmath.mpc(theta), mpmath.mpf(ytil)
        return [y ** (-s) * mpmath.binomial(th, s) / mpmath.sqrt(mpmath.binomial(p + s, s))
                for s in range(smax + 1)]


_RNG = np.random.default_rng(5)
# labels that the former double product held in range, and labels past which
# it had to fall back to log space: ytilde^(-s) overflows from s = 155 at
# ytilde = 0.01 and from s = 237 at ytilde = 0.05; C(p+s, s) overflows from
# s = 89 at p = 10^5; and c_s stays in double range throughout
_IN_RANGE = [(int(_RNG.integers(0, 6)), complex(*_RNG.uniform(-4, 4, 2)), float(_RNG.uniform(0.2, 3.0)), 30)
             for _ in range(40)]
_LARGE_S = [(0, 0.5, 0.01, 156), (40, 0.3 + 0.2j, 0.05, 250), (10**5, 0.5 + 0.3j, 0.01, 300),
            (10**5, -2.5, 0.02, 300), (2000, -0.5, 0.5, 300)] + [
    (int(_RNG.integers(0, 41)), complex(*_RNG.uniform(-4, 4, 2)), float(_RNG.uniform(0.5, 2.0)), 300)
    for _ in range(5)]


# (labels, bound where _EXT is x87, bound where it is double); measured worst:
# 2.0e-15 and 8.8e-15 on x87, 1.3e-14 and 4.4e-13 in double
@pytest.mark.parametrize("labels, x87_bound, double_bound", [(_IN_RANGE, 1e-14, 5e-14),
                                                             (_LARGE_S, 5e-14, 1e-12)],
                         ids=["smax-30", "smax-300"])
def test_mpmath_coefficients(labels, x87_bound, double_bound):
    mpmath = pytest.importorskip("mpmath")
    bound = x87_bound if np.finfo(pair_transform._EXT).nmant == 63 else double_bound
    worst = 0.0
    for label in labels:
        c = psi_p_theta(EigenstateSpec(*label)).coeffs
        with mpmath.workdps(40):
            worst = max(worst, *(float(abs(mpmath.mpc(got) - want) / abs(want))
                                 for got, want in zip(c, _mpmath_coeffs(*label))))
    assert worst <= bound


@pytest.mark.parametrize("theta", [0.5, -0.5, 2.5, -3.3, 7.7, 5.0, 0.0, 12.0])
@pytest.mark.parametrize("ytil", [0.01, 0.8, 3.0])
def test_real_theta_imaginary_parts_are_positive_zero(theta, ytil):
    # the unit phases are exactly +-1, and c_s past a terminating theta is +0.0
    c = psi_p_theta(EigenstateSpec(3, theta, ytil, 120)).coeffs
    assert not np.signbit(c.imag).any() and np.all(c.imag == 0.0)
    top = int(theta) + 1 if float(theta).is_integer() else len(c)
    assert np.all(c[1:top] != 0.0)
    assert not np.signbit(c.real[top:]).any() and np.all(c.real[top:] == 0.0)


def test_complex_phases_match_sequential_products():
    # numpy's complex multiply may fuse multiply-adds (AVX-512); the running
    # product must equal CPython's sequential one bit for bit, on every host
    rng = np.random.default_rng(11)
    for _ in range(200):
        p, theta, ytil = int(rng.integers(0, 6)), complex(*rng.uniform(-4, 4, 2)), float(rng.uniform(0.2, 3.0))
        log_mag, phase = _log_terms(ytil, theta, p, 30)
        steps = theta - np.arange(30.0)
        want = [1.0 + 0.0j]
        for step, size in zip(steps.tolist(), np.abs(steps).tolist()):  # numpy's |step|, not CPython's
            want.append(want[-1] * complex(step.real / size, step.imag / size))
        assert phase.tobytes() == np.array(want).tobytes()
        c = psi_p_theta(EigenstateSpec(p, theta, ytil, 30)).coeffs
        assert c.tobytes() == (phase * np.exp(log_mag).astype(float)).tobytes()


# the four functions that take a coupling share one guard
@pytest.mark.parametrize("ytil", [math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda ytil: psi_p_theta(EigenstateSpec(0, 0.5, ytil, 10)),
    lambda ytil: recurrence_coeffs(1.0, 0, ytil, 10),
    lambda ytil: classify_normalizable(ytil, 0.5, 0),
    lambda ytil: coeff_log_magnitudes(ytil, 0.5, 0, 10),
], ids=["psi_p_theta", "recurrence_coeffs", "classify_normalizable", "coeff_log_magnitudes"])
def test_non_finite_ytilde_refused(call, ytil):
    with pytest.raises(ValueError, match="ytilde must be finite and > 0"):
        call(ytil)


def _count(name, value):
    return re.escape(f"{name} must be an integer >= 0, got {value}") + "$"


def _beyond(index):
    return f"c_{index} .* is beyond double range; the largest representable smax is {index - 1}$"


# one guard per label quantity (p and smax, theta or the energy, ytilde), and
# one refusal per result beyond double range, each with its own message
@pytest.mark.parametrize(("call", "message"), [
    (lambda: psi_p_theta(EigenstateSpec(1.5, 0.5, 1.0, 3)), _count("p", 1.5)),
    (lambda: EigenstateSpec(0, 0.5, math.nan, 3), "ytilde must be finite and > 0, got nan$"),
    (lambda: classify_normalizable(1.0, math.nan, 0), "theta must be finite, got nan$"),
    (lambda: classify_normalizable(2.0, math.inf, 0), "theta must be finite, got inf$"),
    (lambda: classify_normalizable(1.0, 0.5, -5), _count("p", -5)),
    (lambda: classify_normalizable(1.0, 0.5, 1.5), _count("p", 1.5)),
    (lambda: recurrence_coeffs(math.nan, 0, 1.0, 3), "energy must be finite, got nan$"),
    (lambda: recurrence_coeffs(math.inf, 0, 1.0, 3), "energy must be finite, got inf$"),
    (lambda: recurrence_coeffs(1.0, -1, 1.0, 3), _count("p", -1)),
    (lambda: recurrence_coeffs(1.0, 0, 1.0, -1), _count("smax", -1)),
    (lambda: coeff_log_magnitudes(1.0, 0.5, 0, -1), _count("smax", -1)),
    (lambda: coeff_log_magnitudes(1.0, 0.5, -1, 10), _count("p", -1)),
    (lambda: coeff_log_magnitudes(1.0, 0.5, 1.5, 10), _count("p", 1.5)),
    (lambda: partial_norms(1.0, 0.5, 0, -1), _count("smax", -1)),
    (lambda: partial_norms(1.0, 0.5, -1, 10), _count("p", -1)),
    (lambda: partial_norms(1.0, 0.5, 1.5, 10), _count("p", 1.5)),
    (lambda: tail_constant(1.0, 0.5, 1.5, []), _count("p", 1.5)),
    (lambda: stirling_tail_limit(0.5, -3), _count("p", -3)),
    (lambda: stirling_tail_limit(0.5, -0.5), _count("p", -0.5)),
    (lambda: stirling_tail_limit(0.5, math.nan), _count("p", math.nan)),
    (lambda: recurrence_coeffs(0.5, 0, 1e-3, 300), "recurrence coefficient " + _beyond(104)),
    (lambda: partial_norms(0.3, 0.5, 0, 400), "partial norm through " + _beyond(303)),
    (lambda: partial_norms(0.5, 0.5, 0, 2000), "partial norm through " + _beyond(528)),
    (lambda: tail_constant(1.0, 0.5, 200, [5, 4000]), r"tail ratio r_4000 \(p=200, .* is beyond double range$"),
    (lambda: stirling_tail_limit(0.5, 200), r"Gamma\(-theta\)\^2 at p=200, theta=0.5 is beyond double range$"),
    (lambda: stirling_tail_limit(1e-300, 0),
     r"Gamma\(-theta\)\^2 at p=0, theta=1e-300 is below double's normal range$"),
    (lambda: stirling_tail_limit(-1e-300, 0),
     r"Gamma\(-theta\)\^2 at p=0, theta=-1e-300 is below double's normal range$"),
    (lambda: coeff_log_magnitudes(1.0, 0.5 + 1j, 0, 5), r"theta must be real, got \(0.5\+1j\)$"),
    (lambda: partial_norms(1.0, 0.5 - 2j, 0, 5), r"theta must be real, got \(0.5-2j\)$"),
    (lambda: tail_constant(1.0, 2 + 1j, 0, [5]), r"theta must be real, got \(2\+1j\)$"),
    (lambda: stirling_tail_limit(2 + 1j, 0), r"theta must be real, got \(2\+1j\)$"),
], ids=[
    "psi_p_theta-p", "spec-ytilde", "classify-theta-nan", "classify-theta-inf", "classify-p-neg",
    "classify-p-frac", "recurrence-energy-nan", "recurrence-energy-inf", "recurrence-p", "recurrence-smax",
    "log_magnitudes-smax", "log_magnitudes-p-neg", "log_magnitudes-p-frac", "partial_norms-smax",
    "partial_norms-p-neg", "partial_norms-p-frac", "tail_constant-p-empty", "stirling-p-neg",
    "stirling-p-frac", "stirling-p-nan", "recurrence-range", "partial_norms-range-0.3",
    "partial_norms-range-0.5", "tail_constant-range", "stirling-range",
    "stirling-underflow-plus", "stirling-underflow-minus", "log_magnitudes-theta-complex",
    "partial_norms-theta-complex", "tail_constant-theta-complex", "stirling-theta-complex",
])
def test_out_of_domain_label_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


_NEAR_INTEGER = hs.builds(lambda n, d: n + d, hs.integers(0, 50), hs.floats(-1e-3, 1e-3))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    hs.sampled_from([-1, 0, 1, 200, 1.5]),
    hs.one_of(_NEAR_INTEGER, hs.sampled_from([math.nan, math.inf, -math.inf])),
    hs.sampled_from([0.0, 1e-3, 1.0, 1e3, math.nan, math.inf]),
    hs.integers(-1, 2000),
)
def test_label_gives_finite_result_or_value_error(p, theta, ytil, smax):
    # every function of a label (p, theta, ytilde, smax) returns a finite
    # result or raises ValueError, with no RuntimeWarning on the way
    calls = [
        lambda: psi_p_theta(EigenstateSpec(p, theta, ytil, smax)).coeffs,
        lambda: recurrence_coeffs(p / 2 + theta, p, ytil, smax).coeffs,
        lambda: coeff_log_magnitudes(ytil, theta, p, smax),
        lambda: partial_norms(ytil, theta, p, smax),
        lambda: tail_constant(ytil, theta, p, [1, smax]),
        lambda: stirling_tail_limit(theta, p),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            assert isinstance(classify_normalizable(ytil, theta, p), Normalizability)
        except ValueError:
            pass
        for call in calls:
            try:
                out = call()
            except ValueError:
                continue
            assert np.all(np.isfinite(out))


def _unit(c):
    """c over its norm, taken from c scaled by its largest magnitude."""
    c = c / np.abs(c).max()
    return c / np.linalg.norm(c)


_HUGE_THETA = 1.5e308 + 1.5e308j  # |theta| > 1.8e308 with both parts finite

# (call, thunk for the wanted values): results whose intermediates overflow
# double although the result does not; each was refused or returned inf or 0
# before, and the rows run again in tests/test_float64_lane.py
RANGE_VALUES = [
    pytest.param(lambda: psi_p_theta(EigenstateSpec(0, _HUGE_THETA, 1e300, 3)).coeffs,
                 lambda: np.cumprod([1.0] + [(_HUGE_THETA - (s - 1)) / 1e300 / s for s in (1, 2, 3)]),
                 id="psi_p_theta-huge-complex-theta"),
    # the largest |c_s| is 1.9e297, so the squares of the norm overflow
    pytest.param(lambda: psi_p_theta(EigenstateSpec(0, 1000, 1.01, 1000), normalize=True).coeffs,
                 lambda: _unit(psi_p_theta(EigenstateSpec(0, 1000, 1.01, 1000)).coeffs),
                 id="psi_p_theta-normalize-theta-1000"),
    pytest.param(lambda: residual(LadderState(0, [1.0, 0.5, 0.0]), 0.3, 0.1, 1e200),
                 lambda: 1e200 * math.sqrt(1.25), id="residual-1e200"),
    pytest.param(lambda: LadderState(0, [3e300, 4e300j]).norm(), lambda: 5e300, id="norm-5e300"),
]


@pytest.mark.parametrize(("call", "want"), RANGE_VALUES)
def test_range_edge_values(call, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = call()
    np.testing.assert_allclose(got, want(), rtol=1e-13, atol=0)


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

    @pytest.mark.parametrize("ytil, theta, p", [(1.5, 0.5, 0), (0.8, -0.3, 2), (1.0, 2.5, 1)])
    def test_partial_norms_are_running_sums_of_squares(self, ytil, theta, p):
        # referee: the product-formula coefficients, squared and summed in order
        c = psi_p_theta(EigenstateSpec(p, theta, ytil, 300)).coeffs
        np.testing.assert_allclose(partial_norms(ytil, theta, p, 300), np.cumsum(np.abs(c) ** 2), rtol=1e-13)

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

    def test_index_zero_refused(self):
        # s^(2 theta + 2 + p) has no logarithm at s = 0
        with pytest.raises(ValueError, match="srange"):
            tail_constant(1.0, 0.5, 0, np.array([0, 5]))

    @pytest.mark.parametrize("theta, message", [(1.0, "nonnegative integer"), (0.0, "nonnegative integer"),
                                                (math.nan, "finite"), (math.inf, "finite")])
    def test_limit_without_tail_refused(self, theta, message):
        with pytest.raises(ValueError, match=message):
            stirling_tail_limit(theta, 0)

    def test_mpmath_log_magnitudes_at_large_index(self):
        # log|binom(theta, s)| through Gamma's reflection formula,
        # |Gamma(theta-s+1)| = pi / (|sin(pi (theta-s+1))| Gamma(s-theta)), at 40 digits
        mpmath = pytest.importorskip("mpmath")
        theta, smax = 0.5, 10**4
        with mpmath.workdps(40):
            th = mpmath.mpf(theta)
            want = [0.0] + [float(mpmath.loggamma(th + 1) - mpmath.loggamma(s + 1) - mpmath.log(mpmath.pi)
                                  + mpmath.log(abs(mpmath.sinpi(th - s + 1))) + mpmath.loggamma(s - th))
                            for s in range(1, smax + 1)]
        assert np.max(np.abs(coeff_log_magnitudes(1.0, theta, 0, smax) - want)) <= 1e-12

    def test_mpmath_limit(self):
        # exp turns the absolute rounding of the log, about eps times the sum of
        # the magnitudes of the lgammas, into relative error; its ratio to eps
        # times that sum measured at most 1.2 on these draws (relative error
        # 1.3e-13) and 3.2 on 3,000 others
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(83)
        checked = 0
        for theta, p in zip(rng.uniform(-3.7, 150.5, 300), rng.integers(0, 171, 300)):
            theta, p = float(theta), int(p)
            with mpmath.workdps(40):
                want = mpmath.gamma(1 + p) / mpmath.gamma(-mpmath.mpf(theta)) ** 2
            try:
                got = stirling_tail_limit(theta, p)
            except ValueError:  # refused only beyond double range
                assert want > np.finfo(float).max
                continue
            logs = max(1.0, math.lgamma(1.0 + p) + 2.0 * abs(math.lgamma(-theta)))
            assert abs(got - want) <= 8.0 * np.finfo(float).eps * logs * want, (theta, p)
            checked += 1
        assert checked >= 100

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
