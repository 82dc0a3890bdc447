import math
import re
from fractions import Fraction

import numpy as np
import pytest

from pairspec.fock_ladder import LadderState, inner
from pairspec.hypergeom import (
    _contiguous_residual,
    _shifted_rows,
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

    @pytest.mark.parametrize("a, b, c, z, shown", [
        (-300, -300, 1, 50.0, "z=50.0"),  # the sum is nan
        (-2, -2, 1, 1e200, "z=1e+200"),  # the sum is inf
        (-2, -2, 1, math.nan, "z=nan"),
        (0, -1, 1, math.inf, "z=inf"),  # a sum of one term, but z is not finite
    ], ids=["nan-sum", "inf-sum", "nan-z", "inf-z"])
    def test_non_finite_refused(self, a, b, c, z, shown):
        message = f"F(a={a}, b={b}, c={c}; {shown}) is not finite in double precision"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            hyp_f(a, b, c, z)

    # every term is positive at z > 0, so rounding stays near N eps relative;
    # measured 1.2e-16 to 1.7e-15
    @pytest.mark.parametrize("a, b, c", [(-60, -60, 1), (-60, -61, 3), (-300, -300, 1),
                                         (-300, -200, 5)])
    def test_mpmath_at_large_n(self, a, b, c):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            want = complex(mpmath.hyp2f1(a, b, c, mpmath.mpf(0.3)))
        assert abs(hyp_f(a, b, c, 0.3) - want) <= 1e-14 * abs(want)


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

    # in int64, p+1+2N wraps at N = 2^62; at N = 2^63 - 1 the wraps of -(p+1+2N)
    # and p+1+N cancel, since F at b = -N and -N-1 is one double, so that row
    # also takes p = 2^63 - 1, where c = p+1 wraps
    @pytest.mark.parametrize("m, N, p, z", [(2, 2**62, 0, 0.5), (2, 2**63 - 1, 2**63 - 1, 0.5)],
                             ids=["N-2^62", "N-and-p-2^63-1"])
    def test_counts_near_2_63_against_fractions(self, m, N, p, z):
        def exact_f(a, b, c):  # a = -m or 1-m terminates the sum first
            total, term = Fraction(0), Fraction(1)
            for k in range(-a + 1):
                total += term
                term *= Fraction((a + k) * (b + k), (c + k) * (k + 1)) * Fraction(z)
            return total

        lhs = m * Fraction(z) * exact_f(-m + 1, -N, p + 1)
        terms = [-(p + 1 + 2 * N) * exact_f(-m, -N, p + 1), (p + 1 + N) * exact_f(-m, -N - 1, p + 1),
                 N * exact_f(-m, -N + 1, p + 1)]
        assert sum(terms) == lhs
        scale = float(abs(lhs) + sum(map(abs, terms)))
        got_lhs, got_rhs = map(complex, _contiguous_residual(m, N, p, z))
        assert abs(got_lhs - float(lhs)) <= 1e-15 * float(lhs)  # one product of a positive sum
        assert abs(got_rhs - float(lhs)) <= 1e-15 * scale
        assert abs(contiguous_residual(m, N, p, z)) <= 1e-15 * scale


class TestDerivative:
    def test_b_zero_trivial(self):
        assert derivative_residual(-1, 0.0, 1.0) <= 1e-15

    def test_positive_a_rejected(self):
        with pytest.raises(ValueError):
            derivative_residual(1, 0.0, 1.0)

    def test_relative_at_rounding_level(self):
        # the terms reach 1.5e13 at m = 50; unscaled, the mismatch read 0.0039
        assert derivative_residual(-50, 0.5, 2.0) <= 1e-15

    def test_terms_beyond_double_range_refused(self):
        # at m = 200 the Pochhammer products overflow; the unscaled maximum
        # skipped the NaN mismatches and returned 1.7e41
        with pytest.raises(ValueError, match=r"^the derivative identity at a=-200, b=0.5, c=2.0 has terms "
                                             r"beyond double range$"):
            derivative_residual(-200, 0.5, 2.0)

    def test_equals_the_scalar_pochhammer_loop(self):
        # the running products along s are the same sequential products as one
        # scalar loop over s, so every value and every refusal matches bit for bit
        # (a RuntimeWarning on the way, as at m = 200, fails under pyproject.toml's filter)
        grid = [(a, b, c) for a in range(-60, 0) for b in (0, -1, -2, 0.5, 1.7, -3.3)
                for c in (1, 2, 3.5, 0.7, 5)]
        for a, b, c in grid + [(-200, 0.5, 2.0), (-171, 0.5, 1), (-3, 1e300, 1.0)]:
            want = _scalar_derivative_residual(a, b, c)
            if want is None:
                with pytest.raises(ValueError, match="has terms beyond double range$"):
                    derivative_residual(a, b, c)
            else:
                assert derivative_residual(a, b, c) == want, (a, b, c)


def _scalar_derivative_residual(a, b, c):
    """derivative_residual's mismatch by one scalar loop over s, or None where
    a term is beyond double range."""
    m = -a
    floor = float(np.finfo(float).tiny / np.finfo(float).eps)
    worst, poch_a, poch_a1, poch_b, poch_c, fact = 0.0, 1.0, 1.0, 1.0, 1.0, 1.0
    for s in range(m + 1):
        t_lhs = (m - s) * poch_a * poch_b / (poch_c * fact)
        t_rhs = m * poch_a1 * poch_b / (poch_c * fact)
        if not (math.isfinite(t_lhs) and math.isfinite(t_rhs)):
            return None
        worst = max(worst, abs(t_lhs - t_rhs) / (abs(t_lhs) + abs(t_rhs) + floor))
        poch_a *= a + s
        poch_a1 *= a + 1 + s
        poch_b *= b + s
        poch_c *= c + s
        fact *= s + 1.0
    return worst


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

    @pytest.mark.parametrize("ytil, z, message", [
        (0.0, 0.5, "^ytilde must be finite and > 0, got 0.0$"),  # ZeroDivisionError before
        (math.inf, 0.5, "^ytilde must be finite and > 0, got inf$"),
        (1.0, math.nan, "^z must be finite, got nan$"),  # NaN before
        (1.0, complex(0.5, math.inf), r"^z must be finite, got \(0.5\+infj\)$"),
    ])
    def test_label_refused(self, ytil, z, message):
        with pytest.raises(ValueError, match=message):
            f_family(2, 0, ytil, [1.0, 2.0], z)

    def test_mpmath_definition(self):
        # the defining sum, one 40-digit 2F1 per coefficient, against the
        # polynomial f_family evaluates; the worst measured 3.8e-15
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(1)
        for _ in range(200):
            n, p, ytil = int(rng.integers(0, 30)), int(rng.integers(0, 6)), float(rng.uniform(0.3, 3.0))
            length = int(rng.integers(1, 40))
            d = rng.standard_normal(length) + 1j * rng.standard_normal(length)
            z = complex(rng.uniform(0.05, 2.0), rng.uniform(-0.5, 0.5))
            with mpmath.workdps(40):
                zm = mpmath.mpc(z)
                w = 1 / (mpmath.mpf(ytil) * zm)
                want = complex(mpmath.fsum(
                    mpmath.conj(mpmath.mpc(dm)) * zm**m * mpmath.sqrt(mpmath.binomial(p + m, m))
                    * mpmath.hyp2f1(-m, -n, p + 1, w) for m, dm in enumerate(d)))
            assert abs(f_family(n, p, ytil, d, z) - want) <= 1e-13 * max(1.0, abs(want)), (n, p, ytil, z)


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

    @pytest.mark.parametrize("y", [1e-200, 1e-100])
    def test_tiny_coupling_whose_squares_overflow(self, y):
        # the N = 1 state's entries pass 1e154 here: numpy's row norms overflowed, the
        # witness read [1, 0] at y = 1e-200 with a warning, and its Gram is the identity
        np.testing.assert_allclose(gram_witness(0, y, 1, 20), [1.0, 1.0], rtol=1e-12)


def meixner_reference(p, N, y, smax, dps=40):
    """(-alpha_c)^m sqrt((p+1)_m / m!) F(-N, -m; p+1; 1 - 1/alpha_c^2) in mpmath.

    The terminating sum runs as a Horner scheme in the falling factorials
    (-m)_k: acc <- c_k + (k - m) acc, with c_k = (-N)_k z^k / ((p+1)_k k!).
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        y = mpmath.mpf(y)
        ac = 2 * y / (1 + mpmath.sqrt(1 - 4 * y * y))
        z = 1 - 1 / (ac * ac)
        c = [mpmath.mpf(1)]
        for k in range(N):
            c.append(c[-1] * (k - N) * z / ((p + 1 + k) * (k + 1)))
        out = np.empty(smax + 1)
        pref = mpmath.mpf(1)
        for m in range(smax + 1):
            if m:
                pref *= -ac * mpmath.sqrt(mpmath.mpf(p + m) / m)
            acc = c[N]
            for k in range(N - 1, -1, -1):
                acc = c[k] + (k - m) * acc
            out[m] = float(pref * acc)
    return out


class TestTransportedState:
    @pytest.mark.parametrize("y", [0.01, 0.1, 0.3, 0.45, 0.49])
    def test_mpmath_meixner_at_n63(self, y):
        # the binomial shift has lost every digit here; smax = 1280 holds the
        # whole y = 0.49 state, whose mass reaches m ~ 800
        want = meixner_reference(0, 63, y, 1280)
        got = transported_state(0, 63, y, 1280).coeffs
        assert np.all(got.imag == 0)
        assert np.linalg.norm(got.real - want) <= 1e-13 * np.linalg.norm(want)

    def test_mpmath_meixner_higher_ladder(self):
        want = meixner_reference(2, 30, 0.45, 400)
        got = transported_state(2, 30, 0.45, 400).coeffs.real
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_binomial_shift_referee(self):
        # the binomial route's own cancellation grows with y and N; on this
        # grid it still holds 1e-12 (at y = 0.3, p = 1 it does not by N = 16)
        for y in (0.1, 0.2, 0.25):
            for p in range(3):
                for N in range(17):
                    want = _shifted_rows(p, N, y, 200)
                    got = transported_state(p, N, y, 200).coeffs
                    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (y, p, N)

    def test_truncation_below_n(self):
        # the first smax + 1 coefficients, also when smax < N
        full = transported_state(1, 12, 0.3, 200).coeffs
        np.testing.assert_allclose(transported_state(1, 12, 0.3, 5).coeffs, full[:6], rtol=1e-14)

    def test_unrepresentable_state_refused(self):
        # c_200 / c_0 ~ ytilde^-200 ~ 1e1200 at y = 1e-6
        with pytest.raises(ValueError, match="beyond double range"):
            transported_state(0, 200, 1e-6, 300)

    @pytest.mark.parametrize("y", [0.0, 0.5, -0.1])
    def test_coupling_outside_range_rejected(self, y):
        with pytest.raises(ValueError, match="coupling"):
            transported_state(0, 2, y, 40)


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

    def test_complex_state_keeps_its_imaginary_part(self):
        # x = v0 + i v1 puts half its weight on v0 and half on v1
        v0, v1 = (transported_state(0, n, 0.45, 80).coeffs for n in (0, 1))
        v0, v1 = v0 / np.linalg.norm(v0), v1 / np.linalg.norm(v1)
        projs = projection_sweep(LadderState(0, v0 + 1j * v1), 0.45, 3, 80)
        np.testing.assert_allclose(projs, [0.5, 1.0, 1.0, 1.0], atol=1e-12)
        projs = projection_sweep(LadderState(0, 1j * v0), 0.45, 3, 80)
        np.testing.assert_allclose(projs, [1.0, 1.0, 1.0, 1.0], atol=1e-12)

    def test_state_whose_squares_overflow(self):
        # numpy's norms of [1e200, 1e200] overflow: the sweep warned and read [0, 0, 0]
        want = projection_sweep(LadderState(0, [1.0, 1.0]), 0.3, 2, 40)
        got = projection_sweep(LadderState(0, [1e200, 1e200]), 0.3, 2, 40)
        np.testing.assert_allclose(got, want, rtol=1e-15)
        np.testing.assert_allclose(got, [0.1975, 0.7462, 0.9438], atol=5e-5)

    def test_state_whose_squares_underflow(self):
        # numpy's norm of [1e-200, 1e-200] is 0: the sweep refused it as a zero state
        want = projection_sweep(LadderState(0, [1.0, 1.0]), 0.3, 2, 40)
        got = projection_sweep(LadderState(0, [1e-200, 1e-200]), 0.3, 2, 40)
        np.testing.assert_allclose(got, want, rtol=1e-15)
        np.testing.assert_allclose(got, [0.1975, 0.7462, 0.9438], atol=5e-5)

    @pytest.mark.parametrize("y", [1e-160, 1e-150])
    def test_tiny_coupling_whose_squares_overflow(self, y):
        # the transported states' row norms overflowed at y = 1e-160, which read [0.5, 0.5]
        np.testing.assert_allclose(projection_sweep(LadderState(0, [1.0, 1.0]), y, 1, 20), [0.5, 1.0], rtol=1e-12)

    @pytest.mark.parametrize("coeffs", [[1.5e308, 1.5e308], [1.5e308, 1.5e308j]], ids=["real", "complex"])
    def test_norm_beyond_double_range_refused(self, coeffs):
        with pytest.raises(ValueError, match="^the norm of the ladder state is beyond double range$"):
            projection_sweep(LadderState(0, coeffs), 0.3, 2, 40)

    def test_zero_state_refused(self):
        with pytest.raises(ValueError, match="nonzero state"):
            projection_sweep(LadderState(0, np.zeros(81)), 0.45, 3, 80)

    def test_state_longer_than_smax_refused(self):
        # numpy's matmul refused it before, on a core-dimension mismatch
        with pytest.raises(ValueError, match=r"^state has 100 coefficients, more than smax \+ 1 = 81$"):
            projection_sweep(LadderState(0, 0.5 ** np.arange(100)), 0.45, 3, 80)
