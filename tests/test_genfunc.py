import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from pairspec.eigenstates import EigenstateSpec, psi_p_theta
from pairspec.fock_ladder import LadderState
from pairspec.genfunc import (
    DiskClass,
    GenFn,
    b_from_e,
    e_from_b,
    from_state,
    mobius,
    ode_residual,
    q_invariant,
    roots,
    singularity_radius,
    to_state,
)
from pairspec.hamiltonians import bog_energy_ab
from pairspec.lattice import alpha_c, y12, ytilde_from_y
from pairspec.pair_transform import apply_exp_pair
from test_pair_transform import EPS, RAISE, assert_within_bound


def state(p, coeffs):
    return LadderState(p, np.array(coeffs, dtype=complex))


def dense_series(n, ratio, seed):
    rng = np.random.default_rng(seed)
    return GenFn(0, ratio ** np.arange(n) * np.exp(2j * math.pi * rng.random(n)))


class TestRescaling:
    def test_trivial_at_p_zero(self):
        g = from_state(state(0, [1, 2, 3]))
        np.testing.assert_allclose(g.C, [1, 2, 3])

    def test_p_one_rescale(self):
        g = from_state(state(1, [1, 1]))
        np.testing.assert_allclose(g.C, [1, 1 / math.sqrt(2)], rtol=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            st = state(int(rng.integers(0, 6)), rng.standard_normal(20))
            back = to_state(from_state(st))
            np.testing.assert_allclose(back.coeffs, st.coeffs, rtol=1e-14, atol=1e-16)

    def test_negative_p_rejected(self):
        with pytest.raises(ValueError, match="^p must be an integer >= 0, got -1$"):
            GenFn(-1, [1, 1, 1])


class TestOdeResidual:
    def test_eigenstate_series_solves(self):
        ytil = ytilde_from_y(0.3)
        st = psi_p_theta(EigenstateSpec(0, 1, ytil, 6))
        assert ode_residual(from_state(st), 1.0, ytil, 0.0) <= 1e-14

    def test_vacuum_trivial(self):
        assert ode_residual(GenFn(0, [1.0]), 0.0, 0.0, 0.0) == 0.0

    def test_generic_series_fails(self):
        rng = np.random.default_rng(9)
        g = from_state(state(1, rng.standard_normal(12)))
        assert ode_residual(g, 1.3, 0.4, 0.2) > 1e-3

    def test_full_coupling_eigen_series(self):
        # transported eigenstates solve the ODE with both couplings present
        y = 0.3
        ac = alpha_c(y)
        ytil = ytilde_from_y(y)
        st = psi_p_theta(EigenstateSpec(1, 2, ytil, 2)).padded(80)
        moved = apply_exp_pair(st, -ac)
        e_ab = (1 - 2 * ac * y) * (1 / 2 + 2) - ac * y
        assert ode_residual(from_state(moved), e_ab, y, y) < 1e-11


class TestRoots:
    def test_symmetric_point(self):
        zp, zm = roots(0.3, 0.0)
        assert zp == pytest.approx(-1.0 / 3.0, rel=1e-14)
        assert zm == pytest.approx(-3.0, rel=1e-14)

    def test_product_unity_at_zero_amplitude(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            y = rng.uniform(0.02, 0.49)
            zp, zm = roots(y, 0.0)
            assert zp * zm == pytest.approx(1.0, rel=1e-12)

    def test_product_is_coupling_ratio(self):
        # general amplitude: z+ z- = y1/y2 (reduces to 1 only at alpha = 0)
        rng = np.random.default_rng(14)
        for _ in range(50):
            y = rng.uniform(0.02, 0.49)
            al = rng.uniform(0.0, alpha_c(y) * 0.999)
            zp, zm = roots(y, al)
            y1, y2 = y12(y, al)
            assert zp * zm == pytest.approx(y1 / y2, rel=1e-11)

    def test_critical_degeneration(self):
        y = 0.3
        zp, zm = roots(y, alpha_c(y))
        assert zp == pytest.approx(-ytilde_from_y(y), rel=1e-12)
        assert zm == -math.inf

    def test_escape_toward_critical(self):
        y = 0.3
        ac = alpha_c(y)
        magnitudes = [abs(roots(y, f * ac)[1]) for f in (0.9, 0.99, 0.999)]
        assert magnitudes[0] < magnitudes[1] < magnitudes[2]

    def test_exclusion_bounds(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            y = rng.uniform(0.02, 0.49)
            al = rng.uniform(0.0, alpha_c(y) * 0.999)
            zp, zm = roots(y, al)
            assert abs(zm) * (1 - al) > 1.0
            assert abs(zp) <= 1.0 / (1.0 - al) + 1e-12


class TestBEMaps:
    def test_round_trip(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            y = rng.uniform(0.05, 0.49)
            al = rng.uniform(0.0, alpha_c(y))
            p = int(rng.integers(0, 5))
            b = complex(rng.uniform(-3, 8), rng.uniform(-2, 2))
            e = e_from_b(b, p, y, al)
            assert b_from_e(e, p, y, al) == pytest.approx(b, abs=1e-12)

    def test_matches_block_spectrum_at_zero_amplitude(self):
        for m in range(6):
            e = e_from_b(m, 0, 0.3, 0.0)
            assert e == pytest.approx(bog_energy_ab(0.3, 0, m), abs=1e-14)

    def test_critical_amplitude_maps_integers_to_ladder(self):
        # finite-sum eigenstates (E = p/2 + N) sit at exponent B = N + p
        y = 0.3
        ac = alpha_c(y)
        for p in range(4):
            for n in range(4):
                b = b_from_e(p / 2 + n, p, y, ac)
                assert b == pytest.approx(n + p, abs=1e-9)
                assert e_from_b(n + p, p, y, ac) == pytest.approx(p / 2 + n, abs=1e-9)


class TestMobius:
    def test_constant_series(self):
        g = GenFn(0, [1, 0, 0, 0, 0])
        out = mobius(g, 0.4)
        np.testing.assert_allclose(out.C, (-0.4) ** np.arange(5.0), atol=1e-15)

    def test_linear_series(self):
        g = GenFn(0, [0, 1, 0, 0, 0])
        out = mobius(g, 0.5)
        np.testing.assert_allclose(out.C, [0, 1, -1, 0.75, -0.5], atol=1e-14)

    def test_zero_amplitude_identity(self):
        g = GenFn(2, [1, 2, 3])
        np.testing.assert_allclose(mobius(g, 0.0).C, g.C)

    def test_agrees_with_exponential_transform(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            p = int(rng.integers(0, 4))
            alpha = rng.uniform(0.05, 0.9)
            n = int(rng.integers(2, 11))
            st = state(p, rng.standard_normal(n) + 1j * rng.standard_normal(n)).padded(60)
            via_series = mobius(from_state(st), alpha).C
            via_conv = from_state(apply_exp_pair(st, -alpha)).C
            scale = max(1.0, float(np.max(np.abs(via_conv))))
            assert float(np.max(np.abs(via_series - via_conv))) <= 1e-11 * scale

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        hs.lists(
            hs.tuples(hs.integers(-(2**20), 2**20), hs.integers(-(2**20), 2**20)),
            min_size=1,
            max_size=40,
        ),
        hs.integers(-15, 15),
        hs.integers(0, 12),
    )
    def test_exact_fraction_composition(self, numerators, a_num, scale):
        # dyadic C and alpha: [z^k] = sum_{s<=k} C_s C(k,s) (-alpha)^(k-s) is
        # exact in Fraction, and the double inputs carry no rounding of their own
        alpha = Fraction(a_num, 16)
        C = [(Fraction(re, 2**scale), Fraction(im, 2**scale)) for re, im in numerators]
        n = len(C)
        with np.errstate(**RAISE):
            got = mobius(GenFn(0, [complex(re, im) for re, im in C]), float(alpha)).C
        exact = np.zeros(n, dtype=complex)
        absum = np.zeros(n)
        for k in range(n):
            weights = [math.comb(k, s) * (-alpha) ** (k - s) for s in range(k + 1)]
            re = sum(w * C[s][0] for s, w in enumerate(weights))
            im = sum(w * C[s][1] for s, w in enumerate(weights))
            exact[k] = complex(float(re), float(im))
            absum[k] = sum(abs(complex(C[s][0], C[s][1])) * float(abs(w)) for s, w in enumerate(weights))
        assert_within_bound(got, exact, absum)

    def test_mpmath_dense_state(self):
        # the dense benchmark size; orders sampled to keep the reference cheap
        mpmath = pytest.importorskip("mpmath")
        n, alpha = 1600, 0.1
        g = dense_series(n, 0.8, 5)
        with np.errstate(**RAISE):
            got = mobius(g, alpha).C
        orders = [*range(0, n, 100), n - 1]
        exact = np.zeros(len(orders), dtype=complex)
        absum = np.zeros(len(orders))
        with mpmath.workdps(40):
            for i, k in enumerate(orders):
                weight = mpmath.mpf(-alpha) ** k  # C(k,s) (-alpha)^(k-s) at s = 0
                total, size = mpmath.mpc(0), mpmath.mpf(0)
                for s in range(k + 1):
                    term = mpmath.mpc(complex(g.C[s])) * weight
                    total += term
                    size += abs(term)
                    weight *= mpmath.mpf(k - s) / ((s + 1) * mpmath.mpf(-alpha))
                exact[i], absum[i] = complex(total), float(size)
        bound = 4.0 * (np.array(orders) + 1.0) * EPS * absum
        assert np.all(np.abs(got[orders] - exact) <= bound)

    def test_dense_runtime_budget(self):
        # the O(n^2) route takes milliseconds at this size, an O(n^3) one seconds
        g = dense_series(1600, 0.8, 6)
        start = time.perf_counter()
        mobius(g, 0.1)
        assert time.perf_counter() - start <= 1.0

    def test_unrepresentable_image_refused(self):
        # (1 + 2z)^(-1) 1e300 = 1e300 sum_k (-2z)^k passes 1e308 at k = 27
        g = GenFn(0, np.concatenate(([1e300], np.zeros(63))))
        with np.errstate(**RAISE), pytest.raises(ValueError, match="beyond double range"):
            mobius(g, 2.0)


# the one amplitude interval, y12's [0, alpha_c (1 + 1e-12) + 1e-15]: NaN lies
# outside it, and so do the amplitudes q_invariant's own slack let through
@pytest.mark.parametrize("call, alpha", [
    pytest.param(y12, math.nan, id="y12-nan"),
    pytest.param(roots, math.nan, id="roots-nan"),
    pytest.param(lambda y, a: b_from_e(1.0, 0, y, a), math.nan, id="b_from_e-nan"),
    pytest.param(lambda y, a: e_from_b(1.0, 0, y, a), math.nan, id="e_from_b-nan"),
    pytest.param(q_invariant, math.nan, id="q_invariant-nan"),
    pytest.param(q_invariant, -1e-16, id="q_invariant-below-0"),
    pytest.param(q_invariant, alpha_c(0.3) + 5e-13, id="q_invariant-above-alpha_c"),
])
def test_amplitude_outside_the_interval_refused(call, alpha):
    with pytest.raises(ValueError, match="outside"):
        call(0.3, alpha)


class TestQInvariant:
    def test_reference_sweep(self):
        for al in (0.0, 0.1, 1.0 / 3.0):
            assert q_invariant(0.3, al) == pytest.approx(0.9, abs=1e-13)

    def test_small_coupling_limit(self):
        assert q_invariant(1e-6, 0.0) == pytest.approx(1.0, abs=1e-11)

    def test_point_value(self):
        assert q_invariant(0.45, 0.0) == pytest.approx(
            0.5 * (1 + math.sqrt(0.19)), rel=1e-14
        )

    def test_constant_across_amplitudes(self):
        for y in (0.1, 0.3, 0.45):
            qs = [q_invariant(y, a) for a in np.linspace(0.0, alpha_c(y), 20)]
            assert max(qs) - min(qs) <= 1e-12


class TestSingularityRadius:
    def test_geometric_analytic(self):
        g = GenFn(0, 3.0 ** (-np.arange(96.0)))
        radius, verdict = singularity_radius(g)
        assert verdict is DiskClass.ANALYTIC_IN_DISK
        assert radius == pytest.approx(3.0, rel=0.02)

    def test_geometric_singular(self):
        g = GenFn(0, 2.0 ** np.arange(96.0))
        radius, verdict = singularity_radius(g)
        assert verdict is DiskClass.SINGULAR_IN_DISK
        assert radius == pytest.approx(0.5, rel=0.02)

    def test_divergent_eigen_series(self):
        st = psi_p_theta(EigenstateSpec(0, 0.5, 0.5, 160))
        radius, verdict = singularity_radius(from_state(st))
        assert verdict is DiskClass.SINGULAR_IN_DISK
        assert radius == pytest.approx(0.5, rel=0.05)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_series_refused(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            singularity_radius(GenFn(0, np.full(80, bad)))

    def test_too_short_inconclusive(self):
        _, verdict = singularity_radius(GenFn(0, np.ones(10)))
        assert verdict is DiskClass.INCONCLUSIVE

    def test_polynomial_is_entire(self):
        g = GenFn(0, np.concatenate(([1.0, 2.0], np.zeros(80))))
        radius, verdict = singularity_radius(g)
        assert verdict is DiskClass.ANALYTIC_IN_DISK
        assert radius == math.inf

    def test_singularity_transport(self):
        # transported singularity sits at z0/(1 - alpha z0); targets chosen on
        # both sides of the unit circle
        for z0, alpha in ((3.0, 0.2), (2.0, 0.3), (-4.0, 0.3), (0.5, 0.3), (1.5, 0.2)):
            g = GenFn(0, (1.0 / z0) ** np.arange(192.0))
            radius, _ = singularity_radius(mobius(g, alpha))
            target = abs(z0 / (1 - alpha * z0))
            assert radius == pytest.approx(target, rel=0.05)
