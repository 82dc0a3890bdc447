import math

import mpmath
import numpy as np
import pytest

from pairspec import fock_ladder, hamiltonians
from pairspec.fock_ladder import LadderState, apply_ab, apply_adbd, apply_halfnumber, inner
from pairspec.hamiltonians import apply_hab_alpha


def state(p, coeffs):
    return LadderState(p, np.array(coeffs, dtype=complex))


class TestApplyAb:
    def test_single_pair(self):
        out = apply_ab(state(0, [0, 1]))
        np.testing.assert_allclose(out.coeffs, [1.0])

    def test_imbalanced_pair(self):
        out = apply_ab(state(1, [0, 1]))
        np.testing.assert_allclose(out.coeffs, [np.sqrt(2.0)])

    def test_vacuum_annihilates(self):
        for coeffs in ([1], []):  # the empty state too: both give the empty complex state
            out = apply_ab(state(0, coeffs))
            assert out.coeffs.shape == (0,) and out.coeffs.dtype == complex

    def test_labels_preserved(self):
        out = apply_ab(state(2, [0, 1, 2]))
        assert out.p == 2


class TestApplyAdbd:
    def test_vacuum_to_pair(self):
        out = apply_adbd(state(0, [1]))
        np.testing.assert_allclose(out.coeffs, [0, 1])

    def test_imbalanced(self):
        out = apply_adbd(state(1, [1]))
        np.testing.assert_allclose(out.coeffs, [0, np.sqrt(2.0)])

    def test_double_pair(self):
        out = apply_adbd(state(0, [0, 1]))
        np.testing.assert_allclose(out.coeffs, [0, 0, 2.0])


class TestHalfNumber:
    @pytest.mark.parametrize(
        "p,coeffs,expect",
        [
            (0, [1], [0.0]),
            (3, [1], [1.5]),
            (0, [0, 0, 1], [0, 0, 2.0]),
        ],
    )
    def test_examples(self, p, coeffs, expect):
        np.testing.assert_allclose(apply_halfnumber(state(p, coeffs)).coeffs, expect)


class TestInner:
    def test_unit(self):
        assert inner(state(0, [1]), state(0, [1])) == 1

    def test_orthonormal_basis(self):
        assert inner(state(0, [1, 0]), state(0, [0, 1])) == 0

    def test_different_ladders_orthogonal(self):
        assert inner(state(0, [1]), state(1, [1])) == 0

    def test_empty_state(self):
        assert inner(state(0, []), state(0, [1, 2])) == 0j
        assert inner(state(0, [1, 2]), state(0, [])) == 0j

    def test_conjugate_linear_first_slot(self):
        x = state(0, [1j])
        y = state(0, [1.0])
        assert inner(x, y) == pytest.approx(-1j)


class TestOperatorAlgebra:
    def test_adjointness(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            p = int(rng.integers(0, 5))
            x = state(p, rng.standard_normal(8) + 1j * rng.standard_normal(8))
            y = state(p, rng.standard_normal(9) + 1j * rng.standard_normal(9))
            lhs = inner(apply_adbd(x), y)
            rhs = inner(x, apply_ab(y))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_commutator_is_shifted_number(self):
        # [ab, a*b*] = a*a + b*b + 1 restricted to the ladder
        for p in range(4):
            for s in range(10):
                c = np.zeros(12)
                c[s] = 1.0
                st = state(p, c)
                upd = apply_ab(apply_adbd(st)).coeffs
                dnu = apply_adbd(apply_ab(st)).coeffs
                assert upd[s] - dnu[s] == pytest.approx(p + 2 * s + 1, rel=1e-14)

    def test_ladders_never_mix(self):
        st = state(2, [1, 2, 3])
        for op in (apply_ab, apply_adbd, apply_halfnumber):
            assert op(st).p == 2


class TestLadderState:
    def test_negative_p_rejected(self):
        with pytest.raises(ValueError):
            LadderState(-1, np.array([1.0]))

    @pytest.mark.parametrize("p", [1.5, 2.0, float("nan")])
    def test_non_integer_p_rejected(self, p):
        with pytest.raises(ValueError, match=f"^p must be an integer >= 0, got {p}$"):
            LadderState(p, [1, 1, 1])

    def test_numpy_integer_p_accepted(self):
        assert LadderState(np.int64(2), [1.0]).p == 2

    def test_padding(self):
        st = state(0, [1, 2]).padded(4)
        np.testing.assert_allclose(st.coeffs, [1, 2, 0, 0, 0])
        with pytest.raises(ValueError):
            st.padded(1)

    def test_norm_is_numpys_where_finite(self):
        # the rescaled route runs only where numpy's squares overflow or the
        # norm is below fock_ladder._SMALL_NORM (2^-480, about 3.2e-145)
        rng = np.random.default_rng(3)
        for scale in (1e-140, 1.0, 1e150):
            c = scale * (rng.standard_normal(40) + 1j * rng.standard_normal(40))
            assert LadderState(0, c).norm() == float(np.linalg.norm(c))

    @pytest.mark.parametrize("coeffs", [
        [1e-200, 1e-200],  # numpy's squares underflow to 0: its norm read 0.0
        [1e-160, 1e-170],  # subnormal squares: numpy's norm read 9.99994e-161
        [3e-300 + 4e-300j, -1e-310j, 0.0],
        [2.0**-481, 2.0**-482],
    ])
    def test_norm_where_squares_underflow(self, coeffs):
        with mpmath.workdps(40):
            want = float(mpmath.sqrt(sum(abs(mpmath.mpc(c)) ** 2 for c in coeffs)))
        got = LadderState(0, coeffs).norm()
        assert abs(got - want) <= 2.3e-16 * want
        if len(coeffs) == 2 and not isinstance(coeffs[0], complex):
            assert abs(got - math.hypot(*coeffs)) <= 2.3e-16 * want

    def test_zero_and_empty_norms(self):
        assert LadderState(0, [0.0, 0.0]).norm() == 0.0
        assert LadderState(0, []).norm() == 0.0


BIG = 10**400  # an int beyond double range: np.isfinite raised TypeError on it


# (values, finite): the scalar route must give np.isfinite's verdict wherever
# np.isfinite has one, and refuse an int beyond double range
@pytest.mark.parametrize(("values", "finite"), [
    (0.3, True), (-7, True), (True, True), (np.True_, True), (np.float64(1.5), True),
    (np.int64(3), True), (np.float32(2.0), True), (1 + 2j, True), (np.complex128(1j), True),
    (np.longdouble("1e400"), True), ((0.3, 0.2), True), ((1.0, np.ones(3)), True),
    (math.nan, False), (math.inf, False), (-math.inf, False), (np.float64("nan"), False),
    (complex(1.0, math.inf), False), (complex(math.nan, 0.0), False), ((0.3, math.nan), False),
    ((1.0, np.array([1.0, math.inf])), False), (np.array([1.0, math.nan]), False),
    (BIG, False), (-BIG, False), ((0.1, BIG), False),
], ids=lambda v: repr(v).replace(str(BIG), "10**400"))
def test_finite_guard(values, finite):
    if finite:
        fock_ladder._finite(values, "bad")
    else:
        with pytest.raises(ValueError, match="^bad$"):
            fock_ladder._finite(values, "bad")
    parts = values if isinstance(values, tuple) else (values,)
    if not any(isinstance(v, int) and abs(v) > 1e308 for v in parts):
        assert finite == all(np.isfinite(v).all() for v in parts)


def test_finite_guard_takes_cmath_for_scalars(monkeypatch):
    # the scalar route never builds an array: np.isfinite is not called
    calls = []
    monkeypatch.setattr(fock_ladder.np, "isfinite", lambda v: calls.append(v))
    for values in (0.3, (0.3, 0.2), 1 + 2j, np.float64(0.5), np.int64(2), True):
        fock_ladder._finite(values, "bad")
    assert calls == []


# (operator call, finite checks per call): LadderState's guard is the one
# check of an image; apply_hab_alpha adds its couplings' check to those of its
# three parts and of its own image
@pytest.mark.parametrize(("call", "checks"), [
    (apply_ab, 1),
    (apply_adbd, 1),
    (apply_halfnumber, 1),
    (lambda st: apply_hab_alpha(st, 0.3, 0.1), 5),
], ids=["apply_ab", "apply_adbd", "apply_halfnumber", "apply_hab_alpha"])
def test_one_finite_check_per_image(monkeypatch, call, checks):
    st = state(1, [1.0, 0.5, 0.25])
    calls, finite = [], fock_ladder._finite

    def counting(values, message):
        calls.append(message)
        return finite(values, message)

    for module in (fock_ladder, hamiltonians):
        monkeypatch.setattr(module, "_finite", counting)
    call(st)
    assert len(calls) == checks
