"""Every count argument is refused by one guard, with one message.

A count (imbalance, truncation, cutoff, pair or particle number, index) must
be an integer at or above its lower bound; ``fock_ladder._check_count`` is
the only code that refuses one, as ``<name> must be an integer >= <low>,
got <value>``.  The table names each public function with such a parameter;
the introspection test keeps a new one from skipping the guard.  The last
tables hold the finite guard, ``fock_ladder._finite``, on state coefficients
and on scalar arguments, and the refusals of ladder results beyond double
range, each refusal in a wording used elsewhere.
"""

import inspect
import math
import re
import warnings

import numpy as np
import pytest

import pairspec
from pairspec.eigenstates import (
    EigenstateSpec,
    classify_normalizable,
    coeff_log_magnitudes,
    partial_norms,
    recurrence_coeffs,
    stirling_tail_limit,
    tail_constant,
)
from pairspec.eigenstates import residual
from pairspec.fock_ladder import LadderState, apply_ab, apply_adbd, apply_halfnumber, inner
from pairspec.genfunc import GenFn, b_from_e, e_from_b, from_state, ode_residual
from pairspec.hamiltonians import apply_hab_alpha, bog_energy_ab, build_tridiagonal, lhy_block
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
from pairspec.lattice import ModelParams, alpha_sum, half_lattice, half_lattice_indices, mode_params
from pairspec.pair_transform import (
    apply_exp_pair,
    conjugation_check,
    depletion_report,
    mode_ground_state,
    pair_occupancy,
)
from pairspec.wu_sector import WuSector, wu_eigenstate

MP = ModelParams(a=1.0 / (16.0 * math.pi), rho=1.0, L=2.0 * math.pi)
MODE = mode_params(MP, (0.0, 0.0, 1.0))
STATE = LadderState(0, [1.0, 0.5, 0.25])

# (function, count parameter, low, call with that count, an accepted count);
# every other argument is valid
ROWS = [
    (LadderState, "p", 0, lambda v: LadderState(v, [1.0]), 2),
    (LadderState.padded, "smax", 0, lambda v: STATE.padded(v), 2),
    (half_lattice, "nmax", 1, lambda v: half_lattice(1.0, v), 2),
    (half_lattice_indices, "nmax", 1, half_lattice_indices, 2),
    (alpha_sum, "nmax", 1, lambda v: alpha_sum(MP, v), 2),
    (depletion_report, "nmax", 1, lambda v: depletion_report(MP, v), 2),
    (build_tridiagonal, "p", 0, lambda v: build_tridiagonal(v, 0.3, 0.3, 4), 2),
    (build_tridiagonal, "smax", 1, lambda v: build_tridiagonal(0, 0.3, 0.3, v), 2),
    (bog_energy_ab, "p", 0, lambda v: bog_energy_ab(0.3, v, 1), 2),
    (lhy_block, "p", 0, lambda v: lhy_block(MODE, v, 1), 2),
    (EigenstateSpec, "p", 0, lambda v: EigenstateSpec(v, 0.5, 1.0, 4), 2),
    (EigenstateSpec, "smax", 0, lambda v: EigenstateSpec(0, 0.5, 1.0, v), 2),
    (recurrence_coeffs, "p", 0, lambda v: recurrence_coeffs(1.0, v, 1.0, 4), 2),
    (recurrence_coeffs, "smax", 0, lambda v: recurrence_coeffs(1.0, 0, 1.0, v), 2),
    (classify_normalizable, "p", 0, lambda v: classify_normalizable(1.0, 0.5, v), 2),
    (tail_constant, "p", 0, lambda v: tail_constant(1.0, 0.5, v, [5]), 2),
    (stirling_tail_limit, "p", 0, lambda v: stirling_tail_limit(0.5, v), 2),
    (coeff_log_magnitudes, "p", 0, lambda v: coeff_log_magnitudes(1.0, 0.5, v, 4), 2),
    (coeff_log_magnitudes, "smax", 0, lambda v: coeff_log_magnitudes(1.0, 0.5, 0, v), 2),
    (partial_norms, "p", 0, lambda v: partial_norms(1.0, 0.5, v, 4), 2),
    (partial_norms, "smax", 0, lambda v: partial_norms(1.0, 0.5, 0, v), 2),
    (conjugation_check, "smax", 4, lambda v: conjugation_check(0.3, v), 6),
    (mode_ground_state, "smax", 0, lambda v: mode_ground_state(0.3, v), 2),
    (GenFn, "p", 0, lambda v: GenFn(v, [1.0]), 2),
    (b_from_e, "p", 0, lambda v: b_from_e(1.0, v, 0.3, 0.1), 2),
    (e_from_b, "p", 0, lambda v: e_from_b(1.0, v, 0.3, 0.1), 2),
    (contiguous_residual, "m", 0, lambda v: contiguous_residual(v, 1, 0, 0.3), 2),
    (contiguous_residual, "N", 0, lambda v: contiguous_residual(1, v, 0, 0.3), 2),
    (contiguous_residual, "p", 0, lambda v: contiguous_residual(1, 1, v, 0.3), 2),
    (f_family, "N", 0, lambda v: f_family(v, 0, 1.0, [1.0, 1.0], 0.5), 2),
    (f_family, "p", 0, lambda v: f_family(1, v, 1.0, [1.0, 1.0], 0.5), 2),
    (f_recurrence_residual, "N", 0, lambda v: f_recurrence_residual(v, 0, 1.0, [1.0, 1.0], 0.5), 2),
    (f_recurrence_residual, "p", 0, lambda v: f_recurrence_residual(1, v, 1.0, [1.0, 1.0], 0.5), 2),
    (transported_state, "p", 0, lambda v: transported_state(v, 1, 0.3, 10), 2),
    (transported_state, "N", 0, lambda v: transported_state(0, v, 0.3, 10), 2),
    (transported_state, "smax", 0, lambda v: transported_state(0, 1, 0.3, v), 2),
    (gram_witness, "p", 0, lambda v: gram_witness(v, 0.3, 2, 40), 2),
    (gram_witness, "Nmax", 0, lambda v: gram_witness(0, 0.3, v, 40), 2),
    (gram_witness, "smax", 0, lambda v: gram_witness(0, 0.3, 0, v), 2),
    (projection_sweep, "Nmax", 0, lambda v: projection_sweep(STATE, 0.3, v, 40), 2),
    (projection_sweep, "smax", 0, lambda v: projection_sweep(STATE, 0.3, 2, v), 2),
    (WuSector, "Ntot", 1, lambda v: WuSector(v, 0, MODE), 2),
    (WuSector, "p", 0, lambda v: WuSector(4, v, MODE), 2),
    (wu_eigenstate, "n_index", 0, lambda v: wu_eigenstate(WuSector(4, 0, MODE), MP, v), 2),
]
_IDS = [f"{f.__qualname__}-{name}" for f, name, *_ in ROWS]

COUNT_NAMES = {"p", "smax", "nmax", "N", "Nmax", "Ntot", "n_index", "horizon", "m"}
# parameters with a count's name that are not counts
NOT_COUNTS = {
    (ModelParams, "N"): "the nominal particle number rho L^3, a positive real",
    (pairspec.HabMatrix, "smax"): "a field of the record build_tridiagonal returns, guarded there",
    (pairspec.symmetrize_tridiag, "m"): "a HabMatrix",
}


@pytest.mark.parametrize(("func", "name", "low", "call", "ok"), ROWS, ids=_IDS)
# a bool is an int to Python but never a count: half_lattice_indices(True) and
# LadderState(True, [1.0]) are refused like 1.5
@pytest.mark.parametrize("value", ["below", 1.5, 2.0, True, np.True_], ids=["below", "1.5", "2.0", "True", "np.True_"])
def test_count_refused_with_one_message(func, name, low, call, ok, value):
    value = low - 1 if value == "below" else value
    message = re.escape(f"{name} must be an integer >= {low}, got {value}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(value)


@pytest.mark.parametrize(("func", "name", "low", "call", "ok"), ROWS, ids=_IDS)
def test_numpy_integer_count_accepted(func, name, low, call, ok):
    call(np.int64(ok))


def _public_parameters():
    """(callable, parameter) for every public function, class and method of the package."""
    for value in vars(pairspec).values():
        if not callable(value) or not getattr(value, "__module__", "").startswith("pairspec."):
            continue
        targets = [value]
        if inspect.isclass(value):
            targets += [m for n, m in vars(value).items() if inspect.isfunction(m) and not n.startswith("_")]
        for target in targets:
            try:
                params = inspect.signature(target).parameters
            except ValueError:  # a builtin without a signature
                continue
            yield from ((target, name) for name in params if name in COUNT_NAMES)


def test_every_count_parameter_is_in_the_table():
    table = {(func, name) for func, name, *_ in ROWS}
    missing = [f"{f.__qualname__}({name})" for f, name in _public_parameters()
               if (f, name) not in table and (f, name) not in NOT_COUNTS]
    assert missing == []


@pytest.mark.parametrize(("call", "message"), [
    (lambda: tail_constant(1.0, 0.5, 0, np.array([2.5])), "srange entries must be integers >= 1, got 2.5"),
    (lambda: tail_constant(1.0, 0.5, 0, np.array([0, 5])), "srange entries must be integers >= 1, got 0"),
    (lambda: tail_constant(1.0, 0.5, 0, [5, math.nan]), "srange entries must be integers >= 1, got nan"),
    (lambda: bog_energy_ab(0.3, 0, 1.5), "n entries must be integers >= 0, got 1.5"),
    (lambda: bog_energy_ab(0.3, 0, -1), "n entries must be integers >= 0, got -1"),
], ids=["srange-fraction", "srange-zero", "srange-nan", "n-fraction", "n-negative"])
def test_index_array_refuses_non_counts(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_index_arrays_accept_integral_entries():
    assert tail_constant(1.0, 0.5, 0, []).size == 0  # np.asarray([]) is float
    assert np.array_equal(tail_constant(1.0, 0.5, 0, np.array([5.0, 9.0])),
                          tail_constant(1.0, 0.5, 0, [5, 9]))
    assert bog_energy_ab(0.3, 0, 2.0) == bog_energy_ab(0.3, 0, 2)


NAN, INF = math.nan, math.inf
STATE_MESSAGE = "ladder state coefficients must be finite"


# (call with one non-finite coefficient, message): each returned NaN or inf, or
# warned, before LadderState, GenFn and f_family refused non-finite coefficients
@pytest.mark.parametrize(("call", "message"), [
    (lambda: pair_occupancy(LadderState(0, [1.0, NAN])), STATE_MESSAGE),
    (lambda: pair_occupancy(LadderState(0, [1.0, INF])), STATE_MESSAGE),
    (lambda: inner(STATE, LadderState(0, [1.0, NAN])), STATE_MESSAGE),
    (lambda: residual(LadderState(0, [1.0, NAN, 0.0]), 0.3, 0.1, 0.5), STATE_MESSAGE),
    (lambda: apply_hab_alpha(LadderState(0, [1.0, NAN]), 0.3, 0.1), STATE_MESSAGE),
    (lambda: projection_sweep(LadderState(0, [1.0, NAN]), 0.3, 2, 40), STATE_MESSAGE),
    (lambda: from_state(LadderState(0, [INF, 1.0])), STATE_MESSAGE),
    (lambda: apply_exp_pair(LadderState(0, [1.0, NAN]), 0.1), STATE_MESSAGE),
    (lambda: GenFn(0, [1.0, INF]), "series coefficients must be finite"),
    (lambda: f_family(1, 0, 1.0, [NAN, 1.0], 0.5), "d must be finite"),
    (lambda: f_recurrence_residual(1, 0, 1.0, [INF, 1.0], 0.5), "d must be finite"),
], ids=["pair_occupancy-nan", "pair_occupancy-inf", "inner", "residual", "apply_hab_alpha",
        "projection_sweep", "from_state", "apply_exp_pair", "GenFn", "f_family", "f_recurrence_residual"])
def test_non_finite_coefficients_refused(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


HUGE = LadderState(0, [1e308] * 3)


# each returned a number, NaN or inf, passed a bool as a count, or warned
# (an operator image beyond double range), before
@pytest.mark.parametrize(("call", "message"), [
    (lambda: bog_energy_ab(0.3, 0, True), "n entries must be integers >= 0, got True"),
    (lambda: tail_constant(1.0, 0.5, 0, np.array([True])), "srange entries must be integers >= 1, got True"),
    (lambda: lhy_block(MODE, 0, np.True_), "n entries must be integers >= 0, got True"),
    (lambda: derivative_residual(-2, NAN, 1.0), "b must be finite, got nan"),
    (lambda: derivative_residual(-2, 0.0, INF), "c must be finite, got inf"),
    (lambda: ode_residual(GenFn(0, [1.0, 0.5, 0.25]), NAN, 0.3, 0.1), "energy must be finite, got nan"),
    (lambda: ode_residual(GenFn(0, [1.0, 0.5, 0.25]), 0.5, INF, 0.1), "couplings must be finite, got y1=inf, y2=0.1"),
    (lambda: b_from_e(NAN, 0, 0.3, 0.1), "energy must be finite, got nan"),
    (lambda: e_from_b(NAN, 0, 0.3, 0.1), "B must be finite, got nan"),
    (lambda: e_from_b(INF, 0, 0.3, 0.1), "B must be finite, got inf"),
    (lambda: apply_ab(HUGE), "the image under ab is beyond double range"),
    (lambda: apply_adbd(HUGE), "the image under a*b* is beyond double range"),
    (lambda: apply_halfnumber(HUGE), "the image under (a*a + b*b)/2 is beyond double range"),
    (lambda: apply_hab_alpha(LadderState(0, [1e307, 1e307]), 1e300, 0.0),
     "the image under (a*a + b*b)/2 + y1*ab + y2*a*b* is beyond double range"),
    # an int beyond double range: np.isfinite raised TypeError on it
    (lambda: derivative_residual(-3, 10**400, 2.0), f"b must be finite, got {10**400}"),
    (lambda: apply_hab_alpha(LadderState(0, [1, 1]), 10**400, 0.1),
     f"couplings must be finite, got y1={10**400}, y2=0.1"),
    # a count of 2^63 or more wrapped in the cast to int, and an int past 64 bits
    # made an object array, on which numpy raised TypeError
    (lambda: bog_energy_ab(0.3, 0, 2**63), f"n entries must be integers in [0, 2^63), got {2**63}"),
    (lambda: bog_energy_ab(0.3, 0, 1e30), "n entries must be integers in [0, 2^63), got 1e+30"),
    (lambda: bog_energy_ab(0.3, 0, 10**30), f"n entries must be integers in [0, 2^63), got {10**30}"),
    (lambda: lhy_block(MODE, 0, 10**30), f"n entries must be integers in [0, 2^63), got {10**30}"),
    (lambda: tail_constant(1.0, 0.5, 0, [5, 10**30]), f"srange entries must be integers in [1, 2^63), got {10**30}"),
    (lambda: contiguous_residual(2, 2**63, 0, 0.5), f"N entries must be integers in [0, 2^63), got {2**63}"),
    (lambda: contiguous_residual(2, 10**30, 0, 0.5), f"N entries must be integers in [0, 2^63), got {10**30}"),
    (lambda: hyp_f(-1e30, 1.0, 1.0, 0.5), "series terminates only after 2^63 terms: a=-1e+30, b=1.0"),
], ids=["bog_energy_ab-bool", "tail_constant-bool", "lhy_block-bool", "derivative_residual-b",
        "derivative_residual-c", "ode_residual-energy", "ode_residual-y1", "b_from_e", "e_from_b-nan",
        "e_from_b-inf", "apply_ab", "apply_adbd", "apply_halfnumber", "apply_hab_alpha",
        "derivative_residual-b-big-int", "apply_hab_alpha-y1-big-int", "bog_energy_ab-2^63",
        "bog_energy_ab-1e30", "bog_energy_ab-big-int", "lhy_block-big-int", "tail_constant-big-int",
        "contiguous_residual-2^63", "contiguous_residual-big-int", "hyp_f-termination-past-2^63"])
def test_scalar_guard_gaps_refused(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


# (call, message): each returned NaN or inf, or warned, before; the rows run
# again in tests/test_float64_lane.py, where _EXT is plain double
RANGE_REFUSALS = [
    pytest.param(lambda: residual(LadderState(0, [1.0, 0.5, 0.0]), 0.3, 0.1, NAN),
                 "energy must be finite, got nan", id="residual-energy-nan"),
    pytest.param(lambda: residual(LadderState(0, [1.0, 0.5, 0.0]), 0.3, 0.1, INF),
                 "energy must be finite, got inf", id="residual-energy-inf"),
    pytest.param(lambda: residual(LadderState(0, [1e10, 1.0, 0.0]), 0.3, 0.1, 1e300),
                 "the residual is beyond double range", id="residual-range"),
    pytest.param(lambda: inner(LadderState(0, [1e200, 1e200]), LadderState(0, [1e200, 1e200])),
                 "the pairing <x, y> is beyond double range", id="inner-range"),
    pytest.param(lambda: LadderState(0, [1.5e308, 1.5e308j]).norm(),
                 "the norm of the ladder state is beyond double range", id="norm-range"),
    pytest.param(lambda: ode_residual(GenFn(0, np.full(3, 1e300)), 1.0, 1e10, 1e10),
                 "the ODE residual is beyond double range", id="ode_residual-range"),
    pytest.param(lambda: f_family(3, 0, 1e-300, np.ones(5), 1.0),
                 "f_3(z) is beyond double range", id="f_family-range"),
    pytest.param(lambda: f_recurrence_residual(3, 0, 1e-300, np.ones(5), 1.0),
                 "f_3(z) is beyond double range", id="f_recurrence_residual-range"),
]


@pytest.mark.parametrize(("call", "message"), RANGE_REFUSALS)
def test_range_refused(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
