"""Injected-fault table: every closed form's referee must bite.

Each row patches a 1e-7 relative fault into one function, public or a private
kernel behind one, in every ``pairspec`` namespace that holds it, runs the
``verify`` suites it names at seed 0, and names the checks that must fail.  A check edit that lets one of them pass
under the fault blinds the suite to it, and fails this table.  The first table
is the ladder layer: the three operators and the two-mode block built on them.
The second holds the closed forms, kernels and referees above it, each faulted
on its output; a uniform scale is invisible where a check divides it out, and
those rows take an alternating one.

No check catches these at 1e-7, so they have no row: ``_hyp_f``'s output under
any per-row scale (the contiguous relation is homogeneous in F; its parameter c
has a row), ``svd_small`` and ``_transported_columns`` (the witness floor is
1e-8 of the largest singular value and the drift tolerance 1e-2),
and ``tail_constant`` and ``stirling_tail_limit`` (tolerance 2e-3).
"""

import sys

import numpy as np
import pytest

from pairspec.checks import run_suite
from pairspec.eigenstates import partial_norms, psi_p_theta, recurrence_coeffs
from pairspec.fock_ladder import LadderState, apply_ab, apply_adbd, apply_halfnumber
from pairspec.genfunc import _mobius, e_from_b, q_invariant, roots, singularity_radius
from pairspec.hamiltonians import apply_hab_alpha, bog_energy_ab, lhy_block
from pairspec.hypergeom import _hyp_f, f_family
from pairspec.lattice import alpha_c
from pairspec.oracle import sym_tridiag_eig
from pairspec.pair_transform import (
    _exp_pair,
    _log_rescale,
    _transported_energy,
    apply_exp_pair,
    pair_occupancy,
)
from pairspec.wu_sector import _wu_eigenvectors, apply_exp_w

FAULT = 1e-7
ADJOINT = "pair raising/lowering are mutually adjoint"
COMMUTATOR = "[ab, a*b*] acts as p + 2s + 1"
MATRIX = "tridiagonal matrix matches the operator action"
RESIDUAL = "finite eigenstates have zero residual"
TRANSPORTED = "transported states solve the Hermitian block"
ALPHA_C = "alpha(k) equals alpha_c(y(k))"
ALPHA_C_BRANCH = "1 - 2 alpha_c y = sqrt(1 - 4y^2)"
RECURRENCE = "binomial formula equals the energy recurrence"
REFEREE = "dense referee reproduces the closed spectrum"
INVERSE = "forward/backward transforms cancel on finite states"
OCCUPANCY = "ground-state pair occupancy matches the closed form"
ENERGIES = "transported energies equal the closed spectrum"
SETTLE = "partial norms settle for ytilde = 3/2"
SYMMETRIZED = "symmetrized transformed block reproduces e_from_b"
MOBIUS = "Moebius series equals the exponential transform"
SINGULARITY = "Moebius maps singularities as z -> z/(1 - alpha z)"
ROOT_PRODUCT = "root product is y1/y2 (1 at alpha = 0)"
Q = "Q is independent of the amplitude"
MAPS = "exponent and energy maps invert each other"
ODE = "eigenstate series solve the coefficient ODE"
CONTIGUOUS = "contiguous relation holds on the grid"
F_RECURRENCE = "f-family satisfies the derivative recurrence"
WU_DIAGONAL = "spectrum reads off the diagonal"
WU_RESIDUAL = "closed-form eigenvectors have zero residual"
WU_INVERSE = "exp(W) exp(-W) is the identity"


def _holders(func):
    """Every pairspec module whose namespace holds func under its name."""
    return [module for name, module in list(sys.modules.items())
            if name.split(".")[0] == "pairspec" and getattr(module, func.__name__, None) is func]


def _faulty(func):
    def broken(*args):
        out = func(*args)
        return LadderState(out.p, out.coeffs * (1.0 + FAULT))
    return broken


# (function, suite, checks that must fail under the fault)
@pytest.mark.parametrize(("func", "suite", "must_fail"), [
    (apply_ab, "eigen", {ADJOINT, COMMUTATOR, MATRIX, RESIDUAL, TRANSPORTED}),
    (apply_adbd, "eigen", {ADJOINT, COMMUTATOR, MATRIX, TRANSPORTED}),
    (apply_halfnumber, "eigen", {MATRIX, RESIDUAL, TRANSPORTED}),
    (apply_hab_alpha, "eigen", {MATRIX, RESIDUAL, TRANSPORTED}),
], ids=lambda v: getattr(v, "__name__", None))
def test_fault_fails_its_checks(monkeypatch, func, suite, must_fail):
    holders = _holders(func)
    assert len(holders) >= 2  # the defining module and the package namespace at least
    for module in holders:
        monkeypatch.setattr(module, func.__name__, _faulty(func))
    failed = {r.name for r in run_suite(suite, 0) if not r.passed}
    assert must_fail <= failed


def test_unfaulted_suite_passes():
    assert all(r.passed for r in run_suite("eigen", 0))


def _scaled(out, alternate: bool):
    """out times 1 + FAULT, or times 1 +- FAULT alternating along its last
    axis: a number, an array, a LadderState or a tuple of them."""
    if isinstance(out, tuple):
        return tuple(_scaled(v, alternate) for v in out)
    if isinstance(out, LadderState):
        return LadderState(out.p, _scaled(out.coeffs, alternate))
    sign = (-1.0) ** np.arange(np.shape(out)[-1]) if alternate else 1.0
    return out * (1.0 + FAULT * sign)


def _uniform(func):
    return lambda *args, **kwargs: _scaled(func(*args, **kwargs), False)


def _alternating(func):
    return lambda *args, **kwargs: _scaled(func(*args, **kwargs), True)


def _alternating_blocks(func):
    # _wu_eigenvectors yields (indices, rows): the fault is on the rows
    return lambda *args: ((ns, _scaled(rows, True)) for ns, rows in func(*args))


def _on_radius(func):
    # singularity_radius returns (radius, DiskClass): the fault is on the radius
    def broken(g):
        radius, disk = func(g)
        return radius * (1.0 + FAULT), disk
    return broken


def _on_c(func):
    # a scale on F's output cancels in the homogeneous contiguous relation
    return lambda a, b, c, z: func(a, b, c * (1.0 + FAULT), z)


# (function, fault, suites, checks that must fail under the fault)
OUTPUT_FAULTS = [
    (bog_energy_ab, _uniform, ("eigen", "genfunc", "wu"), {REFEREE, ENERGIES, MAPS, WU_DIAGONAL}),
    (alpha_c, _uniform, ("lattice", "eigen"), {ALPHA_C, ALPHA_C_BRANCH, ENERGIES, TRANSPORTED}),
    (_exp_pair, _uniform, ("eigen", "genfunc"), {INVERSE, MOBIUS}),
    (sym_tridiag_eig, _uniform, ("eigen",), {REFEREE, SYMMETRIZED}),
    (e_from_b, _uniform, ("eigen", "genfunc"), {SYMMETRIZED, MAPS}),
    (_transported_energy, _uniform, ("eigen",), {ENERGIES, TRANSPORTED}),
    (roots, _uniform, ("genfunc",), {MAPS, ROOT_PRODUCT}),
    (_log_rescale, _uniform, ("eigen", "genfunc"), {TRANSPORTED, ODE}),
    (_mobius, _uniform, ("genfunc",), {MOBIUS}),
    (singularity_radius, _on_radius, ("genfunc",), {SINGULARITY}),
    (psi_p_theta, _uniform, ("eigen",), {RECURRENCE}),
    (recurrence_coeffs, _uniform, ("eigen",), {RECURRENCE}),
    (lhy_block, _uniform, ("wu",), {WU_DIAGONAL}),
    (apply_exp_w, _uniform, ("wu",), {WU_INVERSE}),
    (q_invariant, _uniform, ("genfunc",), {Q}),
    (pair_occupancy, _uniform, ("eigen",), {OCCUPANCY}),
    (f_family, _uniform, ("hypergeom",), {F_RECURRENCE}),
    (_hyp_f, _on_c, ("hypergeom",), {CONTIGUOUS}),
    (_wu_eigenvectors, _alternating_blocks, ("wu",), {WU_RESIDUAL}),
    (apply_exp_pair, _alternating, ("eigen",), {TRANSPORTED}),
    (partial_norms, _alternating, ("eigen",), {SETTLE}),
]


@pytest.mark.parametrize(("func", "fault", "suites", "must_fail"), OUTPUT_FAULTS,
                         ids=[row[0].__name__ for row in OUTPUT_FAULTS])
def test_output_fault_fails_its_checks(monkeypatch, func, fault, suites, must_fail):
    holders = _holders(func)
    assert sys.modules[func.__module__] in holders
    for module in holders:
        monkeypatch.setattr(module, func.__name__, fault(func))
    failed = {r.name for suite in suites for r in run_suite(suite, 0) if not r.passed}
    assert must_fail <= failed


@pytest.mark.parametrize("suite", ["lattice", "genfunc", "hypergeom", "wu"])
def test_unfaulted_suites_pass(suite):
    assert all(r.passed for r in run_suite(suite, 0))
