"""Injected-fault table: every closed form's referee must bite.

Each row patches a 1e-7 relative fault into one public function, in every
``pairspec`` namespace that holds it, runs one ``verify`` suite at seed 0, and
names the checks that must fail.  A check edit that lets one of them pass
under the fault blinds the suite to it, and fails this table.  The rows so far
are the ladder layer: the three operators and the two-mode block built on them.
"""

import sys

import pytest

from pairspec.checks import run_suite
from pairspec.fock_ladder import LadderState, apply_ab, apply_adbd, apply_halfnumber
from pairspec.hamiltonians import apply_hab_alpha

FAULT = 1e-7
ADJOINT = "pair raising/lowering are mutually adjoint"
COMMUTATOR = "[ab, a*b*] acts as p + 2s + 1"
MATRIX = "tridiagonal matrix matches the operator action"
RESIDUAL = "finite eigenstates have zero residual"
TRANSPORTED = "transported states solve the Hermitian block"


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
