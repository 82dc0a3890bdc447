"""Acceptance gate: one test per criterion, at the stated tolerances/budgets.

Every criterion is a row of measurements from ``pairspec.checks`` -- the same
functions ``pairspec verify`` runs -- called on the criterion's strict grid;
the tolerances are the checks' own.  Run with
``pytest tests/test_acceptance.py -v -s`` to get one printed PASS/FAIL line
per criterion alongside the pytest verdicts.
"""

import time

import numpy as np

from pairspec import checks

# criterion: (runtime budget in s, seed, [(measurement, strict grid), ...])
CRITERIA = {
    "A1 bogoliubov-spectrum-vs-oracle": (5.0, 0, [
        (checks._oracle_spectrum, dict(smax=300, levels=6)),
        (checks._transformed_block_spectrum, dict(fractions=(0.25, 0.5, 0.9), ps=range(3), smax=80)),
    ]),
    "A2 exact-finite-eigenstates": (1.0, 0, [(checks._finite_eigenstates, dict(ps=range(21), ns=range(21)))]),
    "A3 eigenstate-transport": (10.0, 0, [
        (checks._transport, dict(ps=range(4), ns=range(6), pad=400)),
        (checks._transport_energy, dict(ps=range(4), ns=range(6))),
    ]),
    "A4 dispersion-and-branch-identities": (1.0, 0, [(checks._dispersion, dict(nmax=4))]),
    "A5 mobius-exponential-agreement": (
        2.0, 202, [(checks._mobius_vs_exponential, dict(alpha_range=(0.01, 0.9)))]
    ),
    "A6 q-invariant": (1.0, 0, [(checks._q_invariant, {})]),
    "A7 normalizability-dichotomy": (5.0, 0, [
        (checks._divergence_witness, {}),
        (checks._cauchy_tail, dict(smax=400, tail_from=300)),
        (checks._tail_constants, {}),
    ]),
    "A8 hypergeometric-identities": (1.0, 0, [(checks._contiguous, {}), (checks._derivative, {})]),
    "A9 completeness-witness": (10.0, 0, [
        (checks._gram_floor, dict(ps=(0, 1), y=0.45, nmax=8, smax=80)),
        (checks._gram_drift, dict(ps=(0, 1), y=0.45, nmax=8, smax=80)),
    ]),
    "A10 wu-sector": (5.0, 11, [(checks._wu_sector, dict(ntots=range(2, 17), ps=range(5)))]),
    "A11 ground-state-depletion": (
        2.0, 0, [(checks._ground_occupancy, {}), (checks._depletion, dict(nmax=3))]
    ),
}


def measure(criterion: str) -> tuple[list[checks.CheckResult], float]:
    """Run one criterion's row; returns its check results and elapsed seconds."""
    _, seed, calls = CRITERIA[criterion]
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    results = [r for check, grid in calls for r in check(rng, **grid)]
    return results, time.perf_counter() - t0


def _gate(criterion: str) -> None:
    budget = CRITERIA[criterion][0]
    results, elapsed = measure(criterion)
    ok = all(r.passed for r in results)
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    detail = "; ".join(f"{r.name}: {r.deviation:.3e} (tol {r.tolerance:.0e})" for r in results)
    print(f"{criterion} {verdict} {detail} [{elapsed:.2f}s / {budget:.0f}s]")
    assert ok, f"{criterion}: {detail}"
    assert elapsed < budget, f"{criterion}: runtime {elapsed:.2f}s exceeds {budget}s"


# one test per row, named after its criterion (A1 -> test_a1_bogoliubov_...)
for _criterion in CRITERIA:
    _name = "test_" + _criterion.lower().replace(" ", "_").replace("-", "_")
    globals()[_name] = lambda criterion=_criterion: _gate(criterion)
