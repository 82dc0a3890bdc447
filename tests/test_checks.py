import math
import sys
import time
from collections import Counter

import numpy as np
import pytest

from pairspec import checks, eigenstates, fock_ladder, genfunc, hamiltonians, hypergeom, pair_transform, wu_sector
from pairspec.fock_ladder import LadderState


def test_unknown_suite_refused():
    with pytest.raises(ValueError, match="unknown suite 'bogus'"):
        checks.run_suite("bogus")


@pytest.mark.parametrize("seed", [-1, 1.5, None, True], ids=["negative", "float", "None", "True"])
def test_seed_refused(seed):
    # None would run unseeded and True as seed 1: neither gives "same seed, same bits"
    with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, got {seed}$"):
        checks.run_suite("lattice", seed)


@pytest.mark.parametrize("deviations, want", [((0.0, 2.0, 1.0), 2.0), ((-math.inf, -3.0), -3.0),
                                              ((0.0, math.nan, 1.0), math.nan),
                                              ((math.nan, 1.0), math.nan)])
def test_worst_keeps_nan(deviations, want):
    got = checks._worst(*deviations)
    assert got == want or (math.isnan(want) and math.isnan(got))


def test_nan_measurement_fails_its_check(monkeypatch):
    # a NaN residual after a finite one: max(dev, nan) would keep dev and pass
    def residual_rows(*args):
        res = checks_residual_rows(*args)
        res[1] = math.nan
        return res

    checks_residual_rows = checks._residual_rows
    monkeypatch.setattr(checks, "_residual_rows", residual_rows)
    [result] = checks._finite_eigenstates(np.random.default_rng(0))
    assert math.isnan(result.deviation) and not result.passed


# the kernels verify checks, each with one array form that a check calls once
BATCHED_KERNELS = (
    (genfunc, "mobius"),
    (pair_transform, "apply_exp_pair"),
    (hypergeom, "hyp_f"),
    (hypergeom, "contiguous_residual"),
    (wu_sector, "wu_eigenstate"),
)
# and the faces of the eigenstate and exp(W) row forms, which a verify run
# called 585 times, 337 of them psi_p_theta, and of the ladder-operator and
# residual row forms, which it called 930 times
ROW_KERNELS = (
    (eigenstates, "psi_p_theta"),
    (eigenstates, "recurrence_coeffs"),
    (wu_sector, "apply_exp_w"),
    (fock_ladder, "apply_ab"),
    (fock_ladder, "apply_adbd"),
    (fock_ladder, "apply_halfnumber"),
    (hamiltonians, "apply_hab_alpha"),
    (eigenstates, "residual"),
)


def test_verify_calls_its_kernels_in_batches(monkeypatch):
    # a call-count gate: deterministic, unlike a wall-time budget.  Every
    # module namespace that bound a kernel (from .x import y) is patched too.
    calls = Counter()
    for module, name in BATCHED_KERNELS + ROW_KERNELS:
        kernel = getattr(module, name)

        def counted(*args, _kernel=kernel, _name=name, **kwargs):
            calls[_name] += 1
            return _kernel(*args, **kwargs)

        for namespace in [m for key, m in sys.modules.items() if key.startswith("pairspec")]:
            for attr, value in list(vars(namespace).items()):
                if value is kernel:
                    monkeypatch.setattr(namespace, attr, counted)
    checks.run_suite("all", 0)
    assert sum(calls[name] for _, name in BATCHED_KERNELS) <= 50, dict(calls)
    # what is left are 11 single psi_p_theta states: _collapse, _ode_eigen_series
    # and _ladder_orthogonality
    assert sum(calls[name] for _, name in ROW_KERNELS) <= 11, dict(calls)


def _labels(*args) -> list[tuple]:
    """The rows of a row form's broadcast arguments as Python numbers."""
    return list(zip(*(v.tolist() for v in np.broadcast_arrays(*args))))


def _states(coeffs, p, *args) -> list:
    """The rows of coefficients as states, each on the ladder of its p, with
    the rows of the other arguments as Python numbers."""
    labels = _labels(p, *args) if args else [(q,) for q in np.broadcast_to(p, len(coeffs)).tolist()]
    return [(LadderState(label[0], c), *label[1:]) for c, label in zip(coeffs, labels)]


# each row form with a loop of its scalar face over the same arguments
FACE_LOOPS = {
    "_psi_rows": lambda *args: [eigenstates.psi_p_theta(eigenstates.EigenstateSpec(*label))
                                for label in _labels(*args)],
    "_recurrence_rows": lambda *args: [eigenstates.recurrence_coeffs(*label) for label in _labels(*args)],
    "_exp_w_rows": lambda x, sectors, sign: [wu_sector.apply_exp_w(row[: sector.dim], sector, sign)
                                             for row, sector in zip(x, sectors)],
    "_ab_rows": lambda coeffs, p: [fock_ladder.apply_ab(st) for st, in _states(coeffs, p)],
    "_adbd_rows": lambda coeffs, p: [fock_ladder.apply_adbd(st) for st, in _states(coeffs, p)],
    "_hab_rows": lambda coeffs, *args: [hamiltonians.apply_hab_alpha(*row) for row in _states(coeffs, *args)],
    "_residual_rows": lambda coeffs, p, y1, y2, energy, smax: [
        eigenstates.residual(LadderState(st.p, st.coeffs[: m + 1]), *row)
        for st, *row, m in _states(coeffs, p, y1, y2, energy, smax)],
    "_exp_pair": lambda coeffs, p, t: [pair_transform.apply_exp_pair(*row) for row in _states(coeffs, p, t)],
}


@pytest.mark.parametrize("check", [
    checks._ladder_adjoint, checks._ladder_commutator, checks._matrix_vs_operator, checks._product_vs_recurrence,
    checks._finite_eigenstates, checks._transport, checks._wu_sector,
], ids=lambda check: check.__name__)
def test_row_calls_within_budget_of_their_faces(monkeypatch, check):
    # the row calls a check makes at seed 0, against a loop of their faces over
    # the same arguments, each the best of 5, interleaved: a share of the loop's
    # time, since a shared host's speed drifts for seconds at a time
    calls = []
    for module, name in ((checks, "_psi_rows"), (checks, "_recurrence_rows"), (wu_sector, "_exp_w_rows"),
                         (checks, "_ab_rows"), (checks, "_adbd_rows"), (checks, "_hab_rows"),
                         (checks, "_residual_rows"), (hypergeom, "_psi_rows"), (pair_transform, "_exp_pair")):
        def record(*args, _kernel=getattr(module, name), _name=name):
            calls.append((_kernel, _name, args))
            return _kernel(*args)

        monkeypatch.setattr(module, name, record)
    check(np.random.default_rng(0))
    monkeypatch.undo()
    assert calls
    routes = {
        "rows": lambda: [kernel(*args) for kernel, _, args in calls],
        "faces": lambda: [FACE_LOOPS[name](*args) for _, name, args in calls],
    }
    best = dict.fromkeys(routes, math.inf)
    for _ in range(5):
        for name, route in routes.items():
            t0 = time.thread_time()  # this thread: BLAS workers and other processes do not count
            route()
            best[name] = min(best[name], time.thread_time() - t0)
    assert best["rows"] <= 0.5 * best["faces"], best
