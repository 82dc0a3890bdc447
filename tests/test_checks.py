import math
import sys
from collections import Counter

import numpy as np
import pytest

from pairspec import checks, genfunc, hypergeom, pair_transform, wu_sector


def test_unknown_suite_refused():
    with pytest.raises(ValueError, match="unknown suite 'bogus'"):
        checks.run_suite("bogus")


@pytest.mark.parametrize("deviations, want", [((0.0, 2.0, 1.0), 2.0), ((-math.inf, -3.0), -3.0),
                                              ((0.0, math.nan, 1.0), math.nan),
                                              ((math.nan, 1.0), math.nan)])
def test_worst_keeps_nan(deviations, want):
    got = checks._worst(*deviations)
    assert got == want or (math.isnan(want) and math.isnan(got))


def test_nan_measurement_fails_its_check(monkeypatch):
    # a NaN residual after a finite one: max(dev, nan) would keep dev and pass
    calls = []

    def residual(*args):
        calls.append(None)
        return math.nan if len(calls) == 2 else checks_residual(*args)

    checks_residual = checks.residual
    monkeypatch.setattr(checks, "residual", residual)
    [result] = checks._finite_eigenstates(np.random.default_rng(0))
    assert len(calls) > 2
    assert math.isnan(result.deviation) and not result.passed


# the kernels verify checks, each with one array form that a check calls once
BATCHED_KERNELS = (
    (genfunc, "mobius"),
    (pair_transform, "apply_exp_pair"),
    (hypergeom, "hyp_f"),
    (hypergeom, "contiguous_residual"),
    (wu_sector, "wu_eigenstate"),
)


def test_verify_calls_its_kernels_in_batches(monkeypatch):
    # a call-count gate: deterministic, unlike a wall-time budget.  Every
    # module namespace that bound a kernel (from .x import y) is patched too.
    calls = Counter()
    for module, name in BATCHED_KERNELS:
        kernel = getattr(module, name)

        def counted(*args, _kernel=kernel, _name=name, **kwargs):
            calls[_name] += 1
            return _kernel(*args, **kwargs)

        for namespace in [m for key, m in sys.modules.items() if key.startswith("pairspec")]:
            for attr, value in list(vars(namespace).items()):
                if value is kernel:
                    monkeypatch.setattr(namespace, attr, counted)
    checks.run_suite("all", 0)
    assert sum(calls.values()) <= 50, dict(calls)
