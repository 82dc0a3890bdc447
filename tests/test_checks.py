import math

import numpy as np
import pytest

from pairspec import checks


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
