"""The extended-precision kernels with their type set to plain double.

``pair_transform._EXT`` is plain double where long double is (MSVC, macOS
arm64).  Here it is monkeypatched to float64 on any host, and every kernel
that reads it must still return a finite result or raise ``ValueError``, with
no RuntimeWarning (pytest turns those into errors).  Mostly the outcome class
is checked, since most range and accuracy claims need x87; the ``wu`` report,
whose weights are running sums of log term ratios, and ``verify``, whose
eigenstates are, must also pass their gates.  The ladder range-edge rows of
``test_count_guard`` and ``test_eigenstates`` run here as well.
"""

import math

import numpy as np
import pytest

from pairspec import hypergeom, oracle, pair_transform, wu_sector
from pairspec.cli import main
from pairspec.fock_ladder import LadderState
from pairspec.lattice import ModelParams, mode_params
from pairspec.pair_transform import apply_exp_pair, conjugation_check

# the ladder range edges (a complex theta of modulus beyond double range, norms
# whose squares overflow, the residual and pairing refusals) collected here
# again, so that they run with _EXT = float64 too
from test_count_guard import test_range_refused  # noqa: F401
from test_eigenstates import test_range_edge_values  # noqa: F401


@pytest.fixture(autouse=True)
def float64(monkeypatch):
    monkeypatch.setattr(pair_transform, "_EXT", np.float64)


def finite_or_refused(call):
    """call()'s result when it is finite, None when it raises ValueError."""
    try:
        result = call()
    except ValueError:
        return None
    assert np.all(np.isfinite(result))
    return result


def test_the_type_reaches_every_module(monkeypatch):
    seen = []
    twisted = oracle._twisted_vectors
    columns = pair_transform._binomial_columns

    def spy(diag, off, lams):
        seen.append(lams.dtype)
        return twisted(diag, off, lams)

    def column_spy(num, leads):  # wu_sector builds the numerators
        seen.append(num.dtype)
        return columns(num, leads)

    monkeypatch.setattr(oracle, "_twisted_vectors", spy)
    monkeypatch.setattr(pair_transform, "_binomial_columns", column_spy)
    hypergeom.transported_state(0, 2, 0.3, 20)
    mp = ModelParams(a=0.0198944, rho=1.0, L=6.2831853)
    sector = wu_sector.WuSector(6, 0, mode_params(mp, (0.0, 0.0, 2.0 * math.pi / mp.L)))
    wu_sector.apply_exp_w(wu_sector.wu_eigenstate(sector, mp, 2), sector)
    assert seen == [np.float64, np.float64]
    assert pair_transform._taylor_numerators(0.5, 4).dtype == np.float64


def test_unrepresentable_image_refused():
    c = np.zeros(3001, dtype=complex)
    c[1500] = 1.0
    with pytest.raises(ValueError, match="beyond double range"):
        apply_exp_pair(LadderState(0, c), -0.9)


def check_verdict_in_both_lanes(monkeypatch, capsys, argv, want):
    """`eigenstate`'s (transform_domain line, exit code) is want with _EXT float64 and long double."""
    for ext in (np.float64, np.longdouble):
        monkeypatch.setattr(pair_transform, "_EXT", ext)
        code = main(argv)
        captured = capsys.readouterr()
        assert captured.err == ""
        line = next(line for line in captured.out.splitlines() if line.startswith("transform_domain"))
        assert (line, code) == want, ext


# the benchmark's three dense-transform commands, and smax 10^4
@pytest.mark.parametrize("theta, alpha, smax, domain, code", [
    (-0.5, 0.02, 600, "InDomain", 0), (0.5, 0.05, 400, "NotInDomain", 2),
    (3.0, 0.3, 800, "InDomain", 0), (-0.5, 0.3, 10**4, "NotInDomain", 2),
], ids=["-0.5-0.02-600", "0.5-0.05-400", "3.0-0.3-800", "-0.5-0.3-10000"])
def test_domain_check(monkeypatch, capsys, theta, alpha, smax, domain, code):
    argv = ["eigenstate", "--y", "0.45", "--theta", repr(theta), "--smax", str(smax),
            "--transform", repr(alpha)]
    check_verdict_in_both_lanes(monkeypatch, capsys, argv, (f"transform_domain = {domain}", code))


# two labels at ytilde (1 - alpha) = 0.968, where the verdict once changed with
# smax, and a state whose coefficients leave double range past smax 100
BOUNDARY_LABELS = {
    "first": ["--y", "0.46766844082778625", "--p", "2", "--theta", "5.93", "--transform", "0.268"],
    "second": ["--y", "0.4961062937431326", "--p", "1", "--theta", "1.864", "--transform", "0.757"],
}


@pytest.mark.parametrize("argv", [
    *([*label, "--smax", smax] for label in BOUNDARY_LABELS.values() for smax in ("200", "600", "2000")),
    ["--y", "0.01", "--theta", "0.5", "--smax", "100", "--transform", "0.001"],
], ids=[*(f"{name}-smax-{smax}" for name in BOUNDARY_LABELS for smax in ("200", "600", "2000")),
        "beyond-double-range"])
def test_domain_check_is_exact(monkeypatch, capsys, argv):
    check_verdict_in_both_lanes(monkeypatch, capsys, ["eigenstate", *argv], ("transform_domain = NotInDomain", 2))


def test_range_figure_is_the_types():
    # terms beyond double range: the message must not claim the x87 range 1e4932
    with pytest.raises(ValueError, match=r"beyond extended range \(1e308\)$"):
        conjugation_check(1e300, 20)


@pytest.mark.parametrize("alpha, smax", [(0.9, 30), (0.9, 200), (0.2, 40), (1e-20, 300),
                                         (3.0, 20), (-0.5, 20)])
def test_conjugation_check(alpha, smax):
    finite_or_refused(lambda: conjugation_check(alpha, smax))


def test_gram_witness():
    finite_or_refused(lambda: hypergeom.gram_witness(0, 0.45, 63, 640))


def test_wu_kernels():
    mp = ModelParams(a=0.0198944, rho=1.0, L=6.2831853)
    sector = wu_sector.WuSector(2000, 0, mode_params(mp, (0.0, 0.0, 2.0 * math.pi / mp.L)))
    for n_index in (0, 10, 500, sector.dim - 1):
        vec = finite_or_refused(lambda: wu_sector.wu_eigenstate(sector, mp, n_index))
        if vec is not None:
            finite_or_refused(lambda: wu_sector.apply_exp_w(vec, sector))


@pytest.mark.parametrize("seed", [0, 3, 77])
def test_verify_passes(capsys, seed):
    # the closed-form eigenstates are exponentiated running log sums in _EXT;
    # in double too every check stays within its tolerance
    code = main(["verify", "--suite", "all", "--seed", str(seed)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""


def test_wu_report_passes(capsys):
    # the eigenvector weights are running sums of log term ratios: in double
    # too every residual stays under the report's 1e-10 gate
    code = main(["wu", "--a", "0.0198944", "--rho", "1", "--L", "6.2831853", "--N", "2000",
                 "--kn", "0,0,1"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    rows = [line.split(",") for line in captured.out.splitlines()[1:] if not line.startswith("#")]
    assert len(rows) == 1001
    assert max(float(row[2]) for row in rows) <= 1e-10
