import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pairspec.checks
import pairspec.cli
import pairspec.eigenstates
import pairspec.hypergeom
import pairspec.pair_transform
import pairspec.wu_sector
import test_acceptance
from test_pair_transform import needs_x87
from pairspec import __version__
from pairspec.cli import fmt, main
from pairspec.lattice import ModelParams, _alpha_total, half_lattice, mode_params

REF_ARGS = ["--a", str(1.0 / (16.0 * math.pi)), "--rho", "1", "--L", str(2.0 * math.pi)]
FREE_ARGS = ["--a", "0", *REF_ARGS[2:]]

# SHA-256 of `spectrum` stdout: (model, nmax, format) -> digest.  The stdlib
# encoder referees the json row template in test_json_rows_match_stdlib_encoder.
SPECTRUM_SHA256 = {
    ("ref", 1, "csv"): "e9045e2e755ead6806af340b3c591e4cabff7efffdaef9f301496435e377f8ed",
    ("ref", 1, "json"): "7ca6db2e248c4ba140decbeac293c7ca879e7e2925584b21cee73aaf3170bebf",
    ("ref", 2, "csv"): "5120be2f76eaf7ace8939aaa76c74c2e9cce25c62b30d0cc1bda3dc4603150f1",
    ("ref", 2, "json"): "3e1f6d888e245677ea31b9ac13df2abcbd9e1906849ed6253a32d196ef3be3eb",
    ("ref", 5, "csv"): "5053db704cd1dcaaa8b0469dd8dcf2c15a92b10fb11a42d23732be024699b4b1",
    ("ref", 5, "json"): "b1917fa3f647b3703902df9060e6ab62518776e9900a719701f2343fe6653fd0",
    ("free", 1, "csv"): "5f561417f6d49bade3870af6f69169c5907cc79fec8371448140261273f411a1",
    ("free", 1, "json"): "c2ffc696fd680573939c97de4fb2b05c5fe97ff5c78b3511f2ed02d0c06cba78",
    ("free", 2, "csv"): "5383cb2486fc487793ff5eacb53d0446ca8dd9aea6dff9b58f94e20a9213c836",
    ("free", 2, "json"): "13b4cb1cca20de08b98ec387f43b5fa92c91d2ac64b6f1cfec3815065e078c58",
    ("free", 5, "csv"): "47c21aec9ef5793c4f94473e106c8fa58011317aca37164ef531b3dbcc8fe17e",
    ("free", 5, "json"): "6e13359649d08fa1168b86a60c746ea417f708cdac9de17490b2cba30b8b2c88",
}

# SHA-256 of the other commands' stdout: id -> (argv, exit code, digest).  Their
# eigenstate coefficients (exponentiated running log sums), transform, referee
# and sector kernels run in pair_transform._EXT, so these bytes hold only where
# that type is x87 extended precision; wu-free and spectrum-gas-scale-underflow
# read no extended arithmetic and hold everywhere.
COMMAND_SHA256 = {
    "eigenstate-transform": (
        ["eigenstate", "--y", "0.3", "--theta", "1", "--smax", "30", "--transform", "0.2"], 0,
        "f8185f6f99a2c6b316daf6d70e23e23e3b6aa189a07ed531dc59b4343bfc1149",
    ),
    "eigenstate-transform-refused": (
        ["eigenstate", "--y", "0.45", "--p", "1", "--theta", "0.5", "--smax", "300",
         "--transform", "0.3"], 2,
        "bf93391498eb44f29f6ab6396d245210dca8bee1d01318b05cfe336b0c085d38",
    ),
    "eigenstate-k-mode": (
        ["eigenstate", "--k-mode", "0,0,1", *REF_ARGS, "--theta", "1", "--smax", "4"], 0,
        "cc8b082e13f63770130fae1e1c3c71522d10c5f575ba28358e2ebd65191567a9",
    ),
    "eigenstate-k-mode-transform": (
        ["eigenstate", "--k-mode", "0,0,1", *REF_ARGS, "--p", "2", "--theta", "2", "--smax", "20",
         "--transform", "0.1"], 0,
        "2a5e46033acda9ab4c2698d80f69f2aad1c4a4237481c903482452b80e76e548",
    ),
    "gram-nmax-4": (
        ["gram"], 0, "c6617c55b2d935dc94df664e7d09b3e22f1b8a9be8d0831ec14c978381e9230e",
    ),
    "gram-nmax-63": (
        ["gram", "--nmax", "63", "--smax", "640"], 0,
        "0e03e0c5f75d69ca1d7246c5ce9ba1d8bb0fa966e73352b64184286300312def",
    ),
    **{
        f"wu-N-{n}": (["wu", *REF_ARGS, "--N", str(n), "--kn", "0,0,1"], 0, digest)
        for n, digest in (
            (4, "2d68e390c2018c88f8cecc99ea742d330ea2bb4adbcfe5d80af5e99afc285c45"),
            (50, "1aa0a1fab02d150f89b5b5fa0362abfe0654ccbbbfad65db663d7ae082d4f620"),
            (170, "43734cd913762e2a4afbe85fab781c2d74549ca83ed3f5e990f2ba4757fb7ff6"),
        )
    },
    # the free sector (a = 0) and a model whose 8*pi*a*rho underflows to 0
    "wu-free": (
        ["wu", "--a", "0", "--rho", "1", "--L", "6.283185307179586", "--N", "4", "--kn", "0,0,1"], 0,
        "c58dd51511baf645301c56721eadd114b12a56bb93763b7ba2fa0e24f2b40a09",
    ),
    "spectrum-gas-scale-underflow": (
        ["spectrum", "--a", "1e-300", "--rho", "1e-300", "--L", "1", "--nmax", "1"], 0,
        "c26ed5aa9fbb4082c3470fcd93b97abdaeecf57937eecc42619adcbf6cec7cb1",
    ),
    "verify-seed-0": (
        ["verify", "--suite", "all", "--seed", "0"], 0,
        "87c2937522a73938a4df6e896d061514d477cd0499659c32f12e985231d30f3a",
    ),
    "verify-seed-3": (
        ["verify", "--suite", "all", "--seed", "3"], 0,
        "b3d4da29b6b8cf8cfdedc5f82ba15ec6659232cc3959f4d52e2eb7c89b9fba4b",
    ),
    "verify-seed-77": (
        ["verify", "--suite", "all", "--seed", "77"], 0,
        "6ae989ec0600e82dd7f2267445b3cd6619800b3cd8baadb3da3279cdf285743e",
    ),
}


# One report per command for the --out tests: id -> (argv, exit code).
OUT_REPORTS = {
    "spectrum": (["spectrum", *REF_ARGS, "--nmax", "1"], 0),
    "eigenstate-refused": (
        ["eigenstate", "--y", "0.3", "--theta", "0.5", "--smax", "300", "--transform", "0.33"], 2),
    "verify": (["verify", "--suite", "lattice", "--seed", "7"], 0),
    "gram": (["gram"], 0),
    "wu": (["wu", *REF_ARGS, "--N", "4", "--kn", "0,0,1"], 0),
}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestSpectrum:
    def test_row_count_and_reference_mode(self, capsys):
        code, out = run(capsys, ["spectrum", *REF_ARGS, "--nmax", "1"])
        assert code == 0
        lines = [l for l in out.strip().splitlines() if l and not l.startswith("#")]
        assert len(lines) == 14  # header + 13 modes
        row001 = next(l for l in lines if l.startswith("0,0,1,"))
        eps = float(row001.split(",")[-1])
        assert eps == pytest.approx(math.sqrt(2.0), abs=1e-7)

    def test_free_gas_epsilon_is_ksq(self, capsys):
        code, out = run(capsys, ["spectrum", "--a", "0", "--rho", "1", "--L", "6.283185307179586", "--nmax", "1"])
        assert code == 0
        for line in out.strip().splitlines():
            if line.startswith("#") or line.startswith("n1,"):
                continue
            parts = line.split(",")
            k_abs, eps = float(parts[3]), float(parts[7])
            assert eps == pytest.approx(k_abs**2, rel=1e-12)

    def test_csv_json_numeric_identity(self, capsys):
        code_c, out_c = run(capsys, ["spectrum", *REF_ARGS, "--nmax", "1", "--format", "csv"])
        code_j, out_j = run(capsys, ["spectrum", *REF_ARGS, "--nmax", "1", "--format", "json"])
        assert code_c == 0 and code_j == 0
        number = re.compile(r"-?\d+\.\d+(?:[eE][-+]?\d+)?")
        nums_csv = sorted(number.findall(out_c))
        nums_json = sorted(number.findall(out_j))
        assert nums_csv == nums_json  # identical 17-digit renderings

    def test_json_schema(self, capsys):
        _, out = run(capsys, ["spectrum", *REF_ARGS, "--nmax", "1", "--format", "json"])
        payload = json.loads(out)
        assert set(payload) == {"model", "modes", "footer"}
        assert len(payload["modes"]) == 13
        assert payload["footer"]["alpha_sum_grows_with_cutoff"] is True

    def test_invalid_input_exit_code(self, capsys):
        code = main(["spectrum", "--a", "-1", "--rho", "1", "--L", "1"])
        capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize("key", sorted(SPECTRUM_SHA256), ids=lambda key: "-".join(map(str, key)))
    def test_output_bytes_are_pinned(self, capsys, key):
        model, nmax, form = key
        model_args = REF_ARGS if model == "ref" else FREE_ARGS
        code, out = run(capsys, ["spectrum", *model_args, "--nmax", str(nmax), "--format", form])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SPECTRUM_SHA256[key]

    @pytest.mark.parametrize("model_args", [REF_ARGS, FREE_ARGS], ids=["ref", "free"])
    def test_json_rows_match_stdlib_encoder(self, capsys, model_args):
        # the stdlib encoder is the referee of the row template
        code, out = run(capsys, ["spectrum", *model_args, "--nmax", "2", "--format", "json"])
        assert code == 0
        mp = ModelParams(a=float(model_args[1]), rho=float(model_args[3]), L=float(model_args[5]))
        modes = [mode_params(mp, k) for k in half_lattice(mp.L, 2)]
        asum = _alpha_total(mp, (m.alpha for m in modes))
        keys = ("n1", "n2", "n3", "k_abs", "y", "ytilde", "alpha", "epsilon")
        payload = {
            "model": {"a": fmt(mp.a), "rho": fmt(mp.rho), "L": fmt(mp.L), "N": fmt(mp.N)},
            "modes": [
                dict(zip(keys, (*m.n, *map(fmt, (math.sqrt(m.ksq), m.y, m.ytilde, m.alpha, m.epsilon)))))
                for m in modes
            ],
            "footer": {
                "four_pi_a_rho_N": fmt(mp.mean_field_energy),
                "alpha_sum": fmt(asum.value),
                "alpha_sum_grows_with_cutoff": asum.grows_with_cutoff,
            },
        }
        assert out == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("argv, want_code", OUT_REPORTS.values(), ids=OUT_REPORTS.keys())
    def test_out_file_matches_stdout(self, capsys, tmp_path, argv, want_code):
        path = tmp_path / "report.txt"
        code, out = run(capsys, [*argv, "--out", str(path)])
        assert code == want_code and out
        assert path.read_text() == out

    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    def test_unwritable_out_is_one_line_error(self, capsys, tmp_path, where):
        path = tmp_path if where == "directory" else tmp_path / "missing" / "x.csv"
        code = main(["gram", "--out", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and str(path) in captured.err

    def test_refused_input_writes_no_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.txt"
        code = main(["gram", "--nmax", "-1", "--out", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and not path.exists()


@needs_x87
@pytest.mark.parametrize("name", sorted(COMMAND_SHA256))
def test_command_bytes_are_pinned(capsys, name):
    argv, want_code, digest = COMMAND_SHA256[name]
    code, out = run(capsys, argv)
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestEigenstate:
    def test_single_pair(self, capsys):
        code, out = run(capsys, ["eigenstate", "--y", "0.3", "--p", "0", "--theta", "1", "--smax", "4"])
        assert code == 0
        assert "classification = FiniteSum" in out
        assert "energy = 1" in out
        rows = [l for l in out.splitlines() if re.match(r"^\d+,", l)]
        c0 = float(rows[0].split(",")[1])
        c1 = float(rows[1].split(",")[1])
        assert c0 == pytest.approx(1.0)
        ytil = 0.3 / math.sqrt(1 - 0.36)
        assert c1 == pytest.approx(1.0 / ytil, rel=1e-12)

    def test_theta_zero_single_coefficient(self, capsys):
        code, out = run(capsys, ["eigenstate", "--y", "0.3", "--p", "4", "--theta", "0", "--smax", "6"])
        assert code == 0
        assert "energy = 2" in out
        rows = [l for l in out.splitlines() if re.match(r"^\d+,", l)]
        values = [float(r.split(",")[1]) for r in rows]
        assert values[0] == 1.0 and all(v == 0.0 for v in values[1:])

    def test_normalizable_regime(self, capsys):
        code, out = run(capsys, ["eigenstate", "--y", "0.45", "--theta", "0.5", "--smax", "12"])
        assert code == 0
        assert "classification = Normalizable" in out

    def test_transform_emits_block_energy(self, capsys):
        code, out = run(
            capsys,
            ["eigenstate", "--y", "0.3", "--p", "0", "--theta", "1", "--smax", "30", "--transform", "0.2"],
        )
        assert code == 0
        e_line = next(l for l in out.splitlines() if l.startswith("transformed_energy"))
        expect = (1 - 2 * 0.2 * 0.3) * 1.0 - 0.2 * 0.3
        assert float(e_line.split("=")[1]) == pytest.approx(expect, rel=1e-12)

    def test_transform_refused_outside_domain(self, capsys):
        # divergent label below unit coupling cannot be transported
        code, out = run(
            capsys,
            ["eigenstate", "--y", "0.3", "--theta", "0.5", "--smax", "300", "--transform", "0.33"],
        )
        assert code == 2
        assert "transform_domain = NotInDomain" in out

    def test_subnormal_coefficient_transforms(self, capsys):
        argv = ["eigenstate", "--y", "0.49", "--theta", "0.5", "--smax", "800", "--transform", "0.1"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert "transform_domain = InDomain" in captured.out
        block = captured.out.split("s,transformed_re,transformed_im\n")[1].splitlines()
        values = [float(x) for row in block for x in row.split(",")[1:]]
        assert len(block) == 801 and all(map(math.isfinite, values))

    def test_domain_verdict_beyond_double_range(self, capsys):
        # c_200 of this state is beyond double range; the verdict forms no coefficient
        argv = ["eigenstate", "--y", "0.01", "--theta", "0.5", "--smax", "100", "--transform", "0.001"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        assert "transform_domain = NotInDomain" in captured.out

    @pytest.mark.parametrize("alpha", ["0", "1"])
    def test_transform_refused_before_the_state_is_formed(self, capsys, monkeypatch, alpha):
        def formed(spec):
            raise AssertionError("the state was formed before alpha was checked")

        monkeypatch.setattr(pairspec.cli, "psi_p_theta", formed)
        argv = ["eigenstate", "--y", "0.45", "--theta", "-0.5", "--smax", "2000000", "--transform", alpha]
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == f"error: alpha must lie in (0, 1), got {float(alpha)}\n"

    def test_k_mode_source(self, capsys):
        code, out = run(
            capsys,
            ["eigenstate", "--k-mode", "0,0,1", *REF_ARGS, "--theta", "1", "--smax", "4"],
        )
        assert code == 0
        ytil = 1.0 / (4.0 * math.sqrt(2.0))
        rows = [l for l in out.splitlines() if re.match(r"^\d+,", l)]
        assert float(rows[1].split(",")[1]) == pytest.approx(1 / ytil, rel=1e-10)

    def test_unrepresentable_expansion_is_one_line_error(self, capsys):
        code = main(["eigenstate", "--y", "0.2", "--theta", "0.5", "--smax", "2000"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1
        assert err.startswith("error: ") and err.rstrip().endswith("smax is 473")

    @pytest.mark.parametrize("extra, want_code", [([], 0), (["--transform", "0.1"], 2)],
                             ids=["plain", "transform"])
    def test_complex_theta(self, capsys, extra, want_code):
        argv = ["eigenstate", "--y", "0.3", "--theta", "0.5,0.25", "--smax", "5", *extra]
        code, out = run(capsys, argv)
        assert code == want_code
        assert "\nenergy = 0.5 + 0.25 i\n" in out

    def test_missing_coupling_is_invalid(self, capsys):
        code = main(["eigenstate", "--theta", "1"])
        capsys.readouterr()
        assert code == 1


class TestVerify:
    def test_lattice_suite_passes(self, capsys):
        code, out = run(capsys, ["verify", "--suite", "lattice", "--seed", "7"])
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert all(c["passed"] for c in payload["checks"])

    def test_deterministic_given_seed(self, capsys):
        _, out1 = run(capsys, ["verify", "--suite", "genfunc", "--seed", "7"])
        _, out2 = run(capsys, ["verify", "--suite", "genfunc", "--seed", "7"])
        assert out1 == out2

    def test_injected_fault_fails(self, capsys, monkeypatch):
        # flipped sign in the closed-form spectrum must trip the referee check,
        # both in verify and in the acceptance row that shares its definition
        def broken(y, p, n):
            root = math.sqrt(1 - 4 * y * y)
            return root * (n + p / 2.0 + 0.5) + 0.5  # wrong sign on the shift

        monkeypatch.setattr(pairspec.checks, "bog_energy_ab", broken)
        code, out = run(capsys, ["verify", "--suite", "eigen", "--seed", "0"])
        assert code == 2
        payload = json.loads(out)
        assert not payload["passed"]
        results, _ = test_acceptance.measure("A1 bogoliubov-spectrum-vs-oracle")
        assert not all(r.passed for r in results)


class TestGram:
    def test_default_five_positive_values(self, capsys):
        code, out = run(capsys, ["gram"])
        assert code == 0
        rows = [l for l in out.splitlines() if re.match(r"^\d+,", l)]
        values = [float(r.split(",")[1]) for r in rows]
        assert len(values) == 5
        assert all(v > 0 for v in values)

    def test_64_states_are_orthonormal(self, capsys):
        # the binomial shift gave 0.0026 here: cancellation noise, not the Gram
        code, out = run(capsys, ["gram", "--nmax", "63", "--smax", "640"])
        assert code == 0
        ratio = float(out.strip().splitlines()[-1].split(",")[1])
        assert ratio >= 1 - 1e-10

    def test_tiny_coupling_keeps_both_states(self, capsys):
        # the row norms overflowed here: a zero singular value and a RuntimeWarning
        code, out = run(capsys, ["gram", "--y", "1e-160", "--nmax", "1", "--smax", "20"])
        assert code == 0
        assert out.strip().splitlines()[-1] == "# smallest_over_largest,1"

    def test_beyond_64_states_is_one_line_error(self, capsys):
        code = main(["gram", "--nmax", "64", "--smax", "640"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: Nmax must be <= 63")


class TestWu:
    def test_free_gas_diagonal_spectrum(self, capsys):
        code, out = run(
            capsys,
            ["wu", "--a", "0", "--rho", "1", "--L", str(2 * math.pi), "--N", "4", "--p", "0", "--kn", "0,0,1"],
        )
        assert code == 0
        rows = [l for l in out.splitlines() if re.match(r"^\d+,", l)]
        energies = [float(r.split(",")[1]) for r in rows]
        np.testing.assert_allclose(energies, [0.0, 2.0, 4.0])

    def test_interacting_residuals_reported(self, capsys):
        code, out = run(
            capsys,
            ["wu", *REF_ARGS, "--N", "4", "--p", "0", "--kn", "0,0,1"],
        )
        assert code == 0
        rows = [l for l in out.splitlines() if re.match(r"^\d+,", l)]
        energies = [float(r.split(",")[1]) for r in rows]
        residuals = [float(r.split(",")[2]) for r in rows]
        np.testing.assert_allclose(energies, math.sqrt(2.0) * np.array([0.0, 2.0, 4.0]), rtol=1e-12)
        assert max(residuals) <= 1e-10

    def test_underflowing_coupling_is_free(self, capsys):
        # 8 pi a / (L^3 eps_k) underflows to 0 for this a > 0: the sector is free
        argv = ["wu", "--a", "5e-324", "--rho", "1", "--L", str(2 * math.pi), "--N", "4",
                "--kn", "0,0,1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        rows = [[float(x) for x in l.split(",")] for l in captured.out.splitlines()
                if re.match(r"^\d+,", l)]
        assert len(rows) == 3 and all(row[2] == 0.0 for row in rows)

    def test_nan_residual_fails(self, capsys, monkeypatch):
        # wu and verify take their residuals from the one generator
        monkeypatch.setattr(pairspec.wu_sector, "_wu_residuals", lambda sector, mp: iter(
            [(np.arange(sector.dim), np.zeros(sector.dim), np.full(sector.dim, np.nan))]))
        code, out = run(capsys, ["wu", *REF_ARGS, "--N", "4", "--kn", "0,0,1"])
        assert code == 2 and "0,0,nan" in out
        code, out = run(capsys, ["verify", "--suite", "wu"])
        row = next(r for r in json.loads(out)["checks"]
                   if r["name"] == "closed-form eigenvectors have zero residual")
        assert code == 2 and row["deviation"] == "nan" and not row["passed"]

    def test_one_residual_gate(self, capsys, monkeypatch):
        # wu and verify read one tolerance: a gate below every residual fails both
        monkeypatch.setattr(pairspec.wu_sector, "_RESIDUAL_TOL", -1.0)
        code, _ = run(capsys, ["wu", *REF_ARGS, "--N", "4", "--kn", "0,0,1"])
        assert code == 2
        code, out = run(capsys, ["verify", "--suite", "wu"])
        row = next(r for r in json.loads(out)["checks"]
                   if r["name"] == "closed-form eigenvectors have zero residual")
        assert code == 2 and row["tolerance"] == "-1" and not row["passed"]

    def test_large_sector_is_finite(self, capsys):
        # the exact factorial weights of this sector lie beyond double range
        code, out = run(capsys, ["wu", *REF_ARGS, "--N", "400", "--p", "0", "--kn", "0,0,1"])
        assert code == 0
        rows = [[float(x) for x in l.split(",")] for l in out.splitlines() if re.match(r"^\d+,", l)]
        assert len(rows) == 201
        assert np.all(np.isfinite(rows))


# Model inputs that `spectrum` and `wu` refuse: (id, model args, message topic).
MODEL_ERRORS = [
    ("a-inf", ["--a", "inf", "--rho", "1", "--L", "7"], "scattering length a must be finite"),
    ("a-nan", ["--a", "nan", "--rho", "1", "--L", "7"], "scattering length a must be finite"),
    ("rho-inf", ["--a", "0.02", "--rho", "inf", "--L", "7"], "density rho must be finite"),
    ("rho-nan", ["--a", "0.02", "--rho", "nan", "--L", "7"], "density rho must be finite"),
    ("L-inf", ["--a", "0.02", "--rho", "1", "--L", "inf"], "box side L must be finite"),
    ("L-nan", ["--a", "0.02", "--rho", "1", "--L", "nan"], "box side L must be finite"),
    *(
        (name, ["--a", a, "--rho", rho, "--L", L],
         f"a={float(a)!r}, rho={float(rho)!r}, L={float(L)!r} put a derived scale beyond double range")
        for name, a, rho, L in (
            ("L3-overflow", "0.01", "1", "1e200"),
            ("L3-underflow", "0.01", "1", "1e-200"),
            ("N-overflow", "0.01", "1e300", "1e5"),
            ("N-underflow", "0.01", "1e-300", "1e-10"),
            ("gas-scale-overflow", "1e300", "1e10", "7"),
        )
    ),
    ("soft-mode", ["--a", "0.01", "--rho", "1", "--L", "1e10"], "mode n=(0, 0, 1) is too soft"),
]


@pytest.mark.parametrize(
    "argv, topic",
    [
        (["eigenstate", "--y", "0.3", "--theta", "1", "--smax", "-1"], "smax"),
        (["eigenstate", "--y", "0.3", "--theta", "1", "--p", "-1"], "p must"),
        (["eigenstate", "--y", "0.3", "--theta", "inf"], "theta"),
        (["eigenstate", "--y", "0.3", "--theta", "nan"], "theta"),
        (["eigenstate", "--y", "0.3", "--theta", "1,2,3"], "complex values are 're' or 're,im'"),
        (["eigenstate", "--k-mode", "0,0,1", "--theta", "1"], "--k-mode requires --a, --rho and --L"),
        (["eigenstate", "--y", "0.3", "--k-mode", "0,0,1", *REF_ARGS, "--theta", "1"],
         "exactly one of --y and --k-mode"),
        (["eigenstate", "--k-mode", "0,1", *REF_ARGS, "--theta", "1"], "--k-mode wants three"),
        *((["eigenstate", "--y", "0.3", *flags, "--theta", "1", "--smax", "2"],
           "--a, --rho and --L apply only with --k-mode")
          for flags in (["--a", "0.01", "--rho", "1", "--L", "7"], ["--a", "0.01"], ["--rho", "1"],
                        ["--L", "7"])),
        *((["eigenstate", "--y", "0.3", "--theta", "0.5", "--transform", alpha],
           f"alpha must lie in (0, 1), got {float(alpha)}") for alpha in ("0", "1", "-0.1", "nan")),
        (["gram", "--nmax", "-1"], "Nmax"),
        (["verify", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
        *(
            ([command, *args, *extra], topic)
            for command, extra in (("spectrum", []), ("wu", ["--N", "4", "--kn", "0,0,1"]))
            for _, args, topic in MODEL_ERRORS
        ),
        (["spectrum", "--a", "0.02", "--rho", "1", "--L", "7", "--N", "nan"],
         "particle count N must be finite"),
        (["spectrum", "--a", "0.02", "--rho", "1", "--L", "7", "--N", "inf"],
         "particle count N must be finite"),
        *(
            (["spectrum", "--a", "0.02", "--rho", "1", "--L", "5", "--nmax", nmax],
             f"nmax={nmax} asks for a lattice table of (2*nmax+1)^3 = {(2 * int(nmax) + 1) ** 3} points")
            # sizes numpy refuses at once: 64 PiB per grid, and past its index range
            for nmax in ("100000", "10000000", "10000000000000000000")
        ),
        *(
            ([*head, "--a", "0.02", "--rho", "1", "--L", "7", flag, index], topic)
            for head, flag in ((["wu", "--N", "4"], "--kn"), (["eigenstate", "--theta", "1"], "--k-mode"))
            for index, topic in ((f"1{'0' * 160},0,0", "k^2 + 16*pi*a*rho=inf beyond double range"),
                                 (f"1{'0' * 400},0,0", "index puts k beyond double range"))
        ),
    ],
    ids=[
        "smax-negative", "p-negative", "theta-inf", "theta-nan", "theta-three-parts",
        "k-mode-without-model", "y-with-k-mode", "k-mode-two-indices",
        *(f"y-with-{flags}" for flags in ("model", "a", "rho", "L")),
        *(f"transform-{alpha}" for alpha in ("0", "1", "-0.1", "nan")), "gram-nmax-negative", "verify-seed-negative",
        *(f"{command}-{name}" for command in ("spectrum", "wu") for name, _, _ in MODEL_ERRORS),
        "spectrum-N-nan", "spectrum-N-inf",
        "spectrum-nmax-1e5", "spectrum-nmax-1e7", "spectrum-nmax-1e19",
        *(f"{command}-1e{digits}" for command in ("wu-kn", "eigenstate-k-mode") for digits in (160, 400)),
    ],
)
def test_out_of_domain_input_is_one_line_error(capsys, argv, topic):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and topic in captured.err


@pytest.mark.parametrize("model, message", [
    (dict(a=0.01, rho=1.0, L=1e10),
     "mode n=(0, 0, 1) is too soft: k^2=3.9478417604357426e-19 is below the rounding of "
     "8*pi*a*rho=0.25132741228718347, so y = g/(2(k^2 + g)) rounds to 1/2"),
    (dict(a=1e306, rho=4.0, L=0.5),
     "k=(0.0, 0.0, 12.566370614359172) puts k^2 + 16*pi*a*rho=inf beyond double range"),
], ids=["soft-mode", "k2-range"])
def test_mode_refusal_reads_the_same_on_every_route(capsys, model, message):
    # the scalar route, the array route under depletion_report, and spectrum's table
    mp = ModelParams(**model)
    with pytest.raises(ValueError) as scalar:
        mode_params(mp, half_lattice(mp.L, 2)[0])
    with pytest.raises(ValueError) as depletion:
        pairspec.pair_transform.depletion_report(mp, 2)
    code = main(["spectrum", *(f"--{key}={value!r}" for key, value in model.items()), "--nmax", "2"])
    captured = capsys.readouterr()
    assert str(scalar.value) == str(depletion.value) == message
    assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("exc", [RuntimeError("QL iteration failed to converge"),
                                 ZeroDivisionError("float division by zero")])
def test_numerical_failure_is_one_line_exit_2(capsys, monkeypatch, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(pairspec.checks, "run_suite", fail)
    code = main(["verify", "--suite", "eigen"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {exc}\n"


# inputs whose arrays numpy cannot allocate: each printed a numpy._ArrayMemoryError
# traceback.  The kernel that would allocate raises here, so nothing large is asked for.
NUMPY_MEMORY = "Unable to allocate 1.46 TiB for an array with shape (100000000001,) and data type complex128"


@pytest.mark.parametrize(("argv", "kernel"), [
    (["wu", "--a", "0.02", "--rho", "1", "--L", "6.28", "--N", "100000000000", "--kn", "0,0,1"],
     (pairspec.wu_sector, "_wu_residuals")),
    (["eigenstate", "--y", "0.3", "--theta", "0.5", "--smax", "100000000000"], (pairspec.eigenstates, "_psi_rows")),
    (["gram", "--nmax", "3", "--smax", "100000000000"], (pairspec.hypergeom, "_transported_columns")),
], ids=["wu", "eigenstate", "gram"])
@pytest.mark.parametrize("message", [NUMPY_MEMORY, ""], ids=["numpy", "bare"])
def test_memory_error_is_one_line_exit_1(capsys, monkeypatch, argv, kernel, message):
    def allocate(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(*kernel, allocate)
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == f"error: {message or 'out of memory'}\n"


def test_repeated_main_calls_give_the_same_bytes(capsys):
    # the parser is built once per process: no call may leave a trace in the next
    runs = [
        ["spectrum", *REF_ARGS, "--nmax", "1", "--format", "json"],
        ["gram", "--nmax", "2", "--smax", "40"],
        ["--version"],
        ["spectrum", "--nmax", "1"],  # usage error: required options missing
        ["eigenstate", "--theta", "1", "--smax", "4", "--y", "0.3", "--p", "-1"],  # invalid input
        ["nosuch"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits on --version and on usage errors
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    first = [run(argv) for argv in runs]
    assert [run(argv) for argv in runs] == first
    assert [code for code, _, _ in first] == [0, 0, 0, 2, 1, 2]
    assert first[2][1] == f"pairspec {__version__}\n"
    assert first[3][2].startswith("usage: pairspec spectrum") and first[5][2].startswith("usage: pairspec")
    assert pairspec.cli.build_parser() is pairspec.cli.build_parser()


def test_module_entry_point(tmp_path):
    # `python -m pairspec` in a fresh interpreter, on this checkout's sources
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}

    def pairspec(*argv):
        return subprocess.run([sys.executable, "-m", "pairspec", *argv], capture_output=True,
                              text=True, env=env, timeout=120)

    failed = pairspec("gram", "--out", str(tmp_path / "missing" / "x.csv"))
    assert failed.returncode == 1 and failed.stdout == ""
    assert failed.stderr.startswith("error: ") and failed.stderr.count("\n") == 1
    assert "Traceback" not in failed.stderr
    version = pairspec("--version")
    assert version.returncode == 0 and version.stdout == f"pairspec {__version__}\n"


def _readme_cli_lines():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = (line.split("#", 1)[0].strip() for line in block.splitlines())
    return [line for line in lines if line.startswith("pairspec ")]


def test_readme_cli_block_runs(capsys):
    lines = _readme_cli_lines()
    assert len(lines) == 6
    for line in lines:
        code = main(shlex.split(line)[1:])
        out = capsys.readouterr().out
        assert code == 0 and out, line
