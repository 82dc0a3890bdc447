import json
import math
import re

import numpy as np
import pytest

import pairspec.checks
import test_acceptance
from pairspec.cli import main

REF_ARGS = ["--a", str(1.0 / (16.0 * math.pi)), "--rho", "1", "--L", str(2.0 * math.pi)]


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

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "spec.csv"
        code, out = run(capsys, ["spectrum", *REF_ARGS, "--nmax", "1", "--out", str(path)])
        assert code == 0
        assert path.read_text() == out


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
        # c_200 of this state is beyond double range; only smax = 100 is printed
        argv = ["eigenstate", "--y", "0.01", "--theta", "0.5", "--smax", "100", "--transform", "0.001"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        assert "transform_domain = NotInDomain" in captured.out

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

    def test_large_sector_is_finite(self, capsys):
        # the exact factorial weights of this sector lie beyond double range
        code, out = run(capsys, ["wu", *REF_ARGS, "--N", "400", "--p", "0", "--kn", "0,0,1"])
        assert code == 0
        rows = [[float(x) for x in l.split(",")] for l in out.splitlines() if re.match(r"^\d+,", l)]
        assert len(rows) == 201
        assert np.all(np.isfinite(rows))
