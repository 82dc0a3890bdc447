"""Self-tests of the benchmark harness.

Run from the repository root with ``python -m pytest benchmarks/tests -q``.
"""

import json
import math
from pathlib import Path

import pytest

import edge
import run
import workloads
from spans import Recorder, Span, Tracer, half_lattice_modes, loglog_slope, self_times, summarize


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    rec = Recorder(clock)
    rec.open("cli.spectrum")            # t = 0
    clock.now = 1.0
    rec.open("lattice.alpha_sum")       # t = 1
    clock.now = 1.5
    rec.open("lattice.half_lattice")    # t = 1.5
    clock.now = 2.5
    rec.close()                         # half_lattice: 1.0
    clock.now = 4.0
    rec.close()                         # alpha_sum: 3.0, of which 1.0 is its child
    rec.open("lattice.half_lattice")    # t = 4
    clock.now = 4.5
    rec.close()                         # 0.5
    clock.now = 6.0
    rec.close()                         # cli.spectrum: 6.0

    rec.spans[1].leaf_s = 0.25  # hot-leaf time counted inside alpha_sum
    assert [s.parent for s in rec.spans] == [-1, 0, 1, 0]
    assert self_times(rec.spans) == pytest.approx([6.0 - 3.0 - 0.5, 3.0 - 1.0 - 0.25, 1.0, 0.5])

    rec.counters = {"lattice.mode_params": (10, 0.25)}
    summary = summarize(rec)
    assert summary["lattice.half_lattice"]["calls"] == 2
    assert summary["lattice.half_lattice"]["self_s"] == pytest.approx(1.5)
    # self times and leaf time together account for the top-level span exactly
    assert sum(row["self_s"] for row in summary.values()) == pytest.approx(6.0)


def test_self_times_flat_spans():
    spans = [Span("a", 0.0, 1.0, -1, 0), Span("b", 1.0, 3.0, -1, 0)]
    assert self_times(spans) == [1.0, 2.0]


@pytest.mark.parametrize("k", [1.0, 2.0, 3.3])
def test_slope_of_power_law(k):
    sizes = [100, 200, 400, 800]
    times = [1e-9 * n**k for n in sizes]
    assert loglog_slope(sizes, times) == pytest.approx(k, abs=1e-9)


def test_slope_uses_median_per_size():
    # repeated sizes reduce to their median; the outlier at n = 200 is ignored
    sizes = [100, 100, 100, 200, 200, 200]
    times = [1.0, 1.0, 1.0, 4.0, 4.0, 400.0]
    assert loglog_slope(sizes, times) == pytest.approx(2.0)


def test_slope_needs_two_sizes():
    assert loglog_slope([100, 100], [1.0, 2.0]) == 0.0
    assert loglog_slope([], []) == 0.0


def test_tracer_wraps_consumer_namespaces_and_restores():
    from pairspec import cli, hypergeom, lattice, pair_transform

    originals = (lattice.mode_params, cli.mode_params, pair_transform.apply_exp_pair,
                 hypergeom.apply_exp_pair)
    tracer = Tracer()
    rec = Recorder()
    with tracer.installed(rec):
        assert cli.mode_params is lattice.mode_params is not originals[0]
        assert hypergeom.apply_exp_pair is pair_transform.apply_exp_pair is not originals[2]
        lattice.alpha_sum(lattice.ModelParams(a=0.02, rho=1.0, L=6.0), 2)
    assert (lattice.mode_params, cli.mode_params, pair_transform.apply_exp_pair,
            hypergeom.apply_exp_pair) == originals
    # mode_params is a counted hot leaf; alpha_sum and half_lattice are spans
    assert rec.counters["lattice.mode_params"][0] == half_lattice_modes(2)
    assert [s.name for s in rec.spans] == ["lattice.alpha_sum", "lattice.half_lattice"]
    assert rec.spans[0].leaf_s > 0


def test_op_sum_adds_per_op_medians():
    times = {"a": [1.0, 2.0, 3.0], "b": [10.0, 10.0, 40.0]}
    med, q1, q3, n = run.op_sum(times, ["a", "b"])
    assert (med, n) == (12.0, 3)
    assert q1 <= med <= q3


def test_scaling_to_reference_host_speed():
    ref = run.REF_CALIBRATION_S
    # a host running the calibration loop at half speed took twice as long
    assert run.scaled(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    # the readings before and after an op are averaged
    assert run.scaled(2.0, 0.5 * ref, 1.5 * ref) == pytest.approx(2.0)
    assert run.calibrate() > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_pass_of_each_workload_checks_clean(workload):
    ops = workloads.build(workload, seed=3, tiny=True)
    runner = run.Runner(ops)
    runner.run_pass()
    runner.run_pass()
    assert runner.failures == []
    assert runner.attempted == 2 * len(ops)


def test_a_wrong_output_fails_its_check():
    ops = workloads.build("lattice-tables", seed=3, tiny=True)
    op = next(op for op in ops if op.name.startswith("alpha_sum"))
    good = op.run()
    bad = type(good)(value=good.value * (1 + 1e-9), grows_with_cutoff=True)
    assert op.check(good, {}) is None
    assert "alpha_sum off" in op.check(bad, {})


def test_edge_probe_outcomes(monkeypatch):
    def probe_fine():
        return None

    def probe_refuses():
        raise ValueError("documented refusal")

    def probe_overflows():
        raise OverflowError("int too large to convert to float")

    def probe_wrong():
        return "relative deviation 1e-3"

    monkeypatch.setattr(edge, "PROBES", (probe_fine, probe_refuses, probe_overflows, probe_wrong))
    results = edge.run_probes()
    assert results == [
        ("fine", None),
        ("refuses", None),
        ("overflows", "OverflowError: int too large to convert to float"),
        ("wrong", "relative deviation 1e-3"),
    ]
    assert run.end_to_end([], [0.2], {}, 1.0, results)["edge_failures"][0] == 2.0


def test_metric_units():
    assert run.metric_unit("setup_s") == "s"
    assert run.metric_unit("peak_rss_mb") == "MB"
    assert run.metric_unit("genfunc.mobius.share") == "1"
    assert run.metric_unit("genfunc.mobius.calls") == "count"
    assert run.metric_unit("lattice.modes_per_s") == "1/s"
    assert not math.isnan(run.stat([1.0, 2.0, 3.0])[0])


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.BUILDERS)
    ops = workloads.build("referee-verify", seed=3, tiny=True)
    runner = run.Runner(ops)
    _, times = runner.run_pass()
    untraced = {name: [secs] for name, secs in times.items()}
    e2e = run.end_to_end(ops, [0.2], untraced, 50.0, [("p", None)])
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    log = run.TraceLog()
    log.traced_pass(runner)
    per_layer = log.metrics(ops, untraced)
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.metric_unit(m["name"])
    assert runner.failures == []
    assert per_layer["trace.self_sum_frac"][0] <= 1.0
