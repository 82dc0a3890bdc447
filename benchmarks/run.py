"""pairspec benchmark: one closed-loop caller, one process, one thread.

Usage (from the repository root):

    python3 benchmarks/run.py --workload lattice-tables --seed 1 --seconds 30 --trace 0

Each workload is a fixed op list built from ``--seed`` (see workloads.py).
A run first times cold starts of ``python -m pairspec --version`` (set-up),
then runs one untimed pass that warms caches and checks every output, then
repeats the pass for ``--seconds`` seconds.  Every op is timed on its own;
a pass-level time is the sum over its ops of each op's median, which a
noise burst hitting one op in one pass cannot move.

Host speed: on a shared VM the speed of a single thread drifts with the
load of its neighbours (on the 2-vCPU VM the bounds were set on, a fixed
loop's half-second medians ranged 19-33 ms within a minute), in CPU time as
much as in wall time, and the drift is common to pure-Python, numpy and
library code alike.  So a fixed pure-Python loop
(``calibrate``) is timed right before and right after every op and every
cold start, and each time is scaled by ``REF_CALIBRATION_S`` over the mean of
those two readings.  The reported ``*_s`` times are therefore seconds on a
host where that loop takes ``REF_CALIBRATION_S``; the unscaled wall times are
printed beside them (``*_wall_s``).  The loop is the benchmark's own code, so
a change to the library moves the scaled times exactly as it moves the wall
times at a fixed host speed.

With ``--trace 0`` every pass runs untraced and the end-to-end metrics are
reported.  With ``--trace 1`` untraced and traced passes alternate; the
per-layer metrics come from the traced ones (see spans.py) and the tracing
overhead from comparing the two.  The edge probes (edge.py) run once, after
the peak resident memory has been read.

The report lists every metric with its unit as a median with quartiles; the
last line of stdout is one JSON object with the metrics of the run's mode.
The library is imported from ``src/`` beside this directory; without it the
run exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# One BLAS thread: pinned before numpy is first imported, and recorded.
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from spans import Recorder, Tracer, loglog_slope, self_times, summarize  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_SAMPLES = 7
REF_CALIBRATION_S = 1e-3  # the scaled times are seconds at this calibration reading
CALIBRATION_STEPS = 12_000  # about 1 ms on the 2-vCPU shared VM the bounds were set on
MIN_PASSES = 3
WORKLOADS = ("lattice-tables", "dense-transform", "referee-verify")
COMMANDS = ("spectrum", "eigenstate", "gram", "verify", "wu")

LAYERS = (
    "cli", "lattice", "fock_ladder", "hamiltonians", "eigenstates", "pair_transform",
    "genfunc", "hypergeom", "wu_sector", "oracle", "checks",
)
# functions whose self time is reported, as a share of the traced pass
SHARE_FUNCTIONS = (
    "lattice.half_lattice",
    "lattice.mode_params",
    "lattice.alpha_sum",
    "pair_transform.depletion_report",
    "pair_transform.apply_exp_pair",
    "pair_transform.domain_check",
    "pair_transform.conjugation_check",
    "genfunc.mobius",
    "eigenstates.psi_p_theta",
    "oracle.sym_tridiag_eig.values",
    "oracle.sym_tridiag_eig.vectors",
    "oracle.svd_small",
    "hypergeom.gram_witness",
    "hypergeom.transported_state",
    "wu_sector.wu_eigenstate",
    "wu_sector.build_transformed_wu",
    "checks.run_suite",
)
# work counts per pass: (function, count kind); "coeffs" is the summed input length
COUNTS = (
    ("lattice.mode_params", "calls"),
    ("pair_transform.apply_exp_pair", "calls"),
    ("pair_transform.apply_exp_pair", "coeffs"),
    ("genfunc.mobius", "calls"),
    ("genfunc.mobius", "coeffs"),
    ("eigenstates.psi_p_theta", "calls"),
    ("hypergeom.hyp_f", "calls"),
)
# log-log slope of self time against size, over the sizes the workload's ops ask for
SLOPES = (
    "pair_transform.apply_exp_pair",
    "genfunc.mobius",
    "pair_transform.domain_check",
    "oracle.sym_tridiag_eig.values",
    "oracle.sym_tridiag_eig.vectors",
    "lattice.alpha_sum",
    "wu_sector.wu_eigenstate",
)
UNITS = {"peak_rss_mb": "MB", "edge_failures": "count", "lattice.modes_per_s": "1/s"}

Stat = tuple[float, float, float, int]  # median, q1, q3, samples


def stat(values: list[float]) -> Stat:
    if len(values) < 2:
        return values[0], values[0], values[0], len(values)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, len(values)


def op_sum(times: dict[str, list[float]], names: list[str]) -> Stat:
    """Sum over the named ops of each op's median (and of its quartiles)."""
    if not names:
        return 0.0, 0.0, 0.0, 0
    stats = [stat(times[name]) for name in names]
    return (sum(s[0] for s in stats), sum(s[1] for s in stats), sum(s[2] for s in stats),
            min(s[3] for s in stats))


def metric_unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith((".share", ".slope", "_frac")):
        return "1"
    if name.endswith("_s"):
        return "s"
    return "count"


def _spin(steps: int) -> int:
    acc = 0
    for i in range(steps):
        acc += i * i % 7
    return acc


def calibrate() -> float:
    """Seconds the fixed calibration loop takes now (median of three)."""
    readings = []
    for _ in range(3):
        t0 = time.perf_counter()
        _spin(CALIBRATION_STEPS)
        readings.append(time.perf_counter() - t0)
    return sorted(readings)[1]


def scaled(secs: float, before: float, after: float) -> float:
    """A time scaled to the reference host speed, from the readings around it."""
    return secs * REF_CALIBRATION_S / (0.5 * (before + after))


def cold_start_s() -> tuple[float, float]:
    """Wall time of one fresh ``python -m pairspec --version`` subprocess,
    unscaled and scaled to the reference host speed."""
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    before = calibrate()
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pairspec", "--version"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or not proc.stdout.startswith("pairspec "):
        raise RuntimeError(f"cold start failed: exit {proc.returncode}: {proc.stderr.strip()}")
    return elapsed, scaled(elapsed, before, calibrate())


def run_record(args: argparse.Namespace) -> dict:
    commit = "unknown"  # the benchmark may run from a plain copy of the tree
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_ENV,
    }


def _same(a, b) -> bool:
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    return a == b


class Runner:
    """Runs the op list, times each op, and checks every output.

    The first pass is checked in full; a later output that is bit-identical
    to the checked one passes, any other is checked in full again.
    """

    def __init__(self, ops) -> None:
        self.ops = ops
        self.reference: dict[str, object] = {}
        self.checked_once = False
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, rec=None) -> tuple[dict[str, float], dict[str, float]]:
        """One pass over the ops: (wall seconds per op, scaled seconds per op)."""
        gc.collect()
        outputs: dict[str, object] = {}
        times: dict[str, float] = {}
        scaled_times: dict[str, float] = {}
        before = calibrate()
        for op in self.ops:
            t0 = time.perf_counter()
            try:
                if rec is not None and op.command is not None:
                    with rec.span(f"cli.{op.command}"):
                        outputs[op.name] = op.run()
                else:
                    outputs[op.name] = op.run()
            except Exception as exc:  # noqa: BLE001 - a raising op is a counted failure
                outputs[op.name] = exc
            times[op.name] = time.perf_counter() - t0
            after = calibrate()
            scaled_times[op.name] = scaled(times[op.name], before, after)
            before = after
        self._check(outputs)
        return times, scaled_times

    def _check(self, outputs: dict[str, object]) -> None:
        first, self.checked_once = not self.checked_once, True
        for op in self.ops:
            self.attempted += 1
            out = outputs[op.name]
            if isinstance(out, Exception):
                reason = f"raised {type(out).__name__}: {out}"
            elif not first and _same(out, self.reference.get(op.name)):
                reason = None
            else:
                try:
                    reason = op.check(out, outputs)
                except Exception as exc:  # noqa: BLE001 - an unreadable output fails its check
                    reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is not None:
                self.failures.append(f"{op.name}: {reason}")
            elif first:
                self.reference[op.name] = out


class TraceLog:
    """Summaries of the traced passes, reduced to the per-layer metrics."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.summaries: list[dict] = []
        self.walls: list[float] = []
        self.times: dict[str, list[float]] = defaultdict(list)
        self.slope_points: dict[str, list[tuple[int, float, bool]]] = defaultdict(list)
        self.passes: list[dict] = []  # raw spans, written out at exit

    def traced_pass(self, runner: Runner) -> None:
        rec = Recorder()
        with self.tracer.installed(rec):
            walls, times = runner.run_pass(rec)
        self.walls.append(sum(walls.values()))
        for name, secs in times.items():
            self.times[name].append(secs)
        self.summaries.append(summarize(rec))
        for span, own in zip(rec.spans, self_times(rec.spans)):
            # the size ladder: calls made by an op itself or by the CLI command it runs
            direct = span.parent < 0
            if span.name in SLOPES and (direct or rec.spans[span.parent].name.startswith("cli.")):
                self.slope_points[span.name].append((span.size, own, direct))
        self.passes.append({
            "spans": [[s.name, s.start, s.end, s.parent, s.size, s.leaf_s] for s in rec.spans],
            "counters": rec.counters,
        })

    def metrics(self, ops, untraced: dict[str, list[float]]) -> dict[str, Stat]:
        names = [op.name for op in ops]
        samples: dict[str, list[float]] = {}
        for layer in LAYERS:
            samples[f"{layer}.share"] = [
                sum(row["self_s"] for fn, row in s.items() if fn.split(".")[0] == layer) / wall
                for s, wall in zip(self.summaries, self.walls)
            ]
        for fn in SHARE_FUNCTIONS:
            samples[f"{fn}.share"] = [
                s.get(fn, {}).get("self_s", 0.0) / wall for s, wall in zip(self.summaries, self.walls)
            ]
        for fn, kind in COUNTS:
            key = "work" if kind == "coeffs" else kind
            samples[f"{fn}.{kind}"] = [s.get(fn, {}).get(key, 0) for s in self.summaries]
        # modes generated by half_lattice, per second of lattice-layer self time
        lattice_s = [
            sum(row["self_s"] for fn, row in s.items() if fn.startswith("lattice.")) for s in self.summaries
        ]
        samples["lattice.modes_per_s"] = [
            s.get("lattice.half_lattice", {}).get("work", 0) / secs if secs > 0 else 0.0
            for s, secs in zip(self.summaries, lattice_s)
        ]
        samples["trace.self_sum_frac"] = [
            sum(row["self_s"] for row in s.values()) / wall for s, wall in zip(self.summaries, self.walls)
        ]
        out = {name: stat(values) for name, values in samples.items()}
        for fn in SLOPES:
            # an op's own calls form the ladder when they span two sizes; otherwise
            # the calls its CLI command makes count too
            points = self.slope_points.get(fn, [])
            direct = [p for p in points if p[2]]
            if len({p[0] for p in direct}) >= 2:
                points = direct
            slope = loglog_slope([p[0] for p in points], [p[1] for p in points])
            out[f"{fn}.slope"] = stat([slope])
        out["trace.pass_s"] = op_sum(self.times, names)
        overhead = out["trace.pass_s"][0] / op_sum(untraced, names)[0] - 1.0
        out["trace.overhead_frac"] = stat([overhead])
        return out

    def self_seconds(self) -> dict[str, Stat]:
        """Median self seconds per traced pass of every reported function."""
        return {
            f"{fn}.self_s": stat([s.get(fn, {}).get("self_s", 0.0) for s in self.summaries])
            for fn in SHARE_FUNCTIONS
        }


def end_to_end(ops, setup: list[float], times: dict[str, list[float]], rss: float,
               probes: list[tuple[str, str | None]]) -> dict[str, Stat]:
    return {
        "setup_s": stat(setup),
        "pass_s": op_sum(times, [op.name for op in ops]),
        "cli_s": op_sum(times, [op.name for op in ops if op.command]),
        "peak_rss_mb": stat([rss]),
        "edge_failures": stat([float(sum(reason is not None for _, reason in probes))]),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def measure(args: argparse.Namespace) -> tuple[dict[str, Stat], dict]:
    import edge
    import workloads

    setup_wall, setup = zip(*(cold_start_s() for _ in range(SETUP_SAMPLES)))
    ops = workloads.build(args.workload, args.seed)
    runner = Runner(ops)
    runner.run_pass()  # warm-up: fills caches, checks every output in full
    log = TraceLog() if args.trace else None
    walls: dict[str, list[float]] = defaultdict(list)
    times: dict[str, list[float]] = defaultdict(list)
    rounds = 0
    start = time.perf_counter()
    while True:
        pass_walls, pass_times = runner.run_pass()
        for name in pass_times:
            walls[name].append(pass_walls[name])
            times[name].append(pass_times[name])
        if log is not None:
            log.traced_pass(runner)
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= MIN_PASSES and elapsed * (rounds + 1) / rounds > args.seconds:
            break
    rss = peak_rss_mb()
    probes = edge.run_probes()

    def ops_of(command):
        return [op.name for op in ops if op.command == command]

    commands = {f"{cmd}_s": op_sum(times, ops_of(cmd)) for cmd in COMMANDS if ops_of(cmd)}
    if log is not None:
        metrics = log.metrics(ops, times)
        detail = {**commands, **log.self_seconds()}
    else:
        metrics = end_to_end(ops, list(setup), times, rss, probes)
        detail = {
            "ops_failed_frac": stat([len(runner.failures) / runner.attempted]),
            **commands,
            "setup_wall_s": stat(list(setup_wall)),
            "pass_wall_s": op_sum(walls, [op.name for op in ops]),
            "cli_wall_s": op_sum(walls, [op.name for op in ops if op.command]),
        }
    extra = {
        "detail": detail,
        "passes": rounds,
        "probes": probes,
        "failures": runner.failures,
        "attempted": runner.attempted,
        "spans": log.passes if log is not None else None,
    }
    return metrics, extra


def report(record: dict, metrics: dict[str, Stat], extra: dict) -> None:
    print(f"# pairspec benchmark: {json.dumps(record)}")
    print(f"# samples: timed passes={extra['passes']} setup cold starts={SETUP_SAMPLES} "
          f"ops attempted={extra['attempted']} failed={len(extra['failures'])}")
    print("# pass-level times are sums over ops of per-op medians (q1, q3 likewise)")
    print(f"# *_s times are scaled to the host speed at which the calibration loop takes "
          f"{REF_CALIBRATION_S:g} s; *_wall_s are unscaled")
    print(f"{'metric':44s} {'median':>14s} {'q1':>14s} {'q3':>14s}  {'unit':6s} {'n':>3s}")
    for name, (med, q1, q3, n) in {**metrics, **extra["detail"]}.items():
        print(f"{name:44s} {med:14.6g} {q1:14.6g} {q3:14.6g}  {metric_unit(name):6s} {n:3d}")
    for name, reason in extra["probes"]:
        print(f"# edge probe {name}: {'ok' if reason is None else 'FAIL ' + reason}")
    for failure in extra["failures"]:
        print(f"# op failed: {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pairspec" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH_DIR))
    import pairspec

    if Path(pairspec.__file__).resolve().parent != SRC / "pairspec":
        print(f"error: pairspec imported from {pairspec.__file__}, not {SRC}", file=sys.stderr)
        return 2

    record = run_record(args)
    metrics, extra = measure(args)
    if extra["spans"] is not None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"record": record, "passes": extra["spans"]}))
        print(f"# spans written to {path.relative_to(ROOT)}")
    report(record, metrics, extra)
    failed = len(extra["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": extra["attempted"],
        "failed": failed,
        "metrics": {name: {"value": s[0], "unit": metric_unit(name)} for name, s in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
