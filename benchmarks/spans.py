"""Span recorder for the traced benchmark run.

``Tracer.installed()`` wraps every public function of the pairspec library
modules -- in its defining module *and* in every module namespace that bound
it with ``from .x import y`` -- so calls made through any route are seen.
The CLI front end is not wrapped function by function: the harness opens one
``cli.<command>`` span around each ``cli.main(argv)`` call, and what that span
keeps after its library children are subtracted is the CLI's own time
(argument parsing and formatting).

A wrapped call opens a span (name, start, end, parent, size).  Spans stay in
memory and are written out when the run ends.  Hot leaves, called more than
~1e4 times per pass, are counted instead of spanned: they keep a call count,
a work count and their accumulated time, and that time is charged to the
enclosing span as ``leaf_s`` so that self times stay additive.  A leaf's time
includes everything it calls; wrapped calls made inside a leaf are counted
but not timed separately.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import math
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

LIBRARY_MODULES = (
    "lattice",
    "fock_ladder",
    "hamiltonians",
    "eigenstates",
    "pair_transform",
    "genfunc",
    "hypergeom",
    "wu_sector",
    "oracle",
    "checks",
)
# every module whose namespace may hold a library function (consumers)
NAMESPACES = ("pairspec",) + tuple(f"pairspec.{m}" for m in LIBRARY_MODULES) + ("pairspec.cli",)

HOT_LEAVES = frozenset(
    {
        "lattice.mode_params",
        "lattice.ytilde_from_y",
        "hypergeom.hyp_f",
        "fock_ladder.apply_ab",
        "fock_ladder.apply_adbd",
        "fock_ladder.apply_halfnumber",
        "fock_ladder.inner",
    }
)


def _arg(a: tuple, k: dict, i: int, name: str, default=None):
    if len(a) > i:
        return a[i]
    return k.get(name, default)


def half_lattice_modes(nmax: int) -> int:
    """Number of half-lattice modes for a cutoff nmax."""
    return ((2 * nmax + 1) ** 3 - 1) // 2


# work counts taken from the arguments: the size a kernel's cost scales with
SIZE_OF: dict[str, Callable[[tuple, dict], int]] = {
    "lattice.half_lattice": lambda a, k: half_lattice_modes(_arg(a, k, 1, "nmax")),
    "lattice.alpha_sum": lambda a, k: half_lattice_modes(_arg(a, k, 1, "nmax")),
    "pair_transform.depletion_report": lambda a, k: half_lattice_modes(_arg(a, k, 1, "nmax")),
    "pair_transform.apply_exp_pair": lambda a, k: len(_arg(a, k, 0, "st").coeffs),
    "pair_transform.domain_check": lambda a, k: _arg(a, k, 3, "horizon"),
    "pair_transform.conjugation_check": lambda a, k: _arg(a, k, 1, "smax"),
    "genfunc.mobius": lambda a, k: len(_arg(a, k, 0, "g").C),
    "eigenstates.psi_p_theta": lambda a, k: _arg(a, k, 0, "spec").smax + 1,
    "oracle.sym_tridiag_eig": lambda a, k: len(_arg(a, k, 0, "diag")),
    "oracle.svd_small": lambda a, k: len(_arg(a, k, 0, "matrix")),
    "hypergeom.gram_witness": lambda a, k: _arg(a, k, 2, "Nmax") + 1,
    "hypergeom.transported_state": lambda a, k: _arg(a, k, 3, "smax") + 1,
    "wu_sector.wu_eigenstate": lambda a, k: _arg(a, k, 0, "sector").dim,
    "wu_sector.build_transformed_wu": lambda a, k: _arg(a, k, 0, "sector").dim,
}

# the QL referee has two costs (values only, and with vectors): one span name each
NAME_OF: dict[str, Callable[[tuple, dict], str]] = {
    "oracle.sym_tridiag_eig": lambda a, k: "oracle.sym_tridiag_eig."
    + ("vectors" if _arg(a, k, 2, "vectors", False) else "values"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, -1 at top level
    size: int
    leaf_s: float = 0.0  # time of counted hot leaves called directly inside


class Recorder:
    """In-memory spans and hot-leaf counters of one traced pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, tuple[int, float]] = {}  # hot leaf -> (calls, seconds)
        self._open: list[int] = []
        self._in_leaf = False

    def open(self, name: str, size: int = 0) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append(Span(name, self.clock(), math.nan, parent, size))

    def close(self) -> None:
        self.spans[self._open.pop()].end = self.clock()

    @contextlib.contextmanager
    def span(self, name: str, size: int = 0) -> Iterator[None]:
        self.open(name, size)
        try:
            yield
        finally:
            self.close()

    def span_call(self, name: str, size: int, fn: Callable, a: tuple, k: dict):
        if self._in_leaf:
            return fn(*a, **k)
        self.open(name, size)
        try:
            return fn(*a, **k)
        finally:
            self.close()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its child spans' durations and its leaf time."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - child[i] - s.leaf_s for i, s in enumerate(spans)]


def summarize(rec: Recorder) -> dict[str, dict[str, float]]:
    """Per function name: calls, self_s and work (sum of sizes) of one pass."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "work": 0})
    for s, own in zip(rec.spans, self_times(rec.spans)):
        row = out[s.name]
        row["calls"] += 1
        row["self_s"] += own
        row["work"] += s.size
    for name, (calls, secs) in rec.counters.items():
        row = out[name]
        row["calls"] += calls
        row["self_s"] += secs
    return dict(out)


def loglog_slope(sizes: list[float], times: list[float]) -> float:
    """Slope of log(time) against log(size), one point per distinct size.

    Repeated sizes are reduced to their median time first, so a size that is
    called often does not outweigh the others.  Fewer than two distinct sizes
    give no slope (0.0).
    """
    by_size: dict[float, list[float]] = defaultdict(list)
    for n, t in zip(sizes, times):
        if n > 0 and t > 0:
            by_size[float(n)].append(t)
    if len(by_size) < 2:
        return 0.0
    xs = np.log(sorted(by_size))
    ys = np.log([float(np.median(by_size[n])) for n in sorted(by_size)])
    return float(np.polyfit(xs, ys, 1)[0])


class Tracer:
    """Installs span wrappers on the library for the duration of a traced pass.

    Outside ``installed()`` the library runs unwrapped, so untraced passes
    pay nothing for the tracer's existence.
    """

    def __init__(self) -> None:
        self.rec = Recorder()
        self._wrapped: dict[int, Callable] = {}  # id(original) -> wrapper
        self._originals: dict[int, Callable] = {}
        self._cells: dict[str, list] = {}  # hot leaf -> [calls, seconds] of the current pass
        for mod in LIBRARY_MODULES:
            module = importlib.import_module(f"pairspec.{mod}")
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                self._originals[id(fn)] = fn
                self._wrapped[id(fn)] = self._wrap(f"{mod}.{attr}", fn)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        size_of = SIZE_OF.get(name)
        name_of = NAME_OF.get(name)
        if name in HOT_LEAVES:
            cell = self._cells.setdefault(name, [0, 0.0])
            clock = time.perf_counter

            def counted(*a, **k):
                # inlined rather than a Recorder method: this runs ~1e5 times a pass
                rec = tracer.rec
                cell[0] += 1
                if rec._in_leaf:
                    return fn(*a, **k)
                rec._in_leaf = True
                t0 = clock()
                try:
                    return fn(*a, **k)
                finally:
                    dt = clock() - t0
                    rec._in_leaf = False
                    cell[1] += dt
                    if rec._open:
                        rec.spans[rec._open[-1]].leaf_s += dt

            return counted

        def spanned(*a, **k):
            size = size_of(a, k) if size_of else 0
            return tracer.rec.span_call(name_of(a, k) if name_of else name, size, fn, a, k)

        return spanned

    def _patch(self, table: dict[int, Callable]) -> None:
        for ns in NAMESPACES:
            module = importlib.import_module(ns)
            for attr, val in list(vars(module).items()):
                if inspect.isfunction(val) and id(val) in table:
                    setattr(module, attr, table[id(val)])

    @contextlib.contextmanager
    def installed(self, rec: Recorder) -> Iterator[Recorder]:
        """Record into ``rec`` while the wrappers are in place."""
        self.rec = rec
        for cell in self._cells.values():
            cell[:] = [0, 0.0]
        self._patch(self._wrapped)
        restore = {id(w): self._originals[key] for key, w in self._wrapped.items()}
        try:
            yield rec
        finally:
            self._patch(restore)
            rec.counters = {name: (c[0], c[1]) for name, c in self._cells.items() if c[0]}
