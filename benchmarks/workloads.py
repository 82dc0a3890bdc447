"""The benchmark's workloads: fixed, seeded op lists and the checks of every output.

Each workload is a list of ``Op``s built once from the seed.  The seed draws
the physical inputs (couplings, box sides, states); the sizes are fixed, so
every seed does the same amount of work.  An op is either an in-process
``pairspec.cli.main(argv)`` call or a direct call of a public library
function.  Every op carries an independent check of its output, written here
rather than taken from the library under test.

Why these three workloads:

* ``lattice-tables`` exercises the lattice loops and the CLI's table
  formatting, and touches no transform or referee code;
* ``dense-transform`` exercises the binomial-shift kernels (apply_exp_pair,
  mobius, domain_check) at large n, and no lattice sums;
* ``referee-verify`` exercises the QL/Jacobi referee, the invariant suites
  and the Wu sector, and calls the transform kernels many times at small n,
  so per-call overhead added to those kernels shows here.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# timed library calls go through the module attribute, where the tracer wraps them
from pairspec import cli, genfunc, lattice, oracle, pair_transform
from pairspec.fock_ladder import LadderState
from pairspec.hamiltonians import bog_energy_ab, build_tridiagonal
from pairspec.lattice import ModelParams, ytilde_from_y
from spans import half_lattice_modes

@dataclass(frozen=True)
class Op:
    name: str
    command: str | None  # the CLI command it runs, None for a direct library call
    run: Callable[[], object]
    # failure reason, or None when the output is correct; gets every output of the pass
    check: Callable[[object, dict], str | None]


def cli_call(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def rel_dev(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)



# ------------------------------------------------------------ lattice-tables

def lattice_reference(mp: ModelParams, nmax: int) -> np.ndarray:
    """alpha(k) over the half lattice, recomputed with numpy (order irrelevant)."""
    n = np.arange(-nmax, nmax + 1)
    n1, n2, n3 = np.meshgrid(n, n, n, indexing="ij")
    half = (n3 > 0) | ((n3 == 0) & ((n2 > 0) | ((n2 == 0) & (n1 > 0))))
    scale = 2.0 * math.pi / mp.L
    ksq = (scale * n1[half]) ** 2 + (scale * n2[half]) ** 2 + (scale * n3[half]) ** 2
    g = 8.0 * math.pi * mp.a * mp.rho
    eps = np.sqrt(ksq) * np.sqrt(ksq + 2.0 * g)
    return g / ((ksq + g) + eps)


def parse_spectrum(text: str, fmt: str) -> tuple[list[list[str]], str]:
    """Mode rows (as printed strings, csv column order) and the alpha_sum footer."""
    keys = ("n1", "n2", "n3", "k_abs", "y", "ytilde", "alpha", "epsilon")
    if fmt == "json":
        payload = json.loads(text)
        rows = [[str(m[k]) for k in keys] for m in payload["modes"]]
        return rows, payload["footer"]["alpha_sum"]
    lines = text.splitlines()
    if lines[1] != ",".join(keys):
        raise ValueError(f"unexpected csv header {lines[1]!r}")
    rows = [line.split(",") for line in lines[2:] if not line.startswith("#")]
    footer = next(line for line in lines if line.startswith("# alpha_sum,"))
    return rows, footer.split(",")[1]


def check_spectrum(mp: ModelParams, nmax: int, fmt: str, twin: str | None):
    def check(out, outputs) -> str | None:
        code, text = out
        if code != 0:
            return f"exit code {code}"
        rows, asum = parse_spectrum(text, fmt)
        if len(rows) != half_lattice_modes(nmax):
            return f"{len(rows)} rows, expected {half_lattice_modes(nmax)}"
        k = np.array([float(r[3]) for r in rows])
        eps = np.array([float(r[7]) for r in rows])
        ksq = k * k
        dev = np.max(np.abs(eps**2 - ksq * (ksq + 16.0 * math.pi * mp.a * mp.rho)) / eps**2)
        if not dev <= 1e-12:
            return f"eps^2 = k^2 (k^2 + 16 pi a rho) off by {dev:.3e}"
        want = 8.0 * math.pi * mp.a * mp.rho * math.fsum(lattice_reference(mp, nmax))
        if not rel_dev(float(asum), want) <= 1e-12:
            return f"alpha_sum footer {asum} vs numpy re-sum {want!r}"
        if twin is not None:
            other_rows, other_sum = parse_spectrum(outputs[twin][1], "csv")
            if other_rows != rows or other_sum != asum:
                return f"json and csv tables differ ({twin})"
        return None

    return check


def lattice_tables(seed: int, tiny: bool = False) -> list[Op]:
    rng = np.random.default_rng(seed)
    mp = ModelParams(a=float(rng.uniform(0.005, 0.05)), rho=1.0, L=float(rng.uniform(4.0, 12.0)))
    model = ["--a", repr(mp.a), "--rho", repr(mp.rho), "--L", repr(mp.L)]
    if tiny:
        csv_sizes, json_sizes, sum_nmax, depl_nmax = (2, 3), (2, 3), 4, 3
    else:
        csv_sizes, json_sizes, sum_nmax, depl_nmax = (8, 16), (12, 16), 32, 16
    ops = []
    for nmax in csv_sizes:
        argv = ["spectrum", *model, "--nmax", str(nmax), "--format", "csv"]
        ops.append(Op(f"spectrum csv nmax={nmax}", "spectrum", lambda argv=argv: cli_call(argv),
                      check_spectrum(mp, nmax, "csv", None)))
    for nmax in json_sizes:
        argv = ["spectrum", *model, "--nmax", str(nmax), "--format", "json"]
        twin = f"spectrum csv nmax={nmax}" if nmax in csv_sizes else None
        ops.append(Op(f"spectrum json nmax={nmax}", "spectrum", lambda argv=argv: cli_call(argv),
                      check_spectrum(mp, nmax, "json", twin)))

    def check_alpha_sum(out, outputs):
        want = 8.0 * math.pi * mp.a * mp.rho * math.fsum(lattice_reference(mp, sum_nmax))
        dev = rel_dev(out.value, want)
        return None if dev <= 1e-12 and out.grows_with_cutoff else f"alpha_sum off by {dev:.3e}"

    def check_depletion(out, outputs):
        alpha = lattice_reference(mp, depl_nmax)
        want = math.fsum(2.0 * alpha**2 / (1.0 - alpha**2))
        if len(out["per_mode"]) != half_lattice_modes(depl_nmax):
            return f"{len(out['per_mode'])} modes, expected {half_lattice_modes(depl_nmax)}"
        dev = rel_dev(out["depletion"], want)
        return None if dev <= 1e-12 else f"depletion off by {dev:.3e}"

    ops.append(Op(f"alpha_sum nmax={sum_nmax}", None,
                  lambda: lattice.alpha_sum(mp, sum_nmax), check_alpha_sum))
    ops.append(Op(f"depletion_report nmax={depl_nmax}", None,
                  lambda: pair_transform.depletion_report(mp, depl_nmax), check_depletion))
    return ops


# ----------------------------------------------------------- dense-transform

def genfn_coords(c: np.ndarray, p: int) -> np.ndarray:
    """C_s = sqrt(s!/(p+s)!) c_s, computed here with lgamma."""
    s = np.arange(len(c), dtype=float)
    lg = np.vectorize(math.lgamma)
    return c * np.exp(0.5 * (lg(s + 1.0) - lg(p + s + 1.0)))


def eigenstate_log_magnitudes(ytilde: float, theta: float, p: int, n: int) -> np.ndarray:
    """log |c_s| of the closed-form eigenstate, s = 0..n-1 (-inf past a terminating theta)."""
    s = np.arange(n, dtype=float)
    lg = np.vectorize(math.lgamma)
    with np.errstate(divide="ignore"):
        log_poch = np.concatenate(([0.0], np.cumsum(np.log(np.abs(theta - s[:-1])))))
    log_binom_ps = lg(p + s + 1.0) - lg(s + 1.0) - lg(p + 1.0)
    return -s * math.log(ytilde) + log_poch - lg(s + 1.0) - 0.5 * log_binom_ps


def parse_eigenstate(text: str) -> dict[str, object]:
    """Header fields and the coefficient blocks of an ``eigenstate`` report."""
    fields: dict[str, object] = {}
    blocks: dict[str, list[complex]] = {}
    current = None
    for line in text.splitlines():
        if line.startswith("s,"):
            current = line
            blocks[current] = []
        elif current is not None and "," in line and "=" not in line:
            _, re_, im = line.split(",")
            blocks[current].append(complex(float(re_), float(im)))
        else:
            for part in line.split("  "):
                key, _, val = part.partition(" = ")
                fields[key.strip()] = val.strip()
    fields["blocks"] = blocks
    return fields


def check_eigenstate(y: float, theta: float, smax: int, want_code: int, want_domain: tuple[str, ...]):
    def check(out, outputs) -> str | None:
        code, text = out
        if code != want_code:
            return f"exit code {code}, expected {want_code}"
        rep = parse_eigenstate(text)
        if rep.get("transform_domain") not in want_domain:
            return f"transform_domain {rep.get('transform_domain')!r}, expected one of {want_domain}"
        blocks = rep["blocks"]
        coeffs = np.array(blocks.get("s,coeff_re,coeff_im", []))
        if len(coeffs) != smax + 1:
            return f"{len(coeffs)} coefficients, expected {smax + 1}"
        want = eigenstate_log_magnitudes(ytilde_from_y(y), theta, 0, smax + 1)
        live = np.isfinite(want)
        if np.any(coeffs[~live] != 0):
            return "nonzero coefficient past the terminating index"
        dev = np.max(np.abs(np.log(np.abs(coeffs[live])) - want[live]))
        if not dev <= 1e-10:
            return f"coefficient magnitudes off by {dev:.3e} (log)"
        moved = np.array(blocks.get("s,transformed_re,transformed_im", []))
        if want_code == 0 and (len(moved) != smax + 1 or not np.all(np.isfinite(moved))):
            return "transformed block missing or not finite"
        return None

    return check


def check_gram(nmax: int):
    def check(out, outputs) -> str | None:
        code, text = out
        if code != 0:
            return f"exit code {code}"
        sv = [float(line.split(",")[1]) for line in text.splitlines()[1:] if not line.startswith("#")]
        if len(sv) != nmax + 1:
            return f"{len(sv)} singular values, expected {nmax + 1}"
        ratio = min(sv) / max(sv)
        return None if ratio > 1e-8 else f"smallest/largest singular value {ratio:.3e}"

    return check


def dense_transform(seed: int, tiny: bool = False) -> list[Op]:
    rng = np.random.default_rng(seed)
    # alpha is fixed: mobius' cost depends on it (underflow in the powers of -alpha)
    alpha = 0.1
    ladder = (20, 40, 60) if tiny else (200, 400, 600)
    ops = []
    for n in ladder:
        # geometric decay keeps the transformed coefficients bounded (ratio + alpha < 1)
        ratio = float(rng.uniform(0.5, 0.9))
        p = int(rng.integers(0, 3))
        c = ratio ** np.arange(n) * np.exp(2j * math.pi * rng.random(n))
        st = LadderState(p, c)
        g = genfunc.from_state(st)
        exp_name = f"apply_exp_pair n={n}"

        def check_exp(out, outputs):
            return None if np.all(np.isfinite(out)) else "non-finite coefficients"

        def check_mobius(out, outputs, exp_name=exp_name, p=p):
            conv = genfn_coords(outputs[exp_name], p)
            dev = float(np.max(np.abs(out - conv))) / max(1.0, float(np.max(np.abs(conv))))
            return None if dev <= 1e-11 else f"mobius vs apply_exp_pair scaled dev {dev:.3e}"

        ops.append(Op(exp_name, None,
                      lambda st=st: pair_transform.apply_exp_pair(st, -alpha).coeffs, check_exp))
        ops.append(Op(f"mobius n={n}", None, lambda g=g: genfunc.mobius(g, alpha).C, check_mobius))

    # y = 0.45 sits where these three calls have the outcomes below: the first
    # two transform (exit 0; an inconclusive verdict still transforms), the
    # third is refused as out of domain (exit 2)
    y = 0.45
    transforms = ("InDomain", "Inconclusive")
    eig_cases = [
        (-0.5, 60 if tiny else 600, 0.02, 0, transforms),
        (3.0, 80 if tiny else 800, 0.3, 0, transforms),
        (0.5, 40 if tiny else 400, 0.05, 2, ("NotInDomain",)),
    ]
    for theta, smax, t, code, domain in eig_cases:
        argv = ["eigenstate", "--y", repr(y), "--theta", repr(theta), "--smax", str(smax),
                "--transform", repr(t)]
        ops.append(Op(f"eigenstate theta={theta} smax={smax}", "eigenstate",
                      lambda argv=argv: cli_call(argv), check_eigenstate(y, theta, smax, code, domain)))

    gram_n, gram_s = (3, 40) if tiny else (16, 400)
    argv = ["gram", "--nmax", str(gram_n), "--smax", str(gram_s)]
    ops.append(Op(f"gram nmax={gram_n}", "gram", lambda argv=argv: cli_call(argv), check_gram(gram_n)))

    conj_smax = 12 if tiny else 40
    ops.append(Op(f"conjugation_check smax={conj_smax}", None,
                  lambda: pair_transform.conjugation_check(0.2, conj_smax),
                  lambda out, outputs: None if out <= 1e-12 else f"deviation {out:.3e} > 1e-12"))
    return ops


# ------------------------------------------------------------ referee-verify

def check_values(y: float, p: int):
    def check(out, outputs) -> str | None:
        if not np.all(np.diff(out) > 0):
            return "eigenvalues not strictly ascending"
        dev = max(abs(out[n] - bog_energy_ab(y, p, n)) for n in range(8))
        return None if dev <= 1e-8 else f"lowest eigenvalues off bog_energy_ab by {dev:.3e}"

    return check


def check_vectors(diag: np.ndarray, off: np.ndarray):
    def check(out, outputs) -> str | None:
        vals, vecs = out
        m = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        scale = np.abs(m).sum(axis=1).max()
        res = float(np.max(np.linalg.norm(m @ vecs - vecs * vals, axis=0)))
        if not res <= 1e-10 * scale:
            return f"eigenvector residual {res:.3e}"
        orth = float(np.max(np.abs(vecs.T @ vecs - np.eye(len(vals)))))
        return None if orth <= 1e-12 else f"eigenvectors not orthonormal ({orth:.3e})"

    return check


def check_verify(out, outputs) -> str | None:
    code, text = out
    if code != 0 or json.loads(text)["passed"] is not True:
        return f"verify failed (exit code {code})"
    return None


def check_wu(dim: int):
    def check(out, outputs) -> str | None:
        code, text = out
        if code != 0:
            return f"exit code {code}"
        rows = [line.split(",") for line in text.splitlines()[1:] if not line.startswith("#")]
        if len(rows) != dim:
            return f"{len(rows)} eigenstates, expected {dim}"
        worst = max(float(r[2]) for r in rows)
        return None if worst <= 1e-10 else f"residual {worst:.3e}"

    return check


def referee_verify(seed: int, tiny: bool = False) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    suite = "lattice" if tiny else "all"
    for vseed in rng.integers(0, 10**6, size=2):
        argv = ["verify", "--suite", suite, "--seed", str(int(vseed))]
        ops.append(Op(f"verify seed={vseed}", "verify", lambda argv=argv: cli_call(argv), check_verify))

    # QL sweep counts depend on y; a narrow band keeps the cost the same for every seed
    for n in (40, 80) if tiny else (500, 1000):
        y, p = float(rng.uniform(0.25, 0.35)), int(rng.integers(0, 2))
        block = build_tridiagonal(p, y, y, n - 1)
        ops.append(Op(f"sym_tridiag_eig values n={n}", None,
                      lambda b=block: oracle.sym_tridiag_eig(b.diag, b.super_), check_values(y, p)))
    for n in (20, 30) if tiny else (200, 300):
        y, p = float(rng.uniform(0.25, 0.35)), int(rng.integers(0, 2))
        block = build_tridiagonal(p, y, y, n - 1)
        ops.append(Op(f"sym_tridiag_eig vectors n={n}", None,
                      lambda b=block: oracle.sym_tridiag_eig(b.diag, b.super_, vectors=True),
                      check_vectors(block.diag, block.super_)))

    gram_n, gram_s = (3, 40) if tiny else (63, 640)
    argv = ["gram", "--nmax", str(gram_n), "--smax", str(gram_s)]
    ops.append(Op(f"gram nmax={gram_n}", "gram", lambda argv=argv: cli_call(argv), check_gram(gram_n)))

    # a in [0.02, 0.03] keeps the N = 170 sector below the overflow edge (N >= 180)
    model = ["--a", repr(float(rng.uniform(0.02, 0.03))), "--rho", "1", "--L", repr(2.0 * math.pi)]
    for big_n in (4, 8) if tiny else (50, 100, 170):
        for p in (0, 1):
            for kn in ("0,0,1", "0,1,1", "1,1,1"):
                argv = ["wu", *model, "--N", str(big_n), "--p", str(p), "--kn", kn]
                ops.append(Op(f"wu N={big_n} p={p} kn={kn}", "wu", lambda argv=argv: cli_call(argv),
                              check_wu((big_n - p) // 2 + 1)))
    return ops


BUILDERS = {
    "lattice-tables": lattice_tables,
    "dense-transform": dense_transform,
    "referee-verify": referee_verify,
}


def build(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The op list of a workload; ``tiny`` shrinks every size for the self-tests."""
    return BUILDERS[workload](seed % 2**64, tiny)  # numpy seeds must be >= 0
