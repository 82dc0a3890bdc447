"""Command-line front end: spectrum tables, eigenstate expansions, reports.

Subcommands
-----------
spectrum   per-mode dispersion table over the half lattice (csv or json)
eigenstate closed-form ladder eigenstate, optionally transported
verify     run invariant suites, machine-readable pass/fail report
gram       completeness-witness singular values
wu         particle-conserving sector spectrum and residuals

Numbers are always rendered with 17 significant digits, so csv and json
outputs of the same run carry bitwise-identical decimal values.  Exit codes:
0 success, 1 invalid input, 2 verification or domain failure, or a
numerical method that gave up.  Invalid input and a method that gave up print one ``error:``
line on stderr and nothing on stdout.  ``--out FILE`` writes the same bytes
as stdout; an unwritable ``--out`` path is invalid input (exit 1, nothing on
stdout).  Each ``cmd_*`` returns its report and exit code, and ``main`` does
all of the writing.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__, checks, hypergeom, wu_sector
from .eigenstates import EigenstateSpec, _transform_in_domain, classify_normalizable, psi_p_theta
from .lattice import (
    AlphaSum,
    ModelParams,
    ModeParams,
    _alpha_total,
    _mode_table,
    mode_params,
    ytilde_from_y,
)
from .pair_transform import _transported_energy, apply_exp_pair

__all__ = ["main"]


def fmt(x: float) -> str:
    """Round-trip-exact decimal rendering (17 significant digits)."""
    return f"{x:.17g}"


_SPECTRUM_KEYS = ("n1", "n2", "n3", "k_abs", "y", "ytilde", "alpha", "epsilon")
# One %-template per format renders a whole row; %.17g is the conversion fmt makes.
_CSV_ROW = "%d,%d,%d" + ",%.17g" * 5
_JSON_ROW = (  # one mode object, laid out as json.dumps(..., indent=2) nests it
    "    {\n"
    + ",\n".join(
        f'      "{key}": {conv}'
        for key, conv in zip(_SPECTRUM_KEYS, ("%d",) * 3 + ('"%.17g"',) * 5)
    )
    + "\n    }"
)


def _json_member(obj: dict) -> str:
    """``obj`` as ``json.dumps(..., indent=2)`` renders it one level deep."""
    return json.dumps(obj, indent=2).replace("\n", "\n  ")


def _spectrum_rows(mp: ModelParams, nmax: int) -> tuple[list[tuple], AlphaSum]:
    """The table's rows as Python numbers, in _SPECTRUM_KEYS order, and its alpha sum;
    the arrays they come from are freed before the rows are formatted."""
    table = _mode_table(mp, nmax)
    alphas = table.alpha.tolist()
    rows = list(zip(*table.n.T.tolist(), np.sqrt(table.ksq).tolist(), table.y.tolist(),
                    table.ytilde.tolist(), alphas, table.epsilon.tolist()))
    return rows, _alpha_total(mp, alphas)


def cmd_spectrum(args: argparse.Namespace) -> tuple[str, int]:
    mp = ModelParams(a=args.a, rho=args.rho, L=args.L, N=args.N)
    rows, asum = _spectrum_rows(mp, args.nmax)
    if args.format == "json":
        model = {"a": fmt(mp.a), "rho": fmt(mp.rho), "L": fmt(mp.L), "N": fmt(mp.N)}
        footer = {
            "four_pi_a_rho_N": fmt(mp.mean_field_energy),
            "alpha_sum": fmt(asum.value),
            "alpha_sum_grows_with_cutoff": asum.grows_with_cutoff,
        }
        text = "".join((
            '{\n  "model": ', _json_member(model), ',\n  "modes": [\n',
            ",\n".join([_JSON_ROW % row for row in rows]),
            '\n  ],\n  "footer": ', _json_member(footer), "\n}\n",
        ))
    else:
        lines = [
            f"# model,a={fmt(mp.a)},rho={fmt(mp.rho)},L={fmt(mp.L)},N={fmt(mp.N)}",
            ",".join(_SPECTRUM_KEYS),
            *[_CSV_ROW % row for row in rows],
            f"# four_pi_a_rho_N,{fmt(mp.mean_field_energy)}",
            f"# alpha_sum,{fmt(asum.value)},grows_with_cutoff={asum.grows_with_cutoff}",
        ]
        text = "\n".join(lines) + "\n"
    return text, 0


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"complex values are 're' or 're,im', got {text!r}")


def _mode_at(mp: ModelParams, text: str, flag: str) -> ModeParams:
    """Mode parameters at the lattice index "n1,n2,n3" given to ``flag``."""
    n = tuple(int(v) for v in text.split(","))
    if len(n) != 3:
        raise ValueError(f"{flag} wants three comma-separated integers")
    scale = 2.0 * math.pi / mp.L
    try:
        k = (scale * n[0], scale * n[1], scale * n[2])
    except OverflowError:  # an index above double range; mode_params refuses the rest
        raise ValueError(f"{flag} index puts k beyond double range") from None
    return mode_params(mp, k)


def _complex_text(z: complex) -> str:
    return fmt(z.real) + ("" if z.imag == 0 else f" + {fmt(z.imag)} i")


def _coeff_block(header: str, coeffs: np.ndarray) -> list[str]:
    return [header] + [f"{s},{fmt(c.real)},{fmt(c.imag)}" for s, c in enumerate(coeffs)]


def cmd_eigenstate(args: argparse.Namespace) -> tuple[str, int]:
    if (args.y is None) == (args.k_mode is None):
        raise ValueError("give exactly one of --y and --k-mode")
    y = args.y
    if y is not None and (args.a, args.rho, args.L) != (None, None, None):
        raise ValueError("--a, --rho and --L apply only with --k-mode")
    if y is None:
        if args.a is None or args.rho is None or args.L is None:
            raise ValueError("--k-mode requires --a, --rho and --L")
        mp = ModelParams(a=args.a, rho=args.rho, L=args.L)
        y = _mode_at(mp, args.k_mode, "--k-mode").y
    theta = _parse_complex(args.theta)
    ytil = ytilde_from_y(y)
    spec = EigenstateSpec(p=args.p, theta=theta, ytilde=ytil, smax=args.smax)
    verdict = classify_normalizable(ytil, theta, args.p)
    alpha = args.transform
    # an alpha outside (0, 1) is refused here, before the state is formed
    in_domain = alpha is None or _transform_in_domain(ytil, theta, args.p, alpha)
    st = psi_p_theta(spec)
    energy = args.p / 2.0 + theta

    lines = [
        f"p = {args.p}  theta = {fmt(theta.real)}{'' if theta.imag == 0 else ',' + fmt(theta.imag)}",
        f"y = {fmt(y)}  ytilde = {fmt(ytil)}",
        f"classification = {verdict.value}",
        f"energy = {_complex_text(energy)}",
        *_coeff_block("s,coeff_re,coeff_im", st.coeffs),
    ]

    code = 0
    if alpha is not None:
        lines.append(f"transform_domain = {'InDomain' if in_domain else 'NotInDomain'}")
        if not in_domain:
            code = 2
        else:
            moved = apply_exp_pair(st, -alpha)
            e_ab = _transported_energy(energy, y, alpha)
            lines.append(f"transformed_energy = {_complex_text(e_ab)}")
            lines.extend(_coeff_block("s,transformed_re,transformed_im", moved.coeffs))
    return "\n".join(lines) + "\n", code


def cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    results = checks.run_suite(args.suite, seed=args.seed)
    payload = {
        "suite": args.suite,
        "seed": args.seed,
        "passed": all(r.passed for r in results),
        "checks": [
            {
                "suite": r.suite,
                "name": r.name,
                "deviation": fmt(r.deviation),
                "tolerance": fmt(r.tolerance),
                "passed": r.passed,
            }
            for r in results
        ],
    }
    return json.dumps(payload, indent=2) + "\n", 0 if payload["passed"] else 2


def cmd_gram(args: argparse.Namespace) -> tuple[str, int]:
    sv = hypergeom.gram_witness(args.p, args.y, args.nmax, args.smax)
    lines = ["index,singular_value"]
    lines.extend(f"{i},{fmt(v)}" for i, v in enumerate(sv))
    lines.append(f"# smallest_over_largest,{fmt(sv[-1] / sv[0])}")
    return "\n".join(lines) + "\n", 0


def cmd_wu(args: argparse.Namespace) -> tuple[str, int]:
    # the sector count N is independent of the nominal model N = rho L^3
    mp = ModelParams(a=args.a, rho=args.rho, L=args.L)
    mode = _mode_at(mp, args.kn, "--kn")
    sector = wu_sector.WuSector(args.N, args.p, mode)
    lines = ["n_index,energy,residual"]
    code = 0
    for ns, lams, residuals in wu_sector._wu_residuals(sector, mp):
        for idx, lam, res in zip(ns.tolist(), lams.tolist(), residuals.tolist()):
            if not res <= wu_sector._RESIDUAL_TOL:  # a NaN residual fails as well
                code = 2
            lines.append(f"{idx},{fmt(lam)},{fmt(res)}")
    lines.append(f"# epsilon_k,{fmt(mode.epsilon)}")
    lines.append(f"# ytilde_k,{fmt(wu_sector.wu_ytilde(mode, mp))}")
    return "\n".join(lines) + "\n", code


@functools.cache  # one parse tree per process: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairspec",
        description="Pair-excitation spectra of the LHY bose gas at desk scale.",
    )
    parser.add_argument("--version", action="version", version=f"pairspec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="per-mode dispersion table")
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--rho", type=float, required=True)
    sp.add_argument("--L", type=float, required=True)
    sp.add_argument("--N", type=float, default=None)
    sp.add_argument("--nmax", type=int, default=2)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=cmd_spectrum)

    eig = sub.add_parser("eigenstate", help="closed-form ladder eigenstate")
    eig.add_argument("--y", type=float, default=None)
    eig.add_argument("--k-mode", dest="k_mode", default=None, help="n1,n2,n3")
    eig.add_argument("--a", type=float, default=None)
    eig.add_argument("--rho", type=float, default=None)
    eig.add_argument("--L", type=float, default=None)
    eig.add_argument("--p", type=int, default=0)
    eig.add_argument("--theta", required=True, help="re or re,im")
    eig.add_argument("--smax", type=int, default=24)
    eig.add_argument("--transform", type=float, default=None, metavar="ALPHA")
    eig.set_defaults(func=cmd_eigenstate)

    ver = sub.add_parser("verify", help="run invariant suites")
    ver.add_argument("--suite", choices=checks.SUITE_NAMES, default="all")
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(func=cmd_verify)

    gram = sub.add_parser("gram", help="completeness-witness singular values")
    gram.add_argument("--y", type=float, default=0.45)
    gram.add_argument("--p", type=int, default=0)
    gram.add_argument("--nmax", type=int, default=4)
    gram.add_argument("--smax", type=int, default=80)
    gram.set_defaults(func=cmd_gram)

    wu = sub.add_parser("wu", help="particle-conserving sector report")
    wu.add_argument("--a", type=float, required=True)
    wu.add_argument("--rho", type=float, required=True)
    wu.add_argument("--L", type=float, required=True)
    wu.add_argument("--N", type=int, required=True,
                    help="sector particle count; eps_k and alpha_k come from --rho, "
                         "the sector couplings from N/L^3")
    wu.add_argument("--p", type=int, default=0)
    wu.add_argument("--kn", required=True, help="n1,n2,n3")
    wu.set_defaults(func=cmd_wu)
    for command in sub.choices.values():
        command.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, code = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # inputs that ask numpy for an array beyond memory
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError) as exc:  # a numerical method gave up
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:  # first, so that a failed write leaves stdout empty
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:  # an unwritable path is invalid input
            print(f"error: cannot write --out {args.out!r}: {exc.strerror or exc}", file=sys.stderr)
            return 1
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
