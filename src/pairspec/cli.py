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
0 success, 1 invalid input, 2 verification or domain failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, checks, hypergeom, wu_sector
from .eigenstates import EigenstateSpec, _log_coeffs, classify_normalizable, psi_p_theta
from .lattice import (
    ModelParams,
    ModeParams,
    _alpha_total,
    half_lattice,
    mode_params,
    ytilde_from_y,
)
from .pair_transform import DomainVerdict, apply_exp_pair, domain_check

__all__ = ["main"]


def fmt(x: float) -> str:
    """Round-trip-exact decimal rendering (17 significant digits)."""
    return f"{x:.17g}"


def _write_output(text: str, out_path: str | None) -> None:
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)


def _model_from_args(args: argparse.Namespace) -> ModelParams:
    return ModelParams(a=args.a, rho=args.rho, L=args.L, N=args.N)


_SPECTRUM_KEYS = ("n1", "n2", "n3", "k_abs", "y", "ytilde", "alpha", "epsilon")


def cmd_spectrum(args: argparse.Namespace) -> int:
    mp = _model_from_args(args)
    modes = (mode_params(mp, k) for k in half_lattice(mp.L, args.nmax))
    rows = [(*m.n, math.sqrt(m.ksq), m.y, m.ytilde, m.alpha, m.epsilon) for m in modes]
    asum = _alpha_total(mp, (row[6] for row in rows))  # the alpha column
    cells = ((*row[:3], *map(fmt, row[3:])) for row in rows)  # each row rendered once
    if args.format == "json":
        payload = {
            "model": {"a": fmt(mp.a), "rho": fmt(mp.rho), "L": fmt(mp.L), "N": fmt(mp.N)},
            "modes": [dict(zip(_SPECTRUM_KEYS, row)) for row in cells],
            "footer": {
                "four_pi_a_rho_N": fmt(mp.mean_field_energy),
                "alpha_sum": fmt(asum.value),
                "alpha_sum_grows_with_cutoff": asum.grows_with_cutoff,
            },
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [
            f"# model,a={fmt(mp.a)},rho={fmt(mp.rho)},L={fmt(mp.L)},N={fmt(mp.N)}",
            ",".join(_SPECTRUM_KEYS),
            *(",".join(map(str, row)) for row in cells),
            f"# four_pi_a_rho_N,{fmt(mp.mean_field_energy)}",
            f"# alpha_sum,{fmt(asum.value)},grows_with_cutoff={asum.grows_with_cutoff}",
        ]
        text = "\n".join(lines) + "\n"
    _write_output(text, args.out)
    return 0


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
    return mode_params(mp, (scale * n[0], scale * n[1], scale * n[2]))


def _complex_text(z: complex) -> str:
    return fmt(z.real) + ("" if z.imag == 0 else f" + {fmt(z.imag)} i")


def _coeff_block(header: str, coeffs: np.ndarray) -> list[str]:
    return [header] + [f"{s},{fmt(c.real)},{fmt(c.imag)}" for s, c in enumerate(coeffs)]


def cmd_eigenstate(args: argparse.Namespace) -> int:
    if args.y is not None:
        y = args.y
    elif args.k_mode is not None:
        if args.a is None or args.rho is None or args.L is None:
            raise ValueError("--k-mode requires --a, --rho and --L")
        mp = ModelParams(a=args.a, rho=args.rho, L=args.L)
        y = _mode_at(mp, args.k_mode, "--k-mode").y
    else:
        raise ValueError("one of --y or --k-mode is required")
    theta = _parse_complex(args.theta)
    ytil = ytilde_from_y(y)
    verdict = classify_normalizable(ytil, theta, args.p)
    spec = EigenstateSpec(p=args.p, theta=theta, ytilde=ytil, smax=args.smax)
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
    if args.transform is not None:
        alpha = args.transform
        horizon = max(200, args.smax)
        dverdict = domain_check(_log_coeffs(ytil, theta, args.p, horizon), alpha, args.p, horizon)
        lines.append(f"transform_domain = {dverdict.value}")
        if dverdict is DomainVerdict.NOT_IN_DOMAIN:
            code = 2
        else:
            moved = apply_exp_pair(st, -alpha)
            e_ab = (1.0 - 2.0 * alpha * y) * energy - alpha * y
            lines.append(f"transformed_energy = {_complex_text(e_ab)}")
            lines.extend(_coeff_block("s,transformed_re,transformed_im", moved.coeffs))
    _write_output("\n".join(lines) + "\n", args.out)
    return code


def cmd_verify(args: argparse.Namespace) -> int:
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
    _write_output(json.dumps(payload, indent=2) + "\n", args.out)
    return 0 if payload["passed"] else 2


def cmd_gram(args: argparse.Namespace) -> int:
    sv = hypergeom.gram_witness(args.p, args.y, args.nmax, args.smax)
    lines = ["index,singular_value"]
    lines.extend(f"{i},{fmt(v)}" for i, v in enumerate(sv))
    lines.append(f"# smallest_over_largest,{fmt(sv[-1] / sv[0])}")
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def cmd_wu(args: argparse.Namespace) -> int:
    # the sector count N is independent of the nominal model N = rho L^3
    mp = ModelParams(a=args.a, rho=args.rho, L=args.L)
    mode = _mode_at(mp, args.kn, "--kn")
    sector = wu_sector.WuSector(args.N, args.p, mode)
    matrix = wu_sector.build_transformed_wu(sector, mp)
    # the sector matrix is upper bidiagonal: each residual is O(dim)
    diag, upper = np.diag(matrix), np.diag(matrix, 1)
    lines = ["n_index,energy,residual"]
    worst = 0.0
    for idx in range(sector.dim):
        vec = wu_sector.wu_eigenstate(sector, mp, idx)
        lam = mode.epsilon * (2 * idx + args.p)
        image = (diag - lam) * vec
        image[:-1] += upper * vec[1:]
        res = float(np.linalg.norm(image))
        worst = max(worst, res)
        lines.append(f"{idx},{fmt(lam)},{fmt(res)}")
    lines.append(f"# epsilon_k,{fmt(mode.epsilon)}")
    lines.append(f"# ytilde_k,{fmt(wu_sector.wu_ytilde(mode, mp))}")
    _write_output("\n".join(lines) + "\n", args.out)
    return 0 if worst <= 1e-10 else 2


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
    sp.add_argument("--out", default=None)
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
    eig.add_argument("--out", default=None)
    eig.set_defaults(func=cmd_eigenstate)

    ver = sub.add_parser("verify", help="run invariant suites")
    ver.add_argument("--suite", choices=checks.SUITE_NAMES, default="all")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--out", default=None)
    ver.set_defaults(func=cmd_verify)

    gram = sub.add_parser("gram", help="completeness-witness singular values")
    gram.add_argument("--y", type=float, default=0.45)
    gram.add_argument("--p", type=int, default=0)
    gram.add_argument("--nmax", type=int, default=4)
    gram.add_argument("--smax", type=int, default=80)
    gram.add_argument("--out", default=None)
    gram.set_defaults(func=cmd_gram)

    wu = sub.add_parser("wu", help="particle-conserving sector report")
    wu.add_argument("--a", type=float, required=True)
    wu.add_argument("--rho", type=float, required=True)
    wu.add_argument("--L", type=float, required=True)
    wu.add_argument("--N", type=int, required=True)
    wu.add_argument("--p", type=int, default=0)
    wu.add_argument("--kn", required=True, help="n1,n2,n3")
    wu.add_argument("--out", default=None)
    wu.set_defaults(func=cmd_wu)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
