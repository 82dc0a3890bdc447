"""Edge probes: six cheap calls at the edge of the documented domain.

Each probe passes when the call returns a finite result that an independent
check here accepts, or refuses with a documented ``ValueError`` (for the CLI:
exit code 1 or 2 without raising).  Any other exception, a non-finite value
or a wrong digit is a failure.  The probes run once per benchmark run,
outside the timed passes, and their failure count is the ``edge_failures``
metric.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from pairspec.eigenstates import EigenstateSpec, psi_p_theta
from pairspec.fock_ladder import LadderState
from pairspec.lattice import ModelParams, mode_params
from pairspec.pair_transform import apply_exp_pair, conjugation_check
from pairspec.wu_sector import WuSector, build_transformed_wu, wu_eigenstate

from workloads import cli_call, eigenstate_log_magnitudes

# the README's interacting model and its lowest mode (0, 0, 1)
README_MODEL = ModelParams(a=0.0198944, rho=1.0, L=6.2831853)
README_ARGS = ["--a", "0.0198944", "--rho", "1", "--L", "6.2831853"]


def _readme_mode():
    scale = 2.0 * math.pi / README_MODEL.L
    return mode_params(README_MODEL, (0.0, 0.0, scale))


def probe_exp_pair_single_coefficient() -> str | None:
    """A unit coefficient at s = 550 padded to n = 1101, alpha = 0.5."""
    s0, n, t = 550, 1101, -0.5
    c = np.zeros(n, dtype=complex)
    c[s0] = 1.0
    out = apply_exp_pair(LadderState(0, c), t).coeffs
    # p = 0: c'_m = binom(m, s0) t^(m - s0) exactly, for m >= s0
    m = np.arange(s0, n)
    lg = np.vectorize(math.lgamma)
    log_want = lg(m + 1.0) - lg(s0 + 1.0) - lg(m - s0 + 1.0) + (m - s0) * math.log(-t)
    want = np.exp(log_want) * (-1.0) ** (m - s0)
    if not np.all(np.isfinite(out)) or np.any(out[:s0] != 0):
        return "non-finite or misplaced coefficients"
    dev = float(np.max(np.abs(out[s0:] - want) / np.abs(want)))
    return None if dev <= 1e-11 else f"relative deviation {dev:.3e}"


def _probe_psi(ytilde: float, smax: int) -> str | None:
    theta = 0.5
    out = psi_p_theta(EigenstateSpec(p=0, theta=theta, ytilde=ytilde, smax=smax)).coeffs
    if not np.all(np.isfinite(out)):
        return "non-finite coefficients"
    want = eigenstate_log_magnitudes(ytilde, theta, 0, smax + 1)
    dev = float(np.max(np.abs(np.log(np.abs(out)) - want)))
    return None if dev <= 1e-10 else f"log-magnitude deviation {dev:.3e}"


def probe_psi_small_ytilde() -> str | None:
    """psi_p_theta at ytilde = 0.01, smax = 200."""
    return _probe_psi(0.01, 200)


def probe_psi_long_expansion() -> str | None:
    """psi_p_theta at ytilde = 0.5, smax = 2000."""
    return _probe_psi(0.5, 2000)


def probe_wu_top_index() -> str | None:
    """wu_eigenstate in the N = 180 sector, top index."""
    sector = WuSector(180, 0, _readme_mode())
    idx = sector.dim - 1
    v = wu_eigenstate(sector, README_MODEL, idx)
    if not np.all(np.isfinite(v)):
        return "non-finite eigenvector"
    lam = sector.mode.epsilon * (2 * idx + sector.p)
    res = float(np.linalg.norm(build_transformed_wu(sector, README_MODEL) @ v - lam * v))
    return None if res <= 1e-10 * max(1.0, lam) else f"residual {res:.3e}"


def probe_wu_cli_large_sector() -> str | None:
    """``pairspec wu --N 400`` on the README model."""
    code, text = cli_call(["wu", *README_ARGS, "--N", "400", "--p", "0", "--kn", "0,0,1"])
    if code in (1, 2):
        return None  # documented refusal
    if code != 0:
        return f"exit code {code}"
    rows = [line.split(",") for line in text.splitlines()[1:] if not line.startswith("#")]
    values = [float(x) for r in rows for x in r[1:]]
    return None if len(rows) == 201 and all(map(math.isfinite, values)) else "bad report"


def probe_conjugation_headroom() -> str | None:
    """conjugation_check(0.9, 30) against the documented headroom below 1e-12."""
    dev = conjugation_check(0.9, 30)
    return None if dev <= 1e-12 else f"deviation {dev:.3e} > 1e-12"


PROBES: tuple[Callable[[], str | None], ...] = (
    probe_exp_pair_single_coefficient,
    probe_psi_small_ytilde,
    probe_psi_long_expansion,
    probe_wu_top_index,
    probe_wu_cli_large_sector,
    probe_conjugation_headroom,
)


def run_probes() -> list[tuple[str, str | None]]:
    """(probe name, failure reason or None) for every probe."""
    results = []
    for probe in PROBES:
        try:
            reason = probe()
        except ValueError:
            reason = None  # a documented refusal
        except Exception as exc:  # noqa: BLE001 - every other exception is the defect being counted
            reason = f"{type(exc).__name__}: {exc}"
        results.append((probe.__name__.removeprefix("probe_"), reason))
    return results
