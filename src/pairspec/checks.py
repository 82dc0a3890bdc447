"""Runnable invariant suites: every structural property the library promises.

Each invariant is measured by one private function that takes the seeded
generator and its grid as keyword arguments and returns ``CheckResult``s: a
deviation compared against a frozen tolerance.  The default grids are the
quick ones ``verify`` runs; the acceptance gate (``tests/test_acceptance.py``)
calls the same functions on its own strict grids, so every tolerance and
every deviation is defined here once.  The CLI ``verify`` command serializes
the reports and fails the process when any check fails.  Random sweeps draw
from a seeded generator so a report is reproducible from its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import genfunc, hypergeom, oracle, pair_transform, wu_sector
from .eigenstates import (
    EigenstateSpec,
    partial_norms,
    psi_p_theta,
    recurrence_coeffs,
    residual,
    stirling_tail_limit,
    tail_constant,
)
from .fock_ladder import LadderState, apply_ab, apply_adbd, inner
from .hamiltonians import apply_hab_alpha, bog_energy_ab, build_tridiagonal, lhy_block
from .lattice import (
    ModelParams,
    alpha_c,
    alpha_sum,
    half_lattice,
    half_lattice_indices,
    mode_params,
    y12,
    ytilde_from_y,
)

__all__ = ["CheckResult", "run_suite", "SUITE_NAMES"]

_REFERENCE = ModelParams(a=1.0 / (16.0 * math.pi), rho=1.0, L=2.0 * math.pi)


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    deviation: float
    tolerance: float
    passed: bool


def _result(suite: str, name: str, deviation: float, tolerance: float) -> CheckResult:
    dev = float(deviation)
    return CheckResult(suite, name, dev, tolerance, bool(dev <= tolerance))


def _worst(*deviations: float) -> float:
    """The largest deviation, or NaN if any is NaN: the builtin max keeps its
    running value against a NaN, which would hide a failed measurement."""
    return math.nan if any(map(math.isnan, deviations)) else max(deviations)


def _random_state(rng: np.random.Generator, p: int, n: int) -> LadderState:
    return LadderState(p, rng.standard_normal(n) + 1j * rng.standard_normal(n))


def _random_rows(rng: np.random.Generator, rows: int, n: int, draw) -> tuple:
    """Imbalances, amplitudes and zero-padded length-n coefficient rows of
    ``rows`` random states: ``draw()`` gives each row's (p, alpha, length)
    and the state is drawn after it, as a loop of single states would."""
    ps, alphas = np.empty(rows, dtype=int), np.empty(rows)
    coeffs = np.zeros((rows, n), dtype=complex)
    for i in range(rows):
        ps[i], alphas[i], length = draw()
        coeffs[i, :length] = _random_state(rng, int(ps[i]), length).coeffs
    return ps, alphas, coeffs


# ----------------------------------------------------------------- lattice

def _dispersion(rng, nmax=3):
    modes = [mode_params(_REFERENCE, k) for k in half_lattice(_REFERENCE.L, nmax)]
    g = _REFERENCE.gas_scale
    dev = _worst(*(abs(m.epsilon**2 - m.ksq * (m.ksq + 2.0 * g)) / (m.epsilon**2) for m in modes))
    out = [_result("lattice", "dispersion eps^2 = k^2 (k^2 + 16 pi a rho)", dev, 1e-12)]
    dev = _worst(*(abs(m.epsilon - (m.ksq + g) * math.sqrt(1.0 - 4.0 * m.y**2)) / m.epsilon
                   for m in modes))
    out.append(_result("lattice", "eps = (k^2 + 8 pi a rho) sqrt(1 - 4y^2)", dev, 1e-12))
    dev = _worst(*(abs(m.alpha - alpha_c(m.y)) / max(m.alpha, 1e-30) for m in modes))
    out.append(_result("lattice", "alpha(k) equals alpha_c(y(k))", dev, 1e-12))
    return out


def _branch_identity(rng):
    ys = rng.uniform(1e-3, 0.499, 200)
    dev = _worst(*(abs(1.0 - 2.0 * alpha_c(y) * y - math.sqrt(1.0 - 4.0 * y * y)) for y in ys))
    return [_result("lattice", "1 - 2 alpha_c y = sqrt(1 - 4y^2)", dev, 1e-12)]


def _half_lattice_tiling(rng):
    nmax = 2
    half = set(half_lattice_indices(nmax))
    mirrored = {(-a, -b, -c) for (a, b, c) in half}
    cube = {
        (i, j, k)
        for i in range(-nmax, nmax + 1)
        for j in range(-nmax, nmax + 1)
        for k in range(-nmax, nmax + 1)
        if (i, j, k) != (0, 0, 0)
    }
    bad = len(half & mirrored) + len(cube ^ (half | mirrored))
    return [_result("lattice", "half lattice + mirror tiles the cube disjointly", bad, 0.0)]


def _alpha_sum_growth(rng):
    sums = [alpha_sum(_REFERENCE, n).value for n in (1, 2, 3)]
    dev = _worst(sums[0] - sums[1], sums[1] - sums[2])  # minus the smaller growth step
    return [_result("lattice", "alpha_sum grows with the cutoff", dev, 0.0)]


# -------------------------------------------------------------------- eigen

def _ladder_adjoint(rng):
    dev = 0.0
    for _ in range(50):
        p = int(rng.integers(0, 4))
        x = _random_state(rng, p, int(rng.integers(1, 12)))
        y = _random_state(rng, p, int(rng.integers(1, 12)))
        dev = _worst(dev, abs(inner(apply_adbd(x), y) - inner(x, apply_ab(y))))
    return [_result("eigen", "pair raising/lowering are mutually adjoint", dev, 1e-12)]


def _ladder_commutator(rng):
    dev = 0.0
    for p in range(4):
        n = 14
        c = np.zeros(n)
        for s in range(n - 1):
            c[:] = 0.0
            c[s] = 1.0
            st = LadderState(p, c.copy())
            comm = apply_ab(apply_adbd(st)).coeffs[s] - apply_adbd(apply_ab(st)).coeffs[s]
            dev = _worst(dev, abs(comm - (p + 2 * s + 1)))
    return [_result("eigen", "[ab, a*b*] acts as p + 2s + 1", dev, 1e-10)]


def _matrix_vs_operator(rng):
    dev = 0.0
    for _ in range(25):
        p = int(rng.integers(0, 4))
        smax = int(rng.integers(4, 20))
        y1, y2 = rng.uniform(0.05, 0.6, 2)
        st = _random_state(rng, p, smax + 1)
        mat = build_tridiagonal(p, y1, y2, smax)
        via_matrix = mat.matvec(st.coeffs)
        via_operator = apply_hab_alpha(st, y1, y2).coeffs[: smax + 1]
        dev = _worst(dev, float(np.max(np.abs(via_matrix - via_operator))))
    return [_result("eigen", "tridiagonal matrix matches the operator action", dev, 1e-13)]


def _product_vs_recurrence(rng):
    dev = 0.0
    for _ in range(200):
        p = int(rng.integers(0, 6))
        theta = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        ytil = rng.uniform(0.2, 3.0)
        smax = 30
        a = psi_p_theta(EigenstateSpec(p, theta, ytil, smax)).coeffs
        b = recurrence_coeffs(p / 2.0 + theta, p, ytil, smax).coeffs
        scale = np.maximum(np.abs(a), 1e-300)
        dev = _worst(dev, float(np.max(np.abs(a - b) / scale)))
    return [_result("eigen", "binomial formula equals the energy recurrence", dev, 1e-12)]


def _finite_eigenstates(rng, ps=range(0, 21, 4), ns=range(0, 21, 4)):
    dev = 0.0
    for ytil in (0.5, 1.0, 2.0):
        for p in ps:
            for n in ns:
                st = psi_p_theta(EigenstateSpec(p, n, ytil, n + 2))
                dev = _worst(dev, residual(st, ytil, 0.0, p / 2.0 + n) / st.norm())
    return [_result("eigen", "finite eigenstates have zero residual", dev, 1e-12)]


def _collapse(rng):
    overlaps = []
    for ytil in (0.1, 0.01, 0.001):
        st = psi_p_theta(EigenstateSpec(2, 3, ytil, 5), normalize=True)
        overlaps.append(abs(st.coeffs[3]))
    monotone = overlaps[0] <= overlaps[1] <= overlaps[2]
    dev = (1.0 - overlaps[-1]) + (0.0 if monotone else 1.0)
    return [_result("eigen", "states collapse onto |p+N, N> as ytilde -> 0", dev, 1e-4)]


def _critical_bidiagonal(rng):
    mat = build_tridiagonal(3, 0.7, 0.0, 12)
    return [_result("eigen", "critical block is upper bidiagonal", float(np.max(np.abs(mat.sub))), 0.0)]


def _oracle_spectrum(rng, smax=80, levels=3):
    y = 0.3
    mat = build_tridiagonal(0, y, y, smax)
    vals = oracle.sym_tridiag_eig(mat.diag, mat.super_)
    dev = _worst(*(abs(vals[n] - bog_energy_ab(y, 0, n)) for n in range(levels)))
    return [_result("eigen", "dense referee reproduces the closed spectrum", dev, 1e-10)]


def _transport(rng, ps=range(3), ns=range(3), pad=200):
    dev = 0.0
    for y in (0.3, 0.45):
        for p in ps:
            for n in ns:
                moved = hypergeom._shifted_state(p, n, y, pad)
                energy = pair_transform._transported_energy(p / 2.0 + n, y, alpha_c(y))
                dev = _worst(dev, residual(moved, y, y, energy) / moved.norm())
    return [_result("eigen", "transported states solve the Hermitian block", dev, 1e-8)]


def _transform_inverse(rng):
    ps, alphas, coeffs = _random_rows(rng, 20, 25, lambda: (
        int(rng.integers(0, 3)), rng.uniform(0.05, 0.5), 9))
    back = pair_transform._exp_pair(pair_transform._exp_pair(coeffs, ps, -alphas), ps, alphas)
    dev = _worst(0.0, *np.max(np.abs(back[:, :16] - coeffs[:, :16]), axis=1))
    return [_result("eigen", "forward/backward transforms cancel on finite states", dev, 1e-9)]


def _ground_occupancy(rng):
    dev = 0.0
    for alpha in (0.1, 0.5, 0.9):
        st = pair_transform.mode_ground_state(alpha, 600)
        occ = pair_transform.pair_occupancy(st)
        dev = _worst(dev, abs(occ - alpha**2 / (1.0 - alpha**2)))
    return [_result("eigen", "ground-state pair occupancy matches the closed form", dev, 1e-10)]


def _divergence_witness(rng):
    norms = partial_norms(0.5, 0.5, 0, 200)
    return [_result("eigen", "partial norms blow past 1e6 for ytilde = 1/2", 1e6 - norms.max(), 0.0)]


def _tail_constants(rng):
    dev = 0.0
    for theta, p in ((0.5, 0), (0.5, 2), (-0.5, 0)):
        r = tail_constant(1.0, theta, p, np.array([4000]))[0]
        k_limit = stirling_tail_limit(theta, p)
        dev = _worst(dev, abs(r - k_limit) / k_limit)
    return [_result("eigen", "tail ratios converge to the Gamma constant", dev, 2e-3)]


def _transport_energy(rng, ps=range(3), ns=range(3)):
    dev = _worst(*(
        abs(pair_transform._transported_energy(p / 2.0 + n, y, alpha_c(y)) - bog_energy_ab(y, p, n))
        for y in (0.3, 0.45)
        for p in ps
        for n in ns
    ))
    return [_result("eigen", "transported energies equal the closed spectrum", dev, 1e-10)]


def _cauchy_tail(rng, smax=100, tail_from=75):
    norms = partial_norms(1.5, 0.5, 0, smax)
    return [_result("eigen", "partial norms settle for ytilde = 3/2", norms[-1] - norms[tail_from], 1e-10)]


def _depletion(rng, nmax=1):
    fraction = pair_transform.depletion_report(_REFERENCE, nmax)["depletion_fraction"]
    dev = 0.0 if 0.0 < fraction < 1.0 else 1.0
    return [_result("eigen", "ground-state depletion lies strictly between 0 and N", dev, 0.0)]


def _transformed_block_spectrum(rng, fractions=(0.5,), ps=(0, 1), smax=60):
    dev = 0.0
    for y in (0.3, 0.45):
        for frac in fractions:
            alpha = frac * alpha_c(y)
            for p in ps:
                block = build_tridiagonal(p, *y12(y, alpha), smax)
                diag, off, _ = oracle.symmetrize_tridiag(block)
                vals = oracle.sym_tridiag_eig(diag, off)
                for n in range(3):
                    dev = _worst(dev, abs(vals[n] - genfunc.e_from_b(n + p, p, y, alpha)))
    return [_result("eigen", "symmetrized transformed block reproduces e_from_b", dev, 1e-10)]


# ------------------------------------------------------------------ genfunc

def _rescaling_round_trip(rng):
    dev = 0.0
    for _ in range(30):
        st = _random_state(rng, int(rng.integers(0, 5)), int(rng.integers(1, 30)))
        back = genfunc.to_state(genfunc.from_state(st))
        scale = max(1.0, float(np.max(np.abs(st.coeffs))))
        dev = _worst(dev, float(np.max(np.abs(back.coeffs - st.coeffs))) / scale)
    return [_result("genfunc", "rescaling round trip is the identity", dev, 1e-14)]


def _mobius_vs_exponential(rng, alpha_range=(0.05, 0.9)):
    n = 61
    ps, alphas, coeffs = _random_rows(rng, 100, n, lambda: (
        int(rng.integers(0, 4)), rng.uniform(*alpha_range), int(rng.integers(2, 11))))
    rescale = np.exp(pair_transform._log_rescale(ps, n))  # genfunc.from_state, row by row
    via_series = genfunc._mobius(coeffs * rescale, alphas)
    via_conv = pair_transform._exp_pair(coeffs, ps, -alphas) * rescale
    scale = np.fmax(1.0, np.max(np.abs(via_conv), axis=1))
    dev = _worst(0.0, *(np.max(np.abs(via_series - via_conv), axis=1) / scale))
    return [_result("genfunc", "Moebius series equals the exponential transform", dev, 1e-11)]


def _singularity_transport(rng):
    dev = 0.0
    for z0, alpha in ((3.0, 0.2), (2.0, 0.3), (-4.0, 0.3), (0.5, 0.3), (1.5, 0.2)):
        n = 192
        g = genfunc.GenFn(0, (1.0 / z0) ** np.arange(n))
        moved = genfunc.mobius(g, alpha)
        radius, _ = genfunc.singularity_radius(moved)
        target = abs(z0 / (1.0 - alpha * z0))
        dev = _worst(dev, abs(radius - target) / target)
    # the worst of these five fixed pairs reads 6.7e-11 in both _EXT lanes; the
    # tolerance is about ten times that, so a 1e-7 fault in the radius fails
    return [_result("genfunc", "Moebius maps singularities as z -> z/(1 - alpha z)", dev, 7e-10)]


def _root_exclusions(rng):
    dev_minus = dev_plus = dev_prod0 = dev_prod = 0.0
    for _ in range(50):
        y = rng.uniform(0.05, 0.49)
        ac = alpha_c(y)
        alpha = rng.uniform(0.0, ac * 0.999)
        zp, zm = genfunc.roots(y, alpha)
        y1, y2 = y12(y, alpha)
        dev_minus = _worst(dev_minus, 1.0 - abs(zm) * (1.0 - alpha))
        dev_plus = _worst(dev_plus, abs(zp) - 1.0 / (1.0 - alpha))
        dev_prod = _worst(dev_prod, abs(zp * zm - y1 / y2))
        zp0, zm0 = genfunc.roots(y, 0.0)
        dev_prod0 = _worst(dev_prod0, abs(zp0 * zm0 - 1.0))
    return [
        _result("genfunc", "escaped root stays outside the shrunk disk", dev_minus, 0.0),
        _result("genfunc", "inner root obeys |z+| <= 1/(1-alpha)", dev_plus, 1e-12),
        _result("genfunc", "root product is y1/y2 (1 at alpha = 0)", _worst(dev_prod, dev_prod0), 1e-10),
    ]


def _q_invariant(rng):
    dev = 0.0
    for y in (0.1, 0.3, 0.45):
        qs = [genfunc.q_invariant(y, a) for a in np.linspace(0.0, alpha_c(y), 20)]
        closed = 0.5 * (1.0 + math.sqrt(1.0 - 4.0 * y * y))
        dev = _worst(dev, _worst(*qs) - min(qs), *(abs(q - closed) for q in qs))
    return [_result("genfunc", "Q is independent of the amplitude", dev, 1e-12)]


def _exponent_energy_inversion(rng):
    dev = 0.0
    for _ in range(60):
        y = rng.uniform(0.05, 0.49)
        alpha = rng.uniform(0.0, alpha_c(y))
        p = int(rng.integers(0, 5))
        b = complex(rng.uniform(-3, 8), rng.uniform(-2, 2))
        e = genfunc.e_from_b(b, p, y, alpha)
        dev = _worst(dev, abs(genfunc.b_from_e(e, p, y, alpha) - b))
    for m in range(6):
        dev = _worst(dev, abs(genfunc.e_from_b(m, 0, 0.3, 0.0) - bog_energy_ab(0.3, 0, m)))
    return [_result("genfunc", "exponent and energy maps invert each other", dev, 1e-12)]


def _ode_eigen_series(rng):
    dev = 0.0
    for y in (0.3, 0.45):
        ytil = ytilde_from_y(y)
        for p, n in ((0, 1), (2, 3), (1, 4)):
            st = psi_p_theta(EigenstateSpec(p, n, ytil, n + 2))
            g = genfunc.from_state(st)
            dev = _worst(dev, genfunc.ode_residual(g, p / 2.0 + n, ytil, 0.0))
    return [_result("genfunc", "eigenstate series solve the coefficient ODE", dev, 1e-12)]


def _ode_generic_series(rng):
    gen = genfunc.from_state(_random_state(rng, 1, 12))
    dev = genfunc.ode_residual(gen, 1.3, 0.4, 0.2)
    miss = 0.0 if dev >= 1e-6 else 1.0  # a NaN residual is a miss too
    return [_result("genfunc", "generic series fail the coefficient ODE", miss, 0.0)]


# ---------------------------------------------------------------- hypergeom

def _contiguous(rng):
    # the grid m, n, p in 0..6, z in zs as rows, in that nesting order
    zs = (0.3, 0.7, 1.5, -0.4, 0.2 + 0.5j)
    m, n, p, iz = np.indices((7, 7, 7, len(zs))).reshape(4, -1)
    z = np.array(zs)[iz]
    lhs, rhs = hypergeom._contiguous_residual(m, n, p, z)
    dev = _worst(0.0, *(np.abs(lhs - rhs) / np.fmax(1.0, np.abs(lhs))))
    return [_result("hypergeom", "contiguous relation holds on the grid", dev, 1e-12)]


def _derivative(rng):
    dev = 0.0
    for a in range(-5, 0):
        for b in (0.0, -1.0, -2.0):
            for c in (1.0, 2.0, 3.5):
                dev = _worst(dev, hypergeom.derivative_residual(a, b, c))
    return [_result("hypergeom", "derivative identity holds coefficientwise", dev, 1e-13)]


def _f_recurrence(rng):
    dev = 0.0
    for _ in range(20):
        n = int(rng.integers(0, 5))
        p = int(rng.integers(0, 5))
        ytil = rng.uniform(0.5, 2.0)
        d = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        z = complex(rng.uniform(0.2, 0.9), rng.uniform(-0.3, 0.3))
        r = hypergeom.f_recurrence_residual(n, p, ytil, d, z)
        scale = max(1.0, abs(hypergeom.f_family(n, p, ytil, d, z)))
        dev = _worst(dev, r / scale)
    return [_result("hypergeom", "f-family satisfies the derivative recurrence", dev, 1e-11)]


def _gram_floor(rng, ps=(0,), y=1.0 / math.sqrt(8.0), nmax=3, smax=60):
    dev = -math.inf
    for p in ps:
        sv = hypergeom.gram_witness(p, y, nmax, smax)
        dev = _worst(dev, float(-(sv.min() - 1e-8 * sv.max())))
    return [_result("hypergeom", "witness Gram is strictly positive", dev, 0.0)]


def _projection_sweep(rng):
    st = LadderState(0, (0.6 ** np.arange(81)) * rng.uniform(0.5, 1.0, 81))
    projs = hypergeom.projection_sweep(st, 0.45, 8, 80)
    monotone_violation = float(np.max(np.maximum(projs[:-1] - projs[1:] - 1e-14, 0.0)))
    # smooth random profiles land at ~0.8-0.92 caught by Nmax = 8 with the
    # residual shrinking by ~5x; thresholds leave seed-to-seed margin
    shrink = (1.0 - projs[-1]) / (1.0 - projs[0])
    dev = monotone_violation + _worst(0.0, shrink - 0.45) + _worst(0.0, 0.7 - projs[-1])
    return [_result("hypergeom", "projections onto the family approach completeness", dev, 0.0)]


def _ladder_orthogonality(rng):
    x0 = psi_p_theta(EigenstateSpec(0, 2, 1.0, 6))
    x1 = psi_p_theta(EigenstateSpec(1, 2, 1.0, 6))
    return [_result("hypergeom", "families on different ladders are orthogonal", abs(inner(x0, x1)), 0.0)]


def _gram_drift(rng, ps=(0, 1), y=0.45, nmax=2, smax=20):
    dev = 0.0
    for p in ps:
        floor = hypergeom.gram_witness(p, y, nmax, smax)[-1]
        doubled = hypergeom.gram_witness(p, y, nmax, 2 * smax)[-1]
        dev = _worst(dev, abs(floor - doubled) / floor)
    return [_result("hypergeom", "witness Gram floor is stable when smax doubles", dev, 1e-2)]


# ---------------------------------------------------------------------- wu

def _wu_sector(rng, ntots=(2, 7, 16), ps=range(0, 5, 2)):
    mp = _REFERENCE
    dev_tri = dev_diag = dev_res = dev_inv = 0.0
    for k in half_lattice(mp.L, 1)[:3]:
        mode = mode_params(mp, k)
        for ntot in ntots:
            for p in [q for q in ps if q <= ntot]:
                sector = wu_sector.WuSector(ntot, p, mode)
                m = wu_sector.build_transformed_wu(sector, mp)
                dev_tri = _worst(dev_tri, float(np.max(np.abs(np.tril(m, -1)))))
                want = [lhy_block(mode, p, s) for s in range(sector.dim)]  # the Bogoliubov route
                dev_diag = _worst(dev_diag, float(np.max(np.abs(np.diag(m) - want))))
                for _, _, res in wu_sector._wu_residuals(sector, mp):
                    dev_res = _worst(dev_res, *res)
                x = rng.standard_normal(sector.dim)
                y_ = wu_sector.apply_exp_w(wu_sector.apply_exp_w(x, sector, 1.0), sector, -1.0)
                dev_inv = _worst(dev_inv, float(np.max(np.abs(y_ - x))) / float(np.max(np.abs(x))))
    return [
        _result("wu", "sector matrix is strictly upper triangular", dev_tri, 0.0),
        _result("wu", "spectrum reads off the diagonal", dev_diag, 1e-12),
        _result("wu", "closed-form eigenvectors have zero residual", dev_res, wu_sector._RESIDUAL_TOL),
        _result("wu", "exp(W) exp(-W) is the identity", dev_inv, 1e-13),
    ]


def _wu_volume_scaling(rng):
    mp = _REFERENCE
    mode = mode_params(mp, half_lattice(mp.L, 1)[0])
    mp_half = ModelParams(a=mp.a, rho=mp.rho, L=mp.L / 2.0)
    ratio = wu_sector.wu_ytilde(mode, mp_half) / wu_sector.wu_ytilde(mode, mp)
    return [_result("wu", "sector coupling scales as 1/L^3", abs(ratio - 8.0), 1e-12)]


def _wu_free_limit(rng):
    mp_free = ModelParams(a=0.0, rho=1.0, L=2.0 * math.pi)
    mode_free = mode_params(mp_free, half_lattice(mp_free.L, 1)[0])
    sector = wu_sector.WuSector(4, 0, mode_free)
    m = wu_sector.build_transformed_wu(sector, mp_free)
    want = mode_free.ksq * 2 * np.arange(sector.dim)
    dev = float(np.max(np.abs(m - np.diag(want))))
    return [_result("wu", "free limit is the diagonal k^2 ladder", dev, 1e-12)]


# Run order within a suite is the random-draw order; new checks go last.
_SUITES = {
    "lattice": (_dispersion, _branch_identity, _half_lattice_tiling, _alpha_sum_growth),
    "eigen": (
        _ladder_adjoint,
        _ladder_commutator,
        _matrix_vs_operator,
        _product_vs_recurrence,
        _finite_eigenstates,
        _collapse,
        _critical_bidiagonal,
        _oracle_spectrum,
        _transport,
        _transform_inverse,
        _ground_occupancy,
        _divergence_witness,
        _tail_constants,
        _transport_energy,
        _cauchy_tail,
        _depletion,
        _transformed_block_spectrum,
    ),
    "genfunc": (
        _rescaling_round_trip,
        _mobius_vs_exponential,
        _singularity_transport,
        _root_exclusions,
        _q_invariant,
        _exponent_energy_inversion,
        _ode_eigen_series,
        _ode_generic_series,
    ),
    "hypergeom": (
        _contiguous,
        _derivative,
        _f_recurrence,
        _gram_floor,
        _projection_sweep,
        _ladder_orthogonality,
        _gram_drift,
    ),
    "wu": (_wu_sector, _wu_volume_scaling, _wu_free_limit),
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    """Run one named invariant suite (or ``all``) with a reproducible seed."""
    if name != "all" and name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    results = []
    for key in _SUITES if name == "all" else (name,):
        rng = np.random.default_rng(seed)
        for check in _SUITES[key]:
            results.extend(check(rng))
    return results
