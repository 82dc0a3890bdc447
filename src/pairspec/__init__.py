"""Pair-excitation spectra for the LHY bose gas on a periodic momentum lattice.

The package builds the model's per-mode parameters, the two-mode ladder
blocks and their closed-form eigenstates, the non-unitary pair transform and
its generating-function shadow, the terminating hypergeometric identities
behind the completeness argument, the particle-conserving three-mode sector,
and an independent dense-diagonalization referee for all of it.
"""

__version__ = "0.1.0"

from .fock_ladder import LadderState, apply_ab, apply_adbd, apply_halfnumber, inner
from .lattice import (
    AlphaSum,
    ModelParams,
    ModeParams,
    alpha_c,
    alpha_sum,
    full_lattice,
    half_lattice,
    mode_params,
    y12,
    ytilde_from_y,
)
from .hamiltonians import HabMatrix, apply_hab_alpha, bog_energy_ab, build_tridiagonal, lhy_block
from .eigenstates import (
    EigenstateSpec,
    Normalizability,
    classify_normalizable,
    enumerate_degenerate,
    psi_p_theta,
    recurrence_coeffs,
    residual,
    tail_constant,
)
from .pair_transform import (
    DomainVerdict,
    apply_exp_pair,
    conjugation_check,
    domain_check,
    mode_ground_state,
    pair_occupancy,
)
from .genfunc import (
    DiskClass,
    GenFn,
    b_from_e,
    e_from_b,
    from_state,
    mobius,
    ode_residual,
    q_invariant,
    roots,
    singularity_radius,
    to_state,
)
from .hypergeom import (
    contiguous_residual,
    derivative_residual,
    f_family,
    f_recurrence_residual,
    gram_witness,
    hyp_f,
)
from .wu_sector import WuSector, apply_exp_w, build_transformed_wu, wu_eigenstate, wu_ytilde
from .oracle import svd_small, sym_tridiag_eig, symmetrize_tridiag
