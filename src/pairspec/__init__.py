"""Pair-excitation spectra for the LHY bose gas on a periodic momentum lattice.

The package builds the model's per-mode parameters, the two-mode ladder
blocks and their closed-form eigenstates, the non-unitary pair transform and
its generating-function shadow, the terminating hypergeometric identities
behind the completeness argument, the particle-conserving three-mode sector,
and an independent dense-diagonalization referee for all of it.
"""

__version__ = "0.1.0"

# the public surface is each module's __all__
from .fock_ladder import *
from .lattice import *
from .hamiltonians import *
from .eigenstates import *
from .pair_transform import *
from .genfunc import *
from .hypergeom import *
from .wu_sector import *
from .oracle import *
