import importlib
import types

import pairspec

MODULES = ("fock_ladder", "lattice", "hamiltonians", "eigenstates", "pair_transform", "genfunc",
           "hypergeom", "wu_sector", "oracle")


def test_public_names_are_the_modules_all():
    # the package states no list of its own: it re-exports each module's __all__
    want = set().union(*(importlib.import_module(f"pairspec.{m}").__all__ for m in MODULES))
    public = {name for name, value in vars(pairspec).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == want
