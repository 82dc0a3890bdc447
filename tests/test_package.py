import importlib
import inspect
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


def test_every_public_definition_is_in_all():
    # a public function or class that a module defines but leaves out of its
    # __all__ cannot be imported from the package
    missing = {}
    for module in MODULES:
        mod = importlib.import_module(f"pairspec.{module}")
        defined = {name for name, value in vars(mod).items()
                   if not name.startswith("_") and getattr(value, "__module__", None) == mod.__name__
                   and (inspect.isfunction(value) or inspect.isclass(value))}
        missing.update(dict.fromkeys(defined - set(mod.__all__), module))
    assert missing == {}
