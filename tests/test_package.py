import ast
import importlib
import inspect
import types
from pathlib import Path

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


# What numpy added after 1.24, the floor in pyproject.toml: the array-API names
# of 2.0, 2.1's cumulative_* and unstack, 2.2's matvec and vecmat, and 1.25's
# exceptions and dtypes modules.
NUMPY_AFTER_FLOOR = {
    "np": {"acos", "acosh", "asin", "asinh", "astype", "atan", "atan2", "atanh", "bitwise_count",
           "bitwise_invert", "bitwise_left_shift", "bitwise_right_shift", "bool", "concat",
           "cumulative_prod", "cumulative_sum", "dtypes", "exceptions", "isdtype", "long",
           "matrix_transpose", "matvec", "permute_dims", "pow", "strings", "trapezoid", "ulong",
           "unique_all", "unique_counts", "unique_inverse", "unique_values", "unstack", "vecdot",
           "vecmat"},
    "np.linalg": {"cross", "diagonal", "matmul", "matrix_norm", "matrix_transpose", "outer",
                  "svdvals", "tensordot", "trace", "vecdot", "vector_norm"},
}


def numpy_after_floor(source: str) -> list[str]:
    """Every np.<name> or np.linalg.<name> in source that numpy 1.24 lacks."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            owner = ast.unparse(node.value)
            owner = "np" + owner[5:] if owner.split(".")[0] == "numpy" else owner
            if node.attr in NUMPY_AFTER_FLOOR.get(owner, ()):
                found.append(f"{owner}.{node.attr}")
    return found


def test_no_numpy_names_beyond_the_floor():
    found = {path.name: names for path in sorted(Path(pairspec.__file__).parent.glob("*.py"))
             if (names := numpy_after_floor(path.read_text()))}
    assert found == {}


def test_floor_check_sees_each_spelling():
    source = "import numpy\nnp.vecdot(x, y)\nnumpy.linalg.vector_norm(x)\nnp.linalg.norm(x)\nnp.einsum('i,i', x, y)"
    assert numpy_after_floor(source) == ["np.vecdot", "np.linalg.vector_norm"]


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """Every top-level private function, class or constant of the given modules
    (name -> source) that no code in them reads outside its own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = {}  # (module, name) -> its defining statement
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[module, name] = node
    reads = {}  # name -> the nodes that read it, as ids
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, set()).add(id(node))
    return [f"{module}.{name}" for (module, name), definition in sorted(defined.items())
            if not reads.get(name, set()) - set(map(id, ast.walk(definition)))]


def test_no_orphaned_private_helper():
    # a private helper that nothing in the package reads is dead code: tests
    # and the benchmark harness do not count as consumers
    sources = {path.stem: path.read_text() for path in Path(pairspec.__file__).parent.glob("*.py")}
    assert orphaned_private_names(sources) == []


def test_orphan_check_sees_each_kind():
    sources = {
        "a": "_USED = 1\n_DEAD = 2\n\ndef _self_only(n):\n    return _self_only(n - 1) if n else _USED\n\n"
             "class _Dead:\n    pass\n\ndef _read_elsewhere():\n    pass\n",
        "b": "from . import a\n\ndef f():\n    return a._read_elsewhere()\n",
    }
    assert orphaned_private_names(sources) == ["a._DEAD", "a._Dead", "a._self_only"]


def public_members(module: str) -> list[str]:
    """The module's __all__, and Class.member for each public method and property
    that a class in it defines."""
    mod = importlib.import_module(f"pairspec.{module}")
    members = [f"{name}.{attr}" for name in mod.__all__ if inspect.isclass(cls := getattr(mod, name))
               for attr, member in vars(cls).items() if not attr.startswith("_")
               and (inspect.isfunction(member) or isinstance(member, (property, staticmethod, classmethod)))]
    return [*mod.__all__, *members]


def unconsumed_public_names(sources: dict[str, str], public: dict[str, list[str]]) -> list[str]:
    """Every name in a module's public list (module -> names, a member as
    Class.member) that no code of the other given modules (name -> source)
    reads, by name or as an attribute; a member is read by its own name."""
    readers = {}  # name -> the modules that read it
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                readers.setdefault(node.id, set()).add(module)
            elif isinstance(node, ast.Attribute):
                readers.setdefault(node.attr, set()).add(module)
    return sorted(f"{module}.{name}" for module, names in public.items() for name in names
                  if not readers.get(name.rsplit(".", 1)[-1], set()) - {module})


# The public names that nothing else in the package reads, each with the reason
# it stays.  Tests and the benchmark harness do not count as consumers.
UNCONSUMED = {
    "eigenstates.Normalizability": "a return type",
    "genfunc.DiskClass": "a return type",
    "eigenstates.coeff_log_magnitudes": "read only inside its own module",
    "pair_transform.conjugation_check": "wants a verify row that bites, or deletion",
    "hypergeom.transported_state": "wants a verify row that bites, or deletion",
    "hypergeom.hyp_f": "the batch-1 face of _hyp_f, which verify calls",
    "hypergeom.contiguous_residual": "the batch-1 face of _contiguous_residual, which verify calls",
    "wu_sector.wu_eigenstate": "the batch-1 face of _wu_eigenvectors, which verify calls",
    "eigenstates.recurrence_coeffs": "the batch-1 face of _recurrence_rows, which verify calls",
    "wu_sector.apply_exp_w": "the batch-1 face of _exp_w_rows, which verify calls",
    "fock_ladder.apply_ab": "the batch-1 face of _ab_rows, which verify and _hab_rows call",
    "fock_ladder.apply_adbd": "the batch-1 face of _adbd_rows, which verify and _hab_rows call",
    "fock_ladder.apply_halfnumber": "the batch-1 face of _halfnumber_rows, which _hab_rows calls",
    "hamiltonians.apply_hab_alpha": "the batch-1 face of _hab_rows, which verify and _residual_rows call",
    "eigenstates.residual": "the batch-1 face of _residual_rows, which verify calls",
    "fock_ladder.LadderState.padded": "pads a state for residual, which drops its top row (README conventions)",
    "hamiltonians.HabMatrix.dense": "the dense reference that the tests compare the bands against",
}


def test_every_public_name_has_a_consumer():
    # a new public function that no command, check or other module calls fails here
    sources = {path.stem: path.read_text() for path in Path(pairspec.__file__).parent.glob("*.py")}
    public = {m: public_members(m) for m in MODULES}
    assert unconsumed_public_names(sources, public) == sorted(UNCONSUMED)


def test_consumer_scan_sees_each_kind():
    sources = {
        "a": "X = 1\n\nclass K:\n    def m(self):\n        return self.q\n\n    @property\n"
             "    def q(self):\n        return X\n\ndef f():\n    return X\n\ndef g():\n    return f()\n\n"
             "def h():\n    pass\n",
        "b": "from . import a\nfrom .a import h\n\ndef use(k):\n    return a.g(), h(), k.m()\n",
    }
    public = {"a": ["X", "K", "f", "g", "h", "K.m", "K.q"]}
    assert unconsumed_public_names(sources, public) == ["a.K", "a.K.q", "a.X", "a.f"]


def test_member_list_sees_methods_and_properties():
    members = public_members("fock_ladder")
    assert {"LadderState", "LadderState.norm", "LadderState.padded", "LadderState.smax"} <= set(members)
    assert "LadderState.coeffs" not in members  # a dataclass field, not a method
