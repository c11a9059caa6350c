"""Checks on the package source itself."""

import ast
import dis
import importlib
import inspect
import re
from pathlib import Path

import pytest

import lieindex
from lieindex import algebra, linalg


def test_no_assert_statements():
    # python -O strips assert statements, so invariant checks raise instead.
    found = []
    for path in sorted(Path(lieindex.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def test_no_function_level_imports():
    # An import inside a function hides an import cycle, and compiles its
    # module on the first call rather than at package import.
    found = []
    for path in sorted(Path(lieindex.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        top = {id(node) for node in tree.body}
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
        ]
    assert not found, f"imports below module level in the package: {found}"


def _decorator_name(node) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _module_level_caches(tree) -> list[int]:
    """Lines of a module or class body that make a cache living as long as the
    process: a def decorated with lru_cache or cache, or a call such as
    lru_cache(maxsize=None)(f) or cache(f)."""
    found = set()
    for node in tree.body:
        for d in node.body if isinstance(node, ast.ClassDef) else [node]:
            if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {d.lineno for dec in d.decorator_list if _decorator_name(dec) in ("lru_cache", "cache")}
            else:
                found |= {c.lineno for c in ast.walk(d)
                          if isinstance(c, ast.Call) and _decorator_name(c.func) in ("lru_cache", "cache")}
    return sorted(found)


def test_no_module_level_caches():
    # A module-level cache lives as long as the process and is shared by every
    # caller; state the catalogue reuses belongs to an object that owns it.
    found = []
    for path in sorted(Path(lieindex.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line in _module_level_caches(tree)]
    assert not found, f"module-level caches in the package: {found}"


@pytest.mark.parametrize("source, lines", [
    pytest.param("@lru_cache(maxsize=None)\ndef f(x):\n    return x\n", [2], id="decorator-call"),
    pytest.param("@functools.cache\ndef f(x):\n    return x\n", [2], id="decorator"),
    pytest.param("f = lru_cache(maxsize=None)(g)\n", [1], id="lru_cache-call"),
    pytest.param("f = cache(g)\n", [1], id="cache-call"),
    pytest.param("x = 1\nf = functools.lru_cache()(g)\n", [2], id="attribute-call"),
    pytest.param("class A:\n    f = cache(g)\n", [2], id="class-call"),
    pytest.param("class A:\n    @cache\n    def f(self):\n        return 1\n", [3], id="method"),
    pytest.param("def f(g):\n    return cache(g)\n", [], id="per-call"),
    pytest.param("class A:\n    @cached_property\n    def f(self):\n        return 1\n", [], id="per-instance"),
])
def test_module_level_cache_forms(source, lines):
    assert _module_level_caches(ast.parse(source)) == lines


def test_per_instance_caches_are_listed():
    # LieAlgebra is read-only after construction, so it keeps its center and
    # its bracket graph's matching number; the catalogue's corpus keeps what it
    # built.  A new cached_property joins this list on purpose, or not at all.
    found = set()
    for path in sorted(Path(lieindex.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            found |= {f"{path.name}:{cls.name}.{d.name}" for d in cls.body
                      if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and any(_decorator_name(dec) == "cached_property" for dec in d.decorator_list)}
        found |= {f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and _decorator_name(node.func) == "cached_property"}
    algebra_caches = {"algebra.py:LieAlgebra._center", "algebra.py:LieAlgebra._matching_number"}
    corpus = {f"verify.py:_Entry.{name}" for name in ("report", "matching")}
    corpus |= {f"verify.py:_Corpus.{name}" for name in ("free", "explicit", "meta", "graphs", "filiform")}
    assert found == algebra_caches | corpus


def _is_fermat_inverse(node) -> bool:
    """A three-argument pow whose exponent is <name> - 2: a Fermat inverse."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "pow" and len(node.args) == 3):
        return False
    e = node.args[1]
    return (
        isinstance(e, ast.BinOp)
        and isinstance(e.op, ast.Sub)
        and isinstance(e.left, ast.Name)
        and isinstance(e.right, ast.Constant)
        and e.right.value == 2
    )


def test_no_fermat_inverses():
    # pow(x, -1, p) inverts by the extended Euclidean algorithm; the Fermat
    # inverse pow(x, p - 2, p) costs a modular exponentiation per call.
    found = []
    for path in sorted(Path(lieindex.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if _is_fermat_inverse(node)]
    assert not found, f"Fermat inverses in the package: {found}"


def _is_echelon_rank(node) -> bool:
    """len(SparseEchelon(...).rows): a rank over Q by rational elimination."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "len" and len(node.args) == 1):
        return False
    arg = node.args[0]
    return (
        isinstance(arg, ast.Attribute)
        and arg.attr == "rows"
        and isinstance(arg.value, ast.Call)
        and getattr(arg.value.func, "id", None) == "SparseEchelon"
    )


def test_rank_over_q_goes_through_linalg_rank():
    # A rank over Q of integer rows is linalg.rank's fraction-free
    # elimination; Fraction arithmetic on the same rows is several times slower.
    found = []
    for path in sorted(Path(lieindex.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if _is_echelon_rank(node)]
    assert not found, f"ranks by SparseEchelon pivot count in the package: {found}"


def test_exports_resolve_once():
    # A name left in __all__ after its definition is gone breaks
    # `from lieindex import *`.
    names = lieindex.__all__
    assert len(set(names)) == len(names), "a name is exported twice"
    missing = [name for name in names if not hasattr(lieindex, name)]
    assert not missing, f"exports with no definition: {missing}"


def test_package_imports_exactly_its_exports():
    # test_no_unused_imports skips __init__.py, which imports to re-export: a
    # name imported there and missing from __all__ is left over from a deletion.
    tree = ast.parse(Path(lieindex.__file__).read_text())
    imported = [a.asname or a.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module != "__future__" for a in node.names]
    assert sorted(imported) == sorted(lieindex.__all__)


def test_dense_vectors_enter_through_subspace_only():
    # linalg._sparse turns a dense coordinate vector into a sparse row.  Subspace
    # stores sparse rows, so algebra.py (Subspace.from_vectors) is the one place
    # where dense vectors come in.
    found = []
    for path in sorted(Path(lieindex.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and any(a.name == "_sparse" for a in node.names)
            or isinstance(node, ast.Attribute) and node.attr == "_sparse"
        ]
    assert all(f.startswith("algebra.py:") for f in found), f"_sparse used outside algebra.py: {found}"
    assert found, "algebra.py no longer imports _sparse; update this check"


def test_algebra_builds_no_dense_vector():
    # Vectors in algebra.py are sparse; dense ones leave only through
    # Subspace.basis, which builds its tuples without a [x] * n list.
    tree = ast.parse(Path(algebra.__file__).read_text())
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
             and ast.List in (type(node.left), type(node.right))]
    assert not found, f"algebra.py builds [x] * n lists at lines {found}"


def test_modulus_enters_through_the_echelon_constructor():
    # SparseEchelon's constructor is the one place that eliminates over F_p
    # (lazy residues); the Q-only helpers take no modulus.
    tree = ast.parse(Path(linalg.__file__).read_text())
    helpers = {d.name: d for d in tree.body if isinstance(d, ast.FunctionDef)}
    for name in ("_subtract", "_step"):
        args = helpers[name].args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        assert "p" not in params and args.vararg is args.kwarg is None, (name, params)
        mods = [node.lineno for node in ast.walk(helpers[name])
                if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mod)]
        assert not mods, f"{name} reduces modulo something at {mods}"


def test_fractions_are_built_in_one_helper():
    # An echelon value is an int when integral; linalg._ratio is the one place
    # that builds a Fraction, so no other line of linalg.py wraps an integer.  A
    # true division would give a float on two ints.
    tree = ast.parse(Path(linalg.__file__).read_text())
    [ratio] = [d for d in tree.body if isinstance(d, ast.FunctionDef) and d.name == "_ratio"]
    inside = {id(node) for node in ast.walk(ratio)}
    built = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and "Fraction" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert [node.lineno for node in built if id(node) not in inside] == []
    assert built, "linalg._ratio no longer builds a Fraction; update this check"
    divisions = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)]
    assert not divisions, f"true divisions in linalg.py at {divisions}"


def test_adjoint_table_is_read_in_algebra_only():
    # LieAlgebra._ad's layout (every nonzero bracket in both orders) is
    # algebra.py's decision; other modules bracket through its methods.
    found = []
    for path in sorted(Path(lieindex.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "_ad"]
    assert all(f.startswith("algebra.py:") for f in found), f"_ad read outside algebra.py: {found}"
    assert found, "algebra.py no longer reads _ad; update this check"


def test_scaled_table_is_read_in_algebra_and_index_only():
    # LieAlgebra decides the integer scale of the constants once; index.py ranks
    # the structure matrix off that table and rescans no constant itself.
    found = []
    for path in sorted(Path(lieindex.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [path.name for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "_scaled"]
    assert set(found) == {"algebra.py", "index.py"}, f"_scaled read in: {sorted(set(found))}"
    tree = ast.parse((Path(lieindex.__file__).parent / "index.py").read_text())
    lcms = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and any(a.name == "lcm" for a in node.names)]
    assert not lcms, f"index.py imports lcm at {lcms}"


def test_center_dim_is_its_own_route():
    # index() reads dim z(g) from algebra._center_dim, and the differential test
    # compares it with center(), so _center_dim may not go through center()'s route.
    tree = ast.parse(Path(algebra.__file__).read_text())
    [body] = [d for d in tree.body if isinstance(d, ast.FunctionDef) and d.name == "_center_dim"]
    names = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(body) if isinstance(node, ast.Attribute)}
    assert not names & {"center", "centralizer", "Subspace", "kernel"}, names
    assert "rank" in names, "_center_dim no longer falls back to rank; update this check"


def test_no_unused_imports():
    # A name imported and never used is dead weight, and hides which modules a
    # module really needs; __init__.py imports to re-export.
    found = []
    for path in sorted(Path(lieindex.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for a in node.names:
                    imported[a.asname or a.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert not found, f"unused imports in the package: {found}"


def test_tests_import_no_test_module():
    # Shared helpers live in tests/families.py: a test module that imports another
    # would share its collection errors.
    found = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
                found += [f"{path.name}:{node.lineno} {name}" for name in names
                          if any(part.startswith("test_") for part in name.split("."))]
    assert not found, f"test modules imported by tests: {found}"


def _parameters(code) -> tuple[str, ...]:
    flags = code.co_flags
    count = code.co_argcount + code.co_kwonlyargcount
    count += bool(flags & inspect.CO_VARARGS) + bool(flags & inspect.CO_VARKEYWORDS)
    return code.co_varnames[:count]


def _first_access_is_load(code, name: str) -> bool:
    """Whether the first bytecode access to the local name reads it (no access: False)."""
    for ins in dis.get_instructions(code):
        if ins.opname == "LOAD_FAST_AND_CLEAR":  # saves a comprehension's shadowed name
            continue
        # Superinstructions (STORE_FAST_LOAD_FAST, ...) pair their parts with argval's names.
        parts = re.findall(r"(LOAD|STORE|DELETE)_(?:FAST|DEREF|CLOSURE)", ins.opname)
        names = ins.argval if isinstance(ins.argval, tuple) else (ins.argval,)
        for part, local in zip(parts, names):
            if local == name:
                return part == "LOAD"
    return False


def _overrides(module, classes, name: str) -> bool:
    """Whether the class at the path classes of module has a package base defining name."""
    cls = module
    for part in classes or ():
        cls = getattr(cls, part, None)
    return classes is not None and inspect.isclass(cls) and any(
        name in vars(base) for base in cls.__mro__[1:] if base.__module__.startswith("lieindex")
    )


def test_every_parameter_is_read():
    # A parameter rebound or ignored before any read makes its callers pass a
    # value that changes nothing.  Every function's code, nested ones included,
    # is checked; a method's self or cls, and a method that keeps a base
    # class's signature, are exempt.  (co_qualname is 3.11+: paths are built here.)
    found = []

    def visit(code, module, classes, in_class: bool):
        # classes: the class path from module level (None below a function);
        # in_class: code is a class body, or a function defined in one.
        function = bool(code.co_flags & inspect.CO_OPTIMIZED)
        if function and not (in_class and _overrides(module, classes, code.co_name)):
            found.extend(f"{Path(code.co_filename).name}:{code.co_firstlineno} {code.co_name}({p})"
                         for p in _parameters(code)[in_class:] if not _first_access_is_load(code, p))
        for child in filter(inspect.iscode, code.co_consts):
            if function:
                visit(child, module, None, not child.co_flags & inspect.CO_OPTIMIZED)
            elif child.co_flags & inspect.CO_OPTIMIZED:
                visit(child, module, classes, in_class)
            else:
                visit(child, module, None if classes is None else classes + [child.co_name], True)

    for path in sorted(Path(lieindex.__file__).parent.glob("*.py")):
        module = importlib.import_module("lieindex" if path.stem == "__init__" else f"lieindex.{path.stem}")
        visit(compile(path.read_text(), str(path), "exec"), module, [], False)
    assert not found, f"parameters never read: {found}"
