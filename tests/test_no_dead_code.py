"""No-caller guard: every public and private name in src/xsrp has a caller outside the tests.

A public name is a module-level function or class, or a method, of
``src/xsrp/*.py`` whose name does not start with an underscore; a
private one, one whose name starts with a single underscore (dunder
methods are called by Python). A name has a caller when, in the package,
``demos/`` or ``perfbench/``, the name appears as a Python NAME token
outside the def/class that defines it, or as a string literal
equal to the name (perfbench's tracer looks layer functions up by name).
Words in comments and docstrings do not count. Names that only the tests
call are deleted, or, if public, kept in ALLOWED with the reason they
stay; a private name has no such way out. The package root imports
nothing, so each name is reached from its own module only.

A name that is also a public attribute of np.ndarray or of a builtin
type (``copy``, ``take``, ``index``) cannot be told from those by its
tokens, so it passes only with an ALLOWED entry that says who calls it.

Knobs get the same guard: an optional parameter of a public
module-level function is passed by some call outside the tests, or
UNPASSED says why it stays.
"""

import ast
import builtins
import io
import tokenize
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "xsrp"

ALLOWED = {
    "SphericalDirection": "the direction type of acceptance criterion C2",
    "to_unit": "SphericalDirection's conversion that C2 reads",
    "stationary_velocity_var": "the Langevin prior's stationary variance that C10 checks",
    "tdoa_far_field": "the scalar oracle that tdoa_matrix(far_field=True) is tested against",
    "take": "CandidateGrid.take and VolumeGrid.take: the searches' grid.take(idx), as ndarray.take",
}


#: (function, parameter) -> why an optional parameter that no call outside the tests passes stays
UNPASSED = {
    ("lag_block", "reach"): "the public form of the pipeline's cropped block (_lags_of's reach)",
    ("tdoa_bounds", "guard"): "tdoa_bounds stays for perfbench's tracer, volume_tdoa_bounds' one-box view, guard and all",
    ("x_srp", "room"): "x_srp is the README's one-call pipeline, which DOA grids run without a room",
    ("x_srp", "cfg"): "x_srp is the README's one-call pipeline, whose default config is PipelineConfig()",
}


def shadowed() -> set[str]:
    """The public attribute names of np.ndarray and of every builtin type."""
    types = [np.ndarray] + [t for t in vars(builtins).values() if isinstance(t, type)]
    return {a for t in types for a in dir(t) if not a.startswith("_")}


def defined_names(private: bool) -> dict[str, list[tuple[Path, range]]]:
    """Public (or private) name -> the (file, lines) of each def/class that defines it."""
    names: dict[str, list[tuple[Path, range]]] = {}

    def add(node, path):
        if node.name.startswith("_") == private and not node.name.startswith("__"):
            names.setdefault(node.name, []).append((path, range(node.lineno, node.end_lineno + 1)))

    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, defs):
                add(node, path)
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        add(member, path)
    return names


def uses() -> dict[str, list[tuple[Path, int]]]:
    """Each NAME token and each string literal's value -> the (file, line) of every use."""
    files = [p for d in (SRC, ROOT / "demos", ROOT / "perfbench") for p in sorted(d.glob("*.py"))]
    found: dict[str, list[tuple[Path, int]]] = {}
    for path in files:
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            if tok.type == tokenize.NAME:
                found.setdefault(tok.string, []).append((path, tok.start[0]))
            elif tok.type == tokenize.STRING and not tok.string.lstrip("rRbB").startswith(("f", "F")):
                value = ast.literal_eval(tok.string)
                if isinstance(value, str):
                    found.setdefault(value, []).append((path, tok.start[0]))
    return found


def callerless(names, found, common=frozenset()) -> list[str]:
    """The names, as "name (file:line)", that are in ``common`` or used nowhere outside their own defs."""
    return [
        f"{name} ({defs[0][0].name}:{defs[0][1].start})"
        for name, defs in names.items()
        if name in common or not any(
            all(p != path or i not in lines for p, lines in defs) for path, i in found.get(name, ())
        )
    ]


def test_every_public_name_has_a_caller():
    names = defined_names(private=False)
    assert set(ALLOWED) <= set(names), f"allowed names that no longer exist: {set(ALLOWED) - set(names)}"
    dead = callerless({k: v for k, v in names.items() if k not in ALLOWED}, uses(), shadowed())
    assert not dead, (
        f"public names with no caller outside the tests, or named like an ndarray or builtin attribute "
        f"and not in ALLOWED: {', '.join(dead)}"
    )


def test_every_private_name_has_a_caller():
    dead = callerless(defined_names(private=True), uses())
    assert not dead, f"private names with no caller outside the tests: {', '.join(dead)}"


def test_package_root_imports_nothing():
    """``xsrp/__init__.py`` holds its docstring and ``__version__``: no name is re-exported from the root."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    imports = [node.lineno for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not imports, f"import statements in xsrp/__init__.py at lines {imports}"


def optional_params() -> dict[str, list[tuple[str, int | None]]]:
    """Each public module-level function's optional parameters, (name, position or None if keyword-only)."""
    params: dict[str, list[tuple[str, int | None]]] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                a = node.args
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                params[node.name] = [(p.arg, i) for i, p in enumerate(positional) if i >= first]
                params[node.name] += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return params


def called_names(func) -> list[str]:
    """The function names a call's callee may be: a name, an attribute, or either branch of a conditional."""
    if isinstance(func, ast.Name):
        return [func.id]
    if isinstance(func, ast.Attribute):
        return [func.attr]
    if isinstance(func, ast.IfExp):
        return called_names(func.body) + called_names(func.orelse)
    return []


def test_every_optional_parameter_is_passed_by_some_caller():
    """An optional parameter of a public module-level function is passed, by keyword or position, by
    some call in the package, ``demos/`` or ``perfbench/`` (a ``*args`` or ``**kwargs`` call passes
    them all), or it is in UNPASSED with the reason it stays."""
    params = optional_params()
    assert set(UNPASSED) <= {(f, p) for f, ps in params.items() for p, _ in ps}, "UNPASSED names a missing parameter"
    passed: set[tuple[str, str]] = set()
    files = [p for d in (SRC, ROOT / "demos", ROOT / "perfbench") for p in sorted(d.glob("*.py"))]
    for path in files:
        for call in (n for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Call)):
            n_pos = len(call.args)
            every = any(isinstance(x, ast.Starred) for x in call.args) or any(k.arg is None for k in call.keywords)
            words = {k.arg for k in call.keywords}
            for name in called_names(call.func):
                for p, i in params.get(name, ()):
                    if every or p in words or i is not None and i < n_pos:
                        passed.add((name, p))
    unpassed = [f"{f}({p})" for f, ps in params.items() for p, _ in ps if (f, p) not in passed | set(UNPASSED)]
    assert not unpassed, f"optional parameters that no call outside the tests passes: {', '.join(unpassed)}"


def counter_writers() -> list[tuple[str, str]]:
    """(function, "file:line") of each assignment in src/xsrp to ``counter.points`` or
    ``counter.kernel_ops``; the function is dotted from its module, "srp_core" at module level."""
    writers = []

    def visit(node, path, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path, f"{where}.{child.name}")
                continue
            targets = getattr(child, "targets", None) or ([child.target] if isinstance(child, (ast.AugAssign, ast.AnnAssign)) else [])
            for t in (a for target in targets for a in ast.walk(target)):
                if (isinstance(t, ast.Attribute) and t.attr in ("points", "kernel_ops")
                        and isinstance(t.value, ast.Name) and t.value.id == "counter"):
                    writers.append((where, f"{path.name}:{child.lineno}"))
            visit(child, path, where)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, path.stem)
    return writers


def test_only_count_writes_the_work_counter():
    """srp_core._count is the one function that adds to the work counter: every map, scorer and
    search counts through it, so what the counter holds is decided in one place."""
    writers = counter_writers()
    assert {w for w, _ in writers} == {"srp_core._count"}, (
        f"counter.points or counter.kernel_ops written outside srp_core._count: "
        f"{', '.join(f'{w} ({at})' for w, at in writers if w != 'srp_core._count')}"
    )
