"""No-caller guard: every public name in src/xsrp has a caller outside the tests.

A public name is a module-level function or class, or a method, of
``src/xsrp/*.py`` whose name does not start with an underscore. It has
a caller when the name appears as a whole word on some line of the
package (``__init__.py`` aside, which only re-exports), ``demos/`` or
``perfbench/`` other than a ``def``/``class`` line that defines it.
Names that only the tests call are deleted, or kept in ALLOWED with
the reason they stay.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "xsrp"

ALLOWED = {
    "SphericalDirection": "the direction type of acceptance criterion C2",
    "to_unit": "SphericalDirection's conversion that C2 reads",
    "stationary_velocity_var": "the Langevin prior's stationary variance that C10 checks",
    "tdoa_far_field": "the scalar oracle that far_field_tdoa_matrix is tested against",
    "contains": "test helper: point-in-box checks on a Volume",
    "read_jsonl": "test helper: reads back the CLI's JSON lines",
    "snapshot": "kept for the per-run stats object that replaces the global counter",
}


def public_names() -> dict[str, list[tuple[Path, int]]]:
    """Public name -> the (file, line) of each def/class that defines it."""
    names: dict[str, list[tuple[Path, int]]] = {}

    def add(node, path):
        if not node.name.startswith("_"):
            names.setdefault(node.name, []).append((path, node.lineno))

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


def caller_lines() -> list[tuple[Path, int, str]]:
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return [
        (path, i, line)
        for path in files
        for i, line in enumerate(path.read_text().splitlines(), start=1)
    ]


def test_every_public_name_has_a_caller():
    names, lines = public_names(), caller_lines()
    assert set(ALLOWED) <= set(names), f"allowed names that no longer exist: {set(ALLOWED) - set(names)}"
    dead = []
    for name, defs in names.items():
        if name in ALLOWED:
            continue
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(line) and (path, i) not in defs for path, i, line in lines):
            dead.append(f"{name} ({defs[0][0].name}:{defs[0][1]})")
    assert not dead, f"public names with no caller outside the tests: {', '.join(dead)}"
