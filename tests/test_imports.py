"""Every name a module imports is used in that module.

Each ``src/toricsys/*.py`` except ``__init__.py`` (which re-exports) is
parsed with ``ast``; an imported name counts as used when the module
refers to it as a bare name or lists it in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "toricsys"

# (module, name) pairs imported only so that an old import path keeps
# resolving; none today.
ALLOWED: set[tuple[str, str]] = set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                c.value for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            )
    return sorted(name for name in imported if name not in used)


MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    unused = [
        name for name in unused_imports(path.read_text())
        if (path.stem, name) not in ALLOWED
    ]
    assert unused == [], f"{path.name} imports but never uses {unused}"


def test_checker_flags_an_unused_name():
    src = "from typing import Optional\nimport math\nx = math.pi\n"
    assert unused_imports(src) == ["Optional"]


def test_allowlisted_names_are_still_imported():
    for module, name in ALLOWED:
        assert name in unused_imports((SRC / f"{module}.py").read_text())


def imported_parts(source: str) -> set[str]:
    """Every dotted part of every module a source imports from, and every
    name it imports."""
    parts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            parts.update((node.module or "").split("."))
            parts.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts.update(alias.name.split("."))
    return parts


def test_lattice_imports_nothing_from_geometry():
    # The cone searches take plain (start, end, vertex) rows; the profile
    # owns the cone table (``MomentProfile.vertex_cones``).
    assert "geometry" not in imported_parts((SRC / "lattice.py").read_text())


@pytest.mark.parametrize(
    "src", ["from .geometry import x", "from . import geometry", "import toricsys.geometry"]
)
def test_import_parts_see_every_spelling(src):
    assert "geometry" in imported_parts(src)
