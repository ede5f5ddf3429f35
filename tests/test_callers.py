"""Every module-level function and class of the package has a caller.

Each ``src/toricsys/*.py`` except ``__init__.py`` (which re-exports) is
parsed with ``ast``.  A function or class defined at a module's top level
counts as called when its name is loaded, as a bare name or as an
attribute, outside its own definition: in a package module other than
``__init__.py``, or in a ``bench/*.py`` script (``bench/tests`` does not
count).  A CLI handler declared by ``@command`` counts as called.  Code
that only tests call is deleted, or listed in ``ALLOWED`` with its reason.
"""

import ast
import re
from collections.abc import Iterable
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "toricsys"

# Names that only tests call, each with the reason it stays.
ALLOWED = {
    "closed_orbit_on_segment": "public API, exported by the package: one segment's orbit family",
    "random_star_profile": "the star-shaped corpus that the tests draw from",
    "shear_monodromy_check": "acceptance criterion 8 (tests/test_acceptance.py)",
}


# The copies of replaced library code that the tests keep (functions named
# _old_*, old_* or eager_*), each with its reason.  The lattice and orbit
# tests compare with the exact reference (exact.py) instead of such copies,
# which pin the float decisions they copied.
COPIES = {
    f"test_direct_arrays.{name}": "a helper's former spelling; checks no lattice decision"
    for name in ("_old_normals", "_old_classify", "_old_arc", "_old_squared", "_old_gromov")
} | {
    f"test_direct_arrays.{name}": "the stacked tag samples and their readers; checks no lattice decision"
    for name in (
        "_old_sample_curves", "_old_tag_ends_error", "_old_area", "_old_ruelle", "_old_svg_points"
    )
} | {
    f"test_sector_angle.{name}": "the strangulation bisection, an independent method within 1e-15"
    for name in ("_old_rot", "_old_sector_interval", "_old_point_on", "_old_strangulate")
}


def is_command(node: ast.AST) -> bool:
    """Is the definition a CLI handler, declared by ``@command(...)``?"""
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "command"
        for d in getattr(node, "decorator_list", ())
    )


def loaded_names(tree: ast.Module) -> set[str]:
    """The names and attribute names that the module loads, each outside
    the top-level definition of that name."""
    loaded = set()
    for stmt in tree.body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            else:
                continue
            if name != own:
                loaded.add(name)
    return loaded


def uncalled(package: dict[str, str], scripts: Iterable[str] = ()) -> list[str]:
    """``module.name`` of each top-level function and class of the
    ``package`` sources (module name -> text) that neither they nor the
    ``scripts`` load."""
    trees = {module: ast.parse(text) for module, text in package.items()}
    loaded = set().union(
        *map(loaded_names, trees.values()), *(loaded_names(ast.parse(s)) for s in scripts)
    )
    return sorted(
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in loaded
        and not is_command(node)
    )


PACKAGE = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
SCRIPTS = [p.read_text() for p in sorted((ROOT / "bench").glob("*.py"))]


def test_every_module_function_has_a_caller():
    missing = [n for n in uncalled(PACKAGE, SCRIPTS) if n.split(".")[1] not in ALLOWED]
    assert missing == [], f"only tests call {missing}"


def test_checker_flags_an_uncalled_function():
    src = (
        "def used():\n    return 1\n\n"
        "def recursive():\n    return recursive()\n\n"
        "@command('x')\ndef handler():\n    pass\n\n"
        "class Kept:\n    pass\n\n"
        "x = used() + len([Kept])\n"
    )
    assert uncalled({"m": src}) == ["m.recursive"]
    assert uncalled({"m": src}, ["import m\nm.recursive()\n"]) == []


def test_allowlisted_names_still_lack_a_caller():
    assert sorted(n.split(".")[1] for n in uncalled(PACKAGE, SCRIPTS)) == sorted(ALLOWED)


def test_copies_of_replaced_code_are_allowlisted():
    copies = {
        f"{path.stem}.{node.name}"
        for path in sorted((ROOT / "tests").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and re.match("_?old_|eager_", node.name)
    }
    assert sorted(copies) == sorted(COPIES)
