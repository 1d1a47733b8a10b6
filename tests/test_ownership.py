"""Each object is built by the module that owns it: only `polytope.py`
writes a polytope's frame, facets, facet masks or point table, places points
against its hull and facets or decides which points are vertices, only
`triangulation.py` words the refusal of a cell's index or of a repeated
cell, and the command line reaches the library through its public names
alone."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "spinaltri"
POLYTOPE_FIELDS = {"_frame", "_masks", "_facets", "_point_table"}


def _writes(tree: ast.Module):
    """Each attribute the module stores to, by assignment of any form or by
    setattr with a literal name, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            yield node.attr, node.lineno
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "setattr"
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
        ):
            yield node.args[1].value, node.lineno


def _imports(tree: ast.Module):
    """Each name the module imports, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name, node.lineno


def _raised(tree: ast.Module):
    """The name of each exception the module raises, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id, node.lineno
            elif isinstance(exc, ast.Attribute):
                yield exc.attr, node.lineno


def test_polytope_fields_are_written_in_polytope_and_the_cli_imports_no_private_name():
    bad = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        if path.name != "polytope.py":
            bad += [
                f"{path.name}:{line} writes {attr}"
                for attr, line in _writes(tree)
                if attr in POLYTOPE_FIELDS
            ]
        if path.name == "cli.py":
            bad += [
                f"{path.name}:{line} imports {name}"
                for name, line in _imports(tree)
                if any(part.startswith("_") for part in name.split("."))
            ]
    assert not bad, "\n".join(bad)


def test_only_polytope_applies_the_vertex_rule():
    # A point that is not a vertex is named by the one rule in polytope.py.
    bad = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "polytope.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            bad += [
                f"{path.name}:{line} raises {name}"
                for name, line in _raised(tree)
                if name == "NotInConvexPosition"
            ]
    assert not bad, "\n".join(bad)


def test_only_polytope_places_points():
    # Hull coordinates and facet bitmasks of given points come from the one
    # routine polytope.point_table.
    bad = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "polytope.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            bad += [
                f"{path.name}:{line} imports {name}"
                for name, line in _imports(tree)
                if name in {"hull_ints", "facet_masks"}
            ]
    assert not bad, "\n".join(bad)


def test_only_triangulation_words_the_cell_refusals():
    # A star file's out-of-range index and repeated cell are refused once,
    # by the cell map of fold and lift: no other module builds a string with
    # that wording, docstrings included.
    bad = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "triangulation.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            bad += [
                f"{path.name}:{node.lineno} builds {node.value!r}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and ("is given twice" in node.value or "is outside 0.." in node.value)
            ]
    assert not bad, "\n".join(bad)
