"""Each object is built by the module that owns it: only `polytope.py`
writes a polytope's frame, double description, facets, facet masks or point
table, places points against its hull and facets or decides which points
are vertices, only `triangulation.py` words the refusal of a cell's index
or of a repeated cell, and the command line reaches the library through its
public names alone.  One function runs the double description, and only
the `facets` verb and the masks of a polytope that has not run it yet call
`facets()`, which lifts the normals.  The modules import each other without
a cycle, and no function imports a module of the package when it runs but
`cli.cmd_selftest`, which loads `selfcheck` only for that verb."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "spinaltri"
POLYTOPE_FIELDS = {"_frame", "_planes", "_masks", "_facets", "_point_table"}


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


def _calls(tree: ast.Module):
    """(enclosing function as Class.name or name, called name) for each
    call of a plain name or an attribute."""
    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            fn = node.name if fn is None else f"{fn}.{node.name}"
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            yield fn, name
        for child in ast.iter_child_nodes(node):
            yield from visit(child, fn)

    return visit(tree, None)


def test_one_double_description_and_facets_only_where_read():
    # Every polytope keeps the one double description that _hyperplanes
    # runs; facets() lifts its normals for the facets verb, and for the
    # masks of a public make_polytope polytope that has run none yet.
    dd, facets = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for fn, name in _calls(tree):
            if name == "_supporting_hyperplanes":
                dd.append(f"{path.stem}.{fn}")
            elif name == "facets":
                facets.append(f"{path.stem}.{fn}")
    assert dd == ["polytope._hyperplanes"]
    assert sorted(facets) == ["cli.cmd_facets", "polytope.Polytope.incidence_masks"]


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


def _module_imports(tree: ast.Module):
    """(enclosing function or None, the package module imported) for each
    relative import outside `if TYPE_CHECKING:` blocks.  `from . import
    io` names the module io; `from .x import y` the module x."""
    def visit(node, fn):
        if isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING"):
            yield from (i for child in node.orelse for i in visit(child, fn))
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name if fn is None else f"{fn}.{node.name}"
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for name in [node.module] if node.module else [a.name for a in node.names]:
                yield fn, name
        for child in ast.iter_child_nodes(node):
            yield from visit(child, fn)

    return visit(tree, None)


def _import_graph():
    graph, lazy = {}, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        graph[path.stem] = set()
        for fn, name in _module_imports(tree):
            graph[path.stem].add(name)
            if fn is not None:
                lazy.append(f"{path.name}: {fn} imports {name}")
    return graph, lazy


def test_the_import_graph_of_src_is_acyclic():
    graph, _ = _import_graph()
    assert all(name in graph for targets in graph.values() for name in targets)
    done: set[str] = set()

    def walk(module: str, path: list[str]) -> None:
        if module in path:
            cycle = path[path.index(module) :] + [module]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if module not in done:
            for name in sorted(graph[module]):
                walk(name, path + [module])
            done.add(module)

    for module in graph:
        walk(module, [])


def test_no_function_imports_the_package_but_the_selftest_verb():
    _, lazy = _import_graph()
    assert lazy == ["cli.py: cmd_selftest imports selfcheck"]
