"""The package's import graph: acyclic, with the shared modules at its foot."""

import ast
import graphlib
from pathlib import Path

import paircorr

PACKAGE = Path(paircorr.__file__).parent


def _imports() -> dict[str, set[str]]:
    """Module -> the package modules it imports, read from the source."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    graph = {}
    for name in modules:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        deps = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                absolute = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                absolute = [node.module]
            elif isinstance(node, ast.ImportFrom) and node.module:
                deps.add(node.module)
                continue
            elif isinstance(node, ast.ImportFrom):
                # from . import x: a module, or a name of __init__
                deps.update(a.name if a.name in modules else "__init__"
                            for a in node.names)
                continue
            else:
                continue
            # the package imports itself by relative imports only
            assert not any(m.split(".")[0] == "paircorr" for m in absolute)
        graph[name] = deps
    return graph


def test_import_graph_is_acyclic_with_shared_modules_at_its_foot():
    graph = _imports()
    assert {"_pool", "_precision", "stats", "expsums"} <= graph.keys()
    # raises CycleError on a cycle
    tuple(graphlib.TopologicalSorter(graph).static_order())
    assert graph["_precision"] == set() and graph["_pool"] == set()
    assert not graph["stats"] & {"expsums", "diophantine"}
