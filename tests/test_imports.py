"""The package's import graph: acyclic, with the shared modules at its foot."""

import ast
import graphlib
import os
import subprocess
import sys
import textwrap
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


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; a name on a line marked
    `noqa: F401` is bound on purpose and exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                if "noqa: F401" not in lines[a.lineno - 1]:
                    bound[a.asname or a.name.split(".")[0]] = a.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in read)


def test_no_module_imports_a_name_it_does_not_use():
    unused = {p.stem: _unused_imports(p.read_text())
              for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    assert {k: v for k, v in unused.items() if v} == {}


def test_the_unused_import_check_sees_a_leftover():
    source = ("from . import _pool\n"
              "from .kernels import (FourierTable, TestKernel,\n"
              "                      fourier)\n"
              "from ._pool import guard  # noqa: F401\n"
              "def s(f: TestKernel):\n"
              "    return fourier(f, 1.0)\n")
    assert _unused_imports(source) == ["FourierTable (line 2)",
                                       "_pool (line 1)"]


def _fsum_uses(source: str) -> list[int]:
    """Lines that name fsum: a call, an attribute or an import."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if (isinstance(node, ast.Attribute) and node.attr == "fsum")
                   or (isinstance(node, ast.Name) and node.id == "fsum")
                   or (isinstance(node, ast.alias) and node.name == "fsum")})


def test_no_module_sums_with_math_fsum():
    # math.fsum holds the interpreter lock for a whole row; the library's
    # exact sums are _precision.exact_row_sums, and fsum stays in tests/
    uses = {p.stem: _fsum_uses(p.read_text()) for p in PACKAGE.glob("*.py")}
    assert {k: v for k, v in uses.items() if v} == {}
    assert _fsum_uses("import math\nfrom math import fsum\n"
                      "x = math.fsum([1.0])\n") == [2, 3]


# six experiments at small sizes, then bs-check: only the last may load
# scipy.fft, which takes two thirds of the package's start-up
_FRESH_RUNS = textwrap.dedent("""
    import sys
    import paircorr
    from paircorr import cli
    runs = [("gaps", {"N_list": [4096]}), ("paircorr", {"N_list": [4096]}),
            ("bprocess", {"N_list": [100]}),
            ("moments", {"N_list": [512], "samples": 100}),
            ("roff-variance", {"N_list": [64, 128], "samples": 100}),
            ("dio", {})]
    for experiment, fields in runs + [("bs-check", {})]:
        cli.run(cli.ExperimentConfig(experiment=experiment,
                                     output_dir=sys.argv[1] + experiment,
                                     **fields))
        assert ("scipy.fft" in sys.modules) == (experiment == "bs-check"), \
            experiment
    """)


def test_only_the_transforms_load_scipy_fft(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", _FRESH_RUNS, f"{tmp_path}/"],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
