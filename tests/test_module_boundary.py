"""The library's module boundary: the multivariate Series and the
HbarSeries object live in the tests, the relations build no variable
names and put table entries into slot orders in one place, no module
lists all set partitions or reads the environment, and what the
benchmark worker imports loads every module the benchmark's tracer wraps
and none of the modules that dataclasses pulls in."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _library_nodes():
    for path in sorted((ROOT / "src" / "freehop").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path, node


def test_library_has_no_multivariate_series():
    # nor the HbarSeries object: both are references kept in the tests
    for path, node in _library_nodes():
        assert not (isinstance(node, ast.ClassDef) and node.name in ("Series", "HbarSeries")), path
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
            assert not any(n in ("Series", "HbarSeries") or "_reference" in n for n in names), path


def test_library_builds_no_relation_variable_names():
    # the hyperedge weights are keyed by exponent positions, not by names
    # such as "w3" and "u1", and the Evaluator lists no such names
    for path, node in _library_nodes():
        assert not (isinstance(node, ast.Constant) and node.value in ("w%d", "u%d")), path
        assert not (isinstance(node, ast.Attribute) and node.attr in ("wvars", "uvars")), path
        assert not (isinstance(node, ast.FunctionDef) and node.name in ("wvars", "uvars")), path


def test_library_orders_slots_in_one_place():
    # every table entry is put into its slot orders by Evaluator._slot_entries
    calls = [path.name for path, node in _library_nodes() if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_distinct_permutations"]
    assert calls == ["operators.py"]


def test_library_lists_no_set_partitions():
    # the factorization walks count the connected groupings by first-block
    # recursions; the Bell enumerations live in the tests
    listers = ("set_partitions_of", "_partitions_into_blocks")
    for path, node in _library_nodes():
        assert not (isinstance(node, ast.FunctionDef) and node.name in listers), path
        assert not (isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) in listers), path


def test_library_reads_no_environment():
    # a library call depends on its arguments and input files only
    readers = ("environ", "environb", "getenv", "getenvb")
    for path, node in _library_nodes():
        assert not (isinstance(node, ast.Attribute) and node.attr in readers), path
        assert not (isinstance(node, ast.Name) and node.id in readers), path
        if isinstance(node, ast.ImportFrom):
            assert not any(a.name in readers for a in node.names), path


def _loaded_by_worker_imports() -> set[str]:
    code = "import sys, freehop.cli, freehop.oracles, freehop.transforms; print(*sys.modules)"
    return set(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                              env=dict(os.environ, PYTHONPATH=str(ROOT / "src"))).stdout.split())


def test_worker_imports_load_every_traced_module():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    loaded = _loaded_by_worker_imports()
    assert len(tracing.MODULES) == 11 and {"freehop." + m for m in tracing.MODULES} <= loaded


def test_worker_imports_load_no_dataclasses():
    # each costs a fresh process import time, and no freehop code uses them
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize"} & _loaded_by_worker_imports()
