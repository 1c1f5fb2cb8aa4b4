"""The library's module boundary: the multivariate Series and the
HbarSeries object live in the tests, and what the benchmark worker imports
loads every module the benchmark's tracer wraps and none of the modules
that dataclasses pulls in."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_has_no_multivariate_series():
    # nor the HbarSeries object: both are references kept in the tests
    for path in sorted((ROOT / "src" / "freehop").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            assert not (isinstance(node, ast.ClassDef) and node.name in ("Series", "HbarSeries")), path
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
                assert not any(n in ("Series", "HbarSeries") or "_reference" in n for n in names), path


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
