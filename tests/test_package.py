"""The package's public namespace and module structure."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import primesim


def test_every_exported_name_resolves():
    assert [name for name in primesim.__all__ if not hasattr(primesim, name)] == []
    assert len(set(primesim.__all__)) == len(primesim.__all__)


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from primesim import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(primesim.__all__)
    assert {"Trade", "L1Snapshot"}.isdisjoint(namespace)


def test_importing_the_cli_leaves_numpy_random_unimported():
    # numpy.random costs ~14 ms and ~5.6 MB to import; the random streams make
    # it at first use, so command-line start-up does not pay for it
    code = "import sys, primesim.cli; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(primesim.__file__).parent.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_only_tradeio_imports_csv():
    # every input CSV is read row by row in one place, tradeio's row reader
    def imported(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                yield from (alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                yield node.module.split(".")[0]

    src = Path(primesim.__file__).parent
    importers = {path.stem for path in src.glob("*.py")
                 if "csv" in set(imported(ast.parse(path.read_text())))}
    assert importers == {"tradeio"}
