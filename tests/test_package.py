"""The package's public namespace and module structure."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import primesim


def test_importing_the_cli_leaves_numpy_random_unimported():
    # numpy.random costs ~14 ms and ~5.6 MB to import; the random streams make
    # it at first use, so command-line start-up does not pay for it
    code = "import sys, primesim.cli; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(primesim.__file__).parent.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def imported(node, module_level=False):
    """Top-level package of each absolute import under node, and the sibling
    module of each relative one; with module_level, none made inside a function
    body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            yield from (alias.name.split(".")[0] for alias in child.names)
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            yield child.module.split(".")[0]
        elif isinstance(child, ast.ImportFrom):  # from .x import a, or from . import a, b
            yield from ([child.module] if child.module else (a.name for a in child.names))
        elif not (module_level and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))):
            yield from imported(child, module_level)


def importers(package: str, module_level=False) -> set[str]:
    src = Path(primesim.__file__).parent
    return {path.stem for path in src.glob("*.py")
            if package in set(imported(ast.parse(path.read_text()), module_level))}


def test_only_tradeio_imports_csv():
    # every input CSV is read row by row in one place, tradeio's row reader
    assert importers("csv") == {"tradeio"}


def test_only_config_imports_yaml_and_only_when_a_config_is_read_or_written():
    assert importers("yaml") == {"config"}
    assert importers("yaml", module_level=True) == set()


SIMULATOR = ("book", "kernel", "rng", "agents", "oracle", "runner")
MEASUREMENT = ("config", "errors", "tradeio", "impact", "analysis", "darp", "calibrate")


def test_measurement_modules_import_no_simulator_module():
    # the two halves meet in tradeio's schemas, column logs and run-directory layout
    assert {m: importers(m) & set(MEASUREMENT) for m in SIMULATOR} == \
        {m: set() for m in SIMULATOR}


def test_cli_imports_the_runner_only_inside_the_commands_that_run_sessions():
    assert importers("runner") == {"cli"}
    assert importers("runner", module_level=True) == set()


GUARDED = ("yaml", "numpy.ma", "numpy.random", "click")


def loaded_after(code: str, guarded=GUARDED) -> set[str]:
    """Which of guarded a fresh interpreter has imported once it has run code,
    read off the last line it prints."""
    code += f"\nimport sys; print(' '.join(m for m in {tuple(guarded)!r} if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(primesim.__file__).parent.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    return set(out.stdout.splitlines()[-1].split())


def test_importing_the_cli_leaves_yaml_unimported():
    # PyYAML costs ~1 MB resident; only commands that read or write a config load it
    assert "yaml" not in loaded_after("import primesim.cli")


@pytest.fixture(scope="module")
def dump(tmp_path_factory):
    """A small trade/L1 pair: 600 one-second windows whose mid follows their net volume."""
    rng = np.random.default_rng(5)
    root = tmp_path_factory.mktemp("dump")
    ns, windows, n = 10**9, 600, 6000
    ts = np.sort(rng.integers(0, windows * ns, size=n))
    sign = np.repeat(rng.choice([-1, 1], size=n // 4), 4)
    qty = rng.integers(1, 4, size=n)
    net = np.bincount(ts // ns, weights=sign * qty, minlength=windows)
    move = np.rint(np.sign(net) * np.abs(net) ** 0.5 + rng.normal(0, 1, size=windows))
    mid = 1_000 + np.concatenate([[0], np.cumsum(move)]).astype(np.int64)
    q_ts = np.arange(windows + 1) * ns
    touch = np.searchsorted(q_ts, ts, side="right") - 1
    price = np.where(sign > 0, mid[touch] + 1, mid[touch] - 1)
    trades, l1 = root / "trades.csv", root / "l1.csv"
    trades.write_text("ts,price,qty,aggressor\n" + "".join(
        f"{t},{p},{q},{'B' if s > 0 else 'S'}\n" for t, p, q, s in zip(ts, price, qty, sign)))
    l1.write_text("ts,best_bid,best_ask\n" + "".join(
        f"{t},{m - 1},{m + 1}\n" for t, m in zip(q_ts, mid)))
    return trades, l1


ANALYSES = [
    ["analyze", "impact", "--window", "1s", "--min-periods", "30"],
    ["analyze", "decay", "--window", "1s", "--min-periods", "30", "--max-lag", "5"],
    ["analyze", "acf", "--max-lag", "10"],
]
TUNING = ["tune-dar", "--target-alpha", "0.6", "--target-c", "0.2", "--budget", "3"]
SIMULATE = ["simulate", "santa-fe", "--session", "10s"]


@pytest.mark.parametrize("argv", ANALYSES)
def test_analysis_loads_no_yaml_masked_arrays_or_random_streams(dump, tmp_path, argv):
    argv = [*argv, *map(str, dump), "--out", str(tmp_path)]
    assert loaded_after(f"from primesim.cli import cli\nassert cli({argv!r}) == 0") == set()


def test_tuning_loads_no_yaml_or_masked_arrays():
    assert loaded_after(f"from primesim.cli import cli\nassert cli({TUNING!r}) == 0") <= \
        {"numpy.random"}


def test_simulating_loads_no_masked_arrays_or_click(tmp_path):
    # a simulation reads its preset (PyYAML) and draws from numpy.random; nothing else guarded
    argv = [*SIMULATE, "--out", str(tmp_path / "run")]
    assert loaded_after(f"from primesim.cli import cli\nassert cli({argv!r}) == 0") == \
        {"yaml", "numpy.random"}


SIMULATOR_MODULES = {f"primesim.{m}" for m in SIMULATOR}


def test_analysis_and_tuning_load_no_simulator_module(dump, tmp_path):
    assert loaded_after("import primesim.cli", SIMULATOR_MODULES) == set()
    runs = [[*argv, *map(str, dump), "--out", str(tmp_path / argv[1])] for argv in ANALYSES]
    code = "from primesim.cli import cli\n" + "".join(
        f"assert cli({argv!r}) == 0\n" for argv in [*runs, TUNING])
    assert loaded_after(code, SIMULATOR_MODULES) == set()


def test_simulating_loads_every_simulator_module(tmp_path):
    argv = [*SIMULATE, "--out", str(tmp_path / "run")]
    code = f"from primesim.cli import cli\nassert cli({argv!r}) == 0"
    assert loaded_after(code, SIMULATOR_MODULES) == SIMULATOR_MODULES


# Definitions no package code names, each with why it is kept.
UNREFERENCED = {"cli._Parser.error": "argparse calls it on a bad command line"}


def definitions(node, prefix: str):
    """(name, dotted module path) of each function, method and class under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield child.name, f"{prefix}.{child.name}"
            yield from definitions(child, f"{prefix}.{child.name}")
        else:
            yield from definitions(child, prefix)


def test_every_definition_is_used_by_the_package():
    # code that only tests call belongs in tests/: a name counts as used where the
    # package reads it as a name, an attribute or an import; dunders are Python's
    trees = {path.stem: ast.parse(path.read_text())
             for path in Path(primesim.__file__).parent.glob("*.py")}
    used = set()
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    unused = {path for module, tree in trees.items() for name, path in definitions(tree, module)
              if name not in used and not name.startswith("__")}
    assert unused == set(UNREFERENCED)
