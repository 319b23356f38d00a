"""The benchmark's traced path over every command, at a size that fits the test suite.

``bench/`` wraps the package's functions by name and reads the end state of the
last simulation off its book, so a rename or deletion in ``src/`` can break the
benchmark while every other test passes. This runs each command once under
``bench/spans.Tracer``, as a traced benchmark iteration does, and reads the
results the way ``bench/workloads.py`` does. Nothing under ``bench/`` is changed.
"""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from primesim.cli import EXIT_OK, cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import spans  # noqa: E402
import workloads  # noqa: E402

SESSIONS = {"prime": "2m", "santa-fe": "30s"}
# filled by the tracer's hooks; the others may stay 0 on a working run
COUNTED = ("events", "market_fills", "bytes_written", "rows_read", "bytes_read", "windows",
           "samples", "signs", "candidates")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """(tracer, end state, end-state failures, exit codes) of one traced pass."""
    root = tmp_path_factory.mktemp("bench")
    run = str(root / "prime")
    analyses = [
        ["analyze", "impact", run, "--window", "1s"],
        ["analyze", "decay", run, "--window", "1s", "--max-lag", "5"],
        ["analyze", "acf", run, "--max-lag", "10"],
        ["tune-dar", "--target-alpha", "0.6", "--target-c", "0.2", "--budget", "3"],
    ]
    tracer, end_state = spans.Tracer(), Counter()
    failures, codes = [], []
    tracer.install()
    try:
        for preset, session in SESSIONS.items():
            codes.append(cli(["simulate", preset, "--session", session,
                              "--out", str(root / preset)]))
            failures += workloads.read_end_state(tracer, end_state)
        for i, argv in enumerate(analyses):
            codes.append(cli([*argv, "--out", str(root / f"out-{i}")]))
    finally:
        tracer.uninstall()
    return tracer, end_state, failures, codes


def test_every_command_succeeds_under_the_tracer(traced):
    _, _, _, codes = traced
    assert codes == [EXIT_OK] * 6


def test_end_state_is_read_without_failure(traced):
    _, end_state, failures, _ = traced
    assert failures == []
    assert end_state["trades"] > 0 and end_state["levels"] > 0 and end_state["quote_rows"] > 0


def test_layer_metrics_name_every_benchmark_metric(traced):
    tracer, end_state, _, _ = traced
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    # workloads.run adds the one metric that compares a traced run with an untraced one
    assert declared - set(spans.layer_metrics(tracer, 1, end_state)) == {"trace.overhead_ratio"}


def test_hook_counters_are_filled(traced):
    tracer, _, _, _ = traced
    assert {name: tracer.counters[name] > 0 for name in COUNTED} == dict.fromkeys(COUNTED, True)
