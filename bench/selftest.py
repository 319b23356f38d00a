"""Self-tests of the benchmark itself; about half a minute.

    python3 bench/selftest.py

* Every workload runs once at tiny size, traced, against a reference
  recorded from the same code, and must pass every check.
* A planted wrong reference (a digest, an analysis value, a tuner result)
  must be reported as a failed operation: not a crash and not a pass. It is
  planted both for the measured seed and for the reference-seed check that
  runs after every measurement.
* run.py, in a directory holding only BENCHMARK.json and bench/, must exit
  non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import copy
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # as run.py does for its children; set before numpy loads

import workloads  # noqa: E402
from workloads import DumpAnalysis, Simulate, TuneDar  # noqa: E402

TINY = (
    Simulate("prime", preset="prime", session="30s"),
    Simulate("santa-fe", preset="santa-fe", session="30s"),
    DumpAnalysis("dump-analysis", session_s=1_200),
    TuneDar("tune-dar", budget=50),
)


def plant(reference: dict) -> dict:
    """The same reference with one recorded value made wrong."""
    bad = copy.deepcopy(reference)
    if "sha256" in bad:
        bad["sha256"]["trades.csv"] = "0" * 64
    elif "values" in bad:
        bad["values"]["delta_fit.csv"][0][0] *= 1.01
    else:
        bad["p"] += 0.01
    return bad


def run_quietly(workload, reference: dict, seed: int, work: Path) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        prepared = workload.prepare(seed, work)
        return workloads.run(workload, reference, seed, 0.1, True, work, prepared)


def check(name: str, ok: bool, detail: str, failures: list[str]) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    if not ok:
        failures.append(name)


def main() -> int:
    failures: list[str] = []
    work = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for w in TINY:
            with contextlib.redirect_stdout(io.StringIO()):
                reference = workloads.record_reference(w, 1, work)
            good = run_quietly(w, reference, 1, work)
            layers = good["per_layer"]
            check(f"{w.name} tiny run", good["failed"] == 0 and "trace.overhead_ratio" in layers,
                  f"{good['attempted']} operations, {good['failed']} failed, "
                  f"{len(layers)} layer metrics", failures)
            # at the reference seed every iteration is compared; at another
            # seed only the reference check that follows the measurement
            for seed, expected in ((1, "all"), (2, 1)):
                bad = run_quietly(w, plant(reference), seed, work)
                want = bad["attempted"] if expected == "all" else expected
                check(f"{w.name} planted reference, seed {seed}", bad["failed"] == want,
                      f"{bad['failed']} of {bad['attempted']} operations failed: "
                      f"{bad['failures'][:1]}", failures)

        bare = work / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "prime"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        check("run without sources", proc.returncode != 0 and '"correct"' not in proc.stdout,
              f"exit {proc.returncode}, stderr {proc.stderr.strip()!r}", failures)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print("selftest:", "all passed" if not failures else f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
