"""primesim benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload prime --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. Set-up is timed in several fresh
child processes and the workload itself runs in one more, each with BLAS
pinned to one thread and ``src/`` on the import path; see README.md for the
workloads and the metrics. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones from BENCHMARK.json, with
``--trace 1`` the per-layer ones.

Scratch files go to ``.bench_work/`` (removed at exit) and a full record of
each run, with the environment and the span aggregates, to
``.bench_results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 7            # fresh processes timed for setup_s, the measured run included
RUN_LIMIT_S = 170            # the whole run, set-up included, must end within this

# Throughput is named after the workload's work item.
THROUGHPUT_NAMES = {"events": "events_per_s", "trades": "trades_per_s",
                    "candidates": "candidates_per_s"}


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def child_env(work: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(work)
    return env


def run_child(args: argparse.Namespace, work: Path, result: Path, deadline: float,
              setup_only: bool) -> dict | None:
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, env=child_env(work), cwd=ROOT, stdout=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("bench: workload process timed out and was killed", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result.exists():
        print(f"bench: workload process exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(result.read_text())


def environment() -> dict:
    env = {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
           "cpu": "unknown", "commit": "unknown", "dirty": None}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run([*git, "status", "--porcelain"],
                                capture_output=True, text=True)
        if head.returncode == 0:
            env["commit"] = head.stdout.strip()
            env["dirty"] = bool(status.stdout.strip())
    return env


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one primesim benchmark workload.")
    parser.add_argument("--workload", required=True, help="a workload named in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + RUN_LIMIT_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    if not (ROOT / "src" / "primesim" / "__init__.py").is_file():
        return fail(f"no primesim sources under {ROOT / 'src'}; run from a source checkout")

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setups = []
        for i in range(SETUP_SAMPLES - 1):
            sample = run_child(args, work, work / f"setup-{i}.json", deadline, setup_only=True)
            if sample is None:
                return 1
            setups.append(sample["setup_s"])
        result = run_child(args, work, work / "result.json", deadline, setup_only=False)
        if result is None:
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it
    setups.append(result["setup_s"])

    env = environment() | {"numpy": result["numpy"]}
    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        declared = spec["per_layer"]
        values = result["per_layer"]
    else:
        # Every end-to-end figure is printed; BENCHMARK.json bounds those steady
        # enough to gate on (README.md, "Bounds and run-to-run noise").
        declared = spec["end_to_end"]
        unit = result["item_unit"]
        values = {
            "run_s": (result["run_s"], "s"),
            THROUGHPUT_NAMES[unit]: (result["throughput_per_s"], f"{unit}/s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            "setup_s": (statistics.median(setups), "s"),
            "fail_ratio": (failed / attempted, "ratio"),
        }
    metrics = {}
    for m in declared:
        value, unit = values[m["name"]]
        if unit != m["unit"]:
            return fail(f"metric {m['name']} measured in {unit}, declared in {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}

    print(" ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"iterations={len(result['run_s_all'])} {result['item_unit']}={result['items']} "
          f"operations={attempted} failed={failed}")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")
    for name, (value, unit) in values.items():
        print(f"  {name:<30} {value:.6g} {unit}")

    results_dir = ROOT / ".bench_results"
    results_dir.mkdir(exist_ok=True)
    record = {"environment": env, "setup_s_samples": setups, "metrics": metrics,
              "fail_ratio": failed / attempted} | result
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    out.write_text(json.dumps(record, indent=1))

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
