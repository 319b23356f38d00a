"""The benchmark's workloads, and the child process that runs one of them.

``run.py`` starts this file once per set-up sample and once for the measured
run, each in a fresh interpreter, so imports are timed cold and every run
starts from the same state. Each workload calls ``primesim.cli.cli(argv)``,
the command a user would type, in-process, checks every output, and repeats
until its time is used up.

The set-up clock starts before numpy and primesim are imported, so
``setup_s`` covers imports, the preset load and input generation.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

_T0 = time.perf_counter()

import numpy as np  # noqa: E402

from primesim.calibrate import GAMMA_BOX, P_BOX  # noqa: E402
from primesim.cli import cli  # noqa: E402
from primesim.config import load_preset  # noqa: E402

import gen_dump  # noqa: E402
import spans  # noqa: E402

REFERENCE_PATH = Path(__file__).with_name("reference.json")

MIN_ITERATIONS = 3          # untraced iterations per run, whatever --seconds says
CRITERION7_ALPHA_GAP = 0.15  # acceptance criterion 7: achieved vs target ACF exponent
ANALYSIS_RTOL = 1e-6         # analysis values vs their reference; the outputs print 12 digits


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def close(a: float, b: float, rtol: float) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=rtol * 1e-3)


# ----------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Simulate:
    """``primesim simulate <preset> --seed S --session <session>``."""

    name: str
    preset: str
    session: str
    unit: ClassVar[str] = "events"
    files: ClassVar[tuple[str, ...]] = ("trades.csv", "l1.csv", "summary.txt")

    def prepare(self, seed: int, work: Path) -> dict:
        load_preset(self.preset)
        return {}

    # `simulate` refuses an existing --out, so the run directory sits inside `out`
    def commands(self, prepared: dict, seed: int, out: Path) -> list[list[str]]:
        return [["simulate", self.preset, "--seed", str(seed), "--session", self.session,
                 "--out", str(out / "run")]]

    def items(self, prepared: dict, out: Path) -> int:
        return int(read_summary(out / "run" / "summary.txt")["events_dispatched"])

    def check(self, prepared: dict, out: Path) -> list[str]:
        failures = []
        with (out / "run" / "l1.csv").open(newline="") as fh:
            rows = csv.reader(fh)
            next(rows)
            for lineno, (ts, bid, ask) in enumerate(rows, start=2):
                if bid and ask and int(bid) >= int(ask):
                    failures.append(f"l1.csv:{lineno}: crossed or locked book {bid} >= {ask}")
                    break
        if self.items(prepared, out) < 1:
            failures.append("summary.txt: no events dispatched")
        return failures

    def fingerprint(self, out: Path) -> dict:
        return {f: sha256(out / "run" / f) for f in self.files}

    def record(self, out: Path) -> dict:
        return {"sha256": self.fingerprint(out)}

    def compare(self, ref: dict, out: Path) -> list[str]:
        got = self.fingerprint(out)
        return [f"{f}: sha256 {got[f][:12]}... != pinned {want[:12]}..."
                for f, want in ref["sha256"].items() if got[f] != want]


def read_summary(path: Path) -> dict[str, str]:
    return dict(line.split("=", 1) for line in path.read_text().splitlines() if line)


@dataclass(frozen=True)
class DumpAnalysis:
    """``analyze impact``, ``decay`` and ``acf`` over a generated exchange dump."""

    name: str
    session_s: int = gen_dump.SESSION_S
    unit: ClassVar[str] = "trades"
    files: ClassVar[tuple[str, ...]] = ("delta_fit.csv", "kernel.csv", "acf_powerlaw.csv")

    def prepare(self, seed: int, work: Path) -> dict:
        d = work / f"input-{seed}"
        d.mkdir(parents=True, exist_ok=True)
        trades, l1 = d / "trades.csv", d / "l1.csv"
        n = gen_dump.write_dump(seed, trades, l1, session_s=self.session_s)
        return {"trades": str(trades), "l1": str(l1), "n_trades": n}

    def commands(self, prepared: dict, seed: int, out: Path) -> list[list[str]]:
        inputs = [prepared["trades"], prepared["l1"]]
        w = ["--window", "1s", "--out", str(out)]
        return [["analyze", "impact", *inputs, *w],
                ["analyze", "decay", *inputs, *w],
                ["analyze", "acf", *inputs, "--out", str(out)]]

    def items(self, prepared: dict, out: Path) -> int:
        return prepared["n_trades"]

    def check(self, prepared: dict, out: Path) -> list[str]:
        failures = []
        missing = [f for f in self.files if not (out / f).exists()]
        if missing:
            return [f"missing outputs {missing}"]
        fit = read_rows(out / "delta_fit.csv")[0]
        # the generator's impact is concave, so the fitted exponent must be < 1
        if not 0.1 < float(fit["delta"]) < 1.0 or int(fit["n_samples"]) < 100:
            failures.append(f"delta_fit.csv: implausible fit {fit}")
        kernel = read_rows(out / "kernel.csv")
        if len(kernel) != 101 or not all(math.isfinite(float(r["beta"])) for r in kernel):
            failures.append(f"kernel.csv: {len(kernel)} lags or non-finite beta")
        law = read_rows(out / "acf_powerlaw.csv")[0]
        if not float(law["alpha"]) > 0:
            failures.append(f"acf_powerlaw.csv: sign ACF does not decay {law}")
        return failures

    def fingerprint(self, out: Path) -> dict:
        return {p.name: sha256(p) for p in sorted(out.glob("*.csv"))}

    def record(self, out: Path) -> dict:
        return {"rtol": ANALYSIS_RTOL,
                "values": {f: [[float(v) for v in row.values()] for row in read_rows(out / f)]
                           for f in self.files}}

    def compare(self, ref: dict, out: Path) -> list[str]:
        failures = []
        got = self.record(out)["values"]
        for f, want in ref["values"].items():
            flat_got = [v for row in got[f] for v in row]
            flat_want = [v for row in want for v in row]
            if len(flat_got) != len(flat_want):
                failures.append(f"{f}: {len(flat_got)} values, reference has {len(flat_want)}")
                continue
            bad = [i for i, (a, b) in enumerate(zip(flat_got, flat_want))
                   if not close(a, b, ref["rtol"])]
            if bad:
                i = bad[0]
                failures.append(f"{f}: {len(bad)} values outside rtol {ref['rtol']}, "
                                f"first {flat_got[i]!r} vs reference {flat_want[i]!r}")
        return failures


@dataclass(frozen=True)
class TuneDar:
    """``primesim tune-dar --budget B --seed S`` against the recorded target power law."""

    name: str
    budget: int = 200
    unit: ClassVar[str] = "candidates"

    def prepare(self, seed: int, work: Path) -> dict:
        target = json.loads(REFERENCE_PATH.read_text())[self.name]["target"]
        return {"alpha": target["alpha"], "c": target["c"]}

    def commands(self, prepared: dict, seed: int, out: Path) -> list[list[str]]:
        return [["tune-dar", "--target-alpha", repr(prepared["alpha"]),
                 "--target-c", repr(prepared["c"]), "--budget", str(self.budget),
                 "--seed", str(seed), "--out", str(out / "tune.csv")]]

    def items(self, prepared: dict, out: Path) -> int:
        return self.budget

    def check(self, prepared: dict, out: Path) -> list[str]:
        row = {k: float(v) for k, v in read_rows(out / "tune.csv")[0].items()}
        failures = []
        if not (P_BOX[0] <= row["p"] <= P_BOX[1] and GAMMA_BOX[0] <= row["gamma"] <= GAMMA_BOX[1]):
            failures.append(f"tune.csv: (p, gamma) outside the search box {row}")
        if not abs(row["alpha"] - prepared["alpha"]) < CRITERION7_ALPHA_GAP:
            failures.append(f"tune.csv: achieved alpha {row['alpha']} is not within "
                            f"{CRITERION7_ALPHA_GAP} of target {prepared['alpha']}")
        return failures

    def fingerprint(self, out: Path) -> dict:
        return {"tune.csv": sha256(out / "tune.csv")}

    def record(self, out: Path) -> dict:
        row = read_rows(out / "tune.csv")[0]
        return {"p": float(row["p"]), "gamma": float(row["gamma"])}

    def compare(self, ref: dict, out: Path) -> list[str]:
        got = self.record(out)
        return [f"tune.csv: {k}={got[k]!r}, recorded {ref[k]!r}"
                for k in ("p", "gamma") if not close(got[k], ref[k], 1e-9)]


# Why each workload is in the benchmark is recorded in README.md.
WORKLOADS = {w.name: w for w in (
    Simulate("prime", preset="prime", session="10m"),
    Simulate("santa-fe", preset="santa-fe", session="20m"),
    DumpAnalysis("dump-analysis"),
    TuneDar("tune-dar"),
)}


# ------------------------------------------------------------------ the runs


@dataclass
class Iteration:
    run_s: float
    items: int
    failures: list[str]


class Runner:
    """Runs one workload's commands repeatedly and checks each iteration."""

    def __init__(self, workload, reference: dict, work: Path):
        self.w = workload
        self.reference = reference
        self.work = work
        self._count = 0
        self._first: dict[int, dict] = {}   # seed -> fingerprint of its first iteration

    def iteration(self, prepared: dict, seed: int, tracer: spans.Tracer | None = None,
                  end_state: Counter | None = None) -> Iteration:
        self._count += 1
        out = self.work / f"out-{self._count}"
        out.mkdir(parents=True)
        failures: list[str] = []
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            for argv in self.w.commands(prepared, seed, out):
                rc = cli(argv)
                if rc != 0:
                    failures.append(f"`primesim {' '.join(argv[:2])}` exited {rc}")
                    break
        except Exception as exc:  # a crash is a failed operation, not a harness error
            traceback.print_exc()
            failures.append(f"crashed: {exc!r}")
        finally:
            run_s = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        items = 0
        if not failures:
            failures, items = self._check(prepared, seed, out)
        if tracer is not None:
            failures += read_end_state(tracer, end_state)
        shutil.rmtree(out, ignore_errors=True)
        return Iteration(run_s=run_s, items=items, failures=failures)

    def _check(self, prepared: dict, seed: int, out: Path) -> tuple[list[str], int]:
        """Failed checks and the iteration's work items (0 when any check failed)."""
        try:
            failures = self.w.check(prepared, out)
            fingerprint = self.w.fingerprint(out)
            first = self._first.setdefault(seed, fingerprint)
            if fingerprint != first:
                failures.append("outputs differ from the first iteration with the same seed")
            if seed == self.reference["seed"]:
                failures += self.w.compare(self.reference, out)
            items = 0 if failures else self.w.items(prepared, out)
        except (OSError, KeyError, IndexError, ValueError) as exc:
            return [f"unreadable output: {exc!r}"], 0
        return failures, items


def record_reference(workload, seed: int, work: Path) -> dict:
    """Run `workload` once at `seed` and return the reference entry its outputs pin."""
    prepared = workload.prepare(seed, work)
    out = work / f"reference-{workload.name}-{seed}"
    out.mkdir(parents=True)
    for argv in workload.commands(prepared, seed, out):
        if cli(argv) != 0:
            raise RuntimeError(f"{workload.name}: `primesim {' '.join(argv)}` failed")
    failures = workload.check(prepared, out)
    if failures:
        raise RuntimeError(f"{workload.name}: outputs fail their checks: {failures}")
    entry = {"seed": seed} | workload.record(out)
    shutil.rmtree(out)
    return entry


def read_end_state(tracer: spans.Tracer, end_state: Counter) -> list[str]:
    """Book state after a traced simulation; checks conservation and no cross."""
    sim, tracer.last_sim = tracer.last_sim, None
    if sim is None:
        return []
    book = sim.book
    dump = book.dump()
    end_state["quote_rows"] += len(sim.quotes)
    end_state["trades"] += len(sim.trades)
    end_state["levels"] += len(dump["bids"]) + len(dump["asks"])
    end_state["resting_orders"] += len(book)
    end_state["submitted_qty"] += book.submitted_qty
    end_state["discarded_qty"] += book.discarded_qty
    failures = []
    accounted = 2 * book.traded_qty + book.cancelled_qty + book.discarded_qty + book.resting_qty()
    if book.submitted_qty != accounted:
        failures.append(f"quantity not conserved: submitted {book.submitted_qty} != "
                        f"2*traded + cancelled + discarded + resting = {accounted}")
    if book.crossed:
        failures.append("book crossed at session end")
    return failures


def measure(runner: Runner, prepared: dict, seed: int, seconds: float, minimum: int,
            tracer: spans.Tracer | None = None, end_state: Counter | None = None,
            ) -> list[Iteration]:
    """Iterations until the next one would overrun `seconds`, and at least `minimum`."""
    done: list[Iteration] = []
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        done.append(runner.iteration(prepared, seed, tracer, end_state))
        walls.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if len(done) >= minimum and elapsed + statistics.median(walls) > seconds:
            return done


def run(workload, reference: dict, seed: int, seconds: float, traced: bool, work: Path,
        prepared: dict) -> dict:
    """Timed iterations, a traced pass when asked, and the reference-seed check."""
    runner = Runner(workload, reference, work)
    if traced:
        plain = measure(runner, prepared, seed, seconds / 2, 1)
        tracer = spans.Tracer()
        end_state: Counter = Counter()
        traced_its = measure(runner, prepared, seed, seconds / 2, 1, tracer, end_state)
    else:
        plain = measure(runner, prepared, seed, seconds, MIN_ITERATIONS)
        traced_its = []
    checked = plain + traced_its
    if seed != reference["seed"]:
        # every run also proves the pinned references, untimed
        ref_prepared = workload.prepare(reference["seed"], work)
        checked.append(runner.iteration(ref_prepared, reference["seed"]))

    failures = [f for it in checked for f in it.failures]
    run_s = statistics.median(it.run_s for it in plain)
    result = {
        "workload": workload.name,
        "seed": seed,
        "attempted": len(checked),
        "failed": sum(1 for it in checked if it.failures),
        "failures": failures,
        "run_s": run_s,
        "run_s_all": [it.run_s for it in plain],
        "throughput_per_s": statistics.median(it.items / it.run_s for it in plain),
        "items": plain[0].items,
        "item_unit": workload.unit,
    }
    if traced:
        traced_s = statistics.median(it.run_s for it in traced_its)
        layers = spans.layer_metrics(tracer, len(traced_its), end_state)
        layers["trace.overhead_ratio"] = (traced_s / run_s, "ratio")
        result["per_layer"] = layers
        result["traced_run_s_all"] = [it.run_s for it in traced_its]
        result["spans"] = tracer.dump()
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory inside the checkout")
    parser.add_argument("--result", required=True, help="where to write the result JSON")
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up alone, then exit")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    work = Path(args.work)
    prepared = workload.prepare(args.seed, work)
    setup_s = time.perf_counter() - _T0
    result: dict = {"setup_s": setup_s}
    if not args.setup_only:
        reference = json.loads(REFERENCE_PATH.read_text())[workload.name]
        result.update(run(workload, reference, args.seed, args.seconds, bool(args.trace),
                          work, prepared))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["python"] = sys.version.split()[0]
        result["numpy"] = np.__version__
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
