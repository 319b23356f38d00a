"""Re-record bench/reference.json from the current code.

    python3 bench/repin.py [workload ...]

Runs each named workload (all by default) once at the reference seed and
records the digests, analysis values and tuner result it produced. Use it
only in a change that deliberately alters outputs, and say so in that
change. The tune-dar target is an input, not an output: it is computed once,
from acceptance criterion 7's DAR(p=0.9, gamma=1.5) stream, and kept
thereafter.
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from primesim.darp import DarpParams, generate_signs  # noqa: E402
from primesim.impact import fit_power_law, order_sign_acf  # noqa: E402

REFERENCE_SEED = 1


def criterion7_target() -> dict:
    signs = generate_signs(DarpParams(p=0.9, gamma=1.5, n=50), 100_000,
                           np.random.default_rng(70))
    fit = fit_power_law(order_sign_acf(signs, max_lag=20))
    return {"alpha": fit.alpha, "c": fit.c,
            "source": "DAR(p=0.9, gamma=1.5, n=50), 100000 signs, default_rng(70), max_lag 20"}


def write(reference: dict) -> None:
    """One line per innermost list, so a re-pin diffs readably."""
    text = json.dumps(reference, indent=1)
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]",
                  text)
    workloads.REFERENCE_PATH.write_text(text + "\n")


def main(names: list[str]) -> int:
    path = workloads.REFERENCE_PATH
    reference = json.loads(path.read_text()) if path.exists() else {}
    for name in names or list(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        entry = {k: v for k, v in reference.get(name, {}).items() if k == "target"}
        if isinstance(workload, workloads.TuneDar) and "target" not in entry:
            reference[name] = entry = {"target": criterion7_target()}
            write(reference)  # tune-dar reads its target from the file
        with tempfile.TemporaryDirectory(dir=BENCH.parent) as tmp:
            reference[name] = entry | workloads.record_reference(workload, REFERENCE_SEED,
                                                                 Path(tmp))
        write(reference)
        print(f"re-pinned {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
