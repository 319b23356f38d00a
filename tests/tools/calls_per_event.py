"""Python calls per dispatched event of a simulated session, counted by cProfile.

For each preset, builds the session with ``build_simulation`` (5 min at seed 1
unless told otherwise), profiles ``run_until`` alone, and prints the calls that
cProfile counted divided by the events the kernel dispatched. Building the
book and the agents is not counted.

Run from the repository root:

    PYTHONPATH=src python tests/tools/calls_per_event.py [--session 5m] [--seed 1]

pytest does not collect this file: its name does not start with ``test_``.
"""

import argparse
import cProfile
import pstats
from dataclasses import replace

from primesim.config import PRESET_NAMES, load_preset, parse_duration
from primesim.runner import build_simulation


def calls_per_event(preset: str, session_ns: int, seed: int) -> tuple[float, int]:
    """(calls per dispatched event, events dispatched) of one preset's session."""
    config = replace(load_preset(preset), seed=seed, session_ns=session_ns)
    sim = build_simulation(config)
    profile = cProfile.Profile()
    stats = profile.runcall(sim.run_until, config.session_ns)
    return pstats.Stats(profile).total_calls / stats.events_dispatched, stats.events_dispatched


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--session", default="5m", help="Session length (default 5m).")
    parser.add_argument("--seed", type=int, default=1, help="Master seed (default 1).")
    args = parser.parse_args()
    for preset in PRESET_NAMES:
        per_event, events = calls_per_event(preset, parse_duration(args.session), args.seed)
        print(f"{preset}: {per_event:.2f} calls per event over {events} events")


if __name__ == "__main__":
    main()
