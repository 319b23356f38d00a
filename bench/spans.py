"""Span tracer for primesim, installed from outside the package.

Wraps every public function and method that the package's layer modules
define, records one span per call, and keeps only aggregates in memory:
per (span name, parent span name) the call count, total time and the time
covered by child spans, so self time = total - child time. Nothing under
``src/`` is edited; the wrappers are set on the modules and classes at run
time and removed again by ``uninstall``.

Span names are ``<module>.<function>`` or ``<module>.<Class>.<method>``, for
example ``book.OrderBook.submit_limit``. Properties and dunder or private
names are not wrapped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter

PACKAGE = "primesim"

# The layers of the package; cli (the entry point) and errors are not layers.
LAYERS = ("kernel", "rng", "agents", "oracle", "book", "runner", "tradeio",
          "config", "impact", "analysis", "darp", "calibrate")

AGENT_KINDS = {
    "ZiLimitAgent": "zi_limit",
    "ZiMarketAgent": "zi_market",
    "PrimeMarketAgent": "prime_market",
    "TechnicalAgent": "technical",
}

RNG_DRAWS = tuple(f"rng.BatchedRng.{m}" for m in ("random", "integers", "exponential", "normal"))
SIM_WRITERS = ("tradeio.write_trades", "tradeio.write_l1", "tradeio.write_summary")
READERS = ("tradeio.read_trades", "tradeio.read_l1")
CONFIG_LOADS = ("config.load_preset", "config.load_config", "config.loads_config")


def _targets():
    """(span name, owner, attribute, function) for every public callable of each layer."""
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{layer}.{name}", module, name, obj
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        yield f"{layer}.{name}.{meth}", obj, meth, fn


class Tracer:
    """Aggregating span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self) -> None:
        self.spans: dict[tuple[str, str], list] = {}   # (name, parent) -> [count, total_s, child_s]
        self.counters: Counter = Counter()
        self.last_sim = None
        self._stack: list[list] = [["", 0.0]]
        self._patches: list[tuple[object, str, object]] = []

    # --------------------------------------------------------------- hooks
    # Each hook sees (result, args) of a completed call and records a count
    # the layer metrics need; only these names pay for a hook.

    def _hooks(self) -> dict:
        c = self.counters

        def capture_sim(result, args):
            self.last_sim = result

        def run_stats(result, args):
            c["events"] += result.stats.events_dispatched

        def stale_cancel(result, args):
            c["stale_cancels"] += result is None

        def market_fills(result, args):
            c["market_fills"] += len(result.trades)

        def written(result, args):
            c["bytes_written"] += os.path.getsize(args[0])

        def written_rows(result, args):
            c["rows_written"] += len(args[1])
            written(result, args)

        def read_trades(result, args):
            c["rows_read"] += len(result.records)
            c["bytes_read"] += os.path.getsize(args[0])

        def read_l1(result, args):
            c["rows_read"] += len(result)
            c["bytes_read"] += os.path.getsize(args[0])

        def windows(result, args):
            c["windows"] += len(result)

        def adjusted(result, args):
            c["samples"] += len(result[0])
            c["skipped"] += result[1]

        def signs(result, args):
            c["signs"] += len(result)

        def tuned(result, args):
            c["candidates"] += result.n_evaluated
            c["candidates_skipped"] += result.n_skipped

        return {
            "runner.build_simulation": capture_sim,
            "runner.run_simulation": run_stats,
            "kernel.Simulation.cancel": stale_cancel,
            "book.OrderBook.submit_market": market_fills,
            "tradeio.write_trades": written_rows,
            "tradeio.write_l1": written_rows,
            "tradeio.write_summary": written,
            "tradeio.read_trades": read_trades,
            "tradeio.read_l1": read_l1,
            "impact.resample": windows,
            "impact.adjust": adjusted,
            "darp.generate_signs": signs,
            "calibrate.tune_darp": tuned,
        }

    # ------------------------------------------------------------ patching

    def _wrap(self, name: str, fn, hook):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += elapsed
                agg = spans.get((name, parent[0]))
                if agg is None:
                    spans[(name, parent[0])] = [1, elapsed, frame[1]]
                else:
                    agg[0] += 1
                    agg[1] += elapsed
                    agg[2] += frame[1]
            if hook is not None:
                hook(result, args)
            return result

        return span

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        package_modules = [m for n, m in list(sys.modules.items())
                           if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for name, owner, attr, fn in _targets():
            wrapper = self._wrap(name, fn, hooks.get(name))
            self._patch(owner, attr, wrapper)
            if inspect.ismodule(owner):
                # names imported with `from .x import f` hold the original too
                for module in package_modules:
                    if module is not owner and vars(module).get(attr) is fn:
                        self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---------------------------------------------------------- aggregates

    def calls(self, *names: str) -> int:
        return sum(a[0] for (n, _), a in self.spans.items() if n in names)

    def total(self, *names: str) -> float:
        return sum(a[1] for (n, _), a in self.spans.items() if n in names)

    def self_time(self, *names: str) -> float:
        return sum(a[1] - a[2] for (n, _), a in self.spans.items() if n in names)

    def outer_total(self, *names: str) -> float:
        """Time in these spans when not called from one another (no double count)."""
        return sum(a[1] for (n, p), a in self.spans.items() if n in names and p not in names)

    def names(self, prefix: str) -> list[str]:
        return sorted({n for n, _ in self.spans if n.startswith(prefix)})

    def dump(self) -> list[dict]:
        return [{"name": n, "parent": p, "count": a[0], "total_s": a[1], "self_s": a[1] - a[2]}
                for (n, p), a in sorted(self.spans.items())]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, iterations: int, end_state: Counter) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per traced iteration, from span aggregates and counters.

    ``*_us`` is mean microseconds per call (``*_self_us`` the self-time mean),
    ``*_s`` total seconds per iteration, and bare names are counts per
    iteration. ``end_state`` carries what the benchmark read off the book
    after each traced simulation.
    """
    n = iterations
    c = tr.counters
    us = 1e6

    def per_call(name: str) -> float:
        return _ratio(tr.total(name) * us, tr.calls(name))

    def self_per_call(name: str) -> float:
        return _ratio(tr.self_time(name) * us, tr.calls(name))

    m: dict[str, tuple[float, str]] = {}
    events = c["events"]
    m["kernel.events"] = (events / n, "count")
    m["kernel.loop_self_us_per_event"] = (
        _ratio(tr.self_time("kernel.Simulation.run_until") * us, events), "us")
    m["kernel.poisson_clock_us"] = (per_call("kernel.next_poisson_wakeup"), "us")
    m["rng.draws"] = (tr.calls(*RNG_DRAWS) / n, "count")
    m["rng.us_per_draw"] = (_ratio(tr.total(*RNG_DRAWS) * us, tr.calls(*RNG_DRAWS)), "us")

    for action in ("place_limit", "place_market", "cancel"):
        m[f"kernel.{action}_self_us"] = (self_per_call(f"kernel.Simulation.{action}"), "us")
    for view in ("l1", "log_quote", "mid2x_at"):
        m[f"kernel.{view}_us"] = (per_call(f"kernel.Simulation.{view}"), "us")
        m[f"kernel.{view}_calls"] = (tr.calls(f"kernel.Simulation.{view}") / n, "count")
    m["kernel.quote_row_ratio"] = (_ratio(end_state["quote_rows"], events), "ratio")

    wakeups = 0
    for cls, kind in AGENT_KINDS.items():
        name = f"agents.{cls}.wakeup"
        wakeups += tr.calls(name)
        m[f"agents.{kind}.wakeups"] = (tr.calls(name) / n, "count")
        m[f"agents.{kind}.self_us"] = (self_per_call(name), "us")
    cancels = tr.calls("kernel.Simulation.cancel")
    actions = (tr.calls("kernel.Simulation.place_limit", "kernel.Simulation.place_market")
               + cancels - c["stale_cancels"])
    m["agents.action_ratio"] = (_ratio(actions, wakeups), "ratio")
    m["agents.stale_cancel_ratio"] = (_ratio(c["stale_cancels"], cancels), "ratio")

    m["oracle.observe_us"] = (per_call("oracle.observe"), "us")
    m["oracle.observes"] = (tr.calls("oracle.observe") / n, "count")

    m["book.submit_limit_us"] = (per_call("book.OrderBook.submit_limit"), "us")
    m["book.submit_market_us"] = (per_call("book.OrderBook.submit_market"), "us")
    m["book.cancel_us"] = (per_call("book.OrderBook.cancel"), "us")
    markets = tr.calls("book.OrderBook.submit_market")
    m["book.limits"] = (tr.calls("book.OrderBook.submit_limit") / n, "count")
    m["book.markets"] = (markets / n, "count")
    m["book.cancels"] = (tr.calls("book.OrderBook.cancel") / n, "count")
    m["book.trades"] = (end_state["trades"] / n, "count")
    m["book.fills_per_market"] = (_ratio(c["market_fills"], markets), "ratio")
    m["book.levels_end"] = (end_state["levels"] / n, "count")
    m["book.resting_orders_end"] = (end_state["resting_orders"] / n, "count")
    m["book.discard_ratio"] = (_ratio(end_state["discarded_qty"], end_state["submitted_qty"]),
                               "ratio")

    write_s = tr.total(*SIM_WRITERS)
    read_s = tr.total(*READERS)
    m["runner.build_s"] = (tr.total("runner.build_simulation") / n, "s")
    m["tradeio.write_s"] = (write_s / n, "s")
    m["tradeio.write_mb_per_s"] = (_ratio(c["bytes_written"] / 1e6, write_s), "MB/s")
    m["tradeio.rows_written"] = (c["rows_written"] / n, "count")
    m["tradeio.read_s"] = (read_s / n, "s")
    m["tradeio.read_mb_per_s"] = (_ratio(c["bytes_read"] / 1e6, read_s), "MB/s")
    m["tradeio.rows_read"] = (c["rows_read"] / n, "count")

    stages = {
        "resample_s": ("impact.resample",),
        "rolling_volatility_s": ("impact.rolling_volatility",),
        "weighted_volume_s": ("impact.weighted_volume",),
        "adjust_s": ("impact.adjust",),
        "fit_delta_s": ("impact.fit_delta",),
        "buckets_s": ("impact.bucket_means", "impact.split_by_previous_sign"),
        "decay_regression_s": ("impact.decay_regression",),
        "order_sign_acf_s": ("impact.order_sign_acf",),
        "fit_power_law_s": ("impact.fit_power_law",),
    }
    for metric, names in stages.items():
        m[f"impact.{metric}"] = (tr.total(*names) / n, "s")
    rolling = tr.total("impact.rolling_volatility", "impact.weighted_volume")
    m["impact.rolling_us_per_window"] = (_ratio(rolling * us, c["windows"]), "us")
    m["impact.windows"] = (c["windows"] / n, "count")
    m["impact.samples"] = (c["samples"] / n, "count")
    m["impact.skipped_ratio"] = (_ratio(c["skipped"], c["samples"] + c["skipped"]), "ratio")
    m["analysis.self_s"] = (tr.self_time("analysis.impact_report",
                                         "analysis.prepare_samples") / n, "s")
    m["analysis.write_s"] = (tr.total(*tr.names("analysis.write_")) / n, "s")

    gen_s = tr.total("darp.generate_signs")
    m["darp.generate_signs_s"] = (gen_s / n, "s")
    m["darp.signs_per_s"] = (_ratio(c["signs"], gen_s), "1/s")
    m["calibrate.tune_darp_s"] = (tr.total("calibrate.tune_darp") / n, "s")
    m["calibrate.self_s"] = (tr.self_time("calibrate.tune_darp") / n, "s")
    m["calibrate.candidates"] = (c["candidates"] / n, "count")
    m["calibrate.skip_ratio"] = (_ratio(c["candidates_skipped"], c["candidates"]), "ratio")

    m["config.load_s"] = (tr.outer_total(*CONFIG_LOADS) / n, "s")
    return m
