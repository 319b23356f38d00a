"""Command-line interface: simulate, analyze, tune-dar, replay.

Exit codes: 0 success, 1 usage, 2 configuration, 3 data or unwritable output, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import analysis, calibrate, impact, tradeio
from .config import load_config, load_preset, parse_duration
from .errors import ConfigError, DataError, NumericalError, UsageError
from .impact import PowerLawFit

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


class _Parser(argparse.ArgumentParser):
    """Takes no option prefix and no ``-h``, and raises UsageError where argparse would exit 2."""

    def __init__(self, **kwargs) -> None:
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message: str):
        raise UsageError(message)


def _option(parser: _Parser, flag: str, parse, **kwargs) -> None:
    """Adds ``flag`` read by ``parse``; a value it refuses is a usage error naming the flag."""

    def convert(text: str):
        try:
            return parse(text)
        except (ValueError, ConfigError) as exc:
            raise UsageError(f"Invalid value for '{flag}': {exc}") from None

    parser.add_argument(flag, type=convert, **kwargs)


def _number(kind: type, low: float, above: bool = False):
    """Parser of a finite ``kind`` that is at least ``low``, or above it with ``above``."""

    def parse(text: str):
        value = kind(text)
        if not -math.inf < value < math.inf:  # also false for nan
            raise ValueError(f"{value} is not a finite number.")
        if value < low or (above and value == low):
            raise ValueError(f"{value} is not in the range x{'>' if above else '>='}{low}.")
        return value

    return parse


_POSITIVE = _number(float, 0, above=True)


def simulate(config_src: str, out: str | None, seed: int | None, session: str | None) -> None:
    """Run a session from a config file or a preset name (santa-fe, prime)."""
    from . import runner  # only the commands that run a session load the simulator

    config = load_config(config_src) if Path(config_src).exists() else load_preset(config_src)
    if seed is not None or session is not None:
        from dataclasses import replace

        config = replace(
            config,
            seed=config.seed if seed is None else seed,
            session_ns=config.session_ns if session is None else parse_duration(session),
        )
    out_dir = Path(out) if out else Path(config.output or "run")
    result = runner.run_simulation(config, out_dir)
    print(f"run written to {result.out_dir}")
    print(f"events={result.stats.events_dispatched} trades={result.stats.n_trades}")


def _read_inputs(inputs: list[str], quotes: bool = True):
    """The trade tape, and the quote log if ``quotes``, of a run directory or TRADES_CSV L1_CSV.

    A lone input that is not a directory is a trade file when no quotes are needed.
    A nonzero count of skipped malformed trade rows is reported on stderr.
    """
    if len(inputs) > 2:
        raise UsageError("pass a run directory or TRADES_CSV L1_CSV (acf: TRADES_CSV alone)")
    trades = Path(inputs[0])
    l1 = Path(inputs[1]) if len(inputs) == 2 else None
    if l1 is None and (quotes or trades.is_dir()):
        trades, l1 = trades / tradeio.TRADES_FILE, trades / tradeio.L1_FILE
    dump = tradeio.read_trades(trades)
    if dump.n_malformed:
        print(f"skipped {dump.n_malformed} malformed trade rows in {trades}", file=sys.stderr)
    return dump.records, tradeio.read_l1(l1) if quotes else None


def analyze_impact(inputs, delta, buckets, window, horizon, min_periods, out) -> None:
    """Initial-impact analysis: windows, samples, exponent fit, bucket means."""
    trades, quotes = _read_inputs(inputs)
    report = analysis.impact_report(
        trades, quotes, window_ns=window, horizon_ns=horizon,
        delta=delta, n_buckets=buckets, min_periods=min_periods,
    )
    out.mkdir(parents=True, exist_ok=True)
    analysis.write_windows(out / "windows.csv", report.windows)
    analysis.write_samples(out / "samples.csv", report.samples)
    analysis.write_buckets(out / "buckets.csv", report.buckets)
    analysis.write_split_buckets(out / "buckets_by_prev_sign.csv",
                                 report.buckets_prev_buy, report.buckets_prev_sell)
    analysis.write_delta_fit(out / "delta_fit.csv", report.delta_fit, report.skipped)
    f = report.delta_fit
    print(f"delta={f.delta:.4f} k={f.k:.4f} sse={f.sse:.6g} n={f.n}")


def analyze_decay(inputs, delta, max_lag, window, horizon, min_periods, out) -> None:
    """Transient-impact kernel: lagged no-intercept OLS of y on adjusted size."""
    trades, quotes = _read_inputs(inputs)
    _, samples, skipped = analysis.prepare_samples(
        trades, quotes, window_ns=window, horizon_ns=horizon, min_periods=min_periods)
    if delta is None:
        delta = impact.fit_delta(samples).delta
    kernel = impact.decay_regression(samples, delta, max_lag=max_lag)
    out.mkdir(parents=True, exist_ok=True)
    analysis.write_kernel(out / "kernel.csv", kernel)
    print(f"delta={delta:.4f} beta0={kernel.beta[0]:.4f} "
          f"rows={kernel.n_rows} cond={kernel.cond:.3g}")


def analyze_acf(inputs, max_lag, out) -> None:
    """Order-sign autocorrelation of the trade tape and its power-law fit."""
    trades, _ = _read_inputs(inputs, quotes=False)
    acf = impact.order_sign_acf(trades.column("sign"), max_lag=max_lag)
    out.mkdir(parents=True, exist_ok=True)
    analysis.write_acf(out / "acf.csv", acf)
    try:
        fit = impact.fit_power_law(acf)
    except NumericalError as exc:
        print(f"acf written; power-law fit unavailable: {exc}")
        return
    analysis.write_power_law(out / "acf_powerlaw.csv", fit)
    print(f"alpha={fit.alpha:.4f} c={fit.c:.4f} r2={fit.r2:.4f}")


def tune_dar(target_alpha, target_c, budget, seed, out) -> None:
    """Search DAR(p) parameters whose sign ACF matches a target power law."""
    target = PowerLawFit(c=target_c, alpha=target_alpha, r2=1.0, n=0)
    result = calibrate.tune_darp(target, budget=budget, seed=seed)
    if out is not None:
        tradeio.write_table(Path(out), ["p", "gamma", "alpha", "c", "r2", "score"],
                            [(result.p, result.gamma, result.fit.alpha,
                              result.fit.c, result.fit.r2, result.score)])
    print(f"p={result.p:.4f} gamma={result.gamma:.4f} "
          f"achieved_alpha={result.fit.alpha:.4f} achieved_c={result.fit.c:.4f} "
          f"score={result.score:.6g}")


def replay(run_dir: str) -> None:
    """Re-run a recorded run directory and verify byte-identical artifacts."""
    from . import runner

    difference = runner.replay(run_dir)
    if difference is not None:
        raise NumericalError(f"replay of {run_dir} did not reproduce identical artifacts; "
                             f"first difference at {difference}")
    print("replay identical")


def _parser() -> _Parser:
    """The command tree; each command's function is its parser's ``run`` default."""
    root = _Parser(prog="primesim", description="Agent-based exchange simulator and "
                   "market-impact analysis pipeline.")
    commands = root.add_subparsers(metavar="COMMAND", required=True)

    def command(group, name: str, run=None, doc: str | None = None) -> _Parser:
        parser = group.add_parser(name, help=doc or run.__doc__, description=doc or run.__doc__)
        parser.set_defaults(run=run)
        return parser

    sim = command(commands, "simulate", simulate)
    sim.add_argument("config_src", metavar="CONFIG_SRC")
    sim.add_argument("--out", help="Run output directory (default: from config or ./run).")
    _option(sim, "--seed", int, help="Override the config seed.")
    sim.add_argument("--session", help="Override the session length (e.g. 30m).")

    analyses = command(commands, "analyze", doc="Measurement pipeline over a run directory or "
                       "trade/L1 CSV files.").add_subparsers(metavar="ANALYSIS", required=True)
    imp, decay, acf = (command(analyses, name, run) for name, run in (
        ("impact", analyze_impact), ("decay", analyze_decay), ("acf", analyze_acf)))
    for parser in imp, decay, acf:
        parser.add_argument("inputs", nargs="+", metavar="INPUTS")
        parser.add_argument("--out", type=Path, default=".", help="Directory for result CSVs.")
    _option(imp, "--delta", _POSITIVE, help="Pin the impact exponent instead of fitting.")
    _option(imp, "--buckets", _number(int, 1), default=20,
            help="At most this many quantile buckets: windows of equal net volume are never "
                 "split, so counts differ by at most one only when no values tie.")
    _option(decay, "--delta", _POSITIVE, help="Impact exponent (fitted when omitted).")
    _option(decay, "--max-lag", _number(int, 0), default=impact.MAX_LAG,
            help="Kernel lag horizon in windows.")
    for parser in imp, decay:
        _option(parser, "--window", parse_duration, default="5s", help="Resample window length.")
        _option(parser, "--horizon", parse_duration, default="1h",
                help="Trailing normalization horizon.")
        _option(parser, "--min-periods", _number(int, 2), default=2,
                help="Trailing windows required before samples are usable "
                     "(at least 2: the volatility is a sample std).")
    _option(acf, "--max-lag", _number(int, 1), default=impact.MAX_LAG,
            help="Largest lag to estimate.")

    tune = command(commands, "tune-dar", tune_dar)
    _option(tune, "--target-alpha", _POSITIVE, required=True, help="Target ACF decay exponent.")
    _option(tune, "--target-c", _POSITIVE, required=True, help="Target ACF amplitude.")
    _option(tune, "--budget", _number(int, 1), default=200, help="Monte-Carlo candidates to draw.")
    _option(tune, "--seed", _number(int, 0), default=0, help="Search seed.")
    tune.add_argument("--out", help="Optional CSV for the result.")

    command(commands, "replay", replay).add_argument("run_dir", metavar="RUN_DIR")
    return root


def cli(argv: list[str]) -> int:
    """Dispatch argv and map failures onto the documented exit codes."""
    try:
        try:
            args, extra = _parser().parse_known_args(argv)
        except SystemExit as exc:  # only --help exits, once it has printed the help
            return exc.code
        args = vars(args)
        # argparse takes the input files in one run; as click did, also take those after options
        if extra and ("inputs" not in args or any(a.startswith("-") for a in extra)):
            raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
        args.get("inputs", []).extend(extra)
        args.pop("run")(**args)
    except KeyboardInterrupt:
        return EXIT_USAGE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
