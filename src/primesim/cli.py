"""Command-line interface: simulate, analyze, tune-dar, replay.

Exit codes: 0 success, 1 usage, 2 configuration, 3 data or unwritable output, 4 numerical failure.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import click

from . import analysis, calibrate, impact, runner, tradeio
from .config import PRESET_NAMES, load_config, load_preset, parse_duration
from .errors import ConfigError, DataError, NumericalError
from .impact import PowerLawFit

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


class _PositiveFloat(click.FloatRange):
    """A finite float above 0; ``FloatRange`` alone lets ``nan`` and ``inf`` through."""

    def __init__(self) -> None:
        super().__init__(min=0, min_open=True)

    def convert(self, value, param, ctx):
        value = super().convert(value, param, ctx)
        if not math.isfinite(value):
            self.fail(f"{value} is not a finite number.", param, ctx)
        return value


class _Duration(click.ParamType):
    """A duration such as ``5s`` or ``1h``, as integer nanoseconds (``config.parse_duration``)."""

    name = "duration"

    def convert(self, value, param, ctx):
        try:
            return parse_duration(value)
        except ConfigError as exc:
            self.fail(str(exc), param, ctx)


@click.group(name="primesim")
def root() -> None:
    """Agent-based exchange simulator and market-impact analysis pipeline."""


@root.command()
@click.argument("config_src")
@click.option("--out", default=None, help="Run output directory (default: from config or ./run).")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--session", default=None, help="Override the session length (e.g. 30m).")
def simulate(config_src: str, out: str | None, seed: int | None, session: str | None) -> None:
    """Run a session from a config file or a preset name (santa-fe, prime)."""
    config = _load_config_source(config_src)
    if seed is not None or session is not None:
        from dataclasses import replace

        config = replace(
            config,
            seed=config.seed if seed is None else seed,
            session_ns=config.session_ns if session is None else parse_duration(session),
        )
    out_dir = Path(out) if out else Path(config.output or "run")
    result = runner.run_simulation(config, out_dir)
    click.echo(f"run written to {result.out_dir}")
    click.echo(f"events={result.stats.events_dispatched} trades={result.stats.n_trades}")


def _load_config_source(src: str):
    if Path(src).exists():
        return load_config(src)
    normalized = src.replace("_", "-").lower()
    if normalized in PRESET_NAMES:
        return load_preset(normalized)
    raise ConfigError(f"{src!r} is neither a config file nor a preset {PRESET_NAMES}")


@root.group()
def analyze() -> None:
    """Measurement pipeline over a run directory or trade/L1 CSV files."""


def _load_inputs(inputs: tuple[str, ...]):
    if len(inputs) == 1:
        return runner.load_run(inputs[0])
    if len(inputs) == 2:
        dump = tradeio.read_trades(inputs[0])
        return dump.records, tradeio.read_l1(inputs[1])
    raise click.UsageError("pass a run directory or TRADES_CSV L1_CSV")


_window_opt = click.option("--window", "window_ns", type=_Duration(), default="5s",
                           help="Resample window length.")
_horizon_opt = click.option("--horizon", "horizon_ns", type=_Duration(), default="1h",
                            help="Trailing normalization horizon.")
_out_opt = click.option("--out", default=".", help="Directory for result CSVs.")
_min_periods_opt = click.option("--min-periods", type=click.IntRange(min=2), default=2,
                                help="Trailing windows required before samples are usable "
                                     "(at least 2: the volatility is a sample std).")


@analyze.command("impact")
@click.argument("inputs", nargs=-1, required=True)
@click.option("--delta", type=_PositiveFloat(), default=None,
              help="Pin the impact exponent instead of fitting.")
@click.option("--buckets", type=click.IntRange(min=1), default=20,
              help="At most this many quantile buckets: windows of equal net volume "
                   "are never split, so counts differ by at most one only when no "
                   "values tie.")
@_window_opt
@_horizon_opt
@_min_periods_opt
@_out_opt
def analyze_impact(inputs, delta, buckets, window_ns, horizon_ns, min_periods, out) -> None:
    """Initial-impact analysis: windows, samples, exponent fit, bucket means."""
    trades, quotes = _load_inputs(inputs)
    report = analysis.impact_report(
        trades, quotes, window_ns=window_ns, horizon_ns=horizon_ns,
        delta=delta, n_buckets=buckets, min_periods=min_periods,
    )
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    analysis.write_windows(out_dir / "windows.csv", report.windows)
    analysis.write_samples(out_dir / "samples.csv", report.samples)
    analysis.write_buckets(out_dir / "buckets.csv", report.buckets)
    analysis.write_split_buckets(out_dir / "buckets_by_prev_sign.csv",
                                 report.buckets_prev_buy, report.buckets_prev_sell)
    analysis.write_delta_fit(out_dir / "delta_fit.csv", report.delta_fit, report.skipped)
    f = report.delta_fit
    click.echo(f"delta={f.delta:.4f} k={f.k:.4f} sse={f.sse:.6g} n={f.n}")


@analyze.command("decay")
@click.argument("inputs", nargs=-1, required=True)
@click.option("--delta", type=_PositiveFloat(), default=None,
              help="Impact exponent (fitted when omitted).")
@click.option("--max-lag", type=click.IntRange(min=0), default=impact.MAX_LAG,
              help="Kernel lag horizon in windows.")
@_window_opt
@_horizon_opt
@_min_periods_opt
@_out_opt
def analyze_decay(inputs, delta, max_lag, window_ns, horizon_ns, min_periods, out) -> None:
    """Transient-impact kernel: lagged no-intercept OLS of y on adjusted size."""
    trades, quotes = _load_inputs(inputs)
    _, samples, skipped = analysis.prepare_samples(
        trades, quotes, window_ns=window_ns, horizon_ns=horizon_ns, min_periods=min_periods)
    if delta is None:
        delta = impact.fit_delta(samples).delta
    kernel = impact.decay_regression(samples, delta, max_lag=max_lag)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    analysis.write_kernel(out_dir / "kernel.csv", kernel)
    click.echo(f"delta={delta:.4f} beta0={kernel.beta[0]:.4f} "
               f"rows={kernel.n_rows} cond={kernel.cond:.3g}")


@analyze.command("acf")
@click.argument("inputs", nargs=-1, required=True)
@click.option("--max-lag", type=click.IntRange(min=1), default=impact.MAX_LAG,
              help="Largest lag to estimate.")
@_out_opt
def analyze_acf(inputs, max_lag, out) -> None:
    """Order-sign autocorrelation of the trade tape and its power-law fit."""
    if len(inputs) > 2:
        raise click.UsageError("pass a run directory or TRADES_CSV [L1_CSV]")
    path = Path(inputs[0])
    if len(inputs) == 1 and path.is_dir():
        path /= runner.TRADES_FILE
    trades = tradeio.read_trades(path).records
    acf = impact.order_sign_acf(trades.column("sign"), max_lag=max_lag)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    analysis.write_acf(out_dir / "acf.csv", acf)
    try:
        fit = impact.fit_power_law(acf)
    except NumericalError as exc:
        click.echo(f"acf written; power-law fit unavailable: {exc}")
        return
    analysis.write_power_law(out_dir / "acf_powerlaw.csv", fit)
    click.echo(f"alpha={fit.alpha:.4f} c={fit.c:.4f} r2={fit.r2:.4f}")


@root.command("tune-dar")
@click.option("--target-alpha", type=_PositiveFloat(), required=True,
              help="Target ACF decay exponent.")
@click.option("--target-c", type=_PositiveFloat(), required=True,
              help="Target ACF amplitude.")
@click.option("--budget", type=click.IntRange(min=1), default=200,
              help="Monte-Carlo candidates to draw.")
@click.option("--seed", type=int, default=0, help="Search seed.")
@click.option("--out", default=None, help="Optional CSV for the result.")
def tune_dar(target_alpha, target_c, budget, seed, out) -> None:
    """Search DAR(p) parameters whose sign ACF matches a target power law."""
    target = PowerLawFit(c=target_c, alpha=target_alpha, r2=1.0, n=0)
    result = calibrate.tune_darp(target, budget=budget, seed=seed)
    if out is not None:
        tradeio.write_table(Path(out), ["p", "gamma", "alpha", "c", "r2", "score"],
                            [(result.p, result.gamma, result.fit.alpha,
                              result.fit.c, result.fit.r2, result.score)])
    click.echo(f"p={result.p:.4f} gamma={result.gamma:.4f} "
               f"achieved_alpha={result.fit.alpha:.4f} achieved_c={result.fit.c:.4f} "
               f"score={result.score:.6g}")


@root.command("replay")
@click.argument("run_dir")
def replay_cmd(run_dir: str) -> None:
    """Re-run a recorded run directory and verify byte-identical artifacts."""
    difference = runner.replay(run_dir)
    if difference is not None:
        raise NumericalError(f"replay of {run_dir} did not reproduce identical artifacts; "
                             f"first difference at {difference}")
    click.echo("replay identical")


def cli(argv: list[str]) -> int:
    """Dispatch argv and map failures onto the documented exit codes."""
    try:
        root.main(args=list(argv), prog_name="primesim", standalone_mode=False)
    except click.exceptions.Abort:
        return EXIT_USAGE
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        click.echo(f"data error: {exc}", err=True)
        return EXIT_DATA
    except (NumericalError, ValueError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        return EXIT_NUMERICAL
    return EXIT_OK


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
