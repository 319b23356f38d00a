"""Schema fuzz: configs drawn from ``config.py``'s field metadata.

The strategy reads each section's fields (type, ``minimum``/``maximum``,
``choices``, ``duration``), so a new field is fuzzed without a test edit. Each
drawn YAML mapping either loads, and then survives a ``dump_config``/
``loads_config`` round trip, or is refused as a ConfigError. ``simulate`` on
it exits 0 or 2 and never raises, and a run that exits 0 replays identically.

A simulated example is kept small: its groups shrink in proportion to about
AGENT_BUDGET agents in all, and its session is cut to WAKEUP_BUDGET expected
agent wakeups and random walk steps. Drawn sessions mostly expect no wakeup
at all, so half of the examples have their session stretched to the budget
instead, which keeps them busy. The round trip covers every field's whole range.
"""

import math
import tempfile
from dataclasses import MISSING, fields
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from primesim import config as schema
from primesim.cli import EXIT_CONFIG, EXIT_OK, cli
from primesim.config import (_TYPES, GROUPS, MAX_DURATION_NS, RandomWalkOracle, RunConfig, _key,
                              dump_config, format_duration, loads_config)
from primesim.errors import ConfigError

# A from_file oracle reads this series; every other string field takes any text.
SERIES = "time_ns,price_ticks\n0,1000\n2000000000,1010\n"

# Expected agent wakeups and oracle steps a simulated example may have, and its agents.
WAKEUP_BUDGET = 200
AGENT_BUDGET = 100


def value_strategy(f, series_path: str):
    """Values of one field, read off its type and constraints."""
    kind, _ = _TYPES[f.type]
    m = f.metadata
    if m["choices"]:
        return st.sampled_from(m["choices"])
    if kind is bool:
        return st.booleans()
    if kind is str:
        return st.just(series_path) if f.name == "path" else st.text()
    if kind is float:
        return st.floats(m["minimum"], m["maximum"], allow_nan=False, allow_infinity=False)
    ints = st.integers(m["minimum"], m["maximum"])
    if m["duration"]:
        return st.one_of(ints, ints.map(format_duration))
    return ints


def section_strategy(cls, series_path: str, **nested):
    """YAML mapping of one section: its required keys, any of its optional ones."""
    required, optional = dict(nested.pop("required", {})), dict(nested)
    for f in fields(cls):
        if not f.metadata:
            continue  # a nested section, given by the caller
        values = value_strategy(f, series_path)
        if f.default is MISSING:
            required[_key(f)] = values
        else:
            optional[_key(f)] = values
    return st.fixed_dictionaries(required, optional=optional)


def section_classes(f) -> list[type]:
    """The section classes a nested field's annotation names."""
    return [getattr(schema, name) for name in f.type.split(" | ") if name != "None"]


def config_strategy(series_path: str):
    """YAML mapping of a run: any of the optional sections, and one or more agent groups."""
    sections, groups = {}, {}
    for f in fields(RunConfig):
        if f.metadata:
            continue
        options = [section_strategy(cls, series_path, required=(
            {"kind": st.just(cls.kind)} if hasattr(cls, "kind") else {}))
            for cls in section_classes(f)]
        (groups if f.name in GROUPS else sections)[f.name] = st.one_of(options)
    agents = st.sets(st.sampled_from(sorted(groups)), min_size=1).flatmap(
        lambda names: st.fixed_dictionaries({name: groups[name] for name in names}))
    return section_strategy(RunConfig, series_path, required={"agents": agents}, **sections)


def parsed(data) -> RunConfig | None:
    """The config a mapping describes, or None if the schema refuses it."""
    try:
        return loads_config(yaml.safe_dump(data))
    except ConfigError:
        return None


def at_budget(data, config: RunConfig, stretch: bool) -> dict:
    """``data`` within the budgets: groups shrunk in proportion, and the session cut to them,
    or with ``stretch`` set to them."""
    groups = {name: getattr(config, name) for name in GROUPS if getattr(config, name)}
    scale = min(1, AGENT_BUDGET / sum(g.count for g in groups.values()))
    counts = {name: math.ceil(g.count * scale) for name, g in groups.items()}
    agents = {name: {**data["agents"][name], "count": count} for name, count in counts.items()}
    rate = sum(counts[name] * g.wake_rate for name, g in groups.items())
    session_ns = min(int(WAKEUP_BUDGET / rate * 1e9), MAX_DURATION_NS)
    if not stretch:
        session_ns = min(session_ns, config.session_ns)
    if isinstance(config.oracle, RandomWalkOracle):
        session_ns = min(session_ns, WAKEUP_BUDGET * config.oracle.step_ns)
    return {**data, "agents": agents, "session": max(1, session_ns)}


@pytest.fixture(scope="module")
def series_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("series") / "series.csv"
    path.write_text(SERIES)
    return str(path)


FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                                       HealthCheck.function_scoped_fixture])


@FUZZ
@given(data=st.data())
def test_drawn_configs_load_or_are_refused_and_round_trip(series_path, data):
    config = parsed(data.draw(config_strategy(series_path)))
    if config is not None:
        assert loads_config(dump_config(config)) == config


@settings(FUZZ, max_examples=500)
@given(data=st.data())
def test_simulate_exits_0_or_2_and_every_run_replays(series_path, data):
    mapping = data.draw(config_strategy(series_path))
    config = parsed(mapping)
    if config is not None:
        mapping = at_budget(mapping, config, data.draw(st.booleans(), label="stretch"))
        config = parsed(mapping)
    with tempfile.TemporaryDirectory() as scratch:
        path, out = Path(scratch, "config.yaml"), Path(scratch, "run")
        path.write_text(yaml.safe_dump(mapping))
        code = cli(["simulate", str(path), "--out", str(out)])
        assert code == (EXIT_CONFIG if config is None else EXIT_OK)
        if code == EXIT_OK:
            assert cli(["replay", str(out)]) == EXIT_OK
