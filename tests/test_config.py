"""Config schema: parsing, validation, round-trips, durations, presets."""

from dataclasses import MISSING, fields, replace
from pathlib import Path

import pytest
import yaml

from primesim.config import (
    _TYPES,
    GROUPS,
    MAX_DARP_SIGNS,
    MAX_DURATION_NS,
    MAX_EXPECTED_WAKEUPS,
    MAX_GROUP_COUNT,
    MAX_SEED_WIDTH,
    MAX_WALK_STEPS,
    MIN_WAKE_RATE,
    ConstantOracle,
    TechnicalGroup,
    ZiLimitGroup,
    ZiMarketGroup,
    _demand,
    _key,
    dump_config,
    format_duration,
    load_config,
    load_preset,
    loads_config,
    parse_config,
    parse_duration,
    to_dict,
)
from primesim.errors import ConfigError

MINIMAL = """
seed: 1
session: 10m
book:
  start_price: 100
  half_width: 10
  slope: 2
agents:
  zi_market:
    count: 2
    wake_rate: 1.0
"""


# One section of each kind that carries a float field.
EVERY_FLOAT = """
seed: 1
session: 10m
oracle: {kind: random_walk, start: 100, sigma: 1.0, step: 5s}
agents:
  zi_limit: {count: 1, wake_rate: 1.0, p_cancel: 0.5}
  zi_market: {count: 1, wake_rate: 1.0, mode: darp, darp_p: 0.9, darp_gamma: 1.5}
  trend: {count: 1, wake_rate: 1.0}
"""

FLOAT_FIELDS = [
    (("agents", "zi_limit"), "wake_rate"),
    (("agents", "zi_market"), "wake_rate"),
    (("agents", "trend"), "wake_rate"),
    (("agents", "zi_limit"), "p_cancel"),
    (("agents", "zi_market"), "darp_p"),
    (("agents", "zi_market"), "darp_gamma"),
    (("oracle",), "sigma"),
]


def with_value(path, key, value) -> str:
    """EVERY_FLOAT with one field set to a YAML scalar, as YAML text."""
    data = yaml.safe_load(EVERY_FLOAT)
    section = data
    for name in path:
        section = section[name]
    section[key] = yaml.safe_load(value)
    return yaml.safe_dump(data)


class TestDurations:
    @pytest.mark.parametrize("text,ns", [
        ("5s", 5 * 10**9),
        ("500ms", 5 * 10**8),
        ("2h", 7200 * 10**9),
        ("90m", 5400 * 10**9),
        ("1500ns", 1500),
        (42, 42),
        ("1.5h", 5400 * 10**9),
    ])
    def test_parse(self, text, ns):
        assert parse_duration(text) == ns

    @pytest.mark.parametrize("bad", ["", "5 parsecs", "-3s", "0s", None, 0, -1, True])
    def test_rejects(self, bad):
        with pytest.raises(ConfigError):
            parse_duration(bad)

    @pytest.mark.parametrize("text,ns", [("1.5us", 1500), ("0.25s", 250_000_000),
                                         ("1.000000001s", 1_000_000_001), ("2.0ns", 2)])
    def test_fractions_of_whole_nanoseconds(self, text, ns):
        assert parse_duration(text) == ns

    @pytest.mark.parametrize("bad", ["2.5ns", "1.5ns", "1.0000000001s", "0.0005us"])
    def test_sub_nanosecond_rejected(self, bad):
        with pytest.raises(ConfigError, match="whole number of nanoseconds"):
            parse_duration(bad)

    def test_format_round_trip(self):
        for ns in (5 * 10**9, 7200 * 10**9, 1500, 10**6):
            assert parse_duration(format_duration(ns)) == ns


class TestParse:
    def test_minimal(self):
        config = loads_config(MINIMAL)
        assert config.seed == 1
        assert config.session_ns == 600 * 10**9
        assert config.book.half_width == 10
        assert config.census() == {"zi_limit": 0, "zi_market": 2, "trend": 0, "mean_revert": 0}

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            loads_config(MINIMAL + "\nturbo: true\n")

    def test_unknown_nested_key(self):
        bad = MINIMAL.replace("wake_rate: 1.0", "wake_rate: 1.0\n    flavor: hot")
        with pytest.raises(ConfigError, match="flavor"):
            loads_config(bad)

    def test_missing_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            loads_config("session: 1h\nagents:\n  zi_market: {count: 1, wake_rate: 1.0}\n")

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            loads_config(MINIMAL.replace("seed: 1", "seed: -4"))

    def test_prime_market_requires_oracle(self):
        bad = MINIMAL.replace("    wake_rate: 1.0", "    wake_rate: 1.0\n    mode: prime")
        with pytest.raises(ConfigError, match="oracle"):
            loads_config(bad)

    def test_no_agents_rejected(self):
        with pytest.raises(ConfigError, match="no agents"):
            loads_config("seed: 1\nsession: 1h\nagents: {}\n")

    def test_book_below_grid_rejected(self):
        bad = MINIMAL.replace("start_price: 100", "start_price: 5")
        with pytest.raises(ConfigError, match="tick"):
            loads_config(bad)

    def test_bad_oracle_kind(self):
        bad = MINIMAL + "oracle:\n  kind: psychic\n"
        with pytest.raises(ConfigError, match="oracle kind"):
            loads_config(bad)

    def test_not_yaml(self):
        with pytest.raises(ConfigError, match="YAML"):
            loads_config("seed: [unclosed")


class TestFieldValidation:
    def test_every_float_config_is_valid(self):
        config = loads_config(EVERY_FLOAT)
        assert config.zi_market.darp_gamma == 1.5 and config.oracle.sigma == 1.0

    @pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
    @pytest.mark.parametrize("path,key", FLOAT_FIELDS,
                             ids=[".".join(p + (k,)) for p, k in FLOAT_FIELDS])
    def test_non_finite_float_rejected(self, path, key, value):
        with pytest.raises(ConfigError, match=key):
            loads_config(with_value(path, key, value))

    def test_darp_gamma_must_be_a_number(self):
        with pytest.raises(ConfigError, match="darp_gamma"):
            loads_config(with_value(("agents", "zi_market"), "darp_gamma", "abc"))

    @pytest.mark.parametrize("value", ["'no'", "1", "'false'", "null"])
    def test_literal_branch_only_takes_a_bool(self, value):
        with pytest.raises(ConfigError, match="darp_literal_branch"):
            loads_config(with_value(("agents", "zi_market"), "darp_literal_branch", value))

    def test_integer_float_normalized(self):
        config = loads_config(with_value(("agents", "zi_limit"), "wake_rate", "2"))
        assert config.zi_limit.wake_rate == 2.0 and isinstance(config.zi_limit.wake_rate, float)

    def test_band_order_checked(self):
        bad = with_value(("agents", "zi_limit"), "band_low", "50")
        with pytest.raises(ConfigError, match="band_low"):
            loads_config(bad.replace("p_cancel: 0.5", "p_cancel: 0.5\n    band_high: 10"))

    def test_constant_oracle_rejects_random_walk_keys(self):
        bad = MINIMAL + "oracle: {kind: constant, price: 100, sigma: 1.0}\n"
        with pytest.raises(ConfigError, match="sigma"):
            loads_config(bad)

    def test_missing_group_key_named(self):
        with pytest.raises(ConfigError, match="agents.zi_limit: missing required key 'wake_rate'"):
            loads_config(MINIMAL + "  zi_limit: {count: 1}\n")

    def test_direct_construction_validated(self):
        with pytest.raises(ConfigError, match="lookback"):
            TechnicalGroup(count=1, lookback_ns=0)
        with pytest.raises(ConfigError, match="price"):
            ConstantOracle(price=0)
        with pytest.raises(ConfigError, match="band_low"):
            ZiLimitGroup(count=1, wake_rate=1.0, band_low=10, band_high=10)
        with pytest.raises(ConfigError, match="noise"):
            ZiMarketGroup(count=1, wake_rate=1.0, noise=-1)

    def test_replace_revalidates(self):
        config = load_preset("prime")
        with pytest.raises(ConfigError, match="seed"):
            replace(config, seed=-3)
        with pytest.raises(ConfigError, match="oracle"):
            replace(config, oracle=None)


RUNAWAY = """
seed: 1
session: 10s
agents:
  zi_market: {count: 1, wake_rate: 1.0e+9}
"""


class TestExpectedWakeupCap:
    def test_runaway_rate_rejected(self):
        with pytest.raises(ConfigError, match="expected agent wakeups"):
            loads_config(RUNAWAY)

    def test_cap_is_inclusive(self):
        # one agent at 1e8 wakeups/s: 10 s is exactly the cap, 11 s is past it
        at_cap = loads_config(RUNAWAY.replace("1.0e+9", "1.0e+8"))
        assert at_cap.zi_market.wake_rate * at_cap.session_ns / 1e9 == MAX_EXPECTED_WAKEUPS
        with pytest.raises(ConfigError, match="exceed the cap"):
            replace(at_cap, session_ns=11 * 10**9)

    def test_sums_over_agents_and_groups(self):
        # 4e8 + 4e8 + 3e8 expected wakeups: no group alone passes the cap
        config = RUNAWAY.replace(
            "  zi_market: {count: 1, wake_rate: 1.0e+9}",
            "  zi_limit: {count: 400, wake_rate: 1.0e+5}\n"
            "  zi_market: {count: 400, wake_rate: 1.0e+5}\n"
            "  trend: {count: 300, wake_rate: 1.0e+5}")
        with pytest.raises(ConfigError, match="exceed the cap"):
            loads_config(config)
        assert loads_config(config.replace("count: 300", "count: 200")).census()["trend"] == 200

    @pytest.mark.parametrize("name", ["santa-fe", "prime"])
    def test_presets_at_one_hour_load(self, name):
        config = load_preset(name)
        assert config.session_ns == 3600 * 10**9
        with pytest.raises(ConfigError, match="exceed the cap"):
            replace(config, session_ns=10**6 * config.session_ns)


WALK = """
seed: 1
session: 1h
oracle: {kind: random_walk, start: 1000, sigma: 1.0, step: 1ms}
agents:
  zi_limit: {count: 1, wake_rate: 1.0}
"""


class TestSizeCaps:
    """Counts that a config turns into loops or arrays are capped before anything is built."""

    def test_huge_seed_width_refused(self):
        # start_price - half_width is tick 1, so only the cap stands between
        # this config and ~2.3e18 seeded orders
        huge = MINIMAL.replace("start_price: 100", f"start_price: {2**60}").replace(
            "half_width: 10", f"half_width: {2**60 - 1}")
        with pytest.raises(ConfigError, match=r"book: half_width must be an integer in \[1, "):
            loads_config(huge)

    def test_seed_width_cap_is_inclusive(self):
        at_cap = loads_config(MINIMAL.replace("start_price: 100", f"start_price: {2**60}")
                              .replace("half_width: 10", f"half_width: {MAX_SEED_WIDTH}"))
        assert at_cap.book.half_width == MAX_SEED_WIDTH
        with pytest.raises(ConfigError, match="half_width"):
            replace(at_cap.book, half_width=MAX_SEED_WIDTH + 1)

    def test_microsecond_walk_over_an_hour_refused(self):
        # 3.6e9 normals, ~29 GB, would be drawn at once
        with pytest.raises(ConfigError, match="3600000000 random walk steps exceed the cap"):
            loads_config(WALK.replace("step: 1ms", "step: 1us"))

    def test_millisecond_walk_over_an_hour_loads(self):
        config = loads_config(WALK)
        assert config.session_ns // config.oracle.step_ns == 3_600_000

    def test_walk_cap_is_inclusive(self):
        at_cap = replace(loads_config(WALK), session_ns=MAX_WALK_STEPS * 10**6)
        assert at_cap.session_ns // at_cap.oracle.step_ns == MAX_WALK_STEPS
        with pytest.raises(ConfigError, match="random walk steps exceed the cap"):
            replace(at_cap, session_ns=at_cap.session_ns + 10**6)

    def test_group_count_cap_is_inclusive(self):
        at_cap = replace(loads_config(MINIMAL).zi_market, count=MAX_GROUP_COUNT)
        with pytest.raises(ConfigError, match=r"count must be an integer in \[0, 100000\]"):
            replace(at_cap, count=MAX_GROUP_COUNT + 1)

    def test_darp_signs_cap_is_inclusive(self):
        darp = replace(loads_config(MINIMAL).zi_market, mode="darp", darp_gamma=1.0)
        assert replace(darp, count=10, darp_n=MAX_DARP_SIGNS // 10).darp_n == 10**5
        with pytest.raises(ConfigError, match="count \\* darp_n = 1000010 exceeds the cap"):
            replace(darp, count=10, darp_n=MAX_DARP_SIGNS // 10 + 1)
        assert replace(darp, mode="santa_fe", count=10, darp_n=MAX_DARP_SIGNS).count == 10


class TestTimeBounds:
    """Durations and rates whose nanosecond arithmetic must stay finite and inside int64."""

    def test_duration_cap_is_inclusive(self):
        at_cap = replace(loads_config(WALK), session_ns=MAX_DURATION_NS, zi_limit=replace(
            loads_config(WALK).zi_limit, wake_rate=MIN_WAKE_RATE), oracle=None)
        assert at_cap.session_ns == MAX_DURATION_NS < 2**63
        with pytest.raises(ConfigError, match="session must be a positive duration up to"):
            replace(at_cap, session_ns=MAX_DURATION_NS + 1)

    def test_wake_rate_floor_is_inclusive(self):
        group = loads_config(WALK).zi_limit
        assert replace(group, wake_rate=MIN_WAKE_RATE).wake_rate == 2.5e-10
        with pytest.raises(ConfigError, match=r"wake_rate must be a finite number >= 2.5e-10"):
            replace(group, wake_rate=MIN_WAKE_RATE / 2)


class TestRoundTrip:
    def test_semantic_identity(self):
        config = loads_config(MINIMAL)
        again = loads_config(dump_config(config))
        assert again == config

    def test_presets_round_trip(self):
        for name in ("santa-fe", "prime"):
            config = load_preset(name)
            assert loads_config(dump_config(config)) == config

    def test_to_dict_reparses(self):
        config = load_preset("prime")
        assert parse_config(to_dict(config)) == config

    def test_every_section_round_trips(self):
        config = loads_config(EVERY_FLOAT)
        assert loads_config(dump_config(config)) == config


class TestLoadConfig:
    def test_relative_series_path_is_read_next_to_the_config(self, tmp_path, monkeypatch):
        (tmp_path / "conf").mkdir()
        (tmp_path / "conf" / "config.yaml").write_text(
            MINIMAL + "oracle: {kind: from_file, path: series.csv}\n")
        monkeypatch.chdir(tmp_path)
        assert load_config("conf/config.yaml").oracle.path == str(Path("conf", "series.csv"))

    def test_absolute_series_path_is_kept(self, tmp_path):
        series = tmp_path / "elsewhere" / "series.csv"
        (tmp_path / "config.yaml").write_text(
            MINIMAL + f"oracle: {{kind: from_file, path: '{series}'}}\n")
        assert load_config(tmp_path / "config.yaml").oracle.path == str(series)


class TestPresets:
    def test_santa_fe_census(self):
        config = load_preset("santa-fe")
        census = config.census()
        assert census["zi_limit"] == 1000
        assert census["zi_market"] == 30
        assert census["trend"] == 0 and census["mean_revert"] == 0
        assert config.oracle is None

    def test_prime_census_from_reported_run(self):
        config = load_preset("prime")
        assert config.census() == {"zi_limit": 1000, "zi_market": 30,
                                   "trend": 10, "mean_revert": 10}
        assert config.zi_limit.mode == "prime"
        assert config.zi_market.mode == "prime"
        assert config.book.half_width == 50

    def test_underscore_alias(self):
        assert load_preset("santa_fe") == load_preset("santa-fe")

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            load_preset("nasdaq")


class TestReadme:
    def test_every_group_field_documented(self):
        """README's field table is the group declarations, row for row."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        names: dict = {}
        for name, cls in GROUPS.items():
            names.setdefault(cls, []).append(name)
        for cls, group_names in names.items():
            for f in fields(cls):
                d = f.default
                default = ("required" if d is MISSING
                           else format_duration(d) if f.metadata["duration"]
                           else str(d).lower() if isinstance(d, bool) else d)
                demand = _demand(_TYPES[f.type][1], f.metadata)
                row = f"| {', '.join(group_names)} | `{_key(f)}` | {default} | {demand} |"
                assert row in readme, row
