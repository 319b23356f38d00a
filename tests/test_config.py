"""Config schema: parsing, validation, round-trips, durations, presets."""

from dataclasses import MISSING, fields, replace
from pathlib import Path

import pytest
import yaml

from primesim.config import (
    _TYPES,
    GROUPS,
    ConstantOracle,
    TechnicalGroup,
    ZiLimitGroup,
    ZiMarketGroup,
    _demand,
    _key,
    dump_config,
    format_duration,
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
