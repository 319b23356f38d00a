"""Run configuration: YAML schema, validation, presets, duration parsing.

A run is fully described by (config, seed). Each section (book seeding, an
oracle kind, an agent group, the run) is one frozen dataclass: the annotation
gives each field's type and its metadata the constraints, and together they
drive parsing, serialization and validation. ``__post_init__`` validates, so
a section built in code is checked like one read from YAML. Unknown keys are
rejected so typos cannot silently fall back to defaults. Durations take
integer ns or a number with an ns/us/ms/s/m/h suffix; the field behind
duration key ``<key>`` is ``<key>_ns``.
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, dataclass, field, fields
from importlib import resources
from pathlib import Path
from typing import ClassVar

import yaml

from .errors import ConfigError

PRESET_NAMES = ("santa-fe", "prime")

_DURATION_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*(ns|us|ms|s|m|h)\s*$")
_UNIT_NS = {"ns": 1, "us": 10**3, "ms": 10**6, "s": 10**9, "m": 60 * 10**9, "h": 3600 * 10**9}


def parse_duration(value) -> int:
    """Duration to integer nanoseconds; accepts int ns or '<number><unit>'.

    The number is read exactly, and one that does not come to a whole number
    of nanoseconds ('2.5ns', '1.0000000001s') is rejected, not rounded.
    """
    m = _DURATION_RE.match(value) if isinstance(value, str) else None
    if m:
        whole, _, frac = m.group(1).partition(".")
        ns, rest = divmod(int(whole + frac) * _UNIT_NS[m.group(2)], 10 ** len(frac))
        if rest:
            raise ConfigError(f"duration {value!r} is not a whole number of nanoseconds")
    elif isinstance(value, int) and not isinstance(value, bool):
        ns = value
    else:
        raise ConfigError(f"cannot parse duration {value!r} (use e.g. 500ms, 5s, 2h)")
    if ns <= 0:
        raise ConfigError(f"duration must be positive, got {value!r}")
    return ns


def format_duration(ns: int) -> str:
    for unit in ("h", "m", "s", "ms", "us"):
        size = _UNIT_NS[unit]
        if ns % size == 0:
            return f"{ns // size}{unit}"
    return f"{ns}ns"


# ---------------------------------------------------------------- schema

# annotation -> (type, what a value of it must be); floats must also be finite
_TYPES = {"int": (int, "an integer"), "float": (float, "a finite number"),
          "bool": (bool, "true or false"), "str": (str, "a string"),
          "str | None": (str, "a string")}


def _field(default=MISSING, *, minimum=None, maximum=None, above=None,
           choices: tuple | None = None, duration: bool = False):
    """Constraints of a schema field: inclusive bounds, an exclusive floor, choices."""
    return field(default=default, metadata=dict(minimum=minimum, maximum=maximum,
                                                above=above, choices=choices,
                                                duration=duration))


def _key(f) -> str:
    """YAML key of a field: duration fields hold ns and drop their _ns suffix."""
    return f.name.removesuffix("_ns") if f.metadata.get("duration") else f.name


def _accepts(kind: type, m, value) -> bool:
    if isinstance(value, bool) is not (kind is bool):
        return False  # True is an int to Python, not to the schema
    if not isinstance(value, (int, float) if kind is float else kind):
        return False
    if kind is float and not math.isfinite(value):
        return False
    return ((m["minimum"] is None or value >= m["minimum"])
            and (m["maximum"] is None or value <= m["maximum"])
            and (m["above"] is None or value > m["above"])
            and (m["choices"] is None or value in m["choices"]))


def _demand(text: str, m) -> str:
    """What a field's value must be, as error messages and the README say it."""
    if m["duration"]:
        return "a positive duration"
    if m["choices"]:
        return f"one of {m['choices']}"
    if m["above"] is not None:
        return f"{text} > {m['above']}"
    if m["maximum"] is not None:
        return f"{text} in [{m['minimum']}, {m['maximum']}]"
    return text if m["minimum"] is None else f"{text} >= {m['minimum']}"


class _Section:
    """Checks every schema field against its type and constraints, then the
    cross-field rules; float fields given an int hold it as a float."""

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not f.metadata or (value is None and f.default is None):
                continue  # a nested section, or an optional field left unset
            kind, text = _TYPES[f.type]
            if not _accepts(kind, f.metadata, value):
                raise ConfigError(f"{_key(f)} must be {_demand(text, f.metadata)}, "
                                  f"got {value!r}")
            object.__setattr__(self, f.name, kind(value))
        self._check()

    def _check(self) -> None:
        """Cross-field rules; raise ConfigError."""


@dataclass(frozen=True)
class BookSeedConfig(_Section):
    start_price: int = _field(minimum=2)
    half_width: int = _field(minimum=1)
    slope: int = _field(minimum=1)

    def _check(self) -> None:
        if self.start_price - self.half_width < 1:
            raise ConfigError("book seeding would place bids below tick 1")


# Oracle kinds: ``kind`` names one in YAML; oracle.make_series builds its series.
@dataclass(frozen=True)
class ConstantOracle(_Section):
    kind: ClassVar[str] = "constant"
    price: int = _field(minimum=1)


@dataclass(frozen=True)
class RandomWalkOracle(_Section):
    kind: ClassVar[str] = "random_walk"
    start: int = _field(minimum=1)
    sigma: float = _field(minimum=0)
    step_ns: int = _field(minimum=1, duration=True)


@dataclass(frozen=True)
class FileOracle(_Section):
    kind: ClassVar[str] = "from_file"
    path: str = _field()


ORACLE_KINDS = {cls.kind: cls for cls in (ConstantOracle, RandomWalkOracle, FileOracle)}


@dataclass(frozen=True)
class ZiLimitGroup(_Section):
    count: int = _field(minimum=0)
    wake_rate: float = _field(above=0)
    p_cancel: float = _field(0.5, minimum=0, maximum=1)
    mode: str = _field("santa_fe", choices=("santa_fe", "prime"))
    band_low: int = _field(1, minimum=1)      # santa_fe valuation band, inclusive
    band_high: int = _field(100, minimum=2)   # and above band_low
    half_width: int = _field(50, minimum=1)   # prime: valuation offsets +-W off the mid
    size: int = _field(1, minimum=1)

    def _check(self) -> None:
        if self.band_low >= self.band_high:
            raise ConfigError(f"band_low must be below band_high, got "
                              f"{self.band_low} >= {self.band_high}")


@dataclass(frozen=True)
class ZiMarketGroup(_Section):
    count: int = _field(minimum=0)
    wake_rate: float = _field(above=0)
    mode: str = _field("santa_fe", choices=("santa_fe", "darp", "prime"))
    size: int = _field(1, minimum=1)
    noise: int = _field(5, minimum=0)         # prime: observation noise half-width
    darp_p: float = _field(0.9, minimum=0, maximum=1)
    darp_gamma: float = _field(1.5)
    darp_n: int = _field(50, minimum=1)
    darp_literal_branch: bool = _field(False)


@dataclass(frozen=True)
class TechnicalGroup(_Section):
    count: int = _field(minimum=0)
    wake_rate: float = _field(0.5, above=0)
    lookback_ns: int = _field(60 * 10**9, minimum=1, duration=True)
    threshold: int = _field(0, minimum=0)     # dead zone in ticks
    size: int = _field(1, minimum=1)


# agent groups in agent-id order
GROUPS = {"zi_limit": ZiLimitGroup, "zi_market": ZiMarketGroup,
          "trend": TechnicalGroup, "mean_revert": TechnicalGroup}


@dataclass(frozen=True)
class RunConfig(_Section):
    seed: int = _field(minimum=0)
    session_ns: int = _field(minimum=1, duration=True)
    book: BookSeedConfig | None = None
    oracle: ConstantOracle | RandomWalkOracle | FileOracle | None = None
    zi_limit: ZiLimitGroup | None = None
    zi_market: ZiMarketGroup | None = None
    trend: TechnicalGroup | None = None
    mean_revert: TechnicalGroup | None = None
    output: str | None = _field(None)

    def census(self) -> dict[str, int]:
        """Agent head-count per kind (zero for absent groups)."""
        return {name: getattr(self, name).count if getattr(self, name) else 0
                for name in GROUPS}

    def _check(self) -> None:
        market = self.zi_market
        if market and market.mode == "prime" and market.count > 0 and self.oracle is None:
            raise ConfigError("prime-mode market agents require an oracle section")
        if sum(self.census().values()) == 0:
            raise ConfigError("no agents configured")


# ---------------------------------------------------------------- parse / serialize


def _reject_unknown(mapping, allowed, where: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a mapping, got {mapping!r}")
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _parse(cls, mapping, where: str, **sections):
    """Build section cls from a YAML mapping through its fields."""
    specs = {_key(f): f for f in fields(cls) if f.metadata}
    _reject_unknown(mapping, specs, where)
    try:
        for key, f in specs.items():
            if key in mapping:
                value = mapping[key]
                sections[f.name] = parse_duration(value) if f.metadata["duration"] else value
            elif f.default is MISSING:
                raise ConfigError(f"missing required key {key!r}")
        return cls(**sections)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def parse_config(data) -> RunConfig:
    """Validate a parsed YAML mapping into a RunConfig."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    agents = data.get("agents") or {}
    _reject_unknown(agents, GROUPS, "agents")
    sections = {name: _parse(cls, agents[name], f"agents.{name}")
                for name, cls in GROUPS.items() if agents.get(name) is not None}
    if data.get("book") is not None:
        sections["book"] = _parse(BookSeedConfig, data["book"], "book")
    oracle = data.get("oracle")
    if oracle is not None:
        kind = oracle.get("kind") if isinstance(oracle, dict) else None
        if kind not in ORACLE_KINDS:
            raise ConfigError(f"unknown oracle kind {kind!r}; choose from {tuple(ORACLE_KINDS)}")
        params = {k: v for k, v in oracle.items() if k != "kind"}
        sections["oracle"] = _parse(ORACLE_KINDS[kind], params, "oracle")
    top = {k: v for k, v in data.items() if k not in ("book", "oracle", "agents")}
    return _parse(RunConfig, top, "config", **sections)


def to_dict(section) -> dict:
    """Round-trippable mapping of a section; parse_config(to_dict(c)) == c."""
    data = {"kind": section.kind} if hasattr(section, "kind") else {}
    for f in fields(section):
        value = getattr(section, f.name)
        if isinstance(value, _Section):
            value = to_dict(value)
            if f.name in GROUPS:
                data.setdefault("agents", {})[f.name] = value
                continue
        elif value is not None and f.metadata["duration"]:
            value = format_duration(value)
        if value is not None:
            data[_key(f)] = value
    return data


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return loads_config(text)


def loads_config(text: str) -> RunConfig:
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    return parse_config(data)


def dump_config(config: RunConfig) -> str:
    return yaml.safe_dump(to_dict(config), sort_keys=False)


def load_preset(name: str) -> RunConfig:
    """Shipped baseline configurations: santa-fe and prime."""
    normalized = name.replace("_", "-").lower()
    if normalized not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    filename = normalized.replace("-", "_") + ".yaml"
    text = resources.files("primesim.presets").joinpath(filename).read_text()
    return loads_config(text)
