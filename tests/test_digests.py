"""Cross-version determinism: pinned SHA-256 digests of short preset runs.

Each digest is of a file written by ``primesim simulate <preset> --session 5m
--seed 1``. A change that alters any replay file fails here; a change meant
to alter outputs re-pins these digests and says so.
"""

import hashlib

import pytest

from primesim.cli import cli
from primesim.config import dump_config, load_preset

PINNED = {
    "prime": {
        "trades.csv": "8baf2a3af3c13fd28186326305a8c884eaea27557a05e3d7fc3c9b1d863db6e0",
        "l1.csv": "129a77ad66feb444701cb374fb1851b4fbd214de1d06661992f0af1fd1e00cdc",
        "summary.txt": "cdf6cffe8deb54624f30c7cea725adaa2f77e9dc37a3b828c7db45fd340876fb",
    },
    "santa-fe": {
        "trades.csv": "8c92199931db357871c5ad9a4aab005a51a48613bc6a231bb20530b0b53f57d8",
        "l1.csv": "61a407e0c5595bcb295d08346d07367e0f7e84b244b53acb715008f5b31f80a8",
        "summary.txt": "26e6e090bd0cb2b4a58a0220cb2e1a8e946d43a62ad21777475012d1e2056309",
    },
}


@pytest.mark.parametrize("preset", sorted(PINNED))
def test_five_minute_run_matches_pinned_digests(preset, tmp_path):
    out = tmp_path / "run"
    assert cli(["simulate", preset, "--session", "5m", "--seed", "1", "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PINNED[preset]}
    assert got == PINNED[preset]


# A 2 min run of a small ecology the preset digests do not cover: darp-mode
# market agents, a constant oracle, both technical groups, and non-default
# values for every group field that a wiring slip could drop.
GUARD_CONFIG = """\
seed: 3
session: 2m
book: {start_price: 1000, half_width: 50, slope: 2}
oracle: {kind: constant, price: 1000}
agents:
  zi_limit: {count: 100, wake_rate: 1.0, p_cancel: 0.4, mode: prime, half_width: 30, size: 2}
  zi_market: {count: 10, wake_rate: 0.5, mode: darp, size: 3, darp_p: 0.8, darp_gamma: 1.3,
              darp_n: 20, darp_literal_branch: true}
  trend: {count: 5, wake_rate: 1.0, lookback: 10s, threshold: 1, size: 2}
  mean_revert: {count: 5, wake_rate: 0.5, lookback: 20s}
"""

GUARD_PINNED = {
    "trades.csv": "8e3a0bfb02b8e0ba7cc6bca8e134472d7591201056fbaf3bb17968b985e60fd9",
    "l1.csv": "ec04aaff177f43ffb1b350ad7883769b38bd6dc5be0f5556557e2e31696f614d",
    "summary.txt": "440246c39e9a93d504c257db939f3c714ad55661368bfe9df7ca8f6a5c7b821f",
}


def test_darp_constant_oracle_run_matches_pinned_digests(tmp_path):
    config = tmp_path / "guard.yaml"
    config.write_text(GUARD_CONFIG)
    out = tmp_path / "run"
    assert cli(["simulate", str(config), "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GUARD_PINNED}
    assert got == GUARD_PINNED


# dump_config(load_preset(name)), byte for byte: the config.yaml a run
# directory records, which replay reads back.
PRESET_DUMPS = {
    "prime": """\
seed: 1
session: 1h
book:
  start_price: 1000
  half_width: 50
  slope: 2
oracle:
  kind: random_walk
  start: 1000
  sigma: 1.0
  step: 5s
agents:
  zi_limit:
    count: 1000
    wake_rate: 0.4
    p_cancel: 0.5
    mode: prime
    band_low: 1
    band_high: 100
    half_width: 50
    size: 1
  zi_market:
    count: 30
    wake_rate: 0.5
    mode: prime
    size: 1
    noise: 5
    darp_p: 0.9
    darp_gamma: 1.5
    darp_n: 50
    darp_literal_branch: false
  trend:
    count: 10
    wake_rate: 1.0
    lookback: 30s
    threshold: 0
    size: 1
  mean_revert:
    count: 10
    wake_rate: 0.5
    lookback: 1m
    threshold: 0
    size: 1
""",
    "santa-fe": """\
seed: 1
session: 1h
book:
  start_price: 500
  half_width: 200
  slope: 3
agents:
  zi_limit:
    count: 1000
    wake_rate: 0.2
    p_cancel: 0.5
    mode: santa_fe
    band_low: 1
    band_high: 1000
    half_width: 50
    size: 1
  zi_market:
    count: 30
    wake_rate: 0.1
    mode: santa_fe
    size: 4
    noise: 5
    darp_p: 0.9
    darp_gamma: 1.5
    darp_n: 50
    darp_literal_branch: false
""",
}


@pytest.mark.parametrize("preset", sorted(PRESET_DUMPS))
def test_preset_dump_is_byte_identical(preset):
    assert dump_config(load_preset(preset)) == PRESET_DUMPS[preset]
