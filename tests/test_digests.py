"""Cross-version determinism: pinned SHA-256 digests of short preset runs.

Each digest is of a file written by ``primesim simulate <preset> --session 5m
--seed 1``. A change that alters any replay file fails here; a change meant
to alter outputs re-pins these digests and says so.
"""

import hashlib

import pytest

from primesim.cli import cli

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
