"""Buffered facade over numpy Generators for hot scalar draws.

Per-event scalar calls into a Generator cost ~1 microsecond each; agents make
a few per wakeup. This facade keeps the scalar call interface (random,
integers, exponential) but refills from vectorized draws in blocks,
preserving determinism for a fixed underlying stream.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 512


class BatchedRng:
    """Drop-in for the Generator methods the agents use, drawn in blocks."""

    def __init__(self, generator: np.random.Generator, block: int = _BLOCK):
        self._gen = generator
        self._block = block
        self._random = np.empty(0)
        self._random_pos = 0
        self._int_buffers: dict[tuple[int, int], tuple[np.ndarray, int]] = {}
        self._exp_buffers: dict[float, tuple[np.ndarray, int]] = {}

    def random(self) -> float:
        if self._random_pos >= self._random.size:
            self._random = self._gen.random(self._block)
            self._random_pos = 0
        value = self._random[self._random_pos]
        self._random_pos += 1
        return float(value)

    def integers(self, low: int, high: int, size: int | None = None):
        if size is not None:
            return self._gen.integers(low, high, size=size)
        key = (low, high)
        buf, pos = self._int_buffers.get(key, (None, 0))
        if buf is None or pos >= buf.size:
            buf = self._gen.integers(low, high, size=self._block)
            pos = 0
        self._int_buffers[key] = (buf, pos + 1)
        return int(buf[pos])

    def exponential(self, scale: float) -> float:
        buf, pos = self._exp_buffers.get(scale, (None, 0))
        if buf is None or pos >= buf.size:
            buf = self._gen.exponential(scale, size=self._block)
            pos = 0
        self._exp_buffers[scale] = (buf, pos + 1)
        return float(buf[pos])
