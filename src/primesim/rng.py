"""Buffered facade over numpy Generators for hot scalar draws.

Per-event scalar calls into a Generator cost ~1 microsecond each; agents make
a few per wakeup. This facade keeps the scalar call interface (random,
integers, exponential) but takes the values from vectorized draws.

Determinism contract: each kind of draw (``random``, ``integers`` per
``(low, high)``, ``exponential`` per scale) takes its values from the stream
in blocks of ``BLOCK`` draws, and the next block of a kind is drawn at the call
that finds the previous one used up. A sized draw, ``random(size=k)`` or
``integers(..., size=k)``, passes straight through to the stream. Changing
``BLOCK`` re-splits every agent stream and so changes every simulated output.

A block is reserved on the stream, not held: only its first ``_CHUNK`` values
and the generator state after them are kept, and the rest is read back
``_CHUNK`` values at a time by a cursor generator loaded with that state.
numpy's draws do not depend on how a run of them is split into calls, and
``bit_generator.state`` carries PCG64's buffered 32-bit half that bounded
``integers`` consume, so the cursor reads the values the whole block would
have held. ``tests/test_rng.py`` checks this against whole blocks.
"""

from __future__ import annotations

import functools
from array import array

import numpy as np

BLOCK = 512   # draws per block and kind; part of the determinism contract
_CHUNK = 64   # values held at a time; divides BLOCK. A read costs 2-11 us, so shorter is slower


@functools.cache
def _cursor(bit_generator_type: type) -> np.random.Generator:
    """One process-wide generator per bit-generator type that re-reads reserved blocks.

    Its state is loaded before each read and saved after it, so it carries
    nothing from one read to the next; like the event loop, it is not for use
    from several threads at once.
    """
    return np.random.Generator(bit_generator_type())


class _Reservation:
    """One kind's current block: the chunk in hand and the state to read the rest from."""

    __slots__ = ("method", "args", "chunk", "pos", "state", "chunks_left")

    def __init__(self, method: str, args: tuple):
        self.method = method
        self.args = args
        self.chunk = None
        self.pos = _CHUNK
        self.state = None
        self.chunks_left = 0

    def refill(self, gen: np.random.Generator) -> None:
        """Read the next chunk of the block, reserving a new block once this one is used up.

        The caller restarts ``pos`` at 0.
        """
        if self.chunks_left:
            cursor = _cursor(type(gen.bit_generator))
            cursor.bit_generator.state = self.state
            values = getattr(cursor, self.method)(*self.args, size=_CHUNK)
            self.chunks_left -= 1
            self.state = cursor.bit_generator.state if self.chunks_left else None
        else:
            draw = getattr(gen, self.method)
            values = draw(*self.args, size=_CHUNK)
            self.state = gen.bit_generator.state
            draw(*self.args, size=BLOCK - _CHUNK)
            self.chunks_left = BLOCK // _CHUNK - 1
        # a plain array indexes straight to Python floats and ints, faster than numpy
        self.chunk = array(values.dtype.char, values.tobytes())


class BatchedRng:
    """Drop-in for the Generator methods the agents use, drawn in blocks."""

    def __init__(self, generator: np.random.Generator):
        self._gen = generator
        self._random = _Reservation("random", ())
        self._ints: dict[tuple[int, int], _Reservation] = {}
        self._exps: dict[float, _Reservation] = {}

    def random(self, size: int | None = None):
        if size is not None:
            return self._gen.random(size)
        r = self._random
        pos = r.pos
        if pos == _CHUNK:
            r.refill(self._gen)
            pos = 0
        r.pos = pos + 1
        return r.chunk[pos]

    def integers(self, low: int, high: int, size: int | None = None):
        if size is not None:
            return self._gen.integers(low, high, size=size)
        r = self._ints.get((low, high))
        if r is None:
            r = self._ints[low, high] = _Reservation("integers", (low, high))
        pos = r.pos
        if pos == _CHUNK:
            r.refill(self._gen)
            pos = 0
        r.pos = pos + 1
        return r.chunk[pos]

    def exponential(self, scale: float) -> float:
        r = self._exps.get(scale)
        if r is None:
            r = self._exps[scale] = _Reservation("exponential", (scale,))
        pos = r.pos
        if pos == _CHUNK:
            r.refill(self._gen)
            pos = 0
        r.pos = pos + 1
        return r.chunk[pos]
