"""Buffered facade over a PCG64 stream for hot scalar draws.

Per-event scalar calls into a Generator cost ~1 microsecond each; agents make
a few per wakeup. This facade keeps the scalar call interface (random,
integers, exponential) but takes the values from vectorized draws.

Determinism contract: each kind of draw (``random``, ``integers`` per
``(low, high)``, ``exponential`` per scale) takes its values from the stream
in blocks of ``BLOCK`` draws, and the next block of a kind is drawn at the call
that finds the previous one used up. A sized draw, ``random(size=k)`` or
``integers(..., size=k)``, passes straight through to the stream. Changing
``BLOCK`` re-splits every agent stream and so changes every simulated output.

A facade keeps no Generator. It holds its stream as a packed PCG64 state,
``(state, has_uint32, uinteger)`` plus the stream's ``inc``, and draws through
one process-wide cursor generator loaded with that state and saved back after
the draw. A block is reserved on the stream, not held: only its first
``_CHUNK`` values and the packed state after them are kept, and the rest is
read back ``_CHUNK`` values at a time through the same cursor. numpy's draws do
not depend on how a run of them is split into calls, and the state carries
PCG64's buffered 32-bit half that bounded ``integers`` consume, so the cursor
reads the values the whole block would have held. An ``integers`` chunk is
kept in the narrowest ``array`` typecode that holds its ``[low, high)``.
``tests/test_rng.py`` checks all this against whole blocks.
"""

from __future__ import annotations

import functools
from array import array

import numpy as np

BLOCK = 512   # draws per block and kind; part of the determinism contract
_CHUNK = 64   # values held at a time; divides BLOCK. A read costs 2-11 us, so shorter is slower


@functools.cache
def _cursor() -> np.random.Generator:
    """The one process-wide generator that every facade draws through.

    Its state is loaded before each draw and saved after it, so it carries
    nothing from one draw to the next; like the event loop, it is not for use
    from several threads at once. It is made at first use, so importing this
    module does not import ``numpy.random``.
    """
    return np.random.Generator(np.random.PCG64())


def _state_dict(inc: int, packed: tuple[int, int, int]) -> dict:
    """A packed state in ``bit_generator.state`` form."""
    state, has_uint32, uinteger = packed
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": has_uint32, "uinteger": uinteger}


def _pack(state: dict) -> tuple[int, int, int]:
    return state["state"]["state"], state["has_uint32"], state["uinteger"]


def _load(inc: int, packed: tuple[int, int, int]) -> np.random.Generator:
    cursor = _cursor()
    cursor.bit_generator.state = _state_dict(inc, packed)
    return cursor


def _int_typecode(low: int, high: int) -> str:
    """The narrowest ``array`` typecode whose range holds ``[low, high)``."""
    for code in "bhi":
        bound = 1 << (8 * array(code).itemsize - 1)
        if -bound <= low and high <= bound:
            return code
    return "q"


class _Reservation:
    """One kind's current block: the chunk in hand and the packed state to read the rest from."""

    __slots__ = ("method", "args", "typecode", "chunk", "pos", "state", "chunks_left")

    def __init__(self, method: str, args: tuple, typecode: str = "d"):
        self.method = method
        self.args = args
        self.typecode = typecode
        self.chunk = None
        self.pos = _CHUNK
        self.state = None
        self.chunks_left = 0


class BatchedRng:
    """Drop-in for the Generator methods the agents use, drawn in blocks.

    Takes over the stream of a PCG64 ``generator``: it reads the state once
    and keeps no reference to the generator, which it does not advance.
    """

    __slots__ = ("_inc", "_stream", "_random", "_ints", "_exps")

    def __init__(self, generator: np.random.Generator):
        bit_generator = generator.bit_generator
        if not isinstance(bit_generator, np.random.PCG64):
            raise TypeError(f"BatchedRng needs a PCG64 stream, got {type(bit_generator).__name__}")
        state = bit_generator.state
        self._inc = state["state"]["inc"]
        self._stream = _pack(state)
        self._random = _Reservation("random", ())
        self._ints: dict[tuple[int, int], _Reservation] = {}
        self._exps: dict[float, _Reservation] = {}

    @property
    def state(self) -> dict:
        """The stream's state in ``bit_generator.state`` form: where its next block or
        sized draw starts."""
        return _state_dict(self._inc, self._stream)

    def _refill(self, r: _Reservation) -> None:
        """Read r's next chunk, reserving a new block on the stream once r's is used up.

        The caller restarts ``r.pos`` at 0.
        """
        if r.chunks_left:
            cursor = _load(self._inc, r.state)
            values = getattr(cursor, r.method)(*r.args, size=_CHUNK)
            r.chunks_left -= 1
            r.state = _pack(cursor.bit_generator.state) if r.chunks_left else None
        else:
            cursor = _load(self._inc, self._stream)
            draw = getattr(cursor, r.method)
            values = draw(*r.args, size=_CHUNK)
            r.state = _pack(cursor.bit_generator.state)
            draw(*r.args, size=BLOCK - _CHUNK)
            self._stream = _pack(cursor.bit_generator.state)
            r.chunks_left = BLOCK // _CHUNK - 1
        # a plain array indexes straight to Python floats and ints, faster than numpy
        r.chunk = array(r.typecode, values.astype(r.typecode, copy=False).tobytes())

    def _sized(self, method: str, args: tuple, size):
        cursor = _load(self._inc, self._stream)
        values = getattr(cursor, method)(*args, size=size)
        self._stream = _pack(cursor.bit_generator.state)
        return values

    def random(self, size: int | None = None):
        if size is not None:
            return self._sized("random", (), size)
        r = self._random
        pos = r.pos
        if pos == _CHUNK:
            self._refill(r)
            pos = 0
        r.pos = pos + 1
        return r.chunk[pos]

    def integers(self, low: int, high: int, size: int | None = None):
        if size is not None:
            return self._sized("integers", (low, high), size)
        r = self._ints.get((low, high))
        if r is None:
            r = self._ints[low, high] = _Reservation("integers", (low, high),
                                                     _int_typecode(low, high))
        pos = r.pos
        if pos == _CHUNK:
            self._refill(r)
            pos = 0
        r.pos = pos + 1
        return r.chunk[pos]

    def exponential(self, scale: float) -> float:
        r = self._exps.get(scale)
        if r is None:
            r = self._exps[scale] = _Reservation("exponential", (scale,))
        pos = r.pos
        if pos == _CHUNK:
            self._refill(r)
            pos = 0
        r.pos = pos + 1
        return r.chunk[pos]
