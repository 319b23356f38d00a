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

A facade keeps no Generator. It holds its stream's ``inc`` and its state packed
in one int, ``state | has_uint32 << 128 | uinteger << 129``, and draws through
one process-wide cursor generator loaded with that state and saved back after
the draw. A block is reserved, not held: only its first ``_CHUNK`` values and
the packed state after them are kept; the rest is read back ``_CHUNK`` at a
time. numpy's draws do not depend on how a run of them is split into calls, and
the state carries PCG64's buffered 32-bit half that bounded ``integers``
consume, so the cursor reads the values the whole block would have held. An
``integers`` chunk is kept in the narrowest ``array`` typecode that holds its
``[low, high)``. ``tests/test_rng.py`` checks all this against whole blocks.
"""

from __future__ import annotations

import functools
from array import array

import numpy as np

BLOCK = 512   # draws per block and kind; part of the determinism contract
_CHUNK = 64   # values held at a time; divides BLOCK. A read costs 2-11 us, so shorter is slower
_STATE_MASK = (1 << 128) - 1


@functools.cache
def _cursor() -> np.random.Generator:
    """The one process-wide generator that every facade draws through.

    Its state is loaded before each draw and saved after it, so it carries
    nothing from one draw to the next; like the event loop, it is not for use
    from several threads at once. It is made at first use, so importing this
    module does not import ``numpy.random``.
    """
    return np.random.Generator(np.random.PCG64())


def _state_dict(inc: int, packed: int) -> dict:
    """A packed state in ``bit_generator.state`` form."""
    return {"bit_generator": "PCG64", "state": {"state": packed & _STATE_MASK, "inc": inc},
            "has_uint32": packed >> 128 & 1, "uinteger": packed >> 129}


def _pack(state: dict) -> int:
    return state["state"]["state"] | state["has_uint32"] << 128 | state["uinteger"] << 129


def _load(inc: int, packed: int) -> np.random.Generator:
    cursor = _cursor()
    cursor.bit_generator.state = _state_dict(inc, packed)
    return cursor


@functools.cache
def _kind(method: str, args: tuple) -> tuple[str, tuple, str]:
    """The ``(method, args, array typecode)`` shared by every reservation of one kind of
    draw. An ``integers`` kind takes the narrowest typecode that holds ``[low, high)``."""
    codes = "bhiq" if method == "integers" else "d"  # the last one holds any range
    for code in codes[:-1]:
        bound = 1 << (8 * array(code).itemsize - 1)
        if -bound <= args[0] and args[1] <= bound:
            return method, args, code
    return method, args, codes[-1]


class _Reservation:
    """One kind's current block: the chunk in hand and the packed state to read the rest from."""

    __slots__ = ("kind", "chunk", "pos", "state", "chunks_left")

    def __init__(self, kind: tuple[str, tuple, str]):
        self.kind = kind
        self.chunk = self.state = None
        self.pos = _CHUNK
        self.chunks_left = 0


class BatchedRng:
    """Drop-in for the Generator methods the agents use, drawn in blocks.

    Takes over the stream of a PCG64 ``generator``: it reads the state once
    and keeps no reference to the generator, which it does not advance.
    """

    __slots__ = ("_inc", "_stream", "_random", "_int", "_exp", "_more")

    def __init__(self, generator: np.random.Generator):
        bit_generator = generator.bit_generator
        if not isinstance(bit_generator, np.random.PCG64):
            raise TypeError(f"BatchedRng needs a PCG64 stream, got {type(bit_generator).__name__}")
        state = bit_generator.state
        self._inc = state["state"]["inc"]
        self._stream = _pack(state)
        self._random = _Reservation(_kind("random", ()))
        # the first integers range and exponential scale; the dict of further ones, by kind
        self._int = self._exp = self._more = None

    @property
    def state(self) -> dict:
        """The stream's state in ``bit_generator.state`` form: where its next block or
        sized draw starts."""
        return _state_dict(self._inc, self._stream)

    def _other(self, slot: str, method: str, args: tuple) -> _Reservation:
        """A reservation ``slot`` does not hold: in the slot if empty, else in the fallback dict."""
        kind = _kind(method, args)
        if getattr(self, slot) is None:
            setattr(self, slot, _Reservation(kind))
            return getattr(self, slot)
        self._more = more = self._more or {}
        return more.get(kind) or more.setdefault(kind, _Reservation(kind))

    def _refill(self, r: _Reservation):
        """Read r's next chunk, reserving a new block once r's is used up; take its first value."""
        method, args, typecode = r.kind
        fresh = not r.chunks_left
        cursor = _load(self._inc, self._stream if fresh else r.state)
        draw = getattr(cursor, method)
        values = draw(*args, size=_CHUNK)
        r.chunks_left = BLOCK // _CHUNK - 1 if fresh else r.chunks_left - 1
        r.state = _pack(cursor.bit_generator.state) if r.chunks_left else None
        if fresh:
            draw(*args, size=BLOCK - _CHUNK)
            self._stream = _pack(cursor.bit_generator.state)
        # a plain array indexes straight to Python floats and ints, faster than numpy
        r.chunk = array(typecode, values.astype(typecode, copy=False).tobytes())
        r.pos = 1
        return r.chunk[0]

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
            return self._refill(r)
        r.pos = pos + 1
        return r.chunk[pos]

    def integers(self, low: int, high: int, size: int | None = None):
        if size is not None:
            return self._sized("integers", (low, high), size)
        r = self._int
        if r is None or r.kind[1] != (low, high):
            r = self._other("_int", "integers", (low, high))
        pos = r.pos
        if pos == _CHUNK:
            return self._refill(r)
        r.pos = pos + 1
        return r.chunk[pos]

    def exponential(self, scale: float) -> float:
        r = self._exp
        if r is None or r.kind[1] != (scale,):
            r = self._other("_exp", "exponential", (scale,))
        pos = r.pos
        if pos == _CHUNK:
            return self._refill(r)
        r.pos = pos + 1
        return r.chunk[pos]
