"""BatchedRng against the array-block reference: same values, same stream, less memory."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import BlockRng

from primesim.rng import BLOCK, BatchedRng

# One entry per kind of scalar draw the agents make, plus the size= pass-throughs
# a darp market agent makes: its history bits and its blocks of lag and flip
# uniforms. The integer ranges cover a negative low (as oracle.observe draws),
# a span wider than 2**32, which numpy draws from 64 bits, not 32, and ranges
# on each edge of the typecodes an integer chunk is held in.
KINDS = {
    "random": lambda r, n: r.random(),
    "observe_noise": lambda r, n: r.integers(-5, 6),
    "band": lambda r, n: r.integers(1, 101),
    "wide": lambda r, n: r.integers(-3, 2**40),
    "int8_full": lambda r, n: r.integers(-128, 128),
    "int8_over": lambda r, n: r.integers(-129, 128),
    "int16_over": lambda r, n: r.integers(0, 2**15 + 1),
    "int32_full": lambda r, n: r.integers(-2**31, 2**31),
    "wakeup": lambda r, n: r.exponential(2.5),
    "wakeup_slow": lambda r, n: r.exponential(40.0),
    "darp_bits": lambda r, n: r.integers(0, 2, size=n),
    "darp_uniforms": lambda r, n: r.random(size=n),
}
SIZED_KINDS = ("darp_bits", "darp_uniforms")
SCALAR_KINDS = [k for k in KINDS if k not in SIZED_KINDS]


def run_script(rng, script):
    """Every value the script draws, in call order, as (kind, value) pairs."""
    out = []
    for kind, n in script:
        draw = KINDS[kind]
        for _ in range(1 if kind in SIZED_KINDS else n):
            out.append((kind, draw(rng, n)))
    return out


def topped_up(script, draws=3 * BLOCK + 1, step=37):
    """The script, then interleaved runs of each scalar kind until each crossed three blocks."""
    counts = dict.fromkeys(SCALAR_KINDS, 0)
    for kind, n in script:
        if kind in counts:
            counts[kind] += n
    script = list(script)
    while any(c < draws for c in counts.values()):
        for kind in SCALAR_KINDS:
            n = min(step, max(0, draws - counts[kind]))
            if n:
                script.append((kind, n))
                counts[kind] += n
    return script


segments = st.lists(st.tuples(st.sampled_from(sorted(KINDS)), st.integers(1, 300)), max_size=30)


class TestMatchesBlockReference:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), script=segments)
    def test_same_values_and_end_state(self, seed, script):
        script = topped_up(script)
        rng, ref_gen = BatchedRng(np.random.default_rng(seed)), np.random.default_rng(seed)
        got = run_script(rng, script)
        want = run_script(BlockRng(ref_gen), script)
        assert len(got) == len(want)
        for (kind, a), (_, b) in zip(got, want):
            assert type(a) is type(b), kind
            if kind in SIZED_KINDS:
                np.testing.assert_array_equal(a, b)
            else:
                assert a == b, kind
        assert rng.state == ref_gen.bit_generator.state

    def test_blocks_are_drawn_when_the_reference_draws_them(self):
        ref_gen = np.random.default_rng(7)
        rng, ref = BatchedRng(np.random.default_rng(7)), BlockRng(ref_gen)
        for i in range(2 * BLOCK + 1):
            assert rng.integers(-5, 6) == ref.integers(-5, 6)
            assert rng.state == ref_gen.bit_generator.state, i

    def test_further_ranges_and_scales_match_the_reference(self):
        # the first range and scale have their own slots; the second of each
        # goes into the facade's fallback dict
        draws = (lambda r: r.integers(1, 101), lambda r: r.exponential(2.5),
                 lambda r: r.integers(-5, 6), lambda r: r.exponential(40.0))
        ref_gen = np.random.default_rng(11)
        rng, ref = BatchedRng(np.random.default_rng(11)), BlockRng(ref_gen)
        for i in range(2 * BLOCK + 1):
            for draw in draws:
                assert draw(rng) == draw(ref), i
        assert rng.state == ref_gen.bit_generator.state

    @pytest.mark.parametrize(("low", "high", "typecode"), [
        (-128, 128, "b"), (-129, 128, "h"), (0, 128, "b"), (0, 129, "h"),
        (-2**15, 2**15, "h"), (0, 2**15 + 1, "i"), (-2**31, 2**31, "i"),
        (-2**31 - 1, 0, "q"), (-3, 2**40, "q"),
    ])
    def test_integer_chunks_take_the_narrowest_typecode_of_the_range(self, low, high, typecode):
        rng, ref = BatchedRng(np.random.default_rng(3)), BlockRng(np.random.default_rng(3))
        for _ in range(BLOCK + 1):
            a, b = rng.integers(low, high), ref.integers(low, high)
            assert type(a) is int and a == b
        assert rng._int.chunk.typecode == typecode

    def test_the_given_generator_is_read_not_advanced(self):
        gen = np.random.default_rng(5)
        before = gen.bit_generator.state
        rng = BatchedRng(gen)
        assert rng.state == before
        rng.random(), rng.integers(0, 9), rng.random(size=3)
        assert gen.bit_generator.state == before
        assert rng.state != before

    def test_a_stream_other_than_pcg64_is_rejected(self):
        with pytest.raises(TypeError, match="PCG64"):
            BatchedRng(np.random.Generator(np.random.MT19937(0)))


def retained_bytes(factory, n=20):
    """Mean bytes one facade and its stream keep after drawing from all three kinds."""

    def draw_all(rng):
        for _ in range(BLOCK // 2 + 1):
            rng.random()
            rng.integers(1, 101)
            rng.exponential(2.5)

    draw_all(factory(np.random.default_rng(0)))   # one-time allocations stay outside
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rngs = [factory(np.random.default_rng(seed)) for seed in range(1, n + 1)]
        for rng in rngs:
            draw_all(rng)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / n


class TestMemory:
    def test_retains_at_most_a_sixth_of_the_block_reference(self):
        batched, blocks = retained_bytes(BatchedRng), retained_bytes(BlockRng)
        assert batched <= blocks / 6, (batched, blocks)
