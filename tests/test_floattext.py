"""The CSV writer against repr(): random bit patterns and the hard families."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conegeo.floattext import block_text


def _repr_misses(values, cols=4):
    """(repr, written) of every value, of either sign, that block_text writes otherwise."""
    values = np.asarray(values, dtype=np.float64).ravel()
    values = np.concatenate([values, -values])
    block = np.concatenate([values, np.zeros(-values.size % cols)]).reshape(-1, cols)
    text = block_text(block)
    assert text.endswith("\n") and text.count("\n") == block.shape[0]
    written = text.replace("\n", ",").split(",")[:-1]
    want = [repr(v) for v in block.ravel().tolist()]
    assert len(written) == len(want)
    return [(r, w) for r, w in zip(want, written) if r != w]


def _with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_block_text_is_repr_of_random_bit_patterns(patterns):
    # every 64-bit pattern is a double: NaNs, infinities and subnormals included
    assert _repr_misses(np.array(patterns, dtype=np.uint64).view(np.float64)) == []


def test_block_text_is_repr_of_a_seeded_bit_pattern_sample():
    # about one value in 2,000 is an exact tie between two shortest decimals
    rng = np.random.default_rng(23)
    patterns = np.frombuffer(rng.bytes(8 * 2**17), dtype=np.uint64)
    assert _repr_misses(patterns.view(np.float64)) == []


@pytest.mark.parametrize("family", [
    "powers of two", "powers of ten", "subnormal mantissas", "integers near 2^53",
    "layout switches"])
def test_block_text_is_repr_of_each_family(family):
    values = {
        # a power of two's lower neighbour is half as far as its upper one
        "powers of two": [0.0, *_with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024)))],
        "powers of ten": _with_neighbours([float(f"1e{n}") for n in range(-323, 309)]),
        "subnormal mantissas": np.arange(1, 10**4 + 1, dtype=np.uint64).view(np.float64),
        "integers near 2^53": np.arange(2.0**53 - 1000, 2.0**53 + 1000),
        # repr writes an exponent where the point position is at most -4 or above 16
        "layout switches": [1e-4, 9.999e-5, 1e16, 9999999999999998.0, 1e100, 1e-100,
                            0.001234, 123456789012345.6, 5e-324, np.inf, np.nan],
    }[family]
    assert _repr_misses(values) == []


@pytest.mark.parametrize("cols", [1, 3, 4])
def test_block_text_ends_rows_with_newline(cols):
    block = np.arange(6.0 * cols).reshape(6, cols) / 8
    assert block_text(block).splitlines() == [
        ",".join(repr(v) for v in row) for row in block.tolist()]
