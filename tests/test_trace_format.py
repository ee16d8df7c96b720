"""The vectorised trace CSV writer against Python's own ``%.17g``.

``write_trace_csv`` formats whole blocks of rows in numpy; every byte must
match ``tests/trace_reference.py::write_trace_csv_per_cell``, which calls
``format(v, '.17g')`` on each cell.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvgec.montecarlo import _BLOCK_ROWS, TraceRecord, write_trace_csv

from trace_reference import write_trace_csv_per_cell


def both(records):
    new, ref = io.StringIO(), io.StringIO()
    write_trace_csv(records, new)
    write_trace_csv_per_cell(records, ref)
    return new.getvalue(), ref.getvalue()


def assert_same_bytes(values, stage="input", quadrature="X"):
    values = np.asarray(values, dtype=float)
    new, ref = both([TraceRecord(stage, quadrature, values, 0)])
    if new != ref:
        bad = [(a, b) for a, b in zip(new.splitlines(), ref.splitlines()) if a != b]
        pytest.fail(f"{len(bad)} rows differ, first {bad[:3]}")


def cells(values):
    buf = io.StringIO()
    write_trace_csv([TraceRecord("s", "X", values, 0)], buf)
    return [line.rsplit(",", 1)[1] for line in buf.getvalue().splitlines()[1:]]


def from_bits(bits):
    values = np.asarray(bits, dtype=np.uint64).view(np.float64)
    return values[np.isfinite(values)]


class TestEdges:
    def test_ties_round_half_even(self):
        assert cells([1000000000000000.25, 1000000000000000.75, -1000000000000000.25]) == [
            "1000000000000000.2",
            "1000000000000000.8",
            "-1000000000000000.2",
        ]

    def test_both_sides_of_every_power_of_ten(self):
        values = []
        for k in range(-4, 18):
            p = 10.0**k
            values += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
        values = np.array(values)
        assert_same_bytes(np.concatenate([values, -values]))
        assert cells([1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e17, 0.0), 1e17]) == [
            "0.0001",
            "9.9999999999999991e-05",
            "99999999999999984",
            "1e+17",
        ]

    def test_zeros_subnormals_and_extremes(self):
        values = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308]
        values += [1.7976931348623157e308, -1.7976931348623157e308, 0.1, -1.0 / 3.0]
        assert_same_bytes(values)
        assert cells([-0.0, 5e-324, -1.7976931348623157e308]) == [
            "-0",
            "4.9406564584124654e-324",
            "-1.7976931348623157e+308",
        ]

    def test_trailing_zeros_and_integers(self):
        values = [1.0, 10.0, 100.5, 0.5, 0.25, 1234.0, 2.0**53, 2.0**53 + 2, 0.000125, 1e16]
        assert_same_bytes(values)
        assert cells([1.0, 100.5, 0.000125, 1e16]) == ["1", "100.5", "0.000125", "10000000000000000"]

    @pytest.mark.parametrize(
        "n", [1, 2, 3, 9, 10, 11, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1]
    )
    def test_record_lengths(self, n):
        rng = np.random.default_rng(n)
        assert_same_bytes(rng.normal(0.0, 3.0, n))

    def test_prefix_is_written_verbatim(self):
        assert_same_bytes([1.5, -2.0, 0.0], stage="100%", quadrature="é,%d")

    def test_empty_and_mixed_records(self):
        records = [
            TraceRecord("input", "X", [], 0),
            TraceRecord("input", "P", [3.0, 1e-300], 0),
            TraceRecord("corrected", "X", np.arange(12345.0) / 7.0, 0),
        ]
        new, ref = both(records)
        assert new == ref


def test_million_random_bit_patterns():
    """1e6 doubles with uniform sign and mantissa bits and binary exponents
    from 2**-14 to 2**58, so both sides of both fixed-notation bounds."""
    rng = np.random.default_rng(20240607)
    n = 1_000_000
    sign = rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    exponent = rng.integers(1023 - 14, 1023 + 58, n).astype(np.uint64) << np.uint64(52)
    mantissa = rng.integers(0, 2**52, n, dtype=np.uint64)
    values = from_bits(sign | exponent | mantissa)
    assert cells(values) == ["%.17g" % v for v in values.tolist()]


finite = st.floats(allow_nan=False, allow_infinity=False)
fixed_range = st.floats(min_value=1e-4, max_value=1e17, exclude_max=True)


@settings(max_examples=200, deadline=None)
@given(st.lists(finite, min_size=1, max_size=40))
def test_arbitrary_floats(values):
    assert_same_bytes(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(fixed_range, st.booleans()), min_size=1, max_size=40))
def test_fixed_notation_range(pairs):
    assert_same_bytes([-v if neg else v for v, neg in pairs])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_raw_bit_patterns(bits):
    values = from_bits(bits)
    assert cells(values) == [format(v, ".17g") for v in values]
