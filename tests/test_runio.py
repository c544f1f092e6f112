"""write_table against the per-value writer it replaced, byte for byte."""

import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcalc import runio
from gcalc.runio import write_table


def _ref_format(v):
    """Reference: one isinstance dispatch per value, as CSV values were
    formatted before rows were formatted whole."""
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def _ref_table(header, rows, comments=()):
    fh = io.StringIO()
    for line in comments:
        fh.write(f"# {line}\n")
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(_ref_format(v) for v in row) + "\n")
    return fh.getvalue()


def _table(header, rows, comments=()):
    fh = io.StringIO()
    write_table(fh, header, rows, comments)
    return fh.getvalue()


def _assert_same_text(got, want):
    """got == want, reported at the first differing line: pytest's diff of
    two texts of thousands of differing lines takes minutes to build."""
    a, b = got.splitlines(True), want.splitlines(True)
    for i, (x, y) in enumerate(zip(a, b)):
        assert (i, x) == (i, y)
    assert len(a) == len(b)


EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
         1e-310, 1e16, 1e17, float(2 ** 53 + 1), 1e300, -1e300, 0.1, 1 / 3]

floats = st.sampled_from(EDGES) | st.floats(allow_nan=True, allow_infinity=True)
values = st.one_of(
    floats,
    floats.map(np.float64),
    floats.map(lambda v: np.float32(v) if math.isnan(v) or abs(v) < 3e38 else np.float32(0.5)),
    st.integers(-2 ** 70, 2 ** 70) | st.sampled_from([0, -1, 2 ** 53 + 1]),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.text(max_size=8),
)


class TestAgainstPerValueWriter:
    @given(st.lists(st.lists(values, min_size=1, max_size=6), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_mixed_rows_bytewise(self, rows):
        header = ["c"] * max((len(r) for r in rows), default=1)
        _assert_same_text(_table(header, rows, ["seed=1"]), _ref_table(header, rows, ["seed=1"]))

    @given(st.lists(st.tuples(st.integers(0, 10 ** 6), st.sampled_from(["t", "x1"]), values),
                    max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_long_format_rows_bytewise(self, rows):
        header = ["row", "variable", "value"]
        _assert_same_text(_table(header, rows), _ref_table(header, rows))

    def test_every_edge_value_in_every_float_type(self):
        rows = [(v, np.float64(v), np.float32(v) if abs(v) < 3e38 else np.float32(v / 1e300))
                for v in EDGES]
        _assert_same_text(_table(["a", "b", "c"], rows), _ref_table(["a", "b", "c"], rows))

    def test_2d_ndarray_rows(self):
        rows = np.array([EDGES[:8], EDGES[8:]])
        _assert_same_text(_table(["v"] * 8, rows), _ref_table(["v"] * 8, rows))

    def test_zero_rows(self):
        for rows in ([], np.empty((0, 3))):
            assert _table(["a", "b", "c"], rows, ["x=1"]) == "# x=1\na,b,c\n"

    @pytest.mark.parametrize("n", [runio._CHUNK - 1, runio._CHUNK, runio._CHUNK + 1,
                                   2 * runio._CHUNK + 1])
    def test_row_counts_around_the_chunk_size(self, n):
        rng = np.random.default_rng(n)
        rows = [(i, f"p{i % 3}", x, i % 2 == 0) for i, x in enumerate(rng.standard_normal(n))]
        text = _table(["i", "s", "x", "even"], rows)
        _assert_same_text(text, _ref_table(["i", "s", "x", "even"], rows))
        assert text.count("\n") == n + 1

    def test_chunks_reach_the_file_in_order(self, tmp_path):
        n = 3 * runio._CHUNK + 7
        rows = np.arange(2.0 * n).reshape(n, 2) / 7
        write_table(tmp_path / "t.csv", ["a", "b"], rows, ["seed=3"])
        got = (tmp_path / "t.csv").read_text()
        _assert_same_text(got, _ref_table(["a", "b"], rows, ["seed=3"]))

    def test_bools_are_text_not_numbers(self):
        rows = [(True, np.bool_(False), 1, np.int8(-2))]
        assert _table(["a", "b", "c", "d"], rows) == "a,b,c,d\ntrue,false,1,-2\n"


# NaNs of both signs, quiet and signalling, with different payloads
NANS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64).view(np.float64)
# a small pool, so that columns repeat values and share their texts
POOL = EDGES + NANS.tolist() + [1.0, 2.0, -3.0, 2.0 ** 53 - 1]
DTYPES = [np.float64, np.float32, np.float16, np.int64, np.int8, np.uint64, np.bool_]


def _column(dtype, draws):
    """POOL draws as a column of dtype; float64 keeps the NaN payloads."""
    if np.dtype(dtype).kind == "f":
        with np.errstate(over="ignore", invalid="ignore"):
            return np.array([POOL[i] for i in draws], dtype=np.float64).astype(dtype)
    if dtype is np.bool_:
        return np.array([i % 3 == 0 for i in draws])
    info = np.iinfo(dtype)
    return np.array([(i * 7919) % 200 - 100 if info.min < 0 else i * 12345 for i in draws],
                    dtype=dtype)


class TestColumnarArrays:
    """The 2-D ndarray path formats each distinct value of a block's column
    once; its bytes must be those of the per-value writer on the same rows."""

    @given(st.sampled_from(DTYPES), st.integers(0, 12), st.integers(1, 5),
           st.integers(1, 8), st.data())
    @settings(max_examples=400, deadline=None)
    def test_arrays_bytewise(self, dtype, n_rows, n_cols, block_rows, data):
        draws = data.draw(st.lists(st.integers(0, len(POOL) - 1),
                                   min_size=n_rows * n_cols, max_size=n_rows * n_cols))
        table = _column(dtype, draws).reshape(n_rows, n_cols)
        header = [f"c{j}" for j in range(n_cols)]
        with mock.patch.object(runio, "_BLOCK_ROWS", block_rows):
            got = _table(header, table, ["seed=1"])
        _assert_same_text(got, _ref_table(header, table, ["seed=1"]))

    def test_signed_zeros_and_nan_payloads_in_one_column(self):
        col = np.concatenate([[0.0, -0.0, -0.0, 0.0], NANS, [-0.0, 5e-324, -5e-324, 0.0]])
        table = np.stack([col, col[::-1]], axis=1)
        got = _table(["a", "b"], table)
        _assert_same_text(got, _ref_table(["a", "b"], table))
        first = [line.split(",")[0] for line in got.splitlines()[1:]]
        assert first == ["0", "-0", "-0", "0"] + ["nan"] * len(NANS) + [
            "-0", "4.9406564584124654e-324", "-4.9406564584124654e-324", "0"]

    @pytest.mark.parametrize("shape", [(0, 1), (0, 4), (1, 1), (1, 4), (7, 1)])
    def test_small_shapes(self, shape):
        table = np.arange(float(np.prod(shape))).reshape(shape) - 2.5
        _assert_same_text(_table(["c"] * shape[1], table), _ref_table(["c"] * shape[1], table))

    def test_no_columns(self):
        assert _table([], np.empty((3, 0))) == "\n\n\n\n"

    @pytest.mark.parametrize("n", [runio._BLOCK_ROWS - 1, runio._BLOCK_ROWS, runio._BLOCK_ROWS + 1,
                                   2 * runio._BLOCK_ROWS + 1])
    def test_row_counts_around_the_block_size(self, n):
        # a time grid repeated per path, a path index and a draw per row
        t = np.tile(np.linspace(0.0, 5.0, 1001), n // 1001 + 1)[:n]
        table = np.column_stack([np.arange(n) // 1001, t, np.random.default_rng(n).standard_normal(n)])
        text = _table(["path", "t", "b"], table)
        _assert_same_text(text, _ref_table(["path", "t", "b"], table))
        assert text.count("\n") == n + 1

    @given(st.integers(-(2 ** 53 - 1), 2 ** 53 - 1) | st.sampled_from([0, 1, -1, 2 ** 53 - 1]))
    @settings(max_examples=300, deadline=None)
    def test_integral_floats_print_as_integers(self, i):
        """A path index written as a float reads as its integer text."""
        assert "%.17g" % float(i) == "%d" % i
        assert _table(["p"], np.array([[float(i)]])) == _table(["p"], [(i,)])


def test_percent_g_matches_float_format_on_random_bit_patterns():
    bits = np.random.default_rng(2024).integers(0, 2 ** 64, 100_000, dtype=np.uint64,
                                                endpoint=False)
    for v in bits.view(np.float64).tolist():
        assert "%.17g" % v == f"{float(v):.17g}"
