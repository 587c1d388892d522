"""The columnar Table and its CSV/JSON writer."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptmoments import cli
from ptmoments.reporting import Table, format_value, read_table, write_table

BLOCK = 1024  # the writer's rows per block


def cells(table, tmp_path):
    """The CSV cells of every data row of ``table``, column by column."""
    lines = write_table(table, tmp_path / "t.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[lines.index(",".join(table.columns)) + 1:]]
    return [list(c) for c in zip(*rows)] or [[] for _ in table.columns]


class TestColumnCells:
    SPECIAL = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e300,
               0.1, 1 / 3]

    @pytest.mark.parametrize("size", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7])
    def test_float64_array_is_repr_of_every_value(self, size, tmp_path):
        # the special values repeat on both sides of each block edge, so the
        # per-block memo sees duplicates inside a block and across blocks
        rng = np.random.default_rng(size)
        values = np.array([self.SPECIAL[i % len(self.SPECIAL)] if i % 3 else x
                           for i, x in enumerate(rng.standard_normal(size))])
        (got,) = cells(Table({"target": "unit"}, ["x"], [values]), tmp_path)
        assert got == [repr(x) for x in values.tolist()]
        assert got == [format_value(x) for x in values]

    def test_nan_sign_and_negative_zero_keep_their_text(self, tmp_path):
        values = np.array([0.0, -0.0, math.nan, -math.nan] * (BLOCK // 2 + 1))
        (got,) = cells(Table({"target": "unit"}, ["x"], [values]), tmp_path)
        assert got[:4] == ["0.0", "-0.0", "nan", "nan"]
        assert got == [repr(x) for x in values.tolist()]

    @pytest.mark.parametrize("column", [
        np.array([3, -7, 0, 2 ** 62, 3] * 300, dtype=np.int64),
        np.array([5, 0, 255, 5] * 300, dtype=np.uint8),
        np.array([True, False, False, True] * 300),
        np.array([1, math.inf, 2, -math.inf, np.int64(4), np.float64(0.5)] * 200, dtype=object),
        ["alpha", "tau", "1.0", ""] * 300,
        [1, 2.5, True, "x", np.float64(-0.0), np.int64(9), np.bool_(False), math.nan] * 150,
        np.array([0.5, -0.0, 1e-310], dtype=np.float32),
        np.array(["alpha", "tau"] * 600),
    ], ids=["int64", "uint8", "bool", "object", "str", "mixed-list", "float32", "str-array"])
    def test_cells_are_format_value_of_each_value(self, column, tmp_path):
        (got,) = cells(Table({"target": "unit"}, ["x"], [column]), tmp_path)
        assert got == [format_value(v) for v in column]

    def test_columns_keep_their_own_formats(self, tmp_path):
        n = BLOCK + 1
        table = Table({"target": "unit"}, ["i", "f", "b", "s"],
                      [np.arange(n), np.arange(n) / 4, np.arange(n) % 3 == 0, ["a"] * n])
        got = cells(table, tmp_path)
        assert got[0][-1] == "1024" and got[1][-2:] == ["255.75", "256.0"]
        assert got[2][:4] == ["true", "false", "false", "true"] and set(got[3]) == {"a"}


class TestTable:
    def test_rows_zip_the_columns(self):
        data = [np.arange(4), np.array([0.5, -0.0, math.inf, 2.0]), ["a", "b", "c", "d"],
                np.array([True, False, True, False])]
        table = Table({"target": "unit"}, ["i", "x", "s", "b"], data)
        assert table.rows == list(zip(*(np.asarray(c).tolist() for c in data)))
        assert all(type(v) in (int, float, str, bool) for row in table.rows for v in row)
        assert table.n_rows == 4

    def test_rows_are_derived_and_read_only(self):
        table = Table({"target": "unit"}, ["a"], [[1, 2]])
        with pytest.raises(AttributeError):
            table.rows = [(3,)]
        table.data[0].append(3)
        assert table.rows == [(1,), (2,), (3,)]

    @pytest.mark.parametrize("data", [
        [[1, 2], [1.0]],
        [np.zeros(3), np.zeros(2)],
        [np.zeros(2), ["a", "b", "c"]],
        [[1, 2]],
        [[1], [2], [3]],
    ])
    def test_columns_of_unequal_length_or_count_are_refused(self, data):
        with pytest.raises(ValueError):
            Table({"target": "unit"}, ["a", "b"], data)

    def test_empty_table_writes_its_header(self, tmp_path):
        table = Table({"target": "unit"}, ["a", "b"], [[], np.array([])])
        path = write_table(table, tmp_path / "t.csv")
        assert path.read_text().splitlines()[-1] == "a,b"
        assert read_table(path).rows == [] and read_table(path).columns == ["a", "b"]
        path = write_table(table, tmp_path / "t.json", fmt="json")
        assert read_table(path).data == [[], []]

    def test_json_rows_are_built_from_the_columns(self, tmp_path):
        table = Table({"target": "unit"}, ["a", "x", "b"],
                      [np.array([1, 2]), np.array([math.nan, -math.inf]), [np.bool_(True), False]])
        again = read_table(write_table(table, tmp_path / "t.json", fmt="json"))
        assert again.rows == [(1, "nan", True), (2, "-inf", False)]


def dumped(table):
    """The whole JSON document through one json.dumps(doc, indent=2): the
    reference for the streamed writer."""
    def cell(v):
        v = v.item() if isinstance(v, np.generic) else v
        return format_value(v) if type(v) is float and not math.isfinite(v) else v

    doc = {"provenance": table.provenance, "columns": table.columns,
           "rows": [[cell(v) for v in row] for row in table.rows]}
    return json.dumps(doc, indent=2) + "\n"


OBJECTS = [math.inf, -math.inf, math.nan, 1, 0.5, "x", None, np.float64(-0.0), np.int64(3),
           np.bool_(True), np.float64(math.inf)]
COLUMNS = st.one_of(
    st.lists(st.floats(), min_size=1, max_size=6).map(lambda v: np.array(v, dtype=float)),
    st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=6)
    .map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.integers(), min_size=1, max_size=6),
    st.lists(st.booleans(), min_size=1, max_size=6).map(np.array),
    st.lists(st.text(), min_size=1, max_size=6),
    st.lists(st.sampled_from(OBJECTS), min_size=1, max_size=6)
    .map(lambda v: np.array(v, dtype=object)),
)


class TestJsonBytes:
    @settings(max_examples=60, deadline=None)
    @given(pools=st.lists(COLUMNS, max_size=4), n=st.sampled_from([0, 1, 3, BLOCK, BLOCK + 1]),
           name=st.text(), note=st.text())
    def test_streamed_json_is_the_one_shot_dump(self, pools, n, name, note, tmp_path_factory):
        # each column cycles its drawn values over n rows, so a row crosses a
        # block edge at n = BLOCK + 1; no column at all is an empty table
        n = n if pools else 0
        data = [np.resize(p, n) if isinstance(p, np.ndarray) else (p * n)[:n] for p in pools]
        table = Table({"target": "unit", "note": note}, [f"{name}{i}" for i in range(len(pools))],
                      data)
        path = write_table(table, tmp_path_factory.mktemp("json") / "t.json", fmt="json")
        assert path.read_bytes() == dumped(table).encode()

    def test_failed_write_leaves_the_earlier_file(self, tmp_path):
        path = write_table(Table({"target": "unit"}, ["a"], [[1, 2]]), tmp_path / "t.json",
                           fmt="json")
        before = path.read_bytes()
        # a set has no JSON text; it sits in the second block, after the first is written
        cells = [0.5] * (BLOCK + 10)
        cells[BLOCK + 5] = {1}
        with pytest.raises(TypeError):
            write_table(Table({"target": "unit"}, ["x"], [cells]), path, fmt="json")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["t.json"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_memory_is_bounded_by_a_block(fmt, tmp_path):
    # fig3b's shape: 22,326 rows of a string, six float and a bool column;
    # one-shot writers held the whole text (7.1 MB for CSV, 25 MB for JSON)
    rng = np.random.default_rng(0)
    n = 6 * 61 ** 2
    grid = np.round(np.arange(0.0, 1.0 + 1e-12, 1.0 / 60.0), 10)
    x2, x3 = (np.tile(x.ravel(), 6) for x in np.meshgrid(grid, grid, indexing="ij"))
    p2, p3, w = rng.random((3, n))
    table = Table({"target": "fig3b"}, ["panel", "tau1", "x2", "x3", "p2", "p3", "w", "detected"],
                  [np.repeat(["alpha", "tau"] * 3, n // 6), np.repeat([0.9, 0.75, 0.6], n // 3),
                   x2, x3, p2, p3, w, w < 0.5])
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        write_table(table, tmp_path / f"t.{fmt}", fmt=fmt)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


@pytest.fixture(scope="module")
def reproduced(tmp_path_factory):
    """Every reproduce target at --fast repetitions, in CSV and in JSON."""
    out = tmp_path_factory.mktemp("reproduce")
    for fmt in ("csv", "json"):
        for target in cli.REPRODUCE_TARGETS:
            argv = ["reproduce", target, "--out", str(out), "--seed", "7", "--format", fmt]
            if target in ("fig4", "fig7"):
                argv += ["--repetitions", "50"]
            assert cli.main(argv) == 0
    return out


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("target", cli.REPRODUCE_TARGETS)
def test_reemitting_every_target_is_the_identity(target, fmt, reproduced, tmp_path):
    path = reproduced / f"{target}.{fmt}"
    again = write_table(read_table(path), tmp_path / path.name, fmt=fmt)
    assert again.read_bytes() == path.read_bytes()
