"""The columnar Table and its CSV/JSON writer."""

import math

import numpy as np
import pytest

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
