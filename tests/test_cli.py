import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ptmoments
from ptmoments import cli
from ptmoments.errors import (CutoffError, DomainError, OrderError, PtmomentsError,
                              ToleranceError)
from ptmoments.reporting import Table, read_table, write_table


def run(argv):
    return cli.main(argv)


class TestCriteriaCommand:
    def test_explicit_moments(self, capsys):
        assert run(["criteria", "--p2", "1", "--p3", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "-0.75" in out
        assert "ENTANGLED" in out

    def test_family_noon(self, capsys):
        assert run(["criteria", "--family", "noon", "--N", "3", "--alpha", "0.6"]) == 0
        out = capsys.readouterr().out
        assert f"{0.6 ** 6 + 0.8 ** 6:.6f}"[:8] in out

    def test_invalid_purity_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["criteria", "--p2", "0", "--p3", "0.5"])
        assert exc.value.code != 0

    def test_moment_list_enables_higher_orders(self, capsys):
        assert run(["criteria", "--moments", "1,0.5,0.25,0.125,0.0625"]) == 0
        out = capsys.readouterr().out
        assert "hankel5" in out

    def test_detection_is_not_an_error(self, capsys):
        assert run(["criteria", "--p2", "1", "--p3", "0.1"]) == 0


class TestPackageErrors:
    @pytest.mark.parametrize("argv", [
        ["criteria", "--moments", "1,0.5,nan"],
        ["criteria", "--p2", "0.5", "--p3", "inf"],
        ["sample", "--family", "cat", "--alpha", "3", "--cutoff", "4"],
        ["sample", "--family", "cat", "--alpha", "nan"],
        ["sample", "--family", "cat", "--beta", "inf"],
        ["criteria", "--family", "noon", "--N", "1", "--tau", "nan"],
        ["criteria", "--family", "noon", "--N", "1", "--tau", "1.5"],
        ["sample", "--family", "cat", "--tau", "1.5"],
        ["sample", "--family", "noon", "--k", "0"],
        ["sample", "--family", "noon", "--repetitions", "0"],
        ["reproduce", "fig4", "--repetitions", "0"],
        ["reproduce", "fig7", "--repetitions", "0"],
        ["sample", "--family", "noon", "--repetitions", "1"],
        ["reproduce", "fig4", "--repetitions", "1"],
        ["reproduce", "fig7", "--repetitions", "1"],
        ["criteria", "--family", "cat", "--tau", "0.3"],
        ["criteria", "--family", "hhg", "--tau", "0.3"],
        ["criteria", "--family", "qutrit", "--tau", "0.3"],
        ["criteria", "--family", "tmsv", "--tau", "0.3"],
        ["sample", "--family", "qutrit", "--tau", "0.3"],
        ["criteria", "--moments", "1,0.5"],
        ["criteria", "--moments", "1"],
        ["reproduce", "fig2b", "--tau", "0.5"],
        ["reproduce", "fig2b", "--alpha", "0.3"],
        ["reproduce", "fig4", "--tau", "0.3"],
        ["reproduce", "fig2b", "--repetitions", "5"],
        ["criteria", "--p2", "0.5", "--p3", "0.3", "--moments", "1,0.9,0.8"],
        ["criteria", "--family", "noon", "--p2", "0.5", "--p3", "0.01"],
        ["sample"],
        ["criteria", "--moments", "1,0.5,0.25", "--N", "3", "--z", "0.9"],
        ["sample", "--family", "noon", "--z", "0.9", "--parity", "even", "--k", "10",
         "--repetitions", "2"],
        ["criteria", "--family", "qutrit", "--alpha", "0.3", "--N", "4"],
        ["criteria", "--family", "tmsv", "--N", "3"],
        ["sample", "--family", "qutrit", "--cutoff", "7", "--k", "10", "--repetitions", "2"],
        ["criteria", "--p2", "1", "--p3", "0.25", "--format", "json"],
        ["sample", "--family", "cat", "--tau", "1.5", "--copies", "3"],
        ["sample", "--family", "noon", "--cutoff", "5"],
        ["sample", "--family", "cat", "--alpha", "8", "--beta", "8"],  # a 1.95 GiB matrix
    ])
    def test_exit_two_with_one_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ptmoments: error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv, option", [
        (["reproduce", "fig2b", "--tau", "0.5"], "--tau"),
        (["reproduce", "fig2b", "--alpha", "0.3"], "--alpha"),
        (["reproduce", "fig4", "--tau", "0.3"], "--tau"),
        (["reproduce", "table1", "--repetitions", "5"], "--repetitions"),
        (["criteria", "--p2", "0.5", "--p3", "0.3", "--moments", "1,0.9,0.8"], "--p2"),
        (["criteria", "--family", "noon", "--p3", "0.01"], "--p3"),
        (["sample"], "--family"),
        (["criteria", "--moments", "1,0.5,0.25", "--N", "3", "--z", "0.9"], "--N, --z"),
        (["sample", "--family", "noon", "--z", "0.9", "--parity", "even", "--k", "10",
          "--repetitions", "2"], "--z, --parity"),
        (["criteria", "--family", "qutrit", "--alpha", "0.3", "--N", "4"], "--N, --alpha"),
        (["criteria", "--family", "tmsv", "--N", "3"], "--N"),
        (["sample", "--family", "qutrit", "--cutoff", "7", "--k", "10", "--repetitions", "2"],
         "--cutoff"),
        (["criteria", "--p2", "1", "--p3", "0.25", "--format", "json"], "--format"),
        (["sample", "--family", "noon", "--cutoff", "5"], "--cutoff"),
    ])
    def test_error_names_the_option(self, argv, option, capsys):
        with pytest.raises(SystemExit):
            run(argv)
        assert option in capsys.readouterr().err

    @pytest.mark.parametrize("cls", [ToleranceError, CutoffError, DomainError, OrderError])
    def test_common_base(self, cls):
        assert issubclass(cls, PtmomentsError)
        assert issubclass(cls, ValueError) == (cls in (DomainError, OrderError))


# The family options each command reads, per family (README "Command line"),
# and a value of each that every family accepts.
FAMILY_READS = {
    "criteria": {"noon": {"--N", "--alpha", "--beta", "--tau"},
                 "cat": {"--alpha", "--beta", "--z", "--parity"},
                 "hhg": {"--N", "--alpha", "--delta-alpha"},
                 "qutrit": set(),
                 "tmsv": {"--n-bar", "--r"}},
    "sample": {"noon": {"--N", "--alpha", "--beta", "--tau"},
               "cat": {"--alpha", "--beta", "--z", "--parity", "--tau", "--cutoff"},
               "hhg": {"--N", "--alpha", "--delta-alpha"},
               "qutrit": set(),
               "tmsv": {"--n-bar", "--r"}},
}
OPTION_VALUES = {"--N": "2", "--alpha": "0.6", "--beta": str(1 / math.sqrt(2)), "--z": "0.9",
                 "--parity": "even", "--tau": "0.9", "--n-bar": "0.1", "--r": "0.2",
                 "--delta-alpha": "0.4", "--cutoff": "12", "--p2": "0.5", "--p3": "0.2",
                 "--moments": "1,0.5,0.2"}
FAMILY_OPTIONS = ["--N", "--alpha", "--beta", "--z", "--parity", "--tau", "--n-bar", "--r",
                  "--delta-alpha"]
BASE_ARGV = {"criteria": ["criteria"], "sample": ["sample", "--k", "10", "--repetitions", "2"]}


def _option_cases():
    for command, families in FAMILY_READS.items():
        extra = ["--p2", "--p3", "--moments"] if command == "criteria" else ["--cutoff"]
        for family, reads in families.items():
            for option in FAMILY_OPTIONS + extra:
                yield pytest.param(BASE_ARGV[command] + ["--family", family], option,
                                   option in reads, id=f"{command}-{family}{option}")
    for source in (["--moments", "1,0.5,0.25"], ["--p2", "1", "--p3", "0.25"]):
        for option in FAMILY_OPTIONS:
            yield pytest.param(["criteria"] + source, option, False,
                               id=f"criteria{source[0]}{option}")


class TestOptionRule:
    @pytest.mark.parametrize("argv, option, read", _option_cases())
    def test_option_is_read_or_refused(self, argv, option, read, capsys):
        argv = argv + [option, OPTION_VALUES[option]]
        if read:
            assert run(argv) == 0
            return
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.endswith(f"does not read {option}\n")

    @pytest.mark.parametrize("argv", [["criteria", "--p2", "1", "--p3", "0.25"],
                                      ["criteria", "--family", "noon", "--tau", "0.9"],
                                      BASE_ARGV["sample"] + ["--family", "qutrit"]])
    def test_format_is_read_only_with_out(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit):
            run(argv + ["--format", "json"])
        assert capsys.readouterr().err.endswith("does not read --format\n")
        assert run(argv + ["--format", "json", "--out", str(tmp_path / "r.json")]) == 0
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["provenance"]["seed"] is (None if argv[0] == "criteria" else 0)

    def test_criteria_takes_no_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["criteria", "--p2", "1", "--p3", "0.25", "--seed", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("target", cli.REPRODUCE_TARGETS)
    def test_every_target_reads_seed_out_and_format(self, target):
        args = cli.build_parser().parse_args(["reproduce", target, "--seed", "7", "--out", "x",
                                              "--format", "json"])
        cli._refuse_unread(args)


class TestSampleCommand:
    def test_ideal_bell_two_copies(self, capsys):
        assert run(["sample", "--family", "noon", "--N", "1", "--copies", "2",
                    "--k", "4000", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        mean = float(out.splitlines()[1].split("=")[1].split("(")[0])
        assert mean == pytest.approx(1.0, abs=0.05)

    def test_ideal_bell_three_copies(self, capsys):
        assert run(["sample", "--family", "noon", "--N", "1", "--copies", "3",
                    "--k", "4000", "--seed", "1", "--repetitions", "8"]) == 0
        out = capsys.readouterr().out
        mean = float(out.splitlines()[1].split("=")[1].split("(")[0])
        assert mean == pytest.approx(0.25, abs=0.05)

    @pytest.mark.parametrize("argv, n", [
        (["--tau", "0.8", "--copies", "3"], 3),  # over the outcome engine's budget
        (["--copies", "2"], 2),
    ])
    def test_lossy_and_default_cat_sample_through_the_oracle(self, argv, n, capsys):
        from ptmoments import circuits, fock, states
        assert run(["sample", "--family", "cat", *argv]) == 0
        out = capsys.readouterr().out
        exact = float(out.splitlines()[0].split("=")[1])
        rho = states.cat_density(states.CatParams(1.0, 1.0, 0.5, "odd"))
        if n == 3:
            rho = circuits.lossy_channel(circuits.lossy_channel(rho, 0.8, "a"), 0.8, "b")
        assert exact == pytest.approx(fock.pt_moment(rho, n), abs=1e-12)

    @pytest.mark.parametrize("family, options", [
        ("tmsv", ["--n-bar", "0.1", "--r", "0.5"]),
        ("hhg", ["--N", "3", "--alpha", "2.5", "--delta-alpha", "0.4"]),
    ], ids=["tmsv", "hhg"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_tmsv_and_hhg_sample_their_closed_forms(self, family, options, n, tmp_path, capsys):
        from ptmoments import gaussian, states
        if family == "tmsv":
            closed = gaussian.gaussian_pt_moment(gaussian.tmsv_thermal_pt_pair(0.1, 0.5), n)
        else:
            closed = states.hhg_pt_moments(states.HHGParams(2.5, 0.4, 3))[n - 2]
        argv = ["sample", "--family", family, *options, "--copies", str(n), "--k", "2000",
                "--seed", "5"]
        assert run(argv + ["--out", str(tmp_path / "a.csv")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert float(lines[0].split("=")[1]) == pytest.approx(closed, abs=1e-12)
        estimate = float(lines[1].split("=")[1].split("(")[0])
        assert abs(estimate - closed) < 5 * float(lines[2].split("std error =")[1])
        assert run(argv + ["--out", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_lossy_bell_matches_closed_form(self, capsys):
        from ptmoments.states import LossyNOONParams, lossy_noon_pt_moments
        assert run(["sample", "--family", "noon", "--N", "1", "--tau", "0.6",
                    "--copies", "3", "--k", "20000", "--seed", "5",
                    "--repetitions", "4"]) == 0
        out = capsys.readouterr().out
        exact = float(out.splitlines()[0].split("=")[1])
        _, p3 = lossy_noon_pt_moments(LossyNOONParams.balanced(1, 0.6))
        assert exact == pytest.approx(p3, abs=1e-10)


class TestReproduce:
    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            run(["reproduce", "fig99"])

    def test_table1_rows_match_formulas(self, tmp_path):
        assert run(["reproduce", "table1", "--tau", "0.75", "--out", str(tmp_path)]) == 0
        table = read_table(tmp_path / "table1.csv")
        assert table.provenance["target"] == "table1"
        for row in table.rows:
            assert row[-1] < 1e-12  # |formula - circuit|

    def test_fig2e_minimum_location(self, tmp_path):
        assert run(["reproduce", "fig2e", "--out", str(tmp_path)]) == 0
        table = read_table(tmp_path / "fig2e.csv")
        cols = {c: i for i, c in enumerate(table.columns)}
        rows = [r for r in table.rows if r[cols["N"]] == 3]
        best = min(rows, key=lambda r: r[cols["w_linear"]])
        assert best[cols["w_linear"]] == pytest.approx(-0.75, abs=1e-4)
        assert best[cols["alpha"]] == pytest.approx(1 / math.sqrt(2), abs=0.005)

    def test_deterministic_repeat(self, tmp_path):
        run(["reproduce", "fig6", "--out", str(tmp_path / "a")])
        run(["reproduce", "fig6", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "fig6.csv").read_bytes() == \
            (tmp_path / "b" / "fig6.csv").read_bytes()

    def test_seeded_simulation_repeats_bitwise(self, tmp_path):
        args = ["reproduce", "fig4", "--seed", "42", "--repetitions", "2"]
        run(args + ["--out", str(tmp_path / "a")])
        run(args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "fig4.csv").read_bytes() == \
            (tmp_path / "b" / "fig4.csv").read_bytes()

    def test_header_records_the_one_tolerance_set(self, tmp_path):
        assert run(["reproduce", "table1", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "table1.csv").read_text().splitlines()
        (line,) = [x for x in lines if x.startswith("# tolerances:")]
        assert line == ('# tolerances: {"herm": 1e-09, "imag": 1e-09, "psd": 1e-08, '
                        '"trace": 1e-09, "trunc": 1e-06}')

    def test_json_format(self, tmp_path):
        run(["reproduce", "table1", "--out", str(tmp_path), "--format", "json"])
        doc = json.loads((tmp_path / "table1.json").read_text())
        assert doc["provenance"]["target"] == "table1"
        assert len(doc["rows"]) == 6

    def test_output_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PTMOMENTS_OUTDIR", str(tmp_path / "envdir"))
        run(["reproduce", "table1"])
        assert (tmp_path / "envdir" / "table1.csv").exists()

    @pytest.mark.parametrize("target, most", [("fig2a", 0), ("fig2b", 0), ("fig3a", 400)])
    def test_grid_targets_take_the_threshold_once_per_grid(self, target, most, tmp_path,
                                                            monkeypatch):
        # fig3a's bisections make the only per-point threshold calls
        scalar_calls = []
        threshold = cli.criteria.optimal_threshold

        def counted(p2):
            if np.ndim(p2) == 0:
                scalar_calls.append(p2)
            return threshold(p2)

        monkeypatch.setattr(cli.criteria, "optimal_threshold", counted)
        assert run(["reproduce", target, "--out", str(tmp_path)]) == 0
        assert len(scalar_calls) <= most


class TestRoundTrip:
    def test_csv_round_trip_is_idempotent(self, tmp_path):
        run(["reproduce", "fig2b", "--out", str(tmp_path)])
        path = tmp_path / "fig2b.csv"
        first = path.read_bytes()
        table = read_table(path)
        write_table(table, path, fmt="csv")
        assert path.read_bytes() == first

    def test_json_round_trip_is_idempotent(self, tmp_path):
        run(["reproduce", "table2", "--out", str(tmp_path), "--format", "json"])
        path = tmp_path / "table2.json"
        first = path.read_bytes()
        table = read_table(path)
        write_table(table, path, fmt="json")
        assert path.read_bytes() == first

    def test_numpy_scalars_are_normalized(self, tmp_path):
        table = Table({"target": "unit"}, ["a", "b", "c"],
                      [(np.int64(2), np.float64(0.5), np.bool_(True))])
        path = tmp_path / "np.csv"
        write_table(table, path)
        assert path.read_text().splitlines()[-1] == "2,0.5,true"
        write_table(table, tmp_path / "np.json", fmt="json")
        again = read_table(tmp_path / "np.json")
        assert again.rows == [(2, 0.5, True)]

    def test_inf_cells_survive(self, tmp_path):
        table = Table({"target": "unit"}, ["a", "b"], [(1, math.inf), (2, 0.5)])
        path = tmp_path / "t.csv"
        write_table(table, path)
        again = read_table(path)
        assert again.rows[0][1] == math.inf
        write_table(again, path)
        assert read_table(path).rows == again.rows


HOT_PATHS = """
import sys
import tempfile
import ptmoments.cli
from ptmoments import circuits, estimation, fock, states

cat = states.cat_density(states.CatParams(1.0, 1.0, 0.5, "odd"))
fock.pt_moments(cat, 7)
noon = states.lossy_noon_density(states.LossyNOONParams.balanced(1, 0.8))
circuits.outcome_distribution([noon] * 3, 3)
estimation.full_simulation(states.LossyNOONParams.balanced(1, 0.8),
                           estimation.SamplingPlan(k=10, repetitions=2, master_seed=0),
                           k_values=(10,))
assert ptmoments.cli.main(["criteria", "--family", "noon", "--N", "2", "--alpha", "0.6"]) == 0
with tempfile.TemporaryDirectory() as out:
    for target in ("fig3a", "fig5"):
        assert ptmoments.cli.main(["reproduce", target, "--out", out]) == 0
print("LOADED", [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")])
"""


def test_hot_paths_load_no_scipy():
    # the package imports numpy only, on every path: the fig3a and fig5
    # targets find their crossings by bisection
    src = str(Path(ptmoments.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", HOT_PATHS], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "LOADED []"
