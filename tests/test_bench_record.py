"""The pairing and ratio arithmetic of scripts/bench_record.py, on fabricated
run results: no perfbench process runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def fake_run(faults=100, **values):
    """One run's record as ``workload`` returns it, with the given metrics."""
    return {"exit_code": 0, "minor_faults": faults, "provenance": None,
            "result": {"correct": True,
                       "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}}


def test_schedule_pairs_each_round_and_alternates_which_side_runs_first():
    order = list(bench_record.schedule(["a", "b"], 3))
    assert order == [("a", "base"), ("a", "head"), ("b", "base"), ("b", "head"),
                     ("a", "head"), ("a", "base"), ("b", "head"), ("b", "base"),
                     ("a", "base"), ("a", "head"), ("b", "base"), ("b", "head")]
    for name in "ab":
        for side in ("base", "head"):
            assert order.count((name, side)) == 3


def test_ratios_are_head_over_base_per_pair_with_median_and_quartiles():
    base = [fake_run(wall_s=w, peak_rss_mb=50.0) for w in (1.0, 2.0, 4.0, 1.0, 2.0)]
    head = [fake_run(wall_s=w, peak_rss_mb=45.0, faults=50) for w in (0.5, 1.0, 1.0, 1.0, 1.5)]
    got = bench_record.ratios(base, head)
    assert got["wall_s"]["pairs"] == [0.5, 0.5, 0.25, 1.0, 0.75]
    assert (got["wall_s"]["q1"], got["wall_s"]["median"], got["wall_s"]["q3"]) == (0.5, 0.5, 0.75)
    assert got["peak_rss_mb"] == {"pairs": [0.9] * 5, "median": 0.9, "q1": 0.9, "q3": 0.9}
    assert got["minor_faults"]["median"] == 0.5


def test_a_missing_metric_or_a_zero_base_gives_no_ratio():
    base = [fake_run(wall_s=1.0, cpu_s=0.0), {**fake_run(), "result": None}, fake_run(wall_s=2.0)]
    head = [fake_run(wall_s=3.0, cpu_s=1.0), fake_run(wall_s=1.0), fake_run(wall_s=1.0)]
    got = bench_record.ratios(base, head)
    assert got["wall_s"]["pairs"] == [3.0, 0.5]
    assert "cpu_s" not in got
    assert got["wall_s"]["median"] == 1.75


def test_summarize_keeps_the_median_wall_run_and_the_quartiles():
    runs = [fake_run(wall_s=w) for w in (3.0, 1.0, 2.0)]
    record = bench_record.summarize(runs)
    assert record["stats"]["wall_s"] == {"median": 2.0, "q1": 1.5, "q3": 2.5}
    assert record["result"] is runs[2]["result"] and record["exit_code"] == 0
    assert bench_record.summarize([fake_run(wall_s=1.0)])["stats"]["wall_s"]["q3"] == 1.0


def test_default_revision_is_the_previous_bench_files_commit(tmp_path, monkeypatch):
    for n, commit in [(9, "c9"), (27, "c27"), (28, "c28"), (33, "c33")]:
        (tmp_path / f"BENCH_{n}.json").write_text(json.dumps({"commit": commit}))
    (tmp_path / "BENCH_x.json").write_text("{}")
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    assert bench_record.previous_commit("32") == "c28"
    assert bench_record.previous_commit("28") == "c27"
    with pytest.raises(SystemExit):
        bench_record.previous_commit("9")


def test_both_sides_are_exported_and_the_checkout_keeps_its_edits(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text("bench\n")
    (repo / "src.py").write_text("committed\n")
    for name, value in [("NAME", "bench"), ("EMAIL", "bench@localhost")]:
        for role in ("AUTHOR", "COMMITTER"):
            monkeypatch.setenv(f"GIT_{role}_{name}", value)
    for argv in (["init", "-q"], ["add", "."], ["commit", "-q", "-m", "one"]):
        subprocess.run(["git", *argv], cwd=repo, check=True, capture_output=True)
    monkeypatch.setattr(bench_record, "ROOT", repo)
    head = bench_record.export(None, tmp_path / "clean")
    (repo / "src.py").write_text("edited\n")
    (repo / "perfbench" / "run.py").write_text("edited bench\n")
    assert bench_record.export("HEAD", tmp_path / "base") == head
    assert bench_record.export(None, tmp_path / "head") != head
    assert (tmp_path / "base" / "src.py").read_text() == "committed\n"
    assert (tmp_path / "head" / "src.py").read_text() == "edited\n"
    for side in ("base", "head"):  # both run the checkout's benchmark code
        assert (tmp_path / side / "perfbench" / "run.py").read_text() == "edited bench\n"


def test_slowest_tests_are_parsed_from_the_durations_report():
    output = """\
........................................................................ [ 97%]
....                                                                     [100%]
============================= slowest 10 durations =============================
4.26s call     tests/test_states.py::TestSpectra::test_lossy_cat[1.1-0.6-0.0-1.0-even]
1.46s call     tests/test_acceptance.py::test_criterion_05_cat_state_boundary
0.90s setup    tests/test_cli.py::test_fixture_heavy
0.87s call     tests/test_circuits.py::test_blocks[n2 d120-dft]
12s call     tests/test_x.py::test_whole_seconds

(5 durations < 0.005s hidden.  Use -vv to show these durations.)
1548 passed in 58.79s
"""
    assert bench_record.slowest(output) == [
        ["tests/test_states.py::TestSpectra::test_lossy_cat[1.1-0.6-0.0-1.0-even]", 4.26],
        ["tests/test_acceptance.py::test_criterion_05_cat_state_boundary", 1.46],
        ["tests/test_circuits.py::test_blocks[n2 d120-dft]", 0.87],
        ["tests/test_x.py::test_whole_seconds", 12.0]]
    assert bench_record.slowest("1548 passed in 58.79s\n") == []
    assert "--durations=10" in bench_record.TIER1


def test_tier1_record_holds_the_slowest_tests(monkeypatch):
    stdout = "....\n0.50s call     tests/test_a.py::test_b\n4 passed in 1.00s\n"
    monkeypatch.setattr(bench_record, "run", lambda argv, env=None, cwd=None:
                        subprocess.CompletedProcess(argv, 0, stdout, ""))
    record = bench_record.tier1()
    assert record["summary"] == "4 passed in 1.00s"
    assert record["slowest"] == [["tests/test_a.py::test_b", 0.5]]
    assert record["exit_code"] == 0 and "--durations=10" in record["command"]
