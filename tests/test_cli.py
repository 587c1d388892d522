import copy
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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

    @pytest.mark.parametrize("r", ["0.17", "1.25", "9", "20"])
    def test_pure_tmsv_at_any_squeezing(self, r, capsys):
        # p2 used to round above 1 (refused) or divide by zero (a traceback)
        assert run(["criteria", "--family", "tmsv", "--r", r]) == 0
        out = capsys.readouterr().out
        assert "nan" not in out and out.count("ENTANGLED") == 13

    @pytest.mark.parametrize("r", ["59", "60", "100", "177"])
    def test_pure_tmsv_past_the_overflow_of_nu_powers(self, r, capsys):
        # nu2^6 overflows from r of about 59, so p_7 reads 0, as the true
        # moment underflows; the suite makes any RuntimeWarning an error
        assert run(["criteria", "--family", "tmsv", "--r", r]) == 0
        out = capsys.readouterr().out
        assert "nan" not in out and out.count("ENTANGLED") == 13

    @staticmethod
    def run_warnings_as_errors(*argv):
        src = str(Path(ptmoments.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                               "ptmoments.cli", *argv], env=env, capture_output=True, text=True)

    def test_pure_tmsv_at_r_60_exits_0_with_runtime_warnings_as_errors(self):
        done = self.run_warnings_as_errors("criteria", "--family", "tmsv", "--r", "60")
        assert done.returncode == 0 and done.stderr == ""

    def test_pure_tmsv_at_r_200_exits_2_with_runtime_warnings_as_errors(self):
        # the refusal comes with no numpy warning before it, which -W error
        # would turn into a traceback
        done = self.run_warnings_as_errors("criteria", "--family", "tmsv", "--r", "200")
        assert done.returncode == 2
        assert done.stderr == "ptmoments: error: witness must be finite, got nan\n"

    @pytest.mark.parametrize("argv", [
        ["--family", "tmsv", "--n-bar", "1e13", "--r", "0"],
        ["--family", "tmsv", "--n-bar", "1e15", "--r", "0"],
        ["--p2", "1e-300", "--p3", "1e-200"],
    ])
    def test_tiny_purity_is_not_detected_with_runtime_warnings_as_errors(self, argv):
        # separable products of thermal modes, and a purity far below the
        # closed form's cancellation and overflow
        done = self.run_warnings_as_errors("criteria", *argv)
        assert done.returncode == 0 and done.stderr == ""
        assert "optimal3" in done.stdout and "ENTANGLED" not in done.stdout

    @staticmethod
    def moments_line(stdout) -> tuple:
        return tuple(map(float, re.match(r"p2 = (\S+)   p3 = (\S+)\n", stdout).groups()))

    @pytest.mark.parametrize("n", ["350", "1000"])
    def test_lossy_noon_past_n_345_exits_0_with_runtime_warnings_as_errors(self, n):
        # the p2/p3 sums took C(N, k)^3 and refused N > 345; the spectrum does not
        done = self.run_warnings_as_errors("criteria", "--family", "noon", "--N", n,
                                           "--tau", "0.5")
        assert done.returncode == 0 and done.stderr == ""
        p2, p3 = self.moments_line(done.stdout)
        assert 0.0 < p3 < p2 < 1.0

    def test_lossy_noon_past_n_1022_exits_2_with_runtime_warnings_as_errors(self):
        done = self.run_warnings_as_errors("criteria", "--family", "noon", "--N", "1023",
                                           "--tau", "0.5")
        assert done.returncode == 2
        assert done.stderr == ("ptmoments: error: lossy NOON spectra with tau strictly between "
                               "0 and 1 need N <= 1022, got N = 1023\n")

    @pytest.mark.parametrize("tau", [[], ["--tau", "0"], ["--tau", "1"]])
    def test_noon_without_partial_loss_exits_0_at_any_n(self, tau):
        # where each tau is 0 or 1 the spectrum does not depend on N
        done = self.run_warnings_as_errors("criteria", "--family", "noon", "--N", "2000", *tau)
        assert done.returncode == 0 and done.stderr == ""
        assert self.moments_line(done.stdout)[0] == 1.0

    @pytest.mark.parametrize("delta_alpha", ["1e-3", "0.3"])
    def test_hhg_at_small_depletion_exits_0_with_runtime_warnings_as_errors(self, delta_alpha):
        # the default N=1 state is pure: the closed form read p3 = -190 at
        # 1e-3 and refused p2 = 1.0000000000000044 at 0.3
        done = self.run_warnings_as_errors("criteria", "--family", "hhg", "--delta-alpha",
                                           delta_alpha)
        assert done.returncode == 0 and done.stderr == ""
        p2, p3 = self.moments_line(done.stdout)
        assert p2 == 1.0 and 0.0 <= p3 <= 1.0

    @pytest.mark.parametrize("alpha", ["30", "1e200"])
    def test_cat_past_the_old_bound_exits_0_with_runtime_warnings_as_errors(self, alpha):
        # the p3 form took 3 e^(4 r^2) and refused r^2 > 177.17; at |alpha| >> 1
        # mode A's even and odd weights are both 1/2
        done = self.run_warnings_as_errors("criteria", "--family", "cat", "--alpha", alpha)
        assert done.returncode == 0 and done.stderr == ""
        expect = cli.states.cat_pt_moments(cli.states.CatParams(1e3, 1.0, 0.5, "odd"))
        assert self.moments_line(done.stdout) == pytest.approx(expect, rel=1e-15)

    @pytest.mark.parametrize("argv", [["--family", "noon", "--tau", "0"],
                                      ["--family", "noon", "--N", "4", "--tau", "0"],
                                      ["--family", "cat", "--alpha", "0", "--beta", "0",
                                       "--parity", "even"]])
    def test_vacuum_reads_every_third_order_test_not_detected(self, argv, capsys):
        # the normalised spectrum of the vacuum is (1, 0, ..., 0): p_n = 1 exactly
        assert run(["criteria", *argv]) == 0
        out = capsys.readouterr().out
        assert out.startswith("p2 = 1.0   p3 = 1.0\n")
        for name in ("linear3", "quadratic3", "optimal3", "hankel3", "newton3"):
            assert re.search(rf"{name} +witness =  0  not detected", out)

    def test_lossy_bell_pair_reads_hankel7_entangled(self, capsys):
        # the third-order tests miss this NPT state; the higher orders see it
        assert run(["criteria", "--family", "noon", "--N", "1", "--tau", "0.3"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"optimal3 +witness =  0\.027  not detected", out)
        assert re.search(r"hankel7 +witness = -0\.000520\d+  ENTANGLED", out)

    @pytest.mark.parametrize("family", ["noon", "cat", "hhg", "qutrit", "tmsv"])
    def test_every_family_gets_the_higher_orders(self, family, capsys):
        assert run(["criteria", "--family", family]) == 0
        out = capsys.readouterr().out
        for n in (3, 5, 7):
            assert f"hankel{n} " in out and f"newton{n} " in out

    @pytest.mark.parametrize("argv", [["--family", "tmsv", "--r", "354.891356446692"],
                                      ["--family", "tmsv", "--n-bar", "0.5", "--r",
                                       "354.891356446692"],
                                      ["--family", "tmsv", "--n-bar", "1e3", "--r", "354"]])
    def test_tmsv_at_the_float_range_exits_2_with_runtime_warnings_as_errors(self, argv):
        # (2 n_bar + 1) e^(2r), or a factor of a moment, passes the float range
        done = self.run_warnings_as_errors("criteria", *argv)
        assert done.returncode == 2 and "Traceback" not in done.stderr
        assert done.stderr.startswith("ptmoments: error: ") and done.stderr.count("\n") == 1

    def test_pure_tmsv_past_r_177_is_refused_as_non_finite(self, capsys):
        # the symplectic witnesses square nu2 to inf and multiply it by 0,
        # silently: the suite makes any RuntimeWarning an error
        with pytest.raises(SystemExit) as exc:
            run(["criteria", "--family", "tmsv", "--r", "200"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "ptmoments: error: witness must be finite, got nan\n"


FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestFuzzedFamilies:
    """criteria on any finite family parameters exits 0, or exits 2 with one
    error line; never a traceback, and no RuntimeWarning (an error in the suite).
    Values go as --option=value: argparse reads "-1e+16" as an option name."""

    @staticmethod
    def exit_code(argv, capsys) -> int:
        try:
            code = run(["criteria", *argv])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        if code == 0:
            assert "nan" not in captured.out and captured.err == ""
        else:
            assert code == 2 and captured.out == ""
            assert captured.err.startswith("ptmoments: error: ") and captured.err.count("\n") == 1
        return code

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(-3, 1100), alpha=FINITE, tau=FINITE)
    def test_noon(self, n, alpha, tau, capsys):
        self.exit_code(["--family", "noon", f"--N={n}", f"--alpha={alpha!r}", f"--tau={tau!r}"],
                       capsys)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(alpha=FINITE, beta=FINITE, z=FINITE, parity=st.sampled_from(["even", "odd"]))
    def test_cat(self, alpha, beta, z, parity, capsys):
        self.exit_code(["--family", "cat", f"--alpha={alpha!r}", f"--beta={beta!r}",
                        f"--z={z!r}", "--parity", parity], capsys)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(-3, 10 ** 6), alpha=FINITE, delta_alpha=FINITE)
    def test_hhg(self, n, alpha, delta_alpha, capsys):
        self.exit_code(["--family", "hhg", f"--N={n}", f"--alpha={alpha!r}",
                        f"--delta-alpha={delta_alpha!r}"], capsys)


class TestPackageErrors:
    @pytest.mark.parametrize("argv", [
        ["criteria", "--moments", "1,0.5,nan"],
        ["criteria", "--p2", "0.5", "--p3", "inf"],
        ["sample", "--family", "cat", "--tau", "-0.1"],
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
        ["sample", "--family", "cat", "--tau", "nan"],
        ["criteria", "--p2", "1", "--p3", "0.25", "--format", "json"],
        ["sample", "--family", "cat", "--tau", "1.5", "--copies", "3"],
        ["criteria", "--family", "noon", "--N", "1023", "--tau", "0.5"],
        ["sample", "--family", "noon", "--N", "1023", "--tau", "0.5"],
        ["sample", "--family", "cat", "--alpha", "0", "--beta", "0", "--z", "0", "--tau", "0.5"],
        ["sample", "--family", "cat", "--tau", "1.0000000000000002"],
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
        (["sample", "--family", "cat", "--cutoff", "12"], "--cutoff"),
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
               "cat": {"--alpha", "--beta", "--z", "--parity", "--tau"},
               "hhg": {"--N", "--alpha", "--delta-alpha"},
               "qutrit": set(),
               "tmsv": {"--n-bar", "--r"}},
}
OPTION_VALUES = {"--N": "2", "--alpha": "0.6", "--beta": str(1 / math.sqrt(2)), "--z": "0.9",
                 "--parity": "even", "--tau": "0.9", "--n-bar": "0.1", "--r": "0.2",
                 "--delta-alpha": "0.4", "--p2": "0.5", "--p3": "0.2",
                 "--moments": "1,0.5,0.2"}
FAMILY_OPTIONS = ["--N", "--alpha", "--beta", "--z", "--parity", "--tau", "--n-bar", "--r",
                  "--delta-alpha"]
BASE_ARGV = {"criteria": ["criteria"], "sample": ["sample", "--k", "10", "--repetitions", "2"]}


def _option_cases():
    for command, families in FAMILY_READS.items():
        extra = ["--p2", "--p3", "--moments"] if command == "criteria" else []
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

    def test_sample_takes_no_cutoff(self, capsys):
        # every family state is read from a closed form, the lossy cat included
        with pytest.raises(SystemExit) as exc:
            run(BASE_ARGV["sample"] + ["--family", "cat", "--tau", "0.9", "--cutoff", "12"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cutoff 12" in capsys.readouterr().err

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

    @pytest.mark.parametrize("n", [2, 3])  # n = 3 is over the outcome engine's budget
    def test_lossy_cat_samples_what_the_oracle_reads(self, n, capsys):
        from ptmoments import circuits, fock, states
        assert run(["sample", "--family", "cat", "--tau", "0.8", "--copies", str(n)]) == 0
        out = capsys.readouterr().out
        exact = float(out.splitlines()[0].split("=")[1])
        d = fock.coherent_cutoff([1.0], 1e-16, guard=2)
        rho = states.cat_density(states.CatParams(1.0, 1.0, 0.5, "odd"), fock.ModeCutoff(d, d))
        rho = circuits.lossy_channel(circuits.lossy_channel(rho, 0.8, "a"), 0.8, "b")
        assert exact == pytest.approx(fock.pt_moment(rho, n), abs=1e-12)  # printed to 12 digits

    def test_lossy_cat_past_the_dense_budget(self, capsys):
        # a dense lossy cat at alpha = beta = 8 would take 1.95 GiB
        from ptmoments import states
        assert run(["sample", "--family", "cat", "--alpha", "8", "--beta", "8", "--tau", "0.8",
                    "--copies", "3"]) == 0
        exact = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
        cat = states.CatParams(8.0, 8.0, 0.5, "odd").after_loss(0.8)
        assert exact == pytest.approx(states.cat_pt_moments(cat)[1], abs=1e-12)

    @pytest.mark.parametrize("family, options", [
        ("tmsv", ["--n-bar", "0.1", "--r", "0.5"]),
        ("hhg", ["--N", "3", "--alpha", "2.5", "--delta-alpha", "0.4"]),
        ("cat", ["--alpha", "0.7", "--beta", "0.3", "--z", "0.1", "--parity", "even"]),
        ("noon", ["--N", "3", "--alpha", "0.6", "--tau", "0.7"]),
    ], ids=["tmsv", "hhg", "cat", "noon"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_tmsv_and_hhg_sample_their_closed_forms(self, family, options, n, tmp_path, capsys):
        from ptmoments import gaussian, states
        if family == "tmsv":
            closed = gaussian.gaussian_pt_moment(gaussian.tmsv_thermal_pt_pair(0.1, 0.5), n)
        elif family == "hhg":
            closed = states.hhg_pt_moments(states.HHGParams(2.5, 0.4, 3))[n - 2]
        elif family == "cat":
            closed = states.cat_pt_moments(states.CatParams(0.7, 0.3, 0.1, "even"))[n - 2]
        else:
            closed = states.lossy_noon_pt_moments(states.LossyNOONParams(
                states.NOONParams(3, 0.6, 0.8), 0.7, 0.7))[n - 2]
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

    def test_fig4_taus_draw_different_class_counts(self, tmp_path, monkeypatch):
        # every repetition's generator also draws counts from one fixed law:
        # taus on a shared stream would draw the same counts at each (k, r)
        drawn = []
        sampled = cli.estimation._sampled_estimates

        def recording(law, n, k, repetitions, rng):
            twin = copy.deepcopy(rng)
            drawn.append(twin.multinomial(k, np.full(n, 1.0 / n), size=repetitions).tolist())
            return sampled(law, n, k, repetitions, rng)

        monkeypatch.setattr(cli.estimation, "_sampled_estimates", recording)
        assert run(["reproduce", "fig4", "--seed", "7", "--repetitions", "2",
                    "--out", str(tmp_path)]) == 0
        per_tau = 6 * 2 * 2  # budgets, repetitions, circuits
        assert len(drawn) == 3 * per_tau
        first, second, third = (drawn[i:i + per_tau] for i in range(0, len(drawn), per_tau))
        for a, b in ((first, second), (first, third), (second, third)):
            assert sum(x == y for x, y in zip(a, b)) <= per_tau // 4

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


class TestGridTargetsEqualScalarCalls:
    """Each elementwise grid target equals its rows rebuilt one grid point at
    a time through the same public functions, called with scalars."""

    @staticmethod
    def rows(target, tmp_path):
        assert run(["reproduce", target, "--out", str(tmp_path)]) == 0
        return read_table(tmp_path / f"{target}.csv").rows

    @staticmethod
    def grid(lo, hi, step):
        return np.round(np.arange(lo, hi + 1e-12, step), 10).tolist()

    def test_fig2a(self, tmp_path):
        from ptmoments import criteria, gaussian
        expect = []
        for nu1 in self.grid(0.2, 3.0, 0.04):
            for nu2 in self.grid(0.2, 3.0, 0.04):
                if nu1 * nu2 < 1.0 - 1e-12:
                    continue
                pair = gaussian.SymplecticPair(nu1, nu2)
                p2 = gaussian.gaussian_pt_moment(pair, 2)
                p3 = gaussian.gaussian_pt_moment(pair, 3)
                lin, quad = gaussian.symplectic_p3_criteria(pair)
                expect.append((nu1, nu2, p2, p3, gaussian.simon_test(pair).witness, lin.witness,
                               quad.witness, p3 - criteria.optimal_threshold(p2)))
        assert self.rows("fig2a", tmp_path) == expect

    def test_fig2b(self, tmp_path):
        from ptmoments import criteria
        expect = [(p2, criteria.p3_linear(p2, 0.0).threshold,
                   criteria.p3_quadratic(p2, 0.0).threshold, criteria.optimal_threshold(p2),
                   criteria.simon_gaussian3(p2, 0.0).threshold,
                   criteria.gaussian_physicality_bound(p2))
                  for p2 in self.grid(0.02, 1.0, 0.0025)]
        assert self.rows("fig2b", tmp_path) == expect

    def test_fig2c(self, tmp_path):
        from ptmoments import criteria, states
        expect = []
        for z in (0.0, 0.5, 0.9, 0.99):
            boundary = states.cat_separability_radius(z) / math.sqrt(2.0)
            for a in self.grid(0.01, 2.5, 0.01):
                p2, p3 = states.cat_pt_moments(states.CatParams(a, a, z, "odd"))
                expect.append((z, a, p2, p3, criteria.p3_linear(p2, p3).witness, boundary))
        assert self.rows("fig2c", tmp_path) == expect

    def test_fig2d(self, tmp_path):
        from ptmoments import criteria, states
        expect = []
        for n_modes in range(2, 7):
            for da in self.grid(0.05, 3.0, 0.025):
                p2, p3 = states.hhg_pt_moments(states.HHGParams(3.0, da, n_modes))
                expect.append((n_modes, n_modes - 1, da, p2, p3,
                               criteria.p3_linear(p2, p3).witness))
        assert self.rows("fig2d", tmp_path) == expect

    def test_fig2e(self, tmp_path):
        from ptmoments import states
        expect = []
        for n in range(1, 6):
            for a in self.grid(0.0, 1.0, 0.005):
                noon = states.NOONParams(n, a, math.sqrt(max(1.0 - a ** 2, 0.0)))
                p3 = states.noon_pt_moment(noon, 3)
                expect.append((n, a, p3, p3 - 1.0))
        assert self.rows("fig2e", tmp_path) == expect

    def test_fig5_and_its_crossings(self, tmp_path, capsys):
        from ptmoments import criteria, gaussian
        n_bar = (math.sqrt(2.0) - 1.0) / 2.0

        def row(r):
            pair = gaussian.tmsv_thermal_pt_pair(n_bar, r)
            moments = criteria.PtMomentVector(tuple(gaussian.gaussian_pt_moments(pair, 7)))
            return (r, pair.nu1, pair.nu2, *(criteria.hankel_test(moments, n).witness
                                             for n in (3, 5, 7)),
                    gaussian.simon_test(pair).witness)

        assert self.rows("fig5", tmp_path) == [row(r) for r in self.grid(0.0, 0.6, 1e-3)]
        printed = capsys.readouterr().out.splitlines()[:4]
        for col, (name, line) in enumerate(zip(("hankel3", "hankel5", "hankel7", "simon"),
                                               printed), start=3):
            crossing = cli._bisect(lambda r: row(float(r))[col], 1e-4, 0.6, xtol=1e-10)
            assert line == f"{name}: first detection at r = {crossing:.6f}"


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
                      [[np.int64(2)], [np.float64(0.5)], [np.bool_(True)]])
        path = tmp_path / "np.csv"
        write_table(table, path)
        assert path.read_text().splitlines()[-1] == "2,0.5,true"
        write_table(table, tmp_path / "np.json", fmt="json")
        again = read_table(tmp_path / "np.json")
        assert again.rows == [(2, 0.5, True)]

    def test_float_columns_keep_repr_text_per_bit_pattern(self, tmp_path):
        # the writer formats a float column once per distinct value, keyed
        # by bits: -0.0 and 0.0 compare equal, and NaN equals nothing
        rng = np.random.default_rng(3)
        column = ([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 1e300]
                  + rng.standard_normal(200).tolist() + rng.choice([0.1, 1 / 3], 200).tolist())
        mixed = [1, 1.0, True, "1.0", np.float64(-0.0)] * 4
        table = Table({"target": "unit"}, ["x", "y"],
                      [column, [mixed[i % len(mixed)] for i in range(len(column))]])
        path = write_table(table, tmp_path / "t.csv")
        cells = [line.split(",") for line in path.read_text().splitlines()[-len(column):]]
        assert [c[0] for c in cells] == [repr(x) for x in column]
        assert [c[1] for c in cells[:5]] == ["1", "1.0", "true", "1.0", "-0.0"]

    def test_rows_of_unequal_length_are_refused(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# target: \"unit\"\na,b\n1,2.0\n3\n")
        with pytest.raises(ValueError):
            read_table(path)

    def test_inf_cells_survive(self, tmp_path):
        table = Table({"target": "unit"}, ["a", "b"], [[1, 2], np.array([math.inf, 0.5])])
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
    for target in ("fig2a", "fig2c", "fig2d", "fig2e", "fig3a", "fig5"):
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
