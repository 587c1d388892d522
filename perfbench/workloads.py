"""The four benchmark workloads and their correctness checks.

Each workload builds its inputs from the seed in ``setup``, runs one timed
pass in ``run_pass`` (a closed loop with one caller: the next call starts
when the previous one returned) and verifies the outputs in ``check``, which
runs outside the timed region.  Every check is one op; a failed check is a
failed op.  README.md says why each workload exists and which layers it
loads and bypasses.

All calls go through module attributes (``fock.pt_moments``, ...), so the
tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import shutil
import sys
from dataclasses import dataclass

import numpy as np

from ptmoments import (circuits, cli, criteria, estimation, fock, gaussian, noon_tables,
                       reporting, states)

BALANCED = 1.0 / math.sqrt(2.0)

# Floors of circuits.outcome_distribution when this benchmark was written:
# eigen-weight floor per pure component and per product of components, and
# the singular-value floor of a Schmidt branch.  Used only to compute the
# readout's evolution count; they are not passed to the program.
WEIGHT_FLOOR = 1e-13
SCHMIDT_FLOOR = 1e-12


def pass_seed(seed: int, index: int) -> int:
    """Seed of timed pass ``index``: the same for the same (seed, index)."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def clear_caches() -> None:
    """Drop every lazily built table (functools caches) in the package, so a
    repeated set-up pays for them again."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "ptmoments" or name.startswith("ptmoments.")):
            continue
        for obj in list(vars(mod).values()):
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


class Checks:
    """Counts checks attempted and failed; keeps a label per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def expect(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(label)

    def close(self, label: str, got, want, tol: float) -> None:
        diff = abs(got - want)
        self.expect(f"{label}: |{got!r} - {want!r}| = {diff!r} > {tol!r}", diff <= tol)


def check_outcome_table(checks: Checks, label: str, dist, formula, outcomes,
                        alpha: float, tau: float) -> None:
    """Every outcome probability of ``dist`` against a closed-form table;
    outcomes the table does not list must have zero probability."""
    ref = {tuple(o): formula(o, alpha, tau) for o in outcomes}
    keys = set(ref) | {tuple(o) for o in dist.outcomes()}
    worst = max(abs(dist.probability(o) - ref.get(o, 0.0)) for o in keys)
    checks.close(f"{label}: outcome table vs noon_tables", worst, 0.0, 1e-10)


def check_purity(checks: Checks, label: str, moments, rho, purity=None) -> None:
    """p1 = 1 and p2 = Tr(rho^2) for a state with a full-rank partial transpose."""
    purity = fock.purity if purity is None else purity
    checks.close(f"{label}: p1", float(moments[0]), 1.0, 1e-10)
    checks.close(f"{label}: p2 vs purity", float(moments[1]), purity(rho), 1e-10)


def component_branches(rho) -> list:
    """(eigen-weight, Schmidt-branch count) of each pure component kept by
    the readout engine."""
    w, vecs = np.linalg.eigh(rho.matrix)
    out = []
    for i in range(w.size):
        if w[i] > WEIGHT_FLOOR:
            s = np.linalg.svd(vecs[:, i].reshape(rho.d_a, rho.d_b), compute_uv=False)
            out.append((float(w[i]), int(np.count_nonzero(s > SCHMIDT_FLOOR))))
    return out


def evolutions(copies) -> int:
    """Interferometer evolutions per party of the exact readout: the sum,
    over choices of one pure component per copy whose weight product clears
    the floor, of the product of the chosen components' Schmidt branches."""
    per_copy = {}
    comps = [per_copy.setdefault(id(c), component_branches(c)) for c in copies]
    total = 0
    for choice in itertools.product(*comps):
        if math.prod(w for w, _ in choice) < WEIGHT_FLOOR:
            continue
        total += math.prod(b for _, b in choice)
    return total


def pooled(points) -> tuple[float, float]:
    """Mean and standard deviation of the witness over all repetitions of
    several SimulationPoints (equal-weight pooling of their summaries)."""
    reps = [p.estimate.repetitions for p in points]
    means = [p.estimate.mean for p in points]
    total = sum(reps)
    mean = sum(r * m for r, m in zip(reps, means)) / total
    ss = sum((r - 1) * p.estimate.variance + r * (m - mean) ** 2
             for r, m, p in zip(reps, means, points))
    return mean, math.sqrt(ss / (total - 1))


class Workload:
    min_passes = 3

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def run_pass(self, index: int, seed: int, tracer) -> None:
        raise NotImplementedError

    def check(self, checks: Checks) -> None:
        raise NotImplementedError

    def extra_counts(self) -> dict:
        """Per-layer counters this workload computes from its own inputs."""
        return {}

    def close(self) -> None:
        """Remove whatever the workload wrote."""


class Experiment(Workload):
    """Criterion 9's noisy-copy experiment: lossy N=1 NOON copies,
    tau in {0.9, 0.75, 0.6}, k = 1000 shots per circuit and estimate."""

    taus = (0.9, 0.75, 0.6)
    k = 1000
    repetitions = 100
    # Criterion 9 uses 500 repetitions; its rule is checked on all passes
    # pooled, so at least five passes of 100 run.
    min_passes = 5

    @staticmethod
    def case(tau: float) -> str:
        return f"tau{round(tau * 100):03d}"

    def setup(self, seed):
        self.params = {tau: states.LossyNOONParams.balanced(1, tau) for tau in self.taus}
        self.points = {tau: [] for tau in self.taus}
        warm = estimation.SamplingPlan(k=10, repetitions=2, master_seed=seed)
        estimation.full_simulation(self.params[self.taus[0]], warm, k_values=(10,))

    def run_pass(self, index, seed, tracer):
        master = pass_seed(seed, index)
        for tau in self.taus:
            tracer.case = self.case(tau)
            plan = estimation.SamplingPlan(k=self.k, repetitions=self.repetitions,
                                           master_seed=master)
            (point,) = estimation.full_simulation(self.params[tau], plan, k_values=(self.k,))
            self.points[tau].append(point)

    def check(self, checks):
        for tau in self.taus:
            points = self.points[tau]
            mean, std = pooled(points)
            checks.expect(f"experiment tau={tau}: witness {mean:.5f} +/- {std:.5f} over "
                          f"{len(points)} passes is not below zero by one std",
                          mean < 0.0 and mean + std < 0.0)
            m = fock.pt_moments(states.lossy_noon_density(self.params[tau]), 3)
            checks.close(f"experiment tau={tau}: analytic witness vs dense oracle",
                         points[-1].analytic_witness,
                         float(m[2]) - criteria.optimal_threshold(float(m[1])), 1e-10)


@dataclass
class Case:
    """One readout input: ``rho`` is None for the lossy cat, made in the pass."""

    group: str
    label: str
    n: int
    rho: object = None
    tau: float = 1.0


class Readout(Workload):
    """The ``ptmoments sample`` path: outcome_distribution, then
    multicopy_expectation, then estimate_pn, over copies that vary copy
    count, mixed rank and Schmidt rank."""

    k = 1000
    repetitions = 64
    loss = 0.8
    cat = states.CatParams(0.5, 0.5, 0.5, "odd")
    groups = ("noon1", "noon3_n3", "cat_n3", "lossycat_n2")

    def setup(self, seed):
        cases = []
        for tau in (1.0, 0.9, 0.75, 0.6):
            rho = states.lossy_noon_density(states.LossyNOONParams.balanced(1, tau))
            for n in (2, 3):
                cases.append(Case("noon1", f"noon N=1 tau={tau} n={n}", n, rho, tau))
        cases.append(Case("noon3_n3", "noon N=3 tau=0.75 n=3", 3, states.lossy_noon_density(
            states.LossyNOONParams.balanced(3, 0.75))))
        self.cat_rho = states.cat_density(self.cat)
        cases.append(Case("cat_n3", "odd cat n=3", 3, self.cat_rho))
        # the lossy cat is made inside the pass: the loss channel is part of
        # the sample path
        cases.append(Case("lossycat_n2", f"odd cat after tau={self.loss} loss n=2", 2))
        self.cases = cases
        # Warm every lazily built coupling tensor the pass needs: vacuum copies
        # with each case's cutoff run the same interferometers at the same size.
        for case in cases:
            cutoff = (case.rho or self.cat_rho).cutoff
            vac = np.zeros((cutoff.dim, cutoff.dim))
            vac[0, 0] = 1.0
            vac = fock.BipartiteDensityOperator(cutoff, vac)
            dist = circuits.outcome_distribution([vac] * case.n, case.n)
        circuits.lossy_channel(self.cat_rho, self.loss, "a")
        circuits.multicopy_expectation(dist)
        estimation.estimate_pn(dist, dist.n_copies, 10, 2, estimation.rng_stream(seed))

    def lossy_cat(self):
        rho = circuits.lossy_channel(self.cat_rho, self.loss, "a")
        return circuits.lossy_channel(rho, self.loss, "b")

    def run_pass(self, index, seed, tracer):
        master = pass_seed(seed, index)
        self.last = []
        for i, case in enumerate(self.cases):
            tracer.case = case.group
            rho = case.rho if case.rho is not None else self.lossy_cat()
            dist = circuits.outcome_distribution([rho] * case.n, case.n)
            exact = circuits.multicopy_expectation(dist)
            est = estimation.estimate_pn(dist, case.n, self.k, self.repetitions,
                                         estimation.rng_stream(master, i))
            self.last.append((case, rho, dist, exact, est))

    def check(self, checks):
        for case, rho, dist, exact, est in self.last:
            checks.close(f"{case.label}: readout expectation vs dense oracle", exact,
                         fock.pt_moment(rho, case.n), 1e-8)
            _, probs = dist.as_arrays()
            checks.close(f"{case.label}: probabilities sum to one", float(probs.sum()), 1.0,
                         1e-10)
            checks.close(f"{case.label}: estimate within 5 standard errors", est.mean, exact,
                         5.0 * est.std_error + 1e-12)
            if case.group == "noon1":
                if case.n == 2:
                    formula, outcomes = noon_tables.f2_formula, noon_tables.f2_outcomes()
                else:
                    formula, outcomes = noon_tables.f3_formula, noon_tables.f3_outcomes()
                check_outcome_table(checks, case.label, dist, formula, outcomes, BALANCED,
                                    case.tau)

    def extra_counts(self):
        # Excluded case, never run: the lossy cat at n=3 did not finish after
        # more than 12 min of CPU.  Its cost is reported instead.
        return {"circuits.lossycat_n3_evolutions": evolutions([self.last[-1][1]] * 3)}


class Oracle(Workload):
    """The dense PT-moment oracle: validated construction (PSD check) and
    fock.pt_moments on block-sparse and unstructured states."""

    r = 0.5
    cat = states.CatParams(2.0, 2.0, 0.5, "odd")
    n_max = 7
    cases_order = ("tmsv_d30", "tmsv_d40", "tmsv_d50", "cat", "random_d30")

    def setup(self, seed):
        cases = []
        for d in (30, 40, 50):
            rho = states.tmsv_density(self.r, d)
            # the d=50 PSD check alone would add about as much as its pt_moments
            cases.append((f"tmsv_d{d}", rho.cutoff, rho.matrix, d != 50))
        rho = states.cat_density(self.cat)
        cases.append(("cat", rho.cutoff, rho.matrix, True))
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((900, 900)) + 1j * rng.standard_normal((900, 900))
        m = g @ g.conj().T
        m = 0.5 * (m + m.conj().T)
        cases.append(("random_d30", fock.ModeCutoff(30, 30), m / np.trace(m).real, True))
        self.cases = cases
        tiny = fock.BipartiteDensityOperator(fock.ModeCutoff(2, 2), np.eye(4) / 4.0)
        fock.pt_moments(tiny, self.n_max)

    def run_pass(self, index, seed, tracer):
        self.last = {}
        for label, cutoff, matrix, validate in self.cases:
            tracer.case = label
            rho = fock.BipartiteDensityOperator(cutoff, matrix, check_psd=validate)
            self.last[label] = (rho, fock.pt_moments(rho, self.n_max))

    def check(self, checks):
        pair = gaussian.tmsv_thermal_pt_pair(0.0, self.r)
        for d in (30, 40, 50):
            moments = self.last[f"tmsv_d{d}"][1]
            for n in range(2, self.n_max + 1):
                checks.close(f"tmsv d={d} p{n} vs gaussian_pt_moment", float(moments[n - 1]),
                             gaussian.gaussian_pt_moment(pair, n), 1e-7)
        moments = self.last["cat"][1]
        p2, p3 = states.cat_pt_moments(self.cat)
        checks.close("cat p2 vs cat_pt_moments", float(moments[1]), p2, 1e-8)
        checks.close("cat p3 vs cat_pt_moments", float(moments[2]), p3, 1e-8)
        rho, moments = self.last["random_d30"]
        check_purity(checks, "random d=30", moments, rho)


class Reproduce(Workload):
    """All 14 ``ptmoments reproduce`` targets through cli.main, fig4 and fig7
    with trimmed repetitions."""

    targets = ("fig2a", "fig2b", "fig2c", "fig2d", "fig2e", "fig3a", "fig3b", "fig3c",
               "fig4", "fig5", "fig6", "fig7", "table1", "table2")
    trimmed = ("fig4", "fig7")
    repetitions = 4

    def __init__(self, workdir):
        self.workdir = workdir
        self.out = workdir / "out"

    def _main(self, argv) -> int:
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse reports errors by exiting
            return exc.code if isinstance(exc.code, int) else 1

    def setup(self, seed):
        warm = str(self.workdir / "warm")
        with contextlib.redirect_stdout(io.StringIO()):
            for target in ("table1", "table2"):
                self._main(["reproduce", target, "--out", warm])
        estimation.noon1_moments(2, [[BALANCED] * 2], [[0.9] * 2])
        estimation.noon1_moments(3, [[BALANCED] * 3], [[0.9] * 3])

    def run_pass(self, index, seed, tracer):
        master = str(pass_seed(seed, index))
        self.codes = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for target in self.targets:
                tracer.case = target
                argv = ["reproduce", target, "--out", str(self.out), "--seed", master]
                if target in self.trimmed:
                    argv += ["--repetitions", str(self.repetitions)]
                self.codes[target] = self._main(argv)

    def check(self, checks):
        again = self.workdir / "roundtrip"
        for target in self.targets:
            checks.expect(f"reproduce {target}: exit code {self.codes[target]}",
                          self.codes[target] == 0)
            path = self.out / f"{target}.csv"
            if not path.is_file():
                checks.expect(f"reproduce {target}: {path.name} missing", False)
                continue
            table = reporting.read_table(path)
            copy = reporting.write_table(table, again / path.name)
            checks.expect(f"reproduce {target}: read_table round-trip differs",
                          copy.read_bytes() == path.read_bytes())
            if target in ("table1", "table2"):
                col = table.columns.index("abs_diff")
                checks.close(f"reproduce {target}: largest abs_diff",
                             max(row[col] for row in table.rows), 0.0, 1e-10)

    def extra_counts(self):
        files = sorted(self.out.glob("*.csv"))
        return {"reporting.rows": sum(len(reporting.read_table(f).rows) for f in files),
                "reporting.bytes": sum(f.stat().st_size for f in files)}

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def make(name: str, workdir):
    if name == "reproduce":
        return Reproduce(workdir)
    return {"experiment": Experiment, "readout": Readout, "oracle": Oracle}[name]()
