"""ptmoments benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout; the package is imported from ``src/`` of
the checkout that holds this file, never from an installed copy.  With
``--trace 0`` the end-to-end metrics are printed, with ``--trace 1`` the
per-layer metrics of a separate traced run.  Either way the outputs are
checked after timing and the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md for
the workloads and what each metric should move.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("experiment", "readout", "oracle", "reproduce")
SETUP_REPEATS = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="check that a corrupted reference is counted as a failed op")
    args = p.parse_args(argv)
    if not args.self_test and args.workload is None:
        p.error("--workload is required")
    return args


def import_package():
    """Import the benchmark modules against the checkout's src/; returns
    (workloads, tracing) or raises ImportError."""
    sys.path.insert(0, str(SRC))
    import ptmoments
    if Path(ptmoments.__file__).resolve().parent != (SRC / "ptmoments").resolve():
        raise ImportError(f"ptmoments imported from {ptmoments.__file__}, not from {SRC}")
    import tracing
    import workloads
    return workloads, tracing


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def provenance(args, nproc: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": nproc,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": git_commit()}


def measure(wl, seed, budget, min_passes, tracer, first=0, figures=None):
    """Closed loop of timed passes, numbered from ``first``: another pass
    starts only while the last one would still end within ``budget``
    seconds, and at least ``min_passes`` run.  Returns per-pass wall and CPU
    seconds.  With ``figures`` given, each pass runs traced and
    ``figures()`` is collected after it, outside the timing."""
    walls, cpus, collected = [], [], []
    start = time.perf_counter()
    while True:
        tracer.reset()
        tracer.active = figures is not None
        c0, t0 = time.process_time(), time.perf_counter()
        wl.run_pass(first + len(walls), seed, tracer)
        t1, c1 = time.perf_counter(), time.process_time()
        tracer.active = False
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
        if figures is not None:
            collected.append(figures())
        if len(walls) >= min_passes and t1 - start + walls[-1] > budget:
            return walls, cpus, collected


# -- per-layer metrics ---------------------------------------------------------

def per_layer_spec(wl_mod, tracing) -> dict:
    """Name -> (unit, better) of every per-layer metric, in print order."""
    spec = {}
    for layer in tracing.LAYERS:
        spec[f"{layer}.self_s"] = ("s", "lower")
        spec[f"{layer}.calls"] = ("count", "lower")
    spec["fock.pt_moments_s"] = ("s", "lower")
    spec["fock.density_init_s"] = ("s", "lower")
    for case in wl_mod.Oracle.cases_order:
        spec[f"fock.pt_moments_{case}_s"] = ("s", "lower")
    spec["fock.max_dim"] = ("count", "lower")
    spec["fock.eigh_flops"] = ("flop", "lower")
    spec["circuits.outcome_distribution_s"] = ("s", "lower")
    for group in wl_mod.Readout.groups:
        spec[f"circuits.od_{group}_s"] = ("s", "lower")
    spec["circuits.lossy_channel_s"] = ("s", "lower")
    spec["circuits.setup_self_s"] = ("s", "lower")
    spec["circuits.evolutions"] = ("count", "lower")
    spec["circuits.outcomes"] = ("count", "lower")
    spec["circuits.lossycat_n3_evolutions"] = ("count", "lower")
    spec["estimation.full_simulation_s"] = ("s", "lower")
    for tau in wl_mod.Experiment.taus:
        spec[f"estimation.fullsim_{wl_mod.Experiment.case(tau)}_s"] = ("s", "lower")
    spec["estimation.noon1_moments_s"] = ("s", "lower")
    spec["estimation.estimate_pn_s"] = ("s", "lower")
    spec["estimation.shots"] = ("count", "higher")
    spec["estimation.shots_per_s"] = ("1/s", "higher")
    spec["estimation.clamped_draws"] = ("count", "lower")
    spec["reporting.write_table_s"] = ("s", "lower")
    spec["reporting.rows"] = ("count", "higher")
    spec["reporting.bytes"] = ("B", "higher")
    for target in wl_mod.Reproduce.targets:
        spec[f"cli.{target}_s"] = ("s", "lower")
    spec["trace.overhead_s"] = ("s", "lower")
    spec["trace.spans"] = ("count", "lower")
    return spec


CAPTURED = ("circuits.outcome_distribution", "estimation.full_simulation",
            "estimation.estimate_pn", "estimation.sample_pn")


def pass_layer_metrics(tracer, tracing, wl_mod) -> dict:
    """Per-layer figures of one traced pass."""
    spans = tracer.spans
    m = {}
    own = tracing.self_times(spans)
    calls = tracing.layer_calls(spans)
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = own[layer]
        m[f"{layer}.calls"] = calls[layer]
    named = tracing.named_seconds
    m["fock.pt_moments_s"] = named(spans, "fock.pt_moments")
    m["fock.density_init_s"] = named(spans, "fock.BipartiteDensityOperator")
    for case in wl_mod.Oracle.cases_order:
        m[f"fock.pt_moments_{case}_s"] = named(spans, "fock.pt_moments", case)
    m["fock.max_dim"] = max((n for n, _, _ in tracer.eigen), default=0)
    m["fock.eigh_flops"] = tracing.eigen_flops(tracer.eigen)
    m["circuits.outcome_distribution_s"] = named(spans, "circuits.outcome_distribution")
    for group in wl_mod.Readout.groups:
        m[f"circuits.od_{group}_s"] = named(spans, "circuits.outcome_distribution", group)
    m["circuits.lossy_channel_s"] = named(spans, "circuits.lossy_channel")
    evol = outcomes = 0
    for bound, dist in tracer.captured["circuits.outcome_distribution"]:
        evol += wl_mod.evolutions(list(bound["copies"]))
        outcomes += len(dist.outcomes())
    m["circuits.evolutions"] = evol
    m["circuits.outcomes"] = outcomes
    m["estimation.full_simulation_s"] = named(spans, "estimation.full_simulation")
    for tau in wl_mod.Experiment.taus:
        case = wl_mod.Experiment.case(tau)
        m[f"estimation.fullsim_{case}_s"] = named(spans, "estimation.full_simulation", case)
    m["estimation.noon1_moments_s"] = named(spans, "estimation.noon1_moments")
    m["estimation.estimate_pn_s"] = named(spans, "estimation.estimate_pn")
    shots = clamped = 0
    for bound, points in tracer.captured["estimation.full_simulation"]:
        ks = bound["k_values"] or wl_mod.estimation.DEFAULT_K_GRID
        shots += sum(2 * k * bound["plan"].repetitions for k in ks)
        clamped += sum(p.clamped_draws for p in points)
    for bound, _ in tracer.captured["estimation.estimate_pn"]:
        shots += bound["k"] * bound["repetitions"]
    for bound, _ in tracer.captured["estimation.sample_pn"]:
        shots += bound["k"]
    m["estimation.shots"] = shots
    m["estimation.clamped_draws"] = clamped
    m["reporting.write_table_s"] = named(spans, "reporting.write_table")
    for target in wl_mod.Reproduce.targets:
        m[f"cli.{target}_s"] = named(spans, "cli.main", target)
    m["trace.spans"] = len(spans)
    return m


# -- runs -----------------------------------------------------------------------

def run(args) -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(nproc)
    if not (SRC / "ptmoments" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    try:
        wl_mod, tracing = import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _STARTED

    workdir = ROOT / ".perfbench_out" / str(os.getpid())
    wl = wl_mod.make(args.workload, workdir)
    tracer = tracing.Tracer(capture=CAPTURED)
    try:
        if args.trace:
            metrics = traced_run(args, wl, wl_mod, tracing, tracer)
        else:
            metrics = untraced_run(args, wl, wl_mod, import_s, tracer)
        checks = wl_mod.Checks()
        wl.check(checks)
    finally:
        tracer.uninstall()
        wl.close()
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    print("provenance " + json.dumps(provenance(args, nproc), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    for label in checks.failures:
        print(f"FAILED {label}")
    print(f"ops {checks.attempted} ops_failed {checks.failed}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def untraced_run(args, wl, wl_mod, import_s, tracer) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        wl_mod.clear_caches()
        t0 = time.perf_counter()
        wl.setup(args.seed)
        setups.append(time.perf_counter() - t0)
    walls, cpus, _ = measure(wl, args.seed, args.seconds, wl.min_passes, tracer)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def traced_run(args, wl, wl_mod, tracing, tracer) -> dict:
    spec = per_layer_spec(wl_mod, tracing)
    wl_mod.clear_caches()
    tracer.install()
    tracer.active, tracer.case = True, "setup"
    wl.setup(args.seed)
    tracer.active = False
    setup_circuits = tracing.self_times(tracer.spans)["circuits"]
    tracer.uninstall()
    tracer.reset()

    # Half the budget untraced (the reference for the overhead), half traced.
    half = args.seconds / 2.0
    min_passes = max(1, (wl.min_passes + 1) // 2)
    plain, _, _ = measure(wl, args.seed, half, min_passes, tracer)

    def figures():
        out = pass_layer_metrics(tracer, tracing, wl_mod)
        out.update(wl.extra_counts())
        return out

    tracer.install()
    traced, _, per_pass = measure(wl, args.seed, half, min_passes, tracer,
                                  first=len(plain), figures=figures)
    tracer.uninstall()

    wall = statistics.median(plain)
    values = {}
    for name, (unit, _) in spec.items():
        got = [p[name] for p in per_pass if name in p]
        # counters are reported as one pass saw them, timings as medians
        middle = statistics.median if unit == "s" else statistics.median_low
        values[name] = middle(got) if got else 0
    values["circuits.setup_self_s"] = setup_circuits
    values["estimation.shots_per_s"] = values["estimation.shots"] / wall
    values["trace.overhead_s"] = statistics.median(traced) - wall
    return {name: (values[name], unit) for name, (unit, _) in spec.items()}


def self_test() -> int:
    """Tiny cases of two checks, once against the true reference and once
    against a corrupted one; the corrupted run must count one failed op."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(nproc)
    try:
        wl_mod, _ = import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    import numpy as np
    from ptmoments import circuits, fock, noon_tables, states

    rho = states.lossy_noon_density(states.LossyNOONParams.balanced(1, 0.75))
    dist = circuits.outcome_distribution([rho] * 2, 2)
    rng = np.random.default_rng(0)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    mixed = fock.BipartiteDensityOperator(fock.ModeCutoff(3, 3), g @ g.conj().T
                                          / np.trace(g @ g.conj().T).real)
    moments = fock.pt_moments(mixed, 2)

    def outcome(formula):
        c = wl_mod.Checks()
        wl_mod.check_outcome_table(c, "self-test f2", dist, formula, noon_tables.f2_outcomes(),
                                   wl_mod.BALANCED, 0.75)
        return c

    def purity(ref):
        c = wl_mod.Checks()
        wl_mod.check_purity(c, "self-test d=3", moments, mixed, ref)
        return c

    results = [
        ("f2 table, true reference", outcome(noon_tables.f2_formula), 0),
        ("f2 table, corrupted reference",
         outcome(lambda o, a, t: noon_tables.f2_formula(o, a, t) + (1e-6 if o == (1, 1) else 0.0)),
         1),
        ("purity, true reference", purity(fock.purity), 0),
        ("purity, corrupted reference", purity(lambda r: fock.purity(r) * (1.0 + 1e-6)), 1),
    ]
    ok = True
    for label, checks, want in results:
        good = checks.attempted >= 1 and checks.failed == want
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {label}: attempted {checks.attempted}, "
              f"failed {checks.failed} (expected {want})")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.self_test:
        return self_test()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
