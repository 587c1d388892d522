"""Command-line front end.

Three subcommands:

* ``criteria``  evaluate all applicable separability tests on explicit
  moments or on a named state family,
* ``sample``    run the n-copy readout end to end with finite statistics,
* ``reproduce`` regenerate one of the benchmark datasets (figure curves,
  output-distribution tables, simulated experiment) as CSV or JSON.

Figure targets emit data, never images; plotting is a one-liner left to the
user (see README).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, astuple
from functools import cache

import numpy as np

from . import circuits, criteria, estimation, fock, gaussian, noon_tables, states
from .errors import DomainError, PtmomentsError
from .fock import DEFAULT_TOL, ModeCutoff
from .reporting import Table, format_value, write_table

BALANCED = 1.0 / math.sqrt(2.0)


def _provenance(args, target: str, **extra) -> dict:
    return {"target": target, "seed": getattr(args, "seed", None),
            "tolerances": asdict(DEFAULT_TOL), **extra}


def _emit(args, target: str, columns, data, **extra) -> None:
    """Write the named columns ``data``, one array or sequence each: a reproduce
    target to <outdir>/<target>.<format>, with its row count on stdout; the
    result of criteria or sample to the file --out (CSV by default)."""
    table = Table(_provenance(args, target, **extra), list(columns), data)
    if args.command == "reproduce":
        outdir = args.out or os.environ.get("PTMOMENTS_OUTDIR", "out")
        path, fmt = os.path.join(outdir, f"{target}.{args.format}"), args.format
        count = f" ({table.n_rows} rows)"
    else:
        path, fmt, count = args.out, args.format or "csv", ""
    print(f"wrote {write_table(table, path, fmt=fmt)}{count}")


# ---------------------------------------------------------------------------
# state families
# ---------------------------------------------------------------------------

def _noon_params(n, alpha, beta=None) -> states.NOONParams:
    """NOON parameters; alpha defaults to balanced and beta to sqrt(1 - alpha^2)."""
    alpha = BALANCED if alpha is None else alpha
    beta = np.sqrt(np.maximum(1.0 - np.float_power(alpha, 2), 0.0)) if beta is None else beta
    return states.NOONParams(n, alpha, beta)


def _or(value, default):
    return default if value is None else value


def _family_params(args):
    """The parameters of ``args.family`` with that family's defaults filled in:
    LossyNOONParams, CatParams, HHGParams, the qutrit state or the TMSV pair."""
    fam = args.family
    if fam == "noon":
        tau = _or(args.tau, 1.0)
        noon = _noon_params(_or(args.N, 1), args.alpha, args.beta)
        return states.LossyNOONParams(noon, tau, tau)
    if fam == "cat":
        return states.CatParams(_or(args.alpha, 1.0), _or(args.beta, 1.0), _or(args.z, 0.5),
                                _or(args.parity, "odd"))
    if fam == "hhg":
        return states.HHGParams(_or(args.alpha, 3.0), _or(args.delta_alpha, 0.5), _or(args.N, 1))
    if fam == "qutrit":
        return states.qutrit_state()
    return gaussian.tmsv_thermal_pt_pair(_or(args.n_bar, 0.0), _or(args.r, 0.3))


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def _family_moments(args) -> tuple[float, float, list]:
    """(p2, p3, extra_reports) of the requested family."""
    fam, p = args.family, _family_params(args)
    if fam == "noon":
        if p.tau_a != 1.0:
            p2, p3 = states.lossy_noon_pt_moments(p)
        else:
            p2, p3 = states.noon_pt_moment(p.noon, 2), states.noon_pt_moment(p.noon, 3)
    elif fam == "cat":
        p2, p3 = states.cat_pt_moments(p)
    elif fam == "hhg":
        p2, p3 = states.hhg_pt_moments(p)
    elif fam == "qutrit":
        p2, p3 = p.pt_moment(2), p.pt_moment(3)
    else:
        p2, p3 = gaussian.gaussian_pt_moment(p, 2), gaussian.gaussian_pt_moment(p, 3)
        moments = criteria.PtMomentVector(tuple(gaussian.gaussian_pt_moments(p, 7)))
        return p2, p3, [gaussian.simon_test(p), *gaussian.symplectic_p3_criteria(p),
                        criteria.simon_gaussian3(p2, p3), criteria.hankel_test(moments, 5),
                        criteria.hankel_test(moments, 7)]
    return p2, p3, []


def cmd_criteria(args) -> int:
    if args.family:
        p2, p3, extra = _family_moments(args)
        reports = criteria.third_order_reports(p2, p3) + extra
    else:
        if args.moments:
            vec = criteria.PtMomentVector(tuple(float(x) for x in args.moments.split(",")))
        elif args.p2 is None or args.p3 is None:
            raise DomainError("provide --p2 and --p3, or --moments, or --family")
        else:
            vec = criteria.PtMomentVector.of(1.0, args.p2, args.p3)
        p2, p3 = vec.p(2), vec.p(3)
        reports = criteria.third_order_reports(p2, p3)
        for n in range(3, vec.order + 1, 2):
            reports += [criteria.hankel_test(vec, n), criteria.descartes_test(vec, n)]
    print(f"p2 = {format_value(p2)}   p3 = {format_value(p3)}")
    for r in reports:
        flag = " (gaussian-only)" if r.gaussian_only else ""
        print(f"  {r.criterion_id:24s} witness = {r.witness: .12g}  "
              f"{'ENTANGLED' if r.detected else 'not detected'}{flag}")
    if args.out:
        _emit(args, "criteria", ["criterion", "witness", "threshold", "detected",
                                 "gaussian_only"], zip(*map(astuple, reports)), p2=p2, p3=p3)
    return 0


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def _sample_moments(args) -> list:
    """p_1 .. p_n, n = --copies, of the family's state: closed forms for tmsv
    and hhg, the dense oracle on the density operator otherwise."""
    p, n = _family_params(args), args.copies
    if args.family == "tmsv":
        return [gaussian.gaussian_pt_moment(p, j) for j in range(1, n + 1)]
    if args.family == "hhg":
        return [1.0, *states.hhg_pt_moments(p)][:n]
    if args.family == "noon":
        rho = states.lossy_noon_density(p)
    elif args.family == "qutrit":
        rho = p.density_operator()
    else:
        cutoff = None if args.cutoff is None else ModeCutoff(args.cutoff, args.cutoff)
        rho = states.cat_density(p, cutoff)
        if args.tau is not None and args.tau != 1.0:
            rho = circuits.lossy_channel(rho, args.tau, "a")
            rho = circuits.lossy_channel(rho, args.tau, "b")
    return fock.pt_moments(rho, n)


def cmd_sample(args) -> int:
    # the value law of identical copies, from their moments
    moments = _sample_moments(args)
    exact = float(moments[-1])
    rng = estimation.rng_stream(args.seed, args.copies)
    result = estimation.estimate_pn(circuits.moment_law(moments), args.copies, args.k,
                                    args.repetitions, rng)
    print(f"p_{args.copies} exact      = {exact:.12g}")
    print(f"p_{args.copies} estimated  = {result.mean:.12g}"
          f"  (k={result.k}, repetitions={result.repetitions})")
    print(f"variance over repetitions = {result.variance:.6g}"
          f"   std error = {result.std_error:.6g}")
    if args.out:
        _emit(args, "sample", ["mean", "variance", "std_error", "k", "repetitions"],
              [[v] for v in astuple(result)], family=args.family, n=args.copies, exact=exact)
    return 0


# ---------------------------------------------------------------------------
# reproduce targets
# ---------------------------------------------------------------------------

def _fig2a(args):
    grid = np.round(np.arange(0.2, 3.0 + 1e-12, 0.04), 10)
    nu1, nu2 = (x.ravel() for x in np.meshgrid(grid, grid, indexing="ij"))
    keep = nu1 * nu2 >= 1.0 - 1e-12
    pair = gaussian.SymplecticPair(nu1[keep], nu2[keep])
    p2, p3 = gaussian.gaussian_pt_moment(pair, 2), gaussian.gaussian_pt_moment(pair, 3)
    lin, quad = gaussian.symplectic_p3_criteria(pair)
    _emit(args, "fig2a", ["nu1", "nu2", "p2", "p3", "w_simon", "w_linear",
                          "w_quadratic", "w_optimal"],
          [nu1[keep], nu2[keep], p2, p3, gaussian.simon_test(pair).witness, lin.witness,
           quad.witness, p3 - criteria.optimal_threshold(p2)],
          grid={"lo": 0.2, "hi": 3.0, "step": 0.04})


def _fig2b(args):
    p2 = np.round(np.arange(0.02, 1.0 + 1e-12, 0.0025), 10)
    _emit(args, "fig2b", ["p2", "linear_threshold", "quadratic_threshold",
                          "optimal_threshold", "gaussian_simon_threshold",
                          "gaussian_physicality_bound"],
          [p2, criteria.p3_linear(p2, 0.0).threshold, criteria.p3_quadratic(p2, 0.0).threshold,
           criteria.optimal_threshold(p2), criteria.simon_gaussian3(p2, 0.0).threshold,
           criteria.gaussian_physicality_bound(p2)])


def _fig2c(args):
    zs = (0.0, 0.5, 0.9, 0.99)
    z, a = (x.ravel() for x in np.meshgrid(
        zs, np.round(np.arange(0.01, 2.5 + 1e-12, 0.01), 10), indexing="ij"))
    boundary_alpha = [states.cat_separability_radius(v) / math.sqrt(2.0) for v in zs]
    p2, p3 = states.cat_pt_moments(states.CatParams(a, a, z, "odd"))
    _emit(args, "fig2c", ["z", "alpha", "p2", "p3", "w_linear", "boundary_alpha"],
          [z, a, p2, p3, criteria.p3_linear(p2, p3).witness,
           np.repeat(boundary_alpha, z.size // len(zs))])


def _fig2d(args):
    n_modes, da = (x.ravel() for x in np.meshgrid(
        np.arange(2, 7), np.round(np.arange(0.05, 3.0 + 1e-12, 0.025), 10), indexing="ij"))
    p2, p3 = states.hhg_pt_moments(states.HHGParams(3.0, da, n_modes))
    _emit(args, "fig2d", ["n_modes", "n_harmonics", "delta_alpha", "p2", "p3", "w_linear"],
          [n_modes, n_modes - 1, da, p2, p3, criteria.p3_linear(p2, p3).witness])


def _fig2e(args):
    n, a = (x.ravel() for x in np.meshgrid(
        np.arange(1, 6), np.round(np.arange(0.0, 1.0 + 1e-12, 0.005), 10), indexing="ij"))
    p3 = states.noon_pt_moment(_noon_params(n, a), 3)
    _emit(args, "fig2e", ["N", "alpha", "p3", "w_linear"], [n, a, p3, p3 - 1.0])


def _bisect(f, lo, hi, xtol: float):
    """Root of ``f`` on [lo, hi], where it changes sign, to within xtol.

    Elementwise: lo and hi may be arrays, f maps an array of points to
    values of its shape, and each element halves its own bracket until it
    is at most xtol wide.  Scalars give a float."""
    lo, hi = (np.array(x, dtype=float) for x in np.broadcast_arrays(lo, hi))
    positive = f(lo) > 0
    wide = hi - lo > xtol
    while wide.any():
        mid = 0.5 * (lo + hi)
        up = (f(mid) > 0) == positive
        lo, hi = np.where(wide & up, mid, lo), np.where(wide & ~up, mid, hi)
        wide = hi - lo > xtol
    root = 0.5 * (lo + hi)
    return float(root) if root.ndim == 0 else root


def _lossy_noon_moments(n, tau) -> tuple:
    return states.lossy_noon_pt_moments(states.LossyNOONParams.balanced(n, tau))


def _lossy_noon_grid(tau_step: float) -> tuple:
    """The (N, tau) grid of fig3a/fig3c, N = 1..10 by tau from 0.5 to 1, as
    flat arrays, and the balanced lossy NOON (p2, p3) on it."""
    n, tau = (x.ravel() for x in np.meshgrid(
        np.arange(1, 11), np.round(np.arange(0.5, 1.0 + 1e-12, tau_step), 10), indexing="ij"))
    return n, tau, *_lossy_noon_moments(n, tau)


def _fig3a(args):
    n, tau, p2, p3 = _lossy_noon_grid(1e-3)
    w = p3 - criteria.optimal_threshold(p2)
    ns, lo = np.arange(1, 11), np.full(10, 0.501)
    f = lambda t: criteria.p3_optimal(*_lossy_noon_moments(ns, t)).witness
    crossings = np.where(f(lo) > 0, _bisect(f, lo, 0.9999, xtol=1e-9), 0.5)
    for N, crossing in zip(ns.tolist(), crossings.tolist()):
        print(f"N={N}: optimal witness crosses zero at tau = {crossing:.6f}")
    _emit(args, "fig3a", ["N", "tau", "p2", "p3", "w_optimal"], [n, tau, p2, p3, w])


def _fig3b(args):
    step = 1.0 / 60.0
    grid = np.round(np.arange(0.0, 1.0 + 1e-12, step), 10)
    x2, x3 = (x.ravel() for x in np.meshgrid(grid, grid, indexing="ij"))
    panels = []
    for tau1 in (0.9, 0.75, 0.6):
        for panel in ("alpha", "tau"):
            # copy 1 is balanced at tau1; the panel's parameter is x2, x3 on copies 2, 3
            first, other = (BALANCED, tau1) if panel == "alpha" else (tau1, BALANCED)
            varied = np.column_stack([np.full_like(x2, first), x2, x3])
            fixed = np.full((x2.size, 3), other)
            alphas, taus = (varied, fixed) if panel == "alpha" else (fixed, varied)
            p2 = estimation.noon1_moments(2, alphas[:, :2], taus[:, :2])
            p3 = estimation.noon1_moments(3, alphas, taus)
            w = estimation._optimal_witness_from_estimates(p2, p3)
            panels.append((np.full(x2.size, panel), np.full(x2.size, tau1), x2, x3, p2, p3, w,
                           w < 0))
    _emit(args, "fig3b", ["panel", "tau1", "x2", "x3", "p2", "p3", "w_optimal", "detected"],
          map(np.concatenate, zip(*panels)), note="x2/x3 vary the second and third copy")


def _fig3c(args):
    n, tau, p2, p3 = _lossy_noon_grid(2.5e-3)
    k_star = estimation.min_samples(p2, p3, "quadratic")
    _emit(args, "fig3c", ["N", "tau", "k_star_quadratic"], [n, tau, k_star])


def _fig4(args):
    plan_reps = 200 if args.repetitions is None else args.repetitions
    rows = []
    for tau_idx, tau in enumerate((0.9, 0.75, 0.6)):
        # each tau draws on its own streams: a master seed from (--seed, tau index)
        seed = int(estimation.rng_stream(args.seed, tau_idx).integers(2 ** 63))
        plan = estimation.SamplingPlan(k=2, repetitions=plan_reps, master_seed=seed)
        for pt in estimation.full_simulation(states.LossyNOONParams.balanced(1, tau), plan):
            est = pt.estimate
            rows.append((tau, pt.k, est.mean, math.sqrt(est.variance), est.std_error,
                         pt.analytic_witness, pt.band_low, pt.band_high, pt.clamped_draws))
    _emit(args, "fig4", ["tau", "k", "mean", "std", "std_error", "analytic",
                         "band_low", "band_high", "clamped_draws"], zip(*rows),
          repetitions=plan_reps, noise=asdict(estimation.NoiseSpec()))


def _fig5_columns(n_bar: float, r) -> tuple:
    """nu1, nu2 and the hankel3, hankel5, hankel7 and Simon witnesses at r."""
    pair = gaussian.tmsv_thermal_pt_pair(n_bar, r)
    moments = criteria.PtMomentVector(tuple(gaussian.gaussian_pt_moments(pair, 7)))
    return (pair.nu1, pair.nu2, *(criteria.hankel_test(moments, n).witness for n in (3, 5, 7)),
            gaussian.simon_test(pair).witness)


def _fig5(args):
    n_bar = (math.sqrt(2.0) - 1.0) / 2.0
    r = np.round(np.arange(0.0, 0.6 + 1e-12, 1e-3), 10)
    # one bracket per witness: witness j is read at the j-th point
    f = lambda rs: np.diagonal(np.array(_fig5_columns(n_bar, rs)[2:]))
    crossings = _bisect(f, np.full(4, 1e-4), 0.6, xtol=1e-10)
    for name, crossing in zip(("hankel3", "hankel5", "hankel7", "simon"), crossings.tolist()):
        print(f"{name}: first detection at r = {crossing:.6f}")
    _emit(args, "fig5", ["r", "nu1", "nu2", "w_hankel3", "w_hankel5", "w_hankel7",
                         "w_simon"], [r, *_fig5_columns(n_bar, r)], n_bar=n_bar)


def _fig6(args):
    rows = []
    for tau in (1.0, 0.9, 0.75, 0.6):
        rho = states.lossy_noon_density(states.LossyNOONParams.balanced(1, tau))
        d2 = circuits.outcome_distribution([rho] * 2, 2)
        rows += [("f2", tau, n2a, 0, n2b, 0, p)
                 for (n2a, n2b), p in zip(d2.cells.tolist(), d2.probs.tolist())]
        d3 = circuits.outcome_distribution([rho] * 3, 3)
        rows += [("f3", tau, *cell, p) for cell, p in zip(d3.cells.tolist(), d3.probs.tolist())]
    _emit(args, "fig6", ["circuit", "tau", "n2a", "n3a", "n2b", "n3b", "probability"],
          zip(*rows), note="f2 rows have no third mode; their n3 columns read 0")


def _fig7(args):
    reps = 500 if args.repetitions is None else args.repetitions
    k_grid = (10, 32, 100, 316, 1000)
    rows = []
    for tau_idx, tau in enumerate((1.0, 0.9, 0.75, 0.6)):
        p2, p3 = states.lossy_noon_pt_moments(states.LossyNOONParams.balanced(1, tau))
        law2, law3 = circuits.moment_law((1.0, p2)), circuits.moment_law((1.0, p2, p3))
        for k_idx, k in enumerate(k_grid):
            rng = estimation.rng_stream(args.seed, tau_idx, k_idx)
            e2 = estimation._sampled_estimates(law2, 2, k, reps, rng)
            e3 = estimation._sampled_estimates(law3, 3, k, reps, rng)
            var_l, var_q = estimation.witness_variances(p2, p3, k)
            w_l, w_q = estimation.witness_estimators(e2, e3, k)
            w_opt = estimation._optimal_witness_from_estimates(e2.real, e3)
            for name, sampled, test, var_a in (
                    ("linear", w_l.real, criteria.p3_linear, var_l),
                    ("quadratic", w_q.real, criteria.p3_quadratic, var_q),
                    ("optimal", w_opt, criteria.p3_optimal, var_l)):
                rows.append((tau, k, name, float(np.mean(sampled)), float(np.std(sampled, ddof=1)),
                             test(p2, p3).witness, math.sqrt(var_a)))
    _emit(args, "fig7", ["tau", "k", "criterion", "mean", "std", "analytic_mean",
                         "analytic_std"], zip(*rows), repetitions=reps,
          note="analytic_std of the optimal criterion uses the linear model bound")


def _outcome_table(args, n: int):
    """table1 (n=2) or table2 (n=3): closed-form and circuit-simulated
    probability of each readout outcome of n lossy N=1 NOON copies."""
    noon = _noon_params(1, args.alpha)
    tau = 0.75 if args.tau is None else args.tau
    rho = states.lossy_noon_density(states.LossyNOONParams(noon, tau, tau))
    dist = circuits.outcome_distribution([rho] * n, n)
    outcomes, formula = ((noon_tables.f2_outcomes(), noon_tables.f2_formula) if n == 2
                         else (noon_tables.f3_outcomes(), noon_tables.f3_formula))
    m = n - 1
    exact = np.array([formula(outcome, noon.alpha, tau) for outcome in outcomes])
    simulated = np.array([dist.probability(outcome) for outcome in outcomes])
    # columns pair the two parties' counts mode by mode: n2a, n2b, n3a, n3b
    counts = [np.array(outcomes)[:, j + side] for j in range(m) for side in (0, m)]
    columns = [f"n{j}{side}" for j in range(2, n + 1) for side in "ab"]
    _emit(args, f"table{m}", columns + ["probability_formula", "probability_circuit", "abs_diff"],
          [*counts, exact, simulated, np.abs(exact - simulated)], tau=tau, alpha=noon.alpha)


_TARGET_FUNCS = {
    "fig2a": _fig2a, "fig2b": _fig2b, "fig2c": _fig2c, "fig2d": _fig2d,
    "fig2e": _fig2e, "fig3a": _fig3a, "fig3b": _fig3b, "fig3c": _fig3c,
    "fig4": _fig4, "fig5": _fig5, "fig6": _fig6, "fig7": _fig7,
    "table1": lambda args: _outcome_table(args, 2),
    "table2": lambda args: _outcome_table(args, 3),
}
REPRODUCE_TARGETS = tuple(_TARGET_FUNCS)


def cmd_reproduce(args) -> int:
    _TARGET_FUNCS[args.target](args)
    return 0


# ---------------------------------------------------------------------------
# parser and the options each command reads
# ---------------------------------------------------------------------------

# The options each command reads, per family (criteria, sample), per moment
# source (criteria without --family) and per target (reproduce), on top of the
# command's _ALWAYS_READ; --format is read only together with --out.  An
# option given outside its set is refused, never dropped.
_READS = {
    "criteria": {"--family noon": "N alpha beta tau", "--family cat": "alpha beta z parity",
                 "--family hhg": "N alpha delta_alpha", "--family qutrit": "",
                 "--family tmsv": "n_bar r", "--moments": "moments", "--p2/--p3": "p2 p3"},
    "sample": {"--family noon": "N alpha beta tau",
               "--family cat": "alpha beta z parity tau cutoff", "--family qutrit": "",
               "--family hhg": "N alpha delta_alpha", "--family tmsv": "n_bar r"},
    "reproduce": {**dict.fromkeys(REPRODUCE_TARGETS, ""), "fig4": "repetitions",
                  "fig7": "repetitions", "table1": "alpha tau", "table2": "alpha tau"},
}
_ALWAYS_READ = {"criteria": "family out format",
                "sample": "family copies k repetitions seed out format",
                "reproduce": "target seed out format"}


def _refuse_unread(args) -> None:
    """Raise DomainError naming every option given that the command does not read."""
    cmd = args.command
    if cmd == "reproduce":
        key = args.target
    elif args.family:
        key = f"--family {args.family}"
    elif cmd == "sample":
        raise DomainError("sample needs --family")
    else:
        key = "--moments" if args.moments is not None else "--p2/--p3"
    reads = set(_ALWAYS_READ[cmd].split() + _READS[cmd][key].split())
    if cmd != "reproduce" and args.out is None:
        reads.discard("format")
    unread = ["--" + dest.replace("_", "-") for dest, value in vars(args).items()
              if value is not None and dest not in reads and dest not in ("command", "func")]
    if unread:
        raise DomainError(f"{cmd} {key} does not read {', '.join(unread)}")


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptmoments",
        description="Entanglement tests from moments of the partial transpose")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family_args(p):
        p.add_argument("--family", choices=("noon", "cat", "hhg", "qutrit", "tmsv"))
        p.add_argument("--N", type=int)
        p.add_argument("--alpha", type=float)
        p.add_argument("--beta", type=float)
        p.add_argument("--z", type=float)
        p.add_argument("--parity", choices=("even", "odd"))
        p.add_argument("--tau", type=float)
        p.add_argument("--n-bar", dest="n_bar", type=float)
        p.add_argument("--r", type=float)
        p.add_argument("--delta-alpha", dest="delta_alpha", type=float)

    pc = sub.add_parser("criteria", help="evaluate separability tests")
    add_family_args(pc)
    pc.add_argument("--p2", type=float, default=None)
    pc.add_argument("--p3", type=float, default=None)
    pc.add_argument("--moments", type=str, default=None,
                    help="comma-separated p_1,p_2,... enabling higher-order tests")
    pc.add_argument("--out", type=str, default=None)
    pc.add_argument("--format", choices=("csv", "json"), default=None)
    pc.set_defaults(func=cmd_criteria)

    ps = sub.add_parser("sample", help="simulate the n-copy readout with finite statistics")
    add_family_args(ps)
    ps.add_argument("--copies", type=int, default=2, choices=(2, 3),
                    help="number of state copies n (readout measures p_n)")
    ps.add_argument("--k", type=int, default=1000)
    ps.add_argument("--repetitions", type=int, default=16)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--cutoff", type=int, default=None)
    ps.add_argument("--out", type=str, default=None)
    ps.add_argument("--format", choices=("csv", "json"), default=None)
    ps.set_defaults(func=cmd_sample)

    pr = sub.add_parser("reproduce", help="regenerate a benchmark dataset")
    pr.add_argument("target", choices=REPRODUCE_TARGETS)
    pr.add_argument("--seed", type=int, default=42)
    pr.add_argument("--tau", type=float, default=None)
    pr.add_argument("--alpha", type=float, default=None)
    pr.add_argument("--repetitions", type=int, default=None)
    pr.add_argument("--out", type=str, default=None,
                    help="output directory (default $PTMOMENTS_OUTDIR or ./out)")
    pr.add_argument("--format", choices=("csv", "json"), default="csv")
    pr.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _refuse_unread(args)
        # sample, fig4 and fig7 report a spread over repetitions
        if getattr(args, "repetitions", None) is not None and args.repetitions < 2:
            raise DomainError(f"--repetitions must be >= 2, got {args.repetitions}")
        return args.func(args)
    except (PtmomentsError, ValueError) as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
