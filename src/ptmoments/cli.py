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
from dataclasses import asdict

import numpy as np
from scipy import optimize

from . import circuits, criteria, estimation, gaussian, noon_tables, states
from .errors import DomainError, PtmomentsError
from .fock import DEFAULT_TOL, ModeCutoff
from .reporting import Table, format_value, write_table

BALANCED = 1.0 / math.sqrt(2.0)

REPRODUCE_TARGETS = ("fig2a", "fig2b", "fig2c", "fig2d", "fig2e", "fig3a", "fig3b",
                     "fig3c", "fig4", "fig5", "fig6", "fig7", "table1", "table2")


def _output_dir(args) -> str:
    return args.out or os.environ.get("PTMOMENTS_OUTDIR", "out")


def _provenance(args, target: str, **extra) -> dict:
    prov = {"target": target, "seed": getattr(args, "seed", None),
            "tolerances": asdict(DEFAULT_TOL)}
    prov.update(extra)
    return prov


def _emit(args, target: str, columns, rows, **extra) -> None:
    table = Table(_provenance(args, target, **extra), list(columns), rows)
    path = os.path.join(_output_dir(args), f"{target}.{args.format}")
    out = write_table(table, path, fmt=args.format)
    print(f"wrote {out} ({len(rows)} rows)")


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def _family_moments(args) -> tuple[float, float, list]:
    """(p2, p3, extra_reports) of the requested family."""
    fam = args.family
    extra = []
    if args.tau is not None and fam != "noon":
        raise DomainError(f"family {fam!r} has no loss model; drop --tau")
    if fam == "noon":
        alpha = BALANCED if args.alpha is None else args.alpha
        beta = math.sqrt(max(1.0 - alpha ** 2, 0.0)) if args.beta is None else args.beta
        noon = states.NOONParams(args.N, alpha, beta)
        if args.tau is not None and args.tau != 1.0:
            p = states.LossyNOONParams(noon, args.tau, args.tau)
            p2, p3 = states.lossy_noon_pt_moments(p)
        else:
            p2, p3 = states.noon_pt_moment(noon, 2), states.noon_pt_moment(noon, 3)
    elif fam == "cat":
        p = states.CatParams(args.alpha if args.alpha is not None else 1.0,
                             args.beta if args.beta is not None else 1.0,
                             args.z, args.parity)
        p2, p3 = states.cat_pt_moments(p)
    elif fam == "hhg":
        p = states.HHGParams(args.alpha if args.alpha is not None else 3.0,
                             args.delta_alpha, args.N)
        p2, p3 = states.hhg_pt_moments(p)
    elif fam == "qutrit":
        q = states.qutrit_state()
        p2, p3 = q.pt_moment(2), q.pt_moment(3)
    elif fam == "tmsv":
        pair = gaussian.tmsv_thermal_pt_pair(args.n_bar, args.r)
        p2 = gaussian.gaussian_pt_moment(pair, 2)
        p3 = gaussian.gaussian_pt_moment(pair, 3)
        extra.append(gaussian.simon_test(pair))
        extra.extend(gaussian.symplectic_p3_criteria(pair))
        extra.append(criteria.simon_gaussian3(p2, p3))
        moments = criteria.PtMomentVector(tuple(gaussian.gaussian_pt_moments(pair, 7)))
        extra.append(criteria.hankel_test(moments, 5))
        extra.append(criteria.hankel_test(moments, 7))
    else:
        raise DomainError(f"unknown family {fam!r}")
    return p2, p3, extra


def cmd_criteria(args) -> int:
    # one source of moments: --moments, --family, or --p2 with --p3
    given = [name for name, value in (("--moments", args.moments), ("--family", args.family),
                                      ("--p2", args.p2), ("--p3", args.p3)) if value is not None]
    if len(given) > 1 and given[:2] != ["--p2", "--p3"]:
        raise DomainError(f"{given[1]} is not read with {given[0]}")
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
    rows = []
    for r in reports:
        flag = " (gaussian-only)" if r.gaussian_only else ""
        print(f"  {r.criterion_id:24s} witness = {r.witness: .12g}  "
              f"{'ENTANGLED' if r.detected else 'not detected'}{flag}")
        rows.append((r.criterion_id, r.witness, r.threshold, r.detected, r.gaussian_only))
    if args.out:
        args.format = args.format or "csv"
        table = Table(_provenance(args, "criteria", p2=p2, p3=p3),
                      ["criterion", "witness", "threshold", "detected", "gaussian_only"],
                      rows)
        out = write_table(table, args.out, fmt=args.format)
        print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def _copies_for_sampling(args) -> list:
    fam = args.family
    cutoff = None
    if args.cutoff is not None:
        cutoff = ModeCutoff(args.cutoff, args.cutoff)
    if fam == "noon":
        alpha = BALANCED if args.alpha is None else args.alpha
        beta = math.sqrt(max(1.0 - alpha ** 2, 0.0)) if args.beta is None else args.beta
        noon = states.NOONParams(args.N, alpha, beta)
        tau = 1.0 if args.tau is None else args.tau
        rho = states.lossy_noon_density(states.LossyNOONParams(noon, tau, tau), cutoff)
    elif fam == "qutrit":
        if args.tau is not None:
            raise DomainError("family 'qutrit' has no loss model; drop --tau")
        rho = states.qutrit_state().density_operator()
    elif fam == "cat":
        rho = states.cat_density(states.CatParams(
            args.alpha if args.alpha is not None else 1.0,
            args.beta if args.beta is not None else 1.0, args.z, args.parity), cutoff)
        if args.tau is not None and args.tau != 1.0:
            rho = circuits.lossy_channel(rho, args.tau, "a")
            rho = circuits.lossy_channel(rho, args.tau, "b")
    else:
        raise DomainError(f"family {fam!r} not supported for sampling" if fam
                          else "sample needs --family")
    return [rho] * args.copies


def cmd_sample(args) -> int:
    copies = _copies_for_sampling(args)
    dist = circuits.outcome_distribution(copies, args.copies)
    exact = circuits.multicopy_expectation(dist)
    rng = estimation.rng_stream(args.seed, args.copies)
    result = estimation.estimate_pn(dist, args.copies, args.k, args.repetitions, rng)
    print(f"p_{args.copies} exact      = {exact:.12g}")
    print(f"p_{args.copies} estimated  = {result.mean:.12g}"
          f"  (k={result.k}, repetitions={result.repetitions})")
    print(f"variance over repetitions = {result.variance:.6g}"
          f"   std error = {result.std_error:.6g}")
    if args.out:
        args.format = args.format or "csv"
        table = Table(
            _provenance(args, "sample", family=args.family, n=args.copies, exact=exact),
            ["mean", "variance", "std_error", "k", "repetitions"],
            [(result.mean, result.variance, result.std_error, result.k, result.repetitions)])
        out = write_table(table, args.out, fmt=args.format)
        print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# reproduce targets
# ---------------------------------------------------------------------------

def _fig2a(args):
    grid = np.round(np.arange(0.2, 3.0 + 1e-12, 0.04), 10)
    rows = []
    for nu1 in grid:
        for nu2 in grid:
            if nu1 * nu2 < 1.0 - 1e-12:
                continue
            pair = gaussian.SymplecticPair(nu1, nu2)
            p2 = gaussian.gaussian_pt_moment(pair, 2)
            p3 = gaussian.gaussian_pt_moment(pair, 3)
            lin, quad = gaussian.symplectic_p3_criteria(pair)
            rows.append((float(nu1), float(nu2), p2, p3,
                         gaussian.simon_test(pair).witness, lin.witness, quad.witness,
                         criteria.p3_optimal(p2, p3).witness))
    _emit(args, "fig2a", ["nu1", "nu2", "p2", "p3", "w_simon", "w_linear",
                          "w_quadratic", "w_optimal"], rows,
          grid={"lo": 0.2, "hi": 3.0, "step": 0.04})


def _fig2b(args):
    rows = []
    for p2 in np.round(np.arange(0.02, 1.0 + 1e-12, 0.0025), 10):
        rows.append((float(p2),
                     (3.0 * p2 - 1.0) / 2.0,
                     p2 ** 2,
                     criteria.optimal_threshold(p2),
                     4.0 * p2 ** 2 / (3.0 + p2 ** 2),
                     criteria.gaussian_physicality_bound(p2)))
    _emit(args, "fig2b", ["p2", "linear_threshold", "quadratic_threshold",
                          "optimal_threshold", "gaussian_simon_threshold",
                          "gaussian_physicality_bound"], rows)


def _fig2c(args):
    rows = []
    for z in (0.0, 0.5, 0.9, 0.99):
        radius = states.cat_separability_radius(z)
        boundary_alpha = radius / math.sqrt(2.0)
        for a in np.round(np.arange(0.01, 2.5 + 1e-12, 0.01), 10):
            p2, p3 = states.cat_pt_moments(states.CatParams(a, a, z, "odd"))
            rows.append((z, float(a), p2, p3, criteria.p3_linear(p2, p3).witness,
                         boundary_alpha))
    _emit(args, "fig2c", ["z", "alpha", "p2", "p3", "w_linear", "boundary_alpha"], rows)


def _fig2d(args):
    rows = []
    for n_modes in (2, 3, 4, 5, 6):
        for da in np.round(np.arange(0.05, 3.0 + 1e-12, 0.025), 10):
            p2, p3 = states.hhg_pt_moments(states.HHGParams(3.0, float(da), n_modes))
            rows.append((n_modes, n_modes - 1, float(da), p2, p3,
                         criteria.p3_linear(p2, p3).witness))
    _emit(args, "fig2d", ["n_modes", "n_harmonics", "delta_alpha", "p2", "p3",
                          "w_linear"], rows)


def _fig2e(args):
    rows = []
    for n in range(1, 6):
        for a in np.round(np.arange(0.0, 1.0 + 1e-12, 0.005), 10):
            beta = math.sqrt(max(1.0 - float(a) ** 2, 0.0))
            p3 = states.noon_pt_moment(states.NOONParams(n, float(a), beta), 3)
            rows.append((n, float(a), p3, p3 - 1.0))
    _emit(args, "fig2e", ["N", "alpha", "p3", "w_linear"], rows)


def _lossy_noon_optimal_witness(n: int, tau: float) -> tuple[float, float, float]:
    p2, p3 = states.lossy_noon_pt_moments(states.LossyNOONParams.balanced(n, tau))
    return p2, p3, p3 - criteria.optimal_threshold(p2)


def _fig3a(args):
    rows = []
    for n in range(1, 11):
        for tau in np.round(np.arange(0.5, 1.0 + 1e-12, 1e-3), 10):
            p2, p3, w = _lossy_noon_optimal_witness(n, float(tau))
            rows.append((n, float(tau), p2, p3, w))
        f = lambda t: _lossy_noon_optimal_witness(n, t)[2]
        if f(0.501) > 0:
            crossing = optimize.brentq(f, 0.501, 0.9999, xtol=1e-9)
        else:
            crossing = 0.5
        print(f"N={n}: optimal witness crosses zero at tau = {crossing:.6f}")
    _emit(args, "fig3a", ["N", "tau", "p2", "p3", "w_optimal"], rows)


def _fig3b(args):
    step = 1.0 / 60.0
    grid = np.round(np.arange(0.0, 1.0 + 1e-12, step), 10)
    rows = []
    for tau1 in (0.9, 0.75, 0.6):
        for panel in ("alpha", "tau"):
            x2, x3 = np.meshgrid(grid, grid, indexing="ij")
            x2 = x2.ravel()
            x3 = x3.ravel()
            if panel == "alpha":
                a2 = np.column_stack([np.full_like(x2, BALANCED), x2])
                t2 = np.full((x2.size, 2), tau1)
                a3 = np.column_stack([np.full_like(x2, BALANCED), x2, x3])
                t3 = np.full((x2.size, 3), tau1)
            else:
                a2 = np.full((x2.size, 2), BALANCED)
                t2 = np.column_stack([np.full_like(x2, tau1), x2])
                a3 = np.full((x2.size, 3), BALANCED)
                t3 = np.column_stack([np.full_like(x2, tau1), x2, x3])
            p2 = estimation.noon1_moments(2, a2, t2).real
            p3 = estimation.noon1_moments(3, a3, t3).real
            for i in range(x2.size):
                p2i = min(max(float(p2[i]), 1e-9), 1.0)
                w = float(p3[i]) - criteria.optimal_threshold(p2i)
                rows.append((panel, tau1, float(x2[i]), float(x3[i]),
                             float(p2[i]), float(p3[i]), w, w < 0))
    _emit(args, "fig3b", ["panel", "tau1", "x2", "x3", "p2", "p3", "w_optimal",
                          "detected"], rows, note="x2/x3 vary the second and third copy")


def _fig3c(args):
    rows = []
    for n in range(1, 11):
        for tau in np.round(np.arange(0.5, 1.0 + 1e-12, 2.5e-3), 10):
            p2, p3 = states.lossy_noon_pt_moments(states.LossyNOONParams.balanced(n, float(tau)))
            rows.append((n, float(tau), estimation.min_samples(p2, p3, "quadratic")))
    _emit(args, "fig3c", ["N", "tau", "k_star_quadratic"], rows)


def _fig4(args):
    plan_reps = 200 if args.repetitions is None else args.repetitions
    rows = []
    for tau in (0.9, 0.75, 0.6):
        params = states.LossyNOONParams.balanced(1, tau)
        plan = estimation.SamplingPlan(k=2, repetitions=plan_reps, master_seed=args.seed)
        for pt in estimation.full_simulation(params, plan):
            est = pt.estimate
            rows.append((tau, pt.k, est.mean, math.sqrt(est.variance), est.std_error,
                         pt.analytic_witness, pt.band_low, pt.band_high, pt.clamped_draws))
    _emit(args, "fig4", ["tau", "k", "mean", "std", "std_error", "analytic",
                         "band_low", "band_high", "clamped_draws"], rows,
          repetitions=plan_reps, noise={"alpha_rel_std": 0.05, "tau_std": 0.05})


def _fig5(args):
    n_bar = (math.sqrt(2.0) - 1.0) / 2.0
    rows = []
    for r in np.round(np.arange(0.0, 0.6 + 1e-12, 1e-3), 10):
        pair = gaussian.tmsv_thermal_pt_pair(n_bar, float(r))
        moments = criteria.PtMomentVector(tuple(gaussian.gaussian_pt_moments(pair, 7)))
        rows.append((float(r), pair.nu1, pair.nu2,
                     criteria.hankel_test(moments, 3).witness,
                     criteria.hankel_test(moments, 5).witness,
                     criteria.hankel_test(moments, 7).witness,
                     gaussian.simon_test(pair).witness))
    for name, idx in (("hankel3", 3), ("hankel5", 4), ("hankel7", 5), ("simon", 6)):
        f = lambda r: _fig5_witness(n_bar, r, idx)
        crossing = optimize.brentq(f, 1e-4, 0.6, xtol=1e-10)
        print(f"{name}: first detection at r = {crossing:.6f}")
    _emit(args, "fig5", ["r", "nu1", "nu2", "w_hankel3", "w_hankel5", "w_hankel7",
                         "w_simon"], rows, n_bar=n_bar)


def _fig5_witness(n_bar, r, idx):
    pair = gaussian.tmsv_thermal_pt_pair(n_bar, r)
    if idx == 6:
        return gaussian.simon_test(pair).witness
    n = {3: 3, 4: 5, 5: 7}[idx]
    moments = criteria.PtMomentVector(tuple(gaussian.gaussian_pt_moments(pair, n)))
    return criteria.hankel_test(moments, n).witness


def _fig6(args):
    rows = []
    for tau in (1.0, 0.9, 0.75, 0.6):
        rho = states.lossy_noon_density(states.LossyNOONParams.balanced(1, tau))
        d2 = circuits.outcome_distribution([rho] * 2, 2)
        for outcome in d2.outcomes():
            rows.append(("f2", tau, outcome[0], 0, outcome[1], 0, d2.probability(outcome)))
        d3 = circuits.outcome_distribution([rho] * 3, 3)
        for outcome in d3.outcomes():
            rows.append(("f3", tau, outcome[0], outcome[1], outcome[2], outcome[3],
                         d3.probability(outcome)))
    _emit(args, "fig6", ["circuit", "tau", "n2a", "n3a", "n2b", "n3b", "probability"],
          rows, note="f2 rows have no third mode; their n3 columns read 0")


def _fig7(args):
    reps = 500 if args.repetitions is None else args.repetitions
    k_grid = (10, 32, 100, 316, 1000)
    rows = []
    for tau_idx, tau in enumerate((1.0, 0.9, 0.75, 0.6)):
        rho = states.lossy_noon_density(states.LossyNOONParams.balanced(1, tau))
        p2, p3 = states.lossy_noon_pt_moments(states.LossyNOONParams.balanced(1, tau))
        d2 = circuits.outcome_distribution([rho] * 2, 2)
        d3 = circuits.outcome_distribution([rho] * 3, 3)
        for k_idx, k in enumerate(k_grid):
            rng = estimation.rng_stream(args.seed, tau_idx, k_idx)
            e2 = estimation._sampled_estimates(d2, 2, k, reps, rng)
            e3 = estimation._sampled_estimates(d3, 3, k, reps, rng)
            var_l, var_q = estimation.witness_variances(p2, p3, k)
            w_l, w_q = estimation.witness_estimators(e2, e3, k)
            w_opt = estimation._optimal_witness_from_estimates(e2.real, e3)
            for name, sampled, mean_a, std_a in (
                    ("linear", w_l.real, p3 - (3 * p2 - 1) / 2, math.sqrt(var_l)),
                    ("quadratic", w_q.real, p3 - p2 ** 2, math.sqrt(var_q)),
                    ("optimal", w_opt, p3 - criteria.optimal_threshold(p2), math.sqrt(var_l))):
                rows.append((tau, k, name, float(np.mean(sampled)),
                             float(np.std(sampled, ddof=1)), mean_a, std_a))
    _emit(args, "fig7", ["tau", "k", "criterion", "mean", "std", "analytic_mean",
                         "analytic_std"], rows, repetitions=reps,
          note="analytic_std of the optimal criterion uses the linear model bound")


def _table1(args):
    alpha = BALANCED if args.alpha is None else args.alpha
    tau = 0.75 if args.tau is None else args.tau
    noon = states.NOONParams(1, alpha, math.sqrt(max(1.0 - alpha ** 2, 0.0)))
    rho = states.lossy_noon_density(states.LossyNOONParams(noon, tau, tau))
    dist = circuits.outcome_distribution([rho] * 2, 2)
    rows = []
    for outcome in noon_tables.f2_outcomes():
        formula = noon_tables.f2_formula(outcome, alpha, tau)
        simulated = dist.probability(outcome)
        rows.append((outcome[0], outcome[1], formula, simulated,
                     abs(formula - simulated)))
    _emit(args, "table1", ["n2a", "n2b", "probability_formula", "probability_circuit",
                           "abs_diff"], rows, tau=tau, alpha=alpha)


def _table2(args):
    alpha = BALANCED if args.alpha is None else args.alpha
    tau = 0.75 if args.tau is None else args.tau
    noon = states.NOONParams(1, alpha, math.sqrt(max(1.0 - alpha ** 2, 0.0)))
    rho = states.lossy_noon_density(states.LossyNOONParams(noon, tau, tau))
    dist = circuits.outcome_distribution([rho] * 3, 3)
    rows = []
    for outcome in noon_tables.f3_outcomes():
        formula = noon_tables.f3_formula(outcome, alpha, tau)
        simulated = dist.probability(outcome)
        rows.append((outcome[0], outcome[2], outcome[1], outcome[3], formula,
                     simulated, abs(formula - simulated)))
    _emit(args, "table2", ["n2a", "n2b", "n3a", "n3b", "probability_formula",
                           "probability_circuit", "abs_diff"], rows, tau=tau, alpha=alpha)


_TARGET_FUNCS = {
    "fig2a": _fig2a, "fig2b": _fig2b, "fig2c": _fig2c, "fig2d": _fig2d,
    "fig2e": _fig2e, "fig3a": _fig3a, "fig3b": _fig3b, "fig3c": _fig3c,
    "fig4": _fig4, "fig5": _fig5, "fig6": _fig6, "fig7": _fig7,
    "table1": _table1, "table2": _table2,
}


def cmd_reproduce(args) -> int:
    # the settings each target reads beyond --seed, --out and --format
    reads = {"fig4": ("repetitions",), "fig7": ("repetitions",),
             "table1": ("tau", "alpha"), "table2": ("tau", "alpha")}.get(args.target, ())
    for opt in ("tau", "alpha", "repetitions"):
        if getattr(args, opt) is not None and opt not in reads:
            raise DomainError(f"reproduce {args.target} does not read --{opt}")
    _TARGET_FUNCS[args.target](args)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptmoments",
        description="Entanglement tests from moments of the partial transpose")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family_args(p):
        p.add_argument("--family", choices=("noon", "cat", "hhg", "qutrit", "tmsv"))
        p.add_argument("--N", type=int, default=1)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--beta", type=float, default=None)
        p.add_argument("--z", type=float, default=0.5)
        p.add_argument("--parity", choices=("even", "odd"), default="odd")
        p.add_argument("--tau", type=float, default=None)
        p.add_argument("--n-bar", dest="n_bar", type=float, default=0.0)
        p.add_argument("--r", type=float, default=0.3)
        p.add_argument("--delta-alpha", dest="delta_alpha", type=float, default=0.5)

    pc = sub.add_parser("criteria", help="evaluate separability tests")
    add_family_args(pc)
    pc.add_argument("--p2", type=float, default=None)
    pc.add_argument("--p3", type=float, default=None)
    pc.add_argument("--moments", type=str, default=None,
                    help="comma-separated p_1,p_2,... enabling higher-order tests")
    pc.add_argument("--out", type=str, default=None)
    pc.add_argument("--format", choices=("csv", "json"), default=None)
    pc.add_argument("--seed", type=int, default=0)
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
        # sample, fig4 and fig7 report a spread over repetitions
        if getattr(args, "repetitions", None) is not None and args.repetitions < 2:
            raise DomainError(f"--repetitions must be >= 2, got {args.repetitions}")
        return args.func(args)
    except (PtmomentsError, ValueError) as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
