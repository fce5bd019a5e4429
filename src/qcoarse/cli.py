"""Command-line surface: JSON in, one run report out, deterministic under seed.

Exit codes: 0 success, 1 validation/verification failure (report carries
witnesses), 2 usage or schema error or an unreadable input file, 3 internal
consistency failure (two routes to one answer disagree).  Reports go to
stdout, diagnostics to stderr.  Every randomized subcommand requires an
explicit --seed.  The tolerance flags reach the objects built from the input.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .matcore import DEFAULT_TOL, Projection, ToleranceConfig
from .qmetric import (
    ClassicalQuantumMetric,
    ExtendedDistance,
    GraphQuantumMetric,
    graph_metric,
)
from .expander import (
    cheeger_lower_bound,
    cheeger_quantity,
    complete_graph,
    cycle_graph,
    is_connected,
    random_expander,
    random_projection,
    random_regular_graph,
    spectral_gap,
    verify_isoperimetric,
    verify_rank_diameter,
)
from .asdim import (
    HypothesisViolation,
    certify_counting,
    greedy_cover,
    saturated_union,
    validate_cover,
)
from .moduli import classical_moduli, coarse_flags, quantum_moduli_bruteforce
from . import jsonio
from .jsonio import SchemaError

USAGE_ERROR = 2
CHECK_FAILED = 1
INTERNAL_ERROR = 3


def _load_metric(path: str, tol: ToleranceConfig):
    obj = jsonio.load_json_file(path)
    if isinstance(obj, dict) and "ops" in obj:
        return graph_metric(jsonio.kraus_from_json(obj, tol=tol))
    if isinstance(obj, dict) and "labels" in obj:
        return ClassicalQuantumMetric(jsonio.space_from_json(obj), tol)
    raise SchemaError(f"{path}: expected a Kraus set (key 'ops') or a "
                      "metric space (key 'labels')")


def _load_member(path: str, metric):
    obj = jsonio.load_json_file(path)
    if isinstance(obj, list):
        member = jsonio.subset_from_json(obj)
        if isinstance(metric, GraphQuantumMetric):
            return Projection.onto_subset(metric.n, member)
        return member
    # the classical backend converts (and checks diagonal) projections itself
    return jsonio.projection_from_json(obj)


def _member_to_json(member):
    if isinstance(member, Projection):
        return jsonio.projection_to_json(member)
    return jsonio.subset_to_json(member)


def _distance_json(metric, a, b):
    return jsonio.distance_to_json(metric.dist(a, b))


def cmd_gen_expander(args, tol):
    spec = random_expander(args.n, args.d, args.seed, tol)
    return jsonio.expander_to_json(spec), 0


def cmd_gen_graph(args, tol):
    if args.cycle:
        g = cycle_graph(args.n)
    elif args.complete:
        g = complete_graph(args.n)
    else:
        if args.seed is None:
            raise SchemaError("gen-graph: --seed is required for random graphs")
        g = random_regular_graph(args.n, args.d, args.seed)
    return {
        "space": jsonio.space_to_json(g.space),
        "adjacency": [[int(v) for v in row] for row in g.adjacency],
        "d": g.d,
        "classical_gap": g.classical_gap,
        "connected": g.connected,
    }, 0


def cmd_gap(args, tol):
    kraus = jsonio.kraus_from_json(jsonio.load_json_file(args.kraus), tol=tol)
    rep = spectral_gap(kraus)
    return {
        "epsilon": rep.epsilon,
        "top_traceless_singular_value": rep.top_traceless_singular_value,
        "unital": rep.unital,
        "trace_preserving": rep.trace_preserving,
        "n": rep.n,
        "num_kraus": rep.num_kraus,
    }, 0


def cmd_cheeger(args, tol):
    obj = jsonio.load_json_file(args.kraus)  # a Kraus set or an expander spec
    if isinstance(obj, dict) and "unitaries" in obj:
        kraus = jsonio.expander_from_json(obj, tol=tol).kraus()
    else:
        kraus = jsonio.kraus_from_json(obj, tol=tol)
    rep = spectral_gap(kraus)
    bound = cheeger_lower_bound(rep)
    applies = rep.epsilon > kraus.tol.zero_atol
    n = kraus.n

    def count_violations(values) -> int:
        return sum(applies and v < bound - kraus.tol.zero_atol for v in values)

    values = [cheeger_quantity(kraus, random_projection(
        n, np.random.default_rng([args.seed, t]))) for t in range(args.trials)]
    violations = count_violations(values)
    exhaustive = None
    if args.exhaustive_diagonal:
        if n > 20:
            raise SchemaError("exhaustive diagonal scan is capped at n = 20")
        subsets = ([i for i in range(n) if mask >> i & 1] for mask in range(1, 1 << n))
        ex = [cheeger_quantity(kraus, Projection.onto_subset(n, idx))
              for idx in subsets if len(idx) <= n // 2]
        exhaustive = {"min": min(ex, default=None), "violations": count_violations(ex)}
        violations += exhaustive["violations"]
    results = {
        "epsilon": rep.epsilon,
        "cheeger_lower_bound": bound,
        "bound_applies": applies,
        "trials": args.trials,
        "min_sampled": min(values) if values else None,
        "violations": violations,
        "exhaustive_diagonal": exhaustive,
    }
    return results, CHECK_FAILED if violations else 0


def cmd_connected(args, tol):
    metric = graph_metric(jsonio.kraus_from_json(jsonio.load_json_file(args.kraus), tol=tol))
    rep = is_connected(metric.v1, metric.tol)
    results = {
        "connected": rep.connected,
        "m_star": rep.m_star,
        "commutant_dim": rep.commutant_dim,
        "witness": (jsonio.projection_to_json(rep.witness)
                    if rep.witness is not None else None),
        "witness_residual": rep.witness_residual,
    }
    return results, 0


def cmd_dist(args, tol):
    metric = _load_metric(args.metric, tol)
    a = _load_member(args.proj[0], metric)
    b = _load_member(args.proj[1], metric)
    return {"dist": _distance_json(metric, a, b)}, 0


def cmd_diam(args, tol):
    metric = _load_metric(args.metric, tol)
    member = _load_member(args.proj[0], metric)
    if isinstance(metric, ClassicalQuantumMetric):
        val = metric.diam(member)
        dist = (ExtendedDistance.of(val) if np.isfinite(val)
                else ExtendedDistance.infinite())
        return {"diam": jsonio.distance_to_json(dist), "exact": True}, 0
    if args.seed is None:
        raise SchemaError("diam on a graph metric needs --seed for the "
                          "sampled lower bound")
    k0 = metric.diam_graph_proxy(member)
    sampled = metric.diam_lower_bound_sampled(member, args.trials, args.seed)
    lower = max(k0, sampled)
    return {
        "lower_bound": jsonio.distance_to_json(lower),
        "k0": jsonio.distance_to_json(k0),
        "sampled": jsonio.distance_to_json(sampled),
        "upper_bound": "unknown",
        "note": ("certified bracket [lower_bound, unknown]; the lower bound "
                 "may underestimate the true diameter"),
    }, 0


def cmd_nbhd(args, tol):
    metric = _load_metric(args.metric, tol)
    member = _load_member(args.proj[0], metric)
    nb = metric.neighborhood(member, args.eps)
    return {"neighborhood": _member_to_json(nb), "eps": args.eps}, 0


def cmd_isoperimetric(args, tol):
    spec = jsonio.expander_from_json(jsonio.load_json_file(args.spec), tol=tol)
    rep = verify_isoperimetric(spec, args.delta, args.trials, args.seed)
    results = {
        "n": rep.n, "d": rep.d, "epsilon": rep.epsilon,
        "eps_prime": rep.eps_prime, "delta": rep.delta,
        "trials": rep.trials, "violations": rep.violations,
        "min_ratio": rep.min_ratio, "expander_ok": rep.expander_ok,
        "orthogonality_pairs": rep.orthogonality_pairs,
        "orthogonality_failures": rep.orthogonality_failures,
    }
    return results, 0 if rep.ok and rep.expander_ok else CHECK_FAILED


def cmd_rank_diam(args, tol):
    spec = jsonio.expander_from_json(jsonio.load_json_file(args.spec), tol=tol)
    metric = graph_metric(spec.kraus())
    failures = 0
    rows = []
    for t in range(args.trials):
        rng = np.random.default_rng([args.seed, t])
        p = random_projection(spec.n, rng)
        rep = verify_rank_diameter(metric, p)
        rows.append({"rank": rep.rank, "k0": jsonio.distance_to_json(rep.k0),
                     "power_dim": rep.power_dim, "bound_ok": rep.bound_ok})
        if not rep.bound_ok:
            failures += 1
    return ({"trials": args.trials, "failures": failures, "checks": rows},
            CHECK_FAILED if failures else 0)


def cmd_cover(args, tol):
    space = jsonio.space_from_json(jsonio.load_json_file(args.space))
    out = greedy_cover(space, args.r, max_colors=args.max_colors, tol=tol)
    if not out.success:
        return {"success": False, "failure": out.failure}, CHECK_FAILED
    return {
        "success": True,
        "colors": out.colors_used,
        "achieved_R": out.achieved_R,
        "cover": jsonio.cover_to_json(out.family),
        "validation": _validation_json(out.validation),
    }, 0


def _validation_json(v):
    return {
        "covering_ok": v.covering_ok,
        "r_disjoint_ok": v.r_disjoint_ok,
        "bounded_ok": v.bounded_ok,
        "bounded_mode": v.bounded_mode,
        "failures": [{k: repr(val) if val is not None else None
                      for k, val in f.items()} for f in v.failures()],
    }


def cmd_validate_cover(args, tol):
    metric = _load_metric(args.space, tol)
    fam = jsonio.cover_from_json(jsonio.load_json_file(args.cover))
    v = validate_cover(metric, fam)
    return ({"validation": _validation_json(v), "all_ok": v.all_ok},
            0 if v.all_ok else CHECK_FAILED)


def cmd_saturate(args, tol):
    metric = _load_metric(args.space, tol)
    cov_p = jsonio.cover_from_json(jsonio.load_json_file(args.covP))
    cov_q = jsonio.cover_from_json(jsonio.load_json_file(args.covQ))
    if cov_p.n_colors != 1 or cov_q.n_colors != 1:
        raise SchemaError("saturate expects single-color families; "
                          "combine covers color-by-color")
    try:
        out = saturated_union(metric, cov_p.colors[0], cov_q.colors[0],
                              r=args.r, R=cov_p.R, D=cov_q.R)
    except HypothesisViolation as exc:
        return ({"success": False, "clause": exc.clause,
                 "witness": repr(exc.witness)}, CHECK_FAILED)
    return {
        "success": True,
        "bound": out.bound,
        "members": [_member_to_json(m) for m in out.members],
        "validation": _validation_json(out.validation),
    }, 0


def cmd_certify(args, tol):
    spec = jsonio.expander_from_json(jsonio.load_json_file(args.spec), tol=tol)
    fam = jsonio.cover_from_json(jsonio.load_json_file(args.cover))
    cert = certify_counting(spec, fam, args.delta, args.m)
    results = {
        "n_colors": cert.n_colors,
        "m": cert.m,
        "delta": cert.delta,
        "eps_prime": cert.eps_prime,
        "ambient_rank": cert.ambient_rank,
        "per_color_rank_sums": cert.per_color_rank_sums,
        "per_color_base_rank_sums": cert.per_color_base_rank_sums,
        "parameter_condition": cert.parameter_condition,
        "contradiction": cert.contradiction,
        "refuted": cert.refuted,
        "failures": [{k: repr(v) for k, v in f.items()} for f in cert.failures],
        "excluded_members": len(cert.excluded_members),
    }
    ok = not cert.refuted and not cert.contradiction
    return results, 0 if ok else CHECK_FAILED


def cmd_moduli(args, tol):
    mapping = jsonio.map_from_json(jsonio.load_json_file(args.map))
    table = classical_moduli(mapping)
    flags = coarse_flags(table)
    results = {
        "table": jsonio.moduli_table_to_json(table),
        "flags": {
            "expanding_at_truncation": flags.expanding_at_truncation,
            "coarse_at_truncation": flags.coarse_at_truncation,
            "caveat": flags.caveat,
        },
    }
    code = 0
    if args.bruteforce:
        qt = quantum_moduli_bruteforce(mapping)
        agree = (qt.omega_tilde == table.omega_tilde
                 and qt.rho_tilde == table.rho_tilde)
        results["bruteforce"] = {
            "table": jsonio.moduli_table_to_json(qt),
            "agrees_exactly": agree,
        }
        if not agree:
            code = CHECK_FAILED
    return results, code


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qcoarse",
        description="Quantum metric, expander, and cover computations "
                    "with JSON I/O")
    ap.add_argument("--zero-atol", type=float, default=DEFAULT_TOL.zero_atol)
    ap.add_argument("--rank-rtol", type=float, default=DEFAULT_TOL.rank_rtol)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-expander", help="d Haar unitaries with measured gap")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_gen_expander)

    p = sub.add_parser("gen-graph", help="random regular graph (or fixtures)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--seed", type=int, default=None)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--cycle", action="store_true")
    g.add_argument("--complete", action="store_true")
    p.set_defaults(func=cmd_gen_graph)

    p = sub.add_parser("gap", help="spectral gap of a Kraus set")
    p.add_argument("kraus")
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("cheeger", help="Cheeger quantity vs the gap bound")
    p.add_argument("kraus", help="Kraus-set JSON or expander-spec JSON")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--exhaustive-diagonal", action="store_true")
    p.set_defaults(func=cmd_cheeger)

    p = sub.add_parser("connected", help="connectivity of the quantum graph")
    p.add_argument("kraus")
    p.set_defaults(func=cmd_connected)

    p = sub.add_parser("dist", help="distance between two projections/subsets")
    p.add_argument("metric")
    p.add_argument("proj", nargs=2)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("diam", help="diameter (classical exact; graph bracket)")
    p.add_argument("metric")
    p.add_argument("proj", nargs=1)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_diam)

    p = sub.add_parser("nbhd", help="open eps-neighborhood")
    p.add_argument("metric")
    p.add_argument("proj", nargs=1)
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(func=cmd_nbhd)

    p = sub.add_parser("isoperimetric", help="rank growth of neighborhoods")
    p.add_argument("spec")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_isoperimetric)

    p = sub.add_parser("rank-diam", help="rank vs proxy-diameter bound")
    p.add_argument("spec")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_rank_diam)

    p = sub.add_parser("cover", help="greedy r-disjoint cover")
    p.add_argument("space")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--max-colors", type=int, default=16)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("validate-cover", help="certify a cover family")
    p.add_argument("space")
    p.add_argument("cover")
    p.set_defaults(func=cmd_validate_cover)

    p = sub.add_parser("saturate", help="saturated union of two families")
    p.add_argument("space")
    p.add_argument("covP")
    p.add_argument("covQ")
    p.add_argument("--r", type=float, required=True)
    p.set_defaults(func=cmd_saturate)

    p = sub.add_parser("certify", help="counting certificate on an expander")
    p.add_argument("spec")
    p.add_argument("cover")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("moduli", help="moduli tables of a classical map")
    p.add_argument("map")
    p.add_argument("--bruteforce", action="store_true",
                   help="also run the subset-enumeration route and compare")
    p.set_defaults(func=cmd_moduli)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    t0 = time.perf_counter()
    try:
        tol = ToleranceConfig(zero_atol=args.zero_atol, rank_rtol=args.rank_rtol)
        results, code = args.func(args, tol)
    except (ValueError, RuntimeError) as exc:  # SchemaError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    report = {
        "command": args.command,
        "parameters": {k: v for k, v in sorted(vars(args).items())
                       if k not in ("func", "command", "zero_atol", "rank_rtol",
                                    "seed")
                       and not callable(v)},
        "seed": getattr(args, "seed", None),
        "tolerances": {"zero_atol": tol.zero_atol, "rank_rtol": tol.rank_rtol},
        "results": results,
        "timings": {"total_s": round(time.perf_counter() - t0, 6)},
    }
    print(jsonio.dump_json(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
