"""Command-line surface: JSON in, one run report out, deterministic under seed.

Exit codes: 0 success, 1 validation/verification failure (report carries
witnesses), 2 usage or schema error or an unreadable input file, 3 internal
consistency failure (two routes to one answer disagree).  Reports go to
stdout as strict JSON (a closed stdout keeps the exit code), diagnostics to
stderr.  Every randomized subcommand requires an explicit --seed.  The
tolerance flags reach the objects built from the input.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import asdict

from .matcore import DEFAULT_TOL, ToleranceConfig
from .qmetric import ClassicalQuantumMetric, ExtendedDistance, graph_metric
from .expander import (
    cheeger_audit,
    complete_graph,
    cycle_graph,
    is_connected,
    random_expander,
    random_regular_graph,
    rank_diameter_audit,
    spectral_gap,
    verify_isoperimetric,
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
from .jsonio import (SchemaError, channel_from_json, metric_from_json,
                     spec_from_json)

USAGE_ERROR = 2
CHECK_FAILED = 1
INTERNAL_ERROR = 3


def _load(decode, path: str, tol: ToleranceConfig):
    return decode(jsonio.load_json_file(path), tol=tol)


def _load_cover(path: str, metric):
    return jsonio.metric_cover_from_json(jsonio.load_json_file(path), metric, "$")


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
    return asdict(spectral_gap(_load(channel_from_json, args.kraus, tol))), 0


def cmd_cheeger(args, tol):
    rep = cheeger_audit(_load(channel_from_json, args.kraus, tol), args.trials,
                        args.seed, args.exhaustive_diagonal)
    return asdict(rep), CHECK_FAILED if rep.violations else 0


def cmd_connected(args, tol):
    metric = graph_metric(_load(channel_from_json, args.kraus, tol))
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
    metric = _load(metric_from_json, args.metric, tol)
    a, b = (jsonio.member_from_json(jsonio.load_json_file(path), metric, True, "$")
            for path in args.proj)
    return {"dist": jsonio.distance_to_json(metric.dist(a, b))}, 0


def cmd_diam(args, tol):
    metric = _load(metric_from_json, args.metric, tol)
    member = jsonio.member_from_json(jsonio.load_json_file(args.proj[0]),
                                     metric, False, "$")
    if isinstance(metric, ClassicalQuantumMetric):
        dist = ExtendedDistance.of(metric.diam(member))
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
    metric = _load(metric_from_json, args.metric, tol)
    member = jsonio.member_from_json(jsonio.load_json_file(args.proj[0]),
                                     metric, False, "$")
    nb = metric.neighborhood(member, args.eps)
    return {"neighborhood": jsonio.member_to_json(nb, metric.backend),
            "eps": args.eps}, 0


def cmd_isoperimetric(args, tol):
    spec = _load(spec_from_json, args.spec, tol)
    rep = verify_isoperimetric(spec, args.delta, args.trials, args.seed)
    results = asdict(rep)
    del results["seed"]  # the report carries it at its top level
    return results, 0 if rep.ok and rep.expander_ok else CHECK_FAILED


def cmd_rank_diam(args, tol):
    metric = graph_metric(_load(channel_from_json, args.spec, tol))
    checks = rank_diameter_audit(metric, args.trials, args.seed)
    rows = [{"rank": c.rank, "k0": jsonio.distance_to_json(c.k0),
             "power_dim": c.power_dim, "bound_ok": c.bound_ok} for c in checks]
    failures = sum(not c.bound_ok for c in checks)
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
    metric = _load(metric_from_json, args.space, tol)
    fam = _load_cover(args.cover, metric)
    v = validate_cover(metric, fam)
    return ({"validation": _validation_json(v), "all_ok": v.all_ok},
            0 if v.all_ok else CHECK_FAILED)


def cmd_saturate(args, tol):
    metric = _load(metric_from_json, args.space, tol)
    cov_p = _load_cover(args.covP, metric)
    cov_q = _load_cover(args.covQ, metric)
    if cov_p.n_colors != 1 or cov_q.n_colors != 1:
        raise SchemaError("$.colors: saturate expects single-color families; "
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
        "members": [jsonio.member_to_json(m, metric.backend) for m in out.members],
        "validation": _validation_json(out.validation),
    }, 0


def cmd_certify(args, tol):
    spec = _load(spec_from_json, args.spec, tol)
    metric = graph_metric(spec.kraus())
    fam = _load_cover(args.cover, metric)
    cert = certify_counting(spec, fam, args.delta, args.m, metric=metric)
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # an exit-2 message starts with "error: "
        self.exit(USAGE_ERROR, f"error: {message}\n{self.format_usage()}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
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

    p = sub.add_parser("gap", help="spectral gap of a channel")
    p.add_argument("kraus")
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("cheeger", help="Cheeger quantity vs the gap bound")
    p.add_argument("kraus")
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
        text = jsonio.dump_json({
            "command": args.command,
            "parameters": {k: v for k, v in sorted(vars(args).items())
                           if k not in ("func", "command", "zero_atol",
                                        "rank_rtol", "seed")
                           and not callable(v)},
            "seed": getattr(args, "seed", None),
            "tolerances": {"zero_atol": tol.zero_atol, "rank_rtol": tol.rank_rtol},
            "results": results,
            "timings": {"total_s": round(time.perf_counter() - t0, 6)},
        })
    except (ValueError, RuntimeError) as exc:  # SchemaError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ArithmeticError as exc:  # a NaN in the report included
        print(f"error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    try:
        print(text, flush=True)  # no-op when stdout was closed at start
    except BrokenPipeError:  # the reader left; so no flush at exit fails again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
