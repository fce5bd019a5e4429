"""The benchmark's workloads: inputs built from a seed, a fixed cycle of
operations, and the checks applied to every operation's output.

Each workload is a class with a ``name``, a ``nominal_cycle_s`` (one cycle's
duration on the reference machine when the benchmark was added) and four
methods:

* ``build(seed, workdir)`` makes every input the operations share (timed as
  set-up);
* ``setup_obs(state)`` returns the set-up's observations and problems;
* ``cycle()`` lists the operations of one cycle, each a dict with a ``key``;
  it never depends on the seed;
* ``run(state, op, c, slot, timer)`` performs the operation in position
  ``slot`` of cycle ``c``, with inputs drawn from ``(seed, c, slot)``.  It
  returns the observation, a dict of values that must equal the recorded
  reference, and a list of problems found by checks that need the seeded
  inputs (such as a spectral gap recomputed here).  Only the operation
  itself runs inside ``with timer``.

Library functions are always looked up as module attributes at call time, so
the wrappers that ``tracer`` installs see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import runpy
import time

import numpy as np

# ---------------------------------------------------------------------------
# helpers independent of the library


def haar_basis(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """n x k orthonormal columns spanning a Haar-random k-dimensional range."""
    z = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    q, _ = np.linalg.qr(z)
    return q


def independent_gap(ops) -> float:
    """1 - ||S - |I><I|/n|| for a unital trace-preserving Kraus set.

    S is the superoperator; for such a channel the rank-one term carries the
    identity direction exactly, so the norm of the rest equals the norm of the
    channel on traceless matrices.  Computed here without the library.
    """
    ops = [np.asarray(k, dtype=np.complex128) for k in ops]
    n = ops[0].shape[0]
    s = sum(np.kron(k.conj(), k) for k in ops)
    iv = np.eye(n, dtype=np.complex128).reshape(-1)
    s = s - np.outer(iv, iv) / n
    return 1.0 - float(np.linalg.norm(s, 2))


def _type_of(value) -> str:
    """Stand-in for a field checked only for type."""
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, np.integer)):
        return "int"
    if isinstance(value, (float, np.floating)):
        return "float"
    return type(value).__name__


class Timer:
    """Accumulates the time spent inside ``with timer:`` blocks of one op."""

    def __init__(self):
        self.elapsed = 0.0

    def __enter__(self):
        self._t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.elapsed += time.perf_counter() - self._t0
        return False


def import_library() -> None:
    """Import every qcoarse module (the CLI module imports all the others)."""
    import qcoarse.cli  # noqa: F401


# ---------------------------------------------------------------------------
# geometry: projection queries on warm graph metrics

GEOMETRY_D = 4
# ranks of one cycle: every rank in 1..n/2 once per size, in a fixed
# interleaved order so that slow high-rank queries are spread out
_N32_RANKS = [1, 9, 16, 4, 12, 7, 14, 2, 10, 5, 15, 8, 13, 3, 11, 6]
_N16_RANKS = [3, 7, 1, 5, 8, 2, 6, 4]
# ranks at n = 32 whose queries need k0 = 3 over the 1024-element power and
# take about a second; every other query takes at most about 100 ms
_N32_SLOW_RANKS = range(12, 17)
GEOMETRY_QUICK_PASSES = 4  # runs of each quick query per cycle
GEOMETRY_SAMPLED_TRIALS = 4


class Geometry:
    name = "geometry"
    nominal_cycle_s = 6.9

    def build(self, seed: int, workdir: str) -> dict:
        import_library()
        from qcoarse import expander as ex, qmetric as qm
        state = {"seed": seed, "specs": {}, "metrics": {}}
        for n in (32, 16):
            spec = ex.random_expander(n, GEOMETRY_D, seed)
            metric = qm.graph_metric(spec.kraus())
            metric.m_stab  # warm every power up to stabilization
            state["specs"][n] = spec
            state["metrics"][n] = metric
        return state

    def setup_obs(self, state: dict) -> tuple[dict, list[str]]:
        obs, problems = {}, []
        for n, metric in state["metrics"].items():
            obs[f"n{n}"] = {"power_dims": metric.powers.dims,
                            "m_stab": metric.m_stab}
            spec = state["specs"][n]
            ref = independent_gap([u / np.sqrt(spec.d) for u in spec.unitaries])
            if abs(spec.epsilon - ref) > 1e-9:
                problems.append(f"n={n}: gap {spec.epsilon!r} != {ref!r}")
        return obs, problems

    def cycle(self) -> list[dict]:
        ops = []
        for i, r in enumerate(_N32_RANKS):
            ops.append({"key": f"n32-r{r}", "n": 32, "rank": r})
            if i % 2 == 1:
                r16 = _N16_RANKS[i // 2]
                ops.append({"key": f"n16-r{r16}", "n": 16, "rank": r16})
        # the quick queries run GEOMETRY_QUICK_PASSES times, spread over
        # the cycle, so each has many repetitions to take its fastest from
        quick = [op for op in ops
                 if not (op["n"] == 32 and op["rank"] in _N32_SLOW_RANKS)]
        parts = GEOMETRY_QUICK_PASSES
        out = []
        for i in range(parts):
            out += ops[i * len(ops) // parts:(i + 1) * len(ops) // parts]
            if i < parts - 1:
                out += quick
        return out

    def inputs(self, state: dict, op: dict, c: int, slot: int):
        from qcoarse.matcore import Projection
        rng = np.random.default_rng([state["seed"], c, slot])
        p = Projection(op["n"], haar_basis(op["n"], op["rank"], rng))
        return p, rng

    def run(self, state: dict, op: dict, c: int, slot: int, timer: Timer):
        from qcoarse import expander as ex
        from qcoarse.matcore import Projection
        p, rng = self.inputs(state, op, c, slot)
        metric = state["metrics"][op["n"]]
        n = op["n"]
        with timer:
            nb15 = metric.neighborhood(p, 1.5)
            nb25 = metric.neighborhood(p, 2.5)
            rd = ex.verify_rank_diameter(metric, p)
            comp = nb15.complement()
            beyond = comp.rank > 0
            if not beyond:  # (P)_1.5 is everything: take Q orthogonal to P
                comp = p.complement()
            q = Projection(n, comp.range_basis @ haar_basis(comp.rank, 1, rng))
            dist = metric.dist(p, q)
            sampled = metric.diam_lower_bound_sampled(
                p, GEOMETRY_SAMPLED_TRIALS, seed=int(rng.integers(1 << 30)))
        obs = {
            "rank": p.rank,
            "nbhd_1.5": nb15.rank,
            "nbhd_2.5": nb25.rank,
            "k0": rd.k0.value,
            "power_dim": rd.power_dim,
            "rank_bound_ok": rd.rank_bound_ok,
            "dimension_bound_ok": rd.dimension_bound_ok,
            "q_beyond_nbhd_1.5": beyond,
            "dist": dist.value,
            "sampled": sampled.value,
        }
        return obs, []


# ---------------------------------------------------------------------------
# certify: counting certificates and quantum cover validation

CERTIFY_N = 32
CERTIFY_DELTA = 1.5


def _orthogonal_cover(n: int, rank: int, n_colors: int, R: float,
                      rng: np.random.Generator, drop: int = 0):
    """Cover by the blocks of a Haar basis, dealt round-robin into colors."""
    from qcoarse.asdim import CoverFamily
    from qcoarse.matcore import Projection
    u = haar_basis(n, n, rng)
    members = [Projection(n, u[:, i:i + rank]) for i in range(0, n, rank)]
    members = members[: len(members) - drop]
    colors = [members[c::n_colors] for c in range(n_colors)]
    return CoverFamily("quantum", colors, r=CERTIFY_DELTA, R=R)


# cover styles: (members' rank, colors, claimed R, members dropped)
COVER_STYLES = {
    # an orthogonal decomposition with few colors: neighborhoods overlap
    "orth": (4, 2, 3.0, 0),
    # members of rank 8 have k0 = 2, so a claimed R of 1 is refuted
    "diam": (8, 2, 1.0, 0),
    # two members dropped: the family no longer covers
    "drop": (4, 2, 3.0, 2),
}
# (m, styles certified, style validated): every style is certified at two
# values of m and validated at the third
CERTIFY_PLAN = ((1, ("orth", "diam"), "orth"),
                (2, ("diam", "drop"), "diam"),
                (3, ("drop", "orth"), "drop"))
class Certify:
    name = "certify"
    nominal_cycle_s = 8.5

    def build(self, seed: int, workdir: str) -> dict:
        import_library()
        from qcoarse import expander as ex, qmetric as qm
        spec = ex.random_expander(CERTIFY_N, GEOMETRY_D, seed)
        metric = qm.graph_metric(spec.kraus())
        metric.m_stab
        return {"seed": seed, "spec": spec, "metric": metric}

    def setup_obs(self, state: dict) -> tuple[dict, list[str]]:
        spec, metric = state["spec"], state["metric"]
        ref = independent_gap([u / np.sqrt(spec.d) for u in spec.unitaries])
        problems = []
        if abs(spec.epsilon - ref) > 1e-9:
            problems.append(f"gap {spec.epsilon!r} != {ref!r}")
        return {"power_dims": metric.powers.dims, "m_stab": metric.m_stab}, problems

    def cycle(self) -> list[dict]:
        ops = []
        for m, certified, validated in CERTIFY_PLAN:
            for style in certified:
                ops.append({"key": f"certify-{style}-m{m}", "kind": "certify",
                            "style": style, "m": m})
            ops.append({"key": f"validate-{validated}-m{m}", "kind": "validate",
                        "style": validated, "m": m})
        return ops

    def run(self, state: dict, op: dict, c: int, slot: int, timer: Timer):
        from qcoarse import asdim
        rank, n_colors, R, drop = COVER_STYLES[op["style"]]
        m = op["m"]
        rng = np.random.default_rng([state["seed"], c, slot])
        fam = _orthogonal_cover(CERTIFY_N, rank, n_colors, R, rng, drop)
        metric = state["metric"]
        if op["kind"] == "certify":
            with timer:
                cert = asdim.certify_counting(state["spec"], fam, CERTIFY_DELTA,
                                              m, metric=metric)
            obs = {
                "refuted": cert.refuted,
                "contradiction": cert.contradiction,
                "failure_kinds": sorted({f["kind"] for f in cert.failures}),
                "n_colors": cert.n_colors,
                "m": cert.m,
                "per_color_rank_sums": cert.per_color_rank_sums,
                "per_color_base_rank_sums": cert.per_color_base_rank_sums,
                "excluded_members": len(cert.excluded_members),
                # redefined by the growth-constant fix: type only
                "eps_prime": _type_of(cert.eps_prime),
                "parameter_condition": _type_of(cert.parameter_condition),
            }
            return obs, []
        with timer:
            v = asdim.validate_cover(metric, fam, r=m * CERTIFY_DELTA)
        obs = {
            "covering_ok": v.covering_ok,
            "r_disjoint_ok": v.r_disjoint_ok,
            "bounded_ok": v.bounded_ok,
            "bounded_mode": v.bounded_mode,
            "failures": v.failures(),
        }
        return obs, []


# ---------------------------------------------------------------------------
# cli-cold: whole CLI calls that rebuild their inputs from JSON

CLI_SEED = "7"  # the --seed handed to randomized subcommands
CLI_MAIN_OPS = 23  # the first calls of _cli_ops run once a cycle
CLI_SMALL_PASSES = 8  # runs of each small command per cycle


def _cli_ops() -> list[tuple[str, list[str]]]:
    """(key, argv) of one cycle; paths are relative to the work directory."""
    return [
        ("gap-k8", ["gap", "k8.json"]),
        ("connected-k16", ["connected", "k16.json"]),
        ("dist-path10", ["dist", "fx/path10.json", "fx/subset_origin.json",
                         "fx/subset_far.json"]),
        ("gap-k12", ["gap", "k12.json"]),
        ("cheeger-s16", ["cheeger", "s16.json", "--trials", "40", "--seed", CLI_SEED]),
        ("rank-diam-s16", ["rank-diam", "s16.json", "--trials", "8", "--seed", CLI_SEED]),
        ("nbhd-path10", ["nbhd", "fx/path10.json", "fx/subset_origin.json",
                         "--eps", "1.5"]),
        ("connected-k8", ["connected", "k8.json"]),
        ("certify-s32", ["certify", "s32.json", "cover32.json", "--delta", "1.5",
                         "--m", "1"]),
        ("gap-k16", ["gap", "k16.json"]),
        ("cover-g20", ["cover", "g20.json", "--r", "1"]),
        ("validate-cover-g20", ["validate-cover", "g20.json", "cover_g20.json"]),
        ("diam-pauli", ["diam", "fx/pauli_x_channel.json", "fx/proj_i2.json",
                        "--seed", "1"]),
        ("isoperimetric-s16", ["isoperimetric", "s16.json", "--delta", "1.5",
                               "--trials", "20", "--seed", CLI_SEED]),
        ("gap-disc8", ["gap", "disc8.json"]),
        ("cheeger-k12", ["cheeger", "k12.json", "--trials", "40", "--seed", CLI_SEED]),
        ("moduli-doubling", ["moduli", "fx/doubling_map.json", "--bruteforce"]),
        ("isoperimetric-s32", ["isoperimetric", "s32.json", "--delta", "1.5",
                               "--trials", "6", "--seed", CLI_SEED]),
        ("saturate-c12", ["saturate", "c12.json", "covP_c12.json", "covQ_c12.json",
                          "--r", "0.5"]),
        ("connected-k12", ["connected", "k12.json"]),
        ("certify-s16", ["certify", "s16.json", "cover16.json", "--delta", "1.5",
                         "--m", "1"]),
        ("cheeger-disc8", ["cheeger", "disc8.json", "--trials", "20",
                            "--seed", CLI_SEED]),
        ("rank-diam-s32", ["rank-diam", "s32.json", "--trials", "3", "--seed", CLI_SEED]),
        # small commands, a few ms each, run several times a cycle: most of
        # the distinct calls, so the median measures what jsonio and the CLI
        # cost per call
        ("dist-path10-ends", ["dist", "fx/path10.json", "fx/subset_ends.json",
                              "fx/subset_far.json"]),
        ("nbhd-path10-ends", ["nbhd", "fx/path10.json", "fx/subset_ends.json",
                              "--eps", "2.5"]),
        ("diam-path10-ends", ["diam", "fx/path10.json", "fx/subset_ends.json"]),
        ("validate-cover-path10", ["validate-cover", "fx/path10.json",
                                   "fx/path10_cover.json"]),
        ("validate-cover-path4", ["validate-cover", "fx/path4.json",
                                  "fx/singletons4.json"]),
        ("cover-path10", ["cover", "fx/path10.json", "--r", "2"]),
        ("cover-c12", ["cover", "c12.json", "--r", "1"]),
        ("moduli-doubling-table", ["moduli", "fx/doubling_map.json"]),
        ("gen-graph-c12", ["gen-graph", "--n", "12", "--cycle"]),
        ("gen-graph-16", ["gen-graph", "--n", "16", "--d", "3", "--seed", CLI_SEED]),
        ("dist-pauli", ["dist", "fx/pauli_x_channel.json", "fx/proj_e0.json",
                        "fx/proj_i2.json"]),
        ("nbhd-pauli", ["nbhd", "fx/pauli_x_channel.json", "fx/proj_e0.json",
                        "--eps", "1.5"]),
        ("gap-depolarizing3", ["gap", "fx/depolarizing3.json"]),
        ("connected-pauli", ["connected", "fx/pauli_x_channel.json"]),
        # the disconnected channel runs three times a cycle too: with the
        # four longer calls before it, op_tail_ms falls among its repetitions
        ("connected-disc8", ["connected", "disc8.json"]),
    ]


def _call_cli(argv: list[str], timer: Timer | None = None) -> tuple[int, dict | None, str]:
    """Run qcoarse.cli.main in-process; returns (exit code, report, stderr)."""
    from qcoarse import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if timer is None:
            code = cli.main(argv)
        else:
            with timer:
                code = cli.main(argv)
    text = out.getvalue()
    return code, (json.loads(text) if text.strip() else None), err.getvalue()


def _cli_results(argv: list[str]) -> dict:
    """Results of a set-up CLI call that must succeed."""
    code, report, err = _call_cli(argv)
    if code != 0:
        raise RuntimeError(f"qcoarse {' '.join(argv)} exited {code}: {err.strip()}")
    return report["results"]


def _matrices_in(path: str) -> list[np.ndarray]:
    """The Kraus matrices of a JSON file, decoded here without the library."""
    with open(path) as fh:
        obj = json.load(fh)
    return [(np.array(m["re"]) + 1j * np.array(m["im"])).reshape(m["rows"], m["cols"])
            for m in obj["ops"]]


def _block_diagonal_kraus(a, b) -> list[np.ndarray]:
    n1, n2 = a.n, b.n
    ops = []
    for k in a.ops:
        blk = np.zeros((n1 + n2, n1 + n2), dtype=np.complex128)
        blk[:n1, :n1] = k
        ops.append(blk)
    for k in b.ops:
        blk = np.zeros((n1 + n2, n1 + n2), dtype=np.complex128)
        blk[n1:, n1:] = k
        ops.append(blk)
    return ops


class CliCold:
    name = "cli-cold"
    nominal_cycle_s = 13.0

    def build(self, seed: int, workdir: str) -> dict:
        import_library()
        from qcoarse import jsonio
        from qcoarse.qmetric import KrausSet

        def write(name, obj):
            with open(os.path.join(workdir, name), "w") as fh:
                json.dump(obj, fh)

        state = {"seed": seed, "workdir": workdir, "kraus": {}}
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            specs = {}
            for n in (8, 12, 16, 32):
                specs[n] = _cli_results(["gen-expander", "--n", str(n), "--d", "4",
                                         "--seed", str(seed)])
                write(f"s{n}.json", specs[n])
            for n in (8, 12, 16):
                ks = jsonio.expander_from_json(specs[n]).kraus()
                state["kraus"][f"k{n}"] = state["kraus"][f"s{n}"] = ks.ops
                write(f"k{n}.json", jsonio.kraus_to_json(ks))
            halves = [jsonio.expander_from_json(_cli_results(
                ["gen-expander", "--n", "4", "--d", "4", "--seed", str(seed + i)])).kraus()
                for i in (1, 2)]
            disc = KrausSet(_block_diagonal_kraus(*halves))
            state["kraus"]["disc8"] = disc.ops
            write("disc8.json", jsonio.kraus_to_json(disc))
            for n in (16, 32):
                rng = np.random.default_rng([seed, n])
                fam = _orthogonal_cover(n, 4, 2, 3.0, rng)
                write(f"cover{n}.json", jsonio.cover_to_json(fam))

            write("g20.json", _cli_results(["gen-graph", "--n", "20", "--d", "3",
                                            "--seed", str(seed)])["space"])
            write("cover_g20.json", _cli_results(["cover", "g20.json", "--r", "1"])["cover"])
            write("c12.json", _cli_results(["gen-graph", "--n", "12", "--cycle"])["space"])
            write("covP_c12.json", {"backend": "classical", "r": 0.5, "R": 1.0,
                                    "colors": [[[i] for i in range(12)]]})
            write("covQ_c12.json", {"backend": "classical", "r": 0.5, "R": 2.0,
                                    "colors": [[[0, 1, 2]]]})

            gen = runpy.run_path(os.path.join(cwd, "scripts", "gen_fixtures.py"),
                                 run_name="gen_fixtures")
            with contextlib.redirect_stdout(io.StringIO()):
                gen["main"](["fx"])
            state["kraus"]["fx/depolarizing3"] = _matrices_in("fx/depolarizing3.json")
        finally:
            os.chdir(cwd)
        return state

    def setup_obs(self, state: dict) -> tuple[dict, list[str]]:
        return {"files": sorted(os.listdir(state["workdir"]))}, []

    def cycle(self) -> list[dict]:
        ops = [{"key": key, "argv": argv} for key, argv in _cli_ops()]
        main, small, disc = ops[:CLI_MAIN_OPS], ops[CLI_MAIN_OPS:-1], ops[-1:]
        # the small commands run CLI_SMALL_PASSES times and connected-disc8
        # three times, spread over the cycle, so each has several
        # repetitions to take its fastest from
        parts = CLI_SMALL_PASSES
        out = []
        for i in range(parts):
            out += main[i * len(main) // parts:(i + 1) * len(main) // parts] + small
            if i % 3 == 0:
                out += disc
        return out

    def run(self, state: dict, op: dict, c: int, slot: int, timer: Timer):
        cwd = os.getcwd()
        os.chdir(state["workdir"])
        try:
            code, report, err = _call_cli(op["argv"], timer)
        finally:
            os.chdir(cwd)
        problems = []
        if report is None:
            return {"exit": code, "stderr": err.strip()}, problems
        res = report["results"]
        cmd = op["argv"][0]
        target = op["argv"][1].removesuffix(".json")
        if cmd in ("gap", "cheeger") and target in state["kraus"]:
            ref = independent_gap(state["kraus"][target])
            if abs(res["epsilon"] - ref) > 1e-9:
                problems.append(f"epsilon {res['epsilon']!r} != {ref!r}")
        if cmd == "isoperimetric":
            code = _type_of(code)  # the verdict follows the growth constant
        return {"exit": code, "results": _normalize_cli(op["argv"], res, problems)}, problems


def _normalize_cli(argv: list[str], res: dict, problems: list[str]) -> dict:
    """Replace seed-dependent fields by their type after checking them here."""
    cmd = argv[0]
    res = dict(res)
    if cmd == "gap":
        if abs(res["epsilon"] + res["top_traceless_singular_value"] - 1.0) > 1e-12:
            problems.append("epsilon != 1 - top singular value")
        res["epsilon"] = _type_of(res["epsilon"])
        res["top_traceless_singular_value"] = _type_of(res["top_traceless_singular_value"])
    elif cmd == "cheeger":
        if abs(res["cheeger_lower_bound"] - res["epsilon"] / 2) > 1e-12:
            problems.append("Cheeger bound is not half the gap")
        if res["bound_applies"] and res["min_sampled"] < res["cheeger_lower_bound"] - 1e-9:
            problems.append("sampled Cheeger quantity below the bound")
        for k in ("epsilon", "cheeger_lower_bound", "min_sampled"):
            res[k] = _type_of(res[k])
    elif cmd == "connected":
        if res["witness"] is not None:
            res["witness"] = res["witness"]["range_basis"]["cols"]  # its rank
            if not res["witness_residual"] <= 1e-9:
                problems.append("disconnection witness residual too large")
            res["witness_residual"] = _type_of(res["witness_residual"])
    elif cmd == "gen-graph":
        res["classical_gap"] = _type_of(res["classical_gap"])
    elif cmd == "isoperimetric":
        # eps', the violations and the verdict follow the growth constant
        for k in ("epsilon", "eps_prime", "violations"):
            res[k] = _type_of(res[k])
    elif cmd == "certify":
        res["eps_prime"] = _type_of(res["eps_prime"])
        res["parameter_condition"] = _type_of(res["parameter_condition"])
    elif cmd == "cover":
        r = float(argv[argv.index("--r") + 1])
        res["achieved_R"] = res["achieved_R"] <= 4 * r  # the greedy guarantee
        res["colors"] = _type_of(res["colors"])
        res["cover"] = _type_of(res["cover"])
    return res


WORKLOADS = {w.name: w for w in (Geometry(), Certify(), CliCold())}
