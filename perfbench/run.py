#!/usr/bin/env python3
"""qcoarse benchmark: one closed-loop workload per run, outputs checked.

Run from the root of a qcoarse checkout:

    python3 perfbench/run.py --workload geometry --seed 1 --seconds 20 --trace 0

One client in one process performs the workload's fixed cycle of operations,
each starting when the previous one ended.  ``--seconds`` sets how many whole
cycles a run measures: as many as took that long on the reference machine
when the benchmark was added (``cycles_for``), so every run of the same code
does the same work and its percentiles rank the same samples.  Every
operation's output is checked against ``perfbench/reference.json`` and
against values recomputed here.

BLAS runs on one thread (``pin_blas_threads``).  ``--trace 0`` reports the
end-to-end metrics; ``ops_per_s`` and ``op_p50_ms`` take each distinct
operation at its fastest repetition in the run.  Set-up is timed in this
process and in two more fresh processes, started one at a time between the
measured cycles, and the median is reported.  ``--trace 1`` wraps the library's public functions,
builds the inputs traced, runs one untraced warm-up cycle, then the same
cycle untraced and traced,
writes the spans to ``perfbench/out/`` and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
SETUP_REPEATS = 3
TRACED_CYCLES = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> dict:
    """Run BLAS on one thread in this process and its set-up children.

    The machine's two CPUs are shared with other work; a two-thread BLAS
    call stalls whenever one of them is taken, so its timings follow the
    other load rather than the code.  Must run before numpy is imported.
    Returns the values found, which the machine block records.
    """
    found = {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
    for k in BLAS_THREAD_VARS:
        os.environ[k] = "1"
    return found


def machine_block(thread_env_found: dict) -> dict:
    """Facts about the machine and the numeric stack."""
    import numpy as np

    block = {
        "nproc": os.cpu_count(),
        "cpu_model": platform.processor() or None,
        "caches": {},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": None,
        "thread_env_found": thread_env_found,
        "thread_env_used": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    block["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_root = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(cache_root):
        for idx in sorted(os.listdir(cache_root)):
            def read(field, idx=idx):
                with open(os.path.join(cache_root, idx, field)) as fh:
                    return fh.read().strip()
            try:
                level, kind = read("level"), read("type")
                block["caches"][f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = read("size")
            except OSError:
                continue
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        block["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        pass
    return block


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def plain(obj):
    """JSON round trip, so observations compare like the stored reference."""
    return json.loads(json.dumps(obj, default=lambda o: o.item()
                                 if hasattr(o, "item") else repr(o)))


def timed_setup(workload, seed: int, workdir: str):
    t0 = time.perf_counter()
    state = workload.build(seed, workdir)
    return state, time.perf_counter() - t0


def child_setup_times(args, repeats: int) -> list[float]:
    """Set-up time measured in fresh processes, one at a time."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=150, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def check_setup(workload, state, reference) -> list[str]:
    obs, problems = workload.setup_obs(state)
    expected = reference[workload.name]["setup"]
    if plain(obs) != expected:
        problems.append(f"set-up observation {plain(obs)} != reference {expected}")
    return problems


def cycles_for(workload, seconds: float) -> int:
    """Whole cycles that take about ``seconds`` on the reference machine."""
    return max(1, round(seconds / workload.nominal_cycle_s))


def measure(workload, state, reference, cycles: int, tracer=None, first: int = 0):
    """Closed loop over whole cycles, numbered from ``first``; returns
    latencies and failure notes."""
    from workloads import Timer

    expected = reference[workload.name]["ops"]
    latencies: list[float] = []
    failures: list[str] = []
    for c in range(first, first + cycles):
        for slot, op in enumerate(workload.cycle()):
            timer = Timer()
            row = tracer.begin("bench.op") if tracer else None
            try:
                obs, problems = workload.run(state, op, c, slot, timer)
            except Exception as exc:  # an operation that raises counts as failed
                obs, problems = None, [f"raised {exc!r}"]
            if tracer:
                tracer.end(row, raised=obs is None)
            latencies.append(timer.elapsed)
            if obs is not None and plain(obs) != expected.get(op["key"]):
                problems.append(f"observation {plain(obs)} != reference "
                                f"{expected.get(op['key'])}")
            if problems:
                failures.append(f"cycle {c} {op['key']}: {'; '.join(problems)}")
    return latencies, failures


def fastest_repetitions(latencies: list[float], keys: list[str]) -> dict[str, float]:
    """The fastest repetition of each operation, by key.

    ``latencies`` holds whole cycles in order and ``keys`` names the cycle's
    operations; a key may occur more than once in a cycle.  The machine's
    CPUs are shared, and its speed changes from second to second; the
    fastest of an operation's repetitions leaves the slow moments out.
    """
    best: dict[str, float] = {}
    for i, t in enumerate(latencies):
        key = keys[i % len(keys)]
        best[key] = min(t, best.get(key, t))
    return best


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs so far, or (0, 0) if unknown."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (latency, percentile); with ten or fewer samples it is the minimum.
    """
    ordered = sorted(latencies)
    idx = max(len(ordered) - 11, 0)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run_untraced(args, workload, reference, workdir):
    state, own = timed_setup(workload, args.seed, workdir)
    setup_times = [own]
    failures = check_setup(workload, state, reference)
    cycles = cycles_for(workload, args.seconds)
    steal0, total0 = cpu_ticks()
    latencies, op_failures = [], []
    for c in range(cycles):
        lat, fail = measure(workload, state, reference, 1, first=c)
        latencies += lat
        op_failures += fail
        # the other set-ups run between cycles, so the cycles spread over
        # the whole run and meet more of the machine's fast moments
        if len(setup_times) < SETUP_REPEATS:
            setup_times += child_setup_times(args, 1)
    setup_times += child_setup_times(args, SETUP_REPEATS - len(setup_times))
    steal1, total1 = cpu_ticks()
    failures += op_failures
    tail, pct = tail_latency(latencies)
    keys = [op["key"] for op in workload.cycle()]
    per_cycle = len(keys)
    fastest = list(fastest_repetitions(latencies, keys).values())
    metrics = {name: {"value": value, "unit": unit} for name, value, unit in [
        ("setup_s", statistics.median(setup_times), "s"),
        ("ops_per_s", len(fastest) / sum(fastest), "1/s"),
        ("op_p50_ms", 1e3 * statistics.median(fastest), "ms"),
        ("op_tail_ms", 1e3 * tail, "ms"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
        ("ok_ratio", 1.0 - len(op_failures) / len(latencies), "ratio"),
    ]}
    detail = {"setup_runs_s": setup_times, "cycles": cycles,
              "cycle_s": [sum(latencies[i:i + per_cycle])
                          for i in range(0, len(latencies), per_cycle)],
              "ops": len(latencies), "tail_percentile": pct,
              "steal_share": (steal1 - steal0) / max(total1 - total0, 1),
              "fail_ratio": len(op_failures) / len(latencies)}
    return metrics, detail, failures, len(latencies), len(op_failures)


def run_traced(args, workload, reference, workdir):
    from tracer import Tracer
    from workloads import import_library

    import_library()  # the wrappers replace functions of loaded modules
    tracer = Tracer()
    tracer.install()
    try:
        row = tracer.begin("bench.setup")
        state = workload.build(args.seed, workdir)
        tracer.end(row)
    finally:
        tracer.uninstall()
    failures = check_setup(workload, state, reference)
    # a warm-up cycle first, so neither timed cycle pays first-call costs
    warm_lat, warm_fail = measure(workload, state, reference, TRACED_CYCLES)
    untraced_lat, untraced_fail = measure(workload, state, reference, TRACED_CYCLES)
    first_op_span = len(tracer.spans)
    tracer.install()
    try:
        traced_lat, traced_fail = measure(workload, state, reference,
                                          TRACED_CYCLES, tracer=tracer)
    finally:
        tracer.uninstall()
    op_failures = warm_fail + untraced_fail + traced_fail
    failures += op_failures
    overhead = sum(traced_lat) / sum(untraced_lat)
    metrics = tracer.metrics(len(traced_lat), first_op_span, overhead)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{args.seed}.json")
    tracer.write(spans_path)
    detail = {"spans_file": os.path.relpath(spans_path), "spans": len(tracer.spans),
              "traced_ops_s": sum(traced_lat), "untraced_ops_s": sum(untraced_lat)}
    ops = len(warm_lat) + len(untraced_lat) + len(traced_lat)
    return metrics, detail, failures, ops, len(op_failures)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, print the set-up time and exit")
    args = ap.parse_args(argv)
    thread_env_found = pin_blas_threads()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qcoarse", "__init__.py")):
        print("error: run from the root of a qcoarse checkout (no src/qcoarse here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, BENCH_DIR)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        if args.setup_only:
            _, setup_s = timed_setup(workload, args.seed, workdir)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        reference = load_reference()
        print(json.dumps({"machine": machine_block(thread_env_found)}))
        runner = run_traced if args.trace else run_untraced
        metrics, detail, failures, attempted, failed = runner(
            args, workload, reference, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"workload": args.workload, "seed": args.seed, **detail}))
    for note in failures:
        print(f"FAILED {note}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
