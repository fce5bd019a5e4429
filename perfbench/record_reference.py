#!/usr/bin/env python3
"""Record ``perfbench/reference.json`` from the code in this checkout.

Every value the benchmark compares exactly must be the same for every seed:
it depends on the sizes and ranks of the inputs, not on the Haar samples.
This script runs the set-up and two cycles of every workload for several
seeds, refuses to write anything if any observation differs between seeds or
between the two cycles, and otherwise writes the shared observations.

Run from the root of the checkout, on a commit whose outputs are trusted:

    python3 perfbench/record_reference.py --seeds 1 2 3 4 5
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CYCLES = 2


def observe(workload, seed: int) -> dict:
    from run import OUT_DIR, plain
    from workloads import Timer

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"ref-{workload.name}-", dir=OUT_DIR)
    try:
        state = workload.build(seed, workdir)
        setup, problems = workload.setup_obs(state)
        ops: dict[str, list] = {}
        for c in range(CYCLES):
            for slot, op in enumerate(workload.cycle()):
                obs, op_problems = workload.run(state, op, c, slot, Timer())
                problems += op_problems
                ops.setdefault(op["key"], []).append(plain(obs))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if problems:
        raise SystemExit(f"{workload.name} seed {seed}: {problems}")
    for key, seen in ops.items():
        if any(o != seen[0] for o in seen):
            raise SystemExit(f"{workload.name} seed {seed}: {key} differs between "
                             f"cycles: {seen}")
    return {"setup": plain(setup), "ops": {k: v[0] for k, v in ops.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    args = ap.parse_args(argv)
    if len(set(args.seeds)) < 5:
        ap.error("give at least five distinct seeds")
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, BENCH_DIR)
    from workloads import WORKLOADS

    reference = {}
    for name, workload in WORKLOADS.items():
        per_seed = {s: observe(workload, s) for s in args.seeds}
        first = per_seed[args.seeds[0]]
        for seed, obs in per_seed.items():
            if obs != first:
                diff = [k for k in first["ops"] if obs["ops"].get(k) != first["ops"][k]]
                raise SystemExit(f"{name}: seed {seed} differs from seed "
                                 f"{args.seeds[0]} (setup equal: "
                                 f"{obs['setup'] == first['setup']}; ops: {diff})")
        reference[name] = first
        print(f"{name}: {len(first['ops'])} operations agree over seeds {args.seeds}")
    with open(os.path.join(BENCH_DIR, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
