"""Tests of the benchmark itself (not of qcoarse).

Run from the root of the checkout:

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import numpy as np
import pytest

import run
import tracer
from workloads import WORKLOADS, Timer, _orthogonal_cover

ROOT = os.path.dirname(run.BENCH_DIR)
# cheap operations of each workload, enough to compare two runs
CHEAP = {
    "geometry": ["n32-r1", "n16-r3", "n32-r9", "n16-r7", "n32-r4"],
    "certify": ["validate-orth-m1", "validate-diam-m2", "validate-drop-m3"],
    "cli-cold": ["gap-k8", "dist-path10", "cheeger-s16", "nbhd-path10",
                 "connected-k8", "cover-g20", "validate-cover-g20", "diam-pauli",
                 "connected-disc8", "moduli-doubling", "saturate-c12"],
}


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _observe(name, seed):
    workload = WORKLOADS[name]
    os.makedirs(run.OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="test-", dir=run.OUT_DIR)
    try:
        state = workload.build(seed, workdir)
        obs = {}
        for slot, op in enumerate(workload.cycle()):
            if op["key"] in CHEAP[name]:
                obs[op["key"]] = run.plain(workload.run(state, op, 0, slot, Timer()))
        files = {}
        for dirpath, _, names in os.walk(workdir):
            for f in names:
                path = os.path.join(dirpath, f)
                with open(path, "rb") as fh:
                    files[os.path.relpath(path, workdir)] = fh.read()
    finally:
        shutil.rmtree(workdir)
    return state, obs, files


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_and_outputs(name):
    state_a, obs_a, files_a = _observe(name, 11)
    state_b, obs_b, files_b = _observe(name, 11)
    assert obs_a == obs_b
    assert files_a == files_b
    if name == "geometry":
        for slot, op in enumerate(WORKLOADS[name].cycle()):
            pa, _ = WORKLOADS[name].inputs(state_a, op, 0, slot)
            pb, _ = WORKLOADS[name].inputs(state_b, op, 0, slot)
            assert np.array_equal(pa.range_basis, pb.range_basis)
        for n in (16, 32):
            for ua, ub in zip(state_a["specs"][n].unitaries, state_b["specs"][n].unitaries):
                assert np.array_equal(ua, ub)
    reference = run.load_reference()[name]["ops"]
    assert all(obs_a[k][0] == reference[k] and not obs_a[k][1] for k in obs_a)


def test_other_seed_keeps_mix_and_ranks():
    geo = WORKLOADS["geometry"]
    state_a = {"seed": 1}
    state_b = {"seed": 2}
    keys = [op["key"] for op in geo.cycle()]
    assert keys == [op["key"] for op in geo.cycle()]
    distinct = {op["key"]: op for op in geo.cycle()}.values()
    n32 = [op["rank"] for op in distinct if op["n"] == 32]
    n16 = [op["rank"] for op in distinct if op["n"] == 16]
    assert sorted(n32) == list(range(1, 17)) and sorted(n16) == list(range(1, 9))
    assert len(n16) < len(n32)
    for slot, op in enumerate(geo.cycle()):
        pa, _ = geo.inputs(state_a, op, 0, slot)
        pb, _ = geo.inputs(state_b, op, 0, slot)
        assert pa.rank == pb.rank == op["rank"]
        assert not np.allclose(pa.range_basis, pb.range_basis)
    fa = _orthogonal_cover(32, 4, 2, 3.0, np.random.default_rng([1, 0, 0]))
    fb = _orthogonal_cover(32, 4, 2, 3.0, np.random.default_rng([2, 0, 0]))
    assert [[m.rank for m in c] for c in fa.colors] == [[m.rank for m in c] for c in fb.colors]
    for name in ("certify", "cli-cold"):
        assert WORKLOADS[name].cycle() == WORKLOADS[name].cycle()


def _spy_on_wrappers(monkeypatch, name):
    seen = []
    workload = WORKLOADS[name]
    original = workload.run

    def spying_run(state, op, c, slot, timer):
        seen.append(bool(tracer.installed_wrappers()))
        return original(state, op, c, slot, timer)

    monkeypatch.setattr(workload, "run", spying_run)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    return seen


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_untraced_run_installs_no_wrappers(monkeypatch, capsys):
    seen = _spy_on_wrappers(monkeypatch, "certify")
    assert run.main(["--workload", "certify", "--seed", "3", "--seconds", "0",
                     "--trace", "0"]) == 0
    result = _last_json(capsys)
    assert seen and not any(seen)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in _benchmark()["end_to_end"]}


def test_traced_run_reports_every_layer_and_restores(monkeypatch, capsys):
    seen = _spy_on_wrappers(monkeypatch, "certify")
    assert run.main(["--workload", "certify", "--seed", "3", "--seconds", "0",
                     "--trace", "1"]) == 0
    result = _last_json(capsys)
    assert True in seen and False in seen  # traced and untraced halves
    assert not tracer.installed_wrappers()
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in _benchmark()["per_layer"]}
    assert result["metrics"]["asdim.certify_counting.calls"]["value"] > 0
    assert result["metrics"]["expander.spectral_gap.calls_per_op"]["value"] == 6 / 9


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_lists_the_tracer_metrics():
    listed = [(m["name"], m["unit"]) for m in _benchmark()["per_layer"]]
    assert listed == tracer.per_layer_metrics()


def test_self_time_subtracts_children():
    t = tracer.Tracer()
    t.spans = [[0, None, "a", 0.0, 10.0, False], [1, 0, "b", 1.0, 4.0, False],
               [2, 0, "b", 5.0, 6.0, True], [3, 1, "c", 2.0, 3.0, False]]
    assert dict(t.self_times()) == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_fastest_repetitions_keep_each_operations_best():
    # two cycles of three operations; the second operation stalls once
    latencies = [1.0, 90.0, 5.0, 1.2, 10.0, 4.0]
    assert run.fastest_repetitions(latencies, ["a", "b", "c"]) == {
        "a": 1.0, "b": 10.0, "c": 4.0}
    assert run.fastest_repetitions(latencies[:3], ["a", "b", "c"]) == {
        "a": 1.0, "b": 90.0, "c": 5.0}
    # a key that occurs twice in the cycle has one fastest repetition
    assert run.fastest_repetitions(latencies, ["a", "b", "a"]) == {"a": 1.0, "b": 10.0}


def test_blas_threads_pinned_and_found_values_kept(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    found = run.pin_blas_threads()
    assert found == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": None,
                     "MKL_NUM_THREADS": None}
    assert all(os.environ[k] == "1" for k in run.BLAS_THREAD_VARS)
