"""The CLI contract under malformed input.

Each example takes one subcommand with small valid inputs, replaces one
leaf of one input file by a value of another type or range, and runs the
CLI in-process.  Whatever the input, no exception may escape ``main``, the
exit code is one of 0/1/2/3, and an exit-2 message starts with ``error: ``.
An exit-2 message caused by any input but the Kraus set names a JSON path;
a Kraus set's trace-preservation residual belongs to the whole object.

A float flag (a radius or a scale) set to an extreme or invalid value is an
input too: it may fail a check or be refused, but never exits 3.  Every
report is strict JSON: an infinite value is the string "inf", never the
Infinity literal.  A reader that closes stdout early changes nothing.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qcoarse
from qcoarse import jsonio
from qcoarse.asdim import CoverFamily
from qcoarse.cli import main
from qcoarse.expander import random_expander
from qcoarse.matcore import Projection
from qcoarse.moduli import MapTable
from qcoarse.qmetric import FiniteMetricSpace, KrausSet


def _line(points):
    pts = np.asarray(points, dtype=float)
    return FiniteMetricSpace([str(i) for i in range(len(pts))],
                             np.abs(pts[:, None] - pts[None, :]))


def _inputs() -> dict:
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    # a positive gap (0.117), so certify reaches its checks; two unitaries
    # would always give gap 0
    spec = random_expander(4, 3, seed=2)
    u = np.linalg.qr(np.arange(16.0).reshape(4, 4) + np.eye(4))[0]
    path4 = _line(range(4))
    return {
        "kraus": jsonio.kraus_to_json(KrausSet([np.eye(2) / np.sqrt(2), x / np.sqrt(2)])),
        "proj_e0": jsonio.projection_to_json(Projection.onto_subset(2, [0])),
        "proj_i2": jsonio.projection_to_json(Projection.identity(2)),
        "space": jsonio.space_to_json(path4),
        "subset": [0, 1],
        "cover": jsonio.cover_to_json(CoverFamily(
            "classical", [[(0,), (2,)], [(1,), (3,)]], r=0.5, R=0.0)),
        "cov_p": jsonio.cover_to_json(CoverFamily(
            "classical", [[(i,) for i in range(4)]], r=0.4, R=1.0)),
        "cov_q": jsonio.cover_to_json(CoverFamily(
            "classical", [[(0, 1)]], r=0.4, R=1.0)),
        "spec": jsonio.expander_to_json(spec),
        "qcover": jsonio.cover_to_json(CoverFamily(
            "quantum", [[Projection(4, u[:, :2])], [Projection(4, u[:, 2:])]],
            r=1.5, R=2.0)),
        "map": jsonio.map_to_json(MapTable(_line(range(3)), path4, (0, 2, 3))),
    }


# (argv, the input files it reads); a name in argv is replaced by its path
COMMANDS = [
    (["gap", "kraus"], ["kraus"]),
    (["gap", "spec"], ["spec"]),
    (["connected", "kraus"], ["kraus"]),
    (["connected", "spec"], ["spec"]),
    (["dist", "kraus", "proj_e0", "proj_i2"], ["kraus", "proj_e0", "proj_i2"]),
    (["nbhd", "space", "subset", "--eps", "1.5"], ["space", "subset"]),
    (["nbhd", "kraus", "proj_e0", "--eps", "1.5"], ["kraus", "proj_e0"]),
    (["diam", "kraus", "proj_i2", "--seed", "1", "--trials", "2"],
     ["kraus", "proj_i2"]),
    (["cheeger", "spec", "--trials", "2", "--seed", "1"], ["spec"]),
    (["isoperimetric", "spec", "--delta", "1.5", "--trials", "2", "--seed", "1"],
     ["spec"]),
    (["rank-diam", "spec", "--trials", "2", "--seed", "1"], ["spec"]),
    (["rank-diam", "kraus", "--trials", "2", "--seed", "1"], ["kraus"]),
    (["cover", "space", "--r", "1"], ["space"]),
    (["validate-cover", "space", "cover"], ["space", "cover"]),
    (["saturate", "space", "cov_p", "cov_q", "--r", "0.4"],
     ["space", "cov_p", "cov_q"]),
    (["certify", "spec", "qcover", "--delta", "1.5", "--m", "1"], ["spec", "qcover"]),
    (["moduli", "map", "--bruteforce"], ["map"]),
]

REPLACEMENTS = [None, True, False, "x", "inf", [], [0], {}, 0, -1, -0.5, 2.5,
                10 ** 30, 1e300]

FLOAT_FLAGS = ("--eps", "--delta", "--r")
FLAG_COMMANDS = [c for c in COMMANDS if set(FLOAT_FLAGS) & set(c[0])]


def _leaves(obj, path=()):
    """Paths of every scalar and every empty container inside obj."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else None)
    if not items:
        yield path
        return
    for key, value in items:
        yield from _leaves(value, path + (key,))


def _replaced(obj, path, value):
    if not path:
        return value
    out = json.loads(json.dumps(obj))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    objs = _inputs()
    leaves = {name: sorted(_leaves(obj), key=repr) for name, obj in objs.items()}
    return objs, leaves, tmp_path_factory.mktemp("cli")


def _strict_json(text: str):
    """json.loads refusing the Infinity, -Infinity and NaN literals."""
    def refuse(name):
        raise ValueError(f"report is not strict JSON: {name}")
    return json.loads(text, parse_constant=refuse)


def _run(argv, paths) -> tuple[int, str, str]:
    """main on argv, each input name replaced by its path: (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main([paths.get(a, a) for a in argv])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400)
@given(data=st.data())
def test_one_bad_leaf_keeps_the_exit_contract(inputs, data):
    objs, leaves, workdir = inputs
    argv, files = data.draw(st.sampled_from(COMMANDS))
    target = data.draw(st.sampled_from(files))
    leaf = data.draw(st.sampled_from(leaves[target]))
    value = data.draw(st.sampled_from(REPLACEMENTS))
    paths = {}
    for name in files:
        obj = _replaced(objs[name], leaf, value) if name == target else objs[name]
        paths[name] = str(workdir / f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(obj, fh)
    code, out, err = _run(argv, paths)
    assert code in (0, 1, 2, 3)
    if code in (0, 1):
        _strict_json(out)
    else:
        assert err.startswith("error: "), err
    if code == 2 and target != "kraus":
        assert "$" in err, err


# "=v" passes the flag as --flag=v: argparse reads a separate -inf as an
# option, so only that form reaches the command
@pytest.mark.parametrize("value", ["inf", "-inf", "=-inf", "nan", "0", "-1",
                                   "1e308", "1e-300"])
@pytest.mark.parametrize("argv, files", FLAG_COMMANDS,
                         ids=["-".join(argv[:2]) for argv, _ in FLAG_COMMANDS])
def test_float_flag_keeps_the_exit_contract(inputs, argv, files, value):
    objs, _, workdir = inputs
    paths = {name: str(workdir / f"flag_{name}.json") for name in files}
    for name, path in paths.items():
        with open(path, "w") as fh:
            json.dump(objs[name], fh)
    at = next(i for i, a in enumerate(argv) if a in FLOAT_FLAGS)
    flag = [argv[at] + value] if value.startswith("=") else [argv[at], value]
    code, out, err = _run(argv[:at] + flag + argv[at + 2:], paths)
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if value == "nan":  # no radius or scale is NaN, so no run succeeds
        assert code != 0, out
    if code in (0, 1):
        _strict_json(out)
    else:
        assert err.startswith("error: "), err


@pytest.mark.parametrize("m", [10 ** 5, 2 ** 62, 10 ** 400],
                         ids=["1e5", "2^62", "1e400"])
def test_large_chain_length_decides_the_parameter_condition(inputs, m):
    # (1 + eps')^m overflows a float long before m = 10^5; an m past the
    # float range gives no radius m * delta and is refused
    objs, _, workdir = inputs
    paths = {name: str(workdir / f"m_{name}.json") for name in ("spec", "qcover")}
    for name, path in paths.items():
        with open(path, "w") as fh:
            json.dump(objs[name], fh)
    code, out, err = _run(["certify", "spec", "qcover", "--delta", "1.5",
                           "--m", str(m)], paths)
    if m > 1e308:
        assert (code, err) == (2, "error: need m <= the largest float\n")
        return
    assert code in (0, 1), err
    results = _strict_json(out)["results"]
    assert results["m"] == m and results["parameter_condition"] is True


ZERO_KRAUS = {"n": 0, "ops": [{"rows": 0, "cols": 0, "re": [], "im": []}]}
ZERO_PROJ = {"n": 0, "range_basis": {"rows": 0, "cols": 0, "re": [], "im": []}}
ZERO_SPEC = {"n": 0, "d": 1, "unitaries": ZERO_KRAUS["ops"], "epsilon": 0.5}

ZERO_DIMENSION_COMMANDS = {
    "gap": ["gap", "zero_kraus"],
    "connected": ["connected", "zero_kraus"],
    "nbhd": ["nbhd", "zero_kraus", "zero_proj", "--eps", "1.5"],
    "dist": ["dist", "zero_kraus", "zero_proj", "zero_proj"],
    "rank-diam": ["rank-diam", "zero_kraus", "--trials", "2", "--seed", "1"],
    "nbhd-projection": ["nbhd", "kraus", "zero_proj", "--eps", "1.5"],
    "gap-spec": ["gap", "zero_spec"],
}


@pytest.mark.parametrize("argv", ZERO_DIMENSION_COMMANDS.values(),
                         ids=ZERO_DIMENSION_COMMANDS.keys())
def test_zero_dimension_is_a_schema_error(inputs, tmp_path, argv):
    # a 0 x 0 channel or projection is refused at its dimension, by JSON path
    files = {"zero_kraus": ZERO_KRAUS, "zero_proj": ZERO_PROJ, "zero_spec": ZERO_SPEC,
             "kraus": inputs[0]["kraus"]}
    paths = {name: str(tmp_path / f"{name}.json") for name in files}
    for name, obj in files.items():
        with open(paths[name], "w") as fh:
            json.dump(obj, fh)
    assert _run(argv, paths) == (2, "", "error: $.n: expected a positive dimension\n")


GEN_EXPANDER = ["-m", "qcoarse", "gen-expander", "--n", "8", "--d", "4",
                "--seed", "1"]


def _env() -> dict:
    src = os.path.dirname(os.path.dirname(qcoarse.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_closed_stdout_keeps_the_exit_code():
    # the reader is gone before the report is written: no traceback, and the
    # command's own exit code
    with subprocess.Popen([sys.executable, *GEN_EXPANDER], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=_env()) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert err == b""


def test_stdout_closed_at_start_keeps_the_exit_code():
    # with fd 1 closed before the interpreter starts, sys.stdout is None
    proc = subprocess.run([sys.executable, *GEN_EXPANDER], stderr=subprocess.PIPE,
                          env=_env(), timeout=60, preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, b"")
