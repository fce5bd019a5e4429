"""The CLI contract under malformed input.

Each example takes one subcommand with small valid inputs, replaces one
leaf of one input file by a value of another type or range, and runs the
CLI in-process.  Whatever the input, no exception may escape ``main``, the
exit code is one of 0/1/2/3, and an exit-2 message starts with ``error: ``.
An exit-2 message caused by any input but the Kraus set names a JSON path;
a Kraus set's trace-preservation residual belongs to the whole object.

A float flag (a radius or a scale) set to an extreme or invalid value is an
input too: it may fail a check or be refused, but never exits 3.
"""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    (["connected", "kraus"], ["kraus"]),
    (["dist", "kraus", "proj_e0", "proj_i2"], ["kraus", "proj_e0", "proj_i2"]),
    (["nbhd", "space", "subset", "--eps", "1.5"], ["space", "subset"]),
    (["nbhd", "kraus", "proj_e0", "--eps", "1.5"], ["kraus", "proj_e0"]),
    (["diam", "kraus", "proj_i2", "--seed", "1", "--trials", "2"],
     ["kraus", "proj_i2"]),
    (["cheeger", "spec", "--trials", "2", "--seed", "1"], ["spec"]),
    (["isoperimetric", "spec", "--delta", "1.5", "--trials", "2", "--seed", "1"],
     ["spec"]),
    (["rank-diam", "spec", "--trials", "2", "--seed", "1"], ["spec"]),
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
        json.loads(out)
    else:
        assert err.startswith("error: "), err
    if code == 2 and target != "kraus":
        assert "$" in err, err


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1", "1e308", "1e-300"])
@pytest.mark.parametrize("argv, files", FLAG_COMMANDS,
                         ids=["-".join(argv[:2]) for argv, _ in FLAG_COMMANDS])
def test_float_flag_keeps_the_exit_contract(inputs, argv, files, value):
    objs, _, workdir = inputs
    paths = {name: str(workdir / f"flag_{name}.json") for name in files}
    for name, path in paths.items():
        with open(path, "w") as fh:
            json.dump(objs[name], fh)
    at = next(i for i, a in enumerate(argv) if a in FLOAT_FLAGS) + 1
    code, out, err = _run(argv[:at] + [value] + argv[at + 1:], paths)
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if value == "nan":  # no radius or scale is NaN, so no run succeeds
        assert code != 0, out
    if code in (0, 1):
        json.loads(out)
    else:
        assert err.startswith("error: "), err
