"""The CLI contract under malformed input.

Each example takes one subcommand with small valid inputs, replaces one
leaf of one input file by a value of another type or range, and runs the
CLI in-process.  Whatever the input, no exception may escape ``main``, the
exit code is one of 0/1/2/3, and an exit-2 message starts with ``error: ``.
An exit-2 message caused by any input but the Kraus set names a JSON path;
a Kraus set's trace-preservation residual belongs to the whole object.
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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main([paths.get(a, a) for a in argv])
    assert code in (0, 1, 2, 3)
    if code in (0, 1):
        json.loads(out.getvalue())
    else:
        assert err.getvalue().startswith("error: "), err.getvalue()
    if code == 2 and target != "kraus":
        assert "$" in err.getvalue(), err.getvalue()
