import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qcoarse.matcore import Projection
from qcoarse.qmetric import (ClassicalQuantumMetric, ExtendedDistance,
                             FiniteMetricSpace, KrausSet, graph_metric)
from qcoarse.expander import haar_unitary, random_expander
from qcoarse.asdim import CoverFamily
from qcoarse.moduli import MapTable, classical_moduli
from qcoarse import jsonio
from qcoarse.jsonio import SchemaError


@given(st.integers(0, 5_000))
def test_matrix_roundtrip(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    back = jsonio.matrix_from_json(jsonio.matrix_to_json(m))
    assert np.array_equal(back, m)


def test_matrix_schema_paths():
    with pytest.raises(SchemaError, match=r"\$\.re"):
        jsonio.matrix_from_json({"rows": 2, "cols": 2, "re": [1.0], "im": [0.0] * 4})
    with pytest.raises(SchemaError, match="missing key"):
        jsonio.matrix_from_json({"rows": 2})


@pytest.mark.parametrize("entry", ["abc", [1, 2], None, 10**400, True],
                         ids=["string", "list", "null", "huge-int", "true"])
def test_matrix_entry_errors_name_the_entry(entry):
    obj = jsonio.matrix_to_json(np.eye(2))
    obj["im"][2] = entry
    with pytest.raises(SchemaError, match=r"\$\.im\[2\]: expected a finite number"):
        jsonio.matrix_from_json(obj)


def test_matrix_of_booleans_is_refused():
    obj = jsonio.matrix_to_json(np.eye(2))
    obj["re"] = [True, False, False, True]
    with pytest.raises(SchemaError, match=r"\$\.re\[0\]: expected a finite number"):
        jsonio.matrix_from_json(obj)


def test_projection_roundtrip(rng):
    u = haar_unitary(4, rng)
    p = Projection(4, u[:, :2])
    back = jsonio.projection_from_json(jsonio.projection_to_json(p))
    assert back.rank == 2
    assert np.allclose(back.matrix(), p.matrix())


def test_projection_rejects_sloppy_basis():
    obj = {"n": 2, "range_basis": jsonio.matrix_to_json(np.array([[1.0], [1.0]]))}
    with pytest.raises(SchemaError, match="orthonormal"):
        jsonio.projection_from_json(obj)


def test_subspace_roundtrip(rng):
    from qcoarse.matcore import subspace_from_spanning
    sub = subspace_from_spanning([haar_unitary(3, rng) for _ in range(2)])
    back = jsonio.subspace_from_json(jsonio.subspace_to_json(sub))
    assert back.dim == sub.dim
    for b in sub.basis:
        assert back.membership_residual(b) <= 1e-9


def test_kraus_roundtrip(rng):
    kraus = KrausSet([haar_unitary(3, rng) / np.sqrt(2) for _ in range(2)])
    back = jsonio.kraus_from_json(jsonio.kraus_to_json(kraus))
    assert back.n == 3 and len(back.ops) == 2
    assert back.trace_preserving


def test_space_roundtrip_with_infinity():
    space = FiniteMetricSpace(["a", "b", "c"],
                              [[0, 1, math.inf], [1, 0, math.inf],
                               [math.inf, math.inf, 0]])
    obj = jsonio.space_to_json(space)
    assert obj["d"][0][2] == "inf"
    back = jsonio.space_from_json(obj)
    assert math.isinf(back.d[0, 2])
    assert back.labels == ("a", "b", "c")


def test_space_schema_error_path():
    with pytest.raises(SchemaError, match=r"\$\.d\[0\]\[1\]"):
        jsonio.space_from_json({"labels": ["a", "b"],
                                "d": [[0, "wide"], [1, 0]]})


def test_distance_roundtrip():
    for d in (ExtendedDistance.of(2.5), ExtendedDistance.infinite()):
        back = jsonio.distance_from_json(jsonio.distance_to_json(d))
        assert back == d
    assert jsonio.distance_to_json(ExtendedDistance.infinite())["value"] == 0.0


def test_cover_roundtrip_classical():
    fam = CoverFamily("classical", [[(0, 1), (3,)], [(2,)]], r=1.0, R=2.0,
                      metadata="fixture")
    back = jsonio.cover_from_json(jsonio.cover_to_json(fam))
    assert back.colors == fam.colors
    assert back.r == 1.0 and back.R == 2.0


def test_cover_radii_may_be_infinite():
    fam = CoverFamily("classical", [[(0, 1)]], r=math.inf, R=math.inf)
    obj = json.loads(jsonio.dump_json(jsonio.cover_to_json(fam)))
    assert obj["r"] == obj["R"] == "inf"
    back = jsonio.cover_from_json(obj)
    assert back.r == back.R == math.inf
    for r in (0, -1.0, "-inf"):
        with pytest.raises(SchemaError, match=r"\$\.r"):
            jsonio.cover_from_json({**obj, "r": r})


def test_cover_roundtrip_quantum(rng):
    u = haar_unitary(4, rng)
    fam = CoverFamily("quantum",
                      [[Projection(4, u[:, :2])], [Projection(4, u[:, 2:])]],
                      r=1.0, R=3.0)
    back = jsonio.cover_from_json(jsonio.cover_to_json(fam))
    assert back.backend == "quantum"
    assert np.allclose(back.colors[0][0].matrix(), fam.colors[0][0].matrix())


def test_a_metric_converts_either_member_format():
    # an index array and a projection object are members of either metric
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    graph = graph_metric(KrausSet([np.eye(2) / np.sqrt(2), x / np.sqrt(2)]))
    space = ClassicalQuantumMetric(FiniteMetricSpace(["a", "b"], [[0, 1], [1, 0]]))
    e1 = jsonio.projection_to_json(Projection.onto_subset(2, [1]))
    cover = {"backend": "quantum", "r": 1.0, "R": 0.0, "colors": [[[0], e1]]}
    fam = jsonio.metric_cover_from_json(cover, graph, "$")
    assert [m.rank for m in fam.colors[0]] == [1, 1]
    assert graph.covering(fam.members()) == (True, None)
    assert jsonio.member_from_json(e1, space, True, "$") == (1,)
    assert jsonio.member_from_json([1, 0, 1], space, True, "$") == (0, 1)
    # a graph metric has no empty member, even where the caller allows one
    assert jsonio.member_from_json([], space, False, "$") == ()
    with pytest.raises(SchemaError, match=r"^\$: expected a nonempty subset$"):
        jsonio.member_from_json([], graph, False, "$")
    cover["backend"] = "classical"
    with pytest.raises(SchemaError, match="expected 'quantum', the metric's backend"):
        jsonio.metric_cover_from_json(cover, graph, "$")


def test_expander_roundtrip():
    spec = random_expander(4, 2, seed=3)
    back = jsonio.expander_from_json(jsonio.expander_to_json(spec))
    assert back.n == 4 and back.d == 2
    assert back.epsilon == spec.epsilon


def test_map_roundtrip_and_label_list_rejected():
    x = FiniteMetricSpace(["p", "q"], [[0, 1], [1, 0]])
    mapping = MapTable(x, x, (1, 0))
    back = jsonio.map_from_json(jsonio.map_to_json(mapping))
    assert back.images == (1, 0)
    with pytest.raises(SchemaError, match="distances"):
        jsonio.map_from_json({"from": ["p", "q"], "to": ["p"], "map": [0, 0]})


def test_moduli_table_serializes_infinities():
    x = FiniteMetricSpace(["a", "b"], [[0, 2], [2, 0]])
    y = FiniteMetricSpace(["z"], [[0.0]])
    table = classical_moduli(MapTable(x, y, (0, 0)))
    obj = jsonio.moduli_table_to_json(table)
    assert ["inf" == v for _, v in obj["omega_tilde"]].count(True) >= 1


def test_dump_json_is_strict():
    text = jsonio.dump_json({"eps": math.inf, "rows": [(1.0, math.inf)]})
    assert json.loads(text) == {"eps": "inf", "rows": [[1.0, "inf"]]}
    for bad in (math.nan, -math.inf):
        with pytest.raises(ArithmeticError):
            jsonio.dump_json({"r": [bad]})


def test_the_input_rule_decides_by_key():
    spec = random_expander(4, 3, seed=2)
    kraus = jsonio.kraus_to_json(spec.kraus())
    report = {"command": "gen-expander", "results": jsonio.expander_to_json(spec)}
    for obj in (kraus, report["results"], report):
        got = jsonio.channel_from_json(obj)
        assert np.array_equal(np.array(got.ops), np.array(spec.kraus().ops))
    space = {"labels": ["a"], "d": [[0.0]], "ops": "ignored"}  # labels first
    assert jsonio.metric_from_json(space).backend == "classical"
    assert jsonio.metric_from_json(report).backend == "quantum"
    assert jsonio.spec_from_json(report).epsilon == spec.epsilon
    with pytest.raises(SchemaError, match=r"^\$\.results: expected an expander "
                                          r"spec \(key 'unitaries'\)$"):
        jsonio.spec_from_json({"command": "gap", "results": kraus})
