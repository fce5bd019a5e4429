import dataclasses
import json

import numpy as np
import pytest

from qcoarse.cli import main
from qcoarse.qmetric import FiniteMetricSpace, KrausSet
from qcoarse.matcore import Projection
from qcoarse.expander import haar_unitary, random_expander
from qcoarse.asdim import CoverFamily
from qcoarse import asdim, cli, jsonio


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    payload = json.loads(out.out) if out.out.strip() else None
    return code, payload, out.err


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def depolarizing_json(n):
    ops = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1 / np.sqrt(n)
            ops.append(e)
    return jsonio.kraus_to_json(KrausSet(ops))


def path_space_json(n):
    idx = np.arange(n)
    d = np.abs(idx[:, None] - idx[None, :]).astype(float)
    return jsonio.space_to_json(FiniteMetricSpace([str(i) for i in range(n)], d))


class TestGap:
    def test_depolarizing_gap_one(self, tmp_path, capsys):
        kraus = write(tmp_path, "k.json", depolarizing_json(3))
        code, payload, _ = run_cli(capsys, "gap", kraus)
        assert code == 0
        assert payload["results"]["epsilon"] == pytest.approx(1.0, abs=1e-12)

    def test_malformed_json_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, payload, err = run_cli(capsys, "gap", str(bad))
        assert code == 2
        assert "malformed" in err

    def test_missing_file_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code, payload, err = run_cli(capsys, "gap", str(missing))
        assert code == 2 and payload is None
        assert str(missing) in err

    def test_schema_path_in_error(self, tmp_path, capsys):
        kraus = write(tmp_path, "k.json", {"n": 2, "ops": [{"rows": 2}]})
        code, _, err = run_cli(capsys, "gap", kraus)
        assert code == 2
        assert "ops[0]" in err


def scalar_inputs():
    """One valid object per schema with a JSON scalar, and a command reading it."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    pauli = KrausSet([np.eye(2, dtype=complex) / np.sqrt(2), x / np.sqrt(2)])
    objs = {
        "space": path_space_json(4),
        "subset": [0],
        "cover": jsonio.cover_to_json(CoverFamily("classical", [[(0,), (2,)]],
                                                  r=0.4, R=0.0)),
        "spec": jsonio.expander_to_json(random_expander(4, 2, seed=1)),
        "kraus": jsonio.kraus_to_json(pauli),
        "proj": jsonio.projection_to_json(Projection.onto_subset(2, [0])),
        "map": {"from": path_space_json(4), "to": path_space_json(3),
                "map": [0, 1, 2, 2]},
    }
    commands = {
        "space": ["dist", "space", "subset", "subset"],
        "subset": ["dist", "space", "subset", "subset"],
        "cover": ["validate-cover", "space", "cover"],
        "spec": ["isoperimetric", "spec", "--delta", "1.5", "--trials", "2",
                 "--seed", "1"],
        "proj": ["dist", "kraus", "proj", "proj"],
        "map": ["moduli", "map"],
    }
    return objs, commands


@pytest.mark.parametrize("target, where, value, path", [
    ("cover", ["r"], None, "$.r"),
    ("cover", ["r"], [1], "$.r"),
    ("cover", ["r"], "abc", "$.r"),
    ("spec", ["epsilon"], None, "$.epsilon"),
    ("spec", ["epsilon"], [0.5], "$.epsilon"),
    ("spec", ["epsilon"], 2.5, "$.epsilon"),
    ("spec", ["n"], 4.0, "$.n"),
    ("proj", ["n"], 2.0, "$.n"),
    ("map", ["map", 0], None, "$.map[0]"),
    ("map", ["map", 0], [0], "$.map[0]"),
    ("map", ["map", 0], 1.7, "$.map[0]"),
    ("space", ["d", 0, 1], True, "$.d[0][1]"),
    ("subset", [0], True, "$[0]"),
], ids=["r-null", "r-list", "r-string", "epsilon-null", "epsilon-list",
        "epsilon-out-of-range", "spec-n-float",
        "projection-n-float", "map-null", "map-list", "map-fraction",
        "distance-true", "subset-true"])
def test_malformed_scalar_exits_2_with_its_path(tmp_path, capsys, target, where,
                                                value, path):
    objs, commands = scalar_inputs()
    obj = objs[target]
    for key in where[:-1]:
        obj = obj[key]
    obj[where[-1]] = value
    files = {name: write(tmp_path, f"{name}.json", o) for name, o in objs.items()}
    code, payload, err = run_cli(capsys, *[files.get(a, a) for a in commands[target]])
    assert code == 2 and payload is None
    assert f"{path}: expected a" in err


def member_inputs():
    """Inputs whose members do not live on the metric they are read against."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    u = np.linalg.qr(np.arange(16.0).reshape(4, 4) + np.eye(4))[0]
    path10_cover = CoverFamily("classical", [[(0, 1, 2, 3, 4), (9,)], [(5, 6, 7, 8)]],
                               r=2.0, R=4.0)
    cover42 = jsonio.cover_to_json(path10_cover)
    cover42["colors"][1].append([42])
    cover_r0 = jsonio.cover_to_json(path10_cover)
    cover_r0["r"] = 0
    return {
        "path10": path_space_json(10),
        "kraus2": jsonio.kraus_to_json(KrausSet([np.eye(2) / np.sqrt(2),
                                                 x / np.sqrt(2)])),
        "proj4": jsonio.projection_to_json(Projection.onto_subset(4, [0, 1])),
        "far": [0, 42],
        "five": [5],
        "cover42": cover42,
        "cover_r0": cover_r0,
        "cov_p42": jsonio.cover_to_json(CoverFamily("classical", [[(0,), (42,)]],
                                                    r=0.4, R=1.0)),
        "cov_q": jsonio.cover_to_json(CoverFamily("classical", [[(0, 1)]],
                                                  r=0.4, R=1.0)),
        "qcover4": jsonio.cover_to_json(CoverFamily(
            "quantum", [[Projection(4, u[:, :2])], [Projection(4, u[:, 2:])]],
            r=1.5, R=2.0)),
    }


@pytest.mark.parametrize("argv, message", [
    (["nbhd", "path10", "proj4", "--eps", "1.5"],
     "$.n: expected 10, the metric's dimension"),
    (["nbhd", "path10", "far", "--eps", "1.5"], "$[1]: expected an index below 10"),
    (["validate-cover", "path10", "cover42"],
     "$.colors[1][1][0]: expected an index below 10"),
    (["saturate", "path10", "cov_p42", "cov_q", "--r", "0.4"],
     "$.colors[0][1][0]: expected an index below 10"),
    (["dist", "kraus2", "five", "five"], "$[0]: expected an index below 2"),
    (["validate-cover", "kraus2", "qcover4"],
     "$.colors[0][0].n: expected 2, the metric's dimension"),
    (["validate-cover", "path10", "cover_r0"], "$.r: expected a positive number"),
], ids=["projection-on-classical", "subset", "cover-member", "saturate-member",
        "subset-on-kraus", "quantum-cover-member", "cover-radius-zero"])
def test_member_off_the_metric_names_its_path(tmp_path, capsys, argv, message):
    files = {name: write(tmp_path, f"{name}.json", o)
             for name, o in member_inputs().items()}
    code, payload, err = run_cli(capsys, *[files.get(a, a) for a in argv])
    assert code == 2 and payload is None
    assert err == f"error: {message}\n"


class TestGenerators:
    def test_gen_expander_deterministic(self, capsys):
        code1, p1, _ = run_cli(capsys, "gen-expander", "--n", "4", "--d", "3",
                               "--seed", "5")
        code2, p2, _ = run_cli(capsys, "gen-expander", "--n", "4", "--d", "3",
                               "--seed", "5")
        assert code1 == code2 == 0
        assert p1["results"] == p2["results"]
        assert p1["results"]["epsilon"] > 0

    def test_gen_graph_cycle(self, capsys):
        code, payload, _ = run_cli(capsys, "gen-graph", "--n", "5", "--cycle")
        assert code == 0
        lams = [2 * np.cos(2 * np.pi * k / 5) for k in range(1, 5)]
        assert payload["results"]["classical_gap"] == pytest.approx(
            1 - max(abs(l) for l in lams) / 2)

    @pytest.mark.parametrize("argv", [["--n", "2", "--cycle"],
                                      ["--n", "1", "--cycle"],
                                      ["--n", "0", "--complete"]])
    def test_gen_graph_too_small_usage_error(self, capsys, argv):
        # a 2- or 1-cycle is not 2-regular, and K_0 has no degree
        code, payload, err = run_cli(capsys, "gen-graph", *argv)
        assert code == 2 and payload is None
        assert err.startswith("error: need n >= ")

    def test_gen_graph_requires_seed(self, capsys):
        code, _, err = run_cli(capsys, "gen-graph", "--n", "6", "--d", "3")
        assert code == 2
        assert "seed" in err


class TestProjectionGeometry:
    def test_dist_classical(self, tmp_path, capsys):
        space = write(tmp_path, "s.json", path_space_json(3))
        a = write(tmp_path, "a.json", [0])
        b = write(tmp_path, "b.json", [2])
        code, payload, _ = run_cli(capsys, "dist", space, a, b)
        assert code == 0
        assert payload["results"]["dist"] == {"finite": True, "value": 2.0}

    def test_dist_graph_infinite(self, tmp_path, capsys):
        kraus = write(tmp_path, "k.json",
                      jsonio.kraus_to_json(KrausSet([np.eye(2, dtype=complex)])))
        a = write(tmp_path, "a.json", [0])
        b = write(tmp_path, "b.json", [1])
        code, payload, _ = run_cli(capsys, "dist", kraus, a, b)
        assert code == 0
        assert payload["results"]["dist"]["finite"] is False

    def test_nbhd_classical(self, tmp_path, capsys):
        space = write(tmp_path, "s.json", path_space_json(3))
        a = write(tmp_path, "a.json", [0])
        code, payload, _ = run_cli(capsys, "nbhd", space, a, "--eps", "1.5")
        assert code == 0
        assert payload["results"]["neighborhood"] == [0, 1]

    def test_diam_graph_bracket(self, tmp_path, capsys):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        kraus = write(tmp_path, "k.json", jsonio.kraus_to_json(
            KrausSet([np.eye(2, dtype=complex) / np.sqrt(2), x / np.sqrt(2)])))
        p = write(tmp_path, "p.json", jsonio.projection_to_json(
            Projection.identity(2)))
        code, payload, _ = run_cli(capsys, "diam", kraus, p, "--seed", "4")
        assert code == 0
        # the compressed powers stall below rank^2, certifying diam = +inf
        assert payload["results"]["lower_bound"]["finite"] is False
        assert payload["results"]["sampled"] == {"finite": True, "value": 1.0}
        assert payload["results"]["upper_bound"] == "unknown"

    def test_diam_graph_needs_seed(self, tmp_path, capsys):
        kraus = write(tmp_path, "k.json",
                      jsonio.kraus_to_json(KrausSet([np.eye(2, dtype=complex)])))
        p = write(tmp_path, "p.json",
                  jsonio.projection_to_json(Projection.identity(2)))
        code, _, err = run_cli(capsys, "diam", kraus, p)
        assert code == 2 and "seed" in err


class TestVerifiers:
    def test_isoperimetric_end_to_end(self, tmp_path, capsys):
        code, payload, _ = run_cli(capsys, "gen-expander", "--n", "8", "--d", "4",
                                   "--seed", "7")
        spec = write(tmp_path, "spec.json", payload["results"])
        code, payload, _ = run_cli(capsys, "isoperimetric", spec,
                                   "--delta", "1.5", "--trials", "40",
                                   "--seed", "3")
        assert code == 0
        assert payload["results"]["violations"] == 0

    def test_isoperimetric_refuses_one_dimension(self, tmp_path, capsys):
        # no projection on C^1 has 0 < rank <= n/2, the theorem's hypothesis
        spec = write(tmp_path, "n1.json", {
            "n": 1, "d": 1, "epsilon": 1.0,
            "unitaries": [{"rows": 1, "cols": 1, "re": [1.0], "im": [0.0]}]})
        code, payload, err = run_cli(capsys, "isoperimetric", spec, "--delta",
                                     "1.5", "--trials", "3", "--seed", "7")
        assert code == 2 and payload is None
        assert err == "error: need n >= 2 for 0 < rank(P) <= n/2, got n = 1\n"

    @pytest.mark.parametrize("entry", ["abc", [1, 2], None],
                             ids=["string", "list", "null"])
    def test_bad_matrix_entry_names_its_path(self, tmp_path, capsys, entry):
        code, payload, _ = run_cli(capsys, "gen-expander", "--n", "4", "--d", "2",
                                   "--seed", "1")
        spec = payload["results"]
        spec["unitaries"][0]["re"][3] = entry
        code, payload, err = run_cli(capsys, "isoperimetric", write(tmp_path, "s.json", spec),
                                     "--delta", "1.5", "--trials", "2", "--seed", "1")
        assert code == 2 and payload is None
        assert "$.unitaries[0].re[3]: expected a finite number" in err

    @pytest.mark.parametrize("command", ["isoperimetric", "rank-diam", "certify",
                                         "cheeger"])
    def test_non_unitary_matrix_names_its_path(self, tmp_path, capsys, command):
        code, payload, _ = run_cli(capsys, "gen-expander", "--n", "4", "--d", "2",
                                   "--seed", "1")
        spec = payload["results"]
        spec["unitaries"][1]["re"][0] += 0.5
        path = write(tmp_path, "s.json", spec)
        extra = {"isoperimetric": ["--delta", "1.5", "--trials", "2", "--seed", "1"],
                 "rank-diam": ["--trials", "2", "--seed", "1"],
                 "certify": [write(tmp_path, "c.json", {}), "--delta", "1.5",
                             "--m", "1"],
                 "cheeger": ["--trials", "2", "--seed", "1"]}[command]
        code, payload, err = run_cli(capsys, command, path, *extra)
        assert code == 2 and payload is None
        assert err == ("error: $.unitaries[1]: matrix is not unitary within "
                       "tolerance\n")

    def test_cheeger_command(self, tmp_path, capsys):
        code, payload, _ = run_cli(capsys, "gen-expander", "--n", "6", "--d", "4",
                                   "--seed", "2")
        spec = payload["results"]
        kraus = KrausSet([jsonio.matrix_from_json(u) / np.sqrt(spec["d"])
                          for u in spec["unitaries"]])
        kpath = write(tmp_path, "k.json", jsonio.kraus_to_json(kraus))
        code, payload, _ = run_cli(capsys, "cheeger", kpath, "--trials", "25",
                                   "--seed", "1")
        assert code == 0
        assert payload["results"]["violations"] == 0
        assert payload["results"]["min_sampled"] >= \
            payload["results"]["cheeger_lower_bound"] - 1e-9

    def test_cheeger_exhaustive_diagonal(self, tmp_path, capsys):
        code, payload, _ = run_cli(capsys, "gen-expander", "--n", "6", "--d", "4",
                                   "--seed", "2")
        spec = write(tmp_path, "spec.json", payload["results"])
        code, payload, _ = run_cli(capsys, "cheeger", spec, "--trials", "10",
                                   "--seed", "4", "--exhaustive-diagonal")
        assert code == 0
        res = payload["results"]
        assert res["cheeger_lower_bound"] == pytest.approx(0.0825444, abs=1e-7)
        assert res["exhaustive_diagonal"]["min"] == pytest.approx(0.3484391, abs=1e-7)
        assert res["exhaustive_diagonal"]["violations"] == 0
        assert res["violations"] == 0

    def test_cheeger_exhaustive_diagonal_cap(self, tmp_path, capsys):
        code, payload, _ = run_cli(capsys, "gen-expander", "--n", "21", "--d", "2",
                                   "--seed", "1")
        spec = write(tmp_path, "spec.json", payload["results"])
        code, payload, err = run_cli(capsys, "cheeger", spec, "--trials", "1",
                                     "--seed", "1", "--exhaustive-diagonal")
        assert code == 2 and payload is None
        assert "capped at n = 20" in err

    def test_connected_reports_witness(self, tmp_path, capsys):
        blocks = []
        rng = np.random.default_rng(3)
        for _ in range(2):
            k = np.zeros((4, 4), dtype=complex)
            k[:2, :2] = haar_unitary(2, rng) / np.sqrt(2)
            k[2:, 2:] = haar_unitary(2, rng) / np.sqrt(2)
            blocks.append(k)
        kpath = write(tmp_path, "k.json", jsonio.kraus_to_json(KrausSet(blocks)))
        code, payload, _ = run_cli(capsys, "connected", kpath)
        assert code == 0
        assert payload["results"]["connected"] is False
        assert payload["results"]["witness"] is not None
        assert payload["results"]["witness_residual"] <= 1e-9

    def test_rank_diam(self, tmp_path, capsys):
        code, payload, _ = run_cli(capsys, "gen-expander", "--n", "8", "--d", "4",
                                   "--seed", "9")
        spec = write(tmp_path, "spec.json", payload["results"])
        code, payload, _ = run_cli(capsys, "rank-diam", spec, "--trials", "10",
                                   "--seed", "0")
        assert code == 0
        assert payload["results"]["failures"] == 0


class TestInputRule:
    """One channel given as a Kraus file, a spec or a gen-expander report."""

    COMMANDS = [
        ["gap", "X"],
        ["cheeger", "X", "--trials", "3", "--seed", "1"],
        ["connected", "X"],
        ["rank-diam", "X", "--trials", "3", "--seed", "1"],
        ["dist", "X", "e0", "e1"],
        ["nbhd", "X", "e0", "--eps", "1.5"],
        ["diam", "X", "e01", "--trials", "2", "--seed", "1"],
        ["validate-cover", "X", "qcover"],
    ]
    SPEC_COMMANDS = [
        ["isoperimetric", "X", "--delta", "1.5", "--trials", "3", "--seed", "1"],
        ["certify", "X", "qcover", "--delta", "1.5", "--m", "1"],
    ]

    @staticmethod
    def files(tmp_path, capsys):
        code, report, _ = run_cli(capsys, "gen-expander", "--n", "4", "--d", "3",
                                  "--seed", "2")
        assert code == 0
        spec = report["results"]
        u = np.linalg.qr(np.arange(16.0).reshape(4, 4) + np.eye(4))[0]
        objs = {
            "report": report,
            "spec": spec,
            "kraus": jsonio.kraus_to_json(jsonio.expander_from_json(spec).kraus()),
            "e0": [0], "e1": [1], "e01": [0, 1],
            "qcover": jsonio.cover_to_json(CoverFamily(
                "quantum", [[Projection(4, u[:, :2])], [Projection(4, u[:, 2:])]],
                r=1.5, R=2.0)),
        }
        return {name: write(tmp_path, f"{name}.json", o) for name, o in objs.items()}

    @staticmethod
    def results(capsys, files, argv, channel):
        code, payload, err = run_cli(capsys, *[files[channel] if a == "X"
                                               else files.get(a, a) for a in argv])
        assert payload is not None, err
        return code, payload["results"]

    @pytest.mark.parametrize("argv", COMMANDS, ids=[a[0] for a in COMMANDS])
    def test_any_channel_file_gives_the_same_results(self, tmp_path, capsys, argv):
        files = self.files(tmp_path, capsys)
        runs = [self.results(capsys, files, argv, c)
                for c in ("kraus", "spec", "report")]
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("argv", SPEC_COMMANDS, ids=[a[0] for a in SPEC_COMMANDS])
    def test_a_report_reads_as_its_spec(self, tmp_path, capsys, argv):
        files = self.files(tmp_path, capsys)
        assert (self.results(capsys, files, argv, "spec")
                == self.results(capsys, files, argv, "report"))

    def test_a_metric_space_is_no_channel(self, tmp_path, capsys):
        space = write(tmp_path, "s.json", path_space_json(4))
        code, payload, err = run_cli(capsys, "gap", space)
        assert code == 2 and payload is None
        assert err == ("error: $: expected a Kraus set (key 'ops') or an "
                       "expander spec (key 'unitaries')\n")

    def test_errors_in_a_report_name_its_results(self, tmp_path, capsys):
        files = self.files(tmp_path, capsys)
        with open(files["report"]) as fh:
            report = json.load(fh)
        report["results"]["unitaries"][1]["re"][0] += 0.5
        bad = write(tmp_path, "bad.json", report)
        code, payload, err = run_cli(capsys, "gap", bad)
        assert code == 2 and payload is None
        assert err == ("error: $.results.unitaries[1]: matrix is not unitary "
                       "within tolerance\n")


def near_tp_kraus_json(n, d, seed, scale=1 + 4e-7):
    """A unital mixed-unitary Kraus set scaled off trace preservation (~1e-6)."""
    rng = np.random.default_rng(seed)
    ops = [haar_unitary(n, rng) * (scale / np.sqrt(d)) for _ in range(d)]
    return jsonio.kraus_to_json(KrausSet(ops))


def kraus8_json():
    return jsonio.kraus_to_json(random_expander(8, 4, seed=1).kraus())


class TestToleranceFlags:
    def test_zero_atol_reaches_loaded_kraus_set(self, tmp_path, capsys):
        kpath = write(tmp_path, "near.json", near_tp_kraus_json(4, 3, seed=2))
        for cmd in ("gap", "connected"):
            code, _, err = run_cli(capsys, cmd, kpath)
            assert code == 2 and "trace preserving" in err
            code, payload, _ = run_cli(capsys, "--zero-atol", "1e-3", cmd, kpath)
            assert code == 0
            assert payload["tolerances"]["zero_atol"] == 1e-3
        assert payload["results"]["connected"] is True

    @pytest.mark.parametrize("command", ["connected", "nbhd"])
    def test_rank_cutoff_emptying_v1(self, tmp_path, capsys, command):
        kpath = write(tmp_path, "k8.json", kraus8_json())
        member = write(tmp_path, "sub.json", [0, 1])
        argv = [kpath] if command == "connected" else [kpath, member, "--eps", "1.5"]
        code, payload, err = run_cli(capsys, "--rank-rtol", "1e14", command, *argv)
        assert code == 2 and payload is None
        assert "rank cutoff" in err and "V1" in err and "empty" in err

    def test_internal_consistency_failure_exit_code(self, tmp_path, capsys,
                                                    monkeypatch):
        from qcoarse import cli

        def disagree(*args, **kwargs):
            raise ArithmeticError("connectivity criteria disagree")

        monkeypatch.setattr(cli, "is_connected", disagree)
        kpath = write(tmp_path, "k.json", depolarizing_json(2))
        code, payload, err = run_cli(capsys, "connected", kpath)
        assert code == 3 and payload is None
        assert err.startswith("error: connectivity criteria disagree")


def whole_input_cases():
    """Inputs refused as a whole object rather than at one leaf."""
    inputs = member_inputs()
    inputs.update({
        "empty": [],
        "proj0": jsonio.projection_to_json(Projection.zero(2)),
        "e0": jsonio.projection_to_json(Projection.onto_subset(2, [0])),
        "path4": path_space_json(4),
        "spec4": jsonio.expander_to_json(random_expander(4, 3, seed=2)),
        "two_colors": jsonio.cover_to_json(CoverFamily(
            "classical", [[(0,)], [(5,)]], r=0.4, R=1.0)),
        "tilted10": jsonio.projection_to_json(Projection(
            10, np.eye(10)[:, :2] @ [[1.0], [1.0]] / np.sqrt(2))),
    })
    return inputs


@pytest.mark.parametrize("argv, message", [
    (["dist", "path10", "empty", "five"], "$: expected a nonempty subset"),
    (["dist", "kraus2", "e0", "proj0"], "$: expected a projection of positive rank"),
    (["nbhd", "kraus2", "empty", "--eps", "1.5"], "$: expected a nonempty subset"),
    (["validate-cover", "kraus2", "cov_q"],
     "$.backend: expected 'quantum', the metric's backend"),
    (["validate-cover", "path4", "qcover4"],
     "$.backend: expected 'classical', the metric's backend"),
    (["certify", "spec4", "cov_q", "--delta", "1.5", "--m", "1"],
     "$.backend: expected 'quantum', the metric's backend"),
    (["saturate", "path10", "two_colors", "cov_q", "--r", "0.4"],
     "$.colors: saturate expects single-color families; "
     "combine covers color-by-color"),
    (["dist", "cov_q", "five", "five"],
     "$: expected a metric space (key 'labels'), a Kraus set (key 'ops') or "
     "an expander spec (key 'unitaries')"),
    (["nbhd", "path10", "tilted10", "--eps", "1.5"],
     "$: projection is not a diagonal 0/1 projection; "
     "the classical backend only accepts subsets"),
    (["diam", "path10", "tilted10"],
     "$: projection is not a diagonal 0/1 projection; "
     "the classical backend only accepts subsets"),
], ids=["dist-empty-subset", "dist-zero-projection", "graph-nbhd-empty-subset",
        "classical-cover-on-kraus", "quantum-cover-on-space", "certify-classical-cover",
        "saturate-two-colors", "no-metric", "non-diagonal-projection-nbhd",
        "non-diagonal-projection-diam"])
def test_whole_input_fault_names_its_path(tmp_path, capsys, argv, message):
    files = {name: write(tmp_path, f"{name}.json", o)
             for name, o in whole_input_cases().items()}
    code, payload, err = run_cli(capsys, *[files.get(a, a) for a in argv])
    assert code == 2 and payload is None
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("metric, member", [("kraus2", "e0"), ("path10", "five")])
def test_one_radius_rule_for_both_metrics(tmp_path, capsys, metric, member):
    # an infinite radius reaches every point at finite distance; a NaN one is
    # a usage error on either metric
    files = {name: write(tmp_path, f"{name}.json", o)
             for name, o in whole_input_cases().items()}
    code, payload, _ = run_cli(capsys, "nbhd", files[metric], files[member],
                               "--eps", "inf")
    nb = payload["results"]["neighborhood"]
    assert code == 0
    assert (nb == list(range(10)) if metric == "path10"
            else nb["range_basis"]["cols"] == 2)
    code, payload, err = run_cli(capsys, "nbhd", files[metric], files[member],
                                 "--eps", "nan")
    assert code == 2 and payload is None
    assert err == "error: radius must be positive\n"


def test_empty_subset_where_the_classical_metric_defines_it(tmp_path, capsys):
    space = write(tmp_path, "s.json", path_space_json(4))
    empty = write(tmp_path, "e.json", [])
    code, payload, _ = run_cli(capsys, "nbhd", space, empty, "--eps", "1.5")
    assert code == 0 and payload["results"]["neighborhood"] == []
    code, payload, _ = run_cli(capsys, "diam", space, empty)
    assert code == 0 and payload["results"]["diam"]["value"] == 0.0


class TestCovers:
    def test_cover_and_validate_roundtrip(self, tmp_path, capsys):
        space = write(tmp_path, "s.json", path_space_json(10))
        code, payload, _ = run_cli(capsys, "cover", space, "--r", "2")
        assert code == 0
        assert payload["results"]["colors"] <= 2
        cover = write(tmp_path, "c.json", payload["results"]["cover"])
        code, payload, _ = run_cli(capsys, "validate-cover", space, cover)
        assert code == 0
        assert payload["results"]["all_ok"]

    def test_infinite_radius_cover_reads_back(self, tmp_path, capsys):
        space = write(tmp_path, "s.json", path_space_json(10))
        code, payload, _ = run_cli(capsys, "cover", space, "--r", "inf")
        assert code == 0 and payload["results"]["cover"]["r"] == "inf"
        cover = write(tmp_path, "c.json", payload["results"]["cover"])
        code, payload, _ = run_cli(capsys, "validate-cover", space, cover)
        assert code == 0
        assert payload["results"]["all_ok"]

    def test_validate_cover_failure_exit_code(self, tmp_path, capsys):
        space = write(tmp_path, "s.json", path_space_json(4))
        fam = CoverFamily("classical", [[(0,)]], r=0.4, R=0.0)
        cover = write(tmp_path, "c.json", jsonio.cover_to_json(fam))
        code, payload, _ = run_cli(capsys, "validate-cover", space, cover)
        assert code == 1
        assert not payload["results"]["all_ok"]

    def test_saturate_command(self, tmp_path, capsys):
        space = write(tmp_path, "s.json", path_space_json(12))
        p_fam = CoverFamily("classical", [[(0,), (3,)]], r=0.4, R=1.0)
        q_fam = CoverFamily("classical", [[(8, 9)]], r=0.4, R=1.0)
        covp = write(tmp_path, "p.json", jsonio.cover_to_json(p_fam))
        covq = write(tmp_path, "q.json", jsonio.cover_to_json(q_fam))
        code, payload, _ = run_cli(capsys, "saturate", space, covp, covq,
                                   "--r", "0.4")
        assert code == 0
        assert payload["results"]["success"]

    def test_saturate_hypothesis_failure(self, tmp_path, capsys):
        space = write(tmp_path, "s.json", path_space_json(12))
        p_fam = CoverFamily("classical", [[(0, 1), (1, 2)]], r=0.4, R=2.0)
        q_fam = CoverFamily("classical", [[(8, 9)]], r=0.4, R=1.0)
        covp = write(tmp_path, "p.json", jsonio.cover_to_json(p_fam))
        covq = write(tmp_path, "q.json", jsonio.cover_to_json(q_fam))
        code, payload, _ = run_cli(capsys, "saturate", space, covp, covq,
                                   "--r", "1.0")
        assert code == 1
        assert "P family" in payload["results"]["clause"]

    def test_saturate_refuses_a_spec(self, tmp_path, capsys):
        # the saturated-union bound is argued for classical metrics only
        spec = write(tmp_path, "s.json",
                     jsonio.expander_to_json(random_expander(8, 4, seed=7)))
        covp, covq = (write(tmp_path, f"{name}.json",
                            {"backend": "quantum", "r": 0.5, "R": 1.0,
                             "colors": [[[i]]]})
                      for name, i in (("p", 0), ("q", 5)))
        code, payload, err = run_cli(capsys, "saturate", spec, covp, covq,
                                     "--r", "0.5")
        assert code == 2 and payload is None
        assert err.startswith("error: the saturated-union bound needs a "
                              "classical metric")
        assert "not yet argued for quantum diameters" in err


class TestModuliCommand:
    def test_moduli_with_bruteforce(self, tmp_path, capsys):
        x = path_space_json(4)
        y = path_space_json(3)
        mpath = write(tmp_path, "m.json",
                      {"from": x, "to": y, "map": [0, 1, 2, 2]})
        code, payload, _ = run_cli(capsys, "moduli", mpath, "--bruteforce")
        assert code == 0
        assert payload["results"]["bruteforce"]["agrees_exactly"]

    def test_identity_flags(self, tmp_path, capsys):
        x = path_space_json(3)
        mpath = write(tmp_path, "m.json", {"from": x, "to": x, "map": [0, 1, 2]})
        code, payload, _ = run_cli(capsys, "moduli", mpath)
        assert code == 0
        assert payload["results"]["flags"]["coarse_at_truncation"]


class TestDeterminism:
    def test_identical_payloads_modulo_timings(self, tmp_path, capsys):
        space = write(tmp_path, "s.json", path_space_json(8))
        runs = []
        for _ in range(2):
            code, payload, _ = run_cli(capsys, "cover", space, "--r", "1.5")
            assert code == 0
            del payload["timings"]
            runs.append(json.dumps(payload, sort_keys=True))
        assert runs[0] == runs[1]

    @staticmethod
    def rank_one_cover_of_expander(tmp_path, capsys):
        code, payload, _ = run_cli(capsys, "gen-expander", "--n", "8", "--d", "4",
                                   "--seed", "13")
        spec_obj = payload["results"]
        spec = write(tmp_path, "spec.json", spec_obj)
        u = haar_unitary(8, np.random.default_rng(2))
        members = [Projection(8, u[:, i:i + 1]) for i in range(8)]
        fam = CoverFamily("quantum", [members], r=1.0, R=5.0)
        return spec, write(tmp_path, "c.json", jsonio.cover_to_json(fam))

    def test_certify_cli(self, tmp_path, capsys):
        spec, cover = self.rank_one_cover_of_expander(tmp_path, capsys)
        code, payload, _ = run_cli(capsys, "certify", spec, cover,
                                   "--delta", "1.5", "--m", "2")
        assert code == 1
        assert payload["results"]["refuted"]
        assert not payload["results"]["contradiction"]

    def test_certify_contradiction_exit_3(self, tmp_path, capsys, monkeypatch):
        # a cover that passes every check under the parameter condition
        # contradicts the counting theorem: a tolerance fault, report kept
        spec, cover = self.rank_one_cover_of_expander(tmp_path, capsys)
        real = cli.certify_counting

        def passing(*args, **kwargs):
            return dataclasses.replace(
                real(*args, **kwargs), failures=[], excluded_members=[],
                parameter_condition=True, contradiction=True)

        monkeypatch.setattr(cli, "certify_counting", passing)
        code, payload, err = run_cli(capsys, "certify", spec, cover,
                                     "--delta", "1.5", "--m", "2")
        assert code == 3 and err.startswith("error: ")
        results = payload["results"]
        assert results["contradiction"] and not results["refuted"]

    def test_certify_broken_chain_exit_3(self, tmp_path, capsys, monkeypatch):
        # a growth constant no chain meets stands in for a tolerance fault
        spec, cover = self.rank_one_cover_of_expander(tmp_path, capsys)
        monkeypatch.setattr(asdim, "growth_constant", lambda eps: 100.0)
        code, payload, err = run_cli(capsys, "certify", spec, cover,
                                     "--delta", "1.5", "--m", "2")
        assert code == 3 and payload is None
        assert err.startswith("error: color 0, member 0: rank chain [1, ")
