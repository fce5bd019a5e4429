import numpy as np
import pytest

from qcoarse.matcore import Projection
from qcoarse.qmetric import (
    ClassicalQuantumMetric,
    FiniteMetricSpace,
    GraphQuantumMetric,
    KrausSet,
    direct_sum,
    graph_metric,
    quotient_restrict,
)
from qcoarse import asdim, qmetric
from qcoarse.expander import (ExpanderSpec, growth_constant, haar_unitary,
                              iterated_isoperimetric, random_expander,
                              spectral_gap)
from qcoarse.asdim import (
    CoverFamily,
    HypothesisViolation,
    asdim_at_scale,
    certify_counting,
    direct_sum_cover,
    greedy_cover,
    saturated_union,
    union_cover,
    validate_cover,
)


def line_space(points):
    pts = np.asarray(sorted(points), dtype=float)
    d = np.abs(pts[:, None] - pts[None, :])
    return FiniteMetricSpace([str(p) for p in pts], d)


def path_space(n):
    return line_space(range(n))


class TestValidateCover:
    def test_singletons_valid_for_small_r(self):
        metric = ClassicalQuantumMetric(path_space(4))
        fam = CoverFamily("classical", [[(i,) for i in range(4)]], r=0.4, R=0.0)
        v = validate_cover(metric, fam)
        assert v.all_ok and v.bounded_mode == "exact"

    def test_whole_space_single_color(self):
        metric = ClassicalQuantumMetric(path_space(4))
        fam = CoverFamily("classical", [[(0, 1, 2, 3)]], r=1.0, R=3.0)
        assert validate_cover(metric, fam).all_ok

    def test_overlapping_balls_fail_with_witness(self):
        # members at distance 1 < 2r: their open r-neighborhoods share point 2
        metric = ClassicalQuantumMetric(path_space(4))
        fam = CoverFamily("classical", [[(0, 1), (2, 3)]], r=1.5, R=1.0)
        v = validate_cover(metric, fam)
        assert not v.r_disjoint_ok
        assert v.disjoint_witness == {"color": 0, "pair": (0, 1)}

    def test_covering_failure_witness(self):
        metric = ClassicalQuantumMetric(path_space(3))
        fam = CoverFamily("classical", [[(0,)]], r=0.4, R=0.0)
        v = validate_cover(metric, fam)
        assert not v.covering_ok and v.covering_witness == (1, 2)

    def test_bounded_failure(self):
        metric = ClassicalQuantumMetric(path_space(5))
        fam = CoverFamily("classical", [[(0, 4)]], r=0.4, R=1.0)
        v = validate_cover(metric, fam)
        assert not v.bounded_ok

    def test_quantum_cover_not_refuted(self):
        spec = random_expander(4, 4, seed=2)
        metric = graph_metric(spec.kraus())
        u = haar_unitary(4, np.random.default_rng(0))
        fam = CoverFamily(
            "quantum",
            [[Projection(4, u[:, :2])], [Projection(4, u[:, 2:])]],
            r=0.5, R=4.0)
        v = validate_cover(metric, fam)
        assert v.covering_ok and v.r_disjoint_ok
        assert v.bounded_mode == "not_refuted"

    def test_quantum_bounded_refuted(self):
        # identity-like channel: orthogonal vectors sit at infinite distance
        spec = ExpanderSpec(n=4, d=2, unitaries=[np.eye(4, dtype=complex)] * 2,
                            epsilon=0.0)
        metric = graph_metric(spec.kraus())
        fam = CoverFamily("quantum", [[Projection.identity(4)]], r=0.5, R=10.0)
        v = validate_cover(metric, fam)
        assert not v.bounded_ok and v.bounded_mode == "refuted"

    def test_backend_mismatch(self):
        metric = ClassicalQuantumMetric(path_space(3))
        fam = CoverFamily("quantum", [[Projection.identity(3)]], r=1.0, R=1.0)
        with pytest.raises(ValueError):
            validate_cover(metric, fam)

    def test_non_metric_rejected(self):
        fam = CoverFamily("classical", [[(0,)]], r=1.0, R=1.0)
        with pytest.raises(ValueError):
            validate_cover(object(), fam)

    def test_empty_member_rejected(self):
        with pytest.raises(ValueError):
            CoverFamily("classical", [[()]], r=1.0, R=1.0)


class TestGreedyCover:
    def test_single_point(self):
        out = greedy_cover(path_space(1), r=5.0)
        assert out.success and out.colors_used == 1 and out.achieved_R == 0.0

    def test_path_ten_r2(self):
        out = greedy_cover(path_space(10), r=2.0)
        assert out.success
        assert out.colors_used <= 2
        assert out.achieved_R <= 8.0
        assert out.validation.all_ok

    def test_grid_linf(self):
        xs = [(i, j) for i in range(5) for j in range(5)]
        d = np.array([[max(abs(a - c), abs(b - e)) for (c, e) in xs]
                      for (a, b) in xs], dtype=float)
        space = FiniteMetricSpace([str(p) for p in xs], d)
        out = greedy_cover(space, r=2.0)
        assert out.success and out.colors_used <= 3
        assert out.validation.all_ok

    def test_exhaustion_failure_value(self):
        out = greedy_cover(path_space(10), r=2.0, max_colors=1)
        assert not out.success
        assert out.family is None
        assert "exhausted" in out.failure


class TestAsdimAtScale:
    def test_singletons_scale(self):
        assert asdim_at_scale(path_space(4), r=0.4).value == 0

    def test_two_points_merge(self):
        space = line_space([0.0, 1.0])
        rep = asdim_at_scale(space, r=0.8)
        assert rep.value == 0 and rep.exact

    def test_path_ten_exhaustive_confirms_greedy(self):
        rep = asdim_at_scale(path_space(10), r=2.0)
        assert rep.exact
        assert rep.value == 1
        assert rep.greedy_colors == rep.exhaustive_colors == 2

    def test_r_validation(self):
        with pytest.raises(ValueError):
            asdim_at_scale(path_space(3), r=0.0)

    def test_exhaustive_matches_partition_oracle(self):
        rng = np.random.default_rng(2024)
        for trial in range(50):
            n = int(rng.integers(3, 7))
            if trial % 2:  # plane points, generic distances
                pts = rng.uniform(0.0, 4.0, size=(n, 2))
                d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
                r, R = float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.0, 3.0))
            else:  # grid points: integer distances that meet r and R exactly
                pts = np.divmod(rng.choice(16, size=n, replace=False), 4)
                d = sum(np.abs(p[:, None] - p[None]) for p in pts).astype(float)
                r, R = float(rng.integers(1, 4)), float(rng.integers(0, 4))
            cut = int(rng.integers(0, n + 1))  # two pieces at infinite distance
            d[:cut, cut:] = d[cut:, :cut] = np.inf
            space = FiniteMetricSpace([str(i) for i in range(n)], d)
            assert asdim_at_scale(space, r, R).exhaustive_colors == \
                fewest_valid_colors(space, r, R)


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def fewest_valid_colors(space, r, R):
    """Oracle: every set partition, every grouping of its blocks into colors,
    and the fewest colors that validate_cover accepts."""
    metric = ClassicalQuantumMetric(space)
    best = space.n + 1
    for blocks in set_partitions(list(range(space.n))):
        for classes in set_partitions(blocks):
            if len(classes) >= best:
                continue
            fam = CoverFamily("classical", [[tuple(b) for b in c] for c in classes],
                              r=r, R=R)
            if validate_cover(metric, fam).all_ok:
                best = len(classes)
    return best


def make_line_instance(rng):
    """Random 1-D instance satisfying the saturated-union hypotheses."""
    r = float(rng.uniform(0.5, 1.5))
    R = float(rng.uniform(2.0, 3.0)) * r
    D = float(rng.uniform(0.5, 2.0)) * R
    # Q clusters must be 7R-disjoint: space them > 15R apart
    q_members, p_members, pts = [], [], []

    def add_cluster(start, width, count):
        xs = sorted(float(start + u) for u in rng.uniform(0, width, size=count))
        idx = []
        for x in xs:
            pts.append(x)
            idx.append(len(pts) - 1)
        return tuple(idx)

    cursor = 0.0
    for _ in range(int(rng.integers(1, 4))):
        q_members.append(add_cluster(cursor, D, int(rng.integers(1, 4))))
        cursor += D + 16.0 * R
    # P clusters: R-bounded, pairwise gaps > 2r; scatter along the line
    p_cursor = 0.5
    for _ in range(int(rng.integers(1, 5))):
        p_members.append(add_cluster(p_cursor, R * 0.9, int(rng.integers(1, 4))))
        p_cursor += R + 2.2 * r + float(rng.uniform(0, 5))
    space = line_space(pts)
    order = np.argsort(pts)
    remap = {int(old): new for new, old in enumerate(order)}
    q_members = [tuple(sorted(remap[i] for i in m)) for m in q_members]
    p_members = [tuple(sorted(remap[i] for i in m)) for m in p_members]
    return space, p_members, q_members, r, R, D


class TestSaturatedUnion:
    def test_empty_q_returns_p(self):
        metric = ClassicalQuantumMetric(path_space(4))
        out = saturated_union(metric, [(0, 1)], [], r=0.4, R=1.5, D=1.0)
        assert out.members == [(0, 1)]

    def test_empty_p_returns_q(self):
        metric = ClassicalQuantumMetric(path_space(4))
        out = saturated_union(metric, [], [(2, 3)], r=0.4, R=1.5, D=1.0)
        assert out.members == [(2, 3)]

    def test_hypothesis_violation_reported(self):
        metric = ClassicalQuantumMetric(path_space(4))
        with pytest.raises(HypothesisViolation, match="P family"):
            saturated_union(metric, [(0, 1), (1, 2)], [], r=1.0, R=2.0, D=1.0)
        with pytest.raises(HypothesisViolation, match="R > r"):
            saturated_union(metric, [], [], r=1.0, R=0.5, D=1.0)

    def test_randomized_instances_validate(self):
        ok = 0
        for seed in range(60):
            rng = np.random.default_rng([77, seed])
            space, p_members, q_members, r, R, D = make_line_instance(rng)
            metric = ClassicalQuantumMetric(space)
            out = saturated_union(metric, p_members, q_members, r, R, D)
            fam = CoverFamily("classical", [out.members], r=r, R=out.bound)
            v = validate_cover(metric, fam)
            assert v.r_disjoint_ok and v.bounded_ok
            ok += 1
        assert ok == 60


class TestDirectSumCover:
    def test_two_single_points(self):
        m1 = ClassicalQuantumMetric(path_space(1))
        m2 = ClassicalQuantumMetric(path_space(1))
        ds = direct_sum(m1, m2)
        c1 = CoverFamily("classical", [[(0,)]], r=1.0, R=0.0)
        c2 = CoverFamily("classical", [[(0,)]], r=1.0, R=0.0)
        out = direct_sum_cover(c1, c2, ds)
        assert out.n_colors == 1
        assert out.colors[0] == [(0,), (1,)]
        assert validate_cover(ds.metric, out).all_ok

    def test_valid_in_valid_out(self):
        for seed in range(10):
            rng = np.random.default_rng([31, seed])
            s1 = line_space(np.cumsum(rng.uniform(0.5, 2.0, size=4)))
            s2 = line_space(np.cumsum(rng.uniform(0.5, 2.0, size=3)))
            r = float(rng.uniform(0.3, 1.2))
            g1 = greedy_cover(s1, r)
            g2 = greedy_cover(s2, r)
            assert g1.success and g2.success
            ds = direct_sum(ClassicalQuantumMetric(s1), ClassicalQuantumMetric(s2))
            out = direct_sum_cover(g1.family, g2.family, ds)
            assert validate_cover(ds.metric, out).all_ok
            assert out.n_colors == max(g1.family.n_colors, g2.family.n_colors)

    def test_r_mismatch_rejected(self):
        c1 = CoverFamily("classical", [[(0,)]], r=1.0, R=0.0)
        c2 = CoverFamily("classical", [[(0,)]], r=2.0, R=0.0)
        with pytest.raises(ValueError):
            direct_sum_cover(c1, c2, None)

    def test_quantum_direct_sum_cover(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        ops = [np.eye(2, dtype=complex) / np.sqrt(2), x / np.sqrt(2)]
        g1, g2 = graph_metric(KrausSet(ops)), graph_metric(KrausSet(ops))
        ds = direct_sum(g1, g2)
        basis = [Projection.onto_subset(2, [0]), Projection.onto_subset(2, [1])]
        c1 = CoverFamily("quantum", [basis], r=0.5, R=0.0)
        c2 = CoverFamily("quantum", [basis], r=0.5, R=0.0)
        out = direct_sum_cover(c1, c2, ds)
        assert out.n_colors == 1 and len(out.colors[0]) == 4
        v = validate_cover(ds.metric, out)
        assert v.covering_ok and v.r_disjoint_ok and v.bounded_ok


class TestUnionCover:
    def test_overlapping_intervals_cover_path(self):
        space = path_space(12)
        metric = ClassicalQuantumMetric(space)
        r, R = 0.4, 1.0
        # left half in singletons (r-disjoint, 0-bounded <= R), right half
        # in widely separated pairs (7R = 7 apart is satisfied by one member)
        cov1 = CoverFamily("classical", [[(i,) for i in range(0, 8)]], r=r, R=R)
        cov2 = CoverFamily("classical", [[(8, 9, 10, 11)]], r=r, R=3.0)
        out = union_cover(metric, cov1, cov2, r=r, R=R)
        assert validate_cover(metric, out).all_ok

    def test_support_failure(self):
        metric = ClassicalQuantumMetric(path_space(4))
        cov1 = CoverFamily("classical", [[(0,)]], r=0.4, R=1.0)
        cov2 = CoverFamily("classical", [[(1,)]], r=0.4, R=1.0)
        with pytest.raises(HypothesisViolation, match="support") as info:
            union_cover(metric, cov1, cov2, r=0.4, R=1.0)
        assert info.value.witness == (2, 3)

    def test_one_sided_colors_pass_through_saturated_union(self):
        # color 0 merges Q = (1, 2) with the P member (0, 1) it touches;
        # color 1 has P members only and color 2 a Q member only
        metric = ClassicalQuantumMetric(path_space(12))
        cov1 = CoverFamily("classical", [[(0, 1), (3, 4), (7,)], [(5, 6), (8,)]],
                           r=0.4, R=1.0)
        cov2 = CoverFamily("classical", [[(1, 2)], [], [(9, 10, 11)]],
                           r=0.4, R=2.0)
        out = union_cover(metric, cov1, cov2, r=0.4, R=1.0)
        assert out.colors == [[(0, 1, 2), (3, 4), (7,)], [(5, 6), (8,)],
                              [(9, 10, 11)]]
        assert (out.r, out.R) == (0.4, 2.0 + 2 * (1.0 + 2.0 + 4 * 0.4))
        assert validate_cover(metric, out).all_ok

    def test_one_sided_color_keeps_its_hypotheses(self):
        # a P-only color whose members' 0.4-neighborhoods touch
        metric = ClassicalQuantumMetric(path_space(4))
        cov1 = CoverFamily("classical", [[(0, 1)], [(1, 2), (2, 3)]],
                           r=0.4, R=1.0)
        cov2 = CoverFamily("classical", [[(3,)]], r=0.4, R=0.0)
        with pytest.raises(HypothesisViolation, match="P family is not"):
            union_cover(metric, cov1, cov2, r=0.4, R=1.0)

    def test_quantum_metric_refused_with_the_reason(self):
        metric = graph_metric(random_expander(4, 3, seed=2).kraus())
        cov = CoverFamily("quantum", [[Projection.identity(4)]], r=0.4, R=1.0)
        with pytest.raises(NotImplementedError,
                           match="not yet argued for quantum diameters"):
            union_cover(metric, cov, cov, r=0.4, R=1.0)


@pytest.fixture(scope="module")
def expander32():
    spec = random_expander(32, 4, seed=11)
    return spec, graph_metric(spec.kraus())


class TestCountingCertificate:

    def test_no_obstruction_for_large_colors(self, expander32):
        spec, metric = expander32
        u = haar_unitary(32, np.random.default_rng(5))
        colors = [[Projection(32, u[:, i * 8:(i + 1) * 8])] for i in range(4)]
        fam = CoverFamily("quantum", colors, r=1.0, R=float(metric.m_stab))
        eps_prime = growth_constant(spectral_gap(spec.kraus()).epsilon)
        # pick m below the obstruction threshold
        m = 1
        while (1 + eps_prime) ** (m + 1) - 1 <= len(colors) - 1:
            m += 1
        cert = certify_counting(spec, fam, delta=1.5, m=m, metric=metric)
        if not cert.parameter_condition:
            assert not cert.contradiction

    def test_single_color_rank_one_cover_refuted(self, expander32):
        spec, metric = expander32
        u = haar_unitary(32, np.random.default_rng(6))
        members = [Projection(32, u[:, i:i + 1]) for i in range(32)]
        fam = CoverFamily("quantum", [members], r=1.0, R=float(metric.m_stab))
        cert = certify_counting(spec, fam, delta=1.5, m=2, metric=metric)
        assert cert.refuted
        kinds = {f["kind"] for f in cert.failures}
        assert "disjointness" in kinds
        assert not cert.contradiction

    def test_metric_of_another_dimension_rejected(self):
        # a metric on C^16 for a spec on C^8 used to refute a valid cover
        # with neighborhood rank sums of 16 against an ambient rank of 8
        spec = random_expander(8, 4, seed=1)
        metric = graph_metric(random_expander(16, 4, seed=1).kraus())
        u = haar_unitary(16, np.random.default_rng(0))
        fam = CoverFamily("quantum", [[Projection(16, u[:, :8])],
                                      [Projection(16, u[:, 8:])]], r=1.0, R=1.0)
        with pytest.raises(ValueError, match=r"C\^16 .* C\^8"):
            certify_counting(spec, fam, delta=1.5, m=1, metric=metric)

    def test_gap_zero_rejected(self):
        spec = ExpanderSpec(n=4, d=2, unitaries=[np.eye(4, dtype=complex)] * 2,
                            epsilon=0.0)
        fam = CoverFamily("quantum", [[Projection.identity(4)]], r=1.0, R=1.0)
        with pytest.raises(ValueError, match="gap"):
            certify_counting(spec, fam, delta=1.5, m=1)

    def test_non_unital_metric_refused(self):
        # amplitude damping is trace preserving but not unital, so the growth
        # constant's proof does not cover it
        spec = random_expander(2, 2, seed=0)
        g = 0.3
        metric = graph_metric(KrausSet([np.diag([1.0, np.sqrt(1 - g)]),
                                        np.array([[0.0, np.sqrt(g)], [0.0, 0.0]])]))
        fam = CoverFamily("quantum", [[Projection.identity(2)]], r=1.0, R=1.0)
        with pytest.raises(ValueError, match="unital"):
            certify_counting(spec, fam, delta=1.5, m=1, metric=metric)

    def test_broken_chain_is_a_tolerance_fault(self, monkeypatch):
        # no rank-one projection on C^8 grows 101-fold, so with this constant
        # every chain breaks at its first step
        spec = random_expander(8, 4, seed=13)
        u = haar_unitary(8, np.random.default_rng(2))
        fam = CoverFamily("quantum", [[Projection(8, u[:, i:i + 1])
                                       for i in range(8)]], r=1.0, R=5.0)
        monkeypatch.setattr(asdim, "growth_constant", lambda eps: 100.0)
        with pytest.raises(ArithmeticError,
                           match=r"color 0, member 0: rank chain \[1, 8\]"):
            certify_counting(spec, fam, delta=1.5, m=2)


def _capped_family(n, R, drop=0, seed=0):
    """Two colors: n/4 rank-one members and one of rank 3n/4 > n/2, whose
    rank chain stops at the cap at once; drop removes rank-one members."""
    u = haar_unitary(n, np.random.default_rng(seed))
    ones = [Projection(n, u[:, i:i + 1]) for i in range(n // 4 - drop)]
    big = Projection(n, u[:, n // 4:])
    half = len(ones) // 2
    return CoverFamily("quantum", [ones[:half] + [big], ones[half:]], r=1.5, R=R)


def _count_walk_steps(monkeypatch):
    calls = []
    image = qmetric.image_range_projection

    def counting(*args):
        calls.append(1)
        return image(*args)

    monkeypatch.setattr(qmetric, "image_range_projection", counting)
    return calls


class TestOneWalkPerMember:
    @pytest.mark.parametrize("m,steps", [(2, 17), (4, 25)])
    def test_certificate_walks_each_member_once(self, monkeypatch, m, steps):
        # one walk per member, the chain's: a chain stopped at the rank cap
        # walks on to the m*delta neighborhood the validator reads (a second
        # walk per member for the validator would take 25 and 29 steps)
        spec = random_expander(32, 3, seed=11)
        metric = graph_metric(spec.kraus())
        fam = _capped_family(32, R=5.0)
        calls = _count_walk_steps(monkeypatch)
        certify_counting(spec, fam, delta=1.5, m=m, metric=metric)
        certified = len(calls)
        calls.clear()
        for member in fam.members():
            iterated_isoperimetric(metric, member, delta=1.5, m=m)
        assert certified == len(calls) == steps

    @pytest.mark.parametrize("delta", [1.5, 2.5])
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_certificate_validates_as_validate_cover(self, m, delta):
        spec = random_expander(16, 4, seed=3)
        metric = graph_metric(spec.kraus())
        families = [_capped_family(16, R=5.0), _capped_family(16, R=0.5),
                    _capped_family(16, R=5.0, drop=1, seed=1)]
        kinds = set()
        for fam in families:
            want = validate_cover(metric, fam, r=m * delta).failures()
            cert = certify_counting(spec, fam, delta=delta, m=m, metric=metric)
            assert cert.excluded_members
            assert cert.failures[:len(want)] == want
            assert all(f["kind"] == "rank_cap" or "neighborhood_rank_sum" in f["witness"]
                       for f in cert.failures[len(want):])
            kinds |= {f["kind"] for f in want}
        assert kinds == {"covering", "disjointness", "boundedness"}


class TestNoSampledProbes:
    @pytest.fixture
    def metric(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a cover check computed a sampled probe")

        monkeypatch.setattr(GraphQuantumMetric, "diam_lower_bound_sampled", refuse)
        return graph_metric(random_expander(16, 4, seed=5).kraus())

    def members(self, ranks, seed=0):
        u = haar_unitary(16, np.random.default_rng(seed))
        starts = np.cumsum([0] + list(ranks))
        return [Projection(16, u[:, a:b]) for a, b in zip(starts, starts[1:])]

    def test_validate_cover_and_certificate(self, metric):
        spec = random_expander(16, 4, seed=5)
        for ranks in ((2, 6, 8), (8, 4, 4), (1, 1, 14)):
            members = self.members(ranks)
            fam = CoverFamily("quantum", [members[:1], members[1:]], r=1.5, R=0.0)
            for failures in (validate_cover(metric, fam).failures(),
                             certify_counting(spec, fam, 1.5, 1, metric=metric).failures):
                witness = next(f["witness"] for f in failures
                               if f["kind"] == "boundedness")
                member = fam.colors[witness["color"]][witness["member"]]
                assert (witness["diameter_lower_bound"]
                        == metric.diam_graph_proxy(member).value > 0)

    def test_saturated_union(self, metric):
        # the bound is argued for classical metrics only, so a graph metric is
        # refused before any member is looked at
        p, q = self.members((2, 3), seed=1)
        for p_members, q_members in (([p], [q]), ([p], []), ([], [])):
            with pytest.raises(NotImplementedError,
                               match="not yet argued for quantum diameters"):
                saturated_union(metric, p_members, q_members, r=0.5, R=3.0,
                                D=10.0)


class TestPermanenceShadows:
    def test_direct_sum_max_small(self):
        s1 = path_space(3)
        s2 = line_space([0.0, 2.5, 5.0, 7.5])
        m1, m2 = ClassicalQuantumMetric(s1), ClassicalQuantumMetric(s2)
        ds = direct_sum(m1, m2)
        for r in (0.6, 1.0, 1.6):
            a = asdim_at_scale(s1, r).value
            b = asdim_at_scale(s2, r).value
            c = asdim_at_scale(ds.metric.space, r).value
            assert c == max(a, b)

    def test_restriction_monotone(self):
        space = path_space(6)
        metric = ClassicalQuantumMetric(space)
        sub = quotient_restrict(metric, [0, 2, 3, 5])
        for r in (0.6, 1.2, 2.0):
            assert asdim_at_scale(sub.space, r).value <= \
                asdim_at_scale(space, r).value
