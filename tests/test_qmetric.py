import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qcoarse.matcore import Projection, ToleranceConfig, range_containment_residual
from qcoarse.expander import random_expander
from qcoarse.qmetric import (
    ClassicalQuantumMetric,
    ExtendedDistance,
    FiniteMetricSpace,
    KrausSet,
    direct_sum,
    dist_via_materialized,
    graph_metric,
    m_star_for_radius,
    neighborhood_via_materialized,
    projection_to_subset,
    quotient_restrict,
)

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def pauli_x_channel():
    return KrausSet([I2 / np.sqrt(2), PAULI_X / np.sqrt(2)])


def path_space(n):
    idx = np.arange(n)
    return FiniteMetricSpace([str(i) for i in range(n)],
                             np.abs(idx[:, None] - idx[None, :]).astype(float))


def e_proj(n, i):
    return Projection.onto_subset(n, [i])


class TestExtendedDistance:
    def test_ordering_and_infinity(self):
        assert ExtendedDistance.of(1) < ExtendedDistance.of(2) < ExtendedDistance.infinite()
        assert not ExtendedDistance.infinite().finite

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ExtendedDistance.of(-1.0)
        with pytest.raises(ValueError):
            ExtendedDistance(-math.inf)


class TestMStar:
    @pytest.mark.parametrize("eps,expected", [
        (0.5, 0), (1.0, 0), (1.5, 1), (2.0, 1), (2.0001, 2), (3.0, 2),
    ])
    def test_table(self, eps, expected):
        assert m_star_for_radius(eps) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            m_star_for_radius(0.0)


class TestKrausSet:
    def test_flags(self):
        k = pauli_x_channel()
        assert k.trace_preserving and k.unital

    def test_non_tp_rejected_by_metric(self):
        k = KrausSet([I2 * 0.5])
        assert not k.trace_preserving
        with pytest.raises(ValueError, match="trace preserving"):
            graph_metric(k)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            KrausSet([])


class TestGraphMetric:
    def test_identity_channel(self):
        m = graph_metric(KrausSet([I2]))
        assert m.v1.dim == 1
        assert m.m_stab == 0

    def test_pauli_x_channel_v1(self):
        m = graph_metric(pauli_x_channel())
        assert m.v1.dim == 2
        assert m.v1.contains(PAULI_X)

    def test_haar_dim_growth(self, rng):
        from qcoarse.expander import haar_unitary
        n, d = 8, 4
        ops = [haar_unitary(n, rng) / np.sqrt(d) for _ in range(d)]
        m = graph_metric(KrausSet(ops))
        dims = [m.power(k).dim for k in range(m.m_stab + 1)]
        assert dims[0] == 1
        assert dims == sorted(dims) and dims[-1] == n * n
        assert all(a < b for a, b in zip(dims, dims[1:]))

    def test_dist_examples(self):
        m = graph_metric(pauli_x_channel())
        p0, p1 = e_proj(2, 0), e_proj(2, 1)
        assert m.dist(p0, p0).value == 0
        assert m.dist(p0, p1).value == 1
        stuck = graph_metric(KrausSet([I2]))
        assert not stuck.dist(p0, p1).finite

    def test_dist_zero_projection_rejected(self):
        m = graph_metric(pauli_x_channel())
        with pytest.raises(ValueError):
            m.dist(Projection.zero(2), e_proj(2, 0))

    def test_neighborhood_examples(self):
        m = graph_metric(pauli_x_channel())
        p0 = e_proj(2, 0)
        for eps in (0.25, 1.0):
            nb = m.neighborhood(p0, eps)
            assert nb.rank == 1
            assert range_containment_residual(nb, p0) <= 1e-9
        assert m.neighborhood(p0, 1.5).rank == 2
        with pytest.raises(ValueError):
            m.neighborhood(p0, 0.0)

    def test_diam_proxy_rank_one(self):
        m = graph_metric(pauli_x_channel())
        assert m.diam_graph_proxy(e_proj(2, 0)).value == 0

    def test_diam_proxy_disconnected(self):
        # powers of span{I, X} stall at dimension 2 < 4, so no power links
        # the full algebra through the identity: proxy is +inf
        m = graph_metric(pauli_x_channel())
        assert not m.diam_graph_proxy(Projection.identity(2)).finite
        stuck = graph_metric(KrausSet([I2]))
        assert not stuck.diam_graph_proxy(Projection.identity(2)).finite

    def test_diam_proxy_connected_identity(self, rng):
        # d = 2 would generate only the commutative algebra of the single
        # word U1*U2, so use three unitaries for a connected instance
        from qcoarse.expander import haar_unitary
        n, d = 4, 3
        ops = [haar_unitary(n, rng) / np.sqrt(d) for _ in range(d)]
        m = graph_metric(KrausSet(ops))
        k0 = m.diam_graph_proxy(Projection.identity(n))
        assert k0.finite
        assert m.power(int(k0.value)).dim == n * n

    def test_diam_sampled_rank_one_is_zero(self):
        m = graph_metric(pauli_x_channel())
        assert m.diam_lower_bound_sampled(e_proj(2, 0), trials=8, seed=3).value == 0

    def test_diam_sampled_pauli(self):
        m = graph_metric(pauli_x_channel())
        got = m.diam_lower_bound_sampled(Projection.identity(2), trials=12, seed=5)
        assert got.value == 1

    def test_diam_sampled_identity_channel_finds_infinity(self):
        m = graph_metric(KrausSet([I2]))
        got = m.diam_lower_bound_sampled(Projection.identity(2), trials=4, seed=0)
        assert not got.finite

    def test_diam_sampled_deterministic(self, rng):
        from qcoarse.expander import haar_unitary
        ops = [haar_unitary(4, rng) / np.sqrt(2) for _ in range(2)]
        m = graph_metric(KrausSet(ops))
        p = Projection.identity(4)
        a = m.diam_lower_bound_sampled(p, trials=6, seed=11)
        b = m.diam_lower_bound_sampled(p, trials=6, seed=11)
        assert a == b


class TestFiniteMetricSpace:
    def test_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            FiniteMetricSpace(["a", "b"], [[0, 1], [2, 0]])
        with pytest.raises(ValueError, match="triangle"):
            FiniteMetricSpace(["a", "b", "c"],
                              [[0, 1, 5], [1, 0, 1], [5, 1, 0]])
        with pytest.raises(ValueError, match="positive"):
            FiniteMetricSpace(["a", "b"], [[0, 0], [0, 0]])
        with pytest.raises(ValueError, match="zero"):
            FiniteMetricSpace(["a"], [[1.0]])

    def test_infinite_entries_allowed(self):
        s = FiniteMetricSpace(["a", "b"], [[0, np.inf], [np.inf, 0]])
        assert s.realized_distances() == [0.0]

    def test_from_adjacency_path(self):
        a = np.zeros((3, 3), int)
        a[0, 1] = a[1, 0] = a[1, 2] = a[2, 1] = 1
        s = FiniteMetricSpace.from_adjacency(["0", "1", "2"], a)
        assert s.d[0, 2] == 2

    def test_from_adjacency_disconnected(self):
        s = FiniteMetricSpace.from_adjacency(["0", "1"], np.zeros((2, 2), int))
        assert not math.isfinite(s.d[0, 1])


class TestClassicalMetric:
    def setup_method(self):
        self.metric = ClassicalQuantumMetric(path_space(3))

    def test_dist_is_min_pair(self):
        assert self.metric.dist([0], [2]).value == 2
        assert self.metric.dist([0, 1], [1, 2]).value == 0
        with pytest.raises(ValueError):
            self.metric.dist([], [0])

    def test_neighborhood(self):
        assert self.metric.neighborhood([0], 1.5) == (0, 1)
        assert self.metric.neighborhood([0], 0.5) == (0,)
        with pytest.raises(ValueError):
            self.metric.neighborhood([0], 0.0)

    def test_diam(self):
        assert self.metric.diam([1]) == 0.0
        assert self.metric.diam([0, 2]) == 2.0
        assert self.metric.diam([0, 1, 2]) == 2.0
        assert self.metric.diam([]) == 0.0

    def test_projection_roundtrip(self):
        p = self.metric.subset_projection([0, 2])
        assert projection_to_subset(p) == (0, 2)
        with pytest.raises(ValueError, match="diagonal"):
            q = Projection(3, np.array([[1.0], [1.0], [0.0]]) / np.sqrt(2))
            projection_to_subset(q)

    def test_materialized_dist_agrees(self):
        for s in [(0,), (1,), (0, 1), (0, 2), (0, 1, 2)]:
            for t in [(0,), (2,), (1, 2), (0, 1, 2)]:
                assert dist_via_materialized(self.metric, s, t).value == \
                    self.metric.dist(s, t).value

    def test_materialized_neighborhood_agrees(self):
        for s in [(0,), (2,), (0, 1)]:
            for eps in (0.5, 1.0, 1.5, 2.0, 2.5):
                assert neighborhood_via_materialized(self.metric, s, eps) == \
                    self.metric.neighborhood(s, eps)


@pytest.fixture(scope="module", params=["classical", "quantum"])
def protocol_case(request):
    """(backend, metric, point indices -> member): path5 and expander n = 8."""
    if request.param == "classical":
        return "classical", ClassicalQuantumMetric(path_space(5)), tuple
    metric = graph_metric(random_expander(8, 4, seed=7).kraus())
    return "quantum", metric, lambda idx: Projection.onto_subset(8, idx)


def test_cover_protocol(protocol_case):
    backend, metric, member = protocol_case
    assert metric.backend == backend
    a, b = member([0, 1]), member([3, 4])
    rest = member([2] + list(range(5, metric.n)))

    assert metric.overlaps(a, a)
    assert metric.overlaps(a, member([1, 2]))
    assert not metric.overlaps(a, b)

    joined = metric.join([a, b])
    ok, witness = metric.covering([a, b])
    assert not ok
    if backend == "classical":
        assert joined == (0, 1, 3, 4)
        assert witness == (2,)
        assert metric.covering([a, b, rest]) == (True, ())
    else:
        assert joined.rank == 4
        assert range_containment_residual(a, joined) < 1e-9
        assert witness == 4
        assert metric.covering([a, b, rest]) == (True, None)

    exact_backend = backend == "classical"
    assert metric.diam_bracket(member([3])) == (0.0, exact_backend)
    lower, exact = metric.diam_bracket(a)
    assert exact is exact_backend
    assert lower >= metric.dist(member([0]), member([1])).value >= 1.0
    if exact:
        assert lower == 1.0


def test_join_and_covering_follow_metric_tolerance():
    # e0 and a unit vector 1e-4 away from it: independent at the default
    # rank cutoff, one direction at rank_rtol = 1e12 (cutoff ~ 1e-3 sigma_1)
    coarse = ToleranceConfig(rank_rtol=1e12)
    spec = random_expander(4, 3, seed=5)
    e0 = e_proj(4, 0)
    v = np.array([1.0, 1e-4, 0.0, 0.0], dtype=complex)
    near = Projection(4, (v / np.linalg.norm(v)).reshape(-1, 1))

    metric = graph_metric(replace(spec, tol=coarse).kraus())
    assert metric.tol == coarse
    assert metric.join([e0, near]).rank == 1
    assert metric.covering([e0, near]) == (False, 1)

    default = graph_metric(spec.kraus())
    assert default.join([e0, near]).rank == 2
    assert default.covering([e0, near]) == (False, 2)


def test_graph_metric_takes_the_kraus_tolerance():
    loose = ToleranceConfig(zero_atol=1e-3)
    ops = [k * (1 + 4e-7) for k in pauli_x_channel().ops]  # TP residual ~1e-6
    with pytest.raises(ValueError, match="not trace preserving"):
        graph_metric(KrausSet(ops))
    assert graph_metric(KrausSet(ops, loose)).tol == loose


class TestDirectSum:
    def test_classical(self):
        m1 = ClassicalQuantumMetric(path_space(2))
        m2 = ClassicalQuantumMetric(path_space(2))
        ds = direct_sum(m1, m2)
        assert ds.metric.n == 4
        assert not ds.metric.dist(ds.embed_left([0]), ds.embed_right([0])).finite
        assert ds.metric.dist(ds.embed_left([0]), ds.embed_left([1])).value == 1

    def test_classical_neighborhood_block_law(self):
        m1 = ClassicalQuantumMetric(path_space(3))
        m2 = ClassicalQuantumMetric(path_space(2))
        ds = direct_sum(m1, m2)
        got = ds.metric.neighborhood(ds.embed_left([0]), 1.5)
        want = ds.embed_left(m1.neighborhood([0], 1.5))
        assert got == tuple(want)

    def test_graph(self):
        g1 = graph_metric(pauli_x_channel())
        g2 = graph_metric(pauli_x_channel())
        ds = direct_sum(g1, g2)
        assert ds.metric.kraus.trace_preserving
        p = ds.embed_left(e_proj(2, 0))
        q = ds.embed_right(e_proj(2, 0))
        assert not ds.metric.dist(p, q).finite
        # (P (+) 0)_r = (P)_r (+) 0
        nb = ds.metric.neighborhood(p, 1.5)
        want = ds.embed_left(g1.neighborhood(e_proj(2, 0), 1.5))
        assert nb.rank == want.rank
        assert range_containment_residual(nb, want) <= 1e-9
        assert range_containment_residual(want, nb) <= 1e-9

    def test_backend_mismatch(self):
        with pytest.raises(ValueError):
            direct_sum(graph_metric(pauli_x_channel()),
                       ClassicalQuantumMetric(path_space(2)))

    def test_tolerance_mismatch(self):
        loose = ToleranceConfig(zero_atol=1e-6)
        with pytest.raises(ValueError, match="tolerance"):
            direct_sum(graph_metric(pauli_x_channel()),
                       graph_metric(KrausSet(pauli_x_channel().ops, loose)))
        with pytest.raises(ValueError, match="tolerance"):
            direct_sum(ClassicalQuantumMetric(path_space(2)),
                       ClassicalQuantumMetric(path_space(2), loose))

    def test_sum_inherits_tolerance(self):
        loose = ToleranceConfig(zero_atol=1e-6)
        g = graph_metric(KrausSet(pauli_x_channel().ops, loose))
        assert direct_sum(g, g).metric.tol == loose
        c = ClassicalQuantumMetric(path_space(2), loose)
        assert direct_sum(c, c).metric.tol == loose


class TestQuotientRestrict:
    def test_restrict_path(self):
        m = ClassicalQuantumMetric(path_space(3))
        r = quotient_restrict(m, [0, 2])
        assert r.n == 2
        assert r.dist([0], [1]).value == 2
        whole = quotient_restrict(m, [0, 1, 2])
        assert np.array_equal(whole.space.d, m.space.d)
        single = quotient_restrict(m, [1])
        assert single.n == 1
        with pytest.raises(ValueError):
            quotient_restrict(m, [])


@given(st.integers(0, 2_000))
def test_neighborhood_link_law_classical(seed):
    # (S)_r touches T exactly when dist(S, T) < r
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    pts = np.sort(rng.uniform(0, 10, size=n))
    pts[1:] += np.arange(1, n) * 0.05  # enforce distinctness
    d = np.abs(pts[:, None] - pts[None, :])
    metric = ClassicalQuantumMetric(FiniteMetricSpace([str(i) for i in range(n)], d))
    s = tuple(int(i) for i in rng.choice(n, size=rng.integers(1, n + 1), replace=False))
    t = tuple(int(i) for i in rng.choice(n, size=rng.integers(1, n + 1), replace=False))
    r = float(rng.uniform(0.01, 12.0))
    touches = bool(set(metric.neighborhood(s, r)) & set(t))
    assert touches == (metric.dist(s, t).value < r)


def test_diam_growth_law_classical_exhaustive():
    # diam((S)_r) <= diam(S) + 2r over all subsets of |X| <= 7 fixtures
    for n in (3, 5, 7):
        rng = np.random.default_rng([71, n])
        pts = np.cumsum(rng.uniform(0.3, 2.0, size=n))
        d = np.abs(pts[:, None] - pts[None, :])
        metric = ClassicalQuantumMetric(
            FiniteMetricSpace([str(i) for i in range(n)], d))
        radii = [0.4, 1.0, 2.3]
        for mask in range(1, 1 << n):
            s = tuple(i for i in range(n) if mask >> i & 1)
            base = metric.diam(s)
            for r in radii:
                grown = metric.neighborhood(s, r)
                assert metric.diam(grown) <= base + 2 * r + 1e-12


def test_subset_triangle_with_diameter_exhaustive():
    # dist(Q,R) <= dist(Q,P) + dist(R,P) + diam(P) over all subset triples
    for n in (3, 4, 5, 6):
        rng = np.random.default_rng([72, n])
        pts = np.cumsum(rng.uniform(0.3, 2.0, size=n))
        d = np.abs(pts[:, None] - pts[None, :])
        metric = ClassicalQuantumMetric(
            FiniteMetricSpace([str(i) for i in range(n)], d))
        subsets = [tuple(i for i in range(n) if mask >> i & 1)
                   for mask in range(1, 1 << n)]
        dist = {(a, b): metric.dist(a, b).value
                for a in subsets for b in subsets}
        diam = {a: metric.diam(a) for a in subsets}
        for q in subsets:
            for s in subsets:
                for p in subsets:
                    assert dist[q, s] <= dist[q, p] + dist[s, p] + diam[p] + 1e-12


@given(st.integers(0, 2_000))
def test_neighborhood_nesting_classical(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    pts = np.cumsum(rng.uniform(0.2, 3.0, size=n))
    d = np.abs(pts[:, None] - pts[None, :])
    metric = ClassicalQuantumMetric(FiniteMetricSpace([str(i) for i in range(n)], d))
    s = tuple(int(i) for i in rng.choice(n, size=rng.integers(1, n + 1), replace=False))
    eps, delta = float(rng.uniform(0.1, 4.0)), float(rng.uniform(0.1, 4.0))
    inner = metric.neighborhood(metric.neighborhood(s, eps), delta)
    outer = metric.neighborhood(s, eps + delta)
    assert set(inner) <= set(outer)
