import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qcoarse.matcore import (
    OperatorSubspace,
    Projection,
    ToleranceConfig,
    range_containment_residual,
)
from qcoarse import matcore, qmetric
from qcoarse.expander import haar_unitary, random_expander
from qcoarse.qmetric import (
    ClassicalQuantumMetric,
    ExtendedDistance,
    FiniteMetricSpace,
    KrausSet,
    direct_sum,
    graph_metric,
    m_star_for_radius,
    projection_to_subset,
    quotient_restrict,
)

from oracles import (diam_lower_bound_sampled_per_pair, dist_via_materialized,
                     dist_via_powers, neighborhood_via_materialized,
                     neighborhood_via_powers, subset_projection)

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

    def test_rejects_nan_like_a_nonpositive_radius(self):
        for eps in (math.nan, -1.0, -math.inf):
            with pytest.raises(ValueError, match="radius must be positive"):
                m_star_for_radius(eps)

    def test_infinite_radius_admits_every_finite_distance(self):
        # the graph walk's last range, and every point at finite distance
        g = direct_sum(graph_metric(pauli_x_channel()), graph_metric(pauli_x_channel()))
        p = g.embed_left(e_proj(2, 0))
        assert m_star_for_radius(math.inf) > 10 ** 9
        assert g.metric.neighborhood(p, math.inf).rank == 2
        assert (neighborhood_via_powers(g.metric, p, math.inf).rank
                == g.metric.neighborhood(p, 1e308).rank == 2)
        c = direct_sum(ClassicalQuantumMetric(path_space(3)),
                       ClassicalQuantumMetric(path_space(2)))
        assert c.metric.neighborhood((0,), math.inf) == (0, 1, 2)


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

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError, match="at least 1 x 1"):
            KrausSet([np.zeros((0, 0))])


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
        with pytest.raises(ValueError, match="radius must be positive"):
            self.metric.neighborhood([0], math.nan)

    def test_diam(self):
        assert self.metric.diam([1]) == 0.0
        assert self.metric.diam([0, 2]) == 2.0
        assert self.metric.diam([0, 1, 2]) == 2.0
        assert self.metric.diam([]) == 0.0

    def test_projection_roundtrip(self):
        p = subset_projection(self.metric, [0, 2])
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


def protocol_names() -> list[str]:
    """The names the qmetric module docstring lists as the metric protocol."""
    doc = qmetric.__doc__
    start = doc.index("* ``n``")
    return re.findall(r"``(\w+)``", doc[start:doc.index("\n\n", start)])


def test_cover_protocol(protocol_case):
    backend, metric, member = protocol_case
    assert metric.backend == backend
    names = protocol_names()
    assert {"from_subset", "from_projection", "embed", "direct_sum"} <= set(names)
    assert [name for name in names if not hasattr(metric, name)] == []
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

    # members from index sets and from projections; size reads either kind
    size = len if backend == "classical" else (lambda p: p.rank)
    for made in (metric.from_subset([1, 0, 1]),
                 metric.from_projection(Projection.onto_subset(metric.n, [0, 1]))):
        assert size(made) == 2 and size(metric.join([made, a])) == 2
    tilted = Projection(metric.n, np.eye(metric.n)[:, :2] @ [[1.0], [1.0]] / np.sqrt(2))
    if backend == "classical":
        with pytest.raises(ValueError, match="diagonal"):
            metric.from_projection(tilted)
    else:
        assert metric.from_projection(tilted) is tilted

    # the direct sum acts block by block: a left-embedded member keeps its
    # distances and neighborhoods, and never reaches the right block
    ds = direct_sum(metric, metric)
    whole = ds.metric
    assert whole.backend == backend and whole.n == 2 * metric.n
    right_block = ds.embed_right(member(range(metric.n)))
    for x, y in ((a, b), (a, member([3])), (member([4]), a)):
        assert whole.dist(ds.embed_left(x), ds.embed_left(y)) == metric.dist(x, y)
        assert not whole.dist(ds.embed_left(x), ds.embed_right(y)).finite
    for eps in (1.5, 2.5, math.inf):
        got = whole.neighborhood(ds.embed_left(a), eps)
        want = ds.embed_left(metric.neighborhood(a, eps))
        assert size(got) == size(want) == size(whole.join([got, want]))
        assert not whole.overlaps(got, right_block)


def conjugation_cases(n):
    """(name, Kraus operators) at dimension n: a Haar expander, clock-and-shift
    and the direct sum of two Haar expanders on n/2 points each."""
    yield "haar", random_expander(n, 4, seed=5).kraus().ops
    clock = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    shift = np.roll(np.eye(n, dtype=complex), 1, axis=0)
    yield "clock-shift", [np.eye(n) / np.sqrt(3), clock / np.sqrt(3), shift / np.sqrt(3)]
    halves = [graph_metric(random_expander(n // 2, 3, seed=s).kraus()) for s in (1, 2)]
    yield "block-sum", direct_sum(*halves).metric.kraus.ops


@pytest.mark.parametrize("n", [8, 16])
def test_unitary_conjugation_invariance(n):
    # K -> W K W*, P -> W P W* is an isometry of quantum metrics, so distances
    # (infinite ones across the blocks of a direct sum included), neighborhood
    # ranks and the diameter proxy k0 cannot change, whatever basis each
    # side's walk and powers are stored in
    rng = np.random.default_rng([n, 17])
    w = haar_unitary(n, rng)
    for name, ops in conjugation_cases(n):
        plain = graph_metric(KrausSet(ops))
        moved = graph_metric(KrausSet([w @ k @ w.conj().T for k in ops]))
        members = [Projection.onto_subset(n, idx)
                   for idx in ([0], [0, 1], list(range(n // 4)), [n // 2])]
        members.append(Projection(n, haar_unitary(n, rng)[:, :2]))
        for p in members:
            pw = Projection(n, w @ p.range_basis)
            for q in members:
                qw = Projection(n, w @ q.range_basis)
                assert plain.dist(p, q) == moved.dist(pw, qw), name
            for eps in (1.5, 2.5):
                assert (plain.neighborhood(p, eps).rank
                        == moved.neighborhood(pw, eps).rank), name
            assert plain.diam_graph_proxy(p) == moved.diam_graph_proxy(pw), name
        assert plain.powers.dims == moved.powers.dims, name


@pytest.mark.parametrize("rank_rtol", [1.0, 100.0, 1e10])
@pytest.mark.parametrize("n", [8, 16])
def test_sampled_diameter_matches_per_pair_probes(n, rank_rtol):
    # one contraction decides every probe pair's first two distance tests,
    # where the oracle calls dist once per pair; and no sampled pair is
    # farther apart than k0, since P V_k0 P = M_rank(P) links every pair of
    # vectors in range P
    tol = ToleranceConfig(rank_rtol=rank_rtol)
    rng = np.random.default_rng([n, 31])
    for name, ops in conjugation_cases(n):
        metric = graph_metric(KrausSet(ops, tol))
        members = [Projection.onto_subset(n, idx)
                   for idx in ([0, 1], [0, n // 2], list(range(n // 2)), list(range(n)))]
        members += [Projection(n, haar_unitary(n, rng)[:, :r]) for r in (2, 3, n // 2)]
        for p in members:
            got = metric.diam_lower_bound_sampled(p, trials=10, seed=7)
            assert got == diam_lower_bound_sampled_per_pair(metric, p, 10, 7), name
            assert got <= metric.diam_graph_proxy(p), name


@pytest.mark.parametrize("ranks", [(1, 1), (2, 3), (4, 4)])
def test_full_power_basis_links_every_pair_below_one_over_n(ranks):
    # dist maximizes ||P* B Q||_F over the stored basis; in the standard basis
    # of a full power that maximum is at least sqrt(rank P rank Q)/n
    n = 8
    rng = np.random.default_rng(list(ranks))
    full = graph_metric(KrausSet(random_expander(n, 4, seed=5).kraus().ops))
    full = full.power(full.m_stab)
    assert full.dim == n * n
    p = Projection(n, haar_unitary(n, rng)[:, : ranks[0]])
    q = Projection(n, haar_unitary(n, rng)[:, : ranks[1]])
    comp = (p.range_basis.conj().T @ full.basis) @ q.range_basis
    assert np.max(np.linalg.norm(comp, axis=(1, 2))) >= math.sqrt(ranks[0] * ranks[1]) / n
    # two orthogonal Fourier vectors reach the bound: |x_i| |y_j| = 1/n
    x = np.ones((n, 1)) / np.sqrt(n)
    y = np.exp(2j * np.pi * np.arange(n) / n).reshape(-1, 1) / np.sqrt(n)
    comp = (x.conj().T @ full.basis) @ y
    assert np.allclose(np.linalg.norm(comp, axis=(1, 2)), 1 / n, rtol=1e-12, atol=0)


@pytest.mark.parametrize("zero_atol,expected", [(0.25, 1.0), (0.6, 2.0)])
def test_dist_link_decision_is_basis_invariant(monkeypatch, zero_atol, expected):
    # two orthogonal Fourier vectors x, y on an n = 8 expander, dim V1 = 13:
    # ||x* B y||_F over V1 totals 0.457 (largest element 0.195), and
    # ||x* B s||_F over V1 and the rank-8 S_1 = range(V1 y) totals 1.295
    # (largest element 0.476 in the stored basis of V1, 0.428 in a
    # Haar-rotated one); the totals do not depend on the stored bases, while
    # a per-element maximum would, and would miss the link at 0.6
    n = 8
    spec = random_expander(n, 4, seed=5)
    metric = graph_metric(replace(spec, tol=ToleranceConfig(zero_atol=zero_atol)).kraus())
    assert metric.v1.dim == 13
    x = Projection(n, np.ones((n, 1)) / np.sqrt(n))
    y = Projection(n, np.exp(2j * np.pi * np.arange(n) / n).reshape(-1, 1) / np.sqrt(n))
    assert metric.dist(x, y) == ExtendedDistance.of(expected)

    w = haar_unitary(metric.v1.dim, np.random.default_rng(0))
    rotated = OperatorSubspace(n, np.einsum("ab,bij->aij", w, metric.v1.basis))
    monkeypatch.setattr(metric, "v1", rotated)
    assert metric.dist(x, y) == ExtendedDistance.of(expected)


class TestWalkAgainstPowers:
    """dist and neighborhood walk V1 over ranges in C^n; the oracles
    compress against the operator powers V_m.  They must agree."""

    RADII = (0.5, 1.5, 2.5, 3.5)

    def agree(self, metric, members):
        atol = metric.tol.zero_atol
        for p in members:
            for eps in self.RADII:
                got = metric.neighborhood(p, eps)
                want = neighborhood_via_powers(metric, p, eps)
                assert got.rank == want.rank
                assert np.linalg.norm(got.matrix() - want.matrix()) <= atol
            for q in members:
                assert metric.dist(p, q) == dist_via_powers(metric, p, q)

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_expanders(self, n):
        metric = graph_metric(random_expander(n, 4, seed=n).kraus())
        rng = np.random.default_rng([n, 13])
        for r in range(1, n // 2 + 1):
            u = haar_unitary(n, rng)
            p = Projection(n, u[:, :r])
            # Q orthogonal to P, so dist(P, Q) >= 1, and two orthogonal
            # unit vectors inside P, as the sampled diameter draws them
            members = [p, Projection(n, u[:, r:r + 1]), Projection(n, u[:, n - r:])]
            if r >= 2:
                members += [Projection(n, u[:, :1]), Projection(n, u[:, 1:2])]
            # and, while (P)_1.5 is not all of C^n, a vector beyond it
            beyond = neighborhood_via_powers(metric, p, 1.5).complement()
            if beyond.rank:
                members.append(Projection(n, beyond.range_basis[:, :1]))
                assert dist_via_powers(metric, p, members[-1]).value == 2
            self.agree(metric, members)

    def test_block_sum_stops_at_a_block(self):
        ds = direct_sum(*[graph_metric(random_expander(4, 3, seed=s).kraus())
                          for s in (1, 2)])
        rng = np.random.default_rng(44)
        left = [ds.embed_left(Projection(4, haar_unitary(4, rng)[:, :r])) for r in (1, 2)]
        right = [ds.embed_right(Projection(4, haar_unitary(4, rng)[:, :r])) for r in (1, 2)]
        mixed = Projection(8, np.hstack([left[0].range_basis, right[0].range_basis]))
        self.agree(ds.metric, left + right + [mixed])
        assert not ds.metric.dist(left[1], right[1]).finite
        assert ds.metric.neighborhood(left[0], 9.0).rank == 4
        assert ds.metric.neighborhood(mixed, 9.0).rank == 8

    def test_block_sum_walk_falls_back_to_the_svd(self, monkeypatch):
        # a walk step's image in an 8 + 8 block sum has at least 16 columns
        # but stays in its blocks: the full-rank certificate fails and the
        # SVD ranks the image as before; a range in both blocks fills C^16
        # and is certified
        ds = direct_sum(*[graph_metric(random_expander(8, 3, seed=s).kraus())
                          for s in (1, 2)])
        metric = ds.metric
        certify, verdicts = matcore.full_rank_certified, []

        def spy(a, tol, **kw):
            verdicts.append(certify(a, tol, **kw))
            return verdicts[-1]

        monkeypatch.setattr(matcore, "full_rank_certified", spy)
        u = haar_unitary(8, np.random.default_rng(88))
        left = ds.embed_left(Projection(8, u[:, :2]))
        mixed = Projection(16, np.hstack([left.range_basis,
                                          ds.embed_right(Projection(8, u[:, :1])).range_basis]))
        for p, ranks, certified in ((left, [2, 8], [False, False]),
                                    (mixed, [3, 15, 16], [False, True])):
            verdicts.clear()
            walk = list(metric.walk(p))
            assert ([s.rank for s in walk], verdicts) == (ranks, certified)
            for s in walk:
                img = np.moveaxis(metric.v1.basis @ s.range_basis, 0, 1).reshape(16, -1)
                assert (metric.neighborhood(s, 1.5).rank
                        == Projection.from_range_vectors(img, tol=metric.tol).rank)
        assert np.array_equal(walk[-1].range_basis, np.eye(16))

    def test_pauli(self):
        metric = graph_metric(pauli_x_channel())
        plus = Projection(2, np.ones((2, 1)) / np.sqrt(2))
        minus = Projection(2, np.array([[1.0], [-1.0]]) / np.sqrt(2))
        self.agree(metric, [e_proj(2, 0), e_proj(2, 1), plus, minus,
                            Projection.identity(2)])
        # X fixes |+> and |->, so no power links them
        assert not metric.dist(plus, minus).finite
        assert metric.dist(e_proj(2, 0), e_proj(2, 1)).value == 1


def test_walk_builds_no_power_at_n64():
    # the walk stays in C^64: neighborhoods and distances of a rank-32
    # projection on a Haar Kraus set never build the 4096-dimensional powers
    n, d = 64, 4
    rng = np.random.default_rng(64)
    metric = graph_metric(KrausSet([haar_unitary(n, rng) / np.sqrt(d) for _ in range(d)]))
    u = haar_unitary(n, rng)
    p = Projection(n, u[:, : n // 2])
    assert metric.neighborhood(p, 1.5).rank == n  # 13 * 32 directions fill C^64
    assert metric.neighborhood(Projection(n, u[:, :1]), 1.5).rank == metric.v1.dim
    assert metric.dist(p, Projection(n, u[:, -1:])).value == 1
    assert metric.dist(Projection(n, u[:, :1]), Projection(n, u[:, 1:2])).value == 1
    assert metric.powers.dims == [1]


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

    @pytest.mark.parametrize("n1, n2", [(4, 4), (6, 4), (8, 6)])
    def test_expanders_act_block_by_block(self, n1, n2):
        # V = V1 (+) V2 and its powers are block diagonal, so every reading of
        # a left-block member is the summand's, a cross-block pair is never
        # linked, and neighborhoods of P (+) Q are blockwise
        g1 = graph_metric(random_expander(n1, 3, seed=1).kraus())
        g2 = graph_metric(random_expander(n2, 3, seed=2).kraus())
        ds = direct_sum(g1, g2)
        assert ds.metric.powers.dims[-1] < (n1 + n2) ** 2
        rng = np.random.default_rng([n1, n2])
        left = [e_proj(n1, 0), Projection(n1, haar_unitary(n1, rng)[:, :2]),
                Projection(n1, haar_unitary(n1, rng)[:, : n1 // 2])]
        right = [e_proj(n2, n2 - 1), Projection(n2, haar_unitary(n2, rng)[:, :2])]
        for p in left:
            lp = ds.embed_left(p)
            for q in left:
                assert ds.metric.dist(lp, ds.embed_left(q)) == g1.dist(p, q)
            assert ds.metric.diam_graph_proxy(lp) == g1.diam_graph_proxy(p)
            for eps in (1.5, 2.5):
                got = ds.metric.neighborhood(lp, eps)
                want = ds.embed_left(g1.neighborhood(p, eps))
                assert got.rank == want.rank
                assert range_containment_residual(got, want) <= 1e-9
                assert range_containment_residual(want, got) <= 1e-9
            for q in right:
                rq = ds.embed_right(q)
                assert not ds.metric.dist(lp, rq).finite
                mixed = Projection(n1 + n2, np.hstack([lp.range_basis, rq.range_basis]))
                assert (ds.metric.neighborhood(mixed, 1.5).rank
                        == g1.neighborhood(p, 1.5).rank + g2.neighborhood(q, 1.5).rank)

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
