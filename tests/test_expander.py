import numpy as np
import pytest

from qcoarse.jsonio import expander_from_json, expander_to_json
from qcoarse.matcore import (
    DEFAULT_TOL,
    Projection,
    ToleranceConfig,
    commutant,
    subspace_from_spanning,
)
from qcoarse.qmetric import KrausSet, graph_metric
from qcoarse import expander, qmetric
from qcoarse.asdim import CoverFamily, certify_counting
from qcoarse.expander import (
    ExpanderSpec,
    channel_superoperator,
    cheeger_audit,
    cheeger_lower_bound,
    cheeger_quantity,
    classical_vertex_expansion,
    complete_graph,
    cycle_graph,
    growth_constant,
    haar_projection,
    haar_unitary,
    is_connected,
    iterated_isoperimetric,
    random_expander,
    random_projection,
    random_regular_graph,
    rank_diameter_audit,
    spectral_gap,
    verify_isoperimetric,
    verify_rank_diameter,
)

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def depolarizing_kraus(n):
    ops = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            ops.append(e / np.sqrt(n))
    return KrausSet(ops)


def permutation_channel(perms, n):
    mats = []
    for sigma in perms:
        p = np.zeros((n, n), dtype=complex)
        for i, j in enumerate(sigma):
            p[j, i] = 1.0
        mats.append(p / np.sqrt(len(perms)))
    return KrausSet(mats)


def amplitude_damping(n, gamma):
    """Decay of every level into |0>: trace preserving, not unital."""
    k0 = np.diag([1.0] + [np.sqrt(1 - gamma)] * (n - 1)).astype(complex)
    ops = [k0]
    for i in range(1, n):
        k = np.zeros((n, n), dtype=complex)
        k[0, i] = np.sqrt(gamma)
        ops.append(k)
    return KrausSet(ops)


def stinespring_kraus(n, d, rng):
    """Blocks of a random isometry C^n -> C^(dn): a generic TP channel."""
    z = rng.standard_normal((d * n, n)) + 1j * rng.standard_normal((d * n, n))
    v = np.linalg.qr(z)[0]
    return KrausSet([v[i * n:(i + 1) * n] for i in range(d)])


def block_diagonal_kraus(a, b):
    """Kraus set of the channel acting by a on C^n1 and by b on C^n2."""
    n1, n2 = a.n, b.n
    ops = []
    for k in a.ops:
        blk = np.zeros((n1 + n2, n1 + n2), dtype=complex)
        blk[:n1, :n1] = k
        ops.append(blk)
    for k in b.ops:
        blk = np.zeros((n1 + n2, n1 + n2), dtype=complex)
        blk[n1:, n1:] = k
        ops.append(blk)
    return KrausSet(ops)


def gap_oracle(kraus):
    """1 - largest singular value of the complex superoperator compressed to
    an SVD basis of {tr X = 0}, via the Gram matrix."""
    n = kraus.n
    v_id = np.eye(n, dtype=complex).reshape(1, -1) / np.sqrt(n)
    basis = np.linalg.svd(v_id)[2][1:].conj().T
    comp = basis.conj().T @ channel_superoperator(kraus) @ basis
    w = np.linalg.eigvalsh(comp.conj().T @ comp)
    return 1.0 - float(np.sqrt(max(w[-1], 0.0)))


class TestSpectralGap:
    def test_identity_channel(self):
        rep = spectral_gap(KrausSet([I2]))
        assert rep.epsilon == pytest.approx(0.0, abs=1e-12)

    def test_depolarizing(self):
        rep = spectral_gap(depolarizing_kraus(3))
        assert rep.epsilon == pytest.approx(1.0, abs=1e-12)

    def test_permutation_channel_gap_zero(self, rng):
        n = 5
        perms = [rng.permutation(n) for _ in range(3)]
        rep = spectral_gap(permutation_channel(perms, n))
        assert rep.epsilon == pytest.approx(0.0, abs=1e-10)

    def test_matches_oracle_on_random_channels(self, rng):
        for n in range(2, 9):
            units = [haar_unitary(n, rng) for _ in range(3)]
            w = rng.uniform(0.5, 1.5, size=3)
            w /= w.sum()
            kraus = KrausSet([np.sqrt(wi) * u for wi, u in zip(w, units)])
            rep = spectral_gap(kraus)
            assert rep.epsilon == pytest.approx(gap_oracle(kraus), abs=1e-10)
            assert rep.epsilon == pytest.approx(
                1.0 - rep.top_traceless_singular_value, abs=1e-12)
            assert -1e-9 <= rep.epsilon <= 1 + 1e-9

    @pytest.mark.filterwarnings("ignore:channel is not unital")
    def test_matches_oracle_on_non_unital_channels(self, rng):
        # the identity is not a fixed point here, so only the compression to
        # {tr X = 0} (not a rank-one deflation) gives the oracle's value
        for n in range(2, 9):
            sets = [amplitude_damping(n, rng.uniform(0.1, 0.9))]
            sets += [stinespring_kraus(n, d, rng) for d in (2, 3, 4)]
            for kraus in sets:
                assert kraus.trace_preserving and not kraus.unital
                assert spectral_gap(kraus).epsilon == pytest.approx(
                    gap_oracle(kraus), abs=1e-12)

    def test_unitary_conjugation_invariance(self, rng):
        connected = random_expander(8, 4, seed=11).kraus()
        disconnected = block_diagonal_kraus(random_expander(4, 4, seed=1).kraus(),
                                            random_expander(4, 4, seed=2).kraus())
        for kraus, comm_dim in ((connected, 1), (disconnected, 2)):
            w = haar_unitary(8, rng)
            conj = KrausSet([w @ k @ w.conj().T for k in kraus.ops])
            assert spectral_gap(conj).epsilon == pytest.approx(
                spectral_gap(kraus).epsilon, abs=1e-12)
            for ks in (kraus, conj):
                assert is_connected(graph_metric(ks).v1).commutant_dim == comm_dim

    def test_superoperator_acts_correctly(self, rng):
        n = 3
        kraus = KrausSet([haar_unitary(n, rng) / np.sqrt(2) for _ in range(2)])
        s = channel_superoperator(kraus)
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        lhs = s @ x.T.reshape(-1)
        rhs = kraus.apply(x).T.reshape(-1)
        assert np.allclose(lhs, rhs)

    def test_non_tp_rejected(self):
        with pytest.raises(ValueError):
            spectral_gap(KrausSet([I2 * 0.3]))

    def test_non_unital_warns(self):
        k = KrausSet([np.array([[1, 0], [0, 0]], dtype=complex),
                      np.array([[0, 1], [0, 0]], dtype=complex)])
        assert k.trace_preserving and not k.unital
        with pytest.warns(UserWarning):
            spectral_gap(k)


class TestGapMemo:
    """The contraction is computed once per KrausSet; the checks are not."""

    def test_one_compression_per_kraus_set(self, monkeypatch, rng):
        spec = random_expander(16, 4, seed=7)
        metric = graph_metric(spec.kraus())
        compressed = []
        compress = expander._hermitian_traceless_compression

        def counting(kraus):
            compressed.append(kraus)
            return compress(kraus)

        monkeypatch.setattr(expander, "_hermitian_traceless_compression", counting)
        reports = [spectral_gap(metric.kraus) for _ in range(3)]
        cheeger_audit(metric.kraus, trials=2, seed=0)
        iterated_isoperimetric(metric, haar_projection(16, 1, rng), delta=1.5, m=1)
        u = haar_unitary(16, rng)
        fam = CoverFamily("quantum", [[Projection(16, u[:, :8])],
                                      [Projection(16, u[:, 8:])]],
                          r=1.0, R=float(metric.m_stab))
        for _ in range(3):
            certify_counting(spec, fam, delta=1.5, m=1, metric=metric)
        assert len(compressed) == 1 and compressed[0] is metric.kraus
        assert reports[0].epsilon == spec.epsilon
        fresh = KrausSet(metric.kraus.ops)
        assert spectral_gap(fresh) == reports[0]
        assert len(compressed) == 2 and compressed[1] is fresh

    @pytest.mark.parametrize("channel", ["haar16", "depolarizing"])
    def test_cached_report_equals_uncached(self, channel, rng):
        if channel == "haar16":
            kraus = KrausSet([haar_unitary(16, rng) / 2 for _ in range(4)])
        else:
            kraus = depolarizing_kraus(3)
        uncached = spectral_gap(kraus)
        assert kraus._contraction == uncached.top_traceless_singular_value
        assert spectral_gap(kraus) == uncached
        assert spectral_gap(KrausSet(kraus.ops)) == uncached

    def test_non_tp_rejected_on_every_call(self):
        k = KrausSet([I2 * 0.3])
        for _ in range(2):
            with pytest.raises(ValueError, match="not trace preserving"):
                spectral_gap(k)
        assert k._contraction is None

    def test_non_unital_warns_on_every_call(self):
        k = KrausSet([np.array([[1, 0], [0, 0]], dtype=complex),
                      np.array([[0, 1], [0, 0]], dtype=complex)])
        reports = []
        for _ in range(2):
            with pytest.warns(UserWarning, match="not unital"):
                reports.append(spectral_gap(k))
        assert reports[0] == reports[1] and not reports[1].unital


class TestCheeger:
    def test_depolarizing_closed_form(self, rng):
        n = 6
        kraus = depolarizing_kraus(n)
        for k in (1, 2, 3):
            p = haar_projection(n, k, rng)
            assert cheeger_quantity(kraus, p) == pytest.approx((n - k) / n, abs=1e-9)

    def test_identity_channel_is_zero(self):
        p = Projection.onto_subset(2, [0])
        assert cheeger_quantity(KrausSet([I2]), p) == pytest.approx(0.0, abs=1e-12)

    def test_bound_on_random_expander(self, rng):
        spec = random_expander(16, 4, seed=3)
        rep = spectral_gap(spec.kraus())
        bound = cheeger_lower_bound(rep)
        for _ in range(50):
            k = int(rng.integers(1, 9))
            val = cheeger_quantity(spec.kraus(), haar_projection(16, k, rng))
            assert val >= bound - 1e-9

    def test_rank_preconditions(self):
        kraus = depolarizing_kraus(4)
        with pytest.raises(ValueError):
            cheeger_quantity(kraus, Projection.zero(4))
        with pytest.raises(ValueError):
            cheeger_quantity(kraus, Projection.onto_subset(4, [0, 1, 2]))


class TestConnectivity:
    def test_pauli_x_disconnected_with_witness(self):
        v1 = subspace_from_spanning([I2, PAULI_X])
        rep = is_connected(v1)
        assert not rep.connected
        assert rep.commutant_dim == 2
        w = rep.witness.matrix()
        # witness is one of the two spectral projections (I +/- X)/2
        assert np.allclose(w, (I2 + PAULI_X) / 2) or np.allclose(w, (I2 - PAULI_X) / 2)
        assert rep.witness_residual <= 1e-9

    def test_offdiagonal_units_connected(self):
        E12 = np.array([[0, 1], [0, 0]], dtype=complex)
        v1 = subspace_from_spanning([I2, E12, E12.conj().T])
        rep = is_connected(v1)
        assert rep.connected
        assert rep.m_star == 2

    def test_full_space_connected_in_one_step(self):
        mats = [np.eye(2, dtype=complex)]
        for i in range(2):
            for j in range(2):
                e = np.zeros((2, 2), dtype=complex)
                e[i, j] = 1
                mats.append(e)
        rep = is_connected(subspace_from_spanning(mats))
        assert rep.connected and rep.m_star == 1

    def test_block_diagonal_disconnected(self, rng):
        blocks = []
        for _ in range(2):
            u1, u2 = haar_unitary(2, rng), haar_unitary(2, rng)
            blocks.append((u1, u2))
        ops = []
        for (a, b) in zip(*blocks):
            k = np.zeros((4, 4), dtype=complex)
            k[:2, :2] = a / np.sqrt(2)
            k[2:, 2:] = b / np.sqrt(2)
            ops.append(k)
        m = graph_metric(KrausSet(ops))
        rep = is_connected(m.v1)
        assert not rep.connected
        # witness splits the channel into orthogonal halves, which forces
        # gap zero by the contrapositive of the Cheeger bound
        kraus = KrausSet(ops)
        w = rep.witness.matrix()
        overlap = abs(np.vdot(kraus.apply(np.eye(4) - w), kraus.apply(w)))
        assert overlap <= 1e-9
        assert spectral_gap(kraus).epsilon == pytest.approx(0.0, abs=1e-9)

    def test_disc8_witness(self):
        kraus = block_diagonal_kraus(random_expander(4, 4, seed=2).kraus(),
                                     random_expander(4, 4, seed=3).kraus())
        v1 = graph_metric(kraus).v1
        rep = is_connected(v1)
        assert not rep.connected and rep.commutant_dim == 2
        assert rep.witness.rank == 4
        assert rep.witness_residual <= DEFAULT_TOL.zero_atol
        assert commutant(list(v1.basis)).dim == 2


class TestRandomInstances:
    def test_haar_unitary_residual(self, rng):
        for n in (2, 5, 9):
            u = haar_unitary(n, rng)
            assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-12

    def test_random_expander_rejects_small_d(self):
        with pytest.raises(ValueError):
            random_expander(2, 1, seed=0)

    def test_random_expander_deterministic_and_gapped(self):
        a = random_expander(8, 4, seed=7)
        b = random_expander(8, 4, seed=7)
        assert a.epsilon == b.epsilon > 0
        assert all(np.array_equal(x, y) for x, y in zip(a.unitaries, b.unitaries))
        a.validate()

    @pytest.mark.parametrize("n, seed", [(3, 0), (4, 1), (6, 2), (8, 5)])
    def test_two_unitaries_have_no_gap(self, n, seed):
        # W = U_1* U_2 is a fixed point of Phi* Phi, and V_1 = span{I, W, W*}
        spec = random_expander(n, 2, seed=seed)
        assert spec.epsilon <= spec.tol.zero_atol
        assert not is_connected(graph_metric(spec.kraus()).v1).connected

    @pytest.mark.parametrize("epsilon", [2.5, 1e30, 1e300, -0.5, -1.0, 1 + 1e-12,
                                         -1e-6])
    def test_recorded_epsilon_outside_the_unit_interval_refused(self, epsilon):
        spec = random_expander(6, 4, seed=2)
        spec.epsilon = epsilon
        with pytest.raises(ValueError, match=r"^epsilon: expected a gap in \[0, 1\]$"):
            spec.validate()

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, 0.5, -1e-12])
    def test_recorded_epsilon_in_range_is_kept(self, epsilon):
        spec = random_expander(6, 4, seed=2)
        spec.epsilon = epsilon
        spec.validate()
        assert expander_from_json(expander_to_json(spec)).epsilon == epsilon

    def test_regular_graph_basic(self):
        g = random_regular_graph(10, 3, seed=1)
        assert g.adjacency.sum(axis=0).tolist() == [3] * 10
        assert np.all(np.diag(g.adjacency) == 0)
        assert g.connected

    def test_regular_graph_parity_check(self):
        with pytest.raises(ValueError):
            random_regular_graph(5, 3, seed=0)

    def test_cycle_gap_oracle(self):
        # adjacency eigenvalues of the n-cycle are 2 cos(2 pi k / n)
        for n in (3, 4, 5, 6, 8):
            g = cycle_graph(n)
            lams = [2 * np.cos(2 * np.pi * k / n) for k in range(1, n)]
            expect = 1.0 - max(abs(l) for l in lams) / 2
            assert g.classical_gap == pytest.approx(expect, abs=1e-12)
        # even cycles are bipartite: two-sided gap 0
        assert cycle_graph(6).classical_gap == pytest.approx(0.0, abs=1e-12)

    def test_graphs_too_small_for_their_degree_refused(self):
        for n in (0, 1, 2):
            with pytest.raises(ValueError, match="n >= 3"):
                cycle_graph(n)
        for n in (0, 1):
            with pytest.raises(ValueError, match="n >= 2"):
                complete_graph(n)
        assert cycle_graph(3).d == 2 and complete_graph(2).d == 1

    def test_complete_gap(self):
        for n in (3, 5, 8):
            assert complete_graph(n).classical_gap == pytest.approx(
                1.0 - 1.0 / (n - 1), abs=1e-12)

    def test_cycle_metric(self):
        g = cycle_graph(5)
        assert g.space.d[0, 2] == 2
        assert g.space.d[0, 3] == 2


class TestIsoperimetric:
    def test_depolarizing_like_never_violates(self, rng):
        n = 4
        spec = random_expander(n, 4, seed=5)
        rep = verify_isoperimetric(spec, delta=1.5, trials=60, seed=9)
        assert rep.violations == 0
        assert rep.orthogonality_failures == 0
        assert rep.min_ratio >= 1.0 + rep.eps_prime - 1e-9

    def test_pauli_mixed_unitary_is_perfect_expander(self):
        # the four Pauli conjugations average to the depolarizing channel:
        # gap exactly 1, so eps' = 1/2 and rank((P)_delta) >= 1.5 rank(P)
        paulis = [np.eye(2, dtype=complex),
                  np.array([[0, 1], [1, 0]], dtype=complex),
                  np.array([[0, -1j], [1j, 0]], dtype=complex),
                  np.array([[1, 0], [0, -1]], dtype=complex)]
        spec = ExpanderSpec(n=2, d=4, unitaries=paulis, epsilon=0.0)
        spec.epsilon = spectral_gap(spec.kraus()).epsilon
        assert spec.epsilon == pytest.approx(1.0, abs=1e-12)
        rep = verify_isoperimetric(spec, delta=1.5, trials=20, seed=1)
        assert rep.eps_prime == pytest.approx(0.5, abs=1e-12)
        assert rep.violations == 0

    def test_identity_channel_flagged_without_violations(self):
        # identity channel written with two unitaries: gap 0, so eps' = 0 and
        # (P)_delta = P meets the degenerate bound rank((P)_delta) >= rank(P)
        spec = ExpanderSpec(n=4, d=2, unitaries=[np.eye(4, dtype=complex)] * 2,
                            epsilon=0.0)
        spec.epsilon = spectral_gap(spec.kraus()).epsilon
        rep = verify_isoperimetric(spec, delta=1.5, trials=30, seed=2)
        assert not rep.expander_ok
        assert rep.eps_prime == pytest.approx(0.0, abs=1e-12)
        assert rep.violations == 0
        assert rep.min_ratio == 1.0

    def test_one_growth_constant(self, rng):
        spec = random_expander(8, 4, seed=13)
        metric = graph_metric(spec.kraus())
        lam = spectral_gap(spec.kraus()).top_traceless_singular_value
        assert growth_constant(spec.epsilon) == pytest.approx((1.0 - lam ** 2) / 2.0)
        rep = verify_isoperimetric(spec, delta=1.5, trials=2, seed=0, metric=metric)
        assert rep.eps_prime == growth_constant(spec.epsilon)
        it = iterated_isoperimetric(metric, haar_projection(8, 1, rng), delta=1.5, m=1)
        assert it.eps_prime == growth_constant(spectral_gap(metric.kraus).epsilon)

    def test_loaded_spec_keeps_its_tolerance(self):
        # unitaries off by 4e-7: TP residual 3.2e-6, accepted at zero_atol 1e-3
        loose = ToleranceConfig(zero_atol=1e-3)
        spec = random_expander(16, 4, seed=7)
        scaled = [u * (1 + 4e-7) for u in spec.unitaries]
        obj = expander_to_json(ExpanderSpec(16, 4, scaled, spec.epsilon))
        loaded = expander_from_json(obj, tol=loose)
        rep = verify_isoperimetric(loaded, delta=1.5, trials=2, seed=0)
        assert rep.violations == 0
        assert loaded.tol == loose and loaded.kraus().tol == loose
        assert expander_to_json(loaded) == obj
        with pytest.raises(ValueError):
            expander_from_json(obj)

    def test_one_dimension_refused(self):
        # rank(P) <= n/2 leaves no projection at n = 1
        spec = ExpanderSpec(n=1, d=1, unitaries=[np.eye(1, dtype=complex)],
                            epsilon=1.0)
        with pytest.raises(ValueError, match="need n >= 2"):
            verify_isoperimetric(spec, delta=1.5, trials=3, seed=7)

    def test_violations_come_from_the_chain(self, monkeypatch):
        # no projection on C^8 grows 101-fold, so every sampled chain breaks
        spec = random_expander(8, 4, seed=13)
        monkeypatch.setattr(expander, "growth_constant", lambda eps: 100.0)
        rep = verify_isoperimetric(spec, delta=1.5, trials=6, seed=0)
        assert rep.eps_prime == 100.0
        assert rep.violations == rep.trials == 6

    def test_neighborhood_reached_past_the_chain(self, rng):
        # a chain stopped at the rank cap still reports (P)_{m delta}
        metric = graph_metric(random_expander(16, 3, seed=4).kraus())
        statuses = set()
        for rank, m, delta in ((12, 2, 1.5), (1, 4, 1.5), (1, 3, 2.5), (8, 1, 2.5)):
            p = haar_projection(16, rank, rng)
            rep = iterated_isoperimetric(metric, p, delta=delta, m=m)
            want = metric.neighborhood(p, m * delta)
            assert rep.neighborhood.rank == want.rank
            assert np.allclose(rep.neighborhood.matrix(), want.matrix())
            statuses.add(rep.status)
        assert statuses == {"ok", "rank_cap_exceeded"}

    def test_delta_validation(self):
        spec = random_expander(4, 2, seed=1)
        with pytest.raises(ValueError):
            verify_isoperimetric(spec, delta=1.0, trials=1, seed=0)

    def test_metric_of_another_dimension_rejected(self):
        spec = random_expander(8, 4, seed=1)
        metric = graph_metric(random_expander(16, 4, seed=1).kraus())
        with pytest.raises(ValueError, match=r"C\^16 .* C\^8"):
            verify_isoperimetric(spec, delta=1.5, trials=3, seed=0, metric=metric)

    def test_iterated_reduces_to_single_step(self, rng):
        spec = random_expander(8, 4, seed=13)
        metric = graph_metric(spec.kraus())
        p = haar_projection(8, 1, rng)
        rep = iterated_isoperimetric(metric, p, delta=1.5, m=1)
        assert rep.ok
        assert len(rep.ranks) == 2
        assert rep.ranks[1] >= (1 + rep.eps_prime) * rep.ranks[0] - 1e-9

    def test_iterated_rank_cap_reported(self, rng):
        spec = random_expander(8, 4, seed=13)
        metric = graph_metric(spec.kraus())
        p = haar_projection(8, 4, rng)
        rep = iterated_isoperimetric(metric, p, delta=1.5, m=3)
        assert rep.status == "rank_cap_exceeded"

    def test_iterated_growth_then_exhaustion_at_32(self, rng):
        spec = random_expander(32, 4, seed=21)
        metric = graph_metric(spec.kraus())
        p = haar_projection(32, 2, rng)
        rep = iterated_isoperimetric(metric, p, delta=1.5, m=2)
        assert rep.ranks[1] >= (1 + rep.eps_prime) * rep.ranks[0] - 1e-9
        assert rep.status in ("ok", "rank_cap_exceeded")

    def test_clock_and_shift_coordinate_arc_grows_enough(self):
        # {I, X, Z}/sqrt 3 at n = 16 has gap 0.0171; P onto e_0..e_7 grows to
        # rank 10 at delta = 1.5.  The proven eps' demands 8.135; the old
        # (1 - epsilon)/2 demanded 11.93 and reported a growth failure.
        n = 16
        shift = np.roll(np.eye(n), 1, axis=0)
        clock = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
        metric = graph_metric(KrausSet([np.eye(n) / np.sqrt(3), shift / np.sqrt(3),
                                        clock / np.sqrt(3)]))
        rep = iterated_isoperimetric(metric, Projection.onto_subset(n, range(8)),
                                     delta=1.5, m=1)
        assert rep.ranks == [8, 10]
        assert rep.status == "ok"

    def test_non_unital_channel_refused(self):
        # amplitude damping: trace preserving, not unital
        g = 0.3
        metric = graph_metric(KrausSet([np.diag([1.0, np.sqrt(1 - g)]),
                                        np.array([[0.0, np.sqrt(g)], [0.0, 0.0]])]))
        with pytest.raises(ValueError, match="unital"):
            iterated_isoperimetric(metric, Projection.onto_subset(2, [0]),
                                   delta=1.5, m=1)

    def test_chain_is_read_off_one_walk(self, monkeypatch, rng):
        # radii 1.5, 3, 4.5, 6, 7.5 serve steps 1, 2, 4, 5, 7: one walk to
        # step 7 takes 7 image_range_projection calls, and restarting it at
        # every radius takes 1 + 2 + 4 + 5 + 7 = 19
        metric = graph_metric(random_expander(32, 2, seed=5).kraus())
        p = haar_projection(32, 1, rng)
        calls = []
        image = qmetric.image_range_projection

        def counting(*args):
            calls.append(1)
            return image(*args)

        monkeypatch.setattr(qmetric, "image_range_projection", counting)
        rep = iterated_isoperimetric(metric, p, delta=1.5, m=5)
        assert len(calls) == 7
        assert rep.ranks == [1, 3, 5, 9, 11, 15]
        assert rep.ranks[1:] == [metric.neighborhood(p, k * 1.5).rank
                                 for k in range(1, 6)]

    def test_huge_radius_reads_the_last_range(self, rng):
        metric = graph_metric(random_expander(8, 4, seed=13).kraus())
        rep = iterated_isoperimetric(metric, haar_projection(8, 1, rng),
                                     delta=1e300, m=3)
        assert rep.ranks == [1, 8]
        assert rep.status == "rank_cap_exceeded"


class TestRankDiameter:
    def test_rank_one(self, rng):
        spec = random_expander(8, 4, seed=3)
        metric = graph_metric(spec.kraus())
        rep = verify_rank_diameter(metric, haar_projection(8, 1, rng))
        assert rep.k0.value == 0
        assert rep.bound_ok

    def test_identity_projection(self):
        spec = random_expander(8, 4, seed=3)
        metric = graph_metric(spec.kraus())
        rep = verify_rank_diameter(metric, Projection.identity(8))
        m = int(rep.k0.value)
        assert metric.power(m).dim == 64
        assert 8 <= rep.num_kraus ** m
        assert rep.bound_ok

    def test_disconnected_rejected(self):
        metric = graph_metric(KrausSet([I2]))
        with pytest.raises(ValueError):
            verify_rank_diameter(metric, Projection.identity(2))

    def test_audit_rows_follow_the_shared_sampler(self):
        metric = graph_metric(random_expander(8, 4, seed=9).kraus())
        checks = rank_diameter_audit(metric, trials=6, seed=3)
        assert len(checks) == 6
        for t, row in enumerate(checks):
            rng = np.random.default_rng([3, t])
            assert row == verify_rank_diameter(metric, random_projection(8, rng))
            assert row.bound_ok


class TestClassicalExpansion:
    def test_complete_graph_expands(self):
        g = complete_graph(8)
        out = classical_vertex_expansion(g, delta=1.5,
                                         eps_prime=growth_constant(g.classical_gap))
        assert out["violations"] == 0

    def test_explicit_subsets(self):
        g = cycle_graph(12)
        out = classical_vertex_expansion(g, delta=1.5, eps_prime=0.1,
                                         subsets=[(0,), (0, 1, 2)])
        assert out["checked"] == 2
