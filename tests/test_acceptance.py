"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints a single PASS line on success (run with -s to see them);
a failure prints FAIL through pytest's normal reporting.  Tolerances are
pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from qcoarse.matcore import (
    DEFAULT_TOL,
    Projection,
    proj_product_nonzero,
)
from qcoarse.qmetric import (
    ClassicalQuantumMetric,
    FiniteMetricSpace,
    KrausSet,
    direct_sum,
    graph_metric,
    quotient_restrict,
)
from qcoarse.expander import (
    channel_superoperator,
    cheeger_lower_bound,
    cheeger_quantity,
    growth_constant,
    haar_unitary,
    is_connected,
    random_expander,
    random_projection,
    spectral_gap,
    verify_isoperimetric,
    verify_rank_diameter,
)
from qcoarse.asdim import (
    CoverFamily,
    asdim_at_scale,
    certify_counting,
    saturated_union,
    validate_cover,
)
from qcoarse.moduli import MapTable, classical_moduli, quantum_moduli_bruteforce

from oracles import (dist_via_materialized, neighborhood_via_materialized,
                     range_containment_residual)
from test_asdim import make_line_instance, line_space


def report(num, text):
    print(f"\n[PASS] criterion {num:2d}: {text}")


def rng_for(*key):
    return np.random.default_rng(list(key))


# ---------------------------------------------------------------------------
# shared expander set: ten 4-regular Haar instances at n in {8, 16, 32}


@pytest.fixture(scope="module")
def expander_set():
    sizes = [8, 8, 8, 8, 16, 16, 16, 32, 32, 32]
    out = []
    for i, n in enumerate(sizes):
        spec = random_expander(n, 4, seed=100 + i)
        out.append((spec, graph_metric(spec.kraus())))
    return out


def small_spaces(max_size=6):
    """Diverse fixture spaces with |X| <= max_size, including one with +inf."""
    spaces = []
    for n in range(2, max_size + 1):
        idx = np.arange(n)
        spaces.append(FiniteMetricSpace(
            [str(i) for i in range(n)],
            np.abs(idx[:, None] - idx[None, :]).astype(float)))
    # cycle of 5 (hop metric) and complete graph of 4
    c = np.zeros((5, 5))
    for i in range(5):
        for j in range(5):
            k = abs(i - j)
            c[i, j] = min(k, 5 - k)
    spaces.append(FiniteMetricSpace([str(i) for i in range(5)], c))
    spaces.append(FiniteMetricSpace(
        ["a", "b", "c", "d"], np.ones((4, 4)) - np.eye(4)))
    for seed, n in ((1, 4), (2, 5), (3, 6)):
        rng = rng_for(555, seed)
        pts = np.cumsum(rng.uniform(0.3, 2.0, size=n))
        spaces.append(FiniteMetricSpace(
            [str(i) for i in range(n)],
            np.abs(pts[:, None] - pts[None, :])))
    # two-component space with infinite cross distances
    d = np.full((5, 5), np.inf)
    d[:3, :3] = np.abs(np.arange(3)[:, None] - np.arange(3)[None, :])
    d[3:, 3:] = 2.0 * np.abs(np.arange(2)[:, None] - np.arange(2)[None, :])
    np.fill_diagonal(d, 0.0)
    spaces.append(FiniteMetricSpace([str(i) for i in range(5)], d))
    return spaces


# ---------------------------------------------------------------------------
# 1. spectral gap vs eigendecomposition oracle


def test_criterion_01_spectral_gap_oracle():
    t0 = time.perf_counter()

    def oracle(kraus):
        # the complex compression onto an SVD basis of {tr X = 0}
        n = kraus.n
        v_id = np.eye(n, dtype=complex).reshape(1, -1) / math.sqrt(n)
        basis = np.linalg.svd(v_id)[2][1:].conj().T
        comp = basis.conj().T @ channel_superoperator(kraus) @ basis
        w = np.linalg.eigvalsh(comp.conj().T @ comp)
        return 1.0 - math.sqrt(max(float(w[-1]), 0.0))

    # exact fixtures
    assert spectral_gap(KrausSet([np.eye(2, dtype=complex)])).epsilon == \
        pytest.approx(0.0, abs=1e-10)
    for n in (2, 3, 4):
        ops = []
        for i in range(n):
            for j in range(n):
                e = np.zeros((n, n), dtype=complex)
                e[i, j] = 1 / np.sqrt(n)
                ops.append(e)
        assert spectral_gap(KrausSet(ops)).epsilon == pytest.approx(1.0, abs=1e-10)
    for n in (2, 4, 7):
        rng = rng_for(42, n)
        mats = []
        for _ in range(3):
            p = np.zeros((n, n), dtype=complex)
            for i, j in enumerate(rng.permutation(n)):
                p[j, i] = 1 / np.sqrt(3)
            mats.append(p)
        assert spectral_gap(KrausSet(mats)).epsilon == pytest.approx(0.0, abs=1e-10)

    # random TP-unital channels across n = 2..8
    for n in range(2, 9):
        for trial in range(4):
            rng = rng_for(7, n, trial)
            nk = int(rng.integers(2, 5))
            w = rng.uniform(0.2, 1.0, size=nk)
            w /= w.sum()
            kraus = KrausSet([np.sqrt(wi) * haar_unitary(n, rng)
                              for wi in w])
            assert kraus.trace_preserving and kraus.unital
            got = spectral_gap(kraus).epsilon
            assert got == pytest.approx(oracle(kraus), abs=1e-10)
    assert time.perf_counter() - t0 < 10.0
    report(1, "spectral gap matches the eigendecomposition oracle (1e-10), "
              "fixtures exact")


# ---------------------------------------------------------------------------
# 2. quantum Cheeger bound


def test_criterion_02_cheeger_bound(expander_set):
    t0 = time.perf_counter()
    total = 0
    violations = 0
    for ei, (spec, metric) in enumerate(expander_set):
        kraus = spec.kraus()
        rep = spectral_gap(kraus)
        assert rep.epsilon > 0
        bound = cheeger_lower_bound(rep)
        for t in range(1000):
            rng = rng_for(1000 + ei, t)
            p = random_projection(spec.n, rng)
            val = cheeger_quantity(kraus, p)
            total += 1
            if val < bound - 1e-9:
                violations += 1
    assert total == 10_000
    assert violations == 0
    assert time.perf_counter() - t0 < 300.0
    report(2, f"Cheeger quantity >= (1 - contraction)/2 - 1e-9 on {total} "
              "projections across 10 expanders, zero violations")


# ---------------------------------------------------------------------------
# 3. isoperimetric inequality + proof-step orthogonality


def test_criterion_03_isoperimetric(expander_set):
    t0 = time.perf_counter()
    pairs = 0
    for ei, (spec, metric) in enumerate(expander_set):
        rep = verify_isoperimetric(spec, delta=1.5, trials=500,
                                   seed=3000 + ei, metric=metric)
        assert rep.expander_ok
        assert rep.violations == 0
        assert rep.orthogonality_failures == 0
        pairs += rep.orthogonality_pairs
    assert pairs > 0  # rank-one trials at n = 32 always admit far projections
    assert time.perf_counter() - t0 < 300.0
    report(3, "rank((P)_1.5) >= (1+eps') rank(P) on 500 projections per "
              f"expander, zero violations; {pairs} far pairs all HS-orthogonal")


# ---------------------------------------------------------------------------
# 4. rank vs diameter


def test_criterion_04_rank_diameter(expander_set):
    checked = 0
    for ei, (spec, metric) in enumerate(expander_set):
        for t in range(50):
            rng = rng_for(4000 + ei, t)
            p = random_projection(spec.n, rng)
            rep = verify_rank_diameter(metric, p)
            assert rep.rank_bound_ok, (spec.n, p.rank, rep)
            assert rep.dimension_bound_ok, (spec.n, p.rank, rep)
            checked += 1
    assert checked == 500
    report(4, "rank(P) <= N^k0 and rank(P)^2 <= dim(V1^k0) on 500 "
              "projections, zero failures")


# ---------------------------------------------------------------------------
# 5. connectivity criteria agreement


def block_diagonal_kraus(rng, sizes, conjugate=False):
    n = sum(sizes)
    nk = 2
    ops = []
    for _ in range(nk):
        k = np.zeros((n, n), dtype=complex)
        ofs = 0
        for s in sizes:
            k[ofs:ofs + s, ofs:ofs + s] = haar_unitary(s, rng) / np.sqrt(nk)
            ofs += s
        ops.append(k)
    if conjugate:
        w = haar_unitary(n, rng)
        ops = [w @ k @ w.conj().T for k in ops]
    return KrausSet(ops)


def stinespring_kraus(rng, n, nk):
    g = (rng.standard_normal((n * nk, n)) + 1j * rng.standard_normal((n * nk, n)))
    q, _ = np.linalg.qr(g)
    return KrausSet([q[i * n:(i + 1) * n, :] for i in range(nk)])


def test_criterion_05_connectivity_agreement():
    checked = 0
    disconnected = 0
    for trial in range(200):
        rng = rng_for(5000, trial)
        kind = trial % 4
        if kind == 0:
            n = int(rng.integers(2, 7))
            nk = int(rng.integers(2, 5))
            w = rng.uniform(0.2, 1.0, size=nk)
            w /= w.sum()
            kraus = KrausSet([np.sqrt(wi) * haar_unitary(n, rng) for wi in w])
        elif kind == 1:
            sizes = [int(rng.integers(2, 4)), int(rng.integers(2, 4))]
            kraus = block_diagonal_kraus(rng, sizes, conjugate=False)
        elif kind == 2:
            sizes = [int(rng.integers(2, 4)), int(rng.integers(2, 4))]
            kraus = block_diagonal_kraus(rng, sizes, conjugate=True)
        else:
            n = int(rng.integers(2, 7))
            kraus = stinespring_kraus(rng, n, int(rng.integers(2, 4)))
        metric = graph_metric(kraus)
        rep = is_connected(metric.v1)  # raises if the two criteria disagree
        checked += 1
        if kind in (1, 2):
            assert not rep.connected
        if not rep.connected:
            disconnected += 1
            n = kraus.n
            w = rep.witness.matrix()
            for b in metric.v1.basis:
                assert np.linalg.norm(w @ b @ (np.eye(n) - w)) <= 1e-9
            overlap = abs(np.vdot(kraus.apply(np.eye(n) - w), kraus.apply(w)))
            assert overlap <= 1e-9
    assert checked == 200 and disconnected >= 80
    report(5, f"connectivity criteria agree on 200 channels "
              f"({disconnected} disconnected); every witness splits the "
              "system and makes the channel images HS-orthogonal (1e-9)")


# ---------------------------------------------------------------------------
# 6. classical correspondence, exhaustive


def all_masks(n):
    return list(range(1, 1 << n))


def members_of(mask, n):
    return tuple(i for i in range(n) if mask >> i & 1)


def test_criterion_06_classical_correspondence():
    t0 = time.perf_counter()
    for space in small_spaces(6):
        n = space.n
        metric = ClassicalQuantumMetric(space)
        masks = all_masks(n)
        member_mat = np.zeros((len(masks), n))
        for a, mask in enumerate(masks):
            member_mat[a, list(members_of(mask, n))] = 1.0

        # set-formula subset distances: min over pairs
        with np.errstate(invalid="ignore"):
            set_dist = np.full((len(masks), len(masks)), np.inf)
            for a, mask in enumerate(masks):
                sa = list(members_of(mask, n))
                dmin = np.min(space.d[sa, :], axis=0)
                for b, mask_b in enumerate(masks):
                    set_dist[a, b] = np.min(dmin[list(members_of(mask_b, n))])

        # materialized route: summed squared Frobenius norms of the
        # compressions of every support-pattern basis element
        ts = space.realized_distances()
        mat_dist = np.full((len(masks), len(masks)), np.inf)
        for t in ts:
            allowed = (space.d <= t).astype(float)
            normsq = member_mat @ allowed @ member_mat.T
            hit = normsq > DEFAULT_TOL.zero_atol ** 2
            mat_dist = np.where(np.isinf(mat_dist) & hit, t, mat_dist)
        assert np.array_equal(mat_dist, set_dist), "dist mismatch"

        # exhaustive diameters: sup over linked subset pairs == max pair
        for a, mask in enumerate(masks):
            s = members_of(mask, n)
            touching = [b for b in range(len(masks))
                        if set(members_of(masks[b], n)) & set(s)]
            sup = max(set_dist[b, c] for b in touching for c in touching)
            want = metric.diam(s)
            assert (sup == want) or (math.isinf(sup) and math.isinf(want))

        # neighborhoods: set formula == materialized image, all radii
        eps_grid = sorted({t + off for t in ts if math.isfinite(t)
                           for off in (0.5, 1.0)} | {0.25})
        for mask in masks:
            s = members_of(mask, n)
            for eps in eps_grid:
                got = metric.neighborhood(s, eps)
                below = [t for t in ts if t < eps]
                allowed = space.d <= max(below)
                want = tuple(sorted({
                    x for x in range(n)
                    if any(allowed[x, y] for y in s)}))
                assert got == want

        # spot-check the full operator machinery at tolerance
        rng = rng_for(6000, n)
        for _ in range(40):
            a, b = (members_of(int(rng.integers(1, 1 << n)), n) for _ in "ab")
            assert dist_via_materialized(metric, a, b).value == \
                metric.dist(a, b).value
            eps = float(rng.uniform(0.2, max(ts) + 1.0))
            assert neighborhood_via_materialized(metric, a, eps) == \
                metric.neighborhood(a, eps)
    assert time.perf_counter() - t0 < 60.0
    report(6, "materialized operator route equals set formulas for dist, "
              "diam, and neighborhoods, exhaustively on |X| <= 6 fixtures")


# ---------------------------------------------------------------------------
# 7. moduli equality


def test_criterion_07_moduli_equality():
    checked = 0
    for trial in range(100):
        rng = rng_for(7000, trial)
        nx, ny = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        px = np.cumsum(rng.uniform(0.3, 2.0, size=nx))
        py = np.cumsum(rng.uniform(0.3, 2.0, size=ny))
        x = FiniteMetricSpace([str(i) for i in range(nx)],
                              np.abs(px[:, None] - px[None, :]))
        y = FiniteMetricSpace([str(i) for i in range(ny)],
                              np.abs(py[:, None] - py[None, :]))
        f = tuple(int(i) for i in rng.integers(0, ny, size=nx))
        mt = MapTable(x, y, f)
        cl = classical_moduli(mt)
        qt = quantum_moduli_bruteforce(mt)
        assert qt.omega_tilde == cl.omega_tilde
        assert qt.rho_tilde == cl.rho_tilde
        checked += 1
    assert checked == 100
    report(7, "subset-enumeration moduli equal pointwise moduli exactly on "
              "100 random maps, |X|,|Y| <= 5")


# ---------------------------------------------------------------------------
# 8. saturated union


def test_criterion_08_saturated_union():
    passed = 0
    for trial in range(200):
        rng = rng_for(8000, trial)
        space, p_members, q_members, r, R, D = make_line_instance(rng)
        metric = ClassicalQuantumMetric(space)
        out = saturated_union(metric, p_members, q_members, r, R, D)
        assert out.bound == D + 2 * (R + D + 4 * r)
        fam = CoverFamily("classical", [out.members], r=r, R=out.bound)
        v = validate_cover(metric, fam)
        assert v.r_disjoint_ok and v.bounded_ok and v.bounded_mode == "exact"
        passed += 1
    assert passed == 200
    report(8, "saturated union is r-disjoint and (D + 2(R+D+4r))-bounded on "
              "200 randomized hypothesis-satisfying instances")


# ---------------------------------------------------------------------------
# 9. permanence shadows


def test_criterion_09_permanence_shadows():
    rng = rng_for(9000)
    instances = []
    for _ in range(4):
        n1 = int(rng.integers(2, 5))
        n2 = int(rng.integers(2, 9 - n1))
        p1 = np.cumsum(rng.uniform(0.4, 2.0, size=n1))
        p2 = np.cumsum(rng.uniform(0.4, 2.0, size=n2))
        instances.append((line_space(p1), line_space(p2)))
    for s1, s2 in instances:
        m1, m2 = ClassicalQuantumMetric(s1), ClassicalQuantumMetric(s2)
        ds = direct_sum(m1, m2)
        for r in (0.5, 1.0, 2.0):
            a = asdim_at_scale(s1, r)
            b = asdim_at_scale(s2, r)
            c = asdim_at_scale(ds.metric.space, r)
            assert a.exact and b.exact and c.exact
            assert c.value == max(a.value, b.value)
    for trial in range(4):
        rng = rng_for(9100, trial)
        n = int(rng.integers(4, 9))
        pts = np.cumsum(rng.uniform(0.4, 2.0, size=n))
        space = line_space(pts)
        metric = ClassicalQuantumMetric(space)
        keep = sorted(rng.choice(n, size=int(rng.integers(2, n)), replace=False))
        sub = quotient_restrict(metric, [int(i) for i in keep])
        for r in (0.5, 1.0, 2.0):
            assert asdim_at_scale(sub.space, r).value <= \
                asdim_at_scale(space, r).value
    report(9, "asdim-at-scale: direct sums attain the max of summands and "
              "restrictions never exceed the ambient value (exhaustive, "
              "|X| <= 8, three radii)")


# ---------------------------------------------------------------------------
# 10. counting certificate on n = 32 expanders


def test_criterion_10_counting_certificate(expander_set):
    spec, metric = next((s, m) for s, m in expander_set if s.n == 32)
    eps_prime = growth_constant(spectral_gap(spec.kraus()).epsilon)
    n = 32
    refuted = 0
    attempts = 0
    kinds = set()
    for trial in range(50):
        rng = rng_for(10_000, trial)
        style = trial % 3
        if style == 0:
            # orthogonal decomposition into q rank-(n/q) members, few colors
            q = int(rng.choice([4, 8, 16]))
            u = haar_unitary(n, rng)
            members = [Projection(n, u[:, i * (n // q):(i + 1) * (n // q)])
                       for i in range(q)]
            n_colors = int(rng.integers(1, 3))
            colors = [members[c::n_colors] for c in range(n_colors)]
            fam = CoverFamily("quantum", colors, r=1.0, R=10.0)
        elif style == 1:
            # covering holds but a member's diameter bound is refuted:
            # claim R = 0 for members that provably have diameter >= 1
            u = haar_unitary(n, rng)
            members = [Projection(n, u[:, i * 8:(i + 1) * 8]) for i in range(4)]
            colors = [[m] for m in members]
            fam = CoverFamily("quantum", colors, r=1.0, R=0.0)
        else:
            # covering failure: drop part of the decomposition
            u = haar_unitary(n, rng)
            members = [Projection(n, u[:, i * 8:(i + 1) * 8]) for i in range(3)]
            fam = CoverFamily("quantum", [members], r=1.0, R=10.0)
        m = 2
        while (1 + eps_prime) ** m - 1 <= fam.n_colors - 1:
            m += 1
        cert = certify_counting(spec, fam, delta=1.5, m=m, metric=metric)
        attempts += 1
        assert cert.parameter_condition
        assert not cert.contradiction
        located = {f["kind"] for f in cert.failures}
        assert located & {"covering", "disjointness", "boundedness"}, \
            (trial, cert.failures)
        kinds |= located
        refuted += 1
    assert attempts == 50 and refuted == 50
    assert {"covering", "disjointness", "boundedness"} <= kinds
    report(10, "all 50 adversarial cover attempts on the n=32 expander are "
               "refuted with a concrete located failure "
               f"(kinds seen: {sorted(kinds)})")


# ---------------------------------------------------------------------------
# 11. neighborhood laws, both backends


def test_criterion_11_neighborhood_laws(expander_set):
    # quantum backend: a connected expander and a disconnected block channel
    spec8 = next(s for s, _ in expander_set if s.n == 8)
    metric8 = next(m for s, m in expander_set if s.n == 8)
    rngb = rng_for(11_111)
    blocks = []
    for _ in range(2):
        k = np.zeros((6, 6), dtype=complex)
        k[:3, :3] = haar_unitary(3, rngb) / np.sqrt(2)
        k[3:, 3:] = haar_unitary(3, rngb) / np.sqrt(2)
        blocks.append(k)
    metric_blocks = graph_metric(KrausSet(blocks))

    for tag, metric in (("expander", metric8), ("blocks", metric_blocks)):
        n = metric.n
        top = metric.m_stab + 1.5
        for t in range(500):
            rng = rng_for(11_000, n, t)
            p = random_projection(n, rng, max_rank=n - 1)
            q = random_projection(n, rng, max_rank=n - 1)
            r = float(rng.uniform(0.05, top))
            nb = metric.neighborhood(p, r)
            touches = proj_product_nonzero(nb, q)
            assert touches == (metric.dist(p, q).value < r), (tag, t)
        for t in range(120):
            rng = rng_for(11_500, n, t)
            p = random_projection(n, rng, max_rank=n - 1)
            eps = float(rng.uniform(0.05, top))
            delta = float(rng.uniform(0.05, top))
            inner = metric.neighborhood(metric.neighborhood(p, eps), delta)
            outer = metric.neighborhood(p, eps + delta)
            assert range_containment_residual(inner, outer) <= 1e-9
            assert metric.neighborhood(p, eps).rank >= p.rank
            if eps <= 1.0:
                assert metric.neighborhood(p, eps).rank == p.rank

    # classical backend
    for t in range(500):
        rng = rng_for(11_900, t)
        n = int(rng.integers(2, 7))
        pts = np.cumsum(rng.uniform(0.3, 2.0, size=n))
        metric = ClassicalQuantumMetric(line_space(pts))
        s = tuple(int(i) for i in
                  rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        q = tuple(int(i) for i in
                  rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        r = float(rng.uniform(0.05, float(pts[-1] - pts[0]) + 1.0))
        touches = bool(set(metric.neighborhood(s, r)) & set(q))
        assert touches == (metric.dist(s, q).value < r)
        eps = float(rng.uniform(0.1, 3.0))
        delta = float(rng.uniform(0.1, 3.0))
        inner = metric.neighborhood(metric.neighborhood(s, eps), delta)
        assert set(inner) <= set(metric.neighborhood(s, eps + delta))
    report(11, "(P)_r Q != 0 iff dist(P,Q) < r and ((P)_e)_d <= (P)_{e+d} on "
               ">= 500 sampled triples per backend, zero violations")
