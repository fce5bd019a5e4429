"""Spectral gap, Cheeger quantity, connectivity, and expander verifiers.

The spectral gap of a trace-preserving channel is one minus the largest
singular value of its superoperator compressed to the trace-orthogonal
complement of the identity.  That largest singular value (the contraction
lambda) gives the guaranteed lower bound (1 - lambda)/2 on the Cheeger
quantity of a unital channel.  The vertex-isoperimetric rank inequality
checked here rests on the same contraction through ||F(P)||^2 <=
k^2/n + lambda^2 (k - k^2/n) for a rank-k projection P, which gives the
growth constant (1 - lambda^2)/2 (see ``growth_constant``).

The compression is taken in a real orthonormal basis of the traceless
Hermitian matrices, where every CP map is a real (n^2-1) x (n^2-1) matrix
R0; lambda^2 is the top eigenvalue of the symmetric R0^T R0.  With four
Kraus operators and one OpenBLAS thread on a 2-vCPU Xeon VM this takes about
0.007 s at n = 16, 0.2 s at n = 32 and 1.8 s at n = 48.  The cost is paid once
per Kraus set: the contraction is kept on the ``KrausSet`` it was measured
on, so the Cheeger audit, the rank-growth checks and the counting
certificate reuse it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator

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
    m_star_for_radius,
)

__all__ = [
    "GapReport",
    "spectral_gap",
    "channel_superoperator",
    "cheeger_quantity",
    "cheeger_lower_bound",
    "CheegerAudit",
    "cheeger_audit",
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
    "rank_diameter_audit",
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
    since the Cheeger-type guarantees assume unitality.  Both checks run on
    every call; the contraction is computed once per Kraus set and kept on it.
    """
    if not kraus.trace_preserving:
        raise ValueError(
            f"channel is not trace preserving (residual {kraus.tp_residual:.3e})")
    if not kraus.unital:
        warnings.warn("channel is not unital; the gap is still the compressed "
                      "norm but Cheeger-type bounds do not apply", stacklevel=2)
    lam = kraus._contraction
    if lam is None:
        # lambda^2 is the top eigenvalue of the real symmetric Gram matrix.
        # Squaring costs the top singular value no accuracy (the Gram
        # matrix's rounding is relative to its norm, lambda^2), and at n = 32
        # the product and eigensolve take half the time of a values-only SVD
        # of r0 (0.21 s against 0.43 s).
        r0 = _hermitian_traceless_compression(kraus)
        lam = (float(np.sqrt(max(np.linalg.eigvalsh(r0.T @ r0)[-1], 0.0)))
               if r0.size else 0.0)
        kraus._contraction = lam
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

    eps' = epsilon (1 - epsilon/2) = (1 - lambda^2)/2, lambda = 1 - epsilon
    the contraction on traceless matrices.  The proof needs a unital,
    trace-preserving channel F, rank P = k <= n/2 and delta > 1.  Then
    0 <= F*F(P) <= I and F*F(P) is supported in (P)_delta (delta > 1 reaches
    the first power of the operator system), so

        rank((P)_delta) - k >= tr((I - P) F*F(P)) = k - ||F(P)||^2
                            >= (1 - lambda^2)(k - k^2/n) >= k (1 - lambda^2)/2,

    where ||F(P)||^2 <= k^2/n + lambda^2 (k - k^2/n) splits P into its
    multiple of I, which F fixes, and its traceless part, which F contracts
    by lambda.
    """
    return epsilon * (1.0 - epsilon / 2.0)


def _unital_gap(kraus: KrausSet) -> float:
    """The measured gap of a channel that growth_constant's proof covers."""
    if not kraus.unital:
        raise ValueError(
            "the rank-growth constant is proven for unital channels only "
            f"(unital residual {kraus.unital_residual:.3e})")
    return spectral_gap(kraus).epsilon


@dataclass
class CheegerAudit:
    """Sampled (and optionally diagonal) Cheeger quantities against the bound.

    ``exhaustive_diagonal`` is None unless the diagonal scan ran; it then
    holds the scan's ``min`` and ``violations``, which are also counted in
    ``violations``.
    """

    epsilon: float
    cheeger_lower_bound: float
    bound_applies: bool
    trials: int
    min_sampled: float | None
    violations: int
    exhaustive_diagonal: dict | None


def cheeger_audit(kraus: KrausSet, trials: int, seed: int,
                  exhaustive_diagonal: bool = False) -> CheegerAudit:
    """Cheeger quantity of sampled projections against (1 - lambda)/2.

    The bound applies when the measured gap exceeds the Kraus set's zero_atol;
    a value below it by more than zero_atol is a violation.  The diagonal
    scan adds every coordinate projection of rank <= n/2 and is capped at
    n = 20.
    """
    n = kraus.n
    if exhaustive_diagonal and n > 20:
        raise ValueError("exhaustive diagonal scan is capped at n = 20")
    rep = spectral_gap(kraus)
    bound = cheeger_lower_bound(rep)
    applies = rep.epsilon > kraus.tol.zero_atol

    def count_violations(values) -> int:
        return sum(applies and v < bound - kraus.tol.zero_atol for v in values)

    values = [cheeger_quantity(kraus, p)
              for p in _sampled_projections(n, seed, trials)]
    violations = count_violations(values)
    exhaustive = None
    if exhaustive_diagonal:
        subsets = ([i for i in range(n) if mask >> i & 1] for mask in range(1, 1 << n))
        ex = [cheeger_quantity(kraus, Projection.onto_subset(n, idx))
              for idx in subsets if len(idx) <= n // 2]
        exhaustive = {"min": min(ex, default=None), "violations": count_violations(ex)}
        violations += exhaustive["violations"]
    return CheegerAudit(
        epsilon=rep.epsilon, cheeger_lower_bound=bound, bound_applies=applies,
        trials=trials, min_sampled=min(values) if values else None,
        violations=violations, exhaustive_diagonal=exhaustive)


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
    n = v1.n
    if not (v1.contains(np.eye(n), tol)
            and all(v1.contains(b.conj().T, tol) for b in v1.basis)):
        warnings.warn("connectivity assumes a self-adjoint operator system "
                      "containing the identity", stacklevel=2)
    powers = SubspacePowers(v1, tol)
    m_star = powers.first(lambda v: v.dim == n * n)
    comm = commutant(list(v1.basis), tol)
    if (m_star is not None) != (comm.dim == 1):
        raise ArithmeticError(
            "connectivity criteria disagree (power stabilization at "
            f"dim {powers.dims[-1]} vs commutant dim {comm.dim}); "
            "this indicates a tolerance problem")
    if m_star is not None:
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


def _sampled_projections(n: int, seed: int, trials: int) -> Iterator[Projection]:
    """random_projection(n, default_rng([seed, t])) for each trial t: the one
    projection stream of every sampled verifier."""
    for t in range(trials):
        yield random_projection(n, np.random.default_rng([seed, t]))


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
        """Raise ValueError naming the failing field, e.g. ``unitaries[2]: ...``."""
        if self.d != len(self.unitaries):
            raise ValueError("d: does not match the number of unitaries")
        # a gap is 1 - lambda, lambda in [0, 1]; zero_atol allows for rounding
        if not -self.tol.zero_atol <= self.epsilon <= 1.0:
            raise ValueError("epsilon: expected a gap in [0, 1]")
        eye = np.eye(self.n)
        for i, u in enumerate(self.unitaries):
            if np.linalg.norm(u.conj().T @ u - eye) > self.tol.zero_atol:
                raise ValueError(
                    f"unitaries[{i}]: matrix is not unitary within tolerance")
        k = self.kraus()
        if not (k.trace_preserving and k.unital):
            raise ValueError("unitaries: induced Kraus set must be unital and TP")


def random_expander(n: int, d: int, seed: int,
                    tol: ToleranceConfig = DEFAULT_TOL) -> ExpanderSpec:
    """d Haar-random unitaries on C^n with the measured gap attached; d = 2
    always has gap 0, since W = U_1* U_2 is a fixed point of Phi* Phi."""
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


# a stub-matching draw is simple with probability about exp((1 - d^2)/4):
# 1.5% at d = 4, so 400 draws (about 0.02 ms each at n = 20) miss a 4-regular
# graph for about 0.3% of seeds, and d = 3 never in practice
_REGULAR_GRAPH_RETRIES = 400


def random_regular_graph(n: int, d: int, seed: int) -> RegularGraph:
    """Random d-regular simple graph by stub matching, resampled on collisions.

    Shortest-path metric and the classical spectral gap are attached.
    """
    if (n * d) % 2 != 0:
        raise ValueError("n*d must be even")
    if not 0 < d < n:
        raise ValueError("need 0 < d < n")
    rng = np.random.default_rng([seed, n, d])
    for _ in range(_REGULAR_GRAPH_RETRIES):
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
        f"no simple {d}-regular graph found in {_REGULAR_GRAPH_RETRIES} "
        f"retries (seed {seed})")


def cycle_graph(n: int) -> RegularGraph:
    if n < 3:
        raise ValueError("need n >= 3 (a smaller cycle is not 2-regular)")
    a = np.zeros((n, n), dtype=int)
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1
    return _graph_from_adjacency(a, 2)


def complete_graph(n: int) -> RegularGraph:
    if n < 2:
        raise ValueError("need n >= 2")
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
        return self.violations == 0


def _check_same_dimension(spec: ExpanderSpec,
                          metric: GraphQuantumMetric) -> None:
    if metric.n != spec.n:
        raise ValueError(f"the metric acts on C^{metric.n} but the expander "
                         f"spec on C^{spec.n}; they must share one dimension")


def verify_isoperimetric(spec: ExpanderSpec, delta: float, trials: int,
                         seed: int,
                         metric: GraphQuantumMetric | None = None) -> IsoperimetricReport:
    """Sampled check of rank((P)_delta) >= (1 + eps') rank(P), rank(P) <= n/2.

    A violation is a sampled P whose ``iterated_isoperimetric`` chain at
    m = 1 breaks, with eps' = growth_constant of the spec's recorded gap.
    Every trial whose chain neighborhood (P)_delta = range(V_{m*} P) has a
    nonzero complement C counts as an orthogonality pair, and the proof
    step <F(P), F(C)> = sum_ij ||C K_j* K_i P||_F^2 = 0 is checked: it holds
    by construction, since C is orthogonal to range(V_1 P), so a nonzero
    value is a tolerance fault and raises ArithmeticError.  Such a C is at
    distance >= m* + 1 >= delta from P, which needs no walk.  The metric
    (by default ``graph_metric(spec.kraus())``) supplies the Kraus set and
    the tolerance.
    """
    if not delta > 1:
        raise ValueError("the rank inequality needs delta > 1")
    if trials < 1:
        raise ValueError("need at least one trial")
    n = spec.n
    if n < 2:
        raise ValueError(f"need n >= 2 for 0 < rank(P) <= n/2, got n = {n}")
    if metric is None:
        metric = graph_metric(spec.kraus())
    _check_same_dimension(spec, metric)
    kraus, tol = metric.kraus, metric.tol
    eps_prime = growth_constant(spec.epsilon)
    violations = orth_pairs = 0
    min_ratio = np.inf
    for t, p in enumerate(_sampled_projections(n, seed, trials)):
        chain = _growth_chain(metric, p, delta, 1, eps_prime)
        violations += chain.status == "inequality_failure"
        min_ratio = min(min_ratio, chain.neighborhood.rank / p.rank)
        comp = chain.neighborhood.complement()
        if comp.rank > 0:
            orth_pairs += 1
            overlap = abs(hs_inner(kraus.apply(p.matrix()),
                                   kraus.apply(comp.matrix())))
            if overlap > tol.zero_atol:
                raise ArithmeticError(
                    f"trial {t}: <F(P), F(C)> = {overlap!r} on the "
                    "complement C of (P)_delta, which is zero by "
                    "construction; this indicates a tolerance problem")
    return IsoperimetricReport(
        n=n, d=spec.d, epsilon=spec.epsilon, eps_prime=eps_prime,
        delta=delta, trials=trials, seed=seed, violations=violations,
        min_ratio=float(min_ratio), expander_ok=spec.epsilon > tol.zero_atol,
        orthogonality_pairs=orth_pairs, orthogonality_failures=0,
    )


@dataclass
class IteratedIsoperimetricReport:
    ok: bool
    status: str  # "ok" | "rank_cap_exceeded" | "inequality_failure"
    ranks: list[int]
    eps_prime: float
    delta: float
    neighborhood: Projection  # (P)_{m delta}


def iterated_isoperimetric(metric: GraphQuantumMetric, p: Projection,
                           delta: float, m: int) -> IteratedIsoperimetricReport:
    """Rank chain rank((P)_{k delta}) for k = 1..m with per-step growth check.

    (P)_{k delta} is the S of one pass of ``metric.walk(p)`` at step
    m_star_for_radius(k delta).  Each step must grow by (1 + eps'), eps' =
    growth_constant of the measured gap, up to zero_atol.  As m*(a + b) >=
    m*(a) + m*(b), on a unital channel the one-step theorem gives every step,
    so "inequality_failure" is a tolerance fault.  The chain stops with
    "rank_cap_exceeded" once a step starts above n/2 (the precondition); the
    walk still goes on to the report's neighborhood, (P)_{m delta}.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    if not delta > 1:
        raise ValueError("need delta > 1")
    return _growth_chain(metric, p, delta, m,
                         growth_constant(_unital_gap(metric.kraus)))


def _growth_chain(metric: GraphQuantumMetric, p: Projection, delta: float,
                  m: int, eps_prime: float) -> IteratedIsoperimetricReport:
    """iterated_isoperimetric's chain for a growth constant already measured."""
    walk = enumerate(metric.walk(p))
    at, s = next(walk)

    def reach(radius: float) -> Projection:  # the walk's S at radius
        nonlocal at, s
        while at < m_star_for_radius(radius) and (nxt := next(walk, None)):
            at, s = nxt  # None above: S stays put
        return s

    ranks, status = [p.rank], "ok"
    for k in range(1, m + 1):
        if ranks[-1] > metric.n / 2:
            status = "rank_cap_exceeded"
            break
        ranks.append(reach(k * delta).rank)
        if ranks[-1] < (1.0 + eps_prime) * ranks[-2] - metric.tol.zero_atol:
            status = "inequality_failure"
            break
    return IteratedIsoperimetricReport(status == "ok", status, ranks,
                                       eps_prime, delta, reach(m * delta))


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


def rank_diameter_audit(metric: GraphQuantumMetric, trials: int,
                        seed: int) -> list[RankDiameterReport]:
    """verify_rank_diameter on each sampled projection, one report per trial."""
    return [verify_rank_diameter(metric, p)
            for p in _sampled_projections(metric.n, seed, trials)]


# ---------------------------------------------------------------------------
# classical vertex expansion (set-arithmetic verifier)


# the exhaustive scan visits 2^n subsets: 0.6 s at n = 16, so about 10 s at
# n = 20; past that, callers pass the subsets to check
_EXPANSION_SCAN_CAP = 20


def classical_vertex_expansion(graph: RegularGraph, delta: float,
                               eps_prime: float,
                               subsets: list[tuple[int, ...]] | None = None) -> dict:
    """|{x : d(x,S) < delta}| >= (1 + eps') |S| over subsets with |S| <= n/2.

    Exhaustive over all subsets when n <= 20 and none are given.
    """
    from .qmetric import ClassicalQuantumMetric

    metric = ClassicalQuantumMetric(graph.space)
    n = graph.n
    if subsets is None:
        if n > _EXPANSION_SCAN_CAP:
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
