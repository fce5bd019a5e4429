"""Quantum metrics at desk scale.

Two concrete constructions and their projection-level geometry:

* the integer-valued metric a trace-preserving Kraus set induces on the
  n x n matrix algebra (distances counted in powers of the operator system
  spanned by {K_j* K_i});
* the canonical metric a finite classical metric space induces on its
  diagonal algebra, where projections are subsets and everything is exact
  set arithmetic.

Members are projections for the first and sorted index tuples for the
second.  Both answer one protocol, so callers never test a metric's type:

* ``n``, ``tol`` and ``backend`` ("quantum" or "classical");
* ``dist``, ``neighborhood``, ``diam_bracket``, ``overlaps``, ``join`` and
  ``covering`` of members;
* ``from_subset`` and ``from_projection``: an index set or a projection on
  C^n as a member;
* ``embed`` and ``direct_sum``: a summand's member in a direct sum, and the
  sum itself.

Distances carry an explicit +infinity variant for disconnected situations.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .matcore import (
    DEFAULT_TOL,
    OperatorSubspace,
    Projection,
    SubspacePowers,
    ToleranceConfig,
    as_complex_matrix,
    full_rank_certified,
    image_range_projection,
    proj_join,
    proj_product_nonzero,
    subspace_from_spanning,
)

__all__ = [
    "ExtendedDistance",
    "KrausSet",
    "GraphQuantumMetric",
    "graph_metric",
    "FiniteMetricSpace",
    "ClassicalQuantumMetric",
    "DirectSumMetric",
    "direct_sum",
    "quotient_restrict",
    "m_star_for_radius",
    "projection_to_subset",
]

@dataclass(frozen=True, order=True)
class ExtendedDistance:
    """Nonnegative distance value with an explicit +infinity."""

    value: float

    def __post_init__(self) -> None:
        if not self.value >= 0.0:
            raise ValueError("distance must be nonnegative")

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value)

    @classmethod
    def of(cls, value: float) -> "ExtendedDistance":
        return cls(float(value))

    @classmethod
    def infinite(cls) -> "ExtendedDistance":
        return cls(math.inf)

    def __repr__(self) -> str:
        return f"ExtendedDistance({'inf' if not self.finite else self.value})"


def m_star_for_radius(eps: float) -> int:
    """Largest integer strictly below eps; the power index serving radius eps.

    For the integer-valued graph metric, dist(P, Q) < eps is equivalent to
    dist(P, Q) <= m_star_for_radius(eps).  An infinite radius admits every
    finite distance, so it serves an index past the end of every walk.
    """
    if not eps > 0:  # NaN included
        raise ValueError("radius must be positive")
    if math.isinf(eps):
        return sys.maxsize
    m = math.floor(eps)
    if m == eps:
        m -= 1
    return max(m, 0)


class KrausSet:
    """A CPTP map on the n x n matrices, given by its Kraus matrices.

    Instances are immutable after construction; the residuals are computed at
    construction and the contraction (``expander.spectral_gap``) on first use.
    """

    __slots__ = ("n", "ops", "tp_residual", "unital_residual", "tol",
                 "_contraction")

    def __init__(self, ops: Sequence, tol: ToleranceConfig = DEFAULT_TOL):
        mats = [as_complex_matrix(k, square=True) for k in ops]
        if not mats:
            raise ValueError("a Kraus set needs at least one matrix")
        n = mats[0].shape[0]
        if n == 0:
            raise ValueError("Kraus matrices must be at least 1 x 1")
        for k in mats:
            if k.shape != (n, n):
                raise ValueError("all Kraus matrices must share one dimension")
        self.n = n
        self.ops = mats
        eye = np.eye(n)
        self.tp_residual = float(
            np.linalg.norm(sum(k.conj().T @ k for k in mats) - eye))
        self.unital_residual = float(
            np.linalg.norm(sum(k @ k.conj().T for k in mats) - eye))
        self.tol = tol
        self._contraction: float | None = None

    @property
    def trace_preserving(self) -> bool:
        return self.tp_residual <= self.tol.zero_atol

    @property
    def unital(self) -> bool:
        return self.unital_residual <= self.tol.zero_atol

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128)
        return sum(k @ x @ k.conj().T for k in self.ops)

    def apply_adjoint(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128)
        return sum(k.conj().T @ x @ k for k in self.ops)

    def __repr__(self) -> str:
        return (f"KrausSet(n={self.n}, N={len(self.ops)}, "
                f"tp={self.trace_preserving}, unital={self.unital})")


class GraphQuantumMetric:
    """Integer-valued quantum metric induced by a trace-preserving Kraus set.

    Distance 0 means overlapping ranges; distance m >= 1 means the m-th power
    of the Kraus operator system links the two projections and no smaller
    power does; +infinity means no power ever links them.

    Members are projections, and the metric answers the module's protocol;
    its diameters are certified lower bounds.  Every rank and zero decision
    uses the Kraus set's tolerance, ``self.tol``.
    """

    backend = "quantum"

    def __init__(self, kraus: KrausSet):
        if not kraus.trace_preserving:
            raise ValueError(
                "Kraus set is not trace preserving "
                f"(residual {kraus.tp_residual:.3e} > {kraus.tol.zero_atol:.1e})")
        self.kraus = kraus
        self.tol = kraus.tol
        self.n = kraus.n
        prods = [kj.conj().T @ ki for kj in kraus.ops for ki in kraus.ops]
        self.v1 = subspace_from_spanning(prods, self.tol)
        if self.v1.dim == 0:
            raise ValueError(
                f"the rank cutoff (rank_rtol {self.tol.rank_rtol:g}) leaves "
                "V1 = span{K_j* K_i} empty")
        self.powers = SubspacePowers(self.v1, self.tol)

    @property
    def m_stab(self) -> int:
        return self.powers.m_stab

    def power(self, m: int) -> OperatorSubspace:
        return self.powers.power(m)

    def _check_projection(self, p: Projection) -> None:
        if p.n != self.n:
            raise ValueError("projection lives in the wrong ambient dimension")
        if p.rank == 0:
            raise ValueError("distance is undefined for the zero projection")

    def walk(self, p: Projection) -> Iterator[Projection]:
        """S_0 = P, S_1, S_2, ... with S_{m+1} = range(V1 S_m) = range(V_{m+1} P).

        The walk stays in C^n and builds no power of V1.  V1 contains I for a
        trace-preserving Kraus set, so the ranges nest; it ends at rank n or
        at the first step whose rank does not grow, from which S_m stays put.
        Each S_m is computed only when the caller asks for it.
        """
        self._check_projection(p)
        s = p
        yield s
        while s.rank < self.n:
            nxt = image_range_projection(self.v1, s, self.tol)
            if nxt.rank <= s.rank:
                return
            s = nxt
            yield s

    def dist(self, p: Projection, q: Projection) -> ExtendedDistance:
        """0 if ||P* Q||_F > zero_atol, else the least m >= 1 with
        sqrt(sum_B ||P* B S_{m-1}||_F^2) > zero_atol, B over an orthonormal
        basis of V1 and S_{m-1} = range(V_{m-1} Q) in an orthonormal basis,
        else +inf.

        The total is zero exactly when range(P) is orthogonal to
        range(V_m Q) = V1 S_{m-1}, which is when V_m does not link P and Q.
        It is the Hilbert-Schmidt norm of the map X -> P* X S_{m-1} on V1,
        so it does not depend on either stored basis; at m = 1 it is that
        norm on V1 of X -> P* X Q.  The test reads V1's image of S_{m-1}
        before it is orthonormalized into S_m, which the walk does only if
        the test fails.
        """
        self._check_projection(p)
        self._check_projection(q)
        atol = self.tol.zero_atol
        if float(np.linalg.norm(p.range_basis.conj().T @ q.range_basis)) > atol:
            return ExtendedDistance.of(0.0)
        p_v1 = p.range_basis.conj().T @ self.v1.basis  # P* B for B in V1
        for m, s in enumerate(self.walk(q), start=1):
            if float(np.linalg.norm(p_v1 @ s.range_basis)) > atol:
                return ExtendedDistance.of(float(m))
        return ExtendedDistance.infinite()

    def neighborhood(self, p: Projection, eps: float) -> Projection:
        """The open eps-neighborhood range(V_m P), m = m_star_for_radius(eps),
        as the walk's S_m: P itself when m = 0, and the last range of the
        walk once it has stopped growing."""
        steps = m_star_for_radius(eps)
        for m, s in enumerate(self.walk(p)):
            if m == steps:
                break
        return s

    def diam_graph_proxy(self, p: Projection) -> ExtendedDistance:
        """Least k whose power links everything through p: a diameter lower bound.

        Returns the least k with dim span{P B P : B basis of power k} equal to
        rank(P)^2, or +infinity when the compressed dimension stabilizes short.
        A power of dimension below rank(P)^2 cannot span and is skipped, and
        one of dimension n^2 spans with no SVD, since P M_n P = M_rank(P).
        Any other power spans when :func:`full_rank_certified` proves its
        stack of compressions to have full column rank, and otherwise by the
        stack's SVD rank.
        """
        self._check_projection(p)
        target = p.rank * p.rank

        def spans_corner(v: OperatorSubspace) -> bool:
            if v.dim < target:
                return False
            if v.dim == self.n * self.n:
                return True
            rb = p.range_basis
            rows = ((rb.conj().T @ v.basis) @ rb).reshape(v.dim, target)
            if full_rank_certified(rows, self.tol):
                return True
            s = np.linalg.svd(rows, compute_uv=False)
            return self.tol.rank(s, rows.shape) == target

        k = self.powers.first(spans_corner)
        return ExtendedDistance.infinite() if k is None else ExtendedDistance.of(float(k))

    def diam_lower_bound_sampled(self, p: Projection, trials: int,
                                 seed: int) -> ExtendedDistance:
        """Max distance over sampled rank-one pairs inside range(p).

        A certified lower bound for the diameter; deterministic in the seed.
        Deterministic probes pair up the stored range-basis columns, so an
        orthogonal pair is always examined when rank(p) >= 2.

        The probes are normalized as one array, and one contraction decides
        :meth:`dist`'s first two tests for every pair at once: distance 0
        when |u* v| > zero_atol, else 1 when the norm of u* B v over V1's
        basis B exceeds zero_atol.  Only the pairs left undecided are walked
        by :meth:`dist`.
        """
        self._check_projection(p)
        if trials < 1:
            raise ValueError("need at least one trial")
        rb = p.range_basis
        probe_pairs = [(i, j) for i in range(p.rank) for j in range(i + 1, p.rank)]
        us = [rb[:, i] for i, _ in probe_pairs[:64]]
        vs = [rb[:, j] for _, j in probe_pairs[:64]]
        pmat = p.matrix()
        for t in range(trials):
            rng = np.random.default_rng([seed, t])
            g = rng.standard_normal((self.n, 2)) + 1j * rng.standard_normal((self.n, 2))
            u = pmat @ g[:, 0]
            v = pmat @ g[:, 1]
            if t % 2 == 1 and p.rank >= 2:
                w = v - u * (np.vdot(u, v) / np.vdot(u, u))
                if np.linalg.norm(w) > 1e-12:
                    v = w
            us.append(u)
            vs.append(v)
        u = np.stack(us, axis=1)
        v = np.stack(vs, axis=1)
        u /= np.linalg.norm(u, axis=0)
        v /= np.linalg.norm(v, axis=0)
        atol = self.tol.zero_atol
        apart = np.abs(np.sum(u.conj() * v, axis=0)) <= atol
        linked = np.linalg.norm(np.sum(u.conj() * (self.v1.basis @ v), axis=1), axis=0)
        best = ExtendedDistance.of(float(np.any(apart)))
        for k in np.flatnonzero(apart & (linked <= atol)):
            best = max(best, self.dist(Projection(self.n, u[:, [k]]),
                                       Projection(self.n, v[:, [k]])))
        return best

    def overlaps(self, a: Projection, b: Projection) -> bool:
        """Whether ||A B||_F exceeds the zero threshold."""
        return proj_product_nonzero(a, b, self.tol)

    def join(self, members) -> Projection:
        return proj_join(list(members), n=self.n, tol=self.tol)

    def covering(self, members) -> tuple[bool, int | None]:
        """(join is the identity?, rank of the join when it is not)."""
        rank = self.join(members).rank
        return (True, None) if rank == self.n else (False, rank)

    def diam_bracket(self, p: Projection) -> tuple[float, bool]:
        """(k0 of :meth:`diam_graph_proxy`, False): a certified lower bound,
        never exact.  No sampled pair can raise it, since P V_k0 P =
        M_rank(P) links every pair of vectors in range P."""
        return self.diam_graph_proxy(p).value, False

    def from_subset(self, idx) -> Projection:
        """The projection onto the basis vectors idx."""
        return Projection.onto_subset(self.n, idx)

    def from_projection(self, p: Projection) -> Projection:
        return p

    def embed(self, p: Projection, offset: int) -> Projection:
        """A summand's projection, its range moved to rows offset onward."""
        rows = (offset, self.n - offset - p.n)
        return Projection(self.n, np.pad(p.range_basis, (rows, (0, 0))))

    def direct_sum(self, other: "GraphQuantumMetric") -> "GraphQuantumMetric":
        """The metric of the block Kraus set {K_i (+) 0} u {0 (+) L_j}."""
        ops = ([np.pad(k, (0, other.n)) for k in self.kraus.ops]
               + [np.pad(k, (self.n, 0)) for k in other.kraus.ops])
        return GraphQuantumMetric(KrausSet(ops, self.tol))


def graph_metric(kraus: KrausSet) -> GraphQuantumMetric:
    return GraphQuantumMetric(kraus)


def _as_distance_matrix(d) -> np.ndarray:
    arr = np.asarray(d, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("distance matrix must be square")
    return arr


class FiniteMetricSpace:
    """Finite point set with a distance matrix.

    Off-diagonal entries may be +infinity, encoding points in different
    components (direct sums, disconnected graphs).  Validation is exhaustive.
    """

    __slots__ = ("labels", "d")

    def __init__(self, labels: Sequence[str], d):
        self.labels = tuple(str(x) for x in labels)
        self.d = _as_distance_matrix(d)
        n = len(self.labels)
        if self.d.shape != (n, n):
            raise ValueError("labels and distance matrix disagree in size")
        if len(set(self.labels)) != n:
            raise ValueError("labels must be distinct")
        if np.any(np.isnan(self.d)):
            raise ValueError("distance matrix contains NaN")
        if np.any(np.diag(self.d) != 0.0):
            raise ValueError("distances to self must be zero")
        if not np.array_equal(self.d, self.d.T):
            raise ValueError("distance matrix must be symmetric")
        off = ~np.eye(n, dtype=bool)
        if np.any(self.d[off] <= 0.0):
            raise ValueError("distinct points must be at positive distance")
        for k in range(n):
            if np.any(self.d > self.d[:, [k]] + self.d[[k], :] + 1e-9):
                raise ValueError(f"triangle inequality fails through point {k}")

    @property
    def n(self) -> int:
        return len(self.labels)

    def realized_distances(self) -> list[float]:
        """Sorted distinct finite values of the metric (0 included)."""
        vals = self.d[np.isfinite(self.d)]
        return sorted(set(float(v) for v in vals))

    @classmethod
    def from_adjacency(cls, labels: Sequence[str], adjacency) -> "FiniteMetricSpace":
        """Shortest-path (hop-count) metric of an undirected simple graph."""
        a = np.asarray(adjacency)
        n = a.shape[0]
        d = np.full((n, n), np.inf)
        for s in range(n):
            d[s, s] = 0.0
            frontier = [s]
            level = 0
            while frontier:
                level += 1
                nxt = []
                for u in frontier:
                    for v in np.nonzero(a[u])[0]:
                        if not np.isfinite(d[s, v]):
                            d[s, v] = level
                            nxt.append(int(v))
                frontier = nxt
        return cls(labels, d)


def projection_to_subset(p: Projection, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[int, ...]:
    """Read a diagonal 0/1 projection as a subset; reject anything else."""
    m = p.matrix()
    diag = np.real(np.diag(m)).copy()
    off = m - np.diag(np.diag(m))
    rounded = np.round(diag)
    if (np.linalg.norm(off) > tol.zero_atol
            or np.any(np.abs(diag - rounded) > tol.zero_atol)
            or not set(np.unique(rounded)) <= {0.0, 1.0}):
        raise ValueError("projection is not a diagonal 0/1 projection; "
                         "the classical backend only accepts subsets")
    return tuple(int(i) for i in np.nonzero(rounded == 1.0)[0])


class ClassicalQuantumMetric:
    """Canonical quantum metric of a finite classical metric space.

    Members are subsets, and the metric answers the module's protocol by
    exact set arithmetic; ``tol`` serves ``from_projection``.
    """

    backend = "classical"

    def __init__(self, space: FiniteMetricSpace,
                 tol: ToleranceConfig = DEFAULT_TOL):
        self.space = space
        self.tol = tol
        self.n = space.n

    def from_subset(self, idx) -> tuple[int, ...]:
        """The sorted tuple of the distinct points idx."""
        si = tuple(sorted(set(int(i) for i in idx)))
        if si and (si[0] < 0 or si[-1] >= self.n):
            raise ValueError("subset index out of range")
        return si

    def from_projection(self, p: Projection) -> tuple[int, ...]:
        if p.n != self.n:
            raise ValueError("projection lives in the wrong ambient dimension")
        return projection_to_subset(p, self.tol)

    def embed(self, s, offset: int) -> tuple[int, ...]:
        """A summand's subset, its points moved up by offset."""
        return self.from_subset(i + offset for i in s)

    def direct_sum(self, other: "ClassicalQuantumMetric") -> "ClassicalQuantumMetric":
        """Disjoint union with +infinity cross-distances."""
        d = np.pad(self.space.d, (0, other.n), constant_values=np.inf)
        d[self.n:, self.n:] = other.space.d
        labels = ([f"0:{x}" for x in self.space.labels]
                  + [f"1:{x}" for x in other.space.labels])
        return ClassicalQuantumMetric(FiniteMetricSpace(labels, d), self.tol)

    def dist(self, s, t) -> ExtendedDistance:
        si, ti = self.from_subset(s), self.from_subset(t)
        if not si or not ti:
            raise ValueError("distance is undefined for the empty subset")
        val = float(np.min(self.space.d[np.ix_(si, ti)]))
        return ExtendedDistance.of(val) if math.isfinite(val) else ExtendedDistance.infinite()

    def neighborhood(self, s, eps: float) -> tuple[int, ...]:
        if not eps > 0:  # NaN included
            raise ValueError("radius must be positive")
        si = self.from_subset(s)
        if not si:
            return ()
        dmin = np.min(self.space.d[:, si], axis=1)
        return tuple(int(i) for i in np.nonzero(dmin < eps)[0])

    def diam(self, s) -> float:
        """Largest pairwise distance inside the subset; 0 for empty/singletons."""
        si = self.from_subset(s)
        if len(si) <= 1:
            return 0.0
        return float(np.max(self.space.d[np.ix_(si, si)]))

    def overlaps(self, a, b) -> bool:
        """Whether two subsets share a point."""
        return not set(a).isdisjoint(b)

    def join(self, members) -> tuple[int, ...]:
        return tuple(sorted(set().union(*members)))

    def covering(self, members) -> tuple[bool, tuple[int, ...]]:
        """(union is everything?, the points it misses)."""
        missing = tuple(sorted(set(range(self.n)) - set(self.join(members))))
        return not missing, missing

    def diam_bracket(self, s) -> tuple[float, bool]:
        """(diameter, True): classical diameters are exact."""
        return self.diam(s), True


@dataclass(frozen=True)
class DirectSumMetric:
    """Direct sum of two metrics of the same backend, with block embeddings:
    ``metric`` is the sum, and the left summand's size places the right one."""

    metric: object
    left_size: int
    right_size: int

    def embed_left(self, member):
        return self.metric.embed(member, 0)

    def embed_right(self, member):
        return self.metric.embed(member, self.left_size)


def direct_sum(m1, m2) -> DirectSumMetric:
    """Direct sum of two graph metrics or two classical metrics.

    Each metric builds its own sum (``direct_sum`` of the protocol), whose
    cross-block distances are +infinity.  Both metrics must carry the same
    tolerance, which the sum inherits.
    """
    if m1.tol != m2.tol:
        raise ValueError("direct sum needs two metrics with the same tolerance")
    if m1.backend != m2.backend:
        raise ValueError("direct sum needs two metrics of the same backend")
    return DirectSumMetric(m1.direct_sum(m2), m1.n, m2.n)


def quotient_restrict(metric: ClassicalQuantumMetric, s) -> ClassicalQuantumMetric:
    """Restriction to a nonempty subset with the induced metric."""
    si = metric.from_subset(s)
    if not si:
        raise ValueError("cannot restrict to the empty subset")
    labels = [metric.space.labels[i] for i in si]
    return ClassicalQuantumMetric(
        FiniteMetricSpace(labels, metric.space.d[np.ix_(si, si)]), metric.tol)
