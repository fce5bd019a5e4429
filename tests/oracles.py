"""Second routes to the library's answers, kept as test oracles.

``ClassicalQuantumMetric`` answers distance and neighborhood questions by set
arithmetic.  The classical routes here answer them through the operator
picture instead: the support-pattern subspace V_t = span{E_xy : d(x, y) <= t}
at each realized threshold t, its compressions P* B Q and its range images.

``GraphQuantumMetric`` answers them by walking V1 over ranges in C^n.  The
graph routes here compress against the n^2-dimensional operator powers V_m
instead.  Its diameter proxy offers a certificate the compressions of each
power's first rank(P)^2 basis elements; the route here ranks the
compressions of every basis element by the SVD.  Its sampled diameter bound decides all probe pairs' first two
distance tests in one contraction; the route here calls ``dist`` once per
pair.  Tests check that each pair of routes agrees.
"""

import numpy as np

from qcoarse.matcore import (
    DEFAULT_TOL,
    OperatorSubspace,
    Projection,
    ToleranceConfig,
    image_range_projection,
    proj_join,
)
from qcoarse.qmetric import (
    ClassicalQuantumMetric,
    ExtendedDistance,
    GraphQuantumMetric,
    m_star_for_radius,
    projection_to_subset,
)


def materialize_vt(metric: ClassicalQuantumMetric, t: float) -> OperatorSubspace:
    """Support-pattern operator subspace span{E_xy : d(x, y) <= t}."""
    n = metric.n
    mask = metric.space.d <= t
    basis = np.zeros((int(mask.sum()), n, n), dtype=np.complex128)
    for b, (x, y) in enumerate(zip(*np.nonzero(mask))):
        basis[b, x, y] = 1.0
    return OperatorSubspace(n, basis)


def subset_projection(metric: ClassicalQuantumMetric, s) -> Projection:
    return Projection.onto_subset(metric.n, metric.from_subset(s))


def dist_via_materialized(metric: ClassicalQuantumMetric, s, t) -> ExtendedDistance:
    """Distance computed through actual operator compressions.

    Scans the realized thresholds in increasing order and returns the first
    at which some materialized basis element links the two subsets.
    """
    p = subset_projection(metric, s)
    q = subset_projection(metric, t)
    if p.rank == 0 or q.rank == 0:
        raise ValueError("distance is undefined for the empty subset")
    for tval in metric.space.realized_distances():
        sub = materialize_vt(metric, tval)
        compressions = (p.range_basis.conj().T @ sub.basis) @ q.range_basis
        if float(np.sum(np.abs(compressions) ** 2)) > metric.tol.zero_atol ** 2:
            return ExtendedDistance.of(tval)
    return ExtendedDistance.infinite()


def neighborhood_via_materialized(metric: ClassicalQuantumMetric, s,
                                  eps: float) -> tuple[int, ...]:
    """Neighborhood computed as the image of the materialized subspace."""
    if eps <= 0:
        raise ValueError("radius must be positive")
    p = subset_projection(metric, s)
    below = [t for t in metric.space.realized_distances() if t < eps]
    if not below:
        return metric.from_subset(s)
    sub = materialize_vt(metric, max(below))
    out = image_range_projection(sub, p, metric.tol)
    return projection_to_subset(out, metric.tol)


def dist_via_powers(metric: GraphQuantumMetric, p: Projection,
                    q: Projection) -> ExtendedDistance:
    """0 if ||P* Q||_F > zero_atol, else the least m >= 1 whose power V_m
    has sqrt(sum_B ||P* B Q||_F^2) > zero_atol over its orthonormal basis,
    else +inf once the powers stabilize."""
    atol = metric.tol.zero_atol
    if float(np.linalg.norm(p.range_basis.conj().T @ q.range_basis)) > atol:
        return ExtendedDistance.of(0.0)

    def links(v: OperatorSubspace) -> bool:
        compressions = (p.range_basis.conj().T @ v.basis) @ q.range_basis
        return float(np.linalg.norm(compressions)) > atol

    m = metric.powers.first(links, start=1)
    return ExtendedDistance.infinite() if m is None else ExtendedDistance.of(float(m))


def diam_proxy_whole_basis(metric: GraphQuantumMetric,
                           p: Projection) -> ExtendedDistance:
    """k0 as the least power V_k whose compressions P* B P, B over all of
    its basis, have SVD rank rank(P)^2, else +inf once the powers
    stabilize short."""
    rb = p.range_basis
    target = p.rank * p.rank

    def spans_corner(v: OperatorSubspace) -> bool:
        if v.dim < target:
            return False
        rows = ((rb.conj().T @ v.basis) @ rb).reshape(v.dim, target)
        s = np.linalg.svd(rows, compute_uv=False)
        return metric.tol.rank(s, rows.shape) == target

    k = metric.powers.first(spans_corner)
    return ExtendedDistance.infinite() if k is None else ExtendedDistance.of(float(k))


def neighborhood_via_powers(metric: GraphQuantumMetric, p: Projection,
                            eps: float) -> Projection:
    """range(V_m P) with m = m_star_for_radius(eps), from the power itself."""
    return image_range_projection(metric.power(m_star_for_radius(eps)), p, metric.tol)


def proj_meet(ps, n: int | None = None,
              tol: ToleranceConfig = DEFAULT_TOL) -> Projection:
    """Largest projection dominated by all of ps; the empty meet is I."""
    ps = list(ps)
    if not ps:
        if n is None:
            raise ValueError("meet of an empty family needs the ambient dimension")
        return Projection.identity(n)
    return proj_join([p.complement() for p in ps], tol=tol).complement()


def range_containment_residual(a: Projection, b: Projection) -> float:
    """||(I - B) A||_F; zero iff range(a) is contained in range(b)."""
    if a.n != b.n:
        raise ValueError("ambient mismatch")
    if a.rank == 0:
        return 0.0
    rej = a.range_basis - b.range_basis @ (b.range_basis.conj().T @ a.range_basis)
    return float(np.linalg.norm(rej))


def diam_lower_bound_sampled_per_pair(metric: GraphQuantumMetric, p: Projection,
                                      trials: int, seed: int) -> ExtendedDistance:
    """The sampled diameter bound with one full ``dist`` call per probe pair:
    the stored range-basis column pairs (at most 64), then ``trials`` seeded
    Gaussian pairs in range(p), every odd one orthogonalized."""
    best = ExtendedDistance.of(0.0)

    def rank_one(u: np.ndarray) -> Projection:
        return Projection(metric.n, (u / np.linalg.norm(u)).reshape(-1, 1))

    rb = p.range_basis
    probe_pairs = [(i, j) for i in range(p.rank) for j in range(i + 1, p.rank)]
    for i, j in probe_pairs[:64]:
        best = max(best, metric.dist(rank_one(rb[:, i]), rank_one(rb[:, j])))
    pmat = p.matrix()
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        g = rng.standard_normal((metric.n, 2)) + 1j * rng.standard_normal((metric.n, 2))
        u = pmat @ g[:, 0]
        v = pmat @ g[:, 1]
        if t % 2 == 1 and p.rank >= 2:
            w = v - u * (np.vdot(u, v) / np.vdot(u, u))
            if np.linalg.norm(w) > 1e-12:
                v = w
        best = max(best, metric.dist(rank_one(u), rank_one(v)))
    return best
