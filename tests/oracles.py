"""Operator-level oracles for the classical backend.

``ClassicalQuantumMetric`` answers distance and neighborhood questions by set
arithmetic.  The routes here answer them through the operator picture
instead: the support-pattern subspace V_t = span{E_xy : d(x, y) <= t} at each
realized threshold t, its compressions P* B Q and its range images.  Tests
check that the two routes agree exactly.
"""

import numpy as np

from qcoarse.matcore import OperatorSubspace, Projection, image_range_projection
from qcoarse.qmetric import (
    ClassicalQuantumMetric,
    ExtendedDistance,
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
    return Projection.onto_subset(metric.n, metric._subset(s))


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
        return metric._subset(s)
    sub = materialize_vt(metric, max(below))
    out = image_range_projection(sub, p, metric.tol)
    return projection_to_subset(out, metric.tol)
