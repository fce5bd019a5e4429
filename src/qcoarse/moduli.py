"""Moduli of expansion and compression for maps between finite metric spaces.

Four moduli are tabulated exactly over all point pairs.  The subset
(projection-level) versions are evaluated by brute-force enumeration of all
subsets on small spaces; their exact agreement with the pointwise tables is
a verified invariant of the whole construction.

Conventions for empty defining sets are fixed once: inf over the empty set
is +inf, sup over the empty set is 0; both are recorded in serialized
output.  Coarse/expanding are asymptotic notions, so finite tables expose
"-at-truncation" flags with an explicit caveat instead of bare booleans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmetric import ClassicalQuantumMetric, FiniteMetricSpace

__all__ = [
    "MapTable",
    "ModuliTable",
    "classical_moduli",
    "quantum_moduli_bruteforce",
    "CoarseFlags",
    "coarse_flags",
    "EquiCoarseData",
    "check_equi_coarse",
]

INF = math.inf


@dataclass(frozen=True)
class MapTable:
    """A total map between two finite metric spaces, by index."""

    domain: FiniteMetricSpace
    codomain: FiniteMetricSpace
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.domain.n:
            raise ValueError("map must be total on the domain")
        if self.images and not all(0 <= i < self.codomain.n for i in self.images):
            raise ValueError("map sends points outside the codomain")


@dataclass
class ModuliTable:
    """Sampled values of the four moduli at every realized threshold.

    omega(t)       = sup{ d_Y(fx, fy) : d_X(x, y) <= t }
    rho(t)         = inf{ d_Y(fx, fy) : d_X(x, y) >= t }
    omega_tilde(t) = inf{ d_X(x, y) : d_Y(fx, fy) >= t }
    rho_tilde(t)   = sup{ d_X(x, y) : d_Y(fx, fy) <= t }
    """

    omega: list[tuple[float, float]]
    rho: list[tuple[float, float]]
    omega_tilde: list[tuple[float, float]]
    rho_tilde: list[tuple[float, float]]
    domain_note: str = ("finite truncation; inf over empty set = +inf, "
                        "sup over empty set = 0")

    def series(self, name: str) -> list[tuple[float, float]]:
        return getattr(self, name)


def _pair_distances(mapping: MapTable) -> tuple[np.ndarray, np.ndarray]:
    """Flat arrays (d_X(x,y), d_Y(fx,fy)) over all ordered pairs."""
    dx = mapping.domain.d.reshape(-1)
    f = np.asarray(mapping.images, dtype=int)
    dy = mapping.codomain.d[np.ix_(f, f)].reshape(-1)
    return dx, dy


def _thresholds(mapping: MapTable) -> list[float]:
    vals = set(mapping.domain.realized_distances())
    vals.update(mapping.codomain.realized_distances())
    return sorted(vals)


def _sup(values: np.ndarray) -> float:
    return float(np.max(values)) if values.size else 0.0


def _inf(values: np.ndarray) -> float:
    return float(np.min(values)) if values.size else INF


def classical_moduli(mapping: MapTable) -> ModuliTable:
    """All four moduli, exactly, over all pairs, at every realized threshold."""
    dx, dy = _pair_distances(mapping)
    ts = _thresholds(mapping)
    omega = [(t, _sup(dy[dx <= t])) for t in ts]
    rho = [(t, _inf(dy[dx >= t])) for t in ts]
    omega_tilde = [(t, _inf(dx[dy >= t])) for t in ts]
    rho_tilde = [(t, _sup(dx[dy <= t])) for t in ts]
    return ModuliTable(omega, rho, omega_tilde, rho_tilde)


def _subset_min_matrix(space: FiniteMetricSpace) -> dict[int, np.ndarray]:
    """minvec[mask][y] = min_{x in mask} d(x, y), for every nonempty mask."""
    n = space.n
    out: dict[int, np.ndarray] = {}
    for i in range(n):
        out[1 << i] = space.d[i].copy()
    for mask in range(1, 1 << n):
        if mask in out:
            continue
        low = mask & -mask
        out[mask] = np.minimum(out[low], out[mask ^ low])
    return out


# the enumeration tabulates all 4^n pairs of codomain subsets, so each point
# costs about 4x in time and memory: on a 2-vCPU VM, 8 points take 0.8 s,
# 9 take 3.3 s and 10 take 15 s at a 310 MB peak; 11 would take about a
# minute and 1 GB, and 12 about 5 minutes and 4 GB
_BRUTEFORCE_POINTS = 10


def quantum_moduli_bruteforce(mapping: MapTable) -> ModuliTable:
    """Tilde moduli through exhaustive subset enumeration.

    Every nonempty subset S of the codomain is a projection; the induced map
    pulls it back to f^{-1}[S].  Distances between subsets are min-pair
    distances, diameters are max-pair; empty pullbacks contribute distance
    +inf (nothing links through zero) and diameter 0.  On classical inputs
    this reproduces the pointwise omega_tilde and rho_tilde exactly.
    """
    nx, ny = mapping.domain.n, mapping.codomain.n
    if nx > _BRUTEFORCE_POINTS or ny > _BRUTEFORCE_POINTS:
        raise ValueError(
            f"brute force is capped at {_BRUTEFORCE_POINTS} points per space")
    ts = _thresholds(mapping)
    dom = ClassicalQuantumMetric(mapping.domain)
    cod = ClassicalQuantumMetric(mapping.codomain)
    minvec_y = _subset_min_matrix(mapping.codomain)
    minvec_x = _subset_min_matrix(mapping.domain)

    def members(mask: int, n: int) -> tuple[int, ...]:
        return tuple(i for i in range(n) if mask >> i & 1)

    pull = {}
    for mask in range(1, 1 << ny):
        pm = 0
        for x in range(nx):
            if mask >> mapping.images[x] & 1:
                pm |= 1 << x
        pull[mask] = pm

    # distances between all pairs of nonempty codomain subsets and their pullbacks
    masks = list(range(1, 1 << ny))
    dist_y = {}
    dist_x_pull = {}
    for a in masks:
        mv_y = minvec_y[a]
        pa = pull[a]
        mv_x = minvec_x[pa] if pa else None
        for b in masks:
            dist_y[a, b] = float(np.min(mv_y[list(members(b, ny))]))
            pb = pull[b]
            if pa and pb:
                dist_x_pull[a, b] = float(np.min(mv_x[list(members(pb, nx))]))
            else:
                dist_x_pull[a, b] = INF

    diam_y = {a: cod.diam(members(a, ny)) for a in masks}
    diam_x_pull = {a: (dom.diam(members(pull[a], nx)) if pull[a] else 0.0)
                   for a in masks}

    omega_tilde = []
    rho_tilde = []
    for t in ts:
        far = [dist_x_pull[a, b] for (a, b) in dist_y
               if dist_y[a, b] >= t]
        omega_tilde.append((t, min(far) if far else INF))
        small = [diam_x_pull[a] for a in masks if diam_y[a] <= t]
        rho_tilde.append((t, max(small) if small else 0.0))
    return ModuliTable([], [], omega_tilde, rho_tilde,
                       domain_note="subset enumeration; tilde moduli only")


@dataclass(frozen=True)
class CoarseFlags:
    expanding_at_truncation: bool
    coarse_at_truncation: bool
    caveat: str


def coarse_flags(table: ModuliTable) -> CoarseFlags:
    """Finite-truncation reading of "coarse" and "expanding".

    Coarseness would need omega_tilde to be unbounded, which finite data
    cannot decide; the flag instead reports whether the finite values of
    omega_tilde attain the largest realized input distance.  Expanding-at-
    truncation holds when rho_tilde is finite at every sampled threshold.
    """
    rho_vals = [v for _, v in table.rho_tilde]
    expanding = all(math.isfinite(v) for v in rho_vals)
    # rho_tilde at the top threshold ranges over all pairs, so its largest
    # finite value is the largest realized input distance
    max_input = max((v for v in rho_vals if math.isfinite(v)), default=0.0)
    omega_finite = [v for _, v in table.omega_tilde if math.isfinite(v)]
    coarse = bool(omega_finite) and max(omega_finite) >= max_input
    return CoarseFlags(
        expanding_at_truncation=expanding,
        coarse_at_truncation=coarse,
        caveat=("finite truncation: unboundedness of omega_tilde is "
                "undecidable from finite data; +inf entries come from empty "
                "defining sets"),
    )


@dataclass
class EquiCoarseData:
    """Common bounding tables for a family of maps: f <= omega~, rho~ <= g."""

    f_lower: list[tuple[float, float]]
    g_upper: list[tuple[float, float]]

    @staticmethod
    def _eval_step(table: list[tuple[float, float]], t: float, default: float) -> float:
        val = default
        for tt, vv in table:
            if tt <= t:
                val = vv
            else:
                break
        return val

    def lower_at(self, t: float) -> float:
        return self._eval_step(self.f_lower, t, 0.0)

    def upper_at(self, t: float) -> float:
        return self._eval_step(self.g_upper, t, 0.0)


def check_equi_coarse(tables: list[ModuliTable],
                      data: EquiCoarseData) -> dict:
    """Verify f(t) <= omega_tilde(t) and rho_tilde(t) <= g(t) member-wise."""
    violations = []
    for mi, table in enumerate(tables):
        for t, v in table.omega_tilde:
            if v < data.lower_at(t):
                violations.append({"member": mi, "modulus": "omega_tilde",
                                   "t": t, "value": v})
        for t, v in table.rho_tilde:
            if v > data.upper_at(t):
                violations.append({"member": mi, "modulus": "rho_tilde",
                                   "t": t, "value": v})
    return {"ok": not violations, "violations": violations,
            "members": len(tables)}
