"""Cover machinery for asymptotic dimension at a fixed scale.

Validators certify the three cover properties (covering, per-color
r-disjointness, uniform boundedness); constructions (greedy packing,
saturated unions, direct sums) are heuristics or theorem transcriptions
whose outputs are always re-validated.  The counting certificate turns the
expander rank-growth argument into a checker that pinpoints why a purported
small cover of an expander must fail, reading each member's neighborhood
off its rank chain.

Classical members are subsets (tuples of point indices); quantum members are
projections.  The metric answers every member question through the protocol
of ``qcoarse.qmetric``, so the code here does not branch on the backend
(``saturated_union`` only refuses graph metrics), and it reads every
tolerance from ``metric.tol``.  Quantum boundedness is judged against k0 of
``diam_graph_proxy``.  Read the diameter of P as the least t with
P M_n P in P V_t P (reading A), and k0 is the diameter; read it as the
largest distance between nonzero subprojections of P (reading B,
Kuperberg-Weaver), and k0 is an upper bound.  So a member with k0 > R is
refuted under reading A only, and passes are reported as "not refuted".
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Sequence

import numpy as np

from .matcore import DEFAULT_TOL, ToleranceConfig
from .qmetric import (
    ClassicalQuantumMetric,
    FiniteMetricSpace,
    GraphQuantumMetric,
    graph_metric,
)
from .expander import (ExpanderSpec, _check_same_dimension, _growth_chain,
                       _unital_gap, growth_constant)

__all__ = [
    "CoverFamily",
    "CoverValidation",
    "validate_cover",
    "GreedyCoverResult",
    "greedy_cover",
    "ScaleDimensionReport",
    "asdim_at_scale",
    "HypothesisViolation",
    "SaturatedUnionResult",
    "saturated_union",
    "direct_sum_cover",
    "union_cover",
    "CountingCertificate",
    "certify_counting",
]


@dataclass
class CoverFamily:
    """Colored family of cover members with claimed parameters (r, R)."""

    backend: str  # "classical" | "quantum"
    colors: list[list]
    r: float
    R: float
    metadata: str = ""

    def __post_init__(self) -> None:
        if self.backend not in ("classical", "quantum"):
            raise ValueError("backend must be 'classical' or 'quantum'")
        if self.backend == "classical":
            self.colors = [[tuple(sorted(int(i) for i in m)) for m in color]
                           for color in self.colors]
        if not all(len(m) if self.backend == "classical" else m.rank
                   for m in self.members()):
            raise ValueError("cover members must be nonempty")

    @property
    def n_colors(self) -> int:
        return len(self.colors)

    def members(self) -> list:
        return [m for color in self.colors for m in color]


class HypothesisViolation(ValueError):
    """A construction's stated hypotheses fail; carries the clause and witness."""

    def __init__(self, clause: str, witness=None):
        super().__init__(f"hypothesis violated: {clause}"
                         + (f" (witness: {witness})" if witness is not None else ""))
        self.clause = clause
        self.witness = witness


@dataclass
class CoverValidation:
    covering_ok: bool
    r_disjoint_ok: bool
    bounded_ok: bool
    bounded_mode: str  # "exact" | "not_refuted" | "refuted"
    covering_witness: object = None
    disjoint_witness: object = None
    bounded_witness: object = None

    @property
    def all_ok(self) -> bool:
        return self.covering_ok and self.r_disjoint_ok and self.bounded_ok

    def failures(self) -> list[dict]:
        out = []
        if not self.covering_ok:
            out.append({"kind": "covering", "witness": self.covering_witness})
        if not self.r_disjoint_ok:
            out.append({"kind": "disjointness", "witness": self.disjoint_witness})
        if not self.bounded_ok:
            out.append({"kind": "boundedness", "witness": self.bounded_witness})
        return out


def _first_overlapping_pair(metric, neighborhoods):
    """First (i, j), i < j, of members whose neighborhoods overlap, else None."""
    for i in range(len(neighborhoods)):
        for j in range(i + 1, len(neighborhoods)):
            if metric.overlaps(neighborhoods[i], neighborhoods[j]):
                return i, j
    return None


def _first_unbounded(metric, members, bound: float):
    """(index, lower) of the first member whose lower > bound, else None."""
    for i, m in enumerate(members):
        lower, _ = metric.diam_bracket(m)
        if lower > bound + metric.tol.zero_atol:
            return i, lower
    return None


def validate_cover(metric, fam: CoverFamily,
                   r: float | None = None) -> CoverValidation:
    """Certify covering, per-color r-disjointness, and fam.R-boundedness.

    Classical checks are exact.  Quantum boundedness compares k0 with R: a
    failure is certain under reading A of the diameter (module docstring)
    only, and passes are "not refuted".
    The radius defaults to the family's claimed r.
    """
    if getattr(metric, "backend", None) != fam.backend:
        raise ValueError(f"cover backend {fam.backend!r} does not match metric")
    r = fam.r if r is None else r
    return _validate(metric, fam, ([metric.neighborhood(x, r) for x in color]
                                   for color in fam.colors))


def _validate(metric, fam: CoverFamily, color_neighborhoods) -> CoverValidation:
    """validate_cover's checks on one list of member neighborhoods per color,
    drawn from color_neighborhoods while every color so far is disjoint."""
    covering_ok, covering_witness = metric.covering(fam.members())

    disjoint_ok, disjoint_witness = True, None
    for ci, nbs in enumerate(color_neighborhoods):
        pair = _first_overlapping_pair(metric, nbs)
        if pair is not None:
            disjoint_ok, disjoint_witness = False, {"color": ci, "pair": pair}
            break

    bounded_ok, bounded_witness = True, None
    for ci, color in enumerate(fam.colors):
        found = _first_unbounded(metric, color, fam.R)
        if found is not None:
            bounded_ok = False
            bounded_witness = {"color": ci, "member": found[0],
                               "diameter_lower_bound": found[1]}
            break
    bounded_mode = ("exact" if fam.backend == "classical"
                    else "not_refuted" if bounded_ok else "refuted")
    return CoverValidation(covering_ok, disjoint_ok, bounded_ok, bounded_mode,
                           covering_witness, disjoint_witness, bounded_witness)


# ---------------------------------------------------------------------------
# greedy construction


@dataclass
class GreedyCoverResult:
    family: CoverFamily | None
    colors_used: int
    achieved_R: float
    validation: CoverValidation | None
    failure: str | None = None

    @property
    def success(self) -> bool:
        return self.family is not None


def greedy_cover(space: FiniteMetricSpace, r: float,
                 max_colors: int = 16,
                 tol: ToleranceConfig = DEFAULT_TOL) -> GreedyCoverResult:
    """Greedy r-disjoint cover by balls of radius 2r, one color at a time.

    Per color: repeatedly seed the first unclaimed point that is farther
    than 2r from this color's clusters, claim its 2r-ball among unclaimed,
    unblocked points; leftovers go to the next color.  The first validated
    cover wins; the validator, not the heuristic, is the source of truth.
    """
    if not r > 0:
        raise ValueError("need r > 0")
    if max_colors < 1:
        raise ValueError("need max_colors >= 1")
    metric = ClassicalQuantumMetric(space, tol)
    n = space.n
    uncovered = set(range(n))
    colors: list[list[tuple[int, ...]]] = []
    for _ in range(max_colors):
        if not uncovered:
            break
        clusters: list[tuple[int, ...]] = []
        blocked: set[int] = set()
        for x in range(n):
            if x not in uncovered or x in blocked:
                continue
            ball = {y for y in uncovered - blocked
                    if space.d[x, y] <= 2 * r}
            clusters.append(tuple(sorted(ball)))
            uncovered -= ball
            near = np.min(space.d[:, sorted(ball)], axis=1) <= 2 * r
            blocked |= set(int(i) for i in np.nonzero(near)[0])
        colors.append(clusters)
    if uncovered:
        return GreedyCoverResult(None, len(colors), math.nan, None,
                                 failure=f"max_colors={max_colors} exhausted "
                                         f"with {len(uncovered)} points uncovered")
    achieved = max((metric.diam(m) for color in colors for m in color),
                   default=0.0)
    fam = CoverFamily("classical", colors, r=r, R=achieved,
                      metadata="greedy ball packing")
    validation = validate_cover(metric, fam)
    if not validation.all_ok:
        return GreedyCoverResult(None, len(colors), achieved, validation,
                                 failure="greedy output failed validation")
    return GreedyCoverResult(fam, len(colors), achieved, validation)


# ---------------------------------------------------------------------------
# exact minimum at scale


def _fewest_colors(d: np.ndarray, r: float, bound: float) -> int:
    """Least k with an admissible k-coloring; see ``asdim_at_scale``."""
    n = len(d)
    near = d < r
    linked = [np.nonzero(row)[0].tolist() for row in near.T @ near]
    color = [-1] * n

    def bounded(x: int) -> bool:
        comp = [x]
        for u in comp:
            for v in linked[u]:
                if color[v] == color[x] and v not in comp:
                    comp.append(v)
        return len(comp) == 1 or np.max(d[np.ix_(comp, comp)]) <= bound

    def place(x: int, k: int, used: int) -> bool:
        if x == n:
            return True
        for c in range(min(k, used + 1)):
            color[x] = c
            if bounded(x) and place(x + 1, k, max(used, c + 1)):
                return True
        color[x] = -1
        return False

    return next(k for k in range(n + 1) if place(0, k, 0))


@dataclass
class ScaleDimensionReport:
    value: int
    exact: bool
    r: float
    R: float
    greedy_colors: int | None
    exhaustive_colors: int | None

    def __int__(self) -> int:
        return self.value


# the coloring search is exponential in the worst case; over 2000 random
# 10-point spaces it took at most 0.12 s (one BLAS thread, 2-vCPU VM)
_EXHAUSTIVE_POINTS = 10


def asdim_at_scale(space: FiniteMetricSpace, r: float,
                   R: float | None = None,
                   tol: ToleranceConfig = DEFAULT_TOL) -> ScaleDimensionReport:
    """Fewest colors minus one over valid (r-disjoint, R-bounded) covers.

    R defaults to 4r, the greedy construction's guarantee, so the greedy
    upper bound and the exhaustive minimum refer to the same cover class.

    The exhaustive minimum (|X| <= 10) searches point colorings.  Call x, y
    linked when some z has d(z, x) < r and d(z, y) < r, and a coloring
    admissible when every linked component inside one color is a point or
    has diameter <= R (within zero_atol).  The least k with an admissible
    k-coloring is the fewest colors of a valid cover.  A valid cover
    shrinks to a partition cover with no more colors; color each point as
    its block.  Blocks of one color are r-disjoint, so two linked points of
    one color share a block, and each component lies in an R-bounded block.
    Conversely the components of an admissible coloring, colored as their
    points, are R-bounded, and no two of one color are linked: they form a
    valid cover.  The search places points in index order, each with a
    color below min(k, colors used + 1) so that every split into classes
    is tried once; it backtracks once the component of the point just
    placed is unbounded (components only grow), and tries k = 1, 2, ....
    """
    if not r > 0:
        raise ValueError("need r > 0")
    R = 4 * r if R is None else R
    greedy = greedy_cover(space, r, tol=tol)
    greedy_colors = greedy.colors_used if greedy.success else None
    if greedy.success and greedy.achieved_R > R + tol.zero_atol:
        greedy_colors = None  # packed wider than this R allows

    exhaustive_colors = (_fewest_colors(space.d, r, R + tol.zero_atol)
                         if space.n <= _EXHAUSTIVE_POINTS else None)

    candidates = [c for c in (greedy_colors, exhaustive_colors) if c is not None]
    if not candidates:
        raise RuntimeError("no valid cover found at this scale; raise R")
    return ScaleDimensionReport(
        value=min(candidates) - 1,
        exact=exhaustive_colors is not None,
        r=r, R=R,
        greedy_colors=greedy_colors,
        exhaustive_colors=exhaustive_colors,
    )


# ---------------------------------------------------------------------------
# saturated union


@dataclass
class SaturatedUnionResult:
    members: list
    bound: float
    r: float
    validation: CoverValidation


def _check_family_hypotheses(metric, members, bound: float,
                             disjoint_radius: float, label: str,
                             neighborhoods=None) -> None:
    if neighborhoods is None:
        neighborhoods = [metric.neighborhood(x, disjoint_radius) for x in members]
    pair = _first_overlapping_pair(metric, neighborhoods)
    if pair is not None:
        raise HypothesisViolation(
            f"{label} is not {disjoint_radius:g}-disjoint", witness=pair)
    found = _first_unbounded(metric, members, bound)
    if found is not None:
        raise HypothesisViolation(f"{label} is not {bound:g}-bounded",
                                  witness=found[0])


def _saturated_bound(r: float, R: float, D: float) -> float:
    return D + 2 * (R + D + 4 * r)


def saturated_union(metric, p_members: Sequence, q_members: Sequence,
                    r: float, R: float, D: float) -> SaturatedUnionResult:
    """Merge each Q with the P's whose r-neighborhoods touch its own.

    Hypotheses (validated; hard error on failure): the P family is
    r-disjoint and R-bounded with R > r; the Q family is 7R-disjoint and
    D-bounded.  The output family {Q v P_Q} u {untouched P} is r-disjoint
    and (D + 2(R + D + 4r))-bounded, and is re-validated as such.  A NaN or
    non-positive r is a bad radius, not a failed hypothesis: ValueError.

    Classical metrics only.  The bound's proof runs the triangle inequality
    through a point; compressions do not compose that way (P V_s P . P V_t Q
    need not lie in P V_{s+t} Q), so on a graph metric this raises
    NotImplementedError.
    """
    if metric.backend != "classical":
        raise NotImplementedError(
            "the saturated-union bound needs a classical metric: it is not yet "
            "argued for quantum diameters, and permanence is claimed under "
            "quotients and direct sums, not unions (see direct_sum_cover)")
    if not r > 0:  # NaN included
        raise ValueError("radius must be positive")
    if not R > r:
        raise HypothesisViolation(f"need R > r > 0, got r={r:g}, R={R:g}")
    p_members = list(p_members)
    q_members = list(q_members)
    p_nbs = [metric.neighborhood(p, r) for p in p_members]
    _check_family_hypotheses(metric, p_members, R, r, "P family", p_nbs)
    _check_family_hypotheses(metric, q_members, D, 7 * R, "Q family")

    q_nbs = [metric.neighborhood(q, r) for q in q_members]
    touched = [False] * len(p_members)
    out = []
    for qi, q in enumerate(q_members):
        attached = [q]
        for pi, p in enumerate(p_members):
            if metric.overlaps(p_nbs[pi], q_nbs[qi]):
                attached.append(p)
                touched[pi] = True
        out.append(metric.join(attached))
    out.extend(p for pi, p in enumerate(p_members) if not touched[pi])

    bound = _saturated_bound(r, R, D)
    fam = CoverFamily(metric.backend, [out], r=r, R=bound,
                      metadata="saturated union")
    validation = validate_cover(metric, fam)
    if not (validation.r_disjoint_ok and validation.bounded_ok):
        raise ArithmeticError(
            "saturated union violated its guaranteed conclusion; "
            f"validation: {validation}")
    return SaturatedUnionResult(members=fam.colors[0], bound=bound, r=r,
                                validation=validation)


# ---------------------------------------------------------------------------
# permanence constructions


def direct_sum_cover(cov1: CoverFamily, cov2: CoverFamily,
                     direct_sum_metric) -> CoverFamily:
    """Color-wise embedded union of two covers on a direct-sum metric."""
    if cov1.backend != cov2.backend:
        raise ValueError("cover backends differ")
    if cov1.r != cov2.r:
        raise ValueError("covers must share the disjointness radius r")
    ds = direct_sum_metric
    colors = [[ds.embed_left(m) for m in left] + [ds.embed_right(m) for m in right]
              for left, right in zip_longest(cov1.colors, cov2.colors, fillvalue=[])]
    return CoverFamily(cov1.backend, colors, r=cov1.r,
                       R=max(cov1.R, cov2.R),
                       metadata="direct sum of covers")


def union_cover(metric_M, cov1: CoverFamily,
                cov2: CoverFamily, r: float, R: float) -> CoverFamily:
    """Cover of M from covers of two pieces whose supports fill M.

    cov1 must be r-disjoint and R-bounded (R > r), cov2 7R-disjoint and
    D-bounded (D = cov2.R), both measured inside M; the union of all member
    supports must be everything.  Colors are combined pairwise by
    ``saturated_union``, which checks each color's hypotheses, re-validates
    its output, and refuses a graph metric.
    """
    if cov1.backend != metric_M.backend or cov2.backend != metric_M.backend:
        raise ValueError("cover backends do not match the metric")
    covered, missing = metric_M.covering(cov1.members() + cov2.members())
    if not covered:
        raise HypothesisViolation("supports do not cover the space",
                                  witness=missing)
    results = [saturated_union(metric_M, p_members, q_members, r, R, cov2.R)
               for p_members, q_members in zip_longest(cov1.colors, cov2.colors,
                                                        fillvalue=[])]
    return CoverFamily("classical", [out.members for out in results], r=r,
                       R=_saturated_bound(r, R, cov2.R),
                       metadata="saturated union of two covers")


# ---------------------------------------------------------------------------
# counting certificate


@dataclass
class CountingCertificate:
    n_colors: int
    m: int
    delta: float
    eps_prime: float
    ambient_rank: int
    per_color_rank_sums: list[int]
    per_color_base_rank_sums: list[int]
    contradiction: bool
    parameter_condition: bool
    failures: list[dict] = field(default_factory=list)
    excluded_members: list[dict] = field(default_factory=list)

    @property
    def refuted(self) -> bool:
        return bool(self.failures)


def certify_counting(spec: ExpanderSpec, fam: CoverFamily, delta: float,
                     m: int,
                     metric: GraphQuantumMetric | None = None) -> CountingCertificate:
    """Audit a purported (colors, m*delta)-cover of an expander.

    The metric defaults to ``graph_metric(spec.kraus())`` and supplies the
    Kraus set, the tolerance and, with eps' = growth_constant of the measured
    gap, the growth rate: a cover whose colors are m*delta-disjoint,
    uniformly bounded, made of members of rank <= n/2 throughout the growth
    chain, and satisfying (1 + eps')^m - 1 > colors - 1 cannot exist; this
    certificate either finds the concrete validation failure (covering,
    disjointness, boundedness, or a rank cap) or reports contradiction =
    True, which indicates a tolerance bug.  Each member's chain is
    ``iterated_isoperimetric``'s at this eps', and the validation reads the
    chain's neighborhood; a chain that breaks the proven growth inequality
    raises ArithmeticError.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    if m > sys.float_info.max:  # the radius m * delta is a float
        raise ValueError("need m <= the largest float")
    if not delta > 1:
        raise ValueError("need delta > 1")
    if fam.backend != "quantum":
        raise ValueError("counting certificates apply to quantum covers")
    if metric is None:
        metric = graph_metric(spec.kraus())
    _check_same_dimension(spec, metric)
    gap = _unital_gap(metric.kraus)
    if gap <= metric.tol.zero_atol:
        raise ValueError("the channel has no measured spectral gap; "
                         "the counting argument needs epsilon > 0")
    eps_prime = growth_constant(gap)
    n = spec.n

    chains, excluded, per_color_sums, per_color_base = [], [], [], []
    for ci, color in enumerate(fam.colors):
        chains.append([_growth_chain(metric, x, delta, m, eps_prime) for x in color])
        nb_sum = base_sum = 0
        for mi, chain in enumerate(chains[-1]):
            if chain.status == "inequality_failure":
                raise ArithmeticError(
                    f"color {ci}, member {mi}: rank chain {chain.ranks} "
                    f"breaks the growth inequality (eps' = {chain.eps_prime!r}); "
                    "this indicates a tolerance problem")
            if chain.status == "rank_cap_exceeded":
                excluded.append({"color": ci, "member": mi,
                                 "rank_chain": chain.ranks})
                continue
            nb_sum += chain.ranks[-1]
            base_sum += chain.ranks[0]
        per_color_sums.append(nb_sum)
        per_color_base.append(base_sum)

    failures = _validate(metric, fam, ([c.neighborhood for c in color]
                                       for color in chains)).failures()
    failures += [{"kind": "disjointness",
                  "witness": {"color": ci, "neighborhood_rank_sum": nb_sum,
                              "ambient_rank": n}}
                 for ci, nb_sum in enumerate(per_color_sums) if nb_sum > n]
    if excluded:
        failures.append({"kind": "rank_cap",
                         "witness": [e["color"] for e in excluded]})
    # (1 + eps')^m > c in logarithms, so a large m cannot overflow
    param_condition = (fam.n_colors == 0
                       or m * math.log1p(eps_prime) > math.log(fam.n_colors))
    contradiction = param_condition and not failures
    return CountingCertificate(
        n_colors=fam.n_colors, m=m, delta=delta, eps_prime=eps_prime,
        ambient_rank=n,
        per_color_rank_sums=per_color_sums,
        per_color_base_rank_sums=per_color_base,
        contradiction=contradiction,
        parameter_condition=param_condition,
        failures=failures,
        excluded_members=excluded,
    )
