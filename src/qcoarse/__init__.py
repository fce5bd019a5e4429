"""Quantum metrics on matrix algebras, expander verification, and
asymptotic-dimension cover machinery, at desk scale."""

from .matcore import (
    DEFAULT_TOL,
    OperatorSubspace,
    Projection,
    SubspacePowers,
    ToleranceConfig,
    commutant,
    hs_inner,
    image_range_projection,
    proj_join,
    proj_product_nonzero,
    subspace_from_spanning,
    subspace_product,
)
from .qmetric import (
    ClassicalQuantumMetric,
    ExtendedDistance,
    FiniteMetricSpace,
    GraphQuantumMetric,
    KrausSet,
    direct_sum,
    graph_metric,
    quotient_restrict,
)
from .expander import (
    ExpanderSpec,
    cheeger_lower_bound,
    cheeger_quantity,
    is_connected,
    random_expander,
    random_regular_graph,
    spectral_gap,
    verify_isoperimetric,
    verify_rank_diameter,
)
from .asdim import (
    CoverFamily,
    asdim_at_scale,
    certify_counting,
    greedy_cover,
    saturated_union,
    union_cover,
    validate_cover,
)
from .moduli import (
    MapTable,
    classical_moduli,
    coarse_flags,
    quantum_moduli_bruteforce,
)

__version__ = "0.1.0"
