"""Non-symmetric Laplacians on directed weighted graphs.

Build finite truncations of the Laplacian of a directed graph whose weights
satisfy the Kirchhoff balance, check the structural hypotheses that make the
closed operator m-accretive and m-sectorial, and verify the operator-theoretic
consequences numerically: the Green identity, accretivity of the numerical
range, sector containment, Cheeger lower bounds, resolvent bounds and
contraction or exponential decay of the heat semigroup exp(-tA).
"""

from .graph import (
    Ball,
    CutoffSequence,
    DirectedGraph,
    DivergenceReport,
    GraphError,
    KirchhoffReport,
    NumericError,
    TruncationError,
    UnknownVertexError,
    VertexId,
    assumption_report,
    asymmetry_at,
    ball,
    build_cutoffs,
    check_asymmetry,
    check_kirchhoff,
    check_total_asymmetry,
    combinatorial_distance,
    divergence_criterion,
    full_ball,
    graph_from_dict,
    graph_to_dict,
    in_strength,
    load_graph,
    out_strength,
    save_graph,
    spheres,
    symmetrize,
    total_asymmetry_at,
)
from .generators import LadderSpec, TreeSpec, make_ladder, make_random_balanced, make_tree
from .operators import (
    KINDS,
    TruncatedOperator,
    assemble,
    green_residual,
    green_residual_batch,
    quadratic_form,
    similarity_to_standard,
    weighted_dot,
    weighted_norm,
)
from .semigroup import (
    EvolutionTrace,
    evolve_trace,
    expm_apply,
    operator_norm_expm,
    positivity_check,
    resolvent_norm,
)
from .spectral import (
    CheegerBound,
    CheegerResult,
    NumericalRangeSample,
    Sector,
    accretivity_certificate,
    check_sector,
    cheeger_bound_check,
    cheeger_bruteforce,
    cheeger_nested,
    fit_sector,
    numrange_boundary,
)

__version__ = "0.1.0"
