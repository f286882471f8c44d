"""Gaussian latent forest models: exact learning coefficients,
EM fitting, and singular BIC model selection over subforest lattices.
"""

from .engine import MonomialSos, Rlct, rlct_monomial_sos, split_parts
from .errors import (
    CertificateFailure,
    CycleError,
    DimensionTooLarge,
    DuplicateEdge,
    EmptyFiber,
    EmptyZeroSet,
    IntegrationFailure,
    LatentForestError,
    LeafMismatch,
    NoInteriorSolution,
    NoSuchDepth,
    NotComparable,
    NotInLattice,
    NotPositiveDefinite,
    NotSubforest,
    ObservedDegreeError,
    TooFewLeaves,
    TooFewSamples,
    TooLarge,
    UnknownNode,
    UnrealizablePattern,
)
from .experiments import (
    CountRow,
    ExperimentConfig,
    ExperimentResult,
    lattice5_host,
    lattice5_truth_index,
    random_subforest_at_depth,
    random_trivalent_tree,
    run_experiment,
)
from .forest_rlct import (
    rlct_forest_pair,
    subtree_decomposition,
    zero_part_monomials,
)
from .forests import (
    CanonicalForest,
    Forest,
    ModelLattice,
    build_forest,
    canonicalize,
    connected_observed_pairs,
    edge,
    forest_from_json,
    model_dimension,
    q_forest,
    steiner_subforest,
    subforest_lattice,
)
from .gaussian import (
    EmConfig,
    EmResult,
    ModelParams,
    SufficientStats,
    covariance,
    em_fit,
    h_q,
    h_q_monomials,
    joint_covariance,
    kl_divergence,
    loglik,
    model_loglik,
    sample,
    suff_stats,
    suff_stats_from_cov,
)
from .laplace import (
    DEFAULT_N_GRID,
    LaplaceConfig,
    LaplaceEstimate,
    laplace_rlct_estimate,
)
from .polyhedra import (
    NewtonPolyhedron,
    newton_facets,
    one_distance_lp,
    one_distance_mult,
)
from .selection import (
    ChainResult,
    ScoreRow,
    ScoreTable,
    bic,
    log_lprime,
    pair_rlct,
    pruned_chain,
    sbic_all,
    score_lattice,
    select_exhaustive,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
