"""tempsync: simulation and certification for linearly coupled temporal networks.

Integrates networks of heterogeneous time-dependent agents whose coupling
topology varies (and may switch discontinuously) in time, builds the linear
comparison system dominating the squared pairwise errors, and evaluates
quantitative synchronization, cluster and persistence certificates, plus the
dissipativity machinery that backs the ultimate-boundedness assumption.
"""

from .attractors import (
    CoupledComparisonCheck,
    DissipativityData,
    HypothesisError,
    PullbackEstimate,
    coupled_comparison_check,
    dissipativity_from_onesided,
    fit_sl2_envelope,
    pullback_trajectory,
    ultimate_bound,
)
from .certificates import (
    ClusterCertificate,
    ComparisonSystem,
    ComparisonTrajectory,
    DecayCheck,
    InfeasibleTopologyError,
    PersistenceMargins,
    RefinedBounds,
    SyncCertificate,
    Verdict,
    check_cluster_sync,
    check_full_sync,
    comparison_solve,
    compute_mu1,
    compute_mu2,
    dominance_decay_check,
    estimate_rho,
    evaluate_comparison,
    persistence_margins,
    refined_bounds,
    static_threshold,
    suggest_bound_M,
)
from .integrate import (
    ErrorSeries,
    IntegrationError,
    SolverConfig,
    Trajectory,
    coupled_rhs,
    integrate,
    pairwise_errors,
    rk4_span,
)
from .model import (
    AdjacencySchedule,
    ClusterSpec,
    NetworkSystem,
    NodeDynamics,
    PairBoundSet,
    ScheduleDomainError,
    build_switching_schedule,
    pair_bounds_for_identical_nodes,
    sample_adjacency,
    static_schedule,
    zero_dynamics,
)
from .scenarios import (
    RunReport,
    StarFeasibility,
    build_contrarian_ring,
    ring_symbolic_certificate,
    run_fhn_clusters,
    run_lorenz_star,
    run_ring_contrarian,
    run_vdp,
    run_vdp_sweep,
    star_feasibility,
    star_matrix,
)

__version__ = "0.1.0"
