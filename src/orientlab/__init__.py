"""orientlab: query algorithms for orienting (hyper)graphs whose vertex
weights are uncertain intervals, plus a reproducible Monte-Carlo lab."""

from .model import (
    Instance,
    InstanceError,
    Interval,
    Pmf,
    PmfCell,
    QueryStep,
    QueryTranscript,
    Realization,
    UncertainVertex,
    elementary_grid,
    make_instance,
    parse_instance,
    probability_matrix,
    reduce_instance,
    sample_realization,
    serialize_instance,
)
from .mandatory import (
    MandatoryProfile,
    estimate_profile,
    estimate_profiles,
    exact_prob_graph,
    hoeffding_sample_count,
    is_feasible,
    mandatory_set,
)
from .vcover import (
    Cover,
    CoverGraph,
    HalfIntegralSolution,
    SolverBoundError,
    bipartition,
    build_cover_graph,
    lp_half_integral,
    make_cover_graph,
    vc_bipartite_exact,
    vc_exact_small,
    vc_few_hyperedges,
    vc_local_ratio_2approx,
)
from .algorithms import (
    AlgorithmSpec,
    OfflineOracle,
    ThresholdConfig,
    guaranteed_ratio,
    hyper_ratio,
    hyper_threshold,
    optimal_d,
    run_adversarial_baseline,
    run_fixed_cover,
    run_leaves_first,
)
from .harness import (
    BENCHMARKS,
    EvaluationReport,
    GeneralizedInstance,
    best_two_stage_cost,
    csv_header,
    csv_row,
    enumerate_cell_realizations,
    evaluate,
    exact_expected_cost,
    exact_expected_opt,
    expected_opt_generalized,
    expected_opt_generalized_part,
    gen_benchmark,
    gen_generalized,
    gen_random,
    make_generalized,
    run_two_stage_prefix,
    two_stage_expected_opt,
    vertex_split,
)

__version__ = "0.1.0"
