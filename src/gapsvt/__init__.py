"""Threshold-report (sparse vector) mechanisms over explicit noise tapes,
their output-preserving tape alignments, and an executable privacy
verification harness."""

from .errors import (
    DomainError,
    DomainMismatch,
    EmptyWorkload,
    GapSvtError,
    GridBudgetExceeded,
    LayoutMismatch,
    NonPositiveBudget,
    SensitivityViolation,
    TapeExhausted,
)
from .core import (
    Branch,
    NoiseKind,
    NoiseSpec,
    NoiseTape,
    Side,
    TapeLayout,
    Workload,
)
from .mechanisms import (
    ADAPTIVE_GAP,
    MECHANISMS,
    SVT_CLASSIC,
    SVT_GAP,
    AdaptiveBudget,
    budget_split_adaptive,
    budget_split_svt,
    default_budget,
    run_mechanism,
    sample_run,
    svt_classic_run,
    svt_gap_run,
)
from .alignments import (
    Mutation,
    align_adaptive,
    align_svt_gap,
    alignment_cost,
    cost_closed_form,
    index_sets,
    shift_for_output,
)
from .verifier import (
    OutputDistribution,
    TrialPlan,
    Witness,
    check_alignment_soundness,
    check_dp_exact,
    default_enumeration_instances,
    enumerate_output_dist,
    max_privacy_loss,
    mc_output_dist,
    mc_privacy_estimate,
    replay_witness,
    run_trial_suites,
    tv_distance,
)

__version__ = "0.1.0"
