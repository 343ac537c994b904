"""Heterogeneous graph node representation learning with agent-designed
meta-paths and redundancy-free aggregation."""

from .agent import (
    DqnAgent,
    Normalizer,
    QNetwork,
    ReplayBuffer,
    RewardHistory,
    compute_reward,
    dqn_step,
    load_agent,
    save_agent,
    select_action,
    state_static,
    sync_target,
    td_loss,
)
from .aggplan import (
    AggregationDag,
    AggregationStats,
    Episode,
    build_plan,
    count_steps_by_enumeration,
    enumerate_instances,
    naive_plan,
    plan_stats,
)
from .hin import (
    DataSplit,
    HinGraph,
    HinSchema,
    RelationType,
    SchemaError,
    ValidationReport,
    build_graph,
    load_hin,
    save_hin,
    split_nodes,
    validate_hin,
)
from .metapath import (
    DeadEndError,
    Frontier,
    MetaPath,
    arrived_mean,
    expand_frontier,
    valid_actions,
)
from .model import (
    HgnnParams,
    backward,
    classify,
    cross_entropy,
    hgnn_forward,
    init_adam,
    init_params,
    load_params,
    optimizer_step,
    project_attributes,
    save_params,
)
from .pipeline import (
    ActionStats,
    EpisodeReport,
    TrainConfig,
    action_report,
    bench_aggregation,
    bench_runtime,
    evaluate_f1,
    predict,
    run,
    run_rl_hgnn,
    run_rl_hgnn_pp,
)
from .synth import SyntheticSpec, generate_planted_hin, planted_oracle_accuracy

__all__ = [name for name in dir() if not name.startswith("_")]
