"""Diverse near-optimal policy sets for tabular MDPs.

Train a set of n policies that spread out in expected-feature space
while each keeps its value above a fraction alpha of the optimum. The
package provides exact (linear-solve) and sample-based trainers,
constraint strategies for the Lagrangian method and its fixed-mixture
baselines, environment builders with parametric perturbations, and a
few-shot robustness evaluation protocol.
"""

from .config import (
    ConfigError,
    EnvironmentSettings,
    ExperimentConfig,
    KShotMethod,
    KShotSettings,
    PerturbationSettings,
    SweepSettings,
    TrainerSettings,
    load_config,
    parse_config,
)
from .diversity import (
    DiversityConfig,
    DiversityKind,
    RewardScaling,
    diversity_objective,
    diversity_reward,
    diversity_score,
    reward_table,
)
from .envs import (
    Always,
    FeatureKind,
    GridSpec,
    Periodic,
    Perturbation,
    PerturbationKind,
    PerturbedMdp,
    Schedule,
    UnreachableGoalError,
    build_chain,
    build_gridworld,
    four_rooms_spec,
    grid_cells,
    perturb,
)
from .experiment import (
    RunSpec,
    enumerate_runs,
    run_cell,
    run_experiment,
    run_kshot,
)
from .kshot import (
    KShotConfig,
    KShotResult,
    kshot_evaluate,
    kshot_returns,
    kshot_select,
)
from .mdp import (
    Criterion,
    InvalidMdpError,
    TabularMdp,
    best_response,
    deterministic_policy,
    discounted_occupancy,
    expected_features,
    occupancy,
    policy_transition_matrix,
    policy_value,
    stationary_distribution,
    validate_mdp,
)
from .plotting import plot_qd
from .policy_set import (
    AdamState,
    MovingAverageConfig,
    PolicySet,
    init_set,
    lagrange_step,
    lagrange_step_adam,
    policy_set_from_json,
    policy_set_to_json,
    update_moving_averages,
)
from .seeding import child_rng, hash64
from .strategies import StrategyConfig, StrategyKind, weights
from .training import (
    ExactTrainConfig,
    FtlMode,
    SampleTrainConfig,
    TraceRecord,
    TrainingDivergedError,
    sample_episodes,
    train_exact,
    train_sampled,
)

__version__ = "0.1.0"
