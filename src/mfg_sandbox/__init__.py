"""Tabular mean-field-game learning along a single sample path.

A generic agent estimates the population distribution and its own optimal
policy concurrently from one trajectory, without a population simulator; an
exact-operator subsystem solves for the reference Boltzmann equilibrium and
scores the learner against it.
"""

from .core import frobenius_norm, inf_norm, l1_norm, tv_norm
from .environment import (
    CongestionGridParams,
    MfgEnvironment,
    make_congestion_env,
    make_two_class_env,
)
from .estimators import QLearner, TransitionCounter
from .oracle import (
    BmfePair,
    ContractionEstimate,
    gamma1,
    induced_kernel,
    probe_contraction,
    solve_bmfe,
)
from .sandbox import (
    EpisodeDiagnostics,
    NonFiniteError,
    SandboxConfig,
    SandboxResult,
    episode_diagnostics,
    run_sandbox,
    update_mean_field,
    update_policy,
)
from .schedules import (
    EpsilonNet,
    ScheduleParams,
    build_epsilon_net,
    exploration_coeff,
    exploration_floor,
    project_to_net,
)

__all__ = [
    "BmfePair",
    "CongestionGridParams",
    "ContractionEstimate",
    "EpisodeDiagnostics",
    "EpsilonNet",
    "MfgEnvironment",
    "NonFiniteError",
    "QLearner",
    "SandboxConfig",
    "SandboxResult",
    "ScheduleParams",
    "TransitionCounter",
    "build_epsilon_net",
    "episode_diagnostics",
    "exploration_coeff",
    "exploration_floor",
    "frobenius_norm",
    "gamma1",
    "induced_kernel",
    "inf_norm",
    "l1_norm",
    "make_congestion_env",
    "make_two_class_env",
    "probe_contraction",
    "project_to_net",
    "run_sandbox",
    "solve_bmfe",
    "tv_norm",
    "update_mean_field",
    "update_policy",
]
