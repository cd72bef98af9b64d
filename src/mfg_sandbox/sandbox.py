"""Single-sample-path learning loop with concurrent mean-field and policy updates.

One run walks a single trajectory of the generic agent for K episodes of T
steps with no re-initialization. At every step the mean-field moves toward
its push-forward under the current transition estimate (slow timescale) and
the policy moves toward the Boltzmann policy of the current Q-table plus
uniform exploration noise (fast timescale). The transition counter and the
Q-learner are fed by the same trajectory. Episode boundaries carry the
Q-table, the cached transition estimate, the mean-field, the policy, and the
state; counts and the Q-learning clock restart.

The returned equilibrium estimate averages each episode's first-step pair
over all but the last episode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    SIMPLEX_ATOL,
    MeanField,
    Policy,
    frobenius_norm,
    inf_norm,
    l1_norm,
    softmax_table,
    tv_norm,
)
from .environment import MfgEnvironment, sample_from_cdf
from .estimators import QLearner, TransitionCounter
from .oracle import induced_kernel
from .schedules import (
    EpsilonNet,
    ScheduleParams,
    exploration_coeff,
    project_to_net,
)
from . import snapshots


class NonFiniteError(RuntimeError):
    """A NaN or infinity showed up mid-run; carries a full state snapshot."""

    def __init__(self, episode: int, step: int, snapshot: dict):
        super().__init__(f"non-finite value at episode {episode}, step {step}")
        self.episode = episode
        self.step = step
        self.snapshot = snapshot


@dataclass
class SandboxConfig:
    """Inputs of one learning run."""

    env: MfgEnvironment
    schedule: ScheduleParams
    num_episodes: int
    steps_per_episode: int
    rho: float
    seed: int = 0
    net: Optional[EpsilonNet] = None
    diagnostics_oracle: Optional[object] = None
    diagnostics_every: int = 1
    validate_every: int = 100

    def __post_init__(self):
        if self.num_episodes < 2 or self.steps_per_episode < 2:
            raise ValueError("num_episodes and steps_per_episode must both be >= 2")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("discount rho must lie in (0, 1)")
        if self.diagnostics_every < 1:
            raise ValueError("diagnostics_every must be >= 1")
        if self.validate_every < 1:
            raise ValueError("validate_every must be >= 1")


@dataclass
class EpisodeDiagnostics:
    """Per-episode errors, scored at the episode's first step.

    e_pi and e_mu compare the first-step policy and mean-field to the exact
    optimality operator and the reference equilibrium; eps_P and eps_Q are
    the end-of-episode estimation errors of the transition matrix and the
    Q-table against their exact counterparts at the first-step pair;
    residual_mu measures how far the first-step mean-field is from its own
    push-forward. Oracle-backed fields are NaN when no oracle was supplied.
    min_policy is the smallest policy entry seen over steps t > 1.
    """

    k: int
    e_pi: float
    e_mu: float
    eps_P: float
    eps_Q: float
    residual_mu: float
    min_policy: float = math.nan


@dataclass
class SandboxResult:
    """Outputs of one learning run."""

    avg_policy: Policy
    avg_mean_field: MeanField
    per_episode: list[EpisodeDiagnostics]
    mu_first_steps: np.ndarray
    pi_first_steps: np.ndarray
    min_policy_entry: float
    seed: int


def update_mean_field(mu_prev, p_hat, c: float, net: Optional[EpsilonNet] = None):
    """One mean-field step: convex combination with its push-forward.

    Returns (1 - c) * mu + c * p_hat.T @ mu, snapped onto the simplex net
    when one is given (the run loop passes it only on episode first steps).
    """
    if not 0.0 < c <= 1.0:
        raise ValueError("step size must lie in (0, 1]")
    if np.abs(p_hat.sum(axis=1) - 1.0).max() > SIMPLEX_ATOL:
        raise ValueError("transition estimate rows must sum to 1")
    out = (1.0 - c) * mu_prev + c * (p_hat.T @ mu_prev)
    if net is not None:
        out = project_to_net(net, out)
    return out


def update_policy(pi_prev, q_values, c: float, psi_coeff: float, lam: float):
    """One policy step toward the Boltzmann policy plus uniform noise.

    Returns (1 - c) * pi + c * ((1 - psi) * softmax(q) + psi * uniform).
    """
    if not 0.0 < c <= 1.0:
        raise ValueError("step size must lie in (0, 1]")
    if not 0.0 <= psi_coeff <= 1.0:
        raise ValueError("exploration coefficient must lie in [0, 1]")
    target = softmax_table(q_values, lam)
    if psi_coeff > 0.0:
        target = (1.0 - psi_coeff) * target + psi_coeff / pi_prev.shape[1]
    return (1.0 - c) * pi_prev + c * target


def episode_diagnostics(k, mu_first, pi_first, p_hat_end, q_end, oracle, min_policy=math.nan) -> EpisodeDiagnostics:
    """Score one episode against the exact operators supplied by the oracle."""
    if oracle is None:
        raise ValueError("episode diagnostics require an oracle handle")
    q_star = oracle.q_star_values(mu_first)
    best_response = softmax_table(q_star, oracle.lam)
    chain = oracle.kernel(pi_first, mu_first)
    return EpisodeDiagnostics(
        k=k,
        e_pi=tv_norm(pi_first - best_response),
        e_mu=l1_norm(mu_first - oracle.mu_star),
        eps_P=frobenius_norm(p_hat_end - chain),
        eps_Q=inf_norm(q_end - q_star),
        residual_mu=l1_norm(mu_first - chain.T @ mu_first),
        min_policy=min_policy,
    )


def _validate_state(mu, pi, k, t):
    if (
        mu.min() < -SIMPLEX_ATOL
        or abs(float(mu.sum()) - 1.0) > SIMPLEX_ATOL
        or pi.min() < -SIMPLEX_ATOL
        or np.abs(pi.sum(axis=1) - 1.0).max() > SIMPLEX_ATOL
    ):
        raise RuntimeError(f"simplex invariant violated at episode {k}, step {t}")


def run_sandbox(config: SandboxConfig) -> SandboxResult:
    """Run the full episodic loop and return the averaged first-step pair.

    Deterministic given the seed: the generator draws one uniform for the
    initial state, then one per action and one per transition, in that
    order. Any non-finite value aborts with a NonFiniteError carrying a
    serialized state snapshot.
    """
    env = config.env
    sched = config.schedule
    num_states = env.dims.num_states
    num_actions = env.dims.num_actions
    K, T = config.num_episodes, config.steps_per_episode
    oracle = config.diagnostics_oracle
    net = config.net

    rng = np.random.default_rng(config.seed)
    mu = np.full(num_states, 1.0 / num_states)
    pi = np.full((num_states, num_actions), 1.0 / num_actions)
    counter = TransitionCounter(num_states)
    learner = QLearner(num_states, num_actions, config.rho, sched.c_beta, sched.nu)
    state = sample_from_cdf(np.cumsum(env.initial_distribution.probs), rng.random())

    # The grid kernels ignore mu, so their per-(s, a) inverse CDFs are fixed.
    static_cdf = None
    if not env.kernel_depends_on_mu:
        static_cdf = np.cumsum(env.transition_kernel(None), axis=2)

    inv_tz = np.arange(1, T + 1, dtype=np.float64) ** (-sched.zeta)
    mu_first = np.empty((K, num_states))
    pi_first = np.empty((K, num_states, num_actions))
    diagnostics: list[EpisodeDiagnostics] = []
    global_min_policy = math.inf

    def abort(k, t):
        raise NonFiniteError(
            k,
            t,
            snapshots.run_state_snapshot(
                episode=k,
                step=t,
                agent_state=state,
                mean_field=mu,
                policy=pi,
                q_values=learner.q,
                pair_counts=counter.pair_counts,
                state_counts=counter.state_counts,
                cached_estimate=counter.cached_estimate,
                rng_state=rng.bit_generator.state,
            ),
        )

    # The loop body below is the elementwise form of update_mean_field /
    # update_policy, with the Boltzmann table maintained incrementally: a
    # Q-learning step touches one state, so only that softmax row changes.
    # The counter refreshes its estimate matrix in place, so one binding
    # stays current for the whole run.
    soft = softmax_table(learner.q, sched.lam)
    uniform_action = 1.0 / num_actions
    lam = sched.lam
    estimate = counter.estimate()
    q_values = learner.q
    draw = rng.random
    record = counter.record
    q_update = learner.update
    env_reward = env.reward
    validate_every = config.validate_every
    last_a = num_actions - 1
    last_s = num_states - 1

    for k in range(1, K + 1):
        c_mu_t = (sched.c_mu / k**sched.gamma) * inv_tz
        c_pi_t = (sched.c_pi / k**sched.theta) * inv_tz
        psi_first = exploration_coeff(sched, k, 1)
        psi_tail = exploration_coeff(sched, k, 2)
        cached = counter.cached_estimate
        episode_min_policy = math.inf
        for t in range(1, T + 1):
            c_mu = c_mu_t[t - 1]
            push = mu @ (cached if t == 1 else estimate)
            push *= c_mu
            mu *= 1.0 - c_mu
            mu += push
            if net is not None and t == 1:
                mu = project_to_net(net, mu)
            c_pi = c_pi_t[t - 1]
            psi_kt = psi_first if t == 1 else psi_tail
            pi *= 1.0 - c_pi
            pi += (c_pi * (1.0 - psi_kt)) * soft
            if psi_kt > 0.0:
                pi += c_pi * psi_kt * uniform_action

            if not (math.isfinite(mu.sum()) and math.isfinite(pi.sum())):
                abort(k, t)
            if t % validate_every == 0:
                _validate_state(mu, pi, k, t)
            if t == 1:
                mu_first[k - 1] = mu
                pi_first[k - 1] = pi
            else:
                entry = pi.min()
                if entry < episode_min_policy:
                    episode_min_policy = entry

            action = pi[state].cumsum().searchsorted(draw(), side="right")
            if action > last_a:
                action = last_a
            if static_cdf is not None:
                next_state = static_cdf[state, action].searchsorted(draw(), side="right")
            else:
                next_state = np.cumsum(env.transition_dist(state, action, mu)).searchsorted(
                    draw(), side="right"
                )
            if next_state > last_s:
                next_state = last_s
            reward = env_reward(state, action, mu)
            if not math.isfinite(reward):
                abort(k, t)
            record(state, next_state)
            q_update(state, action, reward, next_state)
            row = lam * q_values[state]
            row -= row.max()
            np.exp(row, out=row)
            soft[state] = row / row.sum()
            state = next_state

        episode_min_policy = float(episode_min_policy)
        global_min_policy = min(global_min_policy, episode_min_policy)
        mu1, pi1 = mu_first[k - 1], pi_first[k - 1]
        if oracle is not None and (k - 1) % config.diagnostics_every == 0:
            diagnostics.append(
                episode_diagnostics(
                    k, mu1, pi1, counter.estimate(), learner.q, oracle, episode_min_policy
                )
            )
        else:
            diagnostics.append(
                EpisodeDiagnostics(
                    k=k,
                    e_pi=math.nan,
                    e_mu=math.nan,
                    eps_P=math.nan,
                    eps_Q=math.nan,
                    residual_mu=l1_norm(mu1 - induced_kernel(env, pi1, mu1).T @ mu1),
                    min_policy=episode_min_policy,
                )
            )
        counter.reset()
        learner.reset_clock()

    avg_mu = mu_first[: K - 1].mean(axis=0)
    avg_pi = pi_first[: K - 1].mean(axis=0)
    return SandboxResult(
        avg_policy=Policy(avg_pi),
        avg_mean_field=MeanField(avg_mu),
        per_episode=diagnostics,
        mu_first_steps=mu_first,
        pi_first_steps=pi_first,
        min_policy_entry=float(global_min_policy),
        seed=config.seed,
    )
