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
    check_simplex,
    frobenius_norm,
    inf_norm,
    l1_norm,
    softmax_table,
    tv_norm,
)
from .environment import CongestionGridEnv, MfgEnvironment, env_step, sample_from_cdf
from .estimators import QLearner, TransitionCounter
from .oracle import BmfePair, gamma1, gamma2, induced_kernel
from .schedules import (
    EpsilonNet,
    ScheduleParams,
    exploration_coeff,
    project_to_net,
)
from . import _step_kernel, snapshots

# Stride, in steps, of the simplex check on the mean-field and policy.
VALIDATE_EVERY = 100


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
    reference: Optional[BmfePair] = None
    diagnostics_every: int = 1

    def __post_init__(self):
        if self.num_episodes < 2 or self.steps_per_episode < 2:
            raise ValueError("num_episodes and steps_per_episode must both be >= 2")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("discount rho must lie in (0, 1)")
        if self.diagnostics_every < 1:
            raise ValueError("diagnostics_every must be >= 1")
        ref = self.reference
        if ref is not None and (ref.env is not self.env or ref.lam != self.schedule.lam or ref.rho != self.rho):
            raise ValueError("reference was solved for another environment, lambda or rho than the run's")


@dataclass
class EpisodeDiagnostics:
    """Per-episode errors, scored at the episode's first step.

    e_pi and e_mu compare the first-step policy and mean-field to the exact
    optimality operator and the reference equilibrium; eps_P and eps_Q are
    the end-of-episode estimation errors of the transition matrix and the
    Q-table against their exact counterparts at the first-step pair;
    residual_mu measures how far the first-step mean-field is from its own
    push-forward. Oracle-backed fields are NaN when no reference was supplied.
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
    """Outputs of one learning run; avg_policy and avg_mean_field are read-only arrays."""

    avg_policy: np.ndarray
    avg_mean_field: np.ndarray
    per_episode: list[EpisodeDiagnostics]
    mu_first_steps: np.ndarray
    pi_first_steps: np.ndarray
    q_values: np.ndarray  # the Q-table at the end of the run
    min_policy_entry: float


def update_mean_field(mu_prev, p_hat, c: float, net: Optional[EpsilonNet] = None):
    """One mean-field step: convex combination with its push-forward.

    Returns (1 - c) * mu + c * p_hat.T @ mu, snapped onto the simplex net
    when one is given (the run loop passes it only on episode first steps).
    The push-forward is summed over i in index order, as the compiled step
    sums it, so both loops round alike and the projection breaks ties alike.
    """
    if not 0.0 < c <= 1.0:
        raise ValueError("step size must lie in (0, 1]")
    if np.abs(p_hat.sum(axis=1) - 1.0).max() > SIMPLEX_ATOL:
        raise ValueError("transition estimate rows must sum to 1")
    out = (1.0 - c) * mu_prev + c * (mu_prev[:, None] * p_hat).sum(axis=0)
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
    target = (1.0 - psi_coeff) * softmax_table(q_values, lam) + psi_coeff / pi_prev.shape[1]
    return (1.0 - c) * pi_prev + c * target


def episode_diagnostics(
    k, mu_first, pi_first, p_hat_end, q_end, config: SandboxConfig, min_policy=math.nan, scored=True
) -> EpisodeDiagnostics:
    """Score one episode against exact operators on the run's environment.

    The temperature, discount and environment come from config, the
    reference mean-field from its reference pair, which config has checked
    was solved for the same game. Every field goes through the oracle's
    public operators at the first-step pair: residual_mu is the L1 gap to
    gamma2's push, e_pi and eps_Q are scored against gamma1's best response
    and optimal Q-table, and eps_P against induced_kernel's chain. An
    unscored episode needs no reference: its oracle-backed fields are NaN
    and only residual_mu is computed.
    """
    ref = config.reference
    if scored and ref is None:
        raise ValueError("episode diagnostics require a reference equilibrium")
    env = config.env
    residual_mu = l1_norm(mu_first - gamma2(env, pi_first, mu_first))
    if not scored:
        nan = math.nan
        return EpisodeDiagnostics(
            k=k, e_pi=nan, e_mu=nan, eps_P=nan, eps_Q=nan, residual_mu=residual_mu, min_policy=min_policy
        )
    best_response, q_star, _ = gamma1(env, mu_first, config.schedule.lam, config.rho)
    return EpisodeDiagnostics(
        k=k,
        e_pi=tv_norm(pi_first - best_response),
        e_mu=l1_norm(mu_first - ref.mean_field),
        eps_P=frobenius_norm(p_hat_end - induced_kernel(env, pi_first, mu_first)),
        eps_Q=inf_norm(q_end - q_star),
        residual_mu=residual_mu,
        min_policy=min_policy,
    )


class _Run:
    """Everything one learning run mutates; either step loop advances it."""

    def __init__(self, config: SandboxConfig):
        env, sched = config.env, config.schedule
        num_states, num_actions = env.num_states, env.num_actions
        K, T = config.num_episodes, config.steps_per_episode
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.mu = np.full(num_states, 1.0 / num_states)
        self.pi = np.full((num_states, num_actions), 1.0 / num_actions)
        self.counter = TransitionCounter(num_states)
        self.learner = QLearner(num_states, num_actions, config.rho, sched.c_beta, sched.nu)
        self.state = sample_from_cdf(np.cumsum(np.full(num_states, 1.0 / num_states)), self.rng.random())
        self.mu_first = np.empty((K, num_states))
        self.pi_first = np.empty((K, num_states, num_actions))
        self._inv_tz = np.arange(1, T + 1, dtype=np.float64) ** (-sched.zeta)
        self.c_mu = np.empty(T)
        self.c_pi = np.empty(T)
        self.psi_tail = 0.0

    def start_episode(self, k: int) -> None:
        """Fill episode k's step sizes and its exploration weight for t > 1."""
        sched = self.config.schedule
        np.multiply(sched.c_mu / k**sched.gamma, self._inv_tz, out=self.c_mu)
        np.multiply(sched.c_pi / k**sched.theta, self._inv_tz, out=self.c_pi)
        self.psi_tail = exploration_coeff(sched, k)

    def reference_step(self, k: int, t: int) -> float:
        """Step t of episode k through the reference update forms.

        Works for every environment and projection. Writes mu and pi in
        place, since the compiled step points into them. Returns the
        smallest policy entry, or inf at t = 1, whose pair is stored as the
        episode's first step instead.
        """
        config, counter, learner, rng = self.config, self.counter, self.learner, self.rng
        first = t == 1
        self.mu[:] = update_mean_field(
            self.mu,
            counter.cached_estimate if first else counter.estimate(),
            self.c_mu[t - 1],
            config.net if first else None,
        )
        self.pi[:] = update_policy(
            self.pi,
            learner.q,
            self.c_pi[t - 1],
            0.0 if first else self.psi_tail,
            config.schedule.lam,
        )
        if not (math.isfinite(self.mu.sum()) and math.isfinite(self.pi.sum())):
            raise self.non_finite(k, t, rng.bit_generator.state)
        if t % VALIDATE_EVERY == 0:
            check_simplex(self.mu, self.pi, f"at episode {k}, step {t}")
        if first:
            self.mu_first[k - 1], self.pi_first[k - 1] = self.mu, self.pi
            min_policy = math.inf
        else:
            min_policy = float(self.pi.min())
        action = sample_from_cdf(np.cumsum(self.pi[self.state]), rng.random())
        next_state, reward = env_step(config.env, self.state, action, self.mu, rng)
        if not math.isfinite(reward):
            raise self.non_finite(k, t, rng.bit_generator.state)
        counter.record(self.state, next_state)
        learner.update(self.state, action, reward, next_state)
        self.state = next_state
        return min_policy

    def reference_episode(self, k: int) -> float:
        """Episode k as a loop over reference_step; the smallest policy entry over t > 1."""
        return min(self.reference_step(k, t) for t in range(1, self.config.steps_per_episode + 1))

    def non_finite(self, k: int, t: int, rng_state: dict) -> NonFiniteError:
        counter = self.counter
        return NonFiniteError(
            k,
            t,
            snapshots.run_state_snapshot(
                episode=k,
                step=t,
                agent_state=self.state,
                mean_field=self.mu,
                policy=self.pi,
                q_values=self.learner.q,
                pair_counts=counter.pair_counts,
                cached_estimate=counter.cached_estimate,
                rng_state=rng_state,
            ),
        )


class _KernelLoop:
    """Episodes of a congestion-grid run with steps 2..T through the compiled step.

    Step 1, which alone reads the cached estimate, projects and stores the
    first-step pair, runs through _Run.reference_step. Each later step is one
    kernel call, which updates mu, pi, the Q-table and the softmax table in
    place and runs the simplex check every VALIDATE_EVERY steps, then one
    TransitionCounter.record call. The kernel keeps its own copy of the
    transition estimate: loaded from the counter at the start of each
    episode, it refreshes on entry the row of the state the previous step
    left, the only row whose counts have moved since. That copy and the
    kernel's push P^T mu have their rows padded with zero columns to a
    multiple of _step_kernel.MAX_LANES, so the kernel's SIMD lanes never
    need a scalar tail in the push; the counter's estimate() stays S x S.
    The 2(T - 1) uniforms of steps 2..T are drawn as one block, the same
    stream as that many scalar draws.
    """

    def __init__(self, run: _Run, ffi, lib):
        if VALIDATE_EVERY < 1:
            raise ValueError(f"VALIDATE_EVERY must be >= 1, got {VALIDATE_EVERY}")
        config, env = run.config, run.config.env
        sched, learner = config.schedule, run.learner
        S, A, T = env.num_states, env.num_actions, config.steps_per_episode
        S_pad = -(-S // _step_kernel.MAX_LANES) * _step_kernel.MAX_LANES
        self.run, self._step = run, lib.learner_step
        self._u = np.empty(2 * (T - 1))
        self._soft = np.empty((S, A))
        self._estimate = np.zeros((S, S_pad))
        ctx = self.ctx = ffi.new("step_ctx *")
        ctx.num_states, ctx.num_actions = S, A
        ctx.congestion_c = env.params.congestion_c
        ctx.lam, ctx.rho = sched.lam, config.rho
        ctx.c_beta, ctx.nu = learner.c_beta, learner.nu
        ctx.validate_every, ctx.simplex_atol = VALIDATE_EVERY, SIMPLEX_ATOL
        self._buffers = []  # every array the context points into, kept alive
        for name, array, size in (
            ("mu", run.mu, S),
            ("pi", run.pi, S * A),
            ("q", learner.q, S * A),
            ("soft", self._soft, S * A),
            ("push", np.zeros(S_pad), S_pad),
            ("estimate", self._estimate, S * S_pad),
            ("cdf", np.cumsum(env.kernel, axis=2), S * A * S),
            ("state_reward", env.state_reward, S),
            ("c_mu", run.c_mu, T),
            ("c_pi", run.c_pi, T),
            ("u", self._u, 2 * (T - 1)),
            ("pair_counts", run.counter.pair_counts, S * S),
        ):
            dtype, ctype = (np.int64, "int64_t[]") if name.endswith("counts") else (np.float64, "double[]")
            if array.dtype != dtype or not array.flags.c_contiguous or array.size != size:
                raise ValueError(f"step buffer {name} must be {size} contiguous {np.dtype(dtype).name} values")
            buffer = ffi.from_buffer(ctype, array)
            self._buffers.append(buffer)
            setattr(ctx, name, buffer)

    def episode(self, k: int) -> float:
        """Run episode k; returns the smallest policy entry over steps t > 1."""
        run, ctx = self.run, self.ctx
        # The counts were reset since the last episode; step 1 counts the
        # transition out of the current state, which the kernel refreshes first.
        self._estimate[:, : ctx.num_states] = run.counter.estimate()
        ctx.prev = run.state
        run.reference_step(k, 1)
        # Step 1 updated one Q entry in Python.
        self._soft[:] = softmax_table(run.learner.q, run.config.schedule.lam)
        ctx.psi = run.psi_tail
        ctx.min_policy = math.inf
        ctx.state = state = run.state
        rng_after_first = run.rng.bit_generator.state
        run.rng.random(out=self._u)
        step, record = self._step, run.counter.record
        for t in range(2, run.config.steps_per_episode + 1):
            next_state = step(ctx, t)
            if next_state < 0:
                run.state = state
                self._fail(k, t, next_state, rng_after_first)
            record(state, next_state)
            state = next_state
        run.state = state
        return ctx.min_policy

    def _fail(self, k: int, t: int, code: int, rng_after_first: dict) -> None:
        """Raise what the reference loop raises at step t of episode k.

        The snapshot's generator state is rebuilt from the state after step
        1 by replaying the uniforms the reference loop would have drawn.
        """
        if code == _step_kernel.SIMPLEX_VIOLATED:
            raise RuntimeError(f"simplex invariant violated at episode {k}, step {t}")
        if code == _step_kernel.REWARD_OUT_OF_RANGE:
            raise ValueError(f"reward {self.ctx.reward} outside [0, 1]")
        # A non-finite pair aborts before the step's two draws, a non-finite reward after.
        drawn = 2 * (t - 2) + (0 if code == _step_kernel.NON_FINITE_PAIR else 2)
        rng = snapshots.restore_rng(rng_after_first)
        rng.random(drawn)
        raise self.run.non_finite(k, t, rng.bit_generator.state)


def run_sandbox(config: SandboxConfig) -> SandboxResult:
    """Run the full episodic loop and return the averaged first-step pair.

    Deterministic given the seed: the generator draws one uniform for the
    initial state, then one per action and one per transition, in that
    order. On congestion grids, projection included, steps 2..T of every
    episode use the compiled step when it can be built; every other step
    and run uses the reference step, and both give the same results bit for
    bit. Any non-finite value aborts with a NonFiniteError carrying a
    serialized state snapshot.
    """
    env = config.env
    K = config.num_episodes
    run = _Run(config)
    episode = run.reference_episode
    # The compiled step reads the grid's kernel and state_reward arrays
    # directly; a subclass may override transition_kernel or reward_table,
    # which it does not call.
    if type(env) is CongestionGridEnv:
        kernel = _step_kernel.load()
        if kernel is not None:
            episode = _KernelLoop(run, *kernel).episode

    diagnostics: list[EpisodeDiagnostics] = []
    global_min_policy = math.inf
    for k in range(1, K + 1):
        run.start_episode(k)
        episode_min_policy = episode(k)
        global_min_policy = min(global_min_policy, episode_min_policy)
        mu1, pi1 = run.mu_first[k - 1], run.pi_first[k - 1]
        scored = config.reference is not None and (k - 1) % config.diagnostics_every == 0
        # reset() caches the episode's final estimate, which the diagnostics score
        run.counter.reset()
        diagnostics.append(
            episode_diagnostics(
                k, mu1, pi1, run.counter.cached_estimate, run.learner.q, config, episode_min_policy, scored
            )
        )
        run.learner.reset_clock()

    avg_mu = run.mu_first[: K - 1].mean(axis=0)
    avg_pi = run.pi_first[: K - 1].mean(axis=0)
    check_simplex(avg_mu, avg_pi, "in the averaged first-step pair")
    avg_mu.flags.writeable = avg_pi.flags.writeable = False
    return SandboxResult(
        avg_policy=avg_pi,
        avg_mean_field=avg_mu,
        per_episode=diagnostics,
        mu_first_steps=run.mu_first,
        pi_first_steps=run.pi_first,
        q_values=run.learner.q,
        min_policy_entry=float(global_min_policy),
    )
