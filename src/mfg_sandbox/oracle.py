"""Exact operators and equilibrium solver used as ground truth.

Everything here evaluates the environment's true kernel and reward, in
contrast to the online estimators that only see the sample path. The solver
iterates the damped composite of the two equilibrium operators: the
Boltzmann-optimality map (mean-field -> softmax of the induced optimal
Q-table) and the consistency map (policy, mean-field -> pushed-forward
mean-field).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    MeanField,
    Policy,
    QTable,
    as_policy_table,
    as_probs,
    l1_norm,
    softmax_table,
    tv_norm,
)
from .environment import MfgEnvironment

# Probe pairs drawn and solved together: 2 * PROBE_BLOCK value iterations
# per call keep the per-sweep overhead small and memory O(PROBE_BLOCK).
PROBE_BLOCK = 16


def _value_iteration(
    env: MfgEnvironment, mus, rho: float, tol: float, q_start=None, max_iter: int = 1_000_000
) -> tuple[np.ndarray, int]:
    """Value iteration on a stack of mu-frozen MDPs, each accurate to tol in sup norm.

    mus is a sequence of M mean-fields. Returns the unclipped (M, S, A) final
    iterates and the number of sweeps summed over the M problems. Successive
    iterates of the Bellman map contract by rho, so a problem stops at the
    first sweep that changes it by at most tol * (1 - rho) / rho, which
    leaves it within tol of its fixed point from any start. A stopped
    problem leaves the active set, so each result is the iterate the loop
    reaches on that problem alone. q_start is the (M, S, A) starting stack;
    by default every problem starts from Q = 0.
    """
    if tol <= 0.0:
        raise ValueError("tol must be > 0")
    S, A = env.dims.num_states, env.dims.num_actions
    kernels, rewards = [], []
    for mu in mus:
        mu = as_probs(mu)
        kernels.append(env.transition_kernel(mu))
        rewards.append(env.reward_table(mu))
    out = np.empty((len(rewards), S, A))
    if not rewards:
        return out, 0
    # The loop keeps each table action-major, (A, S), so the max over
    # actions reduces over an outer axis, which NumPy does much faster.
    rewards = np.array(rewards).transpose(0, 2, 1)
    # Every package environment returns one kernel array for all mu; then a
    # single (S, A*S) matrix serves the whole stack as one product. The
    # discount is folded into the kernel.
    shared = all(k is kernels[0] for k in kernels)
    if shared:
        kernel = rho * kernels[0].transpose(2, 1, 0).reshape(S, A * S)
    else:
        kernel = rho * np.array(kernels).transpose(0, 2, 1, 3)
    q = np.zeros_like(rewards) if q_start is None else np.array(q_start, dtype=np.float64).transpose(0, 2, 1)
    index = np.arange(len(out))
    threshold = tol * (1.0 - rho) / rho
    sweeps = 0
    for sweep in range(1, max_iter + 1):
        v = q.max(axis=1)
        if shared:
            # einsum, not a BLAS matrix product: slower by a few microseconds
            # per sweep here, but the BLAS product's code and buffers would
            # add about 0.3 MB (1%) to a probe's peak RSS.
            expected = np.einsum("ms,st->mt", v, kernel).reshape(q.shape)
        else:
            expected = np.matmul(kernel, v[:, None, :, None])[..., 0]
        q_next = rewards + expected
        delta = np.abs(q_next - q).max(axis=(1, 2))
        q = q_next
        if delta.min() <= threshold:
            done = delta <= threshold
            out[index[done]] = q[done].transpose(0, 2, 1)
            sweeps += sweep * int(done.sum())
            if done.all():
                return out, sweeps
            keep = ~done
            index, q, rewards = index[keep], q[keep], rewards[keep]
            if not shared:
                kernel = kernel[keep]
    raise ArithmeticError(f"value iteration did not converge within {max_iter} sweeps")


def _clip_q(q: np.ndarray, rho: float) -> np.ndarray:
    return np.clip(q, 0.0, 1.0 / (1.0 - rho))


def _q_star_values(env: MfgEnvironment, mu, rho: float, tol: float) -> np.ndarray:
    """Optimal Q-values of the mu-frozen MDP, within tol in sup norm, clipped to [0, 1/(1-rho)]."""
    return _clip_q(_value_iteration(env, [mu], rho, tol)[0][0], rho)


def induced_q_star(env: MfgEnvironment, mu, rho: float, tol: float = 1e-10) -> QTable:
    """Optimal Q-table of the MDP induced by freezing the mean-field at mu."""
    return QTable(_q_star_values(env, mu, rho, tol), rho)


def gamma1_lambda(env: MfgEnvironment, mu, lam: float, rho: float, tol: float = 1e-10) -> Policy:
    """Boltzmann-optimality operator: softmax of the induced optimal Q-table at a finite lam >= 0."""
    if lam < 0.0:
        raise ValueError("lambda must be >= 0")
    return Policy(softmax_table(_q_star_values(env, mu, rho, tol), lam))


def induced_kernel(env: MfgEnvironment, pi, mu) -> np.ndarray:
    """State-chain matrix P(s, s') = sum_a pi(a|s) P(s'|s, a, mu)."""
    pi = as_policy_table(pi)
    kernel = env.transition_kernel(as_probs(mu))
    return np.einsum("sa,sat->st", pi, kernel)


def gamma2(env: MfgEnvironment, pi, mu) -> np.ndarray:
    """Consistency operator: the mean-field after one step of the population.

    Pushes mu through the chain induced by pi at mean-field mu. Returns a
    plain vector, not a MeanField: the solver and the probe call it in
    their inner loops.
    """
    mu = as_probs(mu)
    return induced_kernel(env, pi, mu).T @ mu


@dataclass(frozen=True)
class BmfePair:
    """Softmax-equilibrium pair, its two defining residuals and the inputs it was solved from.

    residual_policy is the TV gap between policy and the optimality operator
    applied to mean_field; residual_mu is the L1 gap between mean_field and
    its own push-forward under policy. converged is False when the solver
    hit max_iter and returned its last iterate. vi_sweeps counts the
    value-iteration sweeps the solve ran, the residual check included.
    env, lam, rho, tol and vi_tol are the arguments of the solve_bmfe call
    that built the pair, so a run scored against it can check that it plays
    the same game; damping is the damping the solve ended with.
    """

    policy: Policy
    mean_field: MeanField
    residual_policy: float
    residual_mu: float
    converged: bool
    iterations: int
    vi_sweeps: int
    env: MfgEnvironment
    lam: float
    rho: float
    damping: float
    tol: float
    vi_tol: float


def solve_bmfe(
    env: MfgEnvironment,
    lam: float,
    rho: float,
    tol: float = 1e-8,
    max_iter: int = 10_000,
    vi_tol: float = 1e-10,
) -> BmfePair:
    """Damped fixed-point iteration for the softmax equilibrium.

    From the uniform mean-field, repeat mu <- (1 - damping) * mu + damping *
    consistency(optimality(mu), mu) until the undamped composite moves mu by
    at most tol in L1. The undamped composite need not contract, so damping
    (which preserves fixed points) widens the set of instances that converge.
    The damping starts at 1/2 and halves whenever that undamped residual is
    larger than on the previous iteration; the pair records the damping the
    solve ended with. Each value iteration starts from the previous one's
    Q-table; its stopping rule bounds the error from any start. The final
    residual check solves again from Q = 0.
    """
    if tol <= 0.0:
        raise ValueError("tol must be > 0")
    num_states = env.dims.num_states
    mu = np.full(num_states, 1.0 / num_states)
    q, sweeps = _value_iteration(env, [mu], rho, vi_tol)
    pi = softmax_table(_clip_q(q[0], rho), lam)
    converged = False
    iterations = 0
    damping, previous = 0.5, math.inf
    for iterations in range(1, max_iter + 1):
        pushed = gamma2(env, pi, mu)
        residual = l1_norm(pushed - mu)
        if residual <= tol:
            converged = True
            break
        if residual > previous:
            damping /= 2.0
        previous = residual
        mu = (1.0 - damping) * mu + damping * pushed
        mu /= mu.sum()
        q, n = _value_iteration(env, [mu], rho, vi_tol, q_start=q)
        sweeps += n
        pi = softmax_table(_clip_q(q[0], rho), lam)
    residual_mu = l1_norm(gamma2(env, pi, mu) - mu)
    q_check, n = _value_iteration(env, [mu], rho, vi_tol)
    residual_policy = tv_norm(pi - softmax_table(_clip_q(q_check[0], rho), lam))
    return BmfePair(
        policy=Policy(pi),
        mean_field=MeanField(mu),
        residual_policy=residual_policy,
        residual_mu=residual_mu,
        converged=converged,
        iterations=iterations,
        vi_sweeps=sweeps + n,
        env=env,
        lam=lam,
        rho=rho,
        damping=damping,
        tol=tol,
        vi_tol=vi_tol,
    )


@dataclass(frozen=True)
class ContractionEstimate:
    """Empirical maxima of the three operator Lipschitz ratios.

    A sampled lower bound on the true constants, not a certificate; d_hat =
    d1_hat * d2_hat + d3_hat < 1 suggests (but does not prove) that the
    composite equilibrium map contracts.
    """

    d1_hat: float
    d2_hat: float
    d3_hat: float
    num_pairs: int

    def __post_init__(self):
        for name in ("d1_hat", "d2_hat", "d3_hat"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and nonnegative")

    @property
    def d_hat(self) -> float:
        return self.d1_hat * self.d2_hat + self.d3_hat


def probe_contraction(
    env: MfgEnvironment,
    lam: float,
    rho: float,
    num_pairs: int,
    rng,
    vi_tol: float = 1e-10,
) -> ContractionEstimate:
    """Sample Lipschitz ratios of the two operators over random pairs.

    Mean-fields and policy rows are drawn symmetric-Dirichlet(1), i.e.
    uniformly over the simplex, pair by pair in the order mu, mu_alt, pi,
    pi_alt. Ratios whose denominator is below 1e-9 are skipped. Pairs are
    drawn and solved in blocks of PROBE_BLOCK, so memory does not grow
    with num_pairs.
    """
    if num_pairs < 1:
        raise ValueError("num_pairs must be >= 1")
    S, A = env.dims.num_states, env.dims.num_actions
    d1 = d2 = d3 = 0.0
    for start in range(0, num_pairs, PROBE_BLOCK):
        block = [
            (
                rng.dirichlet(np.ones(S)),
                rng.dirichlet(np.ones(S)),
                rng.dirichlet(np.ones(A), size=S),
                rng.dirichlet(np.ones(A), size=S),
            )
            for _ in range(min(PROBE_BLOCK, num_pairs - start))
        ]
        dmus = [l1_norm(mu - mu_alt) for mu, mu_alt, _, _ in block]
        moved = [m for (mu, mu_alt, _, _), dmu in zip(block, dmus) if dmu >= 1e-9 for m in (mu, mu_alt)]
        q_star = iter(_clip_q(_value_iteration(env, moved, rho, vi_tol)[0], rho))
        for (mu, mu_alt, pi, pi_alt), dmu in zip(block, dmus):
            push = gamma2(env, pi, mu)
            if dmu >= 1e-9:
                g1 = softmax_table(next(q_star), lam)
                g1_alt = softmax_table(next(q_star), lam)
                d1 = max(d1, tv_norm(g1 - g1_alt) / dmu)
                push_alt = gamma2(env, pi, mu_alt)
                d3 = max(d3, l1_norm(push - push_alt) / dmu)
            dpi = tv_norm(pi - pi_alt)
            if dpi >= 1e-9:
                push_alt = gamma2(env, pi_alt, mu)
                d2 = max(d2, l1_norm(push - push_alt) / dpi)
    return ContractionEstimate(d1_hat=d1, d2_hat=d2, d3_hat=d3, num_pairs=num_pairs)

