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
    inf_norm,
    l1_norm,
    softmax_table,
    tv_norm,
)
from .environment import MfgEnvironment


def _q_star_values(env: MfgEnvironment, mu, rho: float, tol: float, max_iter: int = 1_000_000) -> np.ndarray:
    """Value iteration on the mu-frozen MDP, accurate to tol in sup norm.

    Successive iterates of the Bellman map contract by rho, so stopping when
    consecutive tables differ by at most tol * (1 - rho) / rho leaves the
    result within tol of the true fixed point.
    """
    if tol <= 0.0:
        raise ValueError("tol must be > 0")
    mu = as_probs(mu)
    kernel = env.transition_kernel(mu)
    rewards = env.reward_table(mu)
    threshold = tol * (1.0 - rho) / rho
    q = np.zeros_like(rewards)
    for _ in range(max_iter):
        q_next = rewards + rho * (kernel @ q.max(axis=1))
        delta = float(np.abs(q_next - q).max())
        q = q_next
        if delta <= threshold:
            return np.clip(q, 0.0, 1.0 / (1.0 - rho))
    raise ArithmeticError(f"value iteration did not converge within {max_iter} sweeps")


def induced_q_star(env: MfgEnvironment, mu, rho: float, tol: float = 1e-10) -> QTable:
    """Optimal Q-table of the MDP induced by freezing the mean-field at mu."""
    return QTable(_q_star_values(env, mu, rho, tol), rho)


def gamma1_lambda(env: MfgEnvironment, mu, lam: float, rho: float, tol: float = 1e-10) -> Policy:
    """Boltzmann-optimality operator: softmax of the induced optimal Q-table.

    lam = inf gives the deterministic limit with probability split evenly
    among optimal actions.
    """
    if lam < 0.0:
        raise ValueError("lambda must be >= 0")
    return Policy(softmax_table(_q_star_values(env, mu, rho, tol), lam))


def induced_kernel(env: MfgEnvironment, pi, mu) -> np.ndarray:
    """State-chain matrix P(s, s') = sum_a pi(a|s) P(s'|s, a, mu)."""
    pi = as_policy_table(pi)
    kernel = env.transition_kernel(as_probs(mu))
    return np.einsum("sa,sat->st", pi, kernel)


def gamma2(env: MfgEnvironment, pi, mu) -> MeanField:
    """Consistency operator: the mean-field after one step of the population.

    Pushes mu through the chain induced by pi at mean-field mu.
    """
    mu = as_probs(mu)
    return MeanField(induced_kernel(env, pi, mu).T @ mu)


@dataclass(frozen=True)
class BmfePair:
    """Softmax-equilibrium pair with its two defining residuals.

    residual_policy is the TV gap between policy and the optimality operator
    applied to mean_field; residual_mu is the L1 gap between mean_field and
    its own push-forward under policy. converged is False when the solver
    hit max_iter and returned its best iterate.
    """

    policy: Policy
    mean_field: MeanField
    residual_policy: float
    residual_mu: float
    converged: bool = True
    iterations: int = 0


def solve_bmfe(
    env: MfgEnvironment,
    lam: float,
    rho: float,
    damping: float = 0.5,
    tol: float = 1e-8,
    max_iter: int = 10_000,
    vi_tol: float = 1e-10,
) -> BmfePair:
    """Damped fixed-point iteration for the softmax equilibrium.

    From the uniform mean-field, repeat mu <- (1 - damping) * mu + damping *
    consistency(optimality(mu), mu) until the undamped composite moves mu by
    at most tol in L1. The undamped composite need not contract, so damping
    (which preserves fixed points) widens the set of instances that converge.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    if tol <= 0.0:
        raise ValueError("tol must be > 0")
    num_states = env.dims.num_states
    mu = np.full(num_states, 1.0 / num_states)
    pi = softmax_table(_q_star_values(env, mu, rho, vi_tol), lam)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        pushed = induced_kernel(env, pi, mu).T @ mu
        residual = l1_norm(pushed - mu)
        if residual <= tol:
            converged = True
            break
        mu = (1.0 - damping) * mu + damping * pushed
        mu /= mu.sum()
        pi = softmax_table(_q_star_values(env, mu, rho, vi_tol), lam)
    residual_mu = l1_norm(induced_kernel(env, pi, mu).T @ mu - mu)
    residual_policy = tv_norm(pi - softmax_table(_q_star_values(env, mu, rho, vi_tol), lam))
    return BmfePair(
        policy=Policy(pi),
        mean_field=MeanField(mu),
        residual_policy=residual_policy,
        residual_mu=residual_mu,
        converged=converged,
        iterations=iterations,
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
    uniformly over the simplex. Ratios whose denominator is below 1e-9 are
    skipped.
    """
    if num_pairs < 1:
        raise ValueError("num_pairs must be >= 1")
    S, A = env.dims.num_states, env.dims.num_actions
    d1 = d2 = d3 = 0.0
    for _ in range(num_pairs):
        mu = rng.dirichlet(np.ones(S))
        mu_alt = rng.dirichlet(np.ones(S))
        pi = np.vstack([rng.dirichlet(np.ones(A)) for _ in range(S)])
        pi_alt = np.vstack([rng.dirichlet(np.ones(A)) for _ in range(S)])

        push = induced_kernel(env, pi, mu).T @ mu
        dmu = l1_norm(mu - mu_alt)
        if dmu >= 1e-9:
            g1 = softmax_table(_q_star_values(env, mu, rho, vi_tol), lam)
            g1_alt = softmax_table(_q_star_values(env, mu_alt, rho, vi_tol), lam)
            d1 = max(d1, tv_norm(g1 - g1_alt) / dmu)
            push_alt = induced_kernel(env, pi, mu_alt).T @ mu_alt
            d3 = max(d3, l1_norm(push - push_alt) / dmu)
        dpi = tv_norm(pi - pi_alt)
        if dpi >= 1e-9:
            push_alt = induced_kernel(env, pi_alt, mu).T @ mu
            d2 = max(d2, l1_norm(push - push_alt) / dpi)
    return ContractionEstimate(d1_hat=d1, d2_hat=d2, d3_hat=d3, num_pairs=num_pairs)


class DiagnosticsOracle:
    """Ground-truth quantities handed to an instrumented learning run.

    Bundles the environment, the temperature and discount, and the reference
    equilibrium mean-field so the run loop can score each episode's first
    step against exact operator evaluations.
    """

    def __init__(self, env: MfgEnvironment, lam: float, rho: float, mu_star, vi_tol: float = 1e-10):
        self.env = env
        self.lam = float(lam)
        self.rho = float(rho)
        self.mu_star = as_probs(mu_star).copy()
        self.vi_tol = float(vi_tol)

    def q_star_values(self, mu) -> np.ndarray:
        return _q_star_values(self.env, mu, self.rho, self.vi_tol)

    def gamma1_table(self, mu) -> np.ndarray:
        return softmax_table(self.q_star_values(mu), self.lam)

    def kernel(self, pi, mu) -> np.ndarray:
        return induced_kernel(self.env, pi, mu)


def make_diagnostics_oracle(
    env: MfgEnvironment,
    lam: float,
    rho: float,
    damping: float = 0.5,
    tol: float = 1e-8,
    max_iter: int = 10_000,
    vi_tol: float = 1e-10,
) -> tuple[DiagnosticsOracle, BmfePair]:
    """Solve for the reference equilibrium and wrap it for instrumentation."""
    pair = solve_bmfe(env, lam, rho, damping=damping, tol=tol, max_iter=max_iter, vi_tol=vi_tol)
    oracle = DiagnosticsOracle(env, lam, rho, pair.mean_field.probs, vi_tol=vi_tol)
    return oracle, pair
