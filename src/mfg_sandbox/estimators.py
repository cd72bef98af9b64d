"""Online estimators fed by the single sample path.

TransitionCounter maintains smoothed empirical transition probabilities of
the state chain; QLearner runs asynchronous tabular Q-learning with a
polynomial step size. Both are single-owner mutable objects: one instance
per run, never shared across threads.
"""

from __future__ import annotations

import math

import numpy as np


class TransitionCounter:
    """Smoothed transition-probability estimator.

    Entry (i, j) of the estimate is (N(i, j) + 1/S) / (N(i) + 1), N(i) the
    sum of row i, so every row sums to 1 identically, including never-visited
    rows (uniform 1/S). The counter holds only the counts N; the estimate is
    derived from them on each call. Counts cover the current episode only;
    reset() caches the final estimate so the next episode's first mean-field
    update can reuse it before any new observations arrive.
    """

    def __init__(self, num_states: int):
        if num_states < 1:
            raise ValueError("num_states must be >= 1")
        self.num_states = num_states
        self.pair_counts = np.zeros((num_states, num_states), dtype=np.int64)
        # A 1-D view of the counts, which are only ever written in place:
        # record runs once per learner step, and a memoryview increment costs
        # a fraction of a numpy scalar increment.
        self._pairs = memoryview(self.pair_counts.reshape(-1))
        self.cached_estimate = self.estimate()

    def record(self, i: int, j: int) -> None:
        """Count one observed transition i -> j."""
        n = self.num_states
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"transition ({i}, {j}) out of range for {n} states")
        self._pairs[i * n + j] += 1

    def estimate(self) -> np.ndarray:
        """Current smoothed row-stochastic estimate, as a new array."""
        return (self.pair_counts + 1.0 / self.num_states) / (self.pair_counts.sum(axis=1)[:, None] + 1.0)

    def reset(self) -> None:
        """Cache the current estimate and zero the counts in place."""
        self.cached_estimate = self.estimate()
        self.pair_counts[:] = 0


class QLearner:
    """Asynchronous tabular Q-learner.

    The step size at internal clock t is min(1, c_beta / (t + 1)**nu) with
    0.5 < nu <= 1; the clamp keeps early updates valid convex combinations
    when c_beta > 1. The clock starts at 0 and reset_clock() restarts it at
    episode boundaries while the table itself carries over.
    """

    def __init__(self, num_states, num_actions, rho, c_beta, nu):
        if not 0.0 < rho < 1.0:
            raise ValueError("discount rho must lie in (0, 1)")
        if not 0.0 < c_beta < math.inf:
            raise ValueError("c_beta must be a finite positive real")
        if not 0.5 < nu <= 1.0:
            raise ValueError("nu must lie in (0.5, 1]")
        self.rho = float(rho)
        self.c_beta = float(c_beta)
        self.nu = float(nu)
        self.t = 0
        self.q = np.zeros((num_states, num_actions))

    def step_size(self) -> float:
        return min(1.0, self.c_beta / (self.t + 1.0) ** self.nu)

    def update(self, s: int, a: int, r: float, s_next: int) -> None:
        """One-entry Bellman update from a sampled transition; advances the clock."""
        q = self.q
        if not (0 <= s < q.shape[0] and 0 <= s_next < q.shape[0]):
            raise IndexError("state index out of range")
        if not 0 <= a < q.shape[1]:
            raise IndexError("action index out of range")
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"reward {r} outside [0, 1]")
        beta = self.step_size()
        q[s, a] = (1.0 - beta) * q[s, a] + beta * (r + self.rho * q[s_next].max())
        self.t += 1

    def reset_clock(self) -> None:
        self.t = 0
