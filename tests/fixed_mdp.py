"""Hand-built test environments: FixedMdpEnv, a mean-field-independent MDP, and MuDependentEnv."""

import numpy as np

from mfg_sandbox.core import SIMPLEX_ATOL
from mfg_sandbox.environment import MfgEnvironment


class FixedMdpEnv(MfgEnvironment):
    """Mean-field-independent MDP used as a ground-truth test environment.

    kernel and rewards are read-only copies of the tables, returned by every
    call, so the oracle shares the one kernel across a stack.
    """

    def __init__(self, kernel: np.ndarray, rewards: np.ndarray):
        kernel = np.asarray(kernel, dtype=np.float64)
        rewards = np.asarray(rewards, dtype=np.float64)
        if kernel.ndim != 3 or kernel.shape[0] != kernel.shape[2]:
            raise ValueError("kernel must have shape (S, A, S)")
        if rewards.shape != kernel.shape[:2]:
            raise ValueError("rewards must have shape (S, A)")
        if kernel.min() < -SIMPLEX_ATOL:
            raise ValueError("kernel entries must be nonnegative")
        if np.abs(kernel.sum(axis=2) - 1.0).max() > SIMPLEX_ATOL:
            raise ValueError("kernel rows must each sum to 1")
        if rewards.min() < 0.0 or rewards.max() > 1.0:
            raise ValueError("rewards must lie in [0, 1]")
        self.num_states, self.num_actions = kernel.shape[:2]
        kernel = kernel.copy()
        kernel.flags.writeable = False
        self.kernel = kernel
        rewards = rewards.copy()
        rewards.flags.writeable = False
        self.rewards = rewards

    def transition_kernel(self, mu):
        return self.kernel

    def reward_table(self, mu):
        return self.rewards


class MuDependentEnv(MfgEnvironment):
    """Kernel and reward both move with mu; each call builds a new kernel,
    so value iteration on a stack solves one problem per call."""

    def __init__(self, seed, num_states=4, num_actions=3):
        rng = np.random.default_rng(seed)
        self.num_states, self.num_actions = num_states, num_actions
        self._base = rng.dirichlet(np.ones(num_states), size=(num_states, num_actions))
        self._rewards = rng.uniform(0.0, 1.0, size=(num_states, num_actions))

    def transition_kernel(self, mu):
        return 0.7 * self._base + 0.3 * np.asarray(mu)

    def reward_table(self, mu):
        return self._rewards * (1.0 - 0.5 * np.asarray(mu))[:, None]
