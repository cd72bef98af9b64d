"""Core domain types and norms for tabular mean-field games.

States and actions are integer indexed. A mean-field is a point on the
probability simplex over states, a policy is a row-stochastic state-by-action
table, and a Q-table is a plain state-by-action array of discounted returns,
bounded by 1/(1 - rho) when rewards lie in [0, 1]. The mean-field and policy
wrapper dataclasses validate on construction and are immutable; the operational functions below work on plain float64 arrays
so they can be reused inside hot loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Absolute tolerance for all simplex / row-stochasticity checks.
SIMPLEX_ATOL = 1e-9


def _finite_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_probs(mu) -> np.ndarray:
    """Unwrap a MeanField (or accept a plain vector) into a float64 array."""
    if isinstance(mu, MeanField):
        return mu.probs
    return np.asarray(mu, dtype=np.float64)


def as_policy_table(pi) -> np.ndarray:
    """Unwrap a Policy (or accept a plain matrix) into a float64 array."""
    if isinstance(pi, Policy):
        return pi.table
    return np.asarray(pi, dtype=np.float64)


@dataclass(frozen=True)
class StateActionDims:
    """Sizes of the finite state and action spaces."""

    num_states: int
    num_actions: int

    def __post_init__(self):
        if self.num_states < 1 or self.num_actions < 1:
            raise ValueError("num_states and num_actions must both be >= 1")


@dataclass(frozen=True)
class MeanField:
    """A probability distribution over states (a point on the simplex)."""

    probs: np.ndarray

    def __post_init__(self):
        arr = _finite_array(self.probs, "mean-field").copy()
        if arr.ndim != 1:
            raise ValueError("mean-field must be a one-dimensional vector")
        if arr.min() < -SIMPLEX_ATOL or arr.max() > 1.0 + SIMPLEX_ATOL:
            raise ValueError("mean-field entries must lie in [0, 1]")
        if abs(float(arr.sum()) - 1.0) > SIMPLEX_ATOL:
            raise ValueError("mean-field entries must sum to 1")
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @property
    def num_states(self) -> int:
        return int(self.probs.shape[0])

    @staticmethod
    def uniform(num_states: int) -> "MeanField":
        return MeanField(np.full(num_states, 1.0 / num_states))


@dataclass(frozen=True)
class Policy:
    """Row-stochastic table; row s is the action distribution in state s."""

    table: np.ndarray

    def __post_init__(self):
        arr = _finite_array(self.table, "policy").copy()
        if arr.ndim != 2:
            raise ValueError("policy must be a states-by-actions matrix")
        if arr.min() < -SIMPLEX_ATOL or arr.max() > 1.0 + SIMPLEX_ATOL:
            raise ValueError("policy entries must lie in [0, 1]")
        if np.abs(arr.sum(axis=1) - 1.0).max() > SIMPLEX_ATOL:
            raise ValueError("policy rows must each sum to 1")
        arr.flags.writeable = False
        object.__setattr__(self, "table", arr)

    @property
    def num_states(self) -> int:
        return int(self.table.shape[0])

    @property
    def num_actions(self) -> int:
        return int(self.table.shape[1])


def tv_norm(f) -> float:
    """Max over states of the absolute row sum of a states-by-actions table.

    This is the policy-space norm used for differences of policies; for a
    single policy it equals 1.
    """
    arr = _finite_array(f, "tv_norm input")
    if arr.ndim != 2:
        raise ValueError("tv_norm expects a states-by-actions matrix")
    return float(np.abs(arr).sum(axis=1).max())


def l1_norm(v) -> float:
    """Sum of absolute entries of a vector."""
    return float(np.abs(np.asarray(v, dtype=np.float64)).sum())


def frobenius_norm(m) -> float:
    """Square root of the sum of squared entries."""
    arr = np.asarray(m, dtype=np.float64)
    return float(math.sqrt(float((arr * arr).sum())))


def inf_norm(m) -> float:
    """Maximum absolute entry."""
    return float(np.abs(np.asarray(m, dtype=np.float64)).max())


def softmax_table(q_values, lam: float) -> np.ndarray:
    """Row-wise Boltzmann distribution exp(lam * q) / sum over actions.

    Stabilized by subtracting the per-row maximum before exponentiating, so
    arbitrarily large finite lam * q stays finite. lam = 0 yields the
    uniform table.
    """
    q = _finite_array(q_values, "softmax input")
    if q.ndim != 2:
        raise ValueError("softmax expects a states-by-actions matrix")
    if not 0.0 <= lam < math.inf:
        raise ValueError("softmax temperature must be finite and >= 0")
    z = lam * q
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z

