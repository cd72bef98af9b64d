"""Core domain types and norms for tabular mean-field games.

States and actions are integer indexed. A mean-field is a point on the
probability simplex over states, a policy is a row-stochastic state-by-action
table, and a Q-table is a plain state-by-action array of discounted returns,
bounded by 1/(1 - rho) when rewards lie in [0, 1]. All three are plain
float64 arrays, so the functions below can be reused inside hot loops;
check_simplex guards the mean-field and policy where the package hands
them out.
"""

from __future__ import annotations

import math

import numpy as np

# Absolute tolerance for all simplex / row-stochasticity checks.
SIMPLEX_ATOL = 1e-9


def _finite_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def check_simplex(mu, pi, where: str) -> None:
    """Raise RuntimeError unless mu is a distribution over states and each row of pi one over actions.

    Every entry must be finite and at least -SIMPLEX_ATOL, and mu and each
    row of pi must sum to 1 within SIMPLEX_ATOL. Finiteness is tested
    first: a comparison with NaN is false, so the sum and sign tests alone
    would let NaN through. where ends the message, e.g. "at episode 3,
    step 200".
    """
    if (
        not (np.isfinite(mu).all() and np.isfinite(pi).all())
        or mu.min() < -SIMPLEX_ATOL
        or abs(float(mu.sum()) - 1.0) > SIMPLEX_ATOL
        or pi.min() < -SIMPLEX_ATOL
        or np.abs(pi.sum(axis=1) - 1.0).max() > SIMPLEX_ATOL
    ):
        raise RuntimeError(f"simplex invariant violated {where}")


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

    Each entry is exponentiated with libm's exp (math.exp), the function the
    compiled learner step and probe block call, not with NumPy's own SIMD
    exp, which rounds some entries apart from it; so the compiled and the
    reference paths compute the same bits.
    """
    q = _finite_array(q_values, "softmax input")
    if q.ndim != 2:
        raise ValueError("softmax expects a states-by-actions matrix")
    if not 0.0 <= lam < math.inf:
        raise ValueError("softmax temperature must be finite and >= 0")
    z = lam * q
    z -= z.max(axis=1, keepdims=True)
    z = np.fromiter(map(math.exp, z.ravel().tolist()), dtype=np.float64, count=z.size).reshape(z.shape)
    z /= z.sum(axis=1, keepdims=True)
    return z

