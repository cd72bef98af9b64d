"""Mean-field game environments.

Provides the abstract environment interface, which defines a game by two
tables at one mean-field mu (the (S, A, S) transition kernel and the (S, A)
reward table), and the congestion grid worlds used in the experiments. Grid
coordinates are (x, y) with x, y in 1..side; the flat state index is
(x - 1) * side + (y - 1) (row major).
"""

from __future__ import annotations

import abc
import operator
from dataclasses import dataclass

import numpy as np

# Diagonal moves; each action shifts both coordinates by +-1 before clamping.
GRID_ACTIONS = ((-1, -1), (-1, 1), (1, -1), (1, 1))

# Non-closed communicating class of the two-class grid variant (side 5 only).
TWO_CLASS_OPEN_STATES = ((4, 5), (5, 4), (5, 5))


class MfgEnvironment(abc.ABC):
    """A mean-field game: its kernel and reward tables at a mean-field mu.

    Subclasses define the whole game through transition_kernel and
    reward_table, each of one (S,) mean-field; the learner's reference step
    (env_step) and every oracle caller read these two methods, so the game
    learned is the game scored. Both may depend on mu. The oracle forms a
    stack's tables itself, one call per mean-field; when every kernel call
    returns the same array object, as for a kernel stored once, that one
    kernel serves the whole stack. Instances are immutable after
    construction, and both methods are pure and safe to share across
    concurrent runs. num_states and num_actions are S and A.
    """

    num_states: int
    num_actions: int

    @abc.abstractmethod
    def transition_kernel(self, mu) -> np.ndarray:
        """(S, A, S) kernel at mean-field mu (S,); each [s, a] row is a distribution."""

    @abc.abstractmethod
    def reward_table(self, mu) -> np.ndarray:
        """(S, A) rewards in [0, 1] at mean-field mu (S,)."""


def state_index(x: int, y: int, side: int) -> int:
    return (x - 1) * side + (y - 1)


def state_coords(idx: int, side: int) -> tuple[int, int]:
    return idx // side + 1, idx % side + 1


def _clamp(v: int, side: int) -> int:
    return min(max(v, 1), side)


@dataclass(frozen=True)
class CongestionGridParams:
    """Parameters of the congestion grid world.

    The agent moves diagonally on a side-by-side grid, gets jostled to a
    neighboring cell with probability jostle_p, and earns
    (1 - congestion_c * mu(s)) * R(s) where R(s) is favorable_reward on the
    favorable cells and baseline_reward elsewhere. When favorable_states is
    None, the default is the 2x2 block just past the grid center, e.g.
    {(3,3), (3,4), (4,3), (4,4)} for side 5.
    """

    side: int = 5
    jostle_p: float = 0.1
    congestion_c: float = 0.5
    favorable_reward: float = 1.0
    baseline_reward: float = 0.1
    favorable_states: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if self.side < 1:
            raise ValueError("grid side must be >= 1")
        if not 0.0 <= self.jostle_p < 1.0:
            raise ValueError("jostle_p must lie in [0, 1)")
        # Larger values make the reward negative on a crowded enough cell.
        if not 0.0 <= self.congestion_c <= 1.0:
            raise ValueError("congestion_c must lie in [0, 1]")
        if not 0.0 < self.favorable_reward <= 1.0:
            raise ValueError("favorable_reward must lie in (0, 1]")
        if not 0.0 <= self.baseline_reward < self.favorable_reward:
            raise ValueError("baseline_reward must lie in [0, favorable_reward)")
        if self.favorable_states is not None:
            try:
                cells = tuple((operator.index(x), operator.index(y)) for x, y in self.favorable_states)
                if any(isinstance(v, bool) for cell in self.favorable_states for v in cell):
                    raise TypeError("a boolean is not a cell coordinate")
            except (TypeError, ValueError) as err:
                raise ValueError(f"favorable_states must be a list of [x, y] integer cells ({err})") from None
            for x, y in cells:
                if not (1 <= x <= self.side and 1 <= y <= self.side):
                    raise ValueError(f"favorable_states entry {(x, y)} is outside the grid")
            object.__setattr__(self, "favorable_states", cells)

    def resolved_favorable_states(self) -> tuple[tuple[int, int], ...]:
        if self.favorable_states is not None:
            return self.favorable_states
        lo = (self.side + 1) // 2
        hi = min(lo + 1, self.side)
        return tuple(sorted({(x, y) for x in (lo, hi) for y in (lo, hi)}))


def _grid_kernel(side: int, jostle_p: float) -> np.ndarray:
    """(S, 4, S) kernel of the jostled diagonal-move grid.

    Landing cell is clamp(s + a) with probability 1 - p; with probability p
    the agent lands uniformly on the clamped, deduplicated 4-neighborhood of
    that cell (which can include the cell itself at grid corners).
    """
    num_states = side * side
    kernel = np.zeros((num_states, len(GRID_ACTIONS), num_states))
    for s in range(num_states):
        x, y = state_coords(s, side)
        for ai, (ax, ay) in enumerate(GRID_ACTIONS):
            tx, ty = _clamp(x + ax, side), _clamp(y + ay, side)
            target = state_index(tx, ty, side)
            kernel[s, ai, target] += 1.0 - jostle_p
            if jostle_p > 0.0:
                neighborhood = sorted(
                    {
                        state_index(_clamp(tx + dx, side), _clamp(ty + dy, side), side)
                        for dx, dy in ((-1, 0), (1, 0), (0, -1), (0, 1))
                    }
                )
                for nb in neighborhood:
                    kernel[s, ai, nb] += jostle_p / len(neighborhood)
    return kernel


class CongestionGridEnv(MfgEnvironment):
    """Congestion-averse grid world with a mean-field-independent kernel.

    kernel is the read-only (S, A, S) kernel, returned by every
    transition_kernel call; state_reward holds R(s), so the reward at
    (s, a, mu) is (1 - congestion_c * mu[s]) * state_reward[s].
    """

    def __init__(self, params: CongestionGridParams, kernel: np.ndarray):
        side = params.side
        self.params = params
        self.num_states, self.num_actions = side * side, len(GRID_ACTIONS)
        kernel = np.ascontiguousarray(kernel)
        kernel.flags.writeable = False
        self.kernel = kernel
        state_reward = np.full(self.num_states, params.baseline_reward)
        for x, y in params.resolved_favorable_states():
            state_reward[state_index(x, y, side)] = params.favorable_reward
        state_reward.flags.writeable = False
        self.state_reward = state_reward

    def transition_kernel(self, mu):
        return self.kernel

    def reward_table(self, mu):
        scale = 1.0 - self.params.congestion_c * np.asarray(mu, dtype=np.float64)
        return (scale * self.state_reward)[:, None].repeat(self.num_actions, axis=1)


def make_congestion_env(params: CongestionGridParams) -> CongestionGridEnv:
    """Congestion grid world; communicating for jostle_p > 0 and side >= 2."""
    return CongestionGridEnv(params, _grid_kernel(params.side, params.jostle_p))


def make_two_class_env(params: CongestionGridParams) -> CongestionGridEnv:
    """Congestion grid variant whose state space splits into two classes.

    Transitions from the closed class (everything outside
    TWO_CLASS_OPEN_STATES) into the open class are zeroed and the removed
    mass is redistributed proportionally over the remaining support. One
    state-action pair, (4,4) moving (+1,+1), has its entire support inside
    the open class; its mass becomes a self loop.
    """
    if params.side != 5:
        raise ValueError("the two-class grid variant is defined for side 5 only")
    kernel = _grid_kernel(params.side, params.jostle_p)
    open_idx = [state_index(x, y, params.side) for x, y in TWO_CLASS_OPEN_STATES]
    for s in range(kernel.shape[0]):
        if s in open_idx:
            continue
        for a in range(kernel.shape[1]):
            row = kernel[s, a]
            if row[open_idx].sum() == 0.0:
                continue
            row[open_idx] = 0.0
            remaining = row.sum()
            if remaining > 0.0:
                row /= remaining
            else:
                row[s] = 1.0
    return CongestionGridEnv(params, kernel)


def sample_from_cdf(cdf: np.ndarray, u: float) -> int:
    """Inverse-CDF draw: smallest index whose cumulative mass exceeds u."""
    idx = int(np.searchsorted(cdf, u, side="right"))
    return min(idx, len(cdf) - 1)


def env_step(env: MfgEnvironment, s: int, a: int, mu, rng) -> tuple[int, float]:
    """Sample one transition with a single uniform draw from rng.

    Returns (next_state, reward): the draw is from row [s, a] of
    transition_kernel(mu), the reward entry [s, a] of reward_table(mu), both
    at the current mean-field.
    """
    if not 0 <= s < env.num_states:
        raise IndexError(f"state {s} out of range for {env.num_states} states")
    if not 0 <= a < env.num_actions:
        raise IndexError(f"action {a} out of range for {env.num_actions} actions")
    next_state = sample_from_cdf(np.cumsum(env.transition_kernel(mu)[s, a]), rng.random())
    return next_state, float(env.reward_table(mu)[s, a])
