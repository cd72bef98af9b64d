"""Episodic two-timescale step sizes, exploration noise, and the simplex net.

Step sizes have the form c / (k**exponent * t**zeta): summable within an
episode (zeta > 1, so the agent's chain varies slowly inside an episode) and
non-summable across episodes. The policy exponent theta is smaller than the
mean-field exponent gamma, so the policy moves on the faster timescale.
The run loop fills each episode's step sizes from ScheduleParams as whole
arrays (sandbox._Run.start_episode).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class ScheduleParams:
    """Learning-rate and exploration constants shared by a whole run."""

    c_mu: float = 0.5
    c_pi: float = 0.5
    gamma: float = 0.6
    theta: float = 0.55
    zeta: float = 1.1
    c_beta: float = 5.0
    nu: float = 0.55
    psi: float = 0.2
    lam: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.c_mu <= 1.0:
            raise ValueError("c_mu must lie in (0, 1]")
        if not 0.0 < self.c_pi <= 1.0:
            raise ValueError("c_pi must lie in (0, 1]")
        if not 0.0 < self.theta < self.gamma:
            raise ValueError("theta must satisfy 0 < theta < gamma")
        if not self.gamma < 1.0:
            raise ValueError("gamma must be < 1")
        if not self.zeta > 1.0:
            raise ValueError("zeta must be > 1")
        if not 0.0 < self.c_beta < math.inf:
            raise ValueError("c_beta must be a finite positive real")
        if not 0.5 < self.nu <= 1.0:
            raise ValueError("nu must lie in (0.5, 1]")
        if not 0.0 < self.psi < 1.0 - self.c_pi:
            raise ValueError("psi must lie in (0, 1 - c_pi)")
        if self.lam <= 0.0 or not math.isfinite(self.lam):
            raise ValueError("lambda must be a finite positive real")


def exploration_coeff(params: ScheduleParams, k: int) -> float:
    """Weight of the uniform exploration noise in the policy update after step 1 of episode k.

    psi / (1 - c_pi / k**theta), decreasing toward psi as k grows; step 1
    adds no noise.
    """
    return params.psi / (1.0 - params.c_pi / k**params.theta)


def exploration_floor(params: ScheduleParams, num_actions: int, num_episodes: int, steps_per_episode: int) -> float:
    """Uniform lower bound on policy entries over steps t > 1 of every episode.

    Each policy entry obeys pi_t >= (1 - c_t) * pi_{t-1} + c_t * psi_t / A
    because the Boltzmann part of the update is nonnegative, so the scalar
    recursion started from the uniform initial policy (entry 1/A) minorizes
    the true minimum entry along the whole run. Evaluated in closed form per
    episode via cumulative products.
    """
    if num_actions < 1 or num_episodes < 1 or steps_per_episode < 1:
        raise ValueError("num_actions, num_episodes, steps_per_episode must be >= 1")
    steps = np.arange(1, steps_per_episode + 1, dtype=np.float64)
    inv_tz = steps ** (-params.zeta)
    x = 1.0 / num_actions
    floor = math.inf
    for k in range(1, num_episodes + 1):
        c = (params.c_pi / k**params.theta) * inv_tz
        noise = np.full(steps_per_episode, exploration_coeff(params, k) / num_actions)
        noise[0] = 0.0  # step 1 adds no exploration noise
        keep = 1.0 - c
        # x_t = prod(keep[1..t]) * (x_0 + sum_{l<=t} c_l * noise_l / prod(keep[1..l]))
        cum_keep = np.cumprod(keep)
        x_t = cum_keep * (x + np.cumsum(c * noise / cum_keep))
        if steps_per_episode > 1:
            floor = min(floor, float(x_t[1:].min()))
        x = float(x_t[-1])
    return floor


@dataclass(frozen=True)
class EpsilonNet:
    """Simplex lattice {m / resolution : m_i >= 0 integers, sum(m) = resolution}.

    With resolution = ceil(S / mesh) the lattice covers the S-state simplex
    with L1 radius <= mesh. The points are never materialised: project_to_net
    finds the nearest one in closed form.
    """

    mesh: float
    resolution: int

    def __post_init__(self):
        if self.resolution < 1:
            raise ValueError("resolution must be >= 1")


def build_epsilon_net(num_states: int, mesh: float) -> EpsilonNet:
    """Lattice of resolution ceil(S / mesh) over the S-state simplex.

    Neighboring lattice points are 2/resolution apart in L1 and rounding any
    simplex point onto the lattice moves it by at most S/resolution <= mesh,
    so the L1 covering radius is <= mesh.
    """
    if mesh <= 0.0:
        raise ValueError("mesh must be > 0")
    if num_states < 1:
        raise ValueError("num_states must be >= 1")
    if not math.isfinite(num_states / mesh):
        raise ValueError("mesh is too small: the resolution num_states / mesh overflows")
    return EpsilonNet(mesh=float(mesh), resolution=math.ceil(num_states / mesh))


def project_to_net(net: EpsilonNet, mu) -> np.ndarray:
    """Lattice point with minimal L1 distance to mu.

    Largest-remainder rounding of resolution * mu, in exact arithmetic on the
    float input: every coordinate gets its floor, and the leftover units go to
    the largest remainders. Among equal remainders the later index gets the
    unit, which makes the result the lexicographically smallest of the
    minimisers. Idempotent: lattice points map to themselves.
    """
    scaled = [Fraction(float(x)) * net.resolution for x in np.asarray(mu, dtype=np.float64)]
    counts = [math.floor(x) for x in scaled]
    leftover = net.resolution - sum(counts)
    if not 0 <= leftover <= len(counts):
        raise ValueError("projection input must sum to 1")
    by_remainder = sorted(range(len(scaled)), key=lambda i: (scaled[i] - counts[i], i), reverse=True)
    for i in by_remainder[:leftover]:
        counts[i] += 1
    return np.array(counts, dtype=np.float64) / net.resolution
