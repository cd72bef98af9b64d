import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfg_sandbox.core import l1_norm
from mfg_sandbox.schedules import (
    EpsilonNet,
    ScheduleParams,
    build_epsilon_net,
    exploration_coeff,
    exploration_floor,
    project_to_net,
)


# The step sizes in closed form, one (k, t) at a time: the reference for the
# run loop, which fills a whole episode's sizes at once.
def step_size_mu(params: ScheduleParams, k: int, t: int) -> float:
    """Mean-field step size c_mu / (k**gamma * t**zeta) for k, t >= 1."""
    return params.c_mu / (k**params.gamma * t**params.zeta)


def step_size_pi(params: ScheduleParams, k: int, t: int) -> float:
    """Policy step size c_pi / (k**theta * t**zeta) for k, t >= 1."""
    return params.c_pi / (k**params.theta * t**params.zeta)


def test_params_constraints():
    ScheduleParams()
    with pytest.raises(ValueError):
        ScheduleParams(theta=0.7, gamma=0.6)
    with pytest.raises(ValueError):
        ScheduleParams(gamma=1.0)
    with pytest.raises(ValueError):
        ScheduleParams(zeta=1.0)
    with pytest.raises(ValueError):
        ScheduleParams(nu=0.5)
    with pytest.raises(ValueError):
        ScheduleParams(psi=0.6, c_pi=0.5)
    with pytest.raises(ValueError):
        ScheduleParams(lam=0.0)
    for c_beta in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="c_beta"):
            ScheduleParams(c_beta=c_beta)


def test_defaults_match_published_experiment_values():
    p = ScheduleParams()
    assert (p.c_mu, p.c_pi) == (0.5, 0.5)
    assert (p.theta, p.gamma) == (0.55, 0.6)
    assert (p.c_beta, p.nu) == (5.0, 0.55)


def test_step_size_values():
    p = ScheduleParams()
    assert step_size_mu(p, 1, 1) == pytest.approx(p.c_mu)
    assert step_size_pi(p, 1, 1) == pytest.approx(p.c_pi)
    q = ScheduleParams(c_mu=0.5, gamma=0.6, zeta=1.1)
    assert step_size_mu(q, 2, 2) == pytest.approx(0.5 / 2**1.7)


def test_step_sizes_strictly_decreasing():
    p = ScheduleParams()
    for k, t in [(1, 1), (1, 5), (4, 1), (7, 9)]:
        assert step_size_mu(p, k + 1, t) < step_size_mu(p, k, t)
        assert step_size_mu(p, k, t + 1) < step_size_mu(p, k, t)
        assert step_size_pi(p, k + 1, t) < step_size_pi(p, k, t)
        assert step_size_pi(p, k, t + 1) < step_size_pi(p, k, t)
        assert step_size_mu(p, k, t) <= p.c_mu
        assert step_size_pi(p, k, t) <= p.c_pi


def test_two_timescale_ordering():
    p = ScheduleParams(c_mu=0.5, c_pi=0.5)
    for k in (1, 2, 10, 100):
        ratio = step_size_pi(p, k, 1) / step_size_mu(p, k, 1)
        assert ratio == pytest.approx(k ** (p.gamma - p.theta))
        assert ratio >= 1.0


def test_within_episode_summability():
    # sum_{t>=2} t^-zeta <= 2^-zeta + integral_2^inf x^-zeta dx; the first
    # summand cannot be dropped (at zeta = 1.5 the sum is 1.61 while the
    # integral alone is 1.41)
    for zeta in (1.1, 1.5, 2.0):
        t = np.arange(2, 1_000_001, dtype=np.float64)
        partial = (t**-zeta).sum()
        assert partial <= 2**-zeta + 2 ** (1 - zeta) / (zeta - 1)


def test_exploration_coeff_schedule():
    p = ScheduleParams(psi=0.2, c_pi=0.5, theta=0.55)
    assert exploration_coeff(p, 1) == pytest.approx(0.4)
    prev = math.inf
    for k in (1, 2, 5, 20, 100):
        value = exploration_coeff(p, k)
        assert 0.0 <= value < 1.0
        assert value <= prev
        prev = value


def _naive_floor(params, num_actions, num_episodes, steps):
    x = 1.0 / num_actions
    floor = math.inf
    for k in range(1, num_episodes + 1):
        for t in range(1, steps + 1):
            c = step_size_pi(params, k, t)
            psi = 0.0 if t == 1 else exploration_coeff(params, k)
            x = (1 - c) * x + c * psi / num_actions
            if t > 1:
                floor = min(floor, x)
    return floor


def test_exploration_floor_matches_naive_recursion():
    p = ScheduleParams()
    fast = exploration_floor(p, 4, 7, 40)
    slow = _naive_floor(p, 4, 7, 40)
    assert fast == pytest.approx(slow, rel=1e-12)
    assert 0.0 < fast < 0.25


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def lattice_points(num_states, resolution):
    """Every point m / resolution of the net, in lexicographic order: the reference."""
    return np.array(list(compositions(resolution, num_states)), dtype=np.float64) / resolution


def exact_l1(mu, counts, resolution):
    """L1 distance from the float input to the lattice point counts / resolution, as a rational."""
    return sum(abs(Fraction(float(x)) - Fraction(m, resolution)) for x, m in zip(mu, counts))


def test_build_net_two_states_mesh_one():
    net = build_epsilon_net(2, 1.0)
    assert net.resolution == 2
    points = lattice_points(2, net.resolution)
    assert np.allclose(points[:, 0], [0.0, 0.5, 1.0])
    for point in points:
        assert point.min() >= 0.0 and point.sum() == 1.0  # every net point is a distribution
        assert np.array_equal(project_to_net(net, point), point)


def test_build_net_rejects_a_mesh_whose_resolution_overflows():
    with pytest.raises(ValueError, match="overflows"):
        build_epsilon_net(25, 1e-320)


def test_projection_examples():
    net = build_epsilon_net(2, 1.0)
    assert np.allclose(project_to_net(net, np.array([0.9, 0.1])), [1.0, 0.0])
    # a net point projects to itself
    assert np.array_equal(project_to_net(net, np.array([0.5, 0.5])), [0.5, 0.5])
    with pytest.raises(ValueError):
        project_to_net(net, np.array([1.5, 1.5]))


def test_projection_idempotent_and_within_mesh():
    rng = np.random.default_rng(6)
    for num_states, mesh in ((3, 0.5), (4, 0.8)):
        net = build_epsilon_net(num_states, mesh)
        for _ in range(200):
            mu = rng.dirichlet(np.ones(num_states))
            proj = project_to_net(net, mu)
            assert l1_norm(proj - mu) <= mesh + 1e-12
            assert np.array_equal(project_to_net(net, proj), proj)


def test_projection_covering_radius_monte_carlo():
    # nearest-point search over the whole lattice is the oracle here
    net = build_epsilon_net(3, 0.5)
    points = lattice_points(3, net.resolution)
    rng = np.random.default_rng(8)
    for _ in range(10_000):
        mu = rng.dirichlet(np.ones(3))
        best = np.abs(points - mu).sum(axis=1).min()
        assert best <= 0.5 + 1e-12
        assert l1_norm(project_to_net(net, mu) - mu) == pytest.approx(best, abs=1e-12)


def test_projection_tie_break_lexicographic():
    net = EpsilonNet(mesh=1.0, resolution=1)
    # equidistant from both points; the lexicographically smaller wins
    assert np.array_equal(project_to_net(net, np.array([0.5, 0.5])), [0.0, 1.0])


@pytest.mark.parametrize("num_states, mesh", [(2, 1.0), (3, 0.75), (4, 1.0), (3, 0.5)])
def test_projection_matches_brute_force_exactly(num_states, mesh):
    # Distances are exact rationals of the float inputs, so ties at midpoints
    # between lattice neighbours are real ties; the reference picks the first
    # minimiser in lexicographic order.
    net = build_epsilon_net(num_states, mesh)
    points = lattice_points(num_states, net.resolution)
    rng = np.random.default_rng(num_states * 100 + net.resolution)
    inputs = list(rng.dirichlet(np.ones(num_states), size=50)) + list(points)
    for p in points:
        for i, j in itertools.permutations(range(num_states), 2):
            if p[i] > 0.0:
                step = np.zeros(num_states)
                step[i], step[j] = -1.0 / net.resolution, 1.0 / net.resolution
                inputs.append(p + step / 2)
    lattice = list(compositions(net.resolution, num_states))
    for mu in inputs:
        # min keeps the first of equal keys: the lexicographically smallest
        best = min(lattice, key=lambda counts: exact_l1(mu, counts, net.resolution))
        assert np.array_equal(project_to_net(net, mu), np.array(best) / net.resolution), mu


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.floats(0.3, 3.0), st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6))
def test_net_points_are_simplex_points(num_states, mesh, weights):
    weights = np.array(weights[:num_states]) + 1e-3
    mu = weights / weights.sum()
    net = build_epsilon_net(num_states, mesh)
    proj = project_to_net(net, mu)
    assert abs(proj.sum() - 1.0) < 1e-12
    assert proj.min() >= 0.0
    # the projection is the nearest lattice point
    points = lattice_points(num_states, net.resolution)
    assert l1_norm(proj - mu) == pytest.approx(np.abs(points - mu).sum(axis=1).min(), abs=1e-12)
