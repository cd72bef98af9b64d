import numpy as np
import pytest

from mfg_sandbox import oracle
from mfg_sandbox.environment import (
    TWO_CLASS_OPEN_STATES,
    CongestionGridParams,
    MfgEnvironment,
    env_step,
    make_congestion_env,
    make_two_class_env,
    state_coords,
    state_index,
)
from fixed_mdp import FixedMdpEnv


def uniform_mu(n):
    return np.full(n, 1.0 / n)


def support_reachable(kernel, start):
    """States reachable from start when actions are chosen adversarially."""
    num_states = kernel.shape[0]
    seen = {start}
    frontier = [start]
    while frontier:
        s = frontier.pop()
        for nxt in np.nonzero(kernel[s].sum(axis=0) > 0)[0]:
            if int(nxt) not in seen:
                seen.add(int(nxt))
                frontier.append(int(nxt))
    return seen


def test_state_indexing_round_trip():
    side = 5
    for idx in range(side * side):
        x, y = state_coords(idx, side)
        assert state_index(x, y, side) == idx
    assert state_index(1, 1, 5) == 0
    assert state_index(3, 4, 5) == 13


def test_default_favorable_states_match_grid_center_block():
    assert CongestionGridParams(side=5).resolved_favorable_states() == (
        (3, 3),
        (3, 4),
        (4, 3),
        (4, 4),
    )
    assert CongestionGridParams(side=3).resolved_favorable_states() == (
        (2, 2),
        (2, 3),
        (3, 2),
        (3, 3),
    )


def test_params_validation():
    with pytest.raises(ValueError):
        CongestionGridParams(jostle_p=1.0)
    with pytest.raises(ValueError):
        CongestionGridParams(baseline_reward=0.9, favorable_reward=0.8)
    with pytest.raises(ValueError):
        CongestionGridParams(side=3, favorable_states=((4, 4),))


def test_kernel_rows_are_stochastic_and_rewards_bounded():
    for env in (
        make_congestion_env(CongestionGridParams(side=3)),
        make_congestion_env(CongestionGridParams(side=5, jostle_p=0.3)),
        make_two_class_env(CongestionGridParams(side=5)),
    ):
        kernel = env.transition_kernel(uniform_mu(env.num_states))
        assert np.abs(kernel.sum(axis=2) - 1.0).max() < 1e-9
        assert kernel.min() >= 0.0
        rng = np.random.default_rng(0)
        for _ in range(20):
            rewards = env.reward_table(rng.dirichlet(np.ones(env.num_states)))
            assert rewards.shape == (env.num_states, env.num_actions)
            assert 0.0 <= rewards.min() and rewards.max() <= 1.0


def test_zero_jostle_is_deterministic():
    env = make_congestion_env(CongestionGridParams(side=4, jostle_p=0.0))
    mu = uniform_mu(16)
    # from (2, 2), action (+1, +1) lands exactly at (3, 3)
    s = state_index(2, 2, 4)
    dist = env.transition_kernel(mu)[s, 3]
    assert dist[state_index(3, 3, 4)] == 1.0
    rng = np.random.default_rng(1)
    nxt, _ = env_step(env, s, 3, mu, rng)
    assert nxt == state_index(3, 3, 4)


def test_reward_formula_on_favorable_state():
    env = make_congestion_env(CongestionGridParams(side=5))
    mu = uniform_mu(25)
    s = state_index(3, 3, 5)
    rewards = env.reward_table(mu)
    # (1 - 0.5 * 1/25) * 1.0
    assert rewards[s, 0] == pytest.approx(0.98)
    s_base = state_index(1, 1, 5)
    assert rewards[s_base, 2] == pytest.approx((1 - 0.5 / 25) * 0.1)


def test_reward_is_action_independent():
    env = make_congestion_env(CongestionGridParams(side=3))
    rewards = env.reward_table(np.random.default_rng(2).dirichlet(np.ones(9)))
    assert np.array_equal(rewards, np.repeat(rewards[:, :1], 4, axis=1))


def test_kernel_ignores_mean_field():
    env = make_congestion_env(CongestionGridParams(side=3))
    rng = np.random.default_rng(3)
    mu1 = rng.dirichlet(np.ones(9))
    mu2 = rng.dirichlet(np.ones(9))
    assert np.array_equal(env.transition_kernel(mu1), env.transition_kernel(mu2))


def test_congestion_env_is_communicating():
    for side in (2, 3, 5):
        env = make_congestion_env(CongestionGridParams(side=side, jostle_p=0.1))
        kernel = env.transition_kernel(uniform_mu(side * side))
        for start in range(side * side):
            assert support_reachable(kernel, start) == set(range(side * side))


def test_two_class_closed_and_open_classes():
    env = make_two_class_env(CongestionGridParams(side=5))
    kernel = env.transition_kernel(uniform_mu(25))
    open_idx = {state_index(x, y, 5) for x, y in TWO_CLASS_OPEN_STATES}
    closed = set(range(25)) - open_idx
    # no mass from the closed class into the open class, rows still stochastic
    for s in closed:
        assert kernel[s][:, sorted(open_idx)].sum() == 0.0
    assert np.abs(kernel.sum(axis=2) - 1.0).max() < 1e-9
    # closed class is closed under every action sequence
    for s in closed:
        assert support_reachable(kernel, s) <= closed
    # the open class can reach the closed class
    for s in open_idx:
        assert support_reachable(kernel, s) & closed


def test_two_class_requires_side_five():
    with pytest.raises(ValueError):
        make_two_class_env(CongestionGridParams(side=3))


def test_env_step_deterministic_under_fixed_seed():
    env = make_congestion_env(CongestionGridParams(side=3))
    mu = uniform_mu(9)

    def rollout():
        rng = np.random.default_rng(42)
        out = []
        s = 0
        for _ in range(200):
            s, r = env_step(env, s, 2, mu, rng)
            out.append((s, r))
        return out

    assert rollout() == rollout()


def test_env_step_rejects_out_of_range():
    env = make_congestion_env(CongestionGridParams(side=3))
    rng = np.random.default_rng(0)
    with pytest.raises(IndexError):
        env_step(env, 9, 0, uniform_mu(9), rng)
    with pytest.raises(IndexError):
        env_step(env, 0, 4, uniform_mu(9), rng)


def test_env_step_frequencies_match_kernel():
    env = make_congestion_env(CongestionGridParams(side=3, jostle_p=0.3))
    mu = uniform_mu(9)
    s, a = state_index(2, 2, 3), 0
    dist = env.transition_kernel(mu)[s, a]
    n = 100_000
    rng = np.random.default_rng(7)
    counts = np.zeros(9)
    for _ in range(n):
        nxt, _ = env_step(env, s, a, mu, rng)
        counts[nxt] += 1
    freq = counts / n
    se = np.sqrt(dist * (1 - dist) / n)
    assert np.all(np.abs(freq - dist) <= 3 * se + 1e-12)


def test_fixed_mdp_round_trip_and_mu_independence():
    rng = np.random.default_rng(11)
    kernel = rng.dirichlet(np.ones(5), size=(5, 2))
    rewards = rng.uniform(0, 1, size=(5, 2))
    env = FixedMdpEnv(kernel, rewards)
    assert np.array_equal(env.kernel, kernel)
    mu1 = rng.dirichlet(np.ones(5))
    mu2 = rng.dirichlet(np.ones(5))
    assert np.array_equal(env.transition_kernel(mu1), kernel)
    assert np.array_equal(env.transition_kernel(mu2), kernel)
    assert np.array_equal(env.reward_table(mu1), rewards)
    assert np.array_equal(env.reward_table(mu2), rewards)


def test_fixed_mdp_validation():
    bad_kernel = np.ones((2, 1, 2))
    with pytest.raises(ValueError):
        FixedMdpEnv(bad_kernel, np.zeros((2, 1)))
    kernel = np.tile(np.array([[0.5, 0.5]]), (2, 1, 1))
    with pytest.raises(ValueError):
        FixedMdpEnv(kernel, np.array([[1.5], [0.0]]))


def test_one_state_one_action_env():
    env = FixedMdpEnv(np.ones((1, 1, 1)), np.array([[0.4]]))
    rng = np.random.default_rng(0)
    nxt, r = env_step(env, 0, 0, np.array([1.0]), rng)
    assert nxt == 0 and r == 0.4
    assert (env.num_states, env.num_actions) == (1, 1)


def test_an_environment_is_its_two_tables():
    # the learner's env_step and every oracle caller read these two methods
    assert MfgEnvironment.__abstractmethods__ == {"transition_kernel", "reward_table"}


@pytest.mark.parametrize(
    "env",
    [
        make_congestion_env(CongestionGridParams(side=3)),
        make_congestion_env(CongestionGridParams(side=1)),
        make_two_class_env(CongestionGridParams(side=5)),
        FixedMdpEnv(np.full((2, 3, 2), 0.5), np.arange(6.0).reshape(2, 3) / 5.0),
    ],
    ids=["grid3", "grid1", "two_class", "fixed"],
)
@pytest.mark.parametrize("M", [1, 4])
def test_a_stack_of_mean_fields_gets_a_stack_of_tables(env, M):
    # An environment takes one mean-field; the oracle asks it once per
    # mean-field of a stack. A kernel that ignores mu is one array object,
    # which then serves the whole stack.
    S, A = env.num_states, env.num_actions
    mus = np.random.default_rng(M).dirichlet(np.ones(S), size=M)
    kernel = env.transition_kernel(mus[0])
    assert kernel.shape == (S, A, S) and env.reward_table(mus[0]).shape == (S, A)
    assert all(env.transition_kernel(mu) is kernel for mu in mus)
    assert oracle._kernels(env, mus) is kernel
    policy, q, _ = oracle.gamma1(env, mus, 1.0, 0.7)
    for m, mu in enumerate(mus):
        single_policy, single_q, _ = oracle.gamma1(env, mu, 1.0, 0.7)
        assert np.array_equal(q[m], single_q) and np.array_equal(policy[m], single_policy)
