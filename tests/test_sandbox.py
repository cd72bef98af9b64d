import dataclasses
import itertools
import logging
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfg_sandbox.core import frobenius_norm, inf_norm, l1_norm, tv_norm
from mfg_sandbox.environment import (
    CongestionGridEnv,
    CongestionGridParams,
    MfgEnvironment,
    env_step,
    make_congestion_env,
    make_two_class_env,
    sample_from_cdf,
)
from mfg_sandbox.estimators import QLearner, TransitionCounter
from mfg_sandbox.oracle import gamma1, gamma2, induced_kernel, solve_bmfe
from mfg_sandbox.sandbox import (
    NonFiniteError,
    SandboxConfig,
    episode_diagnostics,
    run_sandbox,
    update_mean_field,
    update_policy,
)
from mfg_sandbox.schedules import (
    ScheduleParams,
    build_epsilon_net,
    exploration_coeff,
    exploration_floor,
)
from mfg_sandbox import _step_kernel, oracle, sandbox, snapshots
from fixed_mdp import FixedMdpEnv, MuDependentEnv
from test_schedules import step_size_mu, step_size_pi


def small_env(side=2, **kw):
    return make_congestion_env(CongestionGridParams(side=side, **kw))


def small_config(env, **kw):
    defaults = dict(
        env=env,
        schedule=ScheduleParams(),
        num_episodes=4,
        steps_per_episode=100,
        rho=0.7,
        seed=3,
    )
    defaults.update(kw)
    return SandboxConfig(**defaults)


def test_config_validation():
    env = small_env()
    with pytest.raises(ValueError):
        small_config(env, num_episodes=1)
    with pytest.raises(ValueError):
        small_config(env, steps_per_episode=1)
    with pytest.raises(ValueError):
        small_config(env, rho=1.0)


def test_update_mean_field_examples():
    mu = np.array([0.5, 0.5])
    assert np.allclose(update_mean_field(mu, np.eye(2), 0.7), mu)
    p_hat = np.array([[1.0, 0.0], [1.0, 0.0]])
    out = update_mean_field(mu, p_hat, 0.5)
    assert np.allclose(out, [0.75, 0.25])
    with pytest.raises(ValueError):
        update_mean_field(mu, np.array([[0.9, 0.0], [0.5, 0.5]]), 0.5)
    with pytest.raises(ValueError):
        update_mean_field(mu, np.eye(2), 0.0)


def test_update_mean_field_sums_the_push_in_index_order():
    # the compiled step accumulates push[j] += mu[i] * p_hat[i, j] over i = 0..S-1
    rng = np.random.default_rng(0)
    for num_states in (1, 2, 9, 25):
        for _ in range(50):
            mu = rng.dirichlet(np.ones(num_states))
            p_hat = rng.dirichlet(np.ones(num_states), size=num_states)
            c = rng.uniform(0.01, 1.0)
            push = np.zeros(num_states)
            for i in range(num_states):
                push += mu[i] * p_hat[i]
            expected = mu * (1.0 - c) + push * c
            assert np.array_equal(update_mean_field(mu, p_hat, c), expected)


def test_update_mean_field_projection():
    net = build_epsilon_net(2, 1.0)
    out = update_mean_field(np.array([0.95, 0.05]), np.eye(2), 0.5, net=net)
    assert np.allclose(out, [1.0, 0.0])


def test_update_policy_examples():
    pi = np.full((1, 2), 0.5)
    q = np.array([[1.0, 0.0]])
    out = update_policy(pi, q, 0.5, 0.0, math.log(3))
    assert np.allclose(out, [[0.625, 0.375]])
    # pure-noise degenerate case
    out = update_policy(pi, q, 1.0, 1.0, 2.0)
    assert np.allclose(out, 0.5)
    # zero noise leaves softmax as the whole target
    out = update_policy(pi, q, 1.0, 0.0, math.log(3))
    assert np.allclose(out, [[0.75, 0.25]])


def test_run_single_state_environment():
    env = FixedMdpEnv(np.ones((1, 2, 1)), np.array([[0.9, 0.1]]))
    config = SandboxConfig(
        env=env, schedule=ScheduleParams(), num_episodes=3, steps_per_episode=400, rho=0.7, seed=0
    )
    result = run_sandbox(config)
    assert np.allclose(result.mu_first_steps, 1.0)
    assert np.allclose(result.avg_mean_field, [1.0])
    # the policy should have drifted toward the better action's softmax weight
    assert result.avg_policy[0, 0] > 0.5


def test_run_is_deterministic():
    env = small_env(side=3)
    config = small_config(env)
    r1 = run_sandbox(config)
    r2 = run_sandbox(config)
    assert np.array_equal(r1.avg_mean_field, r2.avg_mean_field)
    assert np.array_equal(r1.avg_policy, r2.avg_policy)
    assert np.array_equal(r1.mu_first_steps, r2.mu_first_steps)
    assert r1.min_policy_entry == r2.min_policy_entry
    for a, b in zip(r1.per_episode, r2.per_episode):
        assert a == b


def test_result_arrays_are_read_only():
    env = small_env(side=3)
    pair = solve_bmfe(env, lam=1.0, rho=0.7)
    result = run_sandbox(small_config(env))
    for array in (pair.mean_field, pair.policy, result.avg_mean_field, result.avg_policy):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.5


class PlainGridEnv(MfgEnvironment):
    """Wraps a grid in a plain environment, which runs the reference loop."""

    def __init__(self, inner):
        self.inner = inner
        self.num_states, self.num_actions = inner.num_states, inner.num_actions

    def transition_kernel(self, mu):
        return self.inner.transition_kernel(mu)

    def reward_table(self, mu):
        return self.inner.reward_table(mu)


def logged_env_steps(log):
    """sandbox.env_step, appending (state, action, next_state) to log per call."""

    def logged(env, s, a, mu, rng):
        next_state, reward = env_step(env, s, a, mu, rng)
        log.append((int(s), int(a), next_state))
        return next_state, reward

    return mock.patch.object(sandbox, "env_step", logged)


def test_single_sample_path_without_reinitialization():
    env = PlainGridEnv(small_env(side=2, jostle_p=0.2))
    K, T = 3, 50
    steps = []
    with logged_env_steps(steps):
        run_sandbox(small_config(env, num_episodes=K, steps_per_episode=T))
    assert len(steps) == K * T  # exactly one transition per step
    kernel = env.inner.kernel
    for (s, a, s_next), (s_after, _, _) in zip(steps, steps[1:]):
        # the next step starts where this one landed, through a
        # positive-probability transition, including across episode boundaries
        assert s_after == s_next and kernel[s, a, s_next] > 0.0


class FlatRewardGridEnv(CongestionGridEnv):
    """A congestion grid whose one override is a constant reward table."""

    def reward_table(self, mu):
        return np.full((self.num_states, self.num_actions), 0.5)


def test_the_learner_and_the_oracle_play_one_game():
    # The subclass runs the reference loop; every reward the learner
    # receives, and the table the oracle solves, must be the override's.
    grid = small_env(side=3)
    env = FlatRewardGridEnv(grid.params, grid.kernel)
    K, T = 3, 50
    with mock.patch.object(QLearner, "update", autospec=True, side_effect=QLearner.update) as update:
        run_sandbox(small_config(env, num_episodes=K, steps_per_episode=T))
    rewards = [call.args[3] for call in update.call_args_list]
    assert len(rewards) == K * T and set(rewards) == {0.5}
    # a constant reward r makes every optimal Q-value r / (1 - rho)
    mu = np.random.default_rng(0).dirichlet(np.ones(env.num_states))
    _, q_star, _ = gamma1(env, mu, 1.0, 0.7, tol=1e-12)
    np.testing.assert_allclose(q_star, 0.5 / (1.0 - 0.7), rtol=0.0, atol=1e-11)


def test_averaging_matches_first_step_snapshots():
    env = small_env(side=3)
    K = 5
    result = run_sandbox(small_config(env, num_episodes=K))
    assert np.allclose(result.avg_mean_field, result.mu_first_steps[: K - 1].mean(axis=0))
    assert np.allclose(result.avg_policy, result.pi_first_steps[: K - 1].mean(axis=0))
    # every stored snapshot is a valid distribution pair
    assert np.abs(result.mu_first_steps.sum(axis=1) - 1.0).max() < 1e-9
    assert np.abs(result.pi_first_steps.sum(axis=2) - 1.0).max() < 1e-9


def test_every_step_validation_run(monkeypatch):
    monkeypatch.setattr(sandbox, "VALIDATE_EVERY", 1)
    env = small_env(side=2, jostle_p=0.3)
    run_sandbox(small_config(env))  # raises on any violation


def test_exploration_floor_holds_on_small_run():
    env = small_env(side=3)
    sched = ScheduleParams()
    K, T = 8, 200
    result = run_sandbox(small_config(env, schedule=sched, num_episodes=K, steps_per_episode=T))
    floor = exploration_floor(sched, env.num_actions, K, T)
    assert result.min_policy_entry >= floor - 1e-12
    for d in result.per_episode:
        assert d.min_policy >= floor - 1e-12


def lattice_points(num_states, resolution):
    """Every point m / resolution of the net, by brute-force enumeration."""
    grid = itertools.product(range(resolution + 1), repeat=num_states)
    return np.array([m for m in grid if sum(m) == resolution], dtype=np.float64) / resolution


def test_projection_snaps_first_steps_onto_net():
    env = small_env(side=2)
    net = build_epsilon_net(4, 0.5)
    points = lattice_points(4, net.resolution)
    result = run_sandbox(small_config(env, net=net))
    for mu in result.mu_first_steps:
        gaps = np.abs(points - mu).sum(axis=1)
        assert gaps.min() < 1e-12


def reference_first_steps(config):
    """The run loop written with the reference update forms, one call per step.

    Draw order matches run_sandbox: one uniform for the initial state, then
    one for the action and one for the transition at every step.
    """
    env, sched = config.env, config.schedule
    S, A = env.num_states, env.num_actions
    K, T = config.num_episodes, config.steps_per_episode
    rng = np.random.default_rng(config.seed)
    mu = np.full(S, 1.0 / S)
    pi = np.full((S, A), 1.0 / A)
    counter = TransitionCounter(S)
    learner = QLearner(S, A, config.rho, sched.c_beta, sched.nu)
    state = sample_from_cdf(np.cumsum(np.full(S, 1.0 / S)), rng.random())
    mu_first, pi_first = np.empty((K, S)), np.empty((K, S, A))
    for k in range(1, K + 1):
        for t in range(1, T + 1):
            p_hat = counter.cached_estimate if t == 1 else counter.estimate()
            net = config.net if t == 1 else None
            mu = update_mean_field(mu, p_hat, step_size_mu(sched, k, t), net)
            psi = 0.0 if t == 1 else exploration_coeff(sched, k)
            pi = update_policy(pi, learner.q, step_size_pi(sched, k, t), psi, sched.lam)
            if t == 1:
                mu_first[k - 1], pi_first[k - 1] = mu, pi
            action = sample_from_cdf(np.cumsum(pi[state]), rng.random())
            next_state, reward = env_step(env, state, action, mu, rng)
            counter.record(state, next_state)
            learner.update(state, action, reward, next_state)
            state = next_state
        counter.reset()
        learner.reset_clock()
    return mu_first, pi_first


def _fixed_mdp():
    rng = np.random.default_rng(11)
    kernel = rng.dirichlet(np.ones(3), size=(3, 2))
    return FixedMdpEnv(kernel, rng.uniform(0.0, 1.0, size=(3, 2)))


@pytest.mark.parametrize(
    "make_env, overrides",
    [
        (lambda: small_env(side=2), {}),
        (lambda: small_env(side=3, jostle_p=0.3), {"seed": 8}),
        (lambda: small_env(side=2), {"net": build_epsilon_net(4, 0.5)}),
        (lambda: PlainGridEnv(small_env(side=2, jostle_p=0.2)), {}),
        (_fixed_mdp, {"schedule": ScheduleParams(lam=2.0)}),
    ],
    ids=["grid2", "grid3", "grid2-projection", "mu-dependent-sampling", "fixed-mdp"],
)
def test_run_loop_matches_reference_updates(make_env, overrides):
    config = small_config(make_env(), num_episodes=5, steps_per_episode=150, **overrides)
    result = run_sandbox(config)
    mu_first, pi_first = reference_first_steps(config)
    assert np.abs(result.mu_first_steps - mu_first).max() <= 1e-12
    assert np.abs(result.pi_first_steps - pi_first).max() <= 1e-12


class NanRewardEnv(MfgEnvironment):
    def __init__(self, inner, bad_after):
        self.inner = inner
        self.num_states, self.num_actions = inner.num_states, inner.num_actions
        self.bad_after = bad_after
        self.count = 0

    def transition_kernel(self, mu):
        return self.inner.transition_kernel(mu)

    def reward_table(self, mu):
        self.count += 1
        if self.count > self.bad_after:
            return np.full((self.num_states, self.num_actions), math.nan)
        return self.inner.reward_table(mu)


@pytest.mark.parametrize(
    "make_env",
    [
        lambda: PlainGridEnv(small_env(side=3)),
        lambda: FlatRewardGridEnv(small_env(side=3).params, small_env(side=3).kernel),
        lambda: NanRewardEnv(small_env(side=3), bad_after=10),
        lambda: NanRewardEnv(small_env(side=3), bad_after=0),
    ],
    ids=["plain", "flat_reward", "nan_reward_before", "nan_reward_after"],
)
def test_test_environments_give_stacked_tables(make_env):
    # Each takes one mean-field and gives one table; on a stack the oracle
    # asks once per mean-field, and the grid's one kernel object serves it.
    env = make_env()
    mus = np.random.default_rng(3).dirichlet(np.ones(env.num_states), size=3)
    kernel = oracle._kernels(env, mus)
    assert kernel.shape == (9, 4, 9)
    for mu in mus:
        assert env.transition_kernel(mu) is kernel
        assert env.reward_table(mu).shape == (9, 4)


def test_non_finite_reward_aborts_with_snapshot():
    env = NanRewardEnv(small_env(side=2), bad_after=130)
    with pytest.raises(NonFiniteError) as err:
        run_sandbox(small_config(env, num_episodes=3, steps_per_episode=100))
    abort = err.value
    assert (abort.episode, abort.step) == (2, 31)
    snap = abort.snapshot
    assert snap["schema_version"] == snapshots.SCHEMA_VERSION
    assert len(snap["mean_field"]) == 4
    assert len(snap["q_values"]) == 4
    # the snapshot round-trips through the JSON codec and restores the rng
    doc = snapshots.dumps(snap)
    import json

    restored = json.loads(doc)
    gen = snapshots.restore_rng(restored["rng_state"])
    assert isinstance(gen.random(), float)


def test_snapshot_file_round_trip(tmp_path):
    doc = snapshots.run_state_snapshot(
        episode=2,
        step=7,
        agent_state=1,
        mean_field=np.array([0.25, 0.75]),
        policy=np.array([[0.5, 0.5], [0.1, 0.9]]),
        q_values=np.zeros((2, 2)),
        pair_counts=np.zeros((2, 2), dtype=np.int64),
        cached_estimate=np.full((2, 2), 0.5),
        rng_state=np.random.default_rng(0).bit_generator.state,
    )
    path = tmp_path / "state.json"
    snapshots.write_json(path, doc)
    assert snapshots.read_json(path) == doc


def test_episode_diagnostics_zero_cases():
    env = small_env(side=2)
    pair = solve_bmfe(env, lam=1.0, rho=0.7, tol=1e-9)
    mu_star = pair.mean_field
    pi_star = pair.policy
    chain = induced_kernel(env, pi_star, mu_star)
    _, q_star, _ = gamma1(env, mu_star, 1.0, 0.7, pair.vi_tol)
    config = small_config(env, reference=pair)
    diag = episode_diagnostics(5, mu_star, pi_star, chain, q_star, config, min_policy=0.1)
    assert diag.k == 5
    assert diag.e_pi == pytest.approx(0.0, abs=1e-12)
    assert diag.e_mu == pytest.approx(0.0, abs=1e-12)
    assert diag.eps_P == pytest.approx(0.0, abs=1e-12)
    assert diag.eps_Q == pytest.approx(0.0, abs=1e-12)
    assert diag.residual_mu <= 2e-9
    assert 0.0 <= diag.e_pi <= 2.0 and 0.0 <= diag.e_mu <= 2.0


@pytest.mark.parametrize(
    "make_env",
    [
        lambda: small_env(side=5),
        lambda: make_two_class_env(CongestionGridParams(side=5)),
        _fixed_mdp,
        lambda: MuDependentEnv(8),
    ],
    ids=["grid5", "two_class", "fixed-mdp", "mu-dependent"],
)
def test_diagnostics_are_the_public_operators_values(make_env):
    # every field is exactly what gamma1, gamma2 and induced_kernel give at
    # the first-step pair, which differs from the reference pair
    env = make_env()
    S, A = env.num_states, env.num_actions
    config = small_config(env, reference=solve_bmfe(env, lam=1.0, rho=0.7))
    rng = np.random.default_rng(4)
    mu1, pi1 = rng.dirichlet(np.ones(S)), rng.dirichlet(np.ones(A), size=S)
    p_hat, q_end = rng.dirichlet(np.ones(S), size=S), rng.uniform(0.0, 1.0, size=(S, A))
    best_response, q_star, _ = gamma1(env, mu1, 1.0, 0.7, config.reference.vi_tol)
    residual_mu = l1_norm(mu1 - gamma2(env, pi1, mu1))
    expected = sandbox.EpisodeDiagnostics(
        k=3,
        e_pi=tv_norm(pi1 - best_response),
        e_mu=l1_norm(mu1 - config.reference.mean_field),
        eps_P=frobenius_norm(p_hat - induced_kernel(env, pi1, mu1)),
        eps_Q=inf_norm(q_end - q_star),
        residual_mu=residual_mu,
        min_policy=0.1,
    )
    scored_diag = episode_diagnostics(3, mu1, pi1, p_hat, q_end, config, 0.1)
    assert dataclasses.astuple(scored_diag) == dataclasses.astuple(expected)
    # an unscored episode needs no reference and computes residual_mu only
    unscored = episode_diagnostics(3, mu1, pi1, p_hat, q_end, small_config(env), 0.1, scored=False)
    assert unscored.residual_mu == residual_mu
    assert all(math.isnan(x) for x in (unscored.e_pi, unscored.e_mu, unscored.eps_P, unscored.eps_Q))


def test_episode_diagnostics_requires_oracle():
    config = small_config(small_env(side=1))
    with pytest.raises(ValueError):
        episode_diagnostics(1, np.array([1.0]), np.full((1, 4), 0.25), np.eye(1), np.zeros((1, 4)), config)


def test_config_rejects_an_oracle_solved_for_another_game():
    env = small_env(side=3)
    config = small_config(env, reference=solve_bmfe(env, lam=1.0, rho=0.7))
    for kw in (
        dict(schedule=ScheduleParams(lam=3.0)),
        dict(rho=0.6),
        dict(env=small_env(side=3)),
    ):
        with pytest.raises(ValueError, match="another environment, lambda or rho"):
            dataclasses.replace(config, **kw)


def test_diagnostics_score_at_the_run_temperature():
    # At lambda = 3, e_pi is the distance to the lambda = 3 best response and
    # e_mu the distance to the lambda = 3 equilibrium; both differ from
    # their values at the default lambda = 1.
    env = small_env(side=3)
    pair = solve_bmfe(env, lam=3.0, rho=0.7)
    pair_at_1 = solve_bmfe(env, lam=1.0, rho=0.7)
    config = small_config(env, schedule=ScheduleParams(lam=3.0), reference=pair)
    result = run_sandbox(config)
    for diag, mu1, pi1 in zip(result.per_episode, result.mu_first_steps, result.pi_first_steps):
        at_run = tv_norm(pi1 - gamma1(env, mu1, 3.0, 0.7)[0])
        at_default = tv_norm(pi1 - gamma1(env, mu1, 1.0, 0.7)[0])
        assert diag.e_pi == pytest.approx(at_run, abs=1e-12)
        assert abs(at_run - at_default) > 1e-3
        assert diag.e_mu == pytest.approx(l1_norm(mu1 - pair.mean_field), abs=1e-12)
    assert l1_norm(pair.mean_field - pair_at_1.mean_field) > 1e-3


def test_diagnostics_during_run_decrease_on_average():
    env = small_env(side=2, jostle_p=0.2)
    pair = solve_bmfe(env, lam=1.0, rho=0.7)
    result = run_sandbox(small_config(env, num_episodes=12, steps_per_episode=300, reference=pair))
    assert len(result.per_episode) == 12
    e_mu = np.array([d.e_mu for d in result.per_episode])
    assert not np.isnan(e_mu).any()
    assert e_mu[-4:].mean() < e_mu[:4].mean()


def test_diagnostics_stride_leaves_gaps():
    env = small_env(side=2)
    pair = solve_bmfe(env, lam=1.0, rho=0.7)
    result = run_sandbox(
        small_config(env, num_episodes=5, steps_per_episode=60, reference=pair, diagnostics_every=2)
    )
    filled = [not math.isnan(d.e_mu) for d in result.per_episode]
    assert filled == [True, False, True, False, True]
    # residual_mu is computed for every episode regardless, by the same
    # push-forward as the consistency operator
    for d, mu1, pi1, scored in zip(result.per_episode, result.mu_first_steps, result.pi_first_steps, filled):
        assert not math.isnan(d.residual_mu)
        if not scored:
            assert d.residual_mu == l1_norm(mu1 - gamma2(env, pi1, mu1))


@pytest.fixture(scope="module")
def step_kernel():
    if _step_kernel.load() is None:
        pytest.skip("the compiled learner step could not be built here")


def run_reference_loop(config):
    """run_sandbox with the compiled step unavailable."""
    with mock.patch.object(_step_kernel, "load", return_value=None):
        return run_sandbox(config)


def assert_runs_agree(fast, reference):
    """Every learner output and per-episode field bit for bit, NaN matching NaN where a field was not scored."""
    for name in ("mu_first_steps", "pi_first_steps", "q_values"):
        assert np.array_equal(getattr(fast, name), getattr(reference, name)), name
    assert fast.min_policy_entry == reference.min_policy_entry
    for a, b in zip(fast.per_episode, reference.per_episode, strict=True):
        assert np.array_equal(dataclasses.astuple(a), dataclasses.astuple(b), equal_nan=True), (a, b)


@st.composite
def grid_envs(draw):
    favorable = draw(st.floats(0.05, 1.0))
    params = dict(
        jostle_p=draw(st.floats(0.0, 0.9)),
        congestion_c=draw(st.floats(0.0, 1.0)),
        favorable_reward=favorable,
        baseline_reward=draw(st.floats(0.0, 0.99)) * favorable,
    )
    if draw(st.booleans()):
        return make_two_class_env(CongestionGridParams(side=5, **params))
    return make_congestion_env(CongestionGridParams(side=draw(st.integers(1, 4)), **params))


@st.composite
def schedules(draw):
    gamma = draw(st.floats(0.05, 0.95))
    c_pi = draw(st.floats(0.05, 0.9))
    return ScheduleParams(
        c_mu=draw(st.floats(0.05, 1.0)),
        c_pi=c_pi,
        gamma=gamma,
        theta=draw(st.floats(0.01, 0.99)) * gamma,
        zeta=draw(st.floats(1.01, 3.0)),
        c_beta=draw(st.floats(0.1, 10.0)),
        nu=draw(st.floats(0.51, 1.0)),
        psi=draw(st.floats(0.01, 0.99)) * (1.0 - c_pi),
        lam=draw(st.floats(0.01, 20.0)),
    )


# A push-forward summed in another order than the kernel's once broke a tie
# in the projection's rounding differently here: mu_first_steps differed by
# a whole lattice unit (0.04).
_TIED_PROJECTION = dict(
    schedule=ScheduleParams(
        c_mu=0.75, c_pi=0.5, gamma=0.5, theta=0.25, zeta=1.125, c_beta=1.0, nu=1.0, psi=0.25, lam=1.0
    ),
    K=2,
    T=12,
    rho=0.5,
    seed=2,
    mesh=1.0,
)


# With the grids of sides 1 to 5 (S = 1, 4, 9, 16 and 25) the examples run
# every compiled copy of the step on an AVX-512 host, whatever hypothesis
# draws: 2 lanes at S <= 2, 4 at S <= 4 and 8 above. Sides 6, 7 and 9 (S =
# 36, 49 and 81, padded to 40, 56 and 88 columns) run the push's other
# branches at 8 lanes: 5 and 7 vectors of columns, then one full pass of 8
# and 3 more. T = 250 passes two simplex checks.
_PAST_A_SIMPLEX_CHECK = dict(schedule=ScheduleParams(), K=3, T=250, rho=0.7, seed=5, mesh=None)


@settings(max_examples=60, deadline=None)
@given(
    env=grid_envs(),
    schedule=schedules(),
    K=st.integers(2, 4),
    T=st.integers(2, 60),
    rho=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**32),
    mesh=st.none() | st.floats(0.05, 2.0, exclude_max=True),
)
@example(env=make_congestion_env(CongestionGridParams(side=5)), **_TIED_PROJECTION)
@example(env=make_two_class_env(CongestionGridParams(side=5)), **_TIED_PROJECTION)
@example(env=small_env(side=1, jostle_p=0.2), **_PAST_A_SIMPLEX_CHECK)
@example(env=small_env(side=2, jostle_p=0.2), **_PAST_A_SIMPLEX_CHECK)
@example(env=small_env(side=3, jostle_p=0.2), **_PAST_A_SIMPLEX_CHECK)
@example(env=small_env(side=4, jostle_p=0.2), **_PAST_A_SIMPLEX_CHECK)
@example(env=small_env(side=5, jostle_p=0.2), **_PAST_A_SIMPLEX_CHECK)
@example(env=small_env(side=6, jostle_p=0.2), **_PAST_A_SIMPLEX_CHECK)
@example(env=small_env(side=7, jostle_p=0.2), **_PAST_A_SIMPLEX_CHECK)
@example(env=small_env(side=9, jostle_p=0.2), **_PAST_A_SIMPLEX_CHECK)
def test_kernel_matches_reference_loop(step_kernel, env, schedule, K, T, rho, seed, mesh):
    net = None if mesh is None else build_epsilon_net(env.num_states, mesh)
    config = SandboxConfig(
        env=env, schedule=schedule, num_episodes=K, steps_per_episode=T, rho=rho, seed=seed, net=net
    )
    fast, reference = run_sandbox(config), run_reference_loop(config)
    assert_runs_agree(fast, reference)


@pytest.mark.parametrize(
    "make_env",
    [
        lambda: small_env(side=3, jostle_p=0.2),
        lambda: small_env(side=5, jostle_p=0.1, congestion_c=0.5),
        lambda: make_two_class_env(CongestionGridParams(side=5, jostle_p=0.1)),
    ],
    ids=["grid3", "grid5", "two-class"],
)
def test_kernel_diagnostics_match_reference_loop(step_kernel, make_env):
    # eps_P reads the counter's end-of-episode estimate, e_pi, e_mu and eps_Q
    # the first-step pair and the Q-table the compiled steps left behind.
    env = make_env()
    config = small_config(
        env, num_episodes=4, steps_per_episode=400, reference=solve_bmfe(env, lam=1.0, rho=0.7)
    )
    fast, reference = run_sandbox(config), run_reference_loop(config)
    assert all(not math.isnan(d.eps_P) for d in fast.per_episode)
    assert_runs_agree(fast, reference)


def test_failed_kernel_build_warns_once_and_falls_back(step_kernel, monkeypatch, caplog):
    config = small_config(small_env(side=3, jostle_p=0.2), num_episodes=3, steps_per_episode=200)
    # the compiled step leaves only each episode's first step to QLearner.update
    with mock.patch.object(QLearner, "update", autospec=True, side_effect=QLearner.update) as update:
        fast = run_sandbox(config)
    assert update.call_count == 3

    def no_compiler():
        raise OSError("no compiler")

    monkeypatch.setattr(_step_kernel, "_loaded", None)
    monkeypatch.setattr(_step_kernel, "_import_or_build", no_compiler)
    with caplog.at_level(logging.WARNING, logger="mfg_sandbox"):
        # the reference loop calls QLearner.update at every step
        with mock.patch.object(QLearner, "update", autospec=True, side_effect=QLearner.update) as update:
            first = run_sandbox(config)
            second = run_sandbox(config)
    assert update.call_count == 2 * 3 * 200
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1 and "no compiler" in warnings[0].getMessage()
    assert_runs_agree(fast, first)
    assert_runs_agree(fast, second)


def late_first_visit(config, T):
    """A state the run first visits after its first episode."""
    steps = []
    with logged_env_steps(steps):
        run_reference_loop(config)
    first_seen = {}
    for step, (s, _, _) in enumerate(steps):
        first_seen.setdefault(s, step)
    late = [s for s, step in first_seen.items() if step >= T]
    assert late, "every visited state was reached in the first episode"
    return late[0]


def snapshots_agree(fast, reference):
    assert (fast.episode, fast.step) == (reference.episode, reference.step)
    a, b = fast.snapshot, reference.snapshot
    assert a.keys() == b.keys()
    for key in ("schema_version", "kind", "episode", "step", "agent_state", "pair_counts", "state_counts", "rng_state"):
        assert a[key] == b[key], key
    assert a["state_counts"] == np.sum(a["pair_counts"], axis=1).tolist()
    for key in ("mean_field", "policy", "q_values", "cached_estimate"):
        np.testing.assert_array_equal(a[key], b[key], err_msg=key)


def test_kernel_nan_reward_abort_matches_reference(step_kernel):
    T = 6
    env = small_env(side=5, jostle_p=0.0)
    config = small_config(env, num_episodes=4, steps_per_episode=T, seed=2)
    bad = late_first_visit(config, T)
    reward = env.state_reward.copy()
    reward[bad] = math.nan
    env.state_reward = reward
    with pytest.raises(NonFiniteError) as fast:
        run_sandbox(config)
    with pytest.raises(NonFiniteError) as reference:
        run_reference_loop(config)
    assert fast.value.episode >= 2
    snapshots_agree(fast.value, reference.value)
    # the generator state is the one after every uniform drawn so far
    replay = np.random.default_rng(config.seed)
    replay.random(1 + 2 * ((fast.value.episode - 1) * T + fast.value.step))
    assert fast.value.snapshot["rng_state"] == replay.bit_generator.state


def perturb_after_first_step(monkeypatch, perturb):
    """Call perturb(run) after step 1 of episode 2, which both loops run through the reference step."""
    reference_step = sandbox._Run.reference_step

    def perturbed_step(run, k, t):
        min_policy = reference_step(run, k, t)
        if (k, t) == (2, 1):
            perturb(run)
        return min_policy

    monkeypatch.setattr(sandbox._Run, "reference_step", perturbed_step)


def test_kernel_non_finite_policy_abort_matches_reference(step_kernel):
    # lam * q overflows once a Q value exceeds about 1.8, so the softmax
    # row, then the next policy update, turns NaN.
    env = small_env(side=2, jostle_p=0.1, baseline_reward=0.9)
    config = small_config(
        env, schedule=ScheduleParams(lam=1e308), num_episodes=3, steps_per_episode=200, rho=0.95
    )
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(NonFiniteError) as fast:
            run_sandbox(config)
        with pytest.raises(NonFiniteError) as reference:
            run_reference_loop(config)
    assert fast.value.step > 1  # a compiled step aborted
    assert np.isnan(fast.value.snapshot["policy"]).any()
    snapshots_agree(fast.value, reference.value)


def _poison_policy(run):
    run.pi[0, 0] = math.nan


def _poison_rewards(value):
    def poison(run):
        run.config.env.state_reward[:] = value

    return poison


def _lift_policy(run):
    run.pi[0, 0] += 1e-6


# Each abort's injection after step 1 of episode 2, and what both loops raise
_ABORTS = {
    "non-finite-pair": (_poison_policy, NonFiniteError, "non-finite value at episode 2, step 2"),
    "nan-reward": (_poison_rewards(math.nan), NonFiniteError, "non-finite value at episode 2, step 2"),
    "reward-out-of-range": (_poison_rewards(4.0), ValueError, r"reward .* outside \[0, 1\]"),
    "simplex": (_lift_policy, RuntimeError, rf"^simplex invariant violated at episode 2, step {sandbox.VALIDATE_EVERY}$"),
}


@pytest.mark.parametrize("side", [1, 2, 5], ids=["S1", "S4", "S25"])
@pytest.mark.parametrize("abort", list(_ABORTS))
def test_kernel_aborts_match_reference_at_every_copy(step_kernel, monkeypatch, abort, side):
    # One grid per compiled copy of the step on an AVX-512 host: S = 1 runs
    # the 2-lane copy, S = 4 the 4-lane copy and S = 25 the 8-lane copy. The
    # injection writes in place, so the compiled step reads it; a NaN or a
    # bad reward aborts the episode's first compiled step, and a policy
    # entry lifted by 1e-6 leaves a row sum that decays too slowly to pass
    # the next simplex check.
    perturb, error, message = _ABORTS[abort]
    perturb_after_first_step(monkeypatch, perturb)
    raised = []
    for run in (run_sandbox, run_reference_loop):
        env = small_env(side=side, jostle_p=0.1)
        env.state_reward = env.state_reward.copy()  # writable, for the injection
        with pytest.raises(error, match=message) as err:
            run(small_config(env, num_episodes=3, steps_per_episode=150))
        raised.append(err.value)
    fast, reference = raised
    assert str(fast) == str(reference)
    if error is NonFiniteError:
        snapshots_agree(fast, reference)


def test_kernel_reward_out_of_range_matches_reference(step_kernel):
    env = small_env(side=2)
    env.state_reward = np.full(4, 2.0)
    config = small_config(env)
    with pytest.raises(ValueError, match=r"reward .* outside \[0, 1\]"):
        run_sandbox(config)
    with pytest.raises(ValueError, match=r"reward .* outside \[0, 1\]"):
        run_reference_loop(config)


@pytest.mark.parametrize("stride", [sandbox.VALIDATE_EVERY, 1], ids=["default-stride", "every-step"])
def test_kernel_simplex_abort_matches_reference(step_kernel, monkeypatch, stride):
    # Lifting one policy entry by 1e-6 after step 1 of episode 2 leaves a row
    # sum that decays too slowly to pass the next simplex check: the
    # compiled step's check, or the reference step's, must fail at the same
    # step.
    monkeypatch.setattr(sandbox, "VALIDATE_EVERY", stride)
    perturb_after_first_step(monkeypatch, _lift_policy)
    config = small_config(small_env(side=3, jostle_p=0.2), num_episodes=3, steps_per_episode=150)
    step = sandbox.VALIDATE_EVERY if stride > 1 else 2
    message = rf"^simplex invariant violated at episode 2, step {step}$"
    with pytest.raises(RuntimeError, match=message):
        run_sandbox(config)
    with pytest.raises(RuntimeError, match=message):
        run_reference_loop(config)


@pytest.mark.parametrize("side", [1, 2, 3, 4, 5, 9])
def test_kernel_estimate_holds_the_counters_rows_and_zero_pad(step_kernel, side):
    # The kernel's estimate rows are padded to a multiple of MAX_LANES
    # columns. At the end of an episode the pad still holds exact zeros, and
    # the first S columns are the counter's estimate bit for bit, less the
    # episode's last count: the next step would refresh that row on entry.
    config = small_config(small_env(side=side, jostle_p=0.2), num_episodes=3, steps_per_episode=300)
    run = sandbox._Run(config)
    loop = sandbox._KernelLoop(run, *_step_kernel.load())
    S = run.counter.num_states
    for k in range(1, config.num_episodes + 1):
        run.start_episode(k)
        loop.episode(k)
        estimate = loop._estimate
        assert estimate.shape == (S, -(-S // _step_kernel.MAX_LANES) * _step_kernel.MAX_LANES)
        pad = estimate[:, S:]
        assert np.array_equal(pad, np.zeros_like(pad)) and not np.signbit(pad).any()
        before_last = TransitionCounter(S)
        before_last.pair_counts[:] = run.counter.pair_counts
        before_last.pair_counts[loop.ctx.prev, run.state] -= 1
        assert np.array_equal(estimate[:, :S], before_last.estimate())
        run.counter.reset()
        run.learner.reset_clock()


@pytest.mark.parametrize("c_beta, nu", [(5.0, 0.55), (0.5, 1.0), (1.0, 0.51)])
def test_kernel_q_step_size_is_bit_equal(step_kernel, c_beta, nu):
    # Bit equality of the Q-table pins the kernel's step size, clamp included
    # (at c_beta = 5, nu = 0.55, min(1, .) clamps through step 18). Without
    # congestion the reward does not read mu, so no rounding of the
    # mean-field step can reach the Q-table.
    env = small_env(side=5, jostle_p=0.1, congestion_c=0.0)
    config = small_config(
        env, schedule=ScheduleParams(c_beta=c_beta, nu=nu), num_episodes=3, steps_per_episode=1000
    )
    fast, reference = run_sandbox(config), run_reference_loop(config)
    assert np.array_equal(fast.q_values, reference.q_values)
    assert np.array_equal(fast.mu_first_steps, reference.mu_first_steps)


@pytest.mark.parametrize("stride", [0, -5])
def test_kernel_rejects_a_validation_stride_below_one(step_kernel, monkeypatch, stride):
    monkeypatch.setattr(sandbox, "VALIDATE_EVERY", stride)
    with pytest.raises(ValueError, match="VALIDATE_EVERY must be >= 1"):
        run_sandbox(small_config(small_env(side=2)))


def test_cached_kernel_loads_without_cffi(step_kernel):
    src = Path(_step_kernel.__file__).resolve().parent.parent
    code = (
        "import sys; from mfg_sandbox import _step_kernel; assert _step_kernel.load(); "
        "print(sorted({'cffi', 'pycparser'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_a_new_build_removes_the_older_builds(step_kernel, tmp_path, monkeypatch):
    # Builds of other sources for this interpreter go; another interpreter's
    # build and files of other names stay. The new build is a copy of the
    # module already built, so no compiler runs here.
    built = _step_kernel._module_path()
    monkeypatch.setattr(_step_kernel, "BUILD_DIR", tmp_path)
    monkeypatch.setattr(_step_kernel, "_build", lambda path: shutil.copyfile(built, path))
    suffix = _step_kernel._SUFFIX
    for name in (f"_learner_step_{'0' * 16}{suffix}", f"_learner_step_{'f' * 16}{suffix}"):
        (tmp_path / name).write_bytes(b"")
    kept = [f"_learner_step_{'1' * 16}.abi3.so", "notes.txt"]
    for name in kept:
        (tmp_path / name).write_bytes(b"")
    _, lib = _step_kernel._import_or_build()
    assert lib.value_iteration
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted([built.name, *kept])
