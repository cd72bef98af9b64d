"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Criteria 8 and 9 replay the full-scale grid experiments and
take minutes, so they carry the slow marker and are deselected by
default; run them with `pytest -m slow`.
"""

import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest

from mfg_sandbox import _step_kernel, cli, oracle
from mfg_sandbox.core import frobenius_norm, inf_norm, l1_norm, softmax_table, tv_norm
from mfg_sandbox.environment import CongestionGridParams, make_congestion_env
from mfg_sandbox.estimators import QLearner, TransitionCounter
from mfg_sandbox.oracle import gamma1, induced_kernel, solve_bmfe
from mfg_sandbox.sandbox import SandboxConfig, run_sandbox, update_mean_field, update_policy
from mfg_sandbox.schedules import ScheduleParams, build_epsilon_net, exploration_floor
from fixed_mdp import FixedMdpEnv

RHO = 0.7

# c_mu, c_pi, theta, gamma, zeta, c_beta, nu below are the published grid
# experiment values and are fixed by the criteria; psi and lambda are
# artifact parameters. The desk-scale convergence run uses psi = 0.01
# because the equilibrium bias injected by the uniform exploration noise
# scales with psi, and the accuracy analysis requires psi of the order of
# the target accuracy (0.1 here).
GRID_SCHEDULE = dict(c_mu=0.5, c_pi=0.5, theta=0.55, gamma=0.6, zeta=1.1, c_beta=5.0, nu=0.55)


def _report(num, name, ok, detail):
    print(f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} [{name}]: {detail}"


def _desk_env():
    return make_congestion_env(CongestionGridParams(side=3, jostle_p=0.1, congestion_c=0.5))


def test_criterion_01_invariant_suite():
    rng = np.random.default_rng(101)
    num_states, num_actions = 6, 3
    bound = 1.0 / (1.0 - RHO)
    net = build_epsilon_net(num_states, 1.5)
    mu = rng.dirichlet(np.ones(num_states))
    pi = rng.dirichlet(np.ones(num_actions), size=num_states)
    counter = TransitionCounter(num_states)
    learner = QLearner(num_states, num_actions, RHO, c_beta=5.0, nu=0.55)
    worst_mu = worst_pi = worst_rows = worst_q = 0.0
    for i in range(10_000):
        op = i % 4
        if op == 0:
            if rng.random() < 0.5:
                p_hat = counter.estimate()
            else:
                p_hat = rng.dirichlet(np.ones(num_states), size=num_states)
            mu = update_mean_field(
                mu, p_hat, rng.uniform(1e-6, 1.0), net=net if rng.random() < 0.1 else None
            )
            worst_mu = max(worst_mu, abs(mu.sum() - 1.0))
            assert mu.min() >= -1e-9 and mu.max() <= 1.0 + 1e-9
        elif op == 1:
            pi = update_policy(
                pi,
                learner.q,
                rng.uniform(1e-6, 1.0),
                rng.uniform(0.0, 0.999),
                float(rng.choice([0.5, 1.0, 5.0])),
            )
            worst_pi = max(worst_pi, float(np.abs(pi.sum(axis=1) - 1.0).max()))
            assert pi.min() >= -1e-9 and pi.max() <= 1.0 + 1e-9
        elif op == 2:
            counter.record(int(rng.integers(num_states)), int(rng.integers(num_states)))
            worst_rows = max(
                worst_rows, float(np.abs(counter.estimate().sum(axis=1) - 1.0).max())
            )
        else:
            learner.update(
                int(rng.integers(num_states)),
                int(rng.integers(num_actions)),
                float(rng.random()),
                int(rng.integers(num_states)),
            )
            worst_q = max(worst_q, float(learner.q.max()) - bound, -float(learner.q.min()))
        if worst_mu > 1e-9 or worst_pi > 1e-9 or worst_rows > 1e-12 or worst_q > 0.0:
            break
    ok = worst_mu <= 1e-9 and worst_pi <= 1e-9 and worst_rows <= 1e-12 and worst_q <= 0.0
    _report(
        1,
        "invariant suite",
        ok,
        f"10^4 steps; max simplex gap {max(worst_mu, worst_pi):.2e}, "
        f"max estimate row gap {worst_rows:.2e}, Q excess {max(worst_q, 0.0):.2e}",
    )


def test_criterion_02_softmax_lipschitz():
    rng = np.random.default_rng(202)
    bound = 1.0 / (1.0 - RHO)
    violations = 0
    checked = 0
    for num_states in (3, 9):
        for num_actions in (2, 4):
            for lam in (0.5, 1.0, 5.0):
                limit = lam * num_states * math.sqrt(num_actions)
                for _ in range(1000):
                    q1 = rng.uniform(0.0, bound, size=(num_states, num_actions))
                    q2 = rng.uniform(0.0, bound, size=(num_states, num_actions))
                    lhs = tv_norm(softmax_table(q1, lam) - softmax_table(q2, lam))
                    if lhs > limit * inf_norm(q1 - q2) + 1e-12:
                        violations += 1
                    checked += 1
    _report(2, "softmax Lipschitz", violations == 0, f"{checked} pairs, {violations} violations")


def test_criterion_03_transition_estimation_rate():
    chain = np.random.default_rng(2024).dirichlet(np.ones(5) * 2.0, size=5)
    cdf = np.cumsum(chain, axis=1)
    small, big = [], []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        counter = TransitionCounter(5)
        state = 0
        draws = rng.random(40_000)
        for i in range(40_000):
            nxt = min(int(cdf[state].searchsorted(draws[i], side="right")), 4)
            counter.record(state, nxt)
            state = nxt
            if i + 1 == 10_000:
                small.append(frobenius_norm(counter.estimate() - chain))
        big.append(frobenius_norm(counter.estimate() - chain))
    ratio = float(np.median(big) / np.median(small))
    _report(
        3,
        "transition estimation rate",
        0.3 <= ratio <= 0.7,
        f"median error ratio 4T vs T = {ratio:.3f}, want [0.3, 0.7]",
    )


# Criterion 4's MDP, its 20 seeds and its step count: a uniform behavior
# policy (floor 1/2) on a fixed 5-state, 2-action MDP.
Q_SEEDS = range(1000, 1020)
Q_STEPS = 200_000


def _q_criterion_mdp():
    rng = np.random.default_rng(7)
    kernel = rng.dirichlet(np.ones(5) * 2.0, size=(5, 2))
    rewards = rng.uniform(0.0, 1.0, size=(5, 2))
    return kernel, rewards


def _q_learning_by_update(kernel, rewards, seed, steps):
    """One seed's path through QLearner.update, one call per step."""
    cdf = np.cumsum(kernel, axis=2)
    rng = np.random.default_rng(seed)
    learner = QLearner(5, 2, rho=RHO, c_beta=5.0, nu=0.55)
    state = 0
    actions = rng.integers(0, 2, Q_STEPS)
    draws = rng.random(Q_STEPS)
    for i in range(steps):
        a = actions[i]
        nxt = min(int(cdf[state, a].searchsorted(draws[i], side="right")), 4)
        learner.update(state, a, rewards[state, a], nxt)
        state = nxt
    return learner.q


def _q_learning_batched(kernel, rewards, seeds, steps):
    """The same paths and updates for every seed at once, one array step per step.

    Each seed draws its actions and uniforms as _q_learning_by_update does;
    the next state is the count of cdf entries at or below the uniform,
    which is searchsorted(side="right"). All seeds share the clock, so the
    step size is QLearner.step_size's Python float, and the update is its
    expression in its order.
    """
    cdf = np.cumsum(kernel, axis=2)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    actions, uniforms = zip(*((rng.integers(0, 2, Q_STEPS), rng.random(Q_STEPS)) for rng in rngs))
    actions, uniforms = np.array(actions).T.copy(), np.array(uniforms).T.copy()
    learner = QLearner(5, 2, rho=RHO, c_beta=5.0, nu=0.55)
    q = np.zeros((len(seeds), 5, 2))
    lanes = np.arange(len(seeds))
    state = np.zeros(len(seeds), dtype=np.intp)
    for i in range(steps):
        a = actions[i]
        nxt = np.minimum((cdf[state, a] <= uniforms[i, :, None]).sum(axis=1), 4)
        beta = learner.step_size()
        target = rewards[state, a] + learner.rho * q[lanes, nxt].max(axis=1)
        q[lanes, state, a] = (1.0 - beta) * q[lanes, state, a] + beta * target
        learner.t += 1
        state = nxt
    return q


def test_criterion_04_q_learning_accuracy():
    kernel, rewards = _q_criterion_mdp()
    _, q_star, _ = gamma1(FixedMdpEnv(kernel, rewards), np.full(5, 0.2), 1.0, RHO)
    q = _q_learning_batched(kernel, rewards, Q_SEEDS, Q_STEPS)
    errors = [inf_norm(q_seed - q_star) for q_seed in q]
    passes = sum(e <= 0.05 for e in errors)
    _report(
        4,
        "Q-learning accuracy",
        passes >= 18,
        f"{passes}/20 seeds within 0.05 (median {np.median(errors):.4f}, max {max(errors):.4f})",
    )


def test_criterion_04_batched_steps_are_q_learner_updates():
    # criterion 4 runs its seeds as one array step; QLearner.update is the
    # rule under test, so the two must agree bit for bit
    kernel, rewards = _q_criterion_mdp()
    steps = 20_000
    batched = _q_learning_batched(kernel, rewards, Q_SEEDS, steps)
    for q_seed, seed in zip(batched, Q_SEEDS):
        assert np.array_equal(q_seed, _q_learning_by_update(kernel, rewards, seed, steps))


def test_criterion_05_exploration_floor():
    env = _desk_env()
    schedule = ScheduleParams(**GRID_SCHEDULE, psi=0.2)
    num_episodes, steps = 100, 10_000
    floor = exploration_floor(schedule, env.num_actions, num_episodes, steps)
    result = run_sandbox(
        SandboxConfig(
            env=env,
            schedule=schedule,
            num_episodes=num_episodes,
            steps_per_episode=steps,
            rho=RHO,
            seed=0,
        )
    )
    ok = result.min_policy_entry >= floor - 1e-12
    _report(
        5,
        "exploration floor",
        ok,
        f"min policy entry {result.min_policy_entry:.6f} >= recursion floor {floor:.6f} - 1e-12",
    )


def test_criterion_06_oracle_self_consistency():
    pair = solve_bmfe(_desk_env(), lam=1.0, rho=RHO)
    ok_grid = pair.converged and pair.residual_policy <= 1e-8 and pair.residual_mu <= 1e-8

    env = FixedMdpEnv(
        np.random.default_rng(12).dirichlet(np.ones(5) * 2.0, size=(5, 2)),
        np.random.default_rng(13).uniform(0.0, 1.0, size=(5, 2)),
    )
    with mock.patch.object(oracle, "BMFE_TOL", 1e-9):
        fixed = solve_bmfe(env, lam=1.0, rho=RHO)
    policy, _, _ = gamma1(env, fixed.mean_field, 1.0, RHO)
    chain = induced_kernel(env, policy, fixed.mean_field)
    a = chain.T - np.eye(5)
    a[-1] = 1.0
    b = np.zeros(5)
    b[-1] = 1.0
    stationary = np.linalg.solve(a, b)
    gap = l1_norm(fixed.mean_field - stationary)
    _report(
        6,
        "oracle self-consistency",
        ok_grid and gap <= 1e-7,
        f"grid residuals ({pair.residual_policy:.1e}, {pair.residual_mu:.1e}) <= 1e-8; "
        f"stationary gap {gap:.2e} <= 1e-7",
    )


def test_criterion_07_desk_scale_convergence():
    env = _desk_env()
    schedule = ScheduleParams(**GRID_SCHEDULE, psi=0.01)
    pair = solve_bmfe(env, lam=schedule.lam, rho=RHO)
    mu_gaps, pi_gaps = [], []
    for seed in range(5):
        result = run_sandbox(
            SandboxConfig(
                env=env,
                schedule=schedule,
                num_episodes=100,
                steps_per_episode=10_000,
                rho=RHO,
                seed=seed,
            )
        )
        mu_gaps.append(l1_norm(result.avg_mean_field - pair.mean_field))
        pi_gaps.append(tv_norm(result.avg_policy - pair.policy))
    mu_med = float(np.median(mu_gaps))
    pi_med = float(np.median(pi_gaps))
    _report(
        7,
        "desk-scale convergence",
        mu_med <= 0.1 and pi_med <= 0.15,
        f"5-seed medians: L1(mean-field) {mu_med:.4f} <= 0.1, TV(policy) {pi_med:.4f} <= 0.15",
    )


def _windowed_trend(values):
    third = len(values) // 3
    return float(np.mean(values[-third:])), float(np.mean(values[:third]))


def _full_grid_run(env):
    schedule = ScheduleParams(**GRID_SCHEDULE, psi=0.2)
    reference = solve_bmfe(env, lam=schedule.lam, rho=RHO)
    result = run_sandbox(
        SandboxConfig(
            env=env,
            schedule=schedule,
            num_episodes=300,
            steps_per_episode=50_000,
            rho=RHO,
            seed=0,
            reference=reference,
        )
    )
    mu_last, mu_first = _windowed_trend([d.e_mu for d in result.per_episode])
    pi_last, pi_first = _windowed_trend([d.e_pi for d in result.per_episode])
    detail = f"windowed mean e_mu {mu_first:.4f} -> {mu_last:.4f}, e_pi {pi_first:.4f} -> {pi_last:.4f}"
    return result, mu_last < mu_first and pi_last < pi_first, detail


@pytest.mark.slow
def test_criterion_08_full_grid_reproduction():
    env = make_congestion_env(CongestionGridParams(side=5, jostle_p=0.1, congestion_c=0.5))
    _, ok, detail = _full_grid_run(env)
    _report(8, "full 5x5 reproduction", ok, detail)


@pytest.mark.slow
def test_criterion_09_two_class_robustness():
    from mfg_sandbox.environment import TWO_CLASS_OPEN_STATES, make_two_class_env, state_index

    env = make_two_class_env(CongestionGridParams(side=5, jostle_p=0.1, congestion_c=0.5))
    result, ok, detail = _full_grid_run(env)
    open_idx = [state_index(x, y, 5) for x, y in TWO_CLASS_OPEN_STATES]
    # context for the verdict: the chain does get absorbed by the closed
    # class, so the open-class mass of the learned mean-field stays small
    open_mass = float(result.mu_first_steps[-100:, open_idx].sum(axis=1).mean())
    _report(9, "two-class robustness", ok, f"{detail}; open-class mass {open_mass:.4f}")


def test_criterion_10_determinism(tmp_path):
    config = {
        "mode": "compare",
        "environment": {"kind": "congestion", "side": 3},
        "K": 4,
        "T": 200,
        "rho": RHO,
        "seed": 11,
        "num_seeds": 2,
        "output_dir": "unused",
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")

    def run(into):
        cfg = dataclasses.replace(cli.load_config(path), output_dir=str(tmp_path / into))
        assert cli.run_experiment(cfg) == cli.EXIT_OK
        return {p.name: p.read_bytes() for p in sorted((tmp_path / into).iterdir())}

    first = run("first")
    second = run("second")
    # the third run takes every reference loop, as on a host without a compiler
    with mock.patch.object(_step_kernel, "load", return_value=None):
        reference = run("reference")
    identical = first == second == reference
    _report(
        10,
        "determinism",
        identical,
        f"{len(first)} output files byte-identical across reruns and without the compiled extension",
    )
