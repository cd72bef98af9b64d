import contextlib
import math
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

from mfg_sandbox import _step_kernel, oracle
from mfg_sandbox.core import inf_norm, l1_norm, softmax_table, tv_norm
from mfg_sandbox.environment import (
    CongestionGridParams,
    make_congestion_env,
    make_two_class_env,
)
from mfg_sandbox.oracle import (
    PROBE_BLOCK,
    BmfePair,
    ContractionEstimate,
    gamma1,
    gamma2,
    induced_kernel,
    probe_contraction,
    solve_bmfe,
)
from fixed_mdp import FixedMdpEnv, MuDependentEnv


def _random_env(seed, num_states=5, num_actions=2, concentration=2.0):
    rng = np.random.default_rng(seed)
    kernel = rng.dirichlet(np.ones(num_states) * concentration, size=(num_states, num_actions))
    rewards = rng.uniform(0, 1, size=(num_states, num_actions))
    return FixedMdpEnv(kernel, rewards)


def _stationary_distribution(chain):
    """Left eigenvector of the chain for eigenvalue 1, via a linear solve."""
    n = chain.shape[0]
    a = chain.T - np.eye(n)
    a[-1] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(a, b)


def test_q_star_single_state_geometric_series():
    env = FixedMdpEnv(np.ones((1, 1, 1)), np.array([[1.0]]))
    _, q, _ = gamma1(env, np.array([1.0]), lam=1.0, rho=0.7, tol=1e-10)
    assert q[0, 0] == pytest.approx(10 / 3, abs=1e-9)


def test_q_star_zero_rewards():
    env = _random_env(0)
    env = FixedMdpEnv(env.kernel, np.zeros((5, 2)))
    _, q, _ = gamma1(env, np.full(5, 0.2), lam=1.0, rho=0.9, tol=1e-10)
    assert np.allclose(q, 0.0)


def test_q_star_satisfies_bellman_equation():
    env = _random_env(1)
    mu = np.full(5, 0.2)
    rho, tol = 0.7, 1e-10
    _, q, _ = gamma1(env, mu, 1.0, rho, tol)
    backed_up = env.reward_table(mu) + rho * (env.transition_kernel(mu) @ q.max(axis=1))
    assert inf_norm(q - backed_up) <= tol


def test_q_star_monotone_in_rewards():
    rng = np.random.default_rng(2)
    kernel = rng.dirichlet(np.ones(4), size=(4, 2))
    rewards = rng.uniform(0, 0.8, size=(4, 2))
    mu = np.full(4, 0.25)
    _, base, _ = gamma1(FixedMdpEnv(kernel, rewards), mu, 1.0, 0.7, 1e-11)
    for _ in range(10):
        bumped = rewards.copy()
        s, a = rng.integers(4), rng.integers(2)
        bumped[s, a] += rng.uniform(0, 0.2)
        _, raised, _ = gamma1(FixedMdpEnv(kernel, bumped), mu, 1.0, 0.7, 1e-11)
        assert np.all(raised >= base - 1e-9)


def test_gamma1_uniform_at_zero_temperature():
    env = _random_env(3)
    pol, _, _ = gamma1(env, np.full(5, 0.2), lam=0.0, rho=0.7)
    assert np.allclose(pol, 0.5)


def test_gamma1_two_action_example():
    # Q* row (1, 0) at lam = ln 3 gives (0.75, 0.25): one state, two actions,
    # both absorbing with rewards chosen so Q* separates by exactly 1 - rho...
    # simpler to check composition directly on an engineered instance.
    kernel = np.ones((1, 2, 1))
    rewards = np.array([[0.3, 0.0]])
    env = FixedMdpEnv(kernel, rewards)
    pol, q, _ = gamma1(env, np.array([1.0]), lam=math.log(3) / 0.3, rho=0.7, tol=1e-12)
    # Q*(a) = r(a) + 0.7 * max Q = r(a) + 0.7 * Q*(best): gap is exactly 0.3
    assert q[0, 0] - q[0, 1] == pytest.approx(0.3, abs=1e-9)
    assert pol[0, 0] == pytest.approx(0.75, abs=1e-6)


def test_gamma1_concentrates_with_temperature():
    env = _random_env(4)
    mu = np.full(5, 0.2)
    _, q, _ = gamma1(env, mu, 1.0, 0.7, 1e-10)
    best = q.argmax(axis=1)
    separated = (q.max(axis=1) - np.sort(q, axis=1)[:, -2]) > 0.1
    assert separated.any()
    prev_mass = np.zeros(5)
    for lam in (1.0, 10.0, 100.0):
        pol, _, _ = gamma1(env, mu, lam, 0.7)
        mass = pol[np.arange(5), best]
        assert np.all(mass >= prev_mass - 1e-12)
        prev_mass = mass
    # non-argmax mass vanishes where the optimal action is well separated
    assert np.all(prev_mass[separated] > 0.999)


def test_gamma2_identity_kernel_fixes_everything():
    kernel = np.zeros((3, 2, 3))
    for s in range(3):
        kernel[s, :, s] = 1.0
    env = FixedMdpEnv(kernel, np.zeros((3, 2)))
    rng = np.random.default_rng(5)
    for _ in range(10):
        mu = rng.dirichlet(np.ones(3))
        pi = rng.dirichlet(np.ones(2), size=3)
        assert np.allclose(gamma2(env, pi, mu), mu)


def test_gamma2_absorbing_kernel():
    kernel = np.zeros((2, 2, 2))
    kernel[:, :, 0] = 1.0
    env = FixedMdpEnv(kernel, np.zeros((2, 2)))
    out = gamma2(env, np.full((2, 2), 0.5), np.array([0.3, 0.7]))
    assert np.allclose(out, [1.0, 0.0])


def test_gamma2_iteration_reaches_stationary_distribution():
    env = _random_env(6)
    rng = np.random.default_rng(7)
    pi = rng.dirichlet(np.ones(2), size=5)
    mu = rng.dirichlet(np.ones(5))
    for _ in range(500):
        mu = gamma2(env, pi, mu)
        assert abs(mu.sum() - 1.0) < 1e-12  # simplex preserved exactly
    expected = _stationary_distribution(induced_kernel(env, pi, mu))
    assert l1_norm(mu - expected) < 1e-10


def test_induced_kernel_rows_and_determinism():
    env = _random_env(8)
    rng = np.random.default_rng(9)
    pi = rng.dirichlet(np.ones(2), size=5)
    mu = rng.dirichlet(np.ones(5))
    chain = induced_kernel(env, pi, mu)
    assert np.abs(chain.sum(axis=1) - 1.0).max() < 1e-12
    # deterministic policy picks out one action's kernel slice
    det = np.zeros((5, 2))
    det[:, 1] = 1.0
    assert np.allclose(induced_kernel(env, det, mu), env.transition_kernel(mu)[:, 1, :])


def test_induced_kernel_matches_sampled_frequencies():
    env = _random_env(10)
    rng = np.random.default_rng(11)
    pi = rng.dirichlet(np.ones(2), size=5)
    mu = np.full(5, 0.2)
    chain = induced_kernel(env, pi, mu)
    kernel = env.transition_kernel(mu)
    s = 2
    n = 100_000
    counts = np.zeros(5)
    pi_cdf = np.cumsum(pi[s])
    for _ in range(n):
        a = min(int(np.searchsorted(pi_cdf, rng.random(), side="right")), 1)
        nxt = min(int(np.searchsorted(np.cumsum(kernel[s, a]), rng.random(), side="right")), 4)
        counts[nxt] += 1
    freq = counts / n
    se = np.sqrt(chain[s] * (1 - chain[s]) / n)
    assert np.all(np.abs(freq - chain[s]) <= 3 * se + 1e-12)


def test_solve_bmfe_single_state():
    env = FixedMdpEnv(np.ones((1, 1, 1)), np.array([[0.5]]))
    pair = solve_bmfe(env, lam=1.0, rho=0.7)
    assert pair.converged and pair.iterations == 1
    assert np.allclose(pair.mean_field, [1.0])


def test_solve_bmfe_matches_stationary_distribution():
    env = _random_env(12)
    pair = solve_bmfe(env, lam=1.0, rho=0.7, tol=1e-9)
    assert pair.converged
    # mu-independent env: the equilibrium policy is constant, so mu* is the
    # stationary distribution of its chain
    pol, _, _ = gamma1(env, pair.mean_field, 1.0, 0.7)
    expected = _stationary_distribution(induced_kernel(env, pol, pair.mean_field))
    assert l1_norm(pair.mean_field - expected) <= 1e-7


def test_solve_bmfe_congestion_fixed_point_contract():
    env = make_congestion_env(CongestionGridParams(side=3))
    tol = 1e-8
    pair = solve_bmfe(env, lam=1.0, rho=0.7, tol=tol)
    assert pair.converged
    assert pair.residual_policy <= tol
    assert pair.residual_mu <= tol
    # reapplying the composite map moves mu* by at most 2 * tol
    moved = gamma2(env, gamma1(env, pair.mean_field, 1.0, 0.7)[0], pair.mean_field)
    assert l1_norm(moved - pair.mean_field) <= 2 * tol


def test_solve_bmfe_flags_non_convergence():
    env = make_congestion_env(CongestionGridParams(side=3))
    pair = solve_bmfe(env, lam=1.0, rho=0.7, tol=1e-12, max_iter=2)
    assert not pair.converged
    assert pair.iterations == 2
    assert isinstance(pair, BmfePair)


@pytest.mark.parametrize(
    "env, iterations",
    [
        (make_congestion_env(CongestionGridParams(side=3)), 51),
        (make_congestion_env(CongestionGridParams(side=5)), 110),
        (make_two_class_env(CongestionGridParams(side=5)), 92),
    ],
    ids=["grid3", "grid5", "two_class"],
)
def test_shipped_grids_never_back_off(env, iterations):
    # the residual falls on every iteration, so the damping stays at 1/2
    pair = solve_bmfe(env, lam=1.0, rho=0.7)
    assert pair.converged
    assert (pair.iterations, pair.damping) == (iterations, 0.5)


def test_damping_back_off_converges_where_half_stalls():
    # At a fixed damping of 1/2 this solve cycles with residual_mu near 0.047
    # for all 10,000 iterations; halving the damping when the residual rises
    # converges within 100.
    env = make_congestion_env(CongestionGridParams(side=3))
    pair = solve_bmfe(env, lam=10.0, rho=0.9, max_iter=100)
    assert pair.converged and pair.residual_mu <= 1e-8 and pair.residual_policy <= 1e-8
    assert (pair.iterations, pair.damping) == (41, 0.25)
    mu_ref, iterations, _, damping = reference_solve_bmfe(env, lam=10.0, rho=0.9, max_iter=100)
    assert (iterations, damping) == (41, 0.25)
    assert l1_norm(pair.mean_field - mu_ref) <= 1e-10


def test_probe_zero_temperature_has_constant_gamma1():
    env = _random_env(13)
    est = probe_contraction(env, lam=0.0, rho=0.7, num_pairs=10, rng=np.random.default_rng(14))
    assert est.d1_hat == 0.0


def test_probe_d3_bounded_for_mu_independent_kernel():
    # rows of the chain are stochastic, so the push-forward is L1-nonexpansive
    env = _random_env(15)
    est = probe_contraction(env, lam=1.0, rho=0.7, num_pairs=50, rng=np.random.default_rng(16))
    assert 0.0 <= est.d3_hat <= 1.0 + 1e-9
    assert est.d_hat == pytest.approx(est.d1_hat * est.d2_hat + est.d3_hat)
    assert est.num_pairs == 50


@pytest.mark.parametrize(
    "env",
    [
        make_congestion_env(CongestionGridParams(side=3)),
        make_congestion_env(CongestionGridParams(side=5)),
        make_two_class_env(CongestionGridParams(side=5)),
    ],
    ids=["grid3", "grid5", "two_class"],
)
def test_probe_ratios_stay_below_the_kernel_suprema(env):
    # For a kernel that does not move with mu, the push-forward's ratios are
    # bounded by total-variation distances between kernel rows:
    # d2 <= max_s 1/2 max_{a,a'} |P(s,a) - P(s,a')|_1 (pi and pi' differ by
    # a signed measure of mass |pi(s) - pi'(s)|_1 / 2 on each side), and
    # d3 <= max_{s!=s',a,a'} 1/2 |P(s,a) - P(s',a')|_1 (Dobrushin's
    # coefficient of a chain whose rows mix the kernel's rows).
    S, A = env.num_states, env.num_actions
    P = env.transition_kernel(np.full(S, 1.0 / S))
    gaps = 0.5 * np.abs(P[:, :, None, None, :] - P[None, None, :, :, :]).sum(axis=-1)  # (s, a, s', a')
    same_state = np.eye(S, dtype=bool)[:, None, :, None]
    d2 = gaps.max(axis=(1, 3), where=same_state, initial=0.0).max()
    d3 = gaps.max(where=~same_state, initial=0.0)
    est = probe_contraction(env, lam=1.0, rho=0.7, num_pairs=256, rng=np.random.default_rng(17))
    assert est.d2_hat <= d2 + 1e-12
    assert est.d3_hat <= d3 + 1e-12


def _damped_solve(env, mu, lam, rho, tol=1e-8):
    """solve_bmfe's damped loop over gamma1 and gamma2, from the mean-field mu."""
    pi, q, _ = gamma1(env, mu, lam, rho)
    damping, previous = 0.5, math.inf
    for _ in range(10_000):
        pushed = gamma2(env, pi, mu)
        residual = l1_norm(pushed - mu)
        if residual <= tol:
            return mu
        if residual > previous:
            damping /= 2.0
        previous = residual
        mu = (1.0 - damping) * mu + damping * pushed
        mu /= mu.sum()
        pi, q, _ = gamma1(env, mu, lam, rho, q_start=q)
    raise AssertionError(f"no convergence from {mu}")


@pytest.mark.parametrize("lam", [1.0, 10.0])
def test_the_3x3_equilibrium_is_reached_from_every_start(lam):
    # No contraction certificate holds on the shipped worlds (d2 = d3 = 1
    # there), so uniqueness is checked directly: the damped iteration from
    # every vertex of the simplex and from random mean-fields ends at the
    # mean-field solve_bmfe finds from the uniform one.
    env = make_congestion_env(CongestionGridParams(side=3))
    tol = 1e-8
    reference = solve_bmfe(env, lam=lam, rho=0.7, tol=tol)
    assert reference.converged
    starts = list(np.eye(9)) + list(np.random.default_rng(18).dirichlet(np.ones(9), size=5))
    for start in starts:
        mu = _damped_solve(env, start, lam, 0.7, tol)
        assert l1_norm(mu - reference.mean_field) <= 10 * tol


def test_contraction_estimate_validation():
    with pytest.raises(ValueError):
        ContractionEstimate(d1_hat=-0.1, d2_hat=0.0, d3_hat=0.0, num_pairs=1)
    with pytest.raises(ValueError):
        ContractionEstimate(d1_hat=math.nan, d2_hat=0.0, d3_hat=0.0, num_pairs=1)


def test_solve_bmfe_records_its_inputs():
    env = make_congestion_env(CongestionGridParams(side=3))
    pair = solve_bmfe(env, lam=2.0, rho=0.6, tol=1e-9, vi_tol=1e-11)
    assert pair.env is env
    assert (pair.lam, pair.rho, pair.tol, pair.vi_tol) == (2.0, 0.6, 1e-9, 1e-11)
    # the damping the solve ended with: this solve never backs off from 1/2
    assert pair.damping == 0.5
    assert pair.converged and pair.iterations > 0 and pair.vi_sweeps > pair.iterations


# ---------------------------------------------------------------------------
# Differential tests: the batched, warm-started oracle against plain loops.


class MisStackedEnv(MuDependentEnv):
    """Broadcasts one mean-field over a leading axis, as if it were a stack:
    an (S, S, A, S) kernel and a (1, S, A) reward table for one (S,) mu."""

    def transition_kernel(self, mu):
        return 0.7 * self._base + 0.3 * np.asarray(mu)[:, None, None, None]

    def reward_table(self, mu):
        return super().reward_table(mu)[None]


class CopiedKernelEnv(FixedMdpEnv):
    """A fixed MDP whose kernel calls each return a new copy: equal kernels, never one object."""

    def transition_kernel(self, mu):
        return self.kernel.copy()


def reference_value_iteration(env, mus, rho, tol, q_start=None):
    """The in-place loop on a stack of mean-fields: unclipped final iterates and each one's sweep count.

    A sweep visits the states in index order; each of state s's rows sums
    rho * P(s, a, j) * v(j) in index order (cumsum), and v(s) = max_a q(s, a)
    is written before state s + 1 reads it. The problems sweep side by side,
    each on the table of its own mean-field, and each stops after its own
    first sweep that changes no entry by more than tol * (1 - rho) / rho.
    """
    rows = rho * np.stack([env.transition_kernel(mu) for mu in mus])
    rewards = np.stack([env.reward_table(mu) for mu in mus])
    threshold = tol * (1.0 - rho) / rho
    q = np.zeros_like(rewards) if q_start is None else np.array(q_start, dtype=np.float64)
    v = q.max(axis=2)
    sweeps = np.zeros(len(q), dtype=int)
    moving = np.ones(len(q), dtype=bool)
    while moving.any():
        live = np.flatnonzero(moving)
        sweeps[live] += 1
        q_live, v_live, rows_live, r_live = q[live], v[live], rows[live], rewards[live]
        for s in range(q.shape[1]):
            q_live[:, s] = r_live[:, s] + (rows_live[:, s] * v_live[:, None, :]).cumsum(axis=2)[:, :, -1]
            v_live[:, s] = q_live[:, s].max(axis=1)
        moving[live] = np.abs(q_live - q[live]).max(axis=(1, 2)) > threshold
        q[live], v[live] = q_live, v_live
    return q, sweeps


def greedy_fixed_point(env, mu, rho):
    """q* by policy iteration: evaluate the greedy policy with np.linalg.solve until it repeats."""
    kernel, rewards = env.transition_kernel(mu), env.reward_table(mu)
    states = np.arange(len(rewards))
    greedy = np.zeros(len(rewards), dtype=int)
    while True:
        v = np.linalg.solve(np.eye(len(states)) - rho * kernel[states, greedy], rewards[states, greedy])
        q = rewards + rho * kernel @ v
        # keep the current action on ties, so the loop cannot cycle
        better = q.max(axis=1) > q[states, greedy] + 1e-12
        if not better.any():
            return q
        greedy = np.where(better, q.argmax(axis=1), greedy)


def reference_push(env, pi, mu):
    """One pair's push, summed explicitly over (s, a) in index order."""
    kernel = env.transition_kernel(mu)
    S, A = pi.shape
    push = np.zeros(S)
    for t in range(S):
        for s in range(S):
            for a in range(A):
                push[t] += mu[s] * pi[s, a] * kernel[s, a, t]
    return push


def reference_probe(env, lam, rho, num_pairs, rng, vi_tol=1e-10):
    """Pair-by-pair probe: one row draw per policy row, two cold solves per pair."""
    S, A = env.num_states, env.num_actions
    pairs = []
    for _ in range(num_pairs):
        mu = rng.dirichlet(np.ones(S))
        mu_alt = rng.dirichlet(np.ones(S))
        pi = np.vstack([rng.dirichlet(np.ones(A)) for _ in range(S)])
        pi_alt = np.vstack([rng.dirichlet(np.ones(A)) for _ in range(S)])
        pairs.append((mu, mu_alt, pi, pi_alt))
    # the cold solves of every pair's two mean-fields, problem by problem
    q, _ = reference_value_iteration(env, [mu for pair in pairs for mu in pair[:2]], rho, vi_tol)
    d1 = d2 = d3 = 0.0
    for i, (mu, mu_alt, pi, pi_alt) in enumerate(pairs):
        push = induced_kernel(env, pi, mu).T @ mu
        dmu = l1_norm(mu - mu_alt)
        if dmu >= 1e-9:
            g1 = softmax_table(q[2 * i], lam)
            g1_alt = softmax_table(q[2 * i + 1], lam)
            d1 = max(d1, tv_norm(g1 - g1_alt) / dmu)
            push_alt = induced_kernel(env, pi, mu_alt).T @ mu_alt
            d3 = max(d3, l1_norm(push - push_alt) / dmu)
        dpi = tv_norm(pi - pi_alt)
        if dpi >= 1e-9:
            push_alt = induced_kernel(env, pi_alt, mu).T @ mu
            d2 = max(d2, l1_norm(push - push_alt) / dpi)
    return d1, d2, d3


def reference_solve_bmfe(env, lam, rho, tol=1e-8, max_iter=10_000):
    """Damped iteration on exact best responses: (mu, iterations, visited, damping).

    Each best response is the softmax of q* by policy iteration; visited
    lists the mean-fields whose best response the iteration took. The
    damping starts at 1/2 and halves whenever the undamped residual rises.
    """
    mu = np.full(env.num_states, 1.0 / env.num_states)
    visited = []

    def best_response(mu):
        visited.append(mu)
        return softmax_table(greedy_fixed_point(env, mu, rho), lam)

    pi = best_response(mu)
    damping, previous = 0.5, math.inf
    for iterations in range(1, max_iter + 1):
        pushed = induced_kernel(env, pi, mu).T @ mu
        residual = l1_norm(pushed - mu)
        if residual <= tol:
            break
        if residual > previous:
            damping /= 2.0
        previous = residual
        mu = (1.0 - damping) * mu + damping * pushed
        mu /= mu.sum()
        pi = best_response(mu)
    best_response(mu)  # the residual check
    return mu, iterations, visited, damping


def _oracle_env(kind, side, seed):
    if kind == "congestion":
        return make_congestion_env(CongestionGridParams(side=side))
    if kind == "two_class":
        return make_two_class_env(CongestionGridParams(side=5))
    if kind == "fixed":
        return _random_env(seed, num_states=side + 1, num_actions=3)
    return MuDependentEnv(seed, num_states=side + 1)


def value_iteration_paths():
    """Contexts that put value iteration on each path this host can run: the
    compiled sweep, which picks its lane width from the stack size, and
    always the NumPy fallback."""
    return [contextlib.nullcontext(), mock.patch.object(_step_kernel, "load", return_value=None)]


def compiled_value_iteration(kernel, rewards, q, scratch):
    """One C call at rho 0.7 and tol 1e-10 on a stack of problems that share
    kernel, with the caller's double scratch."""
    ffi, lib = _step_kernel.load()
    S, A = q.shape[1:]
    return lib.value_iteration(
        len(q),
        S,
        A,
        ffi.from_buffer("double[]", np.ascontiguousarray(kernel)),
        0.7,
        ffi.from_buffer("double[]", rewards),
        ffi.from_buffer("double[]", q, require_writable=True),
        ffi.from_buffer("int[]", np.empty(S * A + 1 + S * A * S, dtype=np.intc)),
        ffi.from_buffer("double[]", scratch, require_writable=True),
        1e-10 * 0.3 / 0.7,
        10**6,
    )


# Both paths and the reference fold the discount into the kernel and sum
# each row in index order, so iterates and sweep counts agree bit for bit.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["congestion", "two_class", "fixed", "mu_dependent"]),
    side=st.integers(1, 4),
    num_problems=st.integers(1, 6),
    rho=st.floats(0.1, 0.9),
    tol=st.sampled_from([1e-6, 1e-8, 1e-10]),
    warm=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_value_iteration_matches_per_mu_loop(kind, side, num_problems, rho, tol, warm, seed):
    env = _oracle_env(kind, side, seed)
    S, A = env.num_states, env.num_actions
    rng = np.random.default_rng(seed)
    mus = rng.dirichlet(np.ones(S), size=num_problems)
    q_start = rng.uniform(0.0, 1.0 / (1.0 - rho), size=(num_problems, S, A)) if warm else None
    q_ref, sweeps_ref = reference_value_iteration(env, mus, rho, tol, q_start)
    for path in value_iteration_paths():
        with path:
            q, sweeps = oracle._value_iteration(env, mus, rho, tol, q_start=q_start)
        assert q.shape == (num_problems, S, A)
        assert np.array_equal(q, q_ref)
        assert sweeps == sweeps_ref.sum()


def test_mu_dependent_kernel_takes_the_stacked_branch():
    # one compiled call per problem, each on its own mean-field's kernel
    if _step_kernel.load() is None:
        pytest.skip("the compiled extension could not be built here")
    env = MuDependentEnv(0)
    mus = np.random.default_rng(1).dirichlet(np.ones(4), size=3)
    with mock.patch.object(oracle, "_sweeps_compiled", wraps=oracle._sweeps_compiled) as compiled:
        q, _ = oracle._value_iteration(env, mus, 0.8, 1e-10)
    assert [len(call.args[4]) for call in compiled.call_args_list] == [1, 1, 1]
    # a shared kernel (the first mu's) would miss these by far more
    assert np.abs(q - reference_value_iteration(env, mus, 0.8, 1e-10)[0]).max() <= 1e-12


def test_a_shared_kernel_is_one_compiled_call():
    if _step_kernel.load() is None:
        pytest.skip("the compiled extension could not be built here")
    env = make_congestion_env(CongestionGridParams(side=3))
    mus = np.random.default_rng(2).dirichlet(np.ones(9), size=5)
    with mock.patch.object(oracle, "_sweeps_compiled", wraps=oracle._sweeps_compiled) as compiled:
        oracle._value_iteration(env, mus, 0.7, 1e-10)
    assert compiled.call_count == 1 and len(compiled.call_args.args[4]) == 5
    assert compiled.call_args.args[2] is env.kernel


def test_equal_kernels_of_distinct_objects_take_the_stacked_branch():
    # The identity of the returned array, not its values, shares a kernel;
    # the stacked branch solves the same problems to the same bits.
    shared = _random_env(7)
    copied = CopiedKernelEnv(shared.kernel, shared.rewards)
    mus = np.random.default_rng(8).dirichlet(np.ones(5), size=3)
    assert oracle._kernels(shared, mus) is shared.kernel
    kernels = oracle._kernels(copied, mus)
    assert kernels.shape == (3, 5, 2, 5) and all(np.array_equal(k, shared.kernel) for k in kernels)
    for path in value_iteration_paths():
        with path:
            assert np.array_equal(
                oracle._value_iteration(copied, mus, 0.7, 1e-10)[0], oracle._value_iteration(shared, mus, 0.7, 1e-10)[0]
            )
    if _step_kernel.load() is not None:
        with mock.patch.object(oracle, "_sweeps_compiled", wraps=oracle._sweeps_compiled) as compiled:
            oracle._value_iteration(copied, mus, 0.7, 1e-10)
        assert [len(call.args[4]) for call in compiled.call_args_list] == [1, 1, 1]


@pytest.mark.parametrize("rho", [0.5, 0.7, 0.95])
@pytest.mark.parametrize(
    "env",
    [
        make_congestion_env(CongestionGridParams(side=3)),
        make_congestion_env(CongestionGridParams(side=5)),
        make_two_class_env(CongestionGridParams(side=5)),
    ],
    ids=["grid3", "grid5", "two_class"],
)
def test_lockstep_stacks_equal_one_problem_calls(env, rho):
    # Stacks below, at and past each lane width, with lanes retiring at
    # different sweeps: each problem's iterates and sweeps are its own. The
    # call picks its width from the stack size, so on an AVX-512 host 1-2
    # problems sweep 2 lanes, 3-4 sweep 4 and 5 or more sweep 8: every
    # compiled copy of the sweep is checked against one-problem calls.
    if _step_kernel.load() is None:
        pytest.skip("the compiled extension could not be built here")
    S, A = env.num_states, env.num_actions
    rng = np.random.default_rng(31)
    for M in (1, 2, 3, 4, 5, 7, 8, 9, 19, 33):
        mus = rng.dirichlet(np.ones(S), size=M)
        for q_start in (None, rng.uniform(0.0, 1.0 / (1.0 - rho), size=(M, S, A))):
            q, sweeps = oracle._value_iteration(env, mus, rho, 1e-10, q_start=q_start)
            total = 0
            for m in range(M):
                warm = None if q_start is None else q_start[m : m + 1]
                q_m, n = oracle._value_iteration(env, mus[m : m + 1], rho, 1e-10, q_start=warm)
                assert np.array_equal(q[m], q_m[0])
                total += n
            assert sweeps == total


def test_max_iter_counts_each_lane_on_its_own():
    # All problems but one start at their fixed points and stop within a
    # sweep or two; the one past the first lane starts cold and alone needs
    # the full count, from the sweep its lane takes it. Stacks of 2 and 4
    # fill the 2- and 4-lane copies; in the largest stack the cold problem
    # waits for a lane at every width. On both paths.
    env = make_congestion_env(CongestionGridParams(side=3))
    for M in (2, 4, 2 * _step_kernel.MAX_LANES + 3):
        cold = min(M - 1, _step_kernel.MAX_LANES + 1)
        mus = np.random.default_rng(32).dirichlet(np.ones(9), size=M)
        q_start, _ = oracle._value_iteration(env, mus, 0.7, 1e-10)
        q_start[cold] = 0.0
        needed = [oracle._value_iteration(env, mus[m : m + 1], 0.7, 1e-10, q_start[m : m + 1])[1] for m in range(M)]
        assert max(needed[:cold] + needed[cold + 1 :]) < needed[cold] - 1
        for path in value_iteration_paths():
            with path:
                _, sweeps = oracle._value_iteration(env, mus, 0.7, 1e-10, q_start=q_start, max_iter=needed[cold])
                assert sweeps == sum(needed)
                with pytest.raises(ArithmeticError, match=f"within {needed[cold] - 1} sweeps"):
                    oracle._value_iteration(env, mus, 0.7, 1e-10, q_start=q_start, max_iter=needed[cold] - 1)


def test_idle_lanes_hold_zeros():
    # Scratch space full of NaN must change no bit of q and no sweep count:
    # a lane without a problem is zeroed before the first sweep, and every
    # lane holds zeros once its last problem is out. The lanes the call
    # swept are the zeroed prefix of the lane scratch, which shows its
    # width: the narrowest the CPU runs that holds the stack, else the
    # widest. numpy's CPU dispatch reads the same CPU features.
    if _step_kernel.load() is None:
        pytest.skip("the compiled extension could not be built here")
    env = make_congestion_env(CongestionGridParams(side=5))
    S, A = env.num_states, env.num_actions
    lane = 2 * S * A + S  # lane scratch doubles per lane
    mus = np.random.default_rng(38).dirichlet(np.ones(S), size=9)
    widths = []
    for M in (1, 3, 5, 9):
        rewards = np.stack([env.reward_table(mu) for mu in mus[:M]])
        q_ref, sweeps_ref = oracle._value_iteration(env, mus[:M], 0.7, 1e-10)
        q = np.zeros((M, S, A))
        scratch = np.full(S * A * S + lane * _step_kernel.MAX_LANES, np.nan)
        assert compiled_value_iteration(env.transition_kernel(mus[0]), rewards, q, scratch) == sweeps_ref
        assert np.array_equal(q, q_ref)
        lanes = scratch[S * A * S :]
        swept = int((~np.isnan(lanes)).sum())
        assert swept % lane == 0 and swept // lane in (2, 4, 8)
        assert not lanes[:swept].any() and np.isnan(lanes[swept:]).all()
        widths.append(swept // lane)
    runs = [2] + [w for w, feature in ((4, "AVX2"), (8, "AVX512F")) if __cpu_features__.get(feature)]
    assert widths == [min([w for w in runs if w >= M] or [runs[-1]]) for M in (1, 3, 5, 9)]


def test_a_stack_of_mean_fields_gets_a_stack_of_tables():
    # one environment call per mean-field; a new kernel per call is a stack of them
    env = MuDependentEnv(33)
    mus = np.random.default_rng(34).dirichlet(np.ones(4), size=3)
    kernels = oracle._kernels(env, mus)
    assert kernels.shape == (3, 4, 3, 4)
    for m, mu in enumerate(mus):
        assert np.array_equal(kernels[m], env.transition_kernel(mu))
        assert env.reward_table(mu).shape == (4, 3)


def test_a_wrongly_broadcast_kernel_stack_fails_the_shape_check():
    # One mean-field broadcast into a stack's shape is no (S, A, S) kernel
    # nor (S, A) reward table; each table is checked on its own.
    env = MisStackedEnv(35)
    mu = np.random.default_rng(36).dirichlet(np.ones(4))
    pi = np.random.default_rng(37).dirichlet(np.ones(3), size=4)
    assert env.transition_kernel(mu).shape == (4, 4, 3, 4)
    for call in (gamma1, gamma2, induced_kernel):
        args = (env, mu, 1.0, 0.7) if call is gamma1 else (env, pi, mu)
        with pytest.raises(ValueError, match=r"transition kernels must have shape \(4, 3, 4\)"):
            call(*args)
    env.transition_kernel = MuDependentEnv(35).transition_kernel
    with pytest.raises(ValueError, match=r"reward tables must have shape \(4, 3\)"):
        gamma1(env, np.stack([mu, mu]), 1.0, 0.7)


@pytest.mark.parametrize("kind", ["congestion", "two_class", "mu_dependent"])
def test_compiled_sweep_is_an_in_order_sum(kind):
    # Skipping the kernel's exact zeros must not move a bit: each row's sum
    # of rho * P(s, a, j) * v(j) runs in index order, as cumsum's does, and
    # a state's rows read the values the states before it wrote this sweep.
    env = _oracle_env(kind, 4, 5)
    mus = np.random.default_rng(6).dirichlet(np.ones(env.num_states), size=3)
    q_ref, sweeps_ref = reference_value_iteration(env, mus, 0.7, 1e-10)
    for path in value_iteration_paths():
        with path:
            q, sweeps = oracle._value_iteration(env, mus, 0.7, 1e-10)
        assert np.array_equal(q, q_ref)
        assert sweeps == sweeps_ref.sum()


@pytest.mark.parametrize("kind", ["congestion", "two_class", "fixed", "mu_dependent"])
def test_in_place_sweeps_stop_within_tol_of_the_fixed_point(kind):
    # The stopping rule's guarantee, from cold and from random warm starts,
    # checked against q* computed without value iteration.
    env = _oracle_env(kind, 3, 9)
    S, A = env.num_states, env.num_actions
    rng = np.random.default_rng(10)
    mu = rng.dirichlet(np.ones(S))
    mus = np.stack([mu, mu])
    for rho in (0.5, 0.7, 0.95):
        q_star = greedy_fixed_point(env, mu, rho)
        # the first problem starts from Q = 0, the second at random
        q_start = rng.uniform(0.0, 1.0 / (1.0 - rho), size=(2, S, A))
        q_start[0] = 0.0
        for tol in (1e-6, 1e-10):
            for path in value_iteration_paths():
                with path:
                    q, _ = oracle._value_iteration(env, mus, rho, tol, q_start=q_start)
                assert np.abs(q - q_star).max() <= tol


def test_in_place_sweeps_beat_jacobi_sweeps_on_5x5():
    # The same stopping rule on Jacobi sweeps, q <- r + rho P max_a q all at
    # once, needs more sweeps: an in-place sweep reads values already swept.
    env = make_congestion_env(CongestionGridParams(side=5))
    mus = np.random.default_rng(14).dirichlet(np.ones(25), size=4)
    _, sweeps = oracle._value_iteration(env, mus, 0.7, 1e-10)
    jacobi = 0
    for mu in mus:
        kernel, rewards = 0.7 * env.transition_kernel(mu), env.reward_table(mu)
        q = np.zeros_like(rewards)
        while True:
            jacobi += 1
            q_next = rewards + kernel @ q.max(axis=1)
            delta = np.abs(q_next - q).max()
            q = q_next
            if delta <= 1e-10 * 0.3 / 0.7:
                break
    assert sweeps < jacobi


@pytest.mark.parametrize("kind", ["congestion", "mu_dependent"])
def test_value_iteration_past_max_iter_raises(kind):
    env = _oracle_env(kind, 3, 4)
    mus = np.random.default_rng(3).dirichlet(np.ones(env.num_states), size=3)
    needed = reference_value_iteration(env, mus, 0.7, 1e-10)[1].max()
    for path in value_iteration_paths():
        with path:
            oracle._value_iteration(env, mus, 0.7, 1e-10, max_iter=needed)
            with pytest.raises(ArithmeticError, match=f"within {needed - 1} sweeps"):
                oracle._value_iteration(env, mus, 0.7, 1e-10, max_iter=needed - 1)


def test_value_iteration_rejects_mis_shaped_inputs():
    # the compiled loop would read past these arrays' ends
    env = _random_env(0)
    mus = np.full((2, 5), 0.2)
    with pytest.raises(ValueError, match="q_start"):
        oracle._value_iteration(env, mus, 0.7, 1e-10, q_start=np.zeros((1, 5, 2)))
    short = MuDependentEnv(1, num_states=5, num_actions=2)
    short.transition_kernel = lambda mu: np.full((5, 2, 4), 0.25)
    with pytest.raises(ValueError, match="transition kernels"):
        oracle._value_iteration(short, mus, 0.7, 1e-10)


def test_value_iteration_of_no_problems():
    env = _random_env(0)
    q, sweeps = oracle._value_iteration(env, [], 0.7, 1e-10)
    assert q.shape == (0, 5, 2) and sweeps == 0


PROBE_PAIR_COUNTS = sorted({1, 15, 16, 37, PROBE_BLOCK - 1, PROBE_BLOCK, 2 * PROBE_BLOCK + 5})


def numpy_probe():
    """The probe's NumPy block loop: the extension patched off, value iteration included."""
    return mock.patch.object(_step_kernel, "load", return_value=None)


def recording_probe_block(block_sizes):
    """The extension, its probe_block recording each call's number of pairs."""
    loaded = _step_kernel.load()
    if loaded is None:
        pytest.skip("the compiled extension could not be built here")
    ffi, lib = loaded

    def probe_block(num_pairs, *args):
        block_sizes.append(num_pairs)
        return lib.probe_block(num_pairs, *args)

    return mock.patch.object(
        _step_kernel, "load", return_value=(ffi, types.SimpleNamespace(probe_block=probe_block))
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("num_pairs", PROBE_PAIR_COUNTS)
def test_probe_matches_pair_by_pair_loop(seed, num_pairs):
    # the NumPy block loop; test_compiled_probe_matches_pair_by_pair_loop is its compiled twin
    env = make_congestion_env(CongestionGridParams(side=3))
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    batch_sizes = []
    solve = oracle._value_iteration

    def recording(env, mus, *args, **kwargs):
        batch_sizes.append(len(mus))
        return solve(env, mus, *args, **kwargs)

    with numpy_probe(), mock.patch.object(oracle, "_value_iteration", recording):
        est = probe_contraction(env, lam=2.0, rho=0.7, num_pairs=num_pairs, rng=rng)
    d1, d2, d3 = reference_probe(env, 2.0, 0.7, num_pairs, rng_ref)
    assert abs(est.d1_hat - d1) <= 1e-12
    assert abs(est.d2_hat - d2) <= 1e-12
    assert abs(est.d3_hat - d3) <= 1e-12
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    # memory stays O(block): no call solves more than one block's pairs
    assert sum(batch_sizes) == 2 * num_pairs
    assert max(batch_sizes) <= 2 * PROBE_BLOCK


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("num_pairs", PROBE_PAIR_COUNTS)
def test_compiled_probe_matches_pair_by_pair_loop(seed, num_pairs):
    env = make_congestion_env(CongestionGridParams(side=3))
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    block_sizes = []
    with recording_probe_block(block_sizes), mock.patch.object(oracle, "_value_iteration") as solve:
        est = probe_contraction(env, lam=2.0, rho=0.7, num_pairs=num_pairs, rng=rng)
    d1, d2, d3 = reference_probe(env, 2.0, 0.7, num_pairs, rng_ref)
    assert abs(est.d1_hat - d1) <= 1e-12
    assert abs(est.d2_hat - d2) <= 1e-12
    assert abs(est.d3_hat - d3) <= 1e-12
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    # value iteration runs inside the block's call, which scores at most one block
    assert solve.call_count == 0
    assert sum(block_sizes) == num_pairs and max(block_sizes) <= PROBE_BLOCK


def test_probe_pushes_once_per_block():
    env = make_congestion_env(CongestionGridParams(side=5))
    with numpy_probe(), mock.patch.object(oracle, "gamma2", wraps=oracle.gamma2) as push:
        probe_contraction(env, lam=2.0, rho=0.7, num_pairs=600, rng=np.random.default_rng(3))
    assert push.call_count == -(-600 // PROBE_BLOCK) == 19


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
def test_a_nan_probe_ratio_raises(compiled):
    # lam * q overflows on these Q-tables, so every moved pair's softmax rows
    # are NaN; a maximum that drops them would report d1_hat = 0
    env = make_congestion_env(CongestionGridParams(side=3))
    block_sizes = []
    path = recording_probe_block(block_sizes) if compiled else numpy_probe()
    with path, np.errstate(over="ignore", invalid="ignore"), pytest.raises(ArithmeticError, match="NaN"):
        probe_contraction(env, lam=1e308, rho=0.7, num_pairs=64, rng=np.random.default_rng(0))
    assert block_sizes == ([PROBE_BLOCK] if compiled else [])


def test_compiled_probe_calls_the_block_once_per_block():
    env = make_congestion_env(CongestionGridParams(side=5))
    block_sizes = []
    with recording_probe_block(block_sizes), mock.patch.object(oracle, "gamma2") as push:
        probe_contraction(env, lam=2.0, rho=0.7, num_pairs=600, rng=np.random.default_rng(3))
    assert len(block_sizes) == -(-600 // PROBE_BLOCK) == 19 and push.call_count == 0
    assert block_sizes == [PROBE_BLOCK] * 18 + [600 - 18 * PROBE_BLOCK]


PROBE_WORLDS = {
    "grid3": make_congestion_env(CongestionGridParams(side=3)),
    "grid5": make_congestion_env(CongestionGridParams(side=5)),
    "two_class": make_two_class_env(CongestionGridParams(side=5)),
    "side1": make_congestion_env(CongestionGridParams(side=1)),
}


@pytest.mark.parametrize("lam", [1.0, 2.0, 10.0])
@pytest.mark.parametrize("world", PROBE_WORLDS)
def test_compiled_probe_matches_the_numpy_block_loop(world, lam):
    # PROBE_BLOCK + 5 pairs: a full block and a partial one
    env, num_pairs = PROBE_WORLDS[world], PROBE_BLOCK + 5
    rng, rng_numpy, rng_ref = (np.random.default_rng(31) for _ in range(3))
    block_sizes = []
    with recording_probe_block(block_sizes):
        est = probe_contraction(env, lam=lam, rho=0.7, num_pairs=num_pairs, rng=rng)
    with numpy_probe():
        numpy_est = probe_contraction(env, lam=lam, rho=0.7, num_pairs=num_pairs, rng=rng_numpy)
    assert (est.d1_hat, est.d2_hat, est.d3_hat) == (numpy_est.d1_hat, numpy_est.d2_hat, numpy_est.d3_hat)
    assert rng.bit_generator.state == rng_numpy.bit_generator.state
    d1, d2, d3 = reference_probe(env, lam, 0.7, num_pairs, rng_ref)
    assert abs(est.d1_hat - d1) <= 1e-12 and abs(est.d2_hat - d2) <= 1e-12 and abs(est.d3_hat - d3) <= 1e-12
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    # one state: the NumPy block scores every block
    assert block_sizes == ([] if env.num_states == 1 else [PROBE_BLOCK, 5])


@pytest.mark.parametrize("num_pairs", [1, 17, PROBE_BLOCK])
@pytest.mark.parametrize("lam", [1.0, 2.0, 10.0, 300.0])
@pytest.mark.parametrize("side", [2, 3, 5, 12])
def test_probe_block_equals_the_numpy_block(side, lam, num_pairs):
    # 12 x 12 = 144 states: L1 rows of more than 128 entries, which
    # x.sum(axis=-1) would add as two pairwise halves; at lam = 300,
    # exp(lam q) overflows unless the softmax shifts by the row max
    loaded = _step_kernel.load()
    if loaded is None:
        pytest.skip("the compiled extension could not be built here")
    env = make_congestion_env(CongestionGridParams(side=side))
    S, A = env.num_states, env.num_actions
    e = np.random.default_rng(side).standard_exponential((num_pairs, 2 * S + 2 * S * A))
    d1, d2, d3 = oracle._compiled_block(env, lam, 0.7, *loaded)(e)
    numpy_d1, numpy_d2, numpy_d3 = oracle._block_ratios(env, lam, 0.7, e)
    assert (d1, d2, d3) == (numpy_d1, numpy_d2, numpy_d3)


def test_probe_single_state_skips_every_mean_field_ratio():
    env = make_congestion_env(CongestionGridParams(side=1))
    est = probe_contraction(env, lam=1.0, rho=0.7, num_pairs=PROBE_BLOCK + 1, rng=np.random.default_rng(0))
    assert est.d1_hat == 0.0 and est.d3_hat == 0.0


@pytest.mark.parametrize("S, A, n", [(9, 4, 16), (25, 4, 5), (1, 1, 3)])
def test_block_draws_are_the_dirichlet_stream(S, A, n):
    # A numpy release that changes rng.dirichlet's draws or sum order breaks
    # the probe's reproduction of the pair-by-pair stream; this shows it.
    rng, rng_ref = np.random.default_rng(11), np.random.default_rng(11)
    e = rng.standard_exponential((n, 2 * S + 2 * S * A))
    rows = oracle._dirichlet_rows(e[:, : 2 * S].reshape(n, 2, S)).reshape(n, 2 * S)
    policies = oracle._dirichlet_rows(e[:, 2 * S :].reshape(n, 2 * S, A)).reshape(n, 2 * S * A)
    expected = [
        np.concatenate(
            [rng_ref.dirichlet(np.ones(S)), rng_ref.dirichlet(np.ones(S))]
            + [rng_ref.dirichlet(np.ones(A)) for _ in range(2 * S)]
        )
        for _ in range(n)
    ]
    assert np.array_equal(np.hstack([rows, policies]), np.array(expected))
    assert rng.bit_generator.state == rng_ref.bit_generator.state


def index_order_sum(x: list) -> float:
    """The sum of a row entry by entry from the first, as the compiled probe block sums."""
    total = 0.0
    for value in x:
        total += value
    return total


@pytest.mark.parametrize("n", list(range(1, 41)) + [129, 144])
def test_row_sums_follow_the_order_the_probe_block_copies(n):
    # Both probe blocks sum each L1 and TV row in index order, so that their
    # ratios agree bit for bit; _row_sums is the NumPy block's sum. The
    # lengths cover those at which x.sum(axis=-1) adds pairwise instead.
    x = np.random.default_rng(n).standard_normal((200, n))
    assert oracle._row_sums(x).tolist() == [index_order_sum(row) for row in x.tolist()]


@pytest.mark.parametrize(
    "env",
    [
        make_congestion_env(CongestionGridParams(side=3)),
        make_congestion_env(CongestionGridParams(side=5)),
        make_two_class_env(CongestionGridParams(side=5)),
        MuDependentEnv(23),
    ],
    ids=["grid3", "grid5", "two_class", "mu_dependent"],
)
def test_stacked_gamma2_equals_pair_by_pair(env):
    S, A = env.num_states, env.num_actions
    rng = np.random.default_rng(12)
    mus = rng.dirichlet(np.ones(S), size=PROBE_BLOCK)
    pis = rng.dirichlet(np.ones(A), size=(PROBE_BLOCK, S))
    chains = induced_kernel(env, pis, mus)
    pushes = gamma2(env, pis, mus)
    assert chains.shape == (PROBE_BLOCK, S, S) and pushes.shape == (PROBE_BLOCK, S)
    for m in range(PROBE_BLOCK):
        assert np.array_equal(chains[m], induced_kernel(env, pis[m], mus[m]))
        assert np.array_equal(pushes[m], gamma2(env, pis[m], mus[m]))
        # the flow push sums in index order over (s, a); the chain's product
        # sums over a first, then s, so the two agree to rounding only
        assert np.array_equal(pushes[m], reference_push(env, pis[m], mus[m]))
        assert np.abs(pushes[m] - induced_kernel(env, pis[m], mus[m]).T @ mus[m]).max() <= 1e-15


@pytest.mark.parametrize(
    "env",
    [
        make_congestion_env(CongestionGridParams(side=3)),
        make_congestion_env(CongestionGridParams(side=5)),
        make_two_class_env(CongestionGridParams(side=5)),
        MuDependentEnv(24),
    ],
    ids=["grid3", "grid5", "two_class", "mu_dependent"],
)
def test_stacked_gamma1_equals_per_mu_calls(env):
    S, A = env.num_states, env.num_actions
    mus = np.random.default_rng(13).dirichlet(np.ones(S), size=5)
    policies, qs, sweeps = gamma1(env, mus, 2.0, 0.8)
    assert policies.shape == qs.shape == (5, S, A)
    total = 0
    for m, mu in enumerate(mus):
        policy, q, n = gamma1(env, mu, 2.0, 0.8)
        assert np.array_equal(policies[m], policy) and np.array_equal(qs[m], q)
        total += n
    assert sweeps == total
    # a warm start shaped like q follows the same convention
    _, q_warm, _ = gamma1(env, mus[0], 2.0, 0.8, q_start=qs[0])
    assert np.abs(q_warm - qs[0]).max() <= 1e-10


@pytest.mark.parametrize("kind", ["congestion", "two_class", "fixed", "mu_dependent"])
def test_gamma1_compiled_and_fallback_agree(kind):
    env = _oracle_env(kind, 3, 7)
    mus = np.random.default_rng(8).dirichlet(np.ones(env.num_states), size=4)
    results = []
    for path in value_iteration_paths():
        with path:
            results.append(gamma1(env, mus, 3.0, 0.9))
    for policy, q, sweeps in results[1:]:
        assert np.abs(policy - results[0][0]).max() <= 1e-12
        assert np.abs(q - results[0][1]).max() <= 1e-12
        assert sweeps == results[0][2]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    num_states=st.integers(1, 6),
    num_actions=st.integers(1, 4),
    rho=st.floats(0.01, 0.99),
    ones_share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_gamma1_q_stays_in_the_discounted_reward_box(num_states, num_actions, rho, ones_share, seed):
    # Value iteration from Q = 0 on rewards in [0, 1] stays in [0, 1/(1-rho)]
    # and stops below its fixed point; rewards of exactly 1.0 reach the top.
    rng = np.random.default_rng(seed)
    kernel = rng.dirichlet(np.ones(num_states), size=(num_states, num_actions))
    rewards = rng.uniform(0.0, 1.0, size=(num_states, num_actions))
    rewards[rng.random((num_states, num_actions)) < ones_share] = 1.0
    env = FixedMdpEnv(kernel, rewards)
    mus = rng.dirichlet(np.ones(num_states), size=2)
    for path in value_iteration_paths():
        with path:
            _, q, _ = gamma1(env, mus, 1.0, rho)
        assert q.min() >= 0.0
        assert q.max() <= 1.0 / (1.0 - rho)


@pytest.mark.parametrize("rho", [-0.1, 0.0, 1.0, 1.5])
def test_a_discount_outside_the_unit_interval_is_rejected_before_any_sweep(rho):
    # On the 1-state grid no drawn pair moves the mean-field, so the probe
    # never reaches gamma1's check and must make its own.
    for side in (5, 1):
        env = make_congestion_env(CongestionGridParams(side=side))
        S = env.num_states
        with (
            mock.patch.object(oracle, "_sweeps_numpy", side_effect=AssertionError),
            mock.patch.object(oracle, "_sweeps_compiled", side_effect=AssertionError),
        ):
            with pytest.raises(ValueError, match=r"rho must lie in \(0, 1\)"):
                gamma1(env, np.full(S, 1.0 / S), 1.0, rho)
            with pytest.raises(ValueError, match=r"rho must lie in \(0, 1\)"):
                solve_bmfe(env, lam=1.0, rho=rho)
            with pytest.raises(ValueError, match=r"rho must lie in \(0, 1\)"):
                probe_contraction(env, lam=1.0, rho=rho, num_pairs=4, rng=np.random.default_rng(0))


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan])
def test_a_tolerance_not_above_zero_is_rejected_before_any_sweep(tol):
    # A NaN tolerance passes no stopping test, so a solve that took it would
    # sweep to its iteration limit.
    env = make_congestion_env(CongestionGridParams(side=3))
    mu = np.full(9, 1.0 / 9)
    with (
        mock.patch.object(oracle, "_sweeps_numpy", side_effect=AssertionError),
        mock.patch.object(oracle, "_sweeps_compiled", side_effect=AssertionError),
    ):
        with pytest.raises(ValueError, match="tol must be > 0"):
            oracle._value_iteration(env, mu[None], 0.7, tol)
        with pytest.raises(ValueError, match="tol must be > 0"):
            gamma1(env, mu, 1.0, 0.7, tol)
        with pytest.raises(ValueError, match="tol must be > 0"):
            solve_bmfe(env, lam=1.0, rho=0.7, tol=tol)
        with pytest.raises(ValueError, match="tol must be > 0"):
            solve_bmfe(env, lam=1.0, rho=0.7, vi_tol=tol)


@pytest.mark.parametrize("lam", [-1.0, math.inf, math.nan])
def test_a_temperature_outside_the_softmax_range_is_rejected_before_any_draw(lam):
    # the compiled block's softmax never reaches softmax_table's check, and
    # on the 1-state grid neither does the NumPy block's
    for side in (5, 1):
        env = make_congestion_env(CongestionGridParams(side=side))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="softmax temperature must be finite and >= 0"):
            probe_contraction(env, lam=lam, rho=0.7, num_pairs=4, rng=rng)
        assert rng.bit_generator.state == state


@pytest.mark.parametrize(
    "env",
    [
        make_congestion_env(CongestionGridParams(side=3)),
        make_congestion_env(CongestionGridParams(side=5)),
        make_two_class_env(CongestionGridParams(side=5)),
        _random_env(21),
        MuDependentEnv(22),
    ],
    ids=["grid3", "grid5", "two_class", "fixed", "mu_dependent"],
)
def test_warm_started_solve_matches_cold_loop(env):
    pair = solve_bmfe(env, lam=1.0, rho=0.7)
    mu_ref, iterations, _, damping = reference_solve_bmfe(env, lam=1.0, rho=0.7)
    assert pair.converged
    assert (pair.iterations, pair.damping) == (iterations, damping)
    assert l1_norm(pair.mean_field - mu_ref) <= 1e-10


def test_warm_start_halves_the_sweeps_on_5x5():
    env = make_congestion_env(CongestionGridParams(side=5))
    pair = solve_bmfe(env, lam=1.0, rho=0.7)
    _, iterations, visited, _ = reference_solve_bmfe(env, lam=1.0, rho=0.7)
    assert pair.iterations == iterations
    # what value iteration from Q = 0 needs at the same mean-fields
    cold_sweeps = reference_value_iteration(env, visited, 0.7, 1e-10)[1].sum()
    assert 0 < pair.vi_sweeps < cold_sweeps / 2
