import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfg_sandbox.core import frobenius_norm
from mfg_sandbox.estimators import QLearner, TransitionCounter


def test_zero_count_estimate_is_uniform():
    counter = TransitionCounter(4)
    assert np.allclose(counter.estimate(), 0.25)
    assert np.abs(counter.estimate().sum(axis=1) - 1.0).max() < 1e-12


def test_single_observation_estimate():
    counter = TransitionCounter(2)
    counter.record(0, 1)
    # (1 + 1/2) / (1 + 1) and (0 + 1/2) / (1 + 1)
    assert counter.estimate()[0, 1] == pytest.approx(0.75)
    assert counter.estimate()[0, 0] == pytest.approx(0.25)
    assert counter.pair_counts[0, 1] == 1
    assert counter.pair_counts.sum(axis=1)[0] == 1


def test_record_out_of_range():
    counter = TransitionCounter(3)
    with pytest.raises(IndexError):
        counter.record(3, 0)
    with pytest.raises(IndexError):
        counter.record(0, -1)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=200))
def test_counts_and_row_sums_invariant(transitions):
    counter = TransitionCounter(5)
    for i, j in transitions:
        counter.record(i, j)
    assert counter.pair_counts.sum() == len(transitions)
    assert np.abs(counter.estimate().sum(axis=1) - 1.0).max() < 1e-12


@st.composite
def count_tables(draw):
    """An S x S int64 count table, S in 1..30, with some all-zero rows and entries up to 2**40."""
    n = draw(st.integers(1, 30))
    entries = st.integers(0, 2**40)
    row = st.one_of(st.just([0] * n), st.lists(entries, min_size=n, max_size=n))
    rows = draw(st.lists(row, min_size=n, max_size=n))
    return np.array(rows, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(count_tables())
def test_estimate_equals_the_two_array_form(counts):
    # The estimate divides by the int64 row sums; they must give the bits of
    # dividing by visit counts summed entry by entry on their own.
    n = counts.shape[0]
    visits = np.array([sum(int(c) for c in row) for row in counts], dtype=np.int64)
    counter = TransitionCounter(n)
    counter.pair_counts[:] = counts
    assert np.array_equal(counter.estimate(), (counts + 1.0 / n) / (visits[:, None] + 1.0))


class IncrementalCounter:
    """Row-by-row reference: each record refreshes estimate row i from its counts."""

    def __init__(self, n):
        self.n = n
        self.pair_counts = np.zeros((n, n), dtype=np.int64)
        self.state_counts = np.zeros(n, dtype=np.int64)
        self.estimate = np.full((n, n), 1.0 / n)
        self.cached_estimate = self.estimate.copy()

    def record(self, i, j):
        self.pair_counts[i, j] += 1
        self.state_counts[i] += 1
        self.estimate[i] = (self.pair_counts[i] + 1.0 / self.n) / (self.state_counts[i] + 1.0)

    def reset(self):
        self.cached_estimate = self.estimate.copy()
        self.pair_counts[:] = 0
        self.state_counts[:] = 0
        self.estimate[:] = 1.0 / self.n


@st.composite
def transition_scripts(draw):
    """A state count and a list of transitions (i, j) with a few resets (None) among them."""
    n = draw(st.integers(1, 6))
    ops = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=300))
    for at in sorted(draw(st.lists(st.integers(0, len(ops)), max_size=5)), reverse=True):
        ops.insert(at, None)
    return n, ops


@settings(max_examples=200, deadline=None)
@given(transition_scripts())
def test_estimate_is_bit_equal_to_row_by_row_refresh(script):
    n, ops = script
    counter, reference = TransitionCounter(n), IncrementalCounter(n)
    for op in ops:
        if op is None:
            counter.reset()
            reference.reset()
        else:
            counter.record(*op)
            reference.record(*op)
        assert np.array_equal(counter.estimate(), reference.estimate)
        assert np.array_equal(counter.cached_estimate, reference.cached_estimate)
    assert np.array_equal(counter.pair_counts, reference.pair_counts)
    assert np.array_equal(counter.pair_counts.sum(axis=1), reference.state_counts)


def test_reset_caches_final_estimate():
    counter = TransitionCounter(3)
    for i, j in [(0, 1), (1, 2), (2, 0), (0, 1)]:
        counter.record(i, j)
    before = counter.estimate().copy()
    counter.reset()
    assert np.array_equal(counter.cached_estimate, before)
    assert np.allclose(counter.estimate(), 1 / 3)
    assert counter.pair_counts.sum() == 0
    # idempotent: a second reset caches the uniform table and changes nothing else
    counter.reset()
    assert np.allclose(counter.cached_estimate, 1 / 3)
    assert counter.pair_counts.sum() == 0


def test_estimate_accuracy_on_fixed_chain():
    rng = np.random.default_rng(5)
    chain = rng.dirichlet(np.ones(5) * 2.0, size=5)
    cdf = np.cumsum(chain, axis=1)
    counter = TransitionCounter(5)
    s = 0
    for u in rng.random(100_000):
        nxt = int(np.searchsorted(cdf[s], u, side="right"))
        nxt = min(nxt, 4)
        counter.record(s, nxt)
        s = nxt
    assert frobenius_norm(counter.estimate() - chain) <= 0.05


def test_qlearner_validation():
    with pytest.raises(ValueError):
        QLearner(2, 2, rho=1.0, c_beta=5.0, nu=0.55)
    with pytest.raises(ValueError):
        QLearner(2, 2, rho=0.7, c_beta=5.0, nu=0.5)
    # a NaN or infinite c_beta would make every step size min(1, .) = 1
    for c_beta in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="c_beta"):
            QLearner(2, 2, rho=0.7, c_beta=c_beta, nu=0.55)


def test_step_size_clamped_to_one():
    learner = QLearner(1, 1, rho=0.7, c_beta=5.0, nu=0.55)
    assert learner.step_size() == 1.0
    learner.t = 10**6
    assert learner.step_size() == pytest.approx(5.0 / (10**6 + 1) ** 0.55)


def test_first_update_with_clamped_step():
    # beta clamps to 1, so Q becomes r + rho * max Q(s') = 1 + 0.7 * 0
    learner = QLearner(1, 1, rho=0.7, c_beta=5.0, nu=0.55)
    learner.update(0, 0, 1.0, 0)
    assert learner.q[0, 0] == pytest.approx(1.0)
    assert learner.t == 1


def test_update_touches_single_entry():
    learner = QLearner(3, 2, rho=0.7, c_beta=5.0, nu=0.55)
    learner.update(1, 0, 0.5, 2)
    changed = np.nonzero(learner.q)
    assert changed[0].tolist() == [1] and changed[1].tolist() == [0]


def test_update_rejects_bad_inputs():
    learner = QLearner(2, 2, rho=0.7, c_beta=5.0, nu=0.55)
    with pytest.raises(ValueError):
        learner.update(0, 0, 1.5, 1)
    with pytest.raises(IndexError):
        learner.update(2, 0, 0.5, 1)
    with pytest.raises(IndexError):
        learner.update(0, 2, 0.5, 1)


def test_constant_reward_fixed_point():
    # single state, single action, reward 1: Q converges to 1 / (1 - rho)
    learner = QLearner(1, 1, rho=0.7, c_beta=5.0, nu=0.55)
    for _ in range(100_000):
        learner.update(0, 0, 1.0, 0)
    assert abs(learner.q[0, 0] - 10 / 3) < 0.01


def test_q_stays_in_bounds():
    rng = np.random.default_rng(9)
    learner = QLearner(4, 3, rho=0.7, c_beta=5.0, nu=0.55)
    bound = 1 / (1 - 0.7)
    for _ in range(20_000):
        learner.update(
            int(rng.integers(4)), int(rng.integers(3)), float(rng.random()), int(rng.integers(4))
        )
    assert learner.q.min() >= 0.0
    assert learner.q.max() <= bound


def test_reset_clock_restarts_schedule_but_keeps_table():
    learner = QLearner(2, 2, rho=0.7, c_beta=5.0, nu=0.55)
    for _ in range(50):
        learner.update(0, 0, 1.0, 1)
    q_before = learner.q.copy()
    learner.reset_clock()
    assert learner.t == 0
    assert np.array_equal(learner.q, q_before)


def test_estimators_are_deterministic():
    def run():
        rng = np.random.default_rng(123)
        counter = TransitionCounter(4)
        learner = QLearner(4, 2, rho=0.7, c_beta=5.0, nu=0.55)
        for _ in range(2000):
            i, j = int(rng.integers(4)), int(rng.integers(4))
            counter.record(i, j)
            learner.update(i, int(rng.integers(2)), float(rng.random()), j)
        return counter.estimate().copy(), learner.q.copy()

    e1, q1 = run()
    e2, q2 = run()
    assert np.array_equal(e1, e2)
    assert np.array_equal(q1, q2)
