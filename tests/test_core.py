import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mfg_sandbox.core import (
    check_simplex,
    frobenius_norm,
    inf_norm,
    l1_norm,
    softmax_table,
    tv_norm,
)


MU_OK = np.array([0.25, 0.75])
PI_OK = np.array([[0.5, 0.5], [1.0, 0.0]])


def test_check_simplex_accepts_distributions():
    check_simplex(MU_OK, PI_OK, "in a test")
    check_simplex(np.array([1.0]), np.array([[1.0]]), "in a test")


@pytest.mark.parametrize(
    "mu",
    [[np.nan, 1.0], [np.inf, 1.0], [-0.1, 1.1], [0.5, 0.6]],
    ids=["nan", "inf", "negative", "off-sum"],
)
def test_check_simplex_rejects_bad_mean_field(mu):
    # NaN passes every sign and sum comparison, so only the finiteness test catches it
    with pytest.raises(RuntimeError, match="simplex invariant violated in a test"):
        check_simplex(np.array(mu), PI_OK, "in a test")


@pytest.mark.parametrize(
    "row",
    [[np.nan, 1.0], [np.inf, 0.0], [-0.1, 1.1], [0.5, 0.6]],
    ids=["nan", "inf", "negative", "off-sum"],
)
def test_check_simplex_rejects_bad_policy_row(row):
    with pytest.raises(RuntimeError, match="simplex invariant violated in a test"):
        check_simplex(MU_OK, np.array([[1.0, 0.0], row]), "in a test")


def test_tv_norm_examples():
    assert tv_norm(np.zeros((2, 2))) == 0.0
    # two deterministic policies on 3 states differing only at one state
    a = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    b = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    assert tv_norm(a - b) == pytest.approx(2.0)
    u = np.full((4, 3), 1 / 3)
    assert tv_norm(u - u) == 0.0
    with pytest.raises(ValueError):
        tv_norm(np.zeros(3))


def test_l1_norm_examples():
    assert l1_norm(np.zeros(3)) == 0.0
    assert l1_norm(np.array([0.5, -0.5])) == pytest.approx(1.0)
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(6))
        assert 0.0 <= l1_norm(p - q) <= 2.0 + 1e-12


def test_frobenius_norm_examples():
    assert frobenius_norm(np.zeros((3, 3))) == 0.0
    assert frobenius_norm(np.eye(2)) == pytest.approx(math.sqrt(2))
    rng = np.random.default_rng(1)
    for _ in range(50):
        s = 5
        a = rng.dirichlet(np.ones(s), size=s)
        b = rng.dirichlet(np.ones(s), size=s)
        assert frobenius_norm(a - b) <= math.sqrt(2 * s) + 1e-12


def test_inf_norm_examples():
    assert inf_norm(np.zeros((2, 2))) == 0.0
    m = np.zeros((3, 2))
    m[1, 1] = 3.5
    assert inf_norm(m) == pytest.approx(3.5)
    rng = np.random.default_rng(2)
    bound = 1 / (1 - 0.7)
    q1 = rng.uniform(0, bound, size=(4, 3))
    q2 = rng.uniform(0, bound, size=(4, 3))
    assert inf_norm(q1 - q2) <= bound


def test_softmax_uniform_cases():
    q = np.array([[0.3, 0.3, 0.3], [1.2, 1.2, 1.2]])
    out = softmax_table(q, 0.0)
    assert np.allclose(out, 1 / 3)
    out = softmax_table(q, 2.5)
    assert np.allclose(out, 1 / 3)


def test_softmax_two_action_example():
    # exp(ln 3 * 1) / (exp(ln 3 * 1) + exp(0)) = 3/4
    out = softmax_table(np.array([[1.0, 0.0]]), math.log(3))
    assert out[0, 0] == pytest.approx(0.75)
    assert out[0, 1] == pytest.approx(0.25)


def test_softmax_rejects_non_finite():
    with pytest.raises(ValueError):
        softmax_table(np.array([[np.inf, 0.0]]), 1.0)
    for lam in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="temperature"):
            softmax_table(np.array([[0.0, 1.0]]), lam)


def test_softmax_policy_returns_valid_policy():
    pol = softmax_table(np.array([[0.0, 2.0], [3.0, 1.0]]), 5.0)
    check_simplex(np.array([0.5, 0.5]), pol, "in a test")
    assert pol[0, 1] > pol[0, 0] and pol[1, 0] > pol[1, 1]


@settings(max_examples=200, deadline=None)
@given(
    arrays(np.float64, (4, 3), elements=st.floats(0, 1 / (1 - 0.7))),
    st.floats(0.0, 50.0),
)
def test_softmax_rows_sum_to_one(q, lam):
    out = softmax_table(q, lam)
    assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12
    assert out.min() >= 0.0


def test_softmax_argmax_mass_monotone_in_lambda():
    rng = np.random.default_rng(3)
    for _ in range(30):
        q = rng.uniform(0, 3, size=(5, 4))
        # make the per-row argmax unique
        q[np.arange(5), rng.integers(0, 4, 5)] += 0.5
        masses = []
        for lam in (0.5, 1.0, 2.0, 5.0, 20.0):
            out = softmax_table(q, lam)
            masses.append(out[np.arange(5), q.argmax(axis=1)])
        for lo, hi in zip(masses, masses[1:]):
            assert np.all(hi >= lo - 1e-12)


def test_softmax_lipschitz_bound_spot_check():
    # tv(softmax(Q) - softmax(Q')) <= lam * S * sqrt(A) * inf(Q - Q')
    rng = np.random.default_rng(4)
    s, a = 3, 2
    bound = 1 / (1 - 0.7)
    for lam in (0.5, 1.0, 5.0):
        for _ in range(1000):
            q1 = rng.uniform(0, bound, size=(s, a))
            q2 = rng.uniform(0, bound, size=(s, a))
            lhs = tv_norm(softmax_table(q1, lam) - softmax_table(q2, lam))
            rhs = lam * s * math.sqrt(a) * inf_norm(q1 - q2)
            assert lhs <= rhs + 1e-12


_matrices = arrays(np.float64, (3, 4), elements=st.floats(-5, 5))
_vectors = arrays(np.float64, (5,), elements=st.floats(-5, 5))


@settings(max_examples=200, deadline=None)
@given(_matrices, _matrices, st.floats(-3, 3))
def test_matrix_norms_triangle_and_homogeneity(a, b, scale):
    for norm in (tv_norm, frobenius_norm, inf_norm):
        assert norm(a + b) <= norm(a) + norm(b) + 1e-9
        assert norm(scale * a) == pytest.approx(abs(scale) * norm(a), abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(_vectors, _vectors, st.floats(-3, 3))
def test_l1_triangle_and_homogeneity(a, b, scale):
    assert l1_norm(a + b) <= l1_norm(a) + l1_norm(b) + 1e-9
    assert l1_norm(scale * a) == pytest.approx(abs(scale) * l1_norm(a), abs=1e-9)
