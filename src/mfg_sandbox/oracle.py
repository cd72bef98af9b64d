"""Exact operators and equilibrium solver used as ground truth.

Everything here evaluates the environment's true kernel and reward, in
contrast to the online estimators that only see the sample path. Each of
the two equilibrium operators has one definition, over a stack of
mean-fields: gamma1, the Boltzmann-optimality map (mean-field -> softmax of
the mu-frozen MDP's optimal Q-table, by value iteration), and gamma2, the
consistency map (policy, mean-field -> pushed-forward mean-field: the
state-action flow mu(s) pi(a|s) pushed through the kernel). The solver
iterates their damped composite, the episode diagnostics score the learner
against them, and the probe samples their Lipschitz ratios, block by
block. A stack costs one call of each environment table per mean-field
and, for a kernel shared by the stack, one compiled value-iteration call
that sweeps its problems together, one per lane of a SIMD register: up to
8 at a time under AVX-512, 4 under AVX2, 2 on other CPUs, a width the call
picks itself. On a congestion grid the probe scores each block in one
compiled call, _step_kernel.probe_block, which runs both operators, value
iteration included, and the ratios in C; the NumPy block, _block_ratios,
is its reference and its fallback.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _step_kernel
from .core import check_simplex, l1_norm, softmax_table, tv_norm
from .environment import CongestionGridEnv, MfgEnvironment

# Probe pairs drawn and scored together; the block bounds the probe's
# memory, O(PROBE_BLOCK) whatever the number of pairs.
PROBE_BLOCK = 32

# Value iteration's defaults: the sup-norm accuracy of gamma1's Q-tables and
# the sweeps a problem may take before the solve gives up.
VI_TOL = 1e-10
VI_MAX_ITER = 1_000_000


def _row_sums(x: np.ndarray) -> np.ndarray:
    """The sums of x along its last axis, each in index order (cumsum), as the compiled code sums."""
    return np.cumsum(x, axis=-1)[..., -1]


def _sweeps_numpy(kernel, rewards, q, threshold: float, max_iter: int) -> int:
    """The reference loop, the problems of the stack together, in place.

    kernel is the (S, A, S) discounted kernel; q is updated in place. A
    sweep visits the states in index order: state s's rows become
    rewards[:, s] + kernel[s] @ v, each sum in index order (_row_sums), and
    v[:, s] = max_a q[:, s] is written before the next state reads it. A
    problem leaves the stack after its first sweep that changes no entry by
    more than threshold. Returns the sweeps summed over the problems, or -1
    when one is still moving after max_iter sweeps.
    """
    live = np.arange(len(q))
    q_live, r_live = q.copy(), rewards
    v = q_live.max(axis=2)
    total = 0
    for sweep in range(1, max_iter + 1):
        q_before = q_live.copy()
        for s in range(q.shape[1]):
            q_live[:, s] = r_live[:, s] + _row_sums(kernel[s] * v[:, None, :])
            v[:, s] = q_live[:, s].max(axis=1)
        done = np.abs(q_live - q_before).max(axis=(1, 2)) <= threshold
        q[live[done]] = q_live[done]
        total += sweep * int(done.sum())
        live, q_live, r_live, v = live[~done], q_live[~done], r_live[~done], v[~done]
        if not len(live):
            return total
    return -1


def _sweeps_compiled(ffi, lib, kernel, rho: float, rewards, q, threshold: float, max_iter: int) -> int:
    """The same loop in one C call over the stack, its problems in lockstep in SIMD lanes.

    The call writes rho * kernel as sparse rows, exact zeros left out;
    skipping them leaves each row's in-order sum unchanged, so the iterates
    and sweep counts are bit for bit those of the reference loop, at every
    lane width the call picks.
    """
    S, A = q.shape[1:]
    return lib.value_iteration(
        len(q),
        S,
        A,
        ffi.from_buffer("double[]", kernel),
        rho,
        ffi.from_buffer("double[]", rewards),
        ffi.from_buffer("double[]", q, require_writable=True),
        ffi.from_buffer("int[]", np.empty(S * A + 1 + S * A * S, dtype=np.intc)),
        ffi.from_buffer("double[]", np.empty(S * A * S + (2 * S * A + S) * _step_kernel.MAX_LANES)),
        threshold,
        max_iter,
    )


def _value_iteration(
    env: MfgEnvironment, mus, rho: float, tol: float, q_start=None, max_iter: int = VI_MAX_ITER
) -> tuple[np.ndarray, int]:
    """Value iteration on a stack of mu-frozen MDPs, each accurate to tol in sup norm.

    mus is an (M, S) stack of mean-fields. Returns the (M, S, A) final
    iterates and the number of sweeps summed over the M problems. q_start is
    the (M, S, A) starting stack; by default every problem starts from Q = 0.

    A sweep G is in place (Gauss-Seidel): it visits the states in index
    order and sets q'(s, a) = r(s, a) + rho * sum_j P(s, a, j) w(j), where
    w(j) = max_a q'(j, a) for the states j < s it has already swept and
    max_a q(j, a) for the rest. Two facts carry over from the Bellman map T:

    - G contracts by rho in the sup norm. Let d = |q - p|. By induction over
      s, every value w(j) that the sweeps of q and p read differ by at most
      d: max_a is 1-Lipschitz, and an entry already swept differs by at most
      rho * d <= d. A row of P sums to 1, so |q'(s, a) - p'(s, a)| <= rho * d.
      The fixed point of T is one of G, hence G's only one, q*. From
      |q_k+1 - q*| <= rho |q_k - q*| <= rho (delta + |q_k+1 - q*|), where
      delta = |q_k+1 - q_k|, a problem that stops at the first sweep with
      delta <= tol * (1 - rho) / rho is within tol of q* from any start.
    - G is monotone: q <= p entrywise gives q' <= p', since P >= 0 and max
      is monotone. With rewards r >= 0, the iterates from Q = 0 rise
      (q_1 = G(0) >= 0) and stay below q* = G^k(q*) >= G^k(0), so with r in
      [0, 1] they stay in [0, 1/(1-rho)] and need no clip.

    The environment is asked for each mean-field's kernel and reward table
    (_kernels), and the discount is folded into the kernel. When every
    kernel call returns the same array object, as for every package
    environment, that one kernel serves the stack in one compiled call;
    otherwise each problem is a call of its own. Without the compiled
    extension, the NumPy reference loop runs instead.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    if not tol > 0.0:
        raise ValueError("tol must be > 0")
    S, A = env.num_states, env.num_actions
    mus = np.asarray(mus, dtype=np.float64)
    M = len(mus)
    if q_start is None:
        q = np.zeros((M, S, A))
    else:
        q = np.array(q_start, dtype=np.float64, order="C")
    if M == 0:
        return q, 0
    # the compiled loop reads these sizes through raw pointers
    if q.shape != (M, S, A):
        raise ValueError(f"q_start must have shape {(M, S, A)}")
    kernels = _kernels(env, mus)
    rewards = np.array([_checked(env.reward_table(mu), (S, A), "reward tables") for mu in mus])
    stacks = [(kernels, slice(None))] if kernels.ndim == 3 else [(kernels[m], slice(m, m + 1)) for m in range(M)]
    compiled = _step_kernel.load()
    threshold = tol * (1.0 - rho) / rho
    sweeps = 0
    for kernel, part in stacks:
        if compiled is None:
            n = _sweeps_numpy(rho * kernel, rewards[part], q[part], threshold, max_iter)
        else:
            kernel = np.ascontiguousarray(kernel)
            n = _sweeps_compiled(*compiled, kernel, rho, rewards[part], q[part], threshold, max_iter)
        if n < 0:
            raise ArithmeticError(f"value iteration did not converge within {max_iter} sweeps")
        sweeps += n
    return q, sweeps


def gamma1(env: MfgEnvironment, mu, lam: float, rho: float, tol: float = VI_TOL, q_start=None):
    """Boltzmann-optimality operator: the softmax at lam of the mu-frozen MDP's optimal Q-table.

    mu is one mean-field (S,) or a stack (M, S); the results follow it, as
    in gamma2. Returns (policy, q, sweeps): the (S, A) or (M, S, A) policy
    and optimal Q-table, the latter within tol in sup norm, and the
    value-iteration sweeps summed over the stack. q_start, shaped like q,
    warm-starts the iteration, whose stopping rule bounds the error from
    any start.
    """
    mu = np.asarray(mu, dtype=np.float64)
    single = mu.ndim == 1
    if single and q_start is not None:
        q_start = np.asarray(q_start)[None]
    q, sweeps = _value_iteration(env, mu[None] if single else mu, rho, tol, q_start=q_start)
    policy = softmax_table(q.reshape(-1, env.num_actions), lam).reshape(q.shape)
    return (policy[0], q[0], sweeps) if single else (policy, q, sweeps)


def _checked(table, shape: tuple, name: str) -> np.ndarray:
    """table as a float64 array, which must have shape."""
    table = np.asarray(table, dtype=np.float64)
    if table.shape != shape:
        raise ValueError(f"{name} must have shape {shape}")
    return table


def _kernels(env: MfgEnvironment, mu) -> np.ndarray:
    """The (S, A, S) kernel at mu (S), or the kernels of a stack mu (M, S), one environment call each.

    A stack whose calls all return the same array object gets that one
    (S, A, S) kernel, any other the (M, S, A, S) stack of its calls' kernels.
    """
    shape = (env.num_states, env.num_actions, env.num_states)
    if mu.ndim == 1:
        return _checked(env.transition_kernel(mu), shape, "transition kernels")
    kernels = [env.transition_kernel(m) for m in mu]
    if all(kernel is kernels[0] for kernel in kernels):
        return _checked(kernels[0], shape, "transition kernels")
    return np.array([_checked(kernel, shape, "transition kernels") for kernel in kernels])


def induced_kernel(env: MfgEnvironment, pi, mu) -> np.ndarray:
    """State-chain matrix P(s, s') = sum_a pi(a|s) P(s'|s, a, mu).

    pi (S, A) and mu (S) may also be stacks, (M, S, A) and (M, S), of M
    pairs; the result is then the (M, S, S) stack of their chains, from
    one kernel for every pair when the stack shares it (_kernels).
    """
    pi = np.asarray(pi, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    return np.einsum("...sa,...sat->...st", pi, _kernels(env, mu))


def gamma2(env: MfgEnvironment, pi, mu) -> np.ndarray:
    """Consistency operator: the mean-field after one step of the population.

    Pushes the state-action flow x(s, a) = mu(s) pi(a|s) through the kernel:
    mu'(t) = sum_{s,a} x(s, a) P(t|s, a, mu), each sum in index order over
    (s, a), without building the chain induced_kernel returns. pi and mu may
    be stacks of pairs, as in induced_kernel, whose kernels _kernels forms.
    """
    pi = np.asarray(pi, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    kernel = _kernels(env, mu)
    S, A = env.num_states, env.num_actions
    flow = mu[..., None] * pi
    flow = flow.reshape(flow.shape[:-2] + (S * A,))
    return np.einsum("...k,...kt->...t", flow, kernel.reshape(kernel.shape[:-3] + (S * A, S)))


@dataclass(frozen=True)
class BmfePair:
    """Softmax-equilibrium pair, its two defining residuals and the inputs it was solved from.

    policy (S, A) and mean_field (S,) are read-only float64 arrays.
    residual_policy is the TV gap between policy and the optimality operator
    applied to mean_field; residual_mu is the L1 gap between mean_field and
    its own push-forward under policy. converged is False when the solver
    hit max_iter and returned its last iterate. vi_sweeps counts the
    value-iteration sweeps the solve ran, the residual check included.
    env, lam, rho, tol and vi_tol are the arguments of the solve_bmfe call
    that built the pair, so a run scored against it can check that it plays
    the same game; damping is the damping the solve ended with.
    """

    policy: np.ndarray
    mean_field: np.ndarray
    residual_policy: float
    residual_mu: float
    converged: bool
    iterations: int
    vi_sweeps: int
    env: MfgEnvironment
    lam: float
    rho: float
    damping: float
    tol: float
    vi_tol: float


def solve_bmfe(
    env: MfgEnvironment,
    lam: float,
    rho: float,
    tol: float = 1e-8,
    max_iter: int = 10_000,
    vi_tol: float = VI_TOL,
) -> BmfePair:
    """Damped fixed-point iteration for the softmax equilibrium.

    From the uniform mean-field, repeat mu <- (1 - damping) * mu + damping *
    gamma2(gamma1(mu), mu) until the undamped composite moves mu by
    at most tol in L1. The undamped composite need not contract, so damping
    (which preserves fixed points) widens the set of instances that converge.
    The damping starts at 1/2 and halves whenever that undamped residual is
    larger than on the previous iteration; the pair records the damping the
    solve ended with. Each gamma1 call starts from the previous one's
    Q-table; the final residual check solves again from Q = 0.
    """
    if not tol > 0.0:
        raise ValueError("tol must be > 0")
    num_states = env.num_states
    mu = np.full(num_states, 1.0 / num_states)
    pi, q, sweeps = gamma1(env, mu, lam, rho, vi_tol)
    converged = False
    iterations = 0
    damping, previous = 0.5, math.inf
    for iterations in range(1, max_iter + 1):
        pushed = gamma2(env, pi, mu)
        residual = l1_norm(pushed - mu)
        if residual <= tol:
            converged = True
            break
        if residual > previous:
            damping /= 2.0
        previous = residual
        mu = (1.0 - damping) * mu + damping * pushed
        mu /= mu.sum()
        pi, q, n = gamma1(env, mu, lam, rho, vi_tol, q_start=q)
        sweeps += n
    residual_mu = l1_norm(gamma2(env, pi, mu) - mu)
    pi_check, _, n = gamma1(env, mu, lam, rho, vi_tol)
    residual_policy = tv_norm(pi - pi_check)
    check_simplex(mu, pi, "in the solved equilibrium")
    mu.flags.writeable = pi.flags.writeable = False
    return BmfePair(
        policy=pi,
        mean_field=mu,
        residual_policy=residual_policy,
        residual_mu=residual_mu,
        converged=converged,
        iterations=iterations,
        vi_sweeps=sweeps + n,
        env=env,
        lam=lam,
        rho=rho,
        damping=damping,
        tol=tol,
        vi_tol=vi_tol,
    )


@dataclass(frozen=True)
class ContractionEstimate:
    """Empirical maxima of the three operator Lipschitz ratios.

    A sampled lower bound on the true constants, not a certificate; d_hat =
    d1_hat * d2_hat + d3_hat < 1 suggests (but does not prove) that the
    composite equilibrium map contracts.
    """

    d1_hat: float
    d2_hat: float
    d3_hat: float
    num_pairs: int

    def __post_init__(self):
        for name in ("d1_hat", "d2_hat", "d3_hat"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and nonnegative")

    @property
    def d_hat(self) -> float:
        return self.d1_hat * self.d2_hat + self.d3_hat


def _dirichlet_rows(e: np.ndarray) -> np.ndarray:
    """Normalise exponential draws along the last axis into symmetric-Dirichlet(1) rows.

    Bit for bit what rng.dirichlet(np.ones(K)) makes of the same K draws:
    it sums them in index order (_row_sums) and scales by the inverse.
    """
    return e * (1.0 / _row_sums(e)[..., None])


def _block_ratios(env: MfgEnvironment, lam: float, rho: float, e: np.ndarray) -> tuple[float, float, float]:
    """The NumPy block: the maxima of d1, d2 and d3 over one block's pairs, 0 where no ratio was taken.

    e is the block's (n, 2S + 2SA) exponential draws, each pair's mu,
    mu_alt, pi and pi_alt in that order. Every L1 and TV distance sums in
    index order (_row_sums), and a NaN ratio makes its maximum NaN, as in
    the compiled block.
    """
    S, A = env.num_states, env.num_actions
    n = len(e)
    mu = _dirichlet_rows(e[:, :S])
    mu_alt = _dirichlet_rows(e[:, S : 2 * S])
    pi = _dirichlet_rows(e[:, 2 * S : 2 * S + S * A].reshape(n, S, A))
    pi_alt = _dirichlet_rows(e[:, 2 * S + S * A :].reshape(n, S, A))
    dmu = _row_sums(np.abs(mu - mu_alt))
    moved = dmu >= 1e-9
    m = int(moved.sum())
    dpi = _row_sums(np.abs(pi - pi_alt)).max(axis=1)
    varied = dpi >= 1e-9
    pushes = gamma2(
        env,
        np.concatenate([pi, pi[moved], pi_alt[varied]]),
        np.concatenate([mu, mu_alt[moved], mu[varied]]),
    )
    push, push_moved, push_varied = pushes[:n], pushes[n : n + m], pushes[n + m :]
    d1 = d2 = d3 = 0.0
    if m:
        g1 = gamma1(env, np.concatenate([mu[moved], mu_alt[moved]]), lam, rho)[0]
        d1 = float((_row_sums(np.abs(g1[:m] - g1[m:])).max(axis=1) / dmu[moved]).max())
        d3 = float((_row_sums(np.abs(push[moved] - push_moved)) / dmu[moved]).max())
    if varied.any():
        d2 = float((_row_sums(np.abs(push[varied] - push_varied)) / dpi[varied]).max())
    return d1, d2, d3


def _compiled_block(env: CongestionGridEnv, lam: float, rho: float, ffi, lib):
    """_block_ratios for a congestion grid as one C call per block (_step_kernel.probe_block).

    Returns a function of a block's draws. Its scratch is sized once for
    PROBE_BLOCK pairs; value iteration stops at VI_TOL and VI_MAX_ITER, as
    in gamma1.
    """
    S, A = env.num_states, env.num_actions
    rows, width = S * A, 2 * S + 2 * S * A
    entries = rows * S
    # probe_block's layout, which it checks against these sizes
    ints = np.empty(2 * (rows + 1 + entries) + PROBE_BLOCK, dtype=np.intc)
    scratch = np.empty(
        PROBE_BLOCK * (width + 2 + 4 * rows) + 2 * S + 2 * entries + (2 * rows + S) * _step_kernel.MAX_LANES
    )
    ratios = np.empty(3)
    kernel = ffi.from_buffer("double[]", env.kernel)
    state_reward = ffi.from_buffer("double[]", env.state_reward)
    int_buffer = ffi.from_buffer("int[]", ints, require_writable=True)
    buffer = ffi.from_buffer("double[]", scratch, require_writable=True)
    ratio_buffer = ffi.from_buffer("double[]", ratios, require_writable=True)
    threshold = VI_TOL * (1.0 - rho) / rho

    def block(e: np.ndarray) -> tuple[float, float, float]:
        code = lib.probe_block(
            len(e),
            S,
            A,
            ffi.from_buffer("double[]", e),
            kernel,
            state_reward,
            env.params.congestion_c,
            lam,
            rho,
            threshold,
            VI_MAX_ITER,
            int_buffer,
            ints.size,
            buffer,
            scratch.size,
            ratio_buffer,
        )
        if code == -1:
            raise ArithmeticError(f"value iteration did not converge within {VI_MAX_ITER} sweeps")
        if code < 0:
            raise ValueError("probe block scratch too small")
        d1, d2, d3 = ratios
        return float(d1), float(d2), float(d3)

    return block


def probe_contraction(
    env: MfgEnvironment,
    lam: float,
    rho: float,
    num_pairs: int,
    rng,
) -> ContractionEstimate:
    """Sample Lipschitz ratios of the two operators over random pairs.

    Mean-fields and policy rows are drawn symmetric-Dirichlet(1), i.e.
    uniformly over the simplex, pair by pair in the order mu, mu_alt, pi,
    pi_alt: the same random stream as rng.dirichlet calls in that order.
    Ratios whose denominator is below 1e-9 are skipped. Pairs are drawn and
    scored in blocks of PROBE_BLOCK, so memory does not grow with
    num_pairs; a block's draws are one standard_exponential call. On a
    congestion grid of two or more states, when the extension loads, one
    compiled call per block, _step_kernel.probe_block, then does all of the
    block's work: the Dirichlet rows, their distances, the pushes, the
    rewards, value iteration, the softmax and the three ratios. Elsewhere,
    and as its reference, _block_ratios scores the block in NumPy: one
    gamma2 call pushes the block's pairs and their moved and varied
    variants, and one gamma1 call solves its moved mean-fields. Both sum
    every distance in index order and exponentiate with libm's exp, so they
    give the same d1, d2 and d3 bit for bit and the same draws. A NaN
    ratio, as from an overflowed lam * q, raises ArithmeticError.
    """
    if num_pairs < 1:
        raise ValueError("num_pairs must be >= 1")
    # checked here too: a draw that moves no mean-field never reaches gamma1
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    if not 0.0 <= lam < math.inf:
        raise ValueError("softmax temperature must be finite and >= 0")
    S, A = env.num_states, env.num_actions
    # The block reads the grid's kernel array and state rewards directly, as
    # run_sandbox's compiled step does. At S = 1 gamma2's einsum sums each
    # push as a dot product in SIMD lanes, an order the block does not copy.
    compiled = _step_kernel.load() if type(env) is CongestionGridEnv and S > 1 else None
    if compiled is None:
        score = functools.partial(_block_ratios, env, lam, rho)
    else:
        score = _compiled_block(env, lam, rho, *compiled)
    d1 = d2 = d3 = 0.0
    for start in range(0, num_pairs, PROBE_BLOCK):
        n = min(PROBE_BLOCK, num_pairs - start)
        b1, b2, b3 = score(rng.standard_exponential((n, 2 * S + 2 * S * A)))
        if math.isnan(b1 + b2 + b3):
            raise ArithmeticError(f"probe ratio is NaN (block maxima {b1}, {b2}, {b3}), as when lam * q overflows")
        d1, d2, d3 = max(d1, b1), max(d2, b2), max(d3, b3)
    return ContractionEstimate(d1_hat=d1, d2_hat=d2, d3_hat=d3, num_pairs=num_pairs)
