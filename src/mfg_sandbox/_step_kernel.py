"""Compiled learner step, value iteration and probe block, built on first use with cffi.

One call of ``learner_step`` performs everything a step t > 1 of the run
loop does except counting the transition: the refresh of the one estimate
row the last count changed, the mean-field and policy updates, their
finiteness check, the simplex check every ``validate_every`` steps, the
policy minimum, the action and next-state draws from pre-drawn uniforms,
the congestion reward and its range check, the Q-learning update at step
size ``min(1, c_beta / t**nu)`` and the refresh of the updated state's
softmax row. The caller counts the transition with
``TransitionCounter.record``; the step reads the counter's pair counts and
keeps the transition estimate in a buffer of its own, row by row equal to
``TransitionCounter.estimate()``. Each episode's first step, which reads
the cached estimate, may project, and stores the first-step pair, is left
to the reference step.

The step's S- and S*A-long work runs in SIMD lanes: the row refresh, the
push P^T mu, and the mean-field and policy updates with their sums and the
policy minimum. The rows of the step's estimate, and its push, are padded
with zero columns to a multiple of ``MAX_LANES``, so the push needs no
scalar tail: each push[j] still sums over i in index order, one
accumulator per column, and so equals the reference's sum bit for bit. The
sums and the minimum, which feed only the finiteness test and the simplex
check's tolerance, add lane by lane. Like the sweep below, the step is
compiled once per width, 2, 4 (AVX2) and 8 (AVX-512) lanes; its first call
on a context picks the copy from S and the CPU (2 lanes at S <= 2, 4 at
S <= 4, else the widest the CPU runs) and keeps it in the context.

One call of ``value_iteration`` runs value iteration to its stopping rule
on a stack of mean-field-frozen MDPs that share one kernel: it writes the
discounted kernel as sparse rows into scratch space, then sweeps the
problems in lockstep, one per lane of a SIMD register, each with its own
sweep count and stopping test, so every problem ends as it would alone.
Each sweep is in place: it visits the states in index order, and a state's
rows read the values max_a q that the states before it wrote in the same
sweep. The call picks its lane width, the number of problems one sweep
advances, from the CPU and the stack: the narrowest of 2, 4 (AVX2) and 8
(AVX-512) lanes that the CPU runs and that holds the stack, else the widest
it runs. The sweep is compiled once for each width, each copy for the
instruction set it needs, and ``__builtin_cpu_supports`` decides which
copies may run; no flag tunes the build to the building CPU, so a cached
build runs on any CPU of its architecture. The caller sizes the lane
scratch for ``MAX_LANES``. ``oracle._value_iteration`` documents the
arguments and keeps the NumPy reference loop.

One call of ``probe_block`` scores one block of the contraction probe on a
congestion grid, from the block's exponential draws to its three ratio
maxima: the Dirichlet rows, their L1 and TV distances, the pushes of the
pairs and of their moved and varied variants through the kernel's sparse
rows, the congestion rewards of the moved pairs' mean-fields, value
iteration on them (a call of ``value_iteration``, so the iterates are
``oracle.gamma1``'s), the softmax rows and the ratios. The block shares the
kernel's sparse rows with ``value_iteration`` and the softmax row with the
step. Every sum of the block, a Dirichlet row's and each L1 or TV row's,
runs in index order, as the NumPy block ``oracle._block_ratios`` sums them
with cumsum, and the softmax row calls libm's ``exp``, as
``core.softmax_table`` does, so d1, d2 and d3 equal the NumPy block's bit
for bit.

No function keeps state of its own between calls: the step's lives in the
caller's context, and the scratch space of value iteration and of the probe
block comes from the caller, so two threads may run them at once on
contexts and scratch of their own (cffi releases the GIL during a call).

The extension is compiled once into ``_kernel_build`` next to this file,
under a name keyed by the C source, the compiler flags and the interpreter's
extension suffix; later loads import the built module alone, without cffi's
compiler front end. A new build deletes the other builds in that directory
with the same extension suffix, left there by earlier sources or flags.
``load`` returns None, after one warning per process, when the module can
be neither imported nor built; the callers then run their reference loops.
"""

from __future__ import annotations

import contextlib
import importlib.machinery
import importlib.util
import logging
import os
from pathlib import Path

logger = logging.getLogger("mfg_sandbox")

# Return codes below zero; a step that succeeds returns the next state.
NON_FINITE_PAIR = -1  # mean-field or policy update produced NaN/inf
NON_FINITE_REWARD = -2
REWARD_OUT_OF_RANGE = -3
SIMPLEX_VIOLATED = -4  # mean-field or policy left the simplex at a checked step

# The widest lane width of the step and of value_iteration: callers size
# value_iteration's lane scratch for this many problems, and pad the rows of
# the step's estimate and its push to a multiple of it.
MAX_LANES = 8

CDEF = """
typedef struct step_ctx step_ctx;
struct step_ctx {
    int num_states, num_actions, state, prev, validate_every;
    double *mu, *pi, *q, *soft, *push, *estimate;
    const int64_t *pair_counts;
    const double *cdf, *state_reward;
    const double *c_mu, *c_pi, *u;
    double congestion_c, lam, rho, psi, c_beta, nu, simplex_atol;
    double min_policy, reward;
    int (*copy)(step_ctx *c, int t);
};

int learner_step(step_ctx *c, int t);
int64_t value_iteration(int num_problems, int num_states, int num_actions,
                        const double *kernel, double rho, const double *rewards, double *q,
                        int *int_scratch, double *scratch, double threshold, int64_t max_iter);
int probe_block(int num_pairs, int num_states, int num_actions, const double *draws,
                const double *kernel, const double *state_reward, double congestion_c, double lam,
                double rho, double threshold, int64_t max_iter, int *int_scratch, int64_t int_size,
                double *scratch, int64_t size, double *ratios);
"""

# One in-place sweep of W lanes in GCC vector extensions, for the macros W
# (the width), SWEEP (the function's name) and TARGET (its instruction set).
SWEEP = r"""
/* One in-place sweep of the W lanes; returns the mask of the lanes whose
   sweep moved no entry by more than threshold. */
static TARGET int SWEEP(int S, int A, const int *row_start, const int *cols, const double *vals,
                        const double *r, double *q, double *v, double threshold)
{
    typedef double vec __attribute__((vector_size(8 * W)));
    typedef int64_t mask __attribute__((vector_size(8 * W)));
    const vec zero = {0}, limit = zero + threshold;
    const mask magnitude = (mask){0} + INT64_MAX; /* all bits but the sign */
    mask done = (mask){0} - 1;
    for (int s = 0; s < S; s++) {
        vec best = zero - INFINITY;
        for (int a = 0; a < A; a++) {
            const size_t n = (size_t)s * A + a;
            vec e = zero, v_c, q_n, r_n;
            for (int k = row_start[n]; k < row_start[n + 1]; k++) {
                __builtin_memcpy(&v_c, v + (size_t)cols[k] * W, sizeof v_c);
                e += vals[k] * v_c;
            }
            __builtin_memcpy(&q_n, q + n * W, sizeof q_n);
            __builtin_memcpy(&r_n, r + n * W, sizeof r_n);
            const vec next = r_n + e;
            /* NaN never passes the test, as it never passes NumPy's max */
            done &= (mask)((vec)((mask)(next - q_n) & magnitude) <= limit);
            __builtin_memcpy(q + n * W, &next, sizeof next);
            const mask up = (mask)(next > best);
            best = (vec)((up & (mask)next) | (~up & (mask)best));
        }
        __builtin_memcpy(v + (size_t)s * W, &best, sizeof best);
    }
    int stopped = 0;
    for (int l = 0; l < W; l++)
        stopped |= (done[l] != 0) << l;
    return stopped;
}
"""

# The S- and S*A-long updates of one learner step in W lanes of GCC vector
# extensions, for the macros W (the width), STEP and PASS (the functions'
# names) and TARGET (their instruction set).
STEP = r"""
/* push[0 .. NV W) <- the sums over i in index order of mu[i] est[i * S_pad + j],
   one accumulator per column, all NV vectors of them live in one pass over
   i: est and push start at the pass's first column. */
static inline __attribute__((always_inline)) TARGET void PASS(int S, int S_pad, const double *mu,
                                                              const double *est, double *push,
                                                              const int NV)
{
    typedef double vec __attribute__((vector_size(8 * W)));
    vec acc[PASS_VECTORS] = {{0}};
    for (int i = 0; i < S; i++) {
        const double *row = est + (size_t)i * S_pad;
#pragma GCC unroll 8
        for (int b = 0; b < NV; b++) {
            vec x;
            __builtin_memcpy(&x, row + b * W, sizeof x);
            acc[b] += mu[i] * x;
        }
    }
#pragma GCC unroll 8
    for (int b = 0; b < NV; b++)
        __builtin_memcpy(push + b * W, &acc[b], sizeof acc[b]);
}

static TARGET int STEP(step_ctx *c, int t)
{
    typedef double vec __attribute__((vector_size(8 * W)));
    typedef int64_t ivec __attribute__((vector_size(8 * W)));
    const int S = c->num_states, A = c->num_actions, S_pad = PADDED(S);
    const double c_mu = c->c_mu[t - 1], c_pi = c->c_pi[t - 1];
    const double psi = c->psi, unif = psi / A;
    const vec zero = {0};
    double *mu = c->mu, *pi = c->pi, *push = c->push;

    /* estimate row prev <- (N(prev, j) + 1/S) / (N(prev) + 1), N(prev) the
       row's sum; the pad columns keep their zeros */
    {
        const int64_t *n_row = c->pair_counts + (size_t)c->prev * S;
        int64_t visits = 0;
        for (int i = 0; i < S; i++)
            visits += n_row[i];
        const double n_prev = (double)visits + 1.0, inv_s = 1.0 / S;
        double *row = c->estimate + (size_t)c->prev * S_pad;
        int j = 0;
        for (; j + W <= S; j += W) {
            ivec n;
            __builtin_memcpy(&n, n_row + j, sizeof n);
            const vec x = (__builtin_convertvector(n, vec) + inv_s) / n_prev;
            __builtin_memcpy(row + j, &x, sizeof x);
        }
        for (; j < S; j++)
            row[j] = ((double)n_row[j] + inv_s) / n_prev;
    }

    /* mu <- (1 - c_mu) mu + c_mu P^T mu */
    int j = 0;
    for (; j + PASS_VECTORS * W <= S_pad; j += PASS_VECTORS * W)
        PASS(S, S_pad, mu, c->estimate + j, push + j, PASS_VECTORS);
    switch ((S_pad - j) / W) {
#define PASS_CASE(n) case n: PASS(S, S_pad, mu, c->estimate + j, push + j, n); break;
        PASS_CASE(1) PASS_CASE(2) PASS_CASE(3) PASS_CASE(4) PASS_CASE(5) PASS_CASE(6) PASS_CASE(7)
#undef PASS_CASE
    }
    vec sums = zero;
    for (j = 0; j + W <= S; j += W) {
        vec m, p;
        __builtin_memcpy(&m, mu + j, sizeof m);
        __builtin_memcpy(&p, push + j, sizeof p);
        m = m * (1.0 - c_mu) + p * c_mu;
        __builtin_memcpy(mu + j, &m, sizeof m);
        sums += m;
    }
    double mu_sum = 0.0;
    for (int l = 0; l < W; l++)
        mu_sum += sums[l];
    for (; j < S; j++) {
        mu[j] = mu[j] * (1.0 - c_mu) + push[j] * c_mu;
        mu_sum += mu[j];
    }

    /* pi <- (1 - c_pi) pi + c_pi ((1 - psi) softmax(lam q) + psi / A) */
    const int n_pi = S * A;
    vec mins = zero + INFINITY;
    sums = zero;
    int n = 0;
    for (; n + W <= n_pi; n += W) {
        vec p, q;
        __builtin_memcpy(&p, pi + n, sizeof p);
        __builtin_memcpy(&q, c->soft + n, sizeof q);
        p = (1.0 - c_pi) * p + c_pi * ((1.0 - psi) * q + unif);
        __builtin_memcpy(pi + n, &p, sizeof p);
        sums += p;
        const ivec lower = (ivec)(p < mins);
        mins = (vec)((lower & (ivec)p) | (~lower & (ivec)mins));
    }
    double pi_sum = 0.0, pi_min = INFINITY;
    for (int l = 0; l < W; l++) {
        pi_sum += sums[l];
        if (mins[l] < pi_min)
            pi_min = mins[l];
    }
    for (; n < n_pi; n++) {
        const double v = (1.0 - c_pi) * pi[n] + c_pi * ((1.0 - psi) * c->soft[n] + unif);
        pi[n] = v;
        pi_sum += v;
        if (v < pi_min)
            pi_min = v;
    }
    return finish_step(c, t, mu_sum, pi_sum, pi_min);
}
"""


def _copy(template: str, width: int, target: str, **names: str) -> str:
    """template at width lanes under the function attribute target, each macro in names naming name + width."""
    macros = {"W": width, "TARGET": target, **{macro: f"{name}{width}" for macro, name in names.items()}}
    define = "".join(f"#define {name} {value}\n" for name, value in macros.items())
    return define + template + "".join(f"#undef {name}\n" for name in macros)


def _copies(template: str, **names: str) -> str:
    """template at 8 (AVX-512) and 4 (AVX2) lanes, only on x86, and at 2 lanes with no target.

    A build tuned to the building CPU could stop with SIGILL on another CPU
    that loads the same cached build, so the wider copies are picked at run
    time with __builtin_cpu_supports.
    """
    return (
        "#if defined(__x86_64__) || defined(__i386__)\n"
        + _copy(template, 8, '__attribute__((target("avx512f")))', **names)
        + _copy(template, 4, '__attribute__((target("avx2")))', **names)
        + "#endif\n"
        + _copy(template, 2, "", **names)
    )


# Field meanings (S states, A actions, T steps per episode, S_pad = S
# rounded up to a multiple of MAX_LANES, row-major): mu (S), pi and soft
# (S x A, soft = softmax(lam * q) row by row), q (S x A), push (S_pad, holds
# P^T mu, zeros from column S on), estimate (S x S_pad, the smoothed
# transition estimate of the counts pair_counts (S x S, the counter's own
# array) in the first S columns of each row and zeros in the rest), prev
# (the one state whose estimate row the counts may have moved since the
# last refresh),
# cdf (S x A x S, cumulative transition kernel), state_reward (S),
# c_mu / c_pi (T step sizes, indexed by t - 1), psi (exploration weight of
# steps t > 1), c_beta and nu (the Q step size at step t is
# min(1, c_beta / t**nu), QLearner.step_size at clock t - 1), u (2(T - 1)
# uniforms of steps 2..T: action, next state), validate_every and
# simplex_atol (stride and tolerance of the simplex check), min_policy
# (smallest policy entry over the calls so far), copy (the step's copy for
# this CPU and S, picked by the first call; the caller leaves it NULL).
SOURCE = (
    CDEF
    + f"#define MAX_WIDTH {MAX_LANES}\n"
    + r"""
#include <math.h>
#include <stddef.h>
#include <stdint.h>

/* The columns of the step's estimate rows and push: S rounded up to a
   multiple of every copy's width, the columns from S on zero. */
#define PADDED(S) (((S) + MAX_WIDTH - 1) / MAX_WIDTH * MAX_WIDTH)
/* The most vectors of columns one pass of the push keeps live */
#define PASS_VECTORS 8

/* The lane width of a copy for n items, problems or states: the narrowest
   of 2, 4 (AVX2) and 8 (AVX-512) lanes that this CPU runs and that holds
   them all, else the widest it runs. */
static int pick_width(int n)
{
#if defined(__x86_64__) || defined(__i386__)
    if (n > 2) {
        __builtin_cpu_init();
        const int avx2 = __builtin_cpu_supports("avx2"), avx512 = __builtin_cpu_supports("avx512f");
        if (avx2 && (n <= 4 || !avx512))
            return 4;
        if (avx512)
            return 8;
    }
#endif
    return 2;
}

/* out <- the softmax at lam of the A entries of q, shifted by their
   maximum, with libm's exp and the sum in index order; out may be q. */
static void softmax_row(double lam, const double *q, double *out, int A)
{
    double z_max = -INFINITY;
    for (int b = 0; b < A; b++) {
        out[b] = lam * q[b];
        if (out[b] > z_max)
            z_max = out[b];
    }
    double z_sum = 0.0;
    for (int b = 0; b < A; b++) {
        out[b] = exp(out[b] - z_max);
        z_sum += out[b];
    }
    for (int b = 0; b < A; b++)
        out[b] /= z_sum;
}

/* Step t from its finiteness check on, once mu and pi are updated; every
   copy ends here. mu_sum, pi_sum and pi_min are the sums of mu and pi and
   the smallest entry of pi. */
static int finish_step(step_ctx *c, int t, double mu_sum, double pi_sum, double pi_min)
{
    const int S = c->num_states, A = c->num_actions, s = c->state;
    const double *u = c->u + 2 * (size_t)(t - 2), *mu = c->mu, *pi = c->pi;
    if (!isfinite(mu_sum) || !isfinite(pi_sum))
        return -1; /* NON_FINITE_PAIR */
    /* the reference step's simplex check; its sums round in another order */
    if (t % c->validate_every == 0) {
        const double atol = c->simplex_atol;
        int bad = fabs(mu_sum - 1.0) > atol || pi_min < -atol;
        for (int j = 0; j < S; j++)
            bad |= mu[j] < -atol;
        for (int i = 0; i < S; i++) {
            double row_sum = 0.0;
            for (int b = 0; b < A; b++)
                row_sum += pi[(size_t)i * A + b];
            bad |= fabs(row_sum - 1.0) > atol;
        }
        if (bad)
            return -4; /* SIMPLEX_VIOLATED */
    }
    if (pi_min < c->min_policy)
        c->min_policy = pi_min;

    /* inverse-CDF draws: first index whose cumulative mass exceeds u */
    const double *pi_s = pi + (size_t)s * A;
    int a = 0;
    double mass = pi_s[0];
    while (a < A - 1 && mass <= u[0])
        mass += pi_s[++a];
    const double *cdf = c->cdf + ((size_t)s * A + a) * S;
    int next = 0;
    while (next < S - 1 && cdf[next] <= u[1])
        next++;

    const double r = (1.0 - c->congestion_c * mu[s]) * c->state_reward[s];
    c->reward = r;
    if (!isfinite(r))
        return -2; /* NON_FINITE_REWARD */
    if (!(0.0 <= r && r <= 1.0))
        return -3; /* REWARD_OUT_OF_RANGE */

    /* Q-learning update, then the softmax row of the updated state */
    double *q_s = c->q + (size_t)s * A;
    const double *q_next = c->q + (size_t)next * A;
    double q_max = q_next[0];
    for (int b = 1; b < A; b++)
        if (q_next[b] > q_max)
            q_max = q_next[b];
    const double beta = fmin(1.0, c->c_beta / pow((double)t, c->nu));
    q_s[a] = (1.0 - beta) * q_s[a] + beta * (r + c->rho * q_max);
    softmax_row(c->lam, q_s, c->soft + (size_t)s * A, A);

    c->prev = s;
    c->state = next;
    return next;
}
"""
    + _copies(STEP, STEP="step", PASS="push_pass")
    + r"""
typedef int (*step_fn)(step_ctx *c, int t);

/* The copy of the step for S states (pick_width) */
static step_fn pick_step(int S)
{
#if defined(__x86_64__) || defined(__i386__)
    switch (pick_width(S)) {
    case 8:
        return step8;
    case 4:
        return step4;
    }
#endif
    return step2;
}

int learner_step(step_ctx *c, int t)
{
    if (!c->copy)
        c->copy = pick_step(c->num_states);
    return c->copy(c, t);
}

/* The rows x S matrix scale * kernel as sparse rows row_start (rows + 1),
   cols and vals, its exact zeros left out: row n holds vals[k] at column
   cols[k] for k in row_start[n] .. row_start[n + 1] - 1. */
static void sparse_rows(const double *kernel, double scale, size_t rows, int S, int *row_start, int *cols,
                        double *vals)
{
    int nonzero = 0;
    for (size_t n = 0; n < rows; n++) {
        row_start[n] = nonzero;
        for (int j = 0; j < S; j++) {
            const double x = scale * kernel[n * S + j];
            if (x != 0.0) {
                cols[nonzero] = j;
                vals[nonzero] = x;
                nonzero++;
            }
        }
    }
    row_start[rows] = nonzero;
}

/* Value iteration q <- rewards + K max_a q on each of num_problems (S x A)
   problems in q, in place, until a sweep changes no entry by more than
   threshold. K = rho * kernel is the shared (S A x S) discounted kernel,
   first written as sparse rows (sparse_rows). A sweep is in place
   (Gauss-Seidel): it visits the states in index order, and once state s's
   A rows are done it writes v(s) = max_a q(s, a), so the rows of later
   states in the same sweep read it.

   W problems sweep together, one per lane of a SIMD register; the call
   picks W itself (pick_sweep). The lanes' rewards lane_r and Q-tables
   lane_q (S A W doubles each) and their values v (S W) are interleaved,
   lane l of entry n at n * W + l, so each kernel entry is one vector
   multiply and one vector add across the lanes. A lane whose problem stops
   copies its Q-table out and takes the next pending problem; once none is
   pending it holds zeros. Each lane keeps its own sweep count and stopping
   test, and each row's sum runs in index order, so every problem's
   iterates and sweeps are those of a run on its own, whatever the width.
   The caller owns the scratch space: int_scratch holds row_start (S A + 1
   ints) and cols (S A S); scratch holds vals (S A S doubles), then lane_r,
   lane_q and v for up to MAX_WIDTH lanes, in that order. Returns the
   sweeps summed over the problems, or -1 when a problem is still moving
   after max_iter sweeps. */
typedef int (*sweep_fn)(int S, int A, const int *row_start, const int *cols, const double *vals,
                        const double *r, double *q, double *v, double threshold);
"""
    + _copies(SWEEP, SWEEP="sweep")
    + r"""
/* The copy of the sweep for num_problems problems (pick_width), its width
   in *width. A wider register gains a smaller stack nothing: on an AVX-512
   host a one-problem 5x5 oracle._value_iteration call took 34 us of CPU
   time at 2 lanes against 39 us at 8. */
static sweep_fn pick_sweep(int num_problems, int *width)
{
    *width = pick_width(num_problems);
#if defined(__x86_64__) || defined(__i386__)
    switch (*width) {
    case 8:
        return sweep8;
    case 4:
        return sweep4;
    }
#endif
    return sweep2;
}
/* Lane l takes problem m: its rewards, its Q-table and, as its column of
   v, max_a q. With m = -1 the lane is idle and holds zeros. */
static void load_lane(int W, int l, int m, int S, int A, const double *rewards, const double *q,
                      double *lane_r, double *lane_q, double *v)
{
    const size_t rows = (size_t)S * A;
    for (int s = 0; s < S; s++) {
        double best = 0.0;
        for (int a = 0; a < A; a++) {
            const size_t n = (size_t)s * A + a;
            const double x = m < 0 ? 0.0 : q[m * rows + n];
            lane_r[n * W + l] = m < 0 ? 0.0 : rewards[m * rows + n];
            lane_q[n * W + l] = x;
            if (a == 0 || x > best)
                best = x;
        }
        v[(size_t)s * W + l] = best;
    }
}

int64_t value_iteration(int num_problems, int num_states, int num_actions,
                        const double *kernel, double rho, const double *rewards, double *q,
                        int *int_scratch, double *scratch, double threshold, int64_t max_iter)
{
    int W;
    const sweep_fn sweep = pick_sweep(num_problems, &W);
    const int S = num_states, A = num_actions;
    const size_t rows = (size_t)S * A;
    int *row_start = int_scratch, *cols = int_scratch + rows + 1;
    double *vals = scratch, *lane_r = vals + rows * S, *lane_q = lane_r + rows * W, *v = lane_q + rows * W;
    sparse_rows(kernel, rho, rows, S, row_start, cols, vals);

    int problem[MAX_WIDTH], pending = 0, busy = 0; /* problem -1: the lane is idle */
    int64_t sweeps[MAX_WIDTH], total = 0;
    for (int l = 0; l < W; l++) {
        problem[l] = pending < num_problems ? pending++ : -1;
        sweeps[l] = 0;
        busy += problem[l] >= 0;
        load_lane(W, l, problem[l], S, A, rewards, q, lane_r, lane_q, v);
    }
    while (busy > 0) {
        for (int l = 0; l < W; l++)
            if (problem[l] >= 0 && sweeps[l]++ == max_iter)
                return -1;
        const int stopped = sweep(S, A, row_start, cols, vals, lane_r, lane_q, v, threshold);
        for (int l = 0; l < W; l++) {
            if (problem[l] < 0 || !(stopped >> l & 1))
                continue;
            total += sweeps[l];
            double *q_m = q + problem[l] * rows;
            for (size_t n = 0; n < rows; n++)
                q_m[n] = lane_q[n * W + l];
            problem[l] = pending < num_problems ? pending++ : -1;
            sweeps[l] = 0;
            busy -= problem[l] < 0;
            load_lane(W, l, problem[l], S, A, rewards, q, lane_r, lane_q, v);
        }
    }
    return total;
}

/* The L1 distance of two rows of n doubles, summed in index order. */
static double l1_distance(const double *x, const double *y, int n)
{
    double sum = 0.0;
    for (int i = 0; i < n; i++)
        sum += fabs(x[i] - y[i]);
    return sum;
}

/* The larger of m and x, and NaN once either is, as NumPy's max keeps a NaN. */
static double max_or_nan(double m, double x)
{
    return x > m || isnan(x) ? x : m;
}

/* out <- the flow mu(s) pi(a|s) pushed through the kernel's sparse rows:
   out[t] sums mu(s) pi(a|s) P(t|s, a) over (s, a) in index order, as
   oracle.gamma2's einsum does for S >= 2. */
static void push_flow(int S, int A, const int *row_start, const int *cols, const double *vals,
                      const double *mu, const double *pi, double *out)
{
    for (int t = 0; t < S; t++)
        out[t] = 0.0;
    for (int k = 0; k < S * A; k++) {
        const double x = mu[k / A] * pi[k];
        for (int m = row_start[k]; m < row_start[k + 1]; m++)
            out[cols[m]] += x * vals[m];
    }
}

/* Scores one probe block of n pairs on a congestion grid: the block's
   Dirichlet rows from its exponential draws (n x (2 S + 2 S A), per pair
   mu, mu_alt, then the S rows of pi and the S of pi_alt), their distances,
   the pushes of the pairs and of their moved and varied variants, the
   congestion rewards (1 - congestion_c mu(s)) R(s) of the moved pairs' 2m
   mean-fields, value iteration on them from Q = 0 (value_iteration, at
   threshold and max_iter), the softmax at lam of the 2m Q-tables, and the
   three Lipschitz ratios. Writes the block's maxima of d1, d2 and d3 into
   ratios, 0 where no ratio was taken, NaN where one was NaN (as from an
   overflowed lam * q). Every step is oracle._block_ratios in C, each sum
   in index order; the softmax is the step's softmax_row.
   The caller owns the scratch: int_scratch holds int_size ints and scratch
   size doubles. Returns 0; -1 when a value iteration is still moving after
   max_iter sweeps; -2 when the scratch is too small. */
int probe_block(int num_pairs, int num_states, int num_actions, const double *draws,
                const double *kernel, const double *state_reward, double congestion_c, double lam,
                double rho, double threshold, int64_t max_iter, int *int_scratch, int64_t int_size,
                double *scratch, int64_t size, double *ratios)
{
    const int n = num_pairs, S = num_states, A = num_actions, width = 2 * S + 2 * S * A;
    const size_t rows = (size_t)S * A, entries = rows * S, tables = 2 * (size_t)n * rows;
    const size_t vi_ints = rows + 1 + entries, vi_doubles = entries + (2 * rows + S) * MAX_WIDTH;
    /* ints: the kernel's sparse rows, the moved pairs' indices, value_iteration's;
       doubles: the rows, the distances, two pushes, the kernel's sparse
       values, the rewards and Q-tables, value_iteration's */
    if ((size_t)int_size < rows + 1 + entries + n + vi_ints
        || (size_t)size < (size_t)n * width + 2 * (size_t)n + 2 * (size_t)S + entries + 2 * tables + vi_doubles)
        return -2;
    int *row_start = int_scratch, *cols = row_start + rows + 1, *moved = cols + entries, *vi_int = moved + n;
    double *pairs = scratch, *dmu = pairs + (size_t)n * width, *dpi = dmu + n;
    double *push = dpi + n, *push_alt = push + S, *vals = push_alt + S;
    double *rewards = vals + entries, *q = rewards + tables, *vi_scratch = q + tables;
    double d1 = 0.0, d2 = 0.0, d3 = 0.0;

    /* Dirichlet rows: each segment scaled by the inverse of its in-order sum */
    for (int i = 0; i < n; i++) {
        const double *e = draws + (size_t)i * width;
        double *out = pairs + (size_t)i * width;
        for (int start = 0; start < width;) {
            const int len = start < 2 * S ? S : A;
            double sum = e[start];
            for (int j = 1; j < len; j++)
                sum += e[start + j];
            const double inv = 1.0 / sum;
            for (int j = 0; j < len; j++)
                out[start + j] = e[start + j] * inv;
            start += len;
        }
    }

    sparse_rows(kernel, 1.0, rows, S, row_start, cols, vals);

    /* distances, pushes, d2 and d3 */
    int m = 0;
    for (int i = 0; i < n; i++) {
        const double *mu = pairs + (size_t)i * width, *mu_alt = mu + S, *pi = mu + 2 * S,
                     *pi_alt = pi + rows;
        dmu[i] = l1_distance(mu, mu_alt, S);
        dpi[i] = -INFINITY;
        for (int s = 0; s < S; s++) {
            const double tv = l1_distance(pi + (size_t)s * A, pi_alt + (size_t)s * A, A);
            if (tv > dpi[i])
                dpi[i] = tv;
        }
        push_flow(S, A, row_start, cols, vals, mu, pi, push);
        if (dmu[i] >= 1e-9) {
            moved[m++] = i;
            push_flow(S, A, row_start, cols, vals, mu_alt, pi, push_alt);
            d3 = max_or_nan(d3, l1_distance(push, push_alt, S) / dmu[i]);
        }
        if (dpi[i] >= 1e-9) {
            push_flow(S, A, row_start, cols, vals, mu, pi_alt, push_alt);
            d2 = max_or_nan(d2, l1_distance(push, push_alt, S) / dpi[i]);
        }
    }

    /* d1: the moved pairs' mu, then their mu_alt, solved and softmaxed */
    if (m > 0) {
        const size_t problems = 2 * (size_t)m;
        for (size_t p = 0; p < problems; p++) {
            const double *mu = pairs + (size_t)moved[p % m] * width + (p < (size_t)m ? 0 : S);
            for (int s = 0; s < S; s++) {
                const double r = (1.0 - congestion_c * mu[s]) * state_reward[s];
                for (int a = 0; a < A; a++) {
                    rewards[p * rows + (size_t)s * A + a] = r;
                    q[p * rows + (size_t)s * A + a] = 0.0;
                }
            }
        }
        if (value_iteration((int)problems, S, A, kernel, rho, rewards, q, vi_int, vi_scratch, threshold,
                            max_iter) < 0)
            return -1;
        for (size_t r = 0; r < problems * S; r++)
            softmax_row(lam, q + r * A, q + r * A, A);
        for (int j = 0; j < m; j++) {
            const double *g = q + (size_t)j * rows, *g_alt = q + ((size_t)m + j) * rows;
            double tv_max = -INFINITY;
            for (int s = 0; s < S; s++)
                tv_max = max_or_nan(tv_max, l1_distance(g + (size_t)s * A, g_alt + (size_t)s * A, A));
            d1 = max_or_nan(d1, tv_max / dmu[moved[j]]);
        }
    }
    ratios[0] = d1;
    ratios[1] = d2;
    ratios[2] = d3;
    return 0;
}
"""
)

# No contraction into fused multiply-adds, so every product and sum rounds
# the way the same expression rounds in NumPy.
COMPILE_ARGS = ["-O2", "-ffp-contract=off"]
BUILD_DIR = Path(__file__).resolve().parent / "_kernel_build"
_SUFFIX = importlib.machinery.EXTENSION_SUFFIXES[0]

_loaded = None  # (ffi, lib) once loaded, False after a failure


def _module_path() -> Path:
    import hashlib

    key = "\0".join([SOURCE, " ".join(COMPILE_ARGS), _SUFFIX]).encode()
    return BUILD_DIR / f"_learner_step_{hashlib.sha256(key).hexdigest()[:16]}{_SUFFIX}"


def _build(path: Path) -> None:
    """Compile into a private temporary directory, then move into place."""
    import tempfile

    import cffi

    ffi = cffi.FFI()
    ffi.cdef(CDEF)
    ffi.set_source(path.name.removesuffix(_SUFFIX), SOURCE, extra_compile_args=COMPILE_ARGS)
    BUILD_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BUILD_DIR) as tmp:
        os.replace(ffi.compile(tmpdir=tmp), path)


def _remove_stale_builds(keep: Path) -> None:
    """Delete this interpreter's builds of other sources or flags; one that cannot go stays."""
    for old in BUILD_DIR.glob(f"_learner_step_*{_SUFFIX}"):
        if old != keep:
            with contextlib.suppress(OSError):
                old.unlink()


def _import_or_build():
    path = _module_path()
    if not path.exists():
        _build(path)
        _remove_stale_builds(path)
    spec = importlib.util.spec_from_file_location(path.name.removesuffix(_SUFFIX), path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ffi, module.lib


def load():
    """(ffi, lib) of the compiled functions, or None when they are unavailable."""
    global _loaded
    if _loaded is None:
        try:
            _loaded = _import_or_build()
        except Exception as err:  # any build or load failure falls back
            logger.warning(
                "compiled learner step, value iteration and probe block unavailable, using the reference loops: %s",
                err,
            )
            logger.debug("step kernel build failure", exc_info=True)
            _loaded = False
    return _loaded or None

