"""Span and count tracing by wrapping the public functions of mfg_sandbox.

The tracer replaces each public module-level function and each public method
of the package's classes with a wrapper that records, per call, the wall
time and the time spent in wrapped callees, so a function's self time is its
duration minus its children's. Calls of the functions in LEAVES happen once
per learner step or per probe pair, so they are only counted and summed;
every other call is also kept as a span (id, name, start, end, parent,
thread, thread CPU time). Spans stay in memory until ``spans`` is read at exit.

Nothing in the package is edited: wrappers are installed by rebinding names
in the already imported modules, before ``cli.main`` runs.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time

MODULES = ("cli", "core", "environment", "estimators", "oracle", "sandbox", "schedules", "snapshots")

# Called once per learner step or probe pair: counted and timed, no spans.
LEAVES = frozenset(
    {
        "estimators.TransitionCounter.record",
        "estimators.QLearner.update",
        "environment.CongestionGridEnv.reward",
        "environment.CongestionGridEnv.reward_table",
        "environment.CongestionGridEnv.transition_kernel",
        "oracle.induced_kernel",
        "core.softmax_table",
        "core.l1_norm",
        "core.tv_norm",
    }
)

# Helpers called from inside a per-step leaf (QLearner.update calls
# step_size, CongestionGridEnv.reward calls as_probs). Wrapping them would
# double the per-step tracing cost; their time stays in the caller's self time.
UNWRAPPED = frozenset({"estimators.QLearner.step_size", "core.as_probs", "core.as_policy_table"})


class _ThreadState:
    __slots__ = ("stack", "stats", "spans", "thread")

    def __init__(self):
        self.stack = []  # frames: [child_seconds, span_id]
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.spans = []
        self.thread = threading.current_thread().name


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def wrap(self, name: str, fn):
        leaf = name in LEAVES
        perf = time.perf_counter
        cpu = time.thread_time
        get_state = self._state
        next_id = self._ids.__next__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = get_state()
            stack = state.stack
            parent = stack[-1][1] if stack else 0
            # A leaf records no span; calls under it attach to the nearest
            # recorded span.
            span_id = parent if leaf else next_id()
            frame = [0.0, span_id]
            stack.append(frame)
            cpu_start = 0.0 if leaf else cpu()
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                duration = end - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                entry = state.stats.get(name)
                if entry is None:
                    entry = state.stats[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]
                if not leaf:
                    state.spans.append((span_id, name, start, end, parent, state.thread, cpu() - cpu_start))

        return wrapper

    def install(self, package) -> None:
        """Wrap every public function and method of the package."""
        modules = {short: getattr(package, short) for short in MODULES}
        replaced = {}
        for short, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    name = f"{short}.{attr}"
                    if name not in UNWRAPPED:
                        replaced[value] = self.wrap(name, value)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for method, member in list(vars(value).items()):
                        name = f"{short}.{attr}.{method}"
                        if (
                            method.startswith("_")
                            or not inspect.isfunction(member)
                            or getattr(member, "__isabstractmethod__", False)
                            or name in UNWRAPPED
                        ):
                            continue
                        setattr(value, method, self.wrap(name, member))
        # Rebind every module-level reference, including names imported
        # into other modules, so intra- and cross-module calls go through
        # the wrappers.
        for module in [package, *modules.values()]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replaced:
                    setattr(module, attr, replaced[value])

    def stats(self) -> dict:
        """name -> {"calls", "total_s", "self_s"}, summed over threads."""
        merged = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, total, own) in state.stats.items():
                entry = merged.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                entry["calls"] += calls
                entry["total_s"] += total
                entry["self_s"] += own
        return merged

    def spans(self) -> list:
        with self._lock:
            states = list(self._states)
        out = [span for state in states for span in state.spans]
        out.sort()
        return out
