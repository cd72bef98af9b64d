#!/usr/bin/env python3
"""A/B benchmark: a base git ref against the working tree, in alternating pairs.

    python3 scripts/bench_ab.py --base HEAD~1 --number 6

The base ref is exported with ``git archive`` into a temporary directory,
so the repository's own checkout and ``.git`` are left as they are; the
candidate is the working tree. Each side runs its own, unmodified
``perfbench/run.py`` (``--trace 0``) in its own checkout, at the run length
``run_seconds`` of the candidate's ``BENCHMARK.json``, on every workload
listed there. For each workload, pair i of the 10 pairs runs both sides
with workload seed ``--seed + i``, the side that goes first alternating
from pair to pair. Before the pairs, each side runs the benchmark once
untimed, so lazy set-up such as the step-kernel build does not fall into a
timed run, and then its tier-1 tests (``python -m pytest -q
--continue-on-collection-errors`` with its own ``src`` on ``PYTHONPATH``)
``TIER1_RUNS`` times, the side that goes first alternating, since the
wall time of one run spreads too widely on a shared host to compare.

A second, in-process section times the step loop and the oracle without
the CLI's process start, imports and I/O, which on this kind of host
spread more than a 10% change. On the 5x5 grid of
``configs/full_grid_5x5.json`` it times ``run_sandbox`` cut to K = 4,
T = 10k, scored against a reference solved once per process, and in a
second process ``probe_contraction`` over ``IN_PROCESS_PROBE_PAIRS`` pairs
(seed 4), ``solve_bmfe`` and value iteration alone: one cold call on a
stack of ``VI_STACK`` mean-fields and one on a single mean-field, each at
the lane width the checkout picks for it. Each call is timed with
``time.process_time()``, the CPU time of the process, so time the process
spends descheduled on a shared host does not count. Each of
``IN_PROCESS_ROUNDS`` rounds starts these processes for each side, the side
that goes first alternating, and each process reports the minimum of
``IN_PROCESS_REPEATS`` timed calls of each call it times
(``VI_REPEATS`` for the value-iteration calls). The oracle process also
times ``gamma2`` alone, ``VI_REPEATS`` times each, on a seeded stack of
``PUSH_STACK`` pairs, the size of a probe block's push, and on one pair.

Writes ``BENCH_<number>.json`` at the repository root: per workload and
end-to-end metric (names and directions from the candidate's
``BENCHMARK.json``), each side's median and quartiles, the pair count, the
candidate's wins out of the pairs (ties count for neither), the distance
between the base's quartiles, each side's attempted and failed
invocations, and each side's ``exit_after_main_s``: the median and
quartiles of the time from a child's ``end`` stamp, taken when
``cli.main`` returned, to its exit, one value per config from its last
invocation in each run (``wall_s - setup_s - (end - first_step)``, from
run.py's stderr lines and the timing files it leaves in
``.perfbench_work``, read only); the in-process rounds with each round's
speedup (base time over candidate time); each side's tier-1 runs, with their counts and wall
times and the median and range of the wall times (measured numbers, not a
gate), and the machine facts.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
IN_PROCESS_ROUNDS = 5
IN_PROCESS_REPEATS = 7
IN_PROCESS_K, IN_PROCESS_T = 4, 10_000
IN_PROCESS_PROBE_PAIRS = 600
VI_STACK, VI_REPEATS = 64, 100
PUSH_STACK = 96  # a probe block's pairs and their moved and varied variants
TIER1_RUNS = 3

# run.py's stderr line for each passing invocation, and for each failing one
INVOCATION_LINE = re.compile(r"(\S+) trace=0 wall_s=([\d.]+) setup_s=([\d.]+)$")
FAIL_LINE = re.compile(r"FAIL (\S+): ")

# Run with ``python -c`` in a checkout; argv: src dir, config, K, T, repeats.
# Prints the CPU time of each run_sandbox call as one JSON line.
IN_PROCESS_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from mfg_sandbox import cli
from mfg_sandbox.oracle import solve_bmfe
from mfg_sandbox.sandbox import SandboxConfig, run_sandbox

cfg = cli.load_config(sys.argv[2])
env = cli.build_environment(cfg)
config = SandboxConfig(
    env=env,
    schedule=cfg.schedule,
    num_episodes=int(sys.argv[3]),
    steps_per_episode=int(sys.argv[4]),
    rho=cfg.rho,
    seed=cfg.seed,
    reference=solve_bmfe(env, lam=cfg.schedule.lam, rho=cfg.rho),
)
times = []
for _ in range(int(sys.argv[5])):
    started = time.process_time()
    run_sandbox(config)
    times.append(time.process_time() - started)
print(json.dumps(times))
"""

# Run with ``python -c`` in a checkout; argv: src dir, config, probe pairs,
# repeats, value-iteration stack, value-iteration and push repeats, push
# stack. Prints the CPU times of each oracle call as one JSON object.
IN_PROCESS_ORACLE_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
from mfg_sandbox import cli
from mfg_sandbox.oracle import _value_iteration, gamma2, probe_contraction, solve_bmfe

cfg = cli.load_config(sys.argv[2])
env = cli.build_environment(cfg)
lam, rho, pairs = cfg.schedule.lam, cfg.rho, int(sys.argv[3])
calls = {
    "probe_contraction": lambda: probe_contraction(env, lam, rho, pairs, np.random.default_rng(4)),
    "solve_bmfe": lambda: solve_bmfe(env, lam=lam, rho=rho),
}
times = {name: [] for name in calls}
for _ in range(int(sys.argv[4])):
    for name, call in calls.items():
        started = time.process_time()
        call()
        times[name].append(time.process_time() - started)
# S and A from the kernel's shape, which every tree's environment answers.
S, A = env.transition_kernel(None).shape[:2]
mus = np.random.default_rng(5).dirichlet(np.ones(S), size=int(sys.argv[5]))
for size in (len(mus), 1):
    name = f"value_iteration_{size}"
    times[name] = []
    for _ in range(int(sys.argv[6])):
        started = time.process_time()
        _value_iteration(env, mus[:size], rho, 1e-10)
        times[name].append(time.process_time() - started)
rng = np.random.default_rng(6)
mus = rng.dirichlet(np.ones(S), size=int(sys.argv[7]))
pis = rng.dirichlet(np.ones(A), size=(len(mus), S))
for name, pi, mu in ((f"gamma2_{len(mus)}", pis, mus), ("gamma2_1", pis[0], mus[0])):
    times[name] = []
    for _ in range(int(sys.argv[6])):
        started = time.process_time()
        gamma2(env, pi, mu)
        times[name].append(time.process_time() - started)
print(json.dumps(times))
"""


def export(ref: str, dest: Path) -> str:
    """Extract the committed tree of ref into dest; returns its commit hash."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return commit


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench/run.py invocation in checkout; returns its result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: run.py printed no result (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    result["exit_after_main_s"] = exit_after_main(proc.stderr, checkout / ".perfbench_work" / workload)
    return result


def exit_after_main(stderr: str, workdir: Path) -> list[float]:
    """Per config, the seconds from the child's ``end`` stamp, after ``cli.main`` returned, to its exit.

    For each config name, wall_s and setup_s come from its last
    ``"<name> trace=0 wall_s=... setup_s=..."`` line in run.py's stderr, and
    the ``first_step`` and ``end`` stamps from the ``<name>.timing.json``
    that invocation left in workdir; the exit is wall_s - setup_s - (end -
    first_step). A config whose last invocation failed is left out, since
    its timing file is not the passing one's.
    """
    last = {}
    for line in stderr.splitlines():
        if match := INVOCATION_LINE.match(line):
            last[match[1]] = float(match[2]), float(match[3])
        elif match := FAIL_LINE.match(line):
            last.pop(match[1], None)
    out = []
    for name, (wall_s, setup_s) in sorted(last.items()):
        stamps = json.loads((workdir / f"{name}.timing.json").read_text(encoding="utf-8"))["stamps"]
        out.append(wall_s - setup_s - (stamps["end"] - stamps["first_step"]))
    return out


def time_run_sandbox(checkout: Path, K: int, T: int, repeats: int) -> list[float]:
    """CPU times of repeated run_sandbox calls in one process on checkout's code."""
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            IN_PROCESS_CHILD,
            str(checkout / "src"),
            str(checkout / "configs" / "full_grid_5x5.json"),
            str(K),
            str(T),
            str(repeats),
        ],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: in-process timing failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def time_oracle(checkout: Path, pairs: int, repeats: int, vi_repeats: int = VI_REPEATS) -> dict[str, list[float]]:
    """CPU times of repeated oracle calls in one process on checkout's code, by call name."""
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            IN_PROCESS_ORACLE_CHILD,
            str(checkout / "src"),
            str(checkout / "configs" / "full_grid_5x5.json"),
            str(pairs),
            str(repeats),
            str(VI_STACK),
            str(vi_repeats),
            str(PUSH_STACK),
        ],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: oracle timing failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize_rounds(rounds: list[dict]) -> dict:
    """Speedup of each in-process round, base minimum over candidate minimum."""
    speedups = [r["base_min_s"] / r["candidate_min_s"] for r in rounds]
    return {
        "rounds": rounds,
        "speedups": speedups,
        "min_speedup": min(speedups),
        "median_speedup": statistics.median(speedups),
    }


def measure_in_process(sides: dict) -> dict:
    """Alternating in-process rounds of run_sandbox and the oracle calls, minimum of the repeats per process."""
    rounds = []
    for i in range(IN_PROCESS_ROUNDS):
        order = ["base", "candidate"] if i % 2 == 0 else ["candidate", "base"]
        sandbox, oracle = {}, {}
        for side in order:
            sandbox[side] = time_run_sandbox(sides[side], IN_PROCESS_K, IN_PROCESS_T, IN_PROCESS_REPEATS)
            oracle[side] = time_oracle(sides[side], IN_PROCESS_PROBE_PAIRS, IN_PROCESS_REPEATS)
        rounds.append(
            {
                "first_side": order[0],
                **{f"{side}_min_s": min(t) for side, t in sandbox.items()},
                **{
                    call: {
                        "base_min_s": min(oracle["base"][call]),
                        "candidate_min_s": min(oracle["candidate"][call]),
                    }
                    for call in oracle["candidate"]
                },
            }
        )
        print(f"in-process round {i + 1}/{IN_PROCESS_ROUNDS}: {rounds[-1]}", file=sys.stderr, flush=True)
    return {
        "protocol": {
            "call": f"run_sandbox on configs/full_grid_5x5.json at K={IN_PROCESS_K}, T={IN_PROCESS_T}, with a reference",
            "oracle_calls": f"probe_contraction ({IN_PROCESS_PROBE_PAIRS} pairs, seed 4), solve_bmfe and cold "
            f"_value_iteration calls on {VI_STACK} and on 1 mean-field (value_iteration_{VI_STACK}, "
            f"value_iteration_1) and gamma2 on a seeded stack of {PUSH_STACK} pairs and on 1 pair "
            f"(gamma2_{PUSH_STACK}, gamma2_1) on the same grid, in a process of their own",
            "repeats_per_process": IN_PROCESS_REPEATS,
            "value_iteration_and_gamma2_repeats_per_process": VI_REPEATS,
            "clock": "time.process_time, the CPU time of the process",
            "order": "alternating, base first in even rounds",
            "speedup": "base minimum over candidate minimum, per round",
        },
        "steps_per_call": IN_PROCESS_K * IN_PROCESS_T,
        **summarize_rounds(rounds),
        **{
            call: {k: v for k, v in summarize_rounds([r[call] for r in rounds]).items() if k != "rounds"}
            for call in rounds[0]
            if call not in ("first_side", "base_min_s", "candidate_min_s")
        },
    }


def parse_pytest_summary(output: str) -> dict:
    """Outcome counts from the last summary line of ``pytest -q`` output."""
    counts = {}
    for line in reversed(output.strip().splitlines()):
        if re.search(r" in [\d.]+s\b", line):
            found = re.findall(r"(\d+) (passed|failed|error|skipped|deselected)s?\b", line)
            counts = {word: int(n) for n, word in found}
            break
    return {key: counts.get(key, 0) for key in ("passed", "failed", "error", "skipped", "deselected")}


def run_tier1(checkout: Path) -> dict:
    """One tier-1 test run in checkout: outcome counts, exit code and wall time."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
        cwd=checkout,
        env=env,
        capture_output=True,
        text=True,
    )
    wall_s = time.perf_counter() - started
    return {**parse_pytest_summary(proc.stdout), "exit_code": proc.returncode, "wall_s": wall_s}


def measure_tier1(sides: dict) -> dict:
    """TIER1_RUNS tier-1 runs per side, the side that goes first alternating; each side's runs and wall-time spread."""
    runs = {side: [] for side in sides}
    for i in range(TIER1_RUNS):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for side in order:
            print(f"tier-1 tests {side}, run {i + 1}/{TIER1_RUNS}", file=sys.stderr, flush=True)
            runs[side].append(run_tier1(sides[side]))
    out = {}
    for side, side_runs in runs.items():
        walls = [r["wall_s"] for r in side_runs]
        out[side] = {
            "runs": side_runs,
            "wall_s_median": statistics.median(walls),
            "wall_s_min": min(walls),
            "wall_s_max": max(walls),
        }
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize_values(values: list[float]) -> dict:
    """Median and quartiles of a sample, with its size."""
    if not values:
        return {"count": 0}
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "count": len(values)}


def summarize(metrics: list[dict], pairs: list[tuple[dict, dict]]) -> dict:
    """Per-metric comparison of the base and candidate runs of one workload."""
    out = {}
    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        got = [
            (b["metrics"][name]["value"], c["metrics"][name]["value"])
            for b, c in pairs
            if name in b["metrics"] and name in c["metrics"]
        ]
        if not got:
            continue
        base = [b for b, _ in got]
        cand = [c for _, c in got]
        bq, cq = quartiles(base), quartiles(cand)
        wins = sum(1 for b, c in got if (c > b if higher else c < b))
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec.get("bound"),
            "base": {"median": bq[1], "q1": bq[0], "q3": bq[2]},
            "candidate": {"median": cq[1], "q1": cq[0], "q3": cq[2]},
            "median_ratio": cq[1] / bq[1] if bq[1] else None,
            "base_iqr": bq[2] - bq[0],
            "pairs": len(got),
            "wins": wins,
            "base_values": base,
            "candidate_values": cand,
        }
    return out


def machine_facts() -> dict:
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    try:
        import numpy

        facts["numpy"] = numpy.__version__
    except ImportError:
        pass
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu"] = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal"):
                facts["mem_total_kb"] = int(line.split()[1])
                break
    except OSError:
        pass
    return facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git ref of the base side")
    parser.add_argument("--number", required=True, help="the N of the BENCH_<N>.json written at the repository root")
    parser.add_argument("--seed", type=int, default=1000, help="workload seed of the first pair")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench_ab_") as tmp:
        base_dir = Path(tmp) / "base"
        base_commit = export(args.base, base_dir)
        head_commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True, capture_output=True, text=True
        ).stdout.strip()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        seconds = spec["run_seconds"]
        workloads = [w["name"] for w in spec["workloads"]]
        sides = {"base": base_dir, "candidate": ROOT}

        for name, checkout in sides.items():
            print(f"warm-up {name}", file=sys.stderr, flush=True)
            run_bench(checkout, workloads[0], args.seed, 0)
        tier1 = measure_tier1(sides)
        in_process = measure_in_process(sides)
        report = {}
        for workload in workloads:
            pairs, runs = [], {"base": [], "candidate": []}
            for i in range(PAIRS):
                order = ["base", "candidate"] if i % 2 == 0 else ["candidate", "base"]
                result = {}
                for side in order:
                    result[side] = run_bench(sides[side], workload, args.seed + i, seconds)
                    runs[side].append(result[side])
                    print(
                        f"{workload} pair {i + 1}/{PAIRS} {side}: correct={result[side]['correct']}",
                        file=sys.stderr,
                        flush=True,
                    )
                pairs.append((result["base"], result["candidate"]))
            report[workload] = {
                "metrics": summarize(spec["end_to_end"], pairs),
                "exit_after_main_s": {
                    side: summarize_values([x for r in side_runs for x in r["exit_after_main_s"]])
                    for side, side_runs in runs.items()
                },
                "first_side": ["base" if i % 2 == 0 else "candidate" for i in range(PAIRS)],
                "seeds": [args.seed + i for i in range(PAIRS)],
                **{
                    f"{side}_invocations": {
                        "attempted": sum(r["attempted"] for r in side_runs),
                        "failed": sum(r["failed"] for r in side_runs),
                        "all_correct": all(r["correct"] for r in side_runs),
                    }
                    for side, side_runs in runs.items()
                },
            }

    doc = {
        "base": {"ref": args.base, "commit": base_commit},
        "candidate": {"ref": "working tree", "head_commit": head_commit},
        "protocol": {
            "command": "python3 perfbench/run.py --workload W --seed S --seconds T (each side's own copy)",
            "seconds": seconds,
            "pairs": PAIRS,
            "order": "alternating, base first in even pairs",
            "wins": "pairs where the candidate is better by the metric's direction; ties count for neither",
            "tier1": f"{TIER1_RUNS} runs per side, alternating, base first in the first run",
            "exit_after_main_s": "per side, over every config's last passing invocation in every pair: "
            "wall_s - setup_s - (end - first_step), the time from the child's end stamp, after cli.main "
            "returned, to the exit run.py waits for",
        },
        "tier1": tier1,
        "in_process": in_process,
        "machine": machine_facts(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workloads": report,
    }
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    all_correct = all(w[f"{side}_invocations"]["all_correct"] for w in report.values() for side in sides)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
