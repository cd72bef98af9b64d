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

Before the tier-1 runs, each side runs every shipped config
(``SHIPPED_CONFIGS``) at full size through its own CLI, and the candidate
runs them once more (``measure_identity``). Per output file,
``compare_outputs`` records whether the candidate's copy is byte-identical
to the base's, the largest absolute difference over its numeric fields if
it is not, and whether the candidate's rerun reproduced it byte for byte.

A second, in-process section times the step loop and the oracle without
the CLI's process start, imports and I/O. It loads both trees into this one
interpreter as two package names (``load_tree``), so a swing in the host's
speed lands on both sides alike, and builds from each tree's own ``cli`` the
same nine calls (``tree_calls``). On ``configs/full_grid_5x5.json``:
``run_sandbox`` cut to K = 4, T = 10k with a reference, ``probe_contraction``
over ``IN_PROCESS_PROBE_PAIRS`` pairs, ``solve_bmfe``, value iteration
and ``gamma2`` alone, each on a stack and on one problem, and one scored
``episode_diagnostics`` call, the oracle's work per scored episode. On
``configs/probe_3x3.json``: ``probe_contraction_3x3`` over
``IN_PROCESS_PROBE_3X3_PAIRS`` pairs, the shape of ``desk3_compare``'s
companion probe. Each call runs once
untimed. In each of ``IN_PROCESS_ROUNDS`` rounds the side that goes first
alternates, and the sides take turns call by call, ``IN_PROCESS_REPEATS``
times (``VI_REPEATS`` for value iteration, ``gamma2`` and
``episode_diagnostics``); each side keeps
its minimum ``time.process_time()``, CPU time, so time spent descheduled
does not count, and the round's ratio is base over candidate. Import time,
exit time and RSS need processes of their own; they come from the perfbench
pairs (``setup_s``, ``exit_after_main_s``, ``peak_rss_mb``). ``run_sandbox``'s
per-round minima are also given as CPU nanoseconds per learner step.

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
``.perfbench_work``, read only); per in-process call, every round's
ratio and each side's minimum, and the ratios' median and quartiles; each
side's tier-1 runs, with their counts, wall times and user+sys CPU times
and the median and range of each (measured numbers, not a gate); the
output-identity table; and the machine facts. Exits with 1 when an
invocation failed perfbench's output gate or a rerun changed an output.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import importlib.util
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import types
from collections.abc import Callable
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
IN_PROCESS_ROUNDS = 11
IN_PROCESS_REPEATS = 7
IN_PROCESS_K, IN_PROCESS_T = 4, 10_000
IN_PROCESS_PROBE_PAIRS = 600
IN_PROCESS_PROBE_3X3_PAIRS = 500
VI_STACK, VI_REPEATS = 64, 100
# calls this short take VI_REPEATS per side and round
SHORT_CALLS = ("value_iteration", "gamma2", "episode_diagnostics")
PUSH_STACK = 96  # a probe block's pairs and their moved and varied variants
TIER1_RUNS = 3
SHIPPED_CONFIGS = ("desk_3x3_compare", "full_grid_5x5", "probe_3x3", "two_class_5x5")

# run.py's stderr line for each passing invocation, and for each failing one
INVOCATION_LINE = re.compile(r"(\S+) trace=0 wall_s=([\d.]+) setup_s=([\d.]+)$")
FAIL_LINE = re.compile(r"FAIL (\S+): ")


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


def load_tree(name: str, src: Path) -> types.ModuleType:
    """Import the package in src/mfg_sandbox under the name name.

    The package is registered in sys.modules before it runs, so its relative
    imports resolve to its own submodules (name.cli, name.oracle, ...) and
    leave sys.modules["mfg_sandbox"] as it is.
    """
    package_dir = src / "mfg_sandbox"
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def tree_calls(name: str, checkout: Path) -> dict[str, Callable[[], object]]:
    """The in-process calls, by name, on checkout's code loaded as the package name."""
    load_tree(name, checkout / "src")
    cli = importlib.import_module(f"{name}.cli")
    oracle = importlib.import_module(f"{name}.oracle")
    sandbox = importlib.import_module(f"{name}.sandbox")
    cfg = cli.load_config(checkout / "configs" / "full_grid_5x5.json")
    env = cli.build_environment(cfg)
    lam, rho = cfg.schedule.lam, cfg.rho
    config = sandbox.SandboxConfig(
        env=env,
        schedule=cfg.schedule,
        num_episodes=IN_PROCESS_K,
        steps_per_episode=IN_PROCESS_T,
        rho=rho,
        seed=cfg.seed,
        reference=oracle.solve_bmfe(env, lam=lam, rho=rho),
    )
    probe_cfg = cli.load_config(checkout / "configs" / "probe_3x3.json")
    probe_env = cli.build_environment(probe_cfg)
    S, A = env.num_states, env.num_actions
    vi_mus = np.random.default_rng(5).dirichlet(np.ones(S), size=VI_STACK)
    rng = np.random.default_rng(6)
    mus = rng.dirichlet(np.ones(S), size=PUSH_STACK)
    pis = rng.dirichlet(np.ones(A), size=(PUSH_STACK, S))
    # a first-step pair, an end-of-episode estimate and a Q-table, as a run hands them over
    p_hat, q_end = rng.dirichlet(np.ones(S), size=S), rng.uniform(0.0, 1.0 / (1.0 - rho), (S, A))
    episode = (mus[0], pis[0], p_hat, q_end)
    return {
        "run_sandbox": lambda: sandbox.run_sandbox(config),
        "probe_contraction": lambda: oracle.probe_contraction(
            env, lam, rho, IN_PROCESS_PROBE_PAIRS, np.random.default_rng(4)
        ),
        "probe_contraction_3x3": lambda: oracle.probe_contraction(
            probe_env, probe_cfg.schedule.lam, probe_cfg.rho, IN_PROCESS_PROBE_3X3_PAIRS, np.random.default_rng(4)
        ),
        "solve_bmfe": lambda: oracle.solve_bmfe(env, lam=lam, rho=rho),
        f"value_iteration_{VI_STACK}": lambda: oracle._value_iteration(env, vi_mus, rho, 1e-10),
        "value_iteration_1": lambda: oracle._value_iteration(env, vi_mus[:1], rho, 1e-10),
        f"gamma2_{PUSH_STACK}": lambda: oracle.gamma2(env, pis, mus),
        "gamma2_1": lambda: oracle.gamma2(env, pis[0], mus[0]),
        "episode_diagnostics": lambda: sandbox.episode_diagnostics(1, *episode, config),
    }


def measure_in_process(calls: dict[str, dict[str, Callable[[], object]]]) -> dict:
    """Rounds of the sides' calls ("base" and "candidate" to their tree_calls), interleaved call by call.

    Per call: each round's CPU-time minimum of each side, and its ratio, base over candidate.
    """
    for side_calls in calls.values():
        for call in side_calls.values():
            call()  # untimed, so lazy set-up such as the step-kernel load falls into no round
    rounds = {name: [] for name in calls["candidate"]}
    for i in range(IN_PROCESS_ROUNDS):
        order = ["base", "candidate"] if i % 2 == 0 else ["candidate", "base"]
        for name, call_rounds in rounds.items():
            best = dict.fromkeys(order, math.inf)
            for _ in range(VI_REPEATS if name.startswith(SHORT_CALLS) else IN_PROCESS_REPEATS):
                for side in order:
                    call = calls[side][name]
                    started = time.process_time()
                    call()
                    best[side] = min(best[side], time.process_time() - started)
            call_rounds.append({"first_side": order[0], **{f"{side}_min_s": best[side] for side in order}})
        print(f"in-process round {i + 1}/{IN_PROCESS_ROUNDS} done", file=sys.stderr, flush=True)
    out = {
        "protocol": {
            "process": "one interpreter, the base export and the working tree loaded as two package names",
            "calls": f"run_sandbox at K={IN_PROCESS_K}, T={IN_PROCESS_T} with a reference, probe_contraction "
            f"({IN_PROCESS_PROBE_PAIRS} pairs, seed 4), solve_bmfe, cold _value_iteration on {VI_STACK} and on 1 "
            f"mean-field, gamma2 on {PUSH_STACK} pairs and on 1, one scored episode_diagnostics call, on "
            f"configs/full_grid_5x5.json; probe_contraction_3x3 ({IN_PROCESS_PROBE_3X3_PAIRS} pairs, seed 4) on "
            "configs/probe_3x3.json; each untimed once",
            "repeats": f"{IN_PROCESS_REPEATS} per side and round, {VI_REPEATS} for value_iteration_*, gamma2_* and "
            "episode_diagnostics",
            "clock": "time.process_time, the CPU time of the process",
            "order": "the sides take turns call by call, base first in even rounds",
            "ratio": "base minimum over candidate minimum, per round",
        },
    }
    for name, call_rounds in rounds.items():
        ratios = [r["base_min_s"] / r["candidate_min_s"] for r in call_rounds]
        out[name] = {
            "rounds": call_rounds,
            "ratios": ratios,
            "ratio": summarize_values(ratios),
            **{f"{side}_min_s": min(r[f"{side}_min_s"] for r in call_rounds) for side in ("base", "candidate")},
        }
        if name == "run_sandbox":
            steps = IN_PROCESS_K * IN_PROCESS_T
            for side in ("base", "candidate"):
                out[name][f"{side}_ns_per_step"] = [r[f"{side}_min_s"] / steps * 1e9 for r in call_rounds]
    return out


def run_config(checkout: Path, config: str, out_dir: Path) -> None:
    """One run of checkout's configs/<config>.json through its own CLI, writing into out_dir."""
    subprocess.run(
        [
            sys.executable,
            "-m",
            "mfg_sandbox.cli",
            "--config",
            str(checkout / "configs" / f"{config}.json"),
            "--output-dir",
            str(out_dir),
            "--quiet",
        ],
        cwd=checkout,
        env=dict(os.environ, PYTHONPATH=str(checkout / "src")),
        check=True,
        capture_output=True,
    )


def output_fields(path: Path) -> list:
    """The fields of an output file in order: a float for each number, the value itself otherwise.

    JSON documents are walked depth first, keys in file order; CSV files
    cell by cell. A key is a field, so two documents whose keys differ have
    fields that differ.
    """
    if path.suffix == ".csv":
        cells = [cell for row in csv.reader(path.read_text(encoding="utf-8").splitlines()) for cell in row]
        fields = []
        for cell in cells:
            try:
                fields.append(float(cell))
            except ValueError:
                fields.append(cell)
        return fields
    fields = []

    def walk(node):
        if isinstance(node, dict):
            for key, value in node.items():
                fields.append(key)
                walk(value)
        elif isinstance(node, list):
            fields.append(len(node))  # a length, so nested lists of other shapes differ
            for value in node:
                walk(value)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            fields.append(float(node))
        else:
            fields.append(node)

    walk(json.loads(path.read_text(encoding="utf-8")))
    return fields


def max_abs_difference(a: Path, b: Path) -> float | None:
    """The largest absolute difference between the numeric fields of a and b.

    None when the files do not line up: a different number of fields, or a
    non-numeric field that differs. A NaN against a NaN counts as no
    difference, a NaN against a number as an infinite one.
    """
    fields_a, fields_b = output_fields(a), output_fields(b)
    if len(fields_a) != len(fields_b):
        return None
    largest = 0.0
    for x, y in zip(fields_a, fields_b):
        if isinstance(x, float) and isinstance(y, float):
            if math.isnan(x) or math.isnan(y):
                largest = largest if math.isnan(x) and math.isnan(y) else math.inf
            elif x != y:
                largest = max(largest, abs(x - y))
        elif type(x) is not type(y) or x != y:  # True == 1.0, but a flag is not a number
            return None
    return largest


def compare_outputs(base: Path, candidate: Path, rerun: Path) -> dict:
    """Per output file under the three trees, by its path relative to them: identity to the base and of the rerun.

    For each file either side wrote: whether the candidate's copy is
    byte-identical to the base's; when it is not, the largest absolute
    difference over the numeric fields (max_abs_difference), or which side
    lacks the file; and whether the candidate's rerun wrote the same bytes
    as the candidate (criterion 10).
    """

    def files(root: Path) -> set[str]:
        return {str(path.relative_to(root)) for path in root.rglob("*") if path.is_file()}

    out = {}
    for name in sorted(files(base) | files(candidate) | files(rerun)):
        b, c, r = base / name, candidate / name, rerun / name
        entry = {}
        if not (b.exists() and c.exists()):
            entry["byte_identical"] = False
            entry["missing_on"] = [side for side, path in (("base", b), ("candidate", c)) if not path.exists()]
        else:
            entry["byte_identical"] = b.read_bytes() == c.read_bytes()
            if not entry["byte_identical"]:
                entry["max_abs_difference"] = max_abs_difference(b, c)
        entry["rerun_identical"] = c.exists() and r.exists() and c.read_bytes() == r.read_bytes()
        out[name] = entry
    return out


def measure_identity(sides: dict, root: Path) -> dict:
    """Every shipped config run on each side, and once more on the candidate; their outputs compared file by file."""
    runs = {"base": sides["base"], "candidate": sides["candidate"], "candidate_rerun": sides["candidate"]}
    for config in SHIPPED_CONFIGS:
        for name, checkout in runs.items():
            print(f"output identity: {config} on {name}", file=sys.stderr, flush=True)
            run_config(checkout, config, root / name / config)
    files = compare_outputs(root / "base", root / "candidate", root / "candidate_rerun")
    return {
        "configs": list(SHIPPED_CONFIGS),
        "files": files,
        "all_byte_identical": all(f["byte_identical"] for f in files.values()),
        "all_rerun_identical": all(f["rerun_identical"] for f in files.values()),
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
    """One tier-1 test run in checkout: outcome counts, exit code, wall time and user+sys CPU time."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
        cwd=checkout,
        env=env,
        capture_output=True,
        text=True,
    )
    wall_s = time.perf_counter() - started
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
    return {**parse_pytest_summary(proc.stdout), "exit_code": proc.returncode, "wall_s": wall_s, "cpu_s": cpu_s}


def measure_tier1(sides: dict) -> dict:
    """TIER1_RUNS tier-1 runs per side, the side that goes first alternating; each side's runs and their spread."""
    runs = {side: [] for side in sides}
    for i in range(TIER1_RUNS):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for side in order:
            print(f"tier-1 tests {side}, run {i + 1}/{TIER1_RUNS}", file=sys.stderr, flush=True)
            runs[side].append(run_tier1(sides[side]))
    out = {}
    for side, side_runs in runs.items():
        out[side] = {"runs": side_runs}
        for key in ("wall_s", "cpu_s"):
            values = [r[key] for r in side_runs]
            out[side].update(
                {f"{key}_median": statistics.median(values), f"{key}_min": min(values), f"{key}_max": max(values)}
            )
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
    facts["numpy"] = np.__version__
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
        identity = measure_identity(sides, Path(tmp) / "outputs")
        tier1 = measure_tier1(sides)
        in_process = measure_in_process({side: tree_calls(f"mfg_ab_{side}", path) for side, path in sides.items()})
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
            "tier1": f"{TIER1_RUNS} runs per side, alternating, base first in the first run; cpu_s is the "
            "user+sys CPU of the run's processes (getrusage RUSAGE_CHILDREN)",
            "output_identity": f"{', '.join(SHIPPED_CONFIGS)} at full size through each side's own CLI, "
            "then once more through the candidate's; per output file, identity to the base and of the rerun",
            "exit_after_main_s": "per side, over every config's last passing invocation in every pair: "
            "wall_s - setup_s - (end - first_step), the time from the child's end stamp, after cli.main "
            "returned, to the exit run.py waits for",
        },
        "tier1": tier1,
        "output_identity": identity,
        "in_process": in_process,
        "machine": machine_facts(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workloads": report,
    }
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    all_correct = all(w[f"{side}_invocations"]["all_correct"] for w in report.values() for side in sides)
    return 0 if all_correct and identity["all_rerun_identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
