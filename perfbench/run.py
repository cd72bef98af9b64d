"""Benchmark for mfg_sandbox: end-to-end runs of the CLI on configs derived from the shipped ones.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each invocation is one child process (perfbench/child.py) that calls
``mfg_sandbox.cli.main`` with a generated config as its only input; the
invocations run one after another, never in parallel. A workload has a
fixed set of primary configs (the workload itself) and companion configs
(see WORKLOADS), all seeded from --seed. The run invokes them in order,
primary and companion alternating, until each has run once and the first of
each kind twice, then keeps cycling until S seconds have passed. Every
invocation must pass the correctness gate in ``check_outputs``, and every
repeat must reproduce its config's first outputs byte for byte, or it
counts as failed.

With --trace 0 the last stdout line reports the end-to-end metrics (medians
over the invocations, accuracy as the mean over the seed set). With
--trace 1 the primary invocations alternate untraced and traced (the
tracer wraps every public function of the package from outside it) and the
last line reports per-layer metrics and the tracing overhead.

Exit code 0 when every invocation passed the gate, 1 when one failed, 2 when
the program or its configs are missing.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import MODULES

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

CSV_HEADER = "k,e_pi,e_mu,eps_P,eps_Q,residual_mu"
SIMPLEX_TOL = 1e-9
CHILD_TIMEOUT_S = 150.0
NPROC = len(os.sched_getaffinity(0))


@dataclasses.dataclass(frozen=True)
class Job:
    """One kind of CLI invocation: a shipped config plus overrides."""

    base: str
    overrides: dict
    num_configs: int  # distinct config seeds per run

    def config(self, run_seed: int, index: int, out_dir: Path) -> dict:
        cfg = json.loads((ROOT / self.base).read_text(encoding="utf-8"))
        for key, value in self.overrides.items():
            if key == "environment":
                cfg["environment"].update(value)
            else:
                cfg[key] = value
        # Compare mode runs seeds s .. s+num_seeds-1, so configs get disjoint ranges.
        cfg["seed"] = (run_seed * self.num_configs + index) * cfg.get("num_seeds", 1)
        cfg["output_dir"] = str(out_dir)
        return cfg


# K, T and probe_pairs keep one pass over a workload's configs near 30 s on
# a 2-CPU Xeon. The seed-set sizes keep the run-to-run spread of the
# accuracy means (l1_mean_field, tv_policy, d_hat) near 5%.
LEARN_5X5 = Job("configs/full_grid_5x5.json", {"K": 4, "T": 10000}, 7)
LEARN_5X5_SMALL = Job("configs/full_grid_5x5.json", {"K": 3, "T": 4000}, 8)
COMPARE_3X3 = Job("configs/desk_3x3_compare.json", {"K": 20, "T": 1000, "num_seeds": min(2, NPROC)}, 10)
PROBE_5X5 = Job("configs/probe_3x3.json", {"environment": {"side": 5}, "probe_pairs": 600}, 4)
PROBE_5X5_SMALL = Job("configs/probe_3x3.json", {"environment": {"side": 5}, "probe_pairs": 300}, 4)
PROBE_3X3_SMALL = Job("configs/probe_3x3.json", {"probe_pairs": 500}, 4)

# primary: the workload itself (wall_s, setup_s, peak_rss_mb and the trace).
# companion: the other kind of invocation on the same grid, run only so the
# rate and accuracy metrics that the primary cannot produce are reported.
WORKLOADS = {
    "grid5_sandbox": (LEARN_5X5, PROBE_5X5_SMALL),
    "desk3_compare": (COMPARE_3X3, PROBE_3X3_SMALL),
    "probe5": (PROBE_5X5, LEARN_5X5_SMALL),
}


class GateError(Exception):
    """An invocation's outputs failed the correctness gate."""


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        raise GateError(f"{path.name}: {err}") from err


def _l1(a, b) -> float:
    return sum(abs(x - y) for x, y in zip(a, b))


def _tv(a, b) -> float:
    return max(sum(abs(x - y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _check_simplex(values, what: str) -> None:
    if min(values) < -SIMPLEX_TOL or abs(sum(values) - 1.0) > SIMPLEX_TOL:
        raise GateError(f"{what} is not on the simplex")


def _check_bmfe(out: Path) -> dict:
    bmfe = _read_json(out / "bmfe.json")
    if bmfe.get("kind") != "equilibrium" or bmfe.get("converged") is not True:
        raise GateError("bmfe.json does not report a converged solve")
    _check_simplex(bmfe["mean_field"], "bmfe mean field")
    return bmfe


def _check_seed(out: Path, cfg: dict, seed: int, bmfe: dict) -> tuple[float, float]:
    """Checks one learner seed's CSV and summary; returns (l1, tv) to bmfe."""
    try:
        lines = (out / f"episodes_seed{seed}.csv").read_bytes().decode("utf-8").split("\r\n")
    except (OSError, UnicodeDecodeError) as err:
        raise GateError(f"episodes_seed{seed}.csv: {err}") from err
    if lines[0] != CSV_HEADER or lines[-1] != "":
        raise GateError(f"episodes_seed{seed}.csv: bad header or line ending")
    rows = lines[1:-1]
    if len(rows) != cfg["K"]:
        raise GateError(f"episodes_seed{seed}.csv: {len(rows)} rows, expected {cfg['K']}")
    every = cfg.get("diagnostics_every", 1)
    for k, row in enumerate(rows, start=1):
        cells = row.split(",")
        try:
            if len(cells) != 6 or int(cells[0]) != k:
                raise ValueError("wrong cell count or episode index")
            values = [float(c) if c else math.nan for c in cells[1:]]
        except ValueError as err:
            raise GateError(f"episodes_seed{seed}.csv row {k}: {err}") from err
        if not math.isfinite(values[4]):
            raise GateError(f"episodes_seed{seed}.csv row {k} lacks residual_mu")
        if (k - 1) % every == 0 and not all(math.isfinite(v) for v in values):
            raise GateError(f"episodes_seed{seed}.csv row {k} lacks diagnostics")
    summary = _read_json(out / f"summary_seed{seed}.json")
    if summary.get("kind") != "run_summary" or summary.get("seed") != seed:
        raise GateError(f"summary_seed{seed}.json has the wrong kind or seed")
    _check_simplex(summary["avg_mean_field"], "learned mean field")
    for row in summary["avg_policy"]:
        _check_simplex(row, "learned policy row")
    return (
        _l1(summary["avg_mean_field"], bmfe["mean_field"]),
        _tv(summary["avg_policy"], bmfe["policy"]),
    )


def check_outputs(cfg: dict, out: Path) -> dict:
    """Correctness gate for one invocation's output directory.

    Raises GateError; returns the facts the metrics need.
    """
    mode = cfg["mode"]
    if mode == "probe":
        doc = _read_json(out / "contraction.json")
        d = [doc.get(k) for k in ("d1_hat", "d2_hat", "d3_hat", "d_hat")]
        if (
            doc.get("kind") != "contraction_probe"
            or doc.get("num_pairs") != cfg["probe_pairs"]
            or not all(isinstance(v, float) and math.isfinite(v) and v >= 0.0 for v in d)
            or abs(d[0] * d[1] + d[2] - d[3]) > 1e-12
            or doc.get("contraction_verified") is not (d[3] < 1.0)
        ):
            raise GateError("contraction.json is inconsistent")
        return {"d_hat": d[3], "pairs": cfg["probe_pairs"], "expected": {"contraction.json"}}
    bmfe = _check_bmfe(out)
    expected = {"bmfe.json"}
    seeds = [cfg["seed"] + i for i in range(cfg.get("num_seeds", 1) if mode == "compare" else 1)]
    l1s, tvs = [], []
    for seed in seeds:
        l1, tv = _check_seed(out, cfg, seed, bmfe)
        l1s.append(l1)
        tvs.append(tv)
        expected |= {f"episodes_seed{seed}.csv", f"summary_seed{seed}.json"}
    if mode == "compare":
        agg = _read_json(out / "aggregate.json")
        expected.add("aggregate.json")
        if agg.get("kind") != "compare_aggregate" or agg.get("bmfe_converged") is not True:
            raise GateError("aggregate.json does not report a converged solve")
        if agg.get("seeds") != seeds or len(agg.get("per_seed", ())) != len(seeds):
            raise GateError("aggregate.json lists the wrong seeds")
        for entry, l1, tv in zip(agg["per_seed"], l1s, tvs):
            if abs(entry["l1_mean_field"] - l1) > 1e-12 or abs(entry["tv_policy"] - tv) > 1e-12:
                raise GateError("aggregate.json distances disagree with the per-seed summaries")
        l1s, tvs = [agg["median_l1_mean_field"]], [agg["median_tv_policy"]]
    return {
        "l1_mean_field": statistics.median(l1s),
        "tv_policy": statistics.median(tvs),
        "bmfe_iterations": bmfe["iterations"],
        "expected": expected,
        "steps": cfg["K"] * cfg["T"] * len(seeds),
        "episodes": cfg["K"] * len(seeds),
    }


def _digest(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


class Runner:
    """Invokes configs, applies the gate, and keeps per-invocation records."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.digests = {}  # config name -> digest of its first passing outputs

    def invoke(self, name: str, cfg: dict, trace: bool) -> dict | None:
        out = Path(cfg["output_dir"])
        shutil.rmtree(out, ignore_errors=True)
        config_path = self.workdir / f"{name}.json"
        timing_path = self.workdir / f"{name}.timing.json"
        spans_path = self.workdir / f"{name}.spans.json"
        timing_path.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH_DIR / "child.py"), str(SRC), str(config_path), str(timing_path)]
        argv += ["1", str(spans_path)] if trace else ["0"]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        env.pop("PYTHONPATH", None)
        self.attempted += 1
        log = self.workdir / f"{name}.log"
        with open(log, "wb") as fh:
            start = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT)
            try:
                # Waiting on a pidfd sees the exit at once; wait(timeout=...)
                # polls every 50 ms, which would quantize wall_s.
                pidfd = os.pidfd_open(proc.pid)
                try:
                    select.select([pidfd], [], [], CHILD_TIMEOUT_S)
                finally:
                    os.close(pidfd)
                end = time.monotonic()
            finally:
                if proc.poll() is None:
                    proc.kill()
                code = proc.wait()
        try:
            if code != 0:
                raise GateError(f"exit code {code}")
            timing = _read_json(timing_path)
            facts = check_outputs(cfg, out)
            digest = _digest(out)
            if set(digest) != facts["expected"]:
                raise GateError(f"output files {sorted(digest)} != {sorted(facts['expected'])}")
            first = self.digests.setdefault(name, digest)
            if digest != first:
                raise GateError("outputs differ from an earlier run of the same config")
        except GateError as err:
            self.failed += 1
            print(f"FAIL {name}: {err} (log: {log})", file=sys.stderr)
            return None
        stamps = timing["stamps"]
        print(
            f"{name} trace={int(trace)} wall_s={end - start:.4f} setup_s={stamps['first_step'] - start:.4f}",
            file=sys.stderr,
        )
        record = dict(facts)
        record.update(
            wall_s=end - start,
            setup_s=stamps["first_step"] - start,
            startup_s=stamps["main"] - start,
            work_s=end - stamps["first_step"],
            peak_rss_mb=timing["maxrss_kb"] / 1024.0,
            bytes_written=sum((out / f).stat().st_size for f in digest),
            timing=timing,
            spans_path=spans_path if trace else None,
        )
        return record


def _configs(job: Job, role: str, run_seed: int, workdir: Path) -> list[tuple[str, dict]]:
    out = []
    for i in range(job.num_configs):
        name = f"{role}{i}"
        cfg = job.config(run_seed, i, workdir / f"out_{name}")
        (workdir / f"{name}.json").write_text(json.dumps(cfg, indent=2, sort_keys=True), encoding="utf-8")
        out.append((name, cfg))
    return out


def _rate(records: list[dict]) -> float:
    """Median units of work per second after set-up (steps or probe pairs)."""
    return statistics.median(
        (r["steps"] if "steps" in r else r["pairs"]) / r["work_s"] for r in records
    )


def measure_end_to_end(runner: Runner, primary, companion, seconds: float) -> dict:
    deadline = time.monotonic() + seconds
    records = {"primary": [], "companion": []}
    firsts = {}

    def run(role, name, cfg):
        rec = runner.invoke(name, cfg, trace=False)
        if rec is not None:
            records[role].append(rec)
            firsts.setdefault(name, rec)

    # Primary and companion invocations alternate so both see the same
    # machine load. The loop runs every config once and the first of each
    # kind twice (repeats are compared byte for byte), then keeps cycling
    # until the deadline.
    passes = max(len(primary), len(companion)) + 1
    i = 0
    while i < passes or time.monotonic() < deadline:
        run("primary", *primary[i % len(primary)])
        run("companion", *companion[i % len(companion)])
        i += 1
    if not records["primary"] or not records["companion"]:
        return {}

    learn = [r for r in records["primary"] + records["companion"] if "steps" in r]
    probe = [r for r in records["primary"] + records["companion"] if "pairs" in r]
    learn_firsts = [r for r in firsts.values() if "steps" in r]
    probe_firsts = [r for r in firsts.values() if "pairs" in r]
    prim = records["primary"]
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in prim), "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in prim), "s"),
        "learn_steps_per_s": (_rate(learn), "1/s"),
        "probe_pairs_per_s": (_rate(probe), "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in prim), "MB"),
        "l1_mean_field": (statistics.fmean(r["l1_mean_field"] for r in learn_firsts), "L1"),
        "tv_policy": (statistics.fmean(r["tv_policy"] for r in learn_firsts), "TV"),
        "d_hat": (statistics.fmean(r["d_hat"] for r in probe_firsts), "ratio"),
    }


def _layer_metrics(rec: dict) -> dict:
    """Per-layer numbers of one traced invocation."""
    stats = rec["timing"]["stats"]

    def s(name, field):
        return stats.get(name, {}).get(field, 0)

    spans = json.loads(rec["spans_path"].read_text(encoding="utf-8"))["spans"]
    seeds = [sp for sp in spans if sp[1] == "sandbox.run_sandbox"]
    steps = rec.get("steps", 0)
    if steps and s("estimators.TransitionCounter.record", "calls") != steps:
        raise GateError("traced record calls disagree with K*T*seeds")
    if steps and s("estimators.TransitionCounter.reset", "calls") != rec["episodes"]:
        raise GateError("traced counter resets disagree with K*seeds")
    run_s = sum(sp[3] - sp[2] for sp in seeds)
    cpu_s = sum(sp[6] for sp in seeds)
    loop_s = s("sandbox.run_sandbox", "total_s") - s("sandbox.episode_diagnostics", "total_s")
    out = {
        "sandbox.loop_self_s": s("sandbox.run_sandbox", "self_s"),
        "sandbox.step_us": loop_s / steps * 1e6 if steps else 0.0,
        "sandbox.steps": steps,
        "sandbox.episodes": rec.get("episodes", 0),
        "estimators.record_calls": s("estimators.TransitionCounter.record", "calls"),
        "estimators.record_s": s("estimators.TransitionCounter.record", "total_s"),
        "estimators.q_update_calls": s("estimators.QLearner.update", "calls"),
        "estimators.q_update_s": s("estimators.QLearner.update", "total_s"),
        "environment.reward_calls": s("environment.CongestionGridEnv.reward", "calls"),
        "environment.reward_s": s("environment.CongestionGridEnv.reward", "total_s"),
        "sandbox.episode_diagnostics_calls": s("sandbox.episode_diagnostics", "calls"),
        "sandbox.episode_diagnostics_s": s("sandbox.episode_diagnostics", "total_s"),
        "oracle.solve_bmfe_s": s("oracle.solve_bmfe", "total_s"),
        "oracle.solve_bmfe_iterations": rec.get("bmfe_iterations", 0),
        "environment.build_s": s("cli.build_environment", "total_s"),
        "oracle.probe_self_s": s("oracle.probe_contraction", "self_s"),
        "oracle.vi_solves": s("environment.CongestionGridEnv.reward_table", "calls"),
        "oracle.induced_kernel_calls": s("oracle.induced_kernel", "calls"),
        "oracle.induced_kernel_s": s("oracle.induced_kernel", "total_s"),
        "cli.seed_run_s": run_s / len(seeds) if seeds else 0.0,
        "cli.seed_cpu_s": cpu_s / len(seeds) if seeds else 0.0,
        "cli.seed_wait_s": (run_s - cpu_s) / len(seeds) if seeds else 0.0,
        "cli.cores_busy": cpu_s / (max(sp[3] for sp in seeds) - min(sp[2] for sp in seeds)) if seeds else 0.0,
        "cli.write_s": s("cli.write_episode_csv", "total_s") + s("snapshots.write_json", "total_s"),
        "snapshots.bytes_written": rec["bytes_written"],
        "process.startup_s": rec["startup_s"],
        "trace.spans": rec["timing"]["num_spans"],
    }
    for module in MODULES:
        out[f"self.{module}_s"] = sum(v["self_s"] for k, v in stats.items() if k.startswith(module + "."))
    return out


SPECIAL_UNITS = {"snapshots.bytes_written": "bytes", "cli.cores_busy": "cores"}


def _unit(name: str) -> str:
    if name in SPECIAL_UNITS:
        return SPECIAL_UNITS[name]
    if name.endswith("_us"):
        return "us"
    return "s" if name.endswith("_s") else "count"


def measure_per_layer(runner: Runner, primary, seconds: float) -> dict:
    deadline = time.monotonic() + seconds
    samples = []
    i = 0
    while i < 2 or time.monotonic() < deadline:
        name, cfg = primary[i % len(primary)]
        plain = runner.invoke(name, cfg, trace=False)
        traced = runner.invoke(name, cfg, trace=True)
        if plain is not None and traced is not None:
            try:
                samples.append((plain, traced, _layer_metrics(traced)))
            except GateError as err:
                runner.failed += 1
                print(f"FAIL {name} trace: {err}", file=sys.stderr)
        i += 1
    if not samples:
        return {}
    metrics = {}
    for key in samples[0][2]:
        values = [layers[key] for _, _, layers in samples]
        median = statistics.median_low if all(isinstance(v, int) for v in values) else statistics.median
        metrics[key] = (median(values), _unit(key))
    plain_wall = statistics.median(p["wall_s"] for p, _, _ in samples)
    traced_wall = statistics.median(t["wall_s"] for _, t, _ in samples)
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["trace.overhead_ratio"] = ((traced_wall - plain_wall) / plain_wall, "ratio")
    metrics["fail_ratio"] = (runner.failed / runner.attempted, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    primary_job, companion_job = WORKLOADS[args.workload]
    needed = [SRC / "mfg_sandbox" / "cli.py", ROOT / primary_job.base, ROOT / companion_job.base]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: missing {', '.join(missing)}; run from a checkout of the repository", file=sys.stderr)
        return 2

    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    print(
        f"machine: nproc={NPROC} python={sys.version.split()[0]} workload={args.workload} seed={args.seed}",
        file=sys.stderr,
    )
    runner = Runner(workdir)
    primary = _configs(primary_job, "primary", args.seed, workdir)
    if args.trace:
        metrics = measure_per_layer(runner, primary, args.seconds)
    else:
        companion = _configs(companion_job, "companion", args.seed, workdir)
        metrics = measure_end_to_end(runner, primary, companion, args.seconds)
    correct = runner.failed == 0 and bool(metrics)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
