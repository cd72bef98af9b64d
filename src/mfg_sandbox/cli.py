"""Experiment configuration and orchestration.

Experiments are described by a flat JSON config whose keys are the run
fields of ExperimentConfig and the fields of ScheduleParams (with "lambda"
for lam), plus an "environment" object with a "kind" and the fields of
CongestionGridParams; unknown keys, values of the wrong JSON type and
out-of-range values are rejected at load time. A config runs in one of four
modes: "sandbox" (one instrumented learning run), "oracle" (equilibrium
solve only), "compare" (oracle solve plus num_seeds learning runs, one after
another, and a joint report), and "probe" (empirical operator-Lipschitz
estimate). The reference solve and the probe take no solver settings from
the config: they run at the library defaults, and solve_bmfe tunes its own
damping. Outputs are CSV and JSON files in output_dir; identical config
and seed reproduce identical bytes, so wall-clock time is logged rather than
written into the summary files.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import json
import logging
import math
import statistics
import sys
import time
import types
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import snapshots
from .core import l1_norm, tv_norm
from .environment import CongestionGridParams, make_congestion_env, make_two_class_env
from .oracle import VI_MAX_ITER, VI_TOL, BmfePair, probe_contraction, solve_bmfe
from .sandbox import EpisodeDiagnostics, NonFiniteError, SandboxConfig, run_sandbox
from .schedules import ScheduleParams, build_epsilon_net

logger = logging.getLogger("mfg_sandbox")

MODES = ("sandbox", "oracle", "compare", "probe")
_ENV_FACTORIES = {"congestion": make_congestion_env, "two_class": make_two_class_env}

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NON_FINITE = 2
EXIT_IO = 3

CSV_COLUMNS = ("k", "e_pi", "e_mu", "eps_P", "eps_Q", "residual_mu")

# JSON key -> dataclass field, for names Python reserves.
_KEY_ALIASES = {"lambda": "lam"}
_FIELD_ALIASES = {v: k for k, v in _KEY_ALIASES.items()}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated experiment description.

    env_kind is the config's environment.kind; epsilon_net_mesh None turns
    the projection off.
    """

    mode: str
    env_kind: str
    environment: CongestionGridParams
    schedule: ScheduleParams = ScheduleParams()
    epsilon_net_mesh: float | None = None
    K: int = 300
    T: int = 50_000
    rho: float = 0.7
    seed: int = 0
    num_seeds: int = 1
    output_dir: str = "runs"
    diagnostics_every: int = 1
    probe_pairs: int = 64

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.env_kind not in _ENV_FACTORIES:
            kinds = tuple(_ENV_FACTORIES)
            raise ValueError(f"environment kind must be one of {kinds}, got {self.env_kind!r}")
        if self.env_kind == "two_class" and self.environment.side != 5:
            raise ValueError("environment side must be 5 for kind two_class")
        if self.K < 2:
            raise ValueError("K (episodes) must be >= 2")
        if self.T < 2:
            raise ValueError("T (steps per episode) must be >= 2")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")
        # From Q = 0, value iteration's sweep k moves Q by at most
        # rho^(k-1) (1 + rho) / (1 - rho) (oracle._value_iteration's
        # contraction) and stops once that is <= VI_TOL (1 - rho) / rho.
        sweeps = math.ceil(math.log(VI_TOL * (1.0 - self.rho) ** 2 / (1.0 + self.rho)) / math.log(self.rho))
        if sweeps > VI_MAX_ITER:
            raise ValueError(f"rho too close to 1: value iteration may need {sweeps} sweeps (cap {VI_MAX_ITER})")
        # lambda * q stays finite on Q-tables in [0, 1/(1 - rho)], with 2x to spare for q's rounding
        if not self.schedule.lam / (1.0 - self.rho) <= sys.float_info.max / 2:
            raise ValueError("lambda is too large: lambda / (1 - rho) must not pass half the largest double")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.num_seeds < 1:
            raise ValueError("num_seeds must be >= 1")
        if self.diagnostics_every < 1:
            raise ValueError("diagnostics_every must be >= 1")
        if self.probe_pairs < 1:
            raise ValueError("probe_pairs must be >= 1")
        # Any one point covers the simplex within L1 radius 2, so a mesh >= 2
        # guarantees nothing.
        if self.epsilon_net_mesh is not None:
            if not 0.0 < self.epsilon_net_mesh < 2.0:
                raise ValueError("epsilon_net_mesh must be null or lie in (0, 2)")
            if not math.isfinite(self.environment.side**2 / self.epsilon_net_mesh):
                raise ValueError("epsilon_net_mesh is too small: side * side / mesh overflows")


_SCHEDULE_KEYS = {_FIELD_ALIASES.get(f.name, f.name) for f in dataclasses.fields(ScheduleParams)}
_RUN_KEYS = tuple(
    f.name
    for f in dataclasses.fields(ExperimentConfig)
    if f.name not in ("env_kind", "environment", "schedule")
)
_ENV_KEYS = {f.name for f in dataclasses.fields(CongestionGridParams)}

# Declared type of every JSON key, and the JSON values each scalar type
# accepts. No key takes a boolean, which Python counts as an int. Other
# types, such as the environment object and favorable_states, are checked
# by the code that parses them.
_CONFIG_TYPES = {
    **typing.get_type_hints(ExperimentConfig),
    **{_FIELD_ALIASES.get(k, k): v for k, v in typing.get_type_hints(ScheduleParams).items()},
}
_ENV_TYPES = {**typing.get_type_hints(CongestionGridParams), "kind": str}
_JSON_TYPES = {
    int: ("an integer", int),
    float: ("a number", (int, float)),
    str: ("a string", str),
}


def _check_keys(given: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(given) - allowed)
    if unknown:
        raise ValueError(f"unknown {where} keys: {', '.join(unknown)}")


def _check_types(given: dict, declared: dict) -> None:
    for key, value in given.items():
        kind = declared[key]
        if isinstance(kind, types.UnionType):  # X | None
            if value is None:
                continue
            (kind,) = set(typing.get_args(kind)) - {type(None)}
        if kind not in _JSON_TYPES:
            continue
        name, accepted = _JSON_TYPES[kind]
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ValueError(f"{key} must be {name}, got {json.dumps(value)}")


def _reject_constant(name: str):
    raise ValueError(f"config numbers must be finite, got {name}")


def load_config(path) -> ExperimentConfig:
    """Parse and validate a JSON config file (unknown keys are rejected).

    Python's json module reads the NaN, Infinity and -Infinity literals,
    which JSON itself lacks; a config holding one is rejected.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as err:
        raise ValueError(f"config parse error at {path}:{err.lineno}:{err.colno}: {err.msg}") from err
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    _check_keys(raw, {*_RUN_KEYS, *_SCHEDULE_KEYS, "environment"}, "config")

    env_raw = raw.get("environment")
    if not isinstance(env_raw, dict):
        raise ValueError("config requires an 'environment' object")
    _check_keys(env_raw, _ENV_KEYS | {"kind"}, "environment")
    if "kind" not in env_raw:
        raise ValueError("environment requires a 'kind'")
    if "mode" not in raw:
        raise ValueError("config requires a 'mode'")
    _check_types(raw, _CONFIG_TYPES)
    _check_types(env_raw, _ENV_TYPES)
    schedule = {_KEY_ALIASES.get(k, k): v for k, v in raw.items() if k in _SCHEDULE_KEYS}
    return ExperimentConfig(
        env_kind=env_raw["kind"],
        environment=CongestionGridParams(**{k: v for k, v in env_raw.items() if k != "kind"}),
        schedule=ScheduleParams(**schedule),
        **{k: v for k, v in raw.items() if k in _RUN_KEYS},
    )


def build_environment(cfg: ExperimentConfig):
    return _ENV_FACTORIES[cfg.env_kind](cfg.environment)


def _format_number(x: float) -> str:
    return "" if math.isnan(x) else format(x, ".17g")


def write_episode_csv(path, episodes) -> None:
    """Per-episode diagnostics table; blank cells stand for NaN."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for d in episodes:
            writer.writerow(
                [d.k]
                + [_format_number(v) for v in (d.e_pi, d.e_mu, d.eps_P, d.eps_Q, d.residual_mu)]
            )


def read_episode_csv(path) -> list[EpisodeDiagnostics]:
    """Load a per-episode CSV back into diagnostics records."""
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV columns in {path}: {reader.fieldnames}")
        for row in reader:
            values = {
                name: (math.nan if row[name] == "" else float(row[name]))
                for name in CSV_COLUMNS[1:]
            }
            out.append(EpisodeDiagnostics(k=int(row["k"]), **values))
    return out


def _solve_reference(cfg: ExperimentConfig, env, out_dir: Path) -> BmfePair:
    """Solve for the reference equilibrium, warn if unconverged, and write bmfe.json."""
    pair = solve_bmfe(env, lam=cfg.schedule.lam, rho=cfg.rho)
    if not pair.converged:
        logger.warning(
            "equilibrium solve did not converge: stopped after %d iterations "
            "with residual_mu=%g at damping %g",
            pair.iterations,
            pair.residual_mu,
            pair.damping,
        )
    snapshots.write_json(out_dir / "bmfe.json", snapshots.equilibrium_snapshot(pair))
    return pair


def _run_one_seed(cfg: ExperimentConfig, env, reference: BmfePair, seed: int, out_dir: Path):
    net = None
    if cfg.epsilon_net_mesh is not None:
        net = build_epsilon_net(env.num_states, cfg.epsilon_net_mesh)
    run_config = SandboxConfig(
        env=env,
        schedule=cfg.schedule,
        num_episodes=cfg.K,
        steps_per_episode=cfg.T,
        rho=cfg.rho,
        seed=seed,
        net=net,
        reference=reference,
        diagnostics_every=cfg.diagnostics_every,
    )
    started = time.perf_counter()
    result = run_sandbox(run_config)
    elapsed = time.perf_counter() - started
    logger.info("seed %d finished in %.1f s", seed, elapsed)
    write_episode_csv(out_dir / f"episodes_seed{seed}.csv", result.per_episode)
    summary = {
        "schema_version": snapshots.SCHEMA_VERSION,
        "kind": "run_summary",
        "seed": seed,
        "num_episodes": cfg.K,
        "steps_per_episode": cfg.T,
        "avg_mean_field": result.avg_mean_field.tolist(),
        "avg_policy": result.avg_policy.tolist(),
        "min_policy_entry": result.min_policy_entry,
    }
    snapshots.write_json(out_dir / f"summary_seed{seed}.json", summary)
    return result


def _run_sandbox_mode(cfg: ExperimentConfig, out_dir: Path) -> int:
    env = build_environment(cfg)
    _run_one_seed(cfg, env, _solve_reference(cfg, env, out_dir), cfg.seed, out_dir)
    return EXIT_OK


def _run_oracle_mode(cfg: ExperimentConfig, out_dir: Path) -> int:
    _solve_reference(cfg, build_environment(cfg), out_dir)
    return EXIT_OK


def _run_probe_mode(cfg: ExperimentConfig, out_dir: Path) -> int:
    env = build_environment(cfg)
    rng = np.random.default_rng(cfg.seed)
    estimate = probe_contraction(env, cfg.schedule.lam, cfg.rho, cfg.probe_pairs, rng)
    snapshots.write_json(
        out_dir / "contraction.json",
        {
            "schema_version": snapshots.SCHEMA_VERSION,
            "kind": "contraction_probe",
            "seed": cfg.seed,
            "num_pairs": estimate.num_pairs,
            "d1_hat": estimate.d1_hat,
            "d2_hat": estimate.d2_hat,
            "d3_hat": estimate.d3_hat,
            "d_hat": estimate.d_hat,
            "contraction_verified": estimate.d_hat < 1.0,
        },
    )
    return EXIT_OK


def _run_compare_mode(cfg: ExperimentConfig, out_dir: Path) -> int:
    env = build_environment(cfg)
    pair = _solve_reference(cfg, env, out_dir)
    seeds = [cfg.seed + i for i in range(cfg.num_seeds)]
    results = [_run_one_seed(cfg, env, pair, seed, out_dir) for seed in seeds]
    per_seed = [
        {
            "seed": seed,
            "l1_mean_field": l1_norm(res.avg_mean_field - pair.mean_field),
            "tv_policy": tv_norm(res.avg_policy - pair.policy),
        }
        for seed, res in zip(seeds, results)
    ]
    aggregate = {
        "schema_version": snapshots.SCHEMA_VERSION,
        "kind": "compare_aggregate",
        "seeds": seeds,
        "per_seed": per_seed,
        "median_l1_mean_field": statistics.median(r["l1_mean_field"] for r in per_seed),
        "median_tv_policy": statistics.median(r["tv_policy"] for r in per_seed),
        "bmfe_converged": pair.converged,
    }
    snapshots.write_json(out_dir / "aggregate.json", aggregate)
    return EXIT_OK


_MODE_RUNNERS = {
    "sandbox": _run_sandbox_mode,
    "oracle": _run_oracle_mode,
    "probe": _run_probe_mode,
    "compare": _run_compare_mode,
}


def run_experiment(cfg: ExperimentConfig) -> int:
    """Execute one experiment; returns a process exit code."""
    out_dir = Path(cfg.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        code = _MODE_RUNNERS[cfg.mode](cfg, out_dir)
        logger.info("mode %s finished in %.1f s", cfg.mode, time.perf_counter() - started)
        return code
    except NonFiniteError as err:
        logger.error("%s; state snapshot written to abort_snapshot.json", err)
        try:
            snapshots.write_json(out_dir / "abort_snapshot.json", err.snapshot)
        except OSError:
            logger.error("could not write abort snapshot")
        return EXIT_NON_FINITE
    except OSError as err:
        logger.error("I/O failure: %s", err)
        return EXIT_IO


def main(argv=None) -> int:
    """Command-line entry: parse argv, load and override the config, run it; returns the exit code.

    The mfg-sandbox console script and python -m mfg_sandbox.cli enter here.
    After a run, main freezes the garbage collector's heap (gc.freeze)
    before it returns. At exit the interpreter otherwise collects every
    container still alive, some 23k objects, most of them from numpy's and
    the package's imports: about 30 ms after a 600-pair 5x5 probe, longer
    than the probe. Frozen objects are skipped, and the exit takes about 9
    ms, near a bare interpreter's. main does not call gc.collect() first,
    which costs more than it saves, nor gc.disable(), os._exit or an atexit
    hook, so other exit handlers, and code that runs after main returns,
    are unaffected. A usage error freezes nothing; run_experiment and
    library callers leave the collector as it is.
    """
    parser = argparse.ArgumentParser(
        prog="mfg-sandbox",
        description="Learn and verify Boltzmann mean-field equilibria on grid congestion games.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--output-dir", default=None, help="override the config output_dir")
    parser.add_argument("--mode", default=None, choices=MODES, help="override the config mode")
    parser.add_argument("--quiet", action="store_true", help="suppress progress logging")
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = load_config(args.config)
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.output_dir is not None:
            overrides["output_dir"] = args.output_dir
        if args.mode is not None:
            overrides["mode"] = args.mode
        if overrides:
            cfg = dataclasses.replace(cfg, **overrides)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    code = run_experiment(cfg)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(main())
