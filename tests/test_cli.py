import ast
import dataclasses
import gc
import hashlib
import json
import logging
import math
import os
import platform
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import mfg_sandbox
from mfg_sandbox import _step_kernel, cli, oracle, snapshots
from mfg_sandbox.oracle import VI_MAX_ITER
from mfg_sandbox.sandbox import NonFiniteError, run_sandbox


BASE_CONFIG = {
    "mode": "sandbox",
    "environment": {"kind": "congestion", "side": 3},
    "K": 3,
    "T": 60,
    "rho": 0.7,
    "seed": 5,
    "output_dir": "out",
}


@pytest.fixture(autouse=True)
def unfreeze_after_main():
    # cli.main freezes the collector's heap for the exit; the rest of the
    # suite runs in this process and must collect as usual
    yield
    gc.unfreeze()


def write_config(tmp_path, overrides=None, name="config.json"):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc.update(overrides or {})
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_load_config_defaults_and_values(tmp_path):
    cfg = cli.load_config(write_config(tmp_path))
    assert cfg.mode == "sandbox"
    assert cfg.env_kind == "congestion"
    assert cfg.K == 3 and cfg.T == 60
    assert cfg.schedule.c_mu == 0.5 and cfg.schedule.lam == 1.0
    assert cfg.epsilon_net_mesh is None
    environment = {"kind": "congestion", "side": 3, "favorable_states": [[2, 2], [2, 3]]}
    cfg = cli.load_config(write_config(tmp_path, {"environment": environment}))
    assert cfg.environment.favorable_states == ((2, 2), (2, 3))


def test_load_config_reads_lambda_key(tmp_path):
    cfg = cli.load_config(write_config(tmp_path, {"lambda": 2.5}))
    assert cfg.schedule.lam == 2.5


def test_shipped_configs_parse_and_match_published_values():
    configs = Path(__file__).resolve().parent.parent / "configs"
    full = cli.load_config(configs / "full_grid_5x5.json")
    assert full.environment.side == 5
    assert full.environment.jostle_p == 0.1
    assert full.environment.congestion_c == 0.5
    assert full.rho == 0.7
    assert (full.schedule.c_beta, full.schedule.nu) == (5.0, 0.55)
    assert (full.T, full.K) == (50_000, 300)
    assert (full.schedule.c_mu, full.schedule.c_pi) == (0.5, 0.5)
    assert (full.schedule.theta, full.schedule.gamma) == (0.55, 0.6)
    assert full.epsilon_net_mesh is None
    for name in ("two_class_5x5", "desk_3x3_compare", "probe_3x3"):
        cli.load_config(configs / f"{name}.json")


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown config keys: lamda"):
        cli.load_config(write_config(tmp_path, {"lamda": 1.0}))
    with pytest.raises(ValueError, match="unknown config keys: use_projection"):
        cli.load_config(write_config(tmp_path, {"use_projection": True}))
    with pytest.raises(ValueError, match="unknown config keys: validate_every"):
        cli.load_config(write_config(tmp_path, {"validate_every": 1}))
    with pytest.raises(ValueError, match="unknown config keys: constant_psi"):
        cli.load_config(write_config(tmp_path, {"constant_psi": False}))
    # the reference solve takes no settings from the config
    for key, value in [("damping", 0.2), ("bmfe_tol", 1e-9), ("bmfe_max_iter", 100), ("vi_tol", 1e-11)]:
        with pytest.raises(ValueError, match=f"unknown config keys: {key}"):
            cli.load_config(write_config(tmp_path, {key: value}))
    with pytest.raises(ValueError, match="unknown environment keys"):
        cli.load_config(write_config(tmp_path, {"environment": {"kind": "congestion", "p": 0.1}}))


def test_constraint_violations_name_the_field(tmp_path):
    with pytest.raises(ValueError, match="theta"):
        cli.load_config(write_config(tmp_path, {"theta": 0.7, "gamma": 0.6}))
    with pytest.raises(ValueError, match="mode"):
        cli.load_config(write_config(tmp_path, {"mode": "train"}))
    with pytest.raises(ValueError, match="rho"):
        cli.load_config(write_config(tmp_path, {"rho": 1.5}))
    for key, value in [
        ("epsilon_net_mesh", 0.0),
        ("epsilon_net_mesh", 2.0),
        ("seed", -1),
        ("K", "3"),
        ("K", 3.0),
        ("lambda", True),
        ("output_dir", 7),
        ("epsilon_net_mesh", "0.5"),
        ("epsilon_net_mesh", 1e-320),
    ]:
        with pytest.raises(ValueError, match=key):
            cli.load_config(write_config(tmp_path, {key: value}))
    for key, environment in [
        ("jostle_p", {"kind": "congestion", "jostle_p": 1.5}),
        ("side", {"kind": "congestion", "side": 0}),
        ("favorable_states", {"kind": "congestion", "side": 3, "favorable_states": [[9, 9]]}),
        ("side", {"kind": "two_class", "side": 3}),
        ("congestion_c", {"kind": "congestion", "congestion_c": 5}),
        ("congestion_c", {"kind": "congestion", "congestion_c": 1.01}),
        ("side", {"kind": "congestion", "side": "3"}),
        ("kind", {"kind": ["congestion"]}),
        ("favorable_states", {"kind": "congestion", "favorable_states": 5}),
        ("favorable_states", {"kind": "congestion", "favorable_states": [[1]]}),
        ("favorable_states", {"kind": "congestion", "favorable_states": [[1, 1.5]]}),
        ("favorable_states", {"kind": "congestion", "favorable_states": [[True, True]]}),
    ]:
        with pytest.raises(ValueError, match=key):
            cli.load_config(write_config(tmp_path, {"environment": environment}))


@pytest.mark.parametrize("value, literal", [(math.nan, "NaN"), (math.inf, "Infinity"), (-math.inf, "-Infinity")])
def test_non_finite_number_literals_rejected(tmp_path, value, literal):
    # json.dumps writes these literals, which JSON itself lacks, and Python's
    # json reads them; as c_beta they would make every Q step size min(1, .) = 1
    with pytest.raises(ValueError, match=f"config numbers must be finite, got {literal}"):
        cli.load_config(write_config(tmp_path, {"c_beta": value}))


def test_readme_config_reference_lists_every_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config reference\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"`([^`]+)`", section))
    accepted = {*cli._RUN_KEYS, *cli._SCHEDULE_KEYS, "environment", *cli._ENV_KEYS, "kind"}
    assert sorted(accepted - documented) == []
    retired = ("use_projection", "validate_every", "damping", "bmfe_tol", "bmfe_max_iter", "vi_tol", "constant_psi")
    assert [key for key in retired if f"`{key}`" in section] == []


def test_readme_library_example_imports_public_names():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"from mfg_sandbox import \(([^)]*)\)", section)
    assert block is not None
    names = {name.strip() for name in block.group(1).split(",") if name.strip()}
    assert names and sorted(names - set(mfg_sandbox.__all__)) == []


def test_no_module_imports_a_private_name_of_another():
    # a private module (from . import _step_kernel) is allowed; a private
    # name from a sibling module is an undocumented fork of its public form.
    # The test environments too are built from the public contract alone.
    package = Path(mfg_sandbox.__file__).resolve().parent
    paths = [*sorted(package.glob("*.py")), Path(__file__).resolve().parent / "fixed_mdp.py"]
    private = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module
        and (node.level or node.module.startswith("mfg_sandbox."))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_parse_error_carries_line_info(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "mode": "sandbox",\n  oops\n}', encoding="utf-8")
    with pytest.raises(ValueError, match=r"broken\.json:3"):
        cli.load_config(path)


def test_sandbox_mode_outputs(tmp_path):
    out = tmp_path / "run"
    cfg = dataclasses.replace(cli.load_config(write_config(tmp_path)), output_dir=str(out))
    assert cli.run_experiment(cfg) == cli.EXIT_OK
    episodes = out / "episodes_seed5.csv"
    summary = out / "summary_seed5.json"
    bmfe = out / "bmfe.json"
    assert episodes.exists() and summary.exists() and bmfe.exists()

    rows = cli.read_episode_csv(episodes)
    assert [d.k for d in rows] == [1, 2, 3]
    assert all(not math.isnan(d.e_mu) for d in rows)

    doc = snapshots.read_json(summary)
    assert doc["seed"] == 5
    assert len(doc["avg_mean_field"]) == 9
    ref = snapshots.read_json(bmfe)
    assert ref["residual_mu"] <= 1e-8 and ref["converged"]


def test_csv_round_trip_preserves_values(tmp_path):
    out = tmp_path / "run"
    cfg = dataclasses.replace(cli.load_config(write_config(tmp_path)), output_dir=str(out))
    cli.run_experiment(cfg)
    path = out / "episodes_seed5.csv"
    rows = cli.read_episode_csv(path)
    cli.write_episode_csv(out / "again.csv", rows)
    assert (out / "again.csv").read_bytes() == path.read_bytes()


def test_csv_uses_crlf_and_fixed_header(tmp_path):
    out = tmp_path / "run"
    cfg = dataclasses.replace(cli.load_config(write_config(tmp_path)), output_dir=str(out))
    cli.run_experiment(cfg)
    raw = (out / "episodes_seed5.csv").read_bytes()
    assert raw.startswith(b"k,e_pi,e_mu,eps_P,eps_Q,residual_mu\r\n")


def test_compare_mode_emits_per_seed_and_aggregate(tmp_path):
    out = tmp_path / "cmp"
    cfg = dataclasses.replace(
        cli.load_config(write_config(tmp_path, {"mode": "compare", "num_seeds": 2})),
        output_dir=str(out),
    )
    assert cli.run_experiment(cfg) == cli.EXIT_OK
    assert (out / "episodes_seed5.csv").exists()
    assert (out / "episodes_seed6.csv").exists()
    agg = snapshots.read_json(out / "aggregate.json")
    assert agg["seeds"] == [5, 6]
    assert len(agg["per_seed"]) == 2
    values = sorted(r["l1_mean_field"] for r in agg["per_seed"])
    assert agg["median_l1_mean_field"] == pytest.approx(sum(values) / 2)


def test_probe_mode_output(tmp_path):
    out = tmp_path / "probe"
    cfg = dataclasses.replace(
        cli.load_config(write_config(tmp_path, {"mode": "probe", "probe_pairs": 5})),
        output_dir=str(out),
    )
    assert cli.run_experiment(cfg) == cli.EXIT_OK
    doc = snapshots.read_json(out / "contraction.json")
    assert doc["num_pairs"] == 5
    assert doc["d_hat"] == pytest.approx(doc["d1_hat"] * doc["d2_hat"] + doc["d3_hat"])
    assert doc["contraction_verified"] == (doc["d_hat"] < 1.0)


def test_oracle_mode_output(tmp_path):
    out = tmp_path / "oracle"
    cfg = dataclasses.replace(
        cli.load_config(write_config(tmp_path, {"mode": "oracle"})), output_dir=str(out)
    )
    assert cli.run_experiment(cfg) == cli.EXIT_OK
    doc = snapshots.read_json(out / "bmfe.json")
    assert doc["kind"] == "equilibrium"
    assert len(doc["mean_field"]) == 9
    assert len(doc["policy"]) == 9
    # the solver trace: damped iterations and the value-iteration sweeps behind them
    assert doc["vi_sweeps"] > doc["iterations"] > 0
    # the solver settings are recorded from the solved pair: the library
    # defaults, and the damping the solve ended with
    assert set(doc) == {
        "schema_version", "kind", "mean_field", "policy", "residual_policy", "residual_mu",
        "converged", "iterations", "vi_sweeps", "lambda", "rho", "damping", "tol",
    }
    assert (doc["lambda"], doc["rho"], doc["damping"], doc["tol"]) == (1.0, 0.7, 0.5, 1e-8)
    assert doc["converged"] is True


def test_two_class_environment_via_config(tmp_path):
    out = tmp_path / "tc"
    cfg = dataclasses.replace(
        cli.load_config(
            write_config(tmp_path, {"mode": "oracle", "environment": {"kind": "two_class", "side": 5}})
        ),
        output_dir=str(out),
    )
    assert cli.run_experiment(cfg) == cli.EXIT_OK


def test_main_flag_overrides(tmp_path, capsys):
    config = write_config(tmp_path, {"mode": "oracle"})
    out = tmp_path / "cli_out"
    code = cli.main(
        ["--config", str(config), "--mode", "probe", "--seed", "9", "--output-dir", str(out), "--quiet"]
    )
    assert code == cli.EXIT_OK
    doc = snapshots.read_json(out / "contraction.json")
    assert doc["seed"] == 9
    assert gc.get_freeze_count() > 0  # frozen for the exit after a run


def test_main_rejects_bad_config(tmp_path, capsys):
    out = tmp_path / "never"
    for key, overrides, flags in [
        ("theta", {"theta": 0.9}, []),
        ("jostle_p", {"environment": {"kind": "congestion", "jostle_p": 1.5}}, []),
        ("seed", {"seed": -1}, []),
        ("seed", {}, ["--seed", "-1"]),
        ("K", {"K": "3"}, []),
        ("favorable_states", {"environment": {"kind": "congestion", "favorable_states": 5}}, []),
        ("favorable_states", {"environment": {"kind": "congestion", "favorable_states": [[True, True]]}}, []),
        ("epsilon_net_mesh", {"epsilon_net_mesh": 1e-320}, []),
        # lambda * q overflows: the probe wrote d1_hat 0 from NaN policies,
        # the oracle died in value iteration on a NaN mean-field
        ("lambda", {"mode": "probe", "lambda": 1e308}, []),
        ("lambda", {"mode": "oracle", "lambda": 1e308}, []),
        # value iteration could run out of sweeps and end in a traceback
        ("rho", {"mode": "oracle", "rho": 0.999999}, []),
    ]:
        config = write_config(tmp_path, {**overrides, "output_dir": str(out)})
        assert cli.main(["--config", str(config), "--quiet", *flags]) == cli.EXIT_USAGE
        assert key in capsys.readouterr().err
        assert not out.exists()


def test_rho_and_lambda_load_up_to_their_bounds(tmp_path):
    # the shipped configs load in test_shipped_configs_parse_and_match_published_values
    assert cli.load_config(write_config(tmp_path, {"rho": 0.999})).rho == 0.999
    # value iteration from Q = 0 may need some 5e7 sweeps at this rho
    with pytest.raises(ValueError, match=f"rho .*cap {VI_MAX_ITER}"):
        cli.load_config(write_config(tmp_path, {"rho": 0.999999}))
    # at rho = 1/2 the bound lambda / (1 - rho) <= max / 2 is lambda <= max / 4
    largest = sys.float_info.max / 4
    assert cli.load_config(write_config(tmp_path, {"rho": 0.5, "lambda": largest})).schedule.lam == largest
    with pytest.raises(ValueError, match="lambda"):
        cli.load_config(write_config(tmp_path, {"rho": 0.5, "lambda": largest * 1.5}))


def test_main_missing_file(tmp_path, capsys):
    assert cli.main(["--config", str(tmp_path / "none.json"), "--quiet"]) == cli.EXIT_USAGE
    assert gc.get_freeze_count() == 0  # no run, nothing frozen


def test_console_entry_writes_what_run_experiment_writes(tmp_path):
    # the real entry, whose exit runs on a frozen heap, in a process of its own
    shipped = Path(__file__).resolve().parent.parent / "configs" / "probe_3x3.json"
    config = tmp_path / "probe.json"
    config.write_text(json.dumps({**json.loads(shipped.read_text(encoding="utf-8")), "probe_pairs": 50}))
    src = Path(mfg_sandbox.__file__).resolve().parent.parent
    console, in_process = tmp_path / "console", tmp_path / "in_process"
    subprocess.run(
        [sys.executable, "-m", "mfg_sandbox.cli", "--config", str(config), "--output-dir", str(console), "--quiet"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        check=True,
        timeout=120,
    )
    cfg = dataclasses.replace(cli.load_config(config), output_dir=str(in_process))
    assert cli.run_experiment(cfg) == cli.EXIT_OK
    assert (console / "contraction.json").read_bytes() == (in_process / "contraction.json").read_bytes()


def test_non_finite_abort_writes_snapshot_and_exit_code(tmp_path, monkeypatch):
    out = tmp_path / "abort"
    cfg = dataclasses.replace(cli.load_config(write_config(tmp_path)), output_dir=str(out))
    snapshot = {"schema_version": snapshots.SCHEMA_VERSION, "kind": "run_state"}

    def explode(config):
        raise NonFiniteError(2, 17, snapshot)

    monkeypatch.setattr(cli, "run_sandbox", explode)
    assert cli.run_experiment(cfg) == cli.EXIT_NON_FINITE
    assert snapshots.read_json(out / "abort_snapshot.json") == snapshot


def test_io_failure_exit_code(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory", encoding="utf-8")
    cfg = dataclasses.replace(
        cli.load_config(write_config(tmp_path)), output_dir=str(blocker / "nested")
    )
    assert cli.run_experiment(cfg) == cli.EXIT_IO


def test_outputs_are_byte_identical_across_reruns(tmp_path):
    config = write_config(tmp_path, {"mode": "compare", "num_seeds": 2})

    def run(out_name):
        out = tmp_path / out_name
        cfg = dataclasses.replace(cli.load_config(config), output_dir=str(out))
        assert cli.run_experiment(cfg) == cli.EXIT_OK
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    first = run("a")
    second = run("b")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between reruns"


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
OUTPUT_DIGESTS = Path(__file__).resolve().parent / "output_digests.json"


def check_output_digests(config: str, files: dict) -> None:
    """Compare the SHA-256 of config's output files with those in OUTPUT_DIGESTS.

    The digests hold for the numpy and libc they were made with. Under any
    other version the comparison is skipped, and a warning says so.
    """
    recorded = json.loads(OUTPUT_DIGESTS.read_text(encoding="utf-8"))
    running = {"numpy": np.__version__, "libc": " ".join(platform.libc_ver())}
    made_with = {key: recorded[key] for key in running}
    if running != made_with:
        warnings.warn(f"{config}: output digests not compared; they were made with {made_with}, this is {running}")
        return
    expected = recorded["digests"][config]
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
    moved = [f"{name} now {digest}" for name, digest in digests.items() if expected.get(name) != digest]
    moved += [f"{name} not written" for name in sorted(expected.keys() - digests.keys())]
    assert not moved, f"{config}: outputs moved from {OUTPUT_DIGESTS.name}: " + "; ".join(moved)


@pytest.mark.parametrize("shipped", SHIPPED_CONFIGS, ids=lambda path: path.stem)
def test_shipped_config_writes_the_same_files_without_the_extension(tmp_path, shipped):
    # Cut to K = 3, T = 400 and at most two seeds. The second run takes
    # every reference loop, as on a host without a compiler: the learner
    # step, value iteration and the probe block. The first run's files must
    # also match their committed digests.
    if _step_kernel.load() is None:
        pytest.skip("the compiled extension could not be built here")
    doc = json.loads(shipped.read_text(encoding="utf-8"))
    doc.update(K=3, T=400)
    if "num_seeds" in doc:
        doc["num_seeds"] = min(doc["num_seeds"], 2)
    config = tmp_path / shipped.name
    config.write_text(json.dumps(doc), encoding="utf-8")

    def run(out_name):
        out = tmp_path / out_name
        cfg = dataclasses.replace(cli.load_config(config), output_dir=str(out))
        assert cli.run_experiment(cfg) == cli.EXIT_OK
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    compiled = run("compiled")
    with mock.patch.object(_step_kernel, "load", return_value=None):
        reference = run("reference")
    assert compiled.keys() == reference.keys()
    for name in compiled:
        assert compiled[name] == reference[name], f"{name} differs without the extension"
    check_output_digests(shipped.stem, compiled)


@pytest.mark.parametrize("mode", ["sandbox", "compare", "oracle"])
def test_unconverged_reference_warns_in_every_mode(tmp_path, caplog, monkeypatch, mode):
    monkeypatch.setattr(oracle, "BMFE_MAX_ITER", 2)
    out = tmp_path / mode
    cfg = dataclasses.replace(
        cli.load_config(write_config(tmp_path, {"mode": mode, "T": 10})), output_dir=str(out)
    )
    with caplog.at_level(logging.WARNING, logger="mfg_sandbox"):
        assert cli.run_experiment(cfg) == cli.EXIT_OK
    doc = snapshots.read_json(out / "bmfe.json")
    assert doc["converged"] is False
    warnings = [rec.getMessage() for rec in caplog.records if "did not converge" in rec.getMessage()]
    expected = f"after 2 iterations with residual_mu={doc['residual_mu']:g} at damping {doc['damping']:g}"
    assert len(warnings) == 1 and expected in warnings[0]


@pytest.mark.parametrize("mesh, resolution", [(None, None), (1.5, 6)])
def test_epsilon_net_mesh_alone_selects_projection(tmp_path, monkeypatch, mesh, resolution):
    nets = []

    def spy(config):
        nets.append(config.net)
        return run_sandbox(config)

    monkeypatch.setattr(cli, "run_sandbox", spy)
    overrides = {"epsilon_net_mesh": mesh, "output_dir": str(tmp_path / "out")}
    cfg = cli.load_config(write_config(tmp_path, overrides))
    assert cfg.epsilon_net_mesh == mesh
    assert cli.run_experiment(cfg) == cli.EXIT_OK
    assert [None if net is None else net.resolution for net in nets] == [resolution]


def test_projection_keeps_requested_mesh_on_5x5(tmp_path, caplog):
    out = tmp_path / "proj"
    overrides = {
        "environment": {"kind": "congestion", "side": 5},
        "epsilon_net_mesh": 0.5,
        "K": 2,
        "T": 5,
    }
    cfg = dataclasses.replace(cli.load_config(write_config(tmp_path, overrides)), output_dir=str(out))
    with caplog.at_level(logging.WARNING, logger="mfg_sandbox"):
        assert cli.run_experiment(cfg) == cli.EXIT_OK
    assert not caplog.records
    # 25 states at mesh 0.5 give resolution 50; with K = 2 the summary's
    # average is episode 1's projected first-step mean field, a point m / 50
    mu = np.array(snapshots.read_json(out / "summary_seed5.json")["avg_mean_field"])
    assert np.abs(mu * 50 - np.rint(mu * 50)).max() < 1e-9
