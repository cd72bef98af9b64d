import dataclasses
import importlib.util
import itertools
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "bench_ab.py"


@pytest.fixture(scope="module")
def bench_ab():
    spec = importlib.util.spec_from_file_location("bench_ab", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tree_names():
    # two package names for load_tree, and their modules out of sys.modules afterwards
    names = ["ab_tree_one", "ab_tree_two"]
    yield names
    for key in [key for key in sys.modules if key.split(".")[0] in names]:
        del sys.modules[key]


def _run(**values):
    return {"metrics": {name: {"value": v, "unit": "s"} for name, v in values.items()}}


def test_summarize_counts_wins_by_direction_and_ties_for_neither(bench_ab):
    metrics = [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "absent", "unit": "s", "better": "lower", "bound": 0.25},
    ]
    pairs = [
        (_run(wall_s=2.0, rate=10.0), _run(wall_s=1.0, rate=30.0)),
        (_run(wall_s=2.0, rate=20.0), _run(wall_s=2.0, rate=20.0)),
        (_run(wall_s=1.0, rate=30.0), _run(wall_s=3.0, rate=10.0)),
        (_run(wall_s=4.0, rate=40.0), _run(wall_s=1.5, rate=50.0)),
    ]
    out = bench_ab.summarize(metrics, pairs)
    assert set(out) == {"wall_s", "rate"}
    assert out["wall_s"]["wins"] == 2 and out["wall_s"]["pairs"] == 4
    assert out["rate"]["wins"] == 2
    assert out["wall_s"]["base"]["median"] == 2.0
    assert out["wall_s"]["candidate"]["median"] == 1.75
    assert out["wall_s"]["median_ratio"] == pytest.approx(0.875)
    assert out["wall_s"]["base_iqr"] == pytest.approx(2.5 - 1.75)
    assert out["rate"]["base_values"] == [10.0, 20.0, 30.0, 40.0]


@pytest.mark.parametrize(
    "output, expected",
    [
        (
            "....s...\n179 passed, 1 skipped, 2 deselected in 84.60s (0:01:24)\n",
            {"passed": 179, "failed": 0, "error": 0, "skipped": 1, "deselected": 2},
        ),
        (
            "F..E\nFAILED tests/test_a.py::test_b - assert 2 passed in 1.0s == 3\n"
            "1 failed, 176 passed, 2 deselected, 3 warnings, 2 errors in 80.10s\n",
            {"passed": 176, "failed": 1, "error": 2, "skipped": 0, "deselected": 2},
        ),
        ("no tests ran in 0.01s\n", {"passed": 0, "failed": 0, "error": 0, "skipped": 0, "deselected": 0}),
        ("", {"passed": 0, "failed": 0, "error": 0, "skipped": 0, "deselected": 0}),
    ],
    ids=["passing", "failures-and-errors", "no-tests", "no-output"],
)
def test_parse_pytest_summary_reads_the_final_line(bench_ab, output, expected):
    assert bench_ab.parse_pytest_summary(output) == expected


def _write_tree(root: Path, value: int) -> Path:
    # a package laid out like mfg_sandbox, its submodules reached by relative imports
    package = root / "src" / "mfg_sandbox"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from .constants import VALUE\n")
    (package / "constants.py").write_text(f"VALUE = {value}\n")
    (package / "reader.py").write_text("from .constants import VALUE\n\n\ndef read():\n    return VALUE\n")
    return root / "src"


def test_load_tree_keeps_two_trees_apart(bench_ab, tree_names, tmp_path):
    installed = importlib.import_module("mfg_sandbox")
    one = bench_ab.load_tree(tree_names[0], _write_tree(tmp_path / "one", 1))
    two = bench_ab.load_tree(tree_names[1], _write_tree(tmp_path / "two", 2))
    assert (one.VALUE, two.VALUE) == (1, 2)
    # a submodule the package did not import resolves inside its own tree
    assert importlib.import_module(f"{tree_names[0]}.reader").read() == 1
    assert importlib.import_module(f"{tree_names[1]}.reader").read() == 2
    assert sys.modules[f"{tree_names[1]}.constants"].VALUE == 2
    assert sys.modules["mfg_sandbox"] is installed


def test_the_repo_tree_loaded_twice_runs_run_sandbox_alike(bench_ab, tree_names):
    results = []
    for name in tree_names:
        bench_ab.load_tree(name, REPO / "src")
        cli = importlib.import_module(f"{name}.cli")
        oracle = importlib.import_module(f"{name}.oracle")
        sandbox = importlib.import_module(f"{name}.sandbox")
        cfg = cli.load_config(REPO / "configs" / "full_grid_5x5.json")
        env = cli.build_environment(cfg)
        reference = oracle.solve_bmfe(env, lam=cfg.schedule.lam, rho=cfg.rho)
        config = sandbox.SandboxConfig(
            env=env, schedule=cfg.schedule, num_episodes=2, steps_per_episode=20, rho=cfg.rho, reference=reference
        )
        results.append(sandbox.run_sandbox(config))
    one, two = results
    # each tree has its own classes, so == between them is False; compare fields
    assert type(one) is not type(two)
    for field in dataclasses.fields(one):
        a, b = getattr(one, field.name), getattr(two, field.name)
        if field.name == "per_episode":
            assert [dataclasses.astuple(d) for d in a] == [dataclasses.astuple(d) for d in b]
        else:
            assert np.array_equal(a, b)


def test_tree_calls_build_the_nine_calls(bench_ab, tree_names):
    calls = bench_ab.tree_calls(tree_names[0], REPO)
    assert set(calls) == {
        "run_sandbox",
        "probe_contraction",
        "probe_contraction_3x3",
        "solve_bmfe",
        f"value_iteration_{bench_ab.VI_STACK}",
        "value_iteration_1",
        f"gamma2_{bench_ab.PUSH_STACK}",
        "gamma2_1",
        "episode_diagnostics",
    }
    q, _ = calls["value_iteration_1"]()
    assert q.shape == (1, 25, 4)
    assert calls[f"gamma2_{bench_ab.PUSH_STACK}"]().shape == (bench_ab.PUSH_STACK, 25)
    assert calls["probe_contraction_3x3"]().num_pairs == bench_ab.IN_PROCESS_PROBE_3X3_PAIRS
    # one scored episode: every oracle-backed field computed
    scored = calls["episode_diagnostics"]()
    assert scored.k == 1
    assert all(math.isfinite(v) for v in (scored.e_pi, scored.e_mu, scored.eps_P, scored.eps_Q, scored.residual_mu))


def _fake_calls(costs: dict, clock: list, log: list) -> dict:
    # each call advances the fake CPU clock by its side's next cost and logs itself
    def call(side, name, cycle):
        def run():
            log.append((side, name))
            clock[0] += next(cycle)

        return run

    return {
        side: {name: call(side, name, itertools.cycle(c)) for name, c in by_name.items()}
        for side, by_name in costs.items()
    }


def test_in_process_rounds_time_cpu_not_wall(bench_ab, monkeypatch):
    # time the process spends descheduled on a shared host must not count:
    # only the fake CPU clock moves, so only it can give these ratios
    clock, log = [0.0], []
    monkeypatch.setattr(bench_ab.time, "process_time", lambda: clock[0])
    monkeypatch.setattr(bench_ab, "IN_PROCESS_ROUNDS", 2)
    monkeypatch.setattr(bench_ab, "IN_PROCESS_REPEATS", 2)
    monkeypatch.setattr(bench_ab, "VI_REPEATS", 3)
    costs = {
        "base": {
            "probe_contraction": [0.4, 0.3],
            "solve_bmfe": [0.02],
            "value_iteration_1": [0.06],
            "episode_diagnostics": [0.01],
        },
        "candidate": {
            "probe_contraction": [0.2, 0.1],
            "solve_bmfe": [0.04],
            "value_iteration_1": [0.03],
            "episode_diagnostics": [0.02],
        },
    }
    out = bench_ab.measure_in_process(_fake_calls(costs, clock, log))
    assert out["protocol"]["clock"].startswith("time.process_time")
    assert out["probe_contraction"]["ratios"] == pytest.approx([3.0, 3.0])
    assert out["solve_bmfe"]["ratios"] == pytest.approx([0.5, 0.5])
    assert out["value_iteration_1"]["ratios"] == pytest.approx([2.0, 2.0])
    assert out["episode_diagnostics"]["ratios"] == pytest.approx([0.5, 0.5])
    assert out["probe_contraction"]["rounds"][1] == {
        "first_side": "candidate",
        "candidate_min_s": pytest.approx(0.1),
        "base_min_s": pytest.approx(0.3),
    }
    assert (out["probe_contraction"]["base_min_s"], out["probe_contraction"]["candidate_min_s"]) == pytest.approx(
        (0.3, 0.1)
    )
    # one untimed call each, then value iteration and the diagnostics at
    # VI_REPEATS and the rest at IN_PROCESS_REPEATS
    counts = {name: sum(1 for _, n in log if n == name) for name in costs["base"]}
    assert counts == {"probe_contraction": 10, "solve_bmfe": 10, "value_iteration_1": 14, "episode_diagnostics": 14}


def test_in_process_sides_alternate_call_by_call_and_ratios_are_summarised(bench_ab, monkeypatch):
    clock, log = [0.0], []
    monkeypatch.setattr(bench_ab.time, "process_time", lambda: clock[0])
    monkeypatch.setattr(bench_ab, "IN_PROCESS_ROUNDS", 4)
    monkeypatch.setattr(bench_ab, "IN_PROCESS_REPEATS", 1)
    # the candidate's first call is the untimed one
    costs = {"base": {"run_sandbox": [1.0]}, "candidate": {"run_sandbox": [9.0, 0.5, 1.0, 2.0, 4.0]}}
    out = bench_ab.measure_in_process(_fake_calls(costs, clock, log))
    sides = [side for side, _ in log]
    assert sides == ["base", "candidate"] + ["base", "candidate", "candidate", "base"] * 2
    assert [r["first_side"] for r in out["run_sandbox"]["rounds"]] == ["base", "candidate"] * 2
    assert out["run_sandbox"]["ratios"] == pytest.approx([2.0, 1.0, 0.5, 0.25])
    assert out["run_sandbox"]["ratio"] == pytest.approx({"median": 0.75, "q1": 0.4375, "q3": 1.25, "count": 4})
    assert (out["run_sandbox"]["base_min_s"], out["run_sandbox"]["candidate_min_s"]) == (1.0, 0.5)


def test_tier1_runs_alternate_and_report_their_spread(bench_ab, monkeypatch):
    calls = []
    walls = {"base": iter([30.0, 25.0, 40.0]), "candidate": iter([20.0, 38.0, 22.0])}
    cpus = {"base": iter([50.0, 45.0, 52.0]), "candidate": iter([44.0, 47.0, 46.0])}

    def run_tier1(checkout):
        calls.append(checkout.name)
        return {"passed": 3, "wall_s": next(walls[checkout.name]), "cpu_s": next(cpus[checkout.name])}

    monkeypatch.setattr(bench_ab, "TIER1_RUNS", 3)
    monkeypatch.setattr(bench_ab, "run_tier1", run_tier1)
    out = bench_ab.measure_tier1({"base": Path("base"), "candidate": Path("candidate")})
    assert calls == ["base", "candidate", "candidate", "base", "base", "candidate"]
    assert [r["wall_s"] for r in out["base"]["runs"]] == [30.0, 25.0, 40.0]
    assert out["base"]["wall_s_median"] == 30.0
    assert (out["base"]["wall_s_min"], out["base"]["wall_s_max"]) == (25.0, 40.0)
    assert out["candidate"]["wall_s_median"] == 22.0
    assert (out["candidate"]["wall_s_min"], out["candidate"]["wall_s_max"]) == (20.0, 38.0)
    assert (out["base"]["cpu_s_median"], out["base"]["cpu_s_min"], out["base"]["cpu_s_max"]) == (50.0, 45.0, 52.0)
    assert out["candidate"]["cpu_s_median"] == 46.0


def test_run_tier1_records_the_cpu_time_of_its_processes(bench_ab, monkeypatch, tmp_path):
    # in place of pytest, a child that burns 0.2 s of CPU and prints pytest's summary line
    child = (
        "import time\nend = time.process_time() + 0.2\nwhile time.process_time() < end:\n    pass\n"
        "print('1 passed in 0.20s')\n"
    )
    run = subprocess.run
    monkeypatch.setattr(bench_ab.subprocess, "run", lambda command, **kw: run([sys.executable, "-c", child], **kw))
    out = bench_ab.run_tier1(tmp_path)
    assert (out["passed"], out["failed"], out["exit_code"]) == (1, 0, 0)
    assert out["cpu_s"] >= 0.2 and out["wall_s"] >= 0.2


def test_exit_after_main_reads_each_configs_last_passing_invocation(bench_ab, tmp_path):
    def timing(name, first_step, end):
        stamps = {"main": 100.0, "first_step": first_step, "end": end}
        (tmp_path / f"{name}.timing.json").write_text(json.dumps({"exit_code": 0, "stamps": stamps}))

    timing("primary0", 100.2, 100.25)
    timing("companion0", 100.1, 100.4)
    timing("primary1", 100.3, 100.31)
    stderr = (
        "machine: nproc=2 python=3.11.7 workload=probe5 seed=3\n"
        "primary0 trace=0 wall_s=0.5000 setup_s=0.2000\n"
        "companion0 trace=0 wall_s=0.9000 setup_s=0.1000\n"
        "primary0 trace=0 wall_s=0.3000 setup_s=0.2000\n"
        "primary1 trace=0 wall_s=0.3500 setup_s=0.3000\n"
        "FAIL primary1: exit code 1 (log: primary1.log)\n"
    )
    out = bench_ab.exit_after_main(stderr, tmp_path)
    # companion0: 0.9 - 0.1 - 0.3; primary0's last line: 0.3 - 0.2 - 0.05;
    # primary1's last invocation failed, so its timing file is not the pass's
    assert out == pytest.approx([0.5, 0.05])
    assert bench_ab.summarize_values(out) == pytest.approx({"median": 0.275, "q1": 0.1625, "q3": 0.3875, "count": 2})
    assert bench_ab.summarize_values([]) == {"count": 0}


def _write_outputs(root: Path, files: dict) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_compare_outputs_reports_identity_differences_and_reruns(bench_ab, tmp_path):
    summary = json.dumps({"seed": 0, "e_mu": [0.25, 0.5], "label": "grid"})
    csv_text = "k,e_mu\n1,0.25\n2,nan\n"
    base = _write_outputs(
        tmp_path / "base",
        {
            "run/summary.json": summary,
            "run/episodes.csv": csv_text,
            "run/moved.json": json.dumps({"x": [1.0, 2.0, 3.0]}),
            "run/relabelled.json": json.dumps({"label": "a", "x": 1.0}),
            "run/gone.json": "{}",
        },
    )
    candidate_files = {
        "run/summary.json": summary,
        "run/episodes.csv": "k,e_mu\n1,0.125\n2,nan\n",
        "run/moved.json": json.dumps({"x": [1.0, 2.5, 2.75]}),
        "run/relabelled.json": json.dumps({"label": "b", "x": 1.0}),
        "run/new.json": "{}",
    }
    candidate = _write_outputs(tmp_path / "candidate", candidate_files)
    rerun = _write_outputs(tmp_path / "rerun", {**candidate_files, "run/moved.json": json.dumps({"x": [1.0]})})
    out = bench_ab.compare_outputs(base, candidate, rerun)
    assert out == {
        "run/episodes.csv": {"byte_identical": False, "max_abs_difference": 0.125, "rerun_identical": True},
        "run/gone.json": {"byte_identical": False, "missing_on": ["candidate"], "rerun_identical": False},
        "run/moved.json": {"byte_identical": False, "max_abs_difference": 0.5, "rerun_identical": False},
        "run/new.json": {"byte_identical": False, "missing_on": ["base"], "rerun_identical": True},
        "run/relabelled.json": {"byte_identical": False, "max_abs_difference": None, "rerun_identical": True},
        "run/summary.json": {"byte_identical": True, "rerun_identical": True},
    }


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ({"x": [1.0, 2.0]}, {"x": [1.0, 2.0]}, 0.0),
        ({"x": 1, "y": float("nan")}, {"x": 1.0, "y": float("nan")}, 0.0),
        ({"x": 1.0, "y": 0.5}, {"x": 1.0, "y": float("nan")}, math.inf),
        ({"x": [[1.0, 2.0], [3.0]]}, {"x": [[1.0], [2.0, 3.0]]}, None),
        ({"x": 1.0}, {"y": 1.0}, None),
        ({"ok": True}, {"ok": 1}, None),
    ],
    ids=["equal", "int-and-float-and-nan", "nan-against-number", "reshaped", "renamed-key", "bool-is-not-a-number"],
)
def test_max_abs_difference_lines_up_fields_before_comparing(bench_ab, tmp_path, a, b, expected):
    (tmp_path / "a.json").write_text(json.dumps(a))
    (tmp_path / "b.json").write_text(json.dumps(b))
    assert bench_ab.max_abs_difference(tmp_path / "a.json", tmp_path / "b.json") == expected


def test_measure_identity_runs_every_config_on_each_side_and_reruns_the_candidate(bench_ab, monkeypatch, tmp_path):
    # in place of the CLI, each run writes its config's name, and the
    # candidate's rerun of one config writes something else
    runs = []

    def run_config(checkout, config, out_dir):
        runs.append((checkout.name, config, out_dir.parent.name))
        text = "rerun" if (out_dir.parent.name, config) == ("candidate_rerun", "probe_3x3") else config
        _write_outputs(out_dir, {"out.json": json.dumps({"name": text})})

    monkeypatch.setattr(bench_ab, "run_config", run_config)
    sides = {"base": Path("base_tree"), "candidate": Path("candidate_tree")}
    out = bench_ab.measure_identity(sides, tmp_path)
    assert runs == [
        (tree, config, name)
        for config in bench_ab.SHIPPED_CONFIGS
        for tree, name in (("base_tree", "base"), ("candidate_tree", "candidate"), ("candidate_tree", "candidate_rerun"))
    ]
    assert set(out["files"]) == {f"{config}/out.json" for config in bench_ab.SHIPPED_CONFIGS}
    assert out["all_byte_identical"] and not out["all_rerun_identical"]
    assert [name for name, f in out["files"].items() if not f["rerun_identical"]] == ["probe_3x3/out.json"]
