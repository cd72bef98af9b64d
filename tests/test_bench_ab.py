import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_ab.py"


@pytest.fixture(scope="module")
def bench_ab():
    spec = importlib.util.spec_from_file_location("bench_ab", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_summarize_rounds_reports_base_over_candidate(bench_ab):
    rounds = [
        {"first_side": "base", "base_min_s": 0.09, "candidate_min_s": 0.06},
        {"first_side": "candidate", "base_min_s": 0.08, "candidate_min_s": 0.05},
        {"first_side": "base", "base_min_s": 0.06, "candidate_min_s": 0.06},
    ]
    out = bench_ab.summarize_rounds(rounds)
    assert out["rounds"] == rounds
    assert out["speedups"] == pytest.approx([1.5, 1.6, 1.0])
    assert out["min_speedup"] == pytest.approx(1.0)
    assert out["median_speedup"] == pytest.approx(1.5)


def test_in_process_child_times_run_sandbox_in_a_checkout(bench_ab):
    times = bench_ab.time_run_sandbox(SCRIPT.parent.parent, K=2, T=20, repeats=3)
    assert len(times) == 3 and all(t > 0.0 for t in times)


def test_in_process_oracle_child_times_the_probe_and_the_solve(bench_ab):
    # and value iteration and the push alone, on a stack and on one problem
    times = bench_ab.time_oracle(SCRIPT.parent.parent, pairs=3, repeats=2, vi_repeats=3)
    vi_calls = [f"value_iteration_{bench_ab.VI_STACK}", "value_iteration_1"]
    push_calls = [f"gamma2_{bench_ab.PUSH_STACK}", "gamma2_1"]
    assert set(times) == {"probe_contraction", "solve_bmfe", *vi_calls, *push_calls}
    assert all(len(times[call]) == 2 for call in ("probe_contraction", "solve_bmfe"))
    assert all(len(times[call]) == 3 for call in vi_calls + push_calls)
    assert all(x > 0.0 for t in times.values() for x in t)


def test_in_process_rounds_time_cpu_not_wall(bench_ab, monkeypatch):
    # time the process spends descheduled on a shared host must not count
    for child in (bench_ab.IN_PROCESS_CHILD, bench_ab.IN_PROCESS_ORACLE_CHILD):
        assert "time.process_time()" in child
        assert "perf_counter" not in child
    monkeypatch.setattr(bench_ab, "IN_PROCESS_ROUNDS", 2)
    monkeypatch.setattr(bench_ab, "time_run_sandbox", lambda checkout, K, T, repeats: [0.2, 0.1])
    oracle = {"base": {"probe_contraction": [0.3, 0.4], "solve_bmfe": [0.02], "value_iteration_1": [0.06]}}
    oracle["candidate"] = {"probe_contraction": [0.1, 0.2], "solve_bmfe": [0.04], "value_iteration_1": [0.03]}
    monkeypatch.setattr(bench_ab, "time_oracle", lambda checkout, pairs, repeats: oracle[checkout.name])
    out = bench_ab.measure_in_process({"base": Path("base"), "candidate": Path("candidate")})
    assert out["protocol"]["clock"].startswith("time.process_time")
    assert out["speedups"] == [1.0, 1.0]
    assert out["probe_contraction"]["speedups"] == pytest.approx([3.0, 3.0])
    assert out["solve_bmfe"]["speedups"] == pytest.approx([0.5, 0.5])
    assert out["value_iteration_1"]["speedups"] == pytest.approx([2.0, 2.0])
    assert out["rounds"][1]["probe_contraction"] == {"candidate_min_s": 0.1, "base_min_s": 0.3}


def test_tier1_runs_alternate_and_report_their_spread(bench_ab, monkeypatch):
    calls = []
    walls = {"base": iter([30.0, 25.0, 40.0]), "candidate": iter([20.0, 38.0, 22.0])}

    def run_tier1(checkout):
        calls.append(checkout.name)
        return {"passed": 3, "wall_s": next(walls[checkout.name])}

    monkeypatch.setattr(bench_ab, "TIER1_RUNS", 3)
    monkeypatch.setattr(bench_ab, "run_tier1", run_tier1)
    out = bench_ab.measure_tier1({"base": Path("base"), "candidate": Path("candidate")})
    assert calls == ["base", "candidate", "candidate", "base", "base", "candidate"]
    assert [r["wall_s"] for r in out["base"]["runs"]] == [30.0, 25.0, 40.0]
    assert out["base"]["wall_s_median"] == 30.0
    assert (out["base"]["wall_s_min"], out["base"]["wall_s_max"]) == (25.0, 40.0)
    assert out["candidate"]["wall_s_median"] == 22.0
    assert (out["candidate"]["wall_s_min"], out["candidate"]["wall_s_max"]) == (20.0, 38.0)


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
