"""Tests of the benchmark itself: inputs, tracer, oracles, checks and the result contract.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
import reference
import run
import tracing

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_repeat_for_a_seed(workload):
    assert inputs.make_inputs(workload, 7) == inputs.make_inputs(workload, 7)


@pytest.mark.parametrize("workload", ["exact_set", "estimate", "robust_train"])
def test_inputs_follow_the_seed(workload):
    assert inputs.make_inputs(workload, 7) != inputs.make_inputs(workload, 8)


def test_discrete_spec_shapes_do_not_depend_on_the_seed():
    def shapes(seed):
        return [(len(s["weights"]), len(s["probs"])) for s in inputs.make_inputs("exact_set", seed)["specs"]]

    assert shapes(1) == shapes(2)


def _small_jobs(tmp_path):
    import jobs

    sweep = {
        "experiment": "bounds_sweep", "preset": "desk", "seed": 3,
        "params": {"grid_env_count": 2, "random_env_count": 1, "labeler_count": 3},
    }
    demo = {"experiment": "minimax_demo", "preset": "desk", "seed": 3, "params": {"grid_n": 50}}
    return {
        "sweep": jobs._experiment_job(sweep, tmp_path / "sweep"),
        "demo": jobs._experiment_job(demo, tmp_path / "demo"),
    }


def _traced_pass(tracer, job_list):
    import jobs

    tracer.reset()
    tracer.install()
    try:
        out = {name: jobs.record(name, tracer.span(f"job.{name}", job)) for name, job in job_list.items()}
    finally:
        tracer.uninstall()
    return out, {k: v for k, v in tracer.layer_stats().items() if not k.endswith("self_s")}


def test_tracing_changes_no_output_and_counts_repeat(tmp_path):
    import credal.harness
    import jobs

    job_list = _small_jobs(tmp_path)
    plain = {name: jobs.record(name, job()) for name, job in job_list.items()}
    tracer = tracing.Tracer()
    original_run = credal.harness.run
    first, counts1 = _traced_pass(tracer, job_list)
    second, counts2 = _traced_pass(tracer, job_list)
    assert credal.harness.run is original_run  # uninstall restores every patch
    for name in job_list:
        assert first[name]["csv"] == plain[name]["csv"] == second[name]["csv"]
    assert counts1 == counts2
    assert counts1["harness.run.calls"] == 2
    assert counts1["measures.adaptive_simpson.evals"] > 0
    assert counts1["measures.prob_matrix.points"] > 0
    assert counts1["harness.rows"] == sum(len(p["csv"].splitlines()) - 1 for p in plain.values())


def test_self_time_excludes_children():
    tracer = tracing.Tracer()

    def leaf():
        sum(range(20_000))

    wrapped_leaf = tracer._wrap("x.leaf", leaf)
    tracer.span("x.parent", lambda: (wrapped_leaf(), wrapped_leaf()))
    stats = tracer.layer_stats()
    assert stats["x.leaf.calls"] == 2 and stats["x.parent.calls"] == 1
    parent_total = tracer.span_end[0] - tracer.span_start[0]
    assert 0.0 <= stats["x.parent.self_s"] < parent_total
    assert math.isclose(stats["x.parent.self_s"] + stats["x.leaf.self_s"], parent_total, rel_tol=1e-9)


def test_missing_function_is_recorded_as_absent(monkeypatch):
    monkeypatch.setattr(tracing, "EXPECTED", (*tracing.EXPECTED, "measures.no_such_function"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent() == ["measures.no_such_function"]
    finally:
        tracer.uninstall()


def test_oracle_closed_forms():
    assert math.isclose(reference.gaussian_tv((0.0, 1.0), (1.0, 1.0)), 0.3829249225480262, rel_tol=1e-12)
    assert math.isclose(reference.threshold_disagreement((0.0, 1.0), -1.0, 1.0), 0.6826894921370859, rel_tol=1e-12)
    assert reference.gaussian_tv((0.5, 2.0), (0.5, 2.0)) == 0.0
    e1, e2 = (0.0, 1.0), (0.7, 1.6)
    # joint TV reduces to the environment TV for one shared threshold
    assert math.isclose(reference.threshold_joint_tv(e1, 0.3, e2, 0.3), reference.gaussian_tv(e1, e2), rel_tol=1e-12)
    # ... and to the disagreement mass for one shared environment
    assert math.isclose(
        reference.threshold_joint_tv(e1, -0.5, e1, 1.0), reference.threshold_disagreement(e1, -0.5, 1.0), rel_tol=1e-12
    )
    same = ("sigmoid", 2.0, 0.5)
    want, res = reference.resolved(reference.smooth_joint_tv, e1, same, e2, same)
    assert abs(want - reference.gaussian_tv(e1, e2)) < 1e-9 and res < 1e-9
    assert math.isclose(reference.hoeffding(1000, 2, 0.05), math.sqrt(math.log(40.0) / 2000.0))
    labels = np.asarray([[0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 0, 0]])
    assert reference.max_pair_disagreement(labels) == 0.5
    eta, bound = reference.noisy_pair_max([0.1, 0.2, 0.3])
    assert math.isclose(eta, 0.2 + 0.3 - 2 * 0.06) and math.isclose(bound, 0.6 - 2 * 0.09)
    spec = {"weights": [[0.5, 0.5], [1.0, 0.0]], "probs": [[[1.0, 0.0], [0.0, 1.0]]]}
    assert reference.discrete_pair_tv(spec, (0, 0), (1, 0)) == 0.5


def test_checker_tally():
    chk = checks.Checker()
    assert chk.value("ok", 1.0, 1.0 + 5e-9, 1e-8, hard=True)
    assert not chk.value("miss", 1.0, 1.1, 1e-8, hard=False)
    assert chk.value("unresolved", 1.0, 1.1, 1e-8, hard=False, resolution=1e-8)
    assert not chk.flag("broken", False, hard=True)
    assert (chk.checked, chk.failed, chk.unresolved) == (4, 2, 1)
    assert chk.fail_frac == 3 / 5
    assert math.isclose(chk.err_over_tol, 0.1 / 1e-8)
    assert len(chk.hard_failures) == 1 and len(chk.quadrature_failures) == 1
    assert checks.Checker().err_over_tol == checks.ERR_FLOOR


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    layer_functions = {name.rsplit(".", 1)[0] for name in run.PER_LAYER if name.endswith((".calls", ".self_s"))}
    assert layer_functions - {"measures.pdf"} <= set(tracing.EXPECTED) | set(tracing.METHODS.values())


def test_refuses_to_run_without_the_library(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "soft_set", "--seconds", "1"]) == 2
    assert "src/credal" in capsys.readouterr().err


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_has_every_metric(trace):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "robust_train", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    names = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == names
    assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())
