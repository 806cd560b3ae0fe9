"""Each correctness check passes on real output and fails on a broken one.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
The experiments here are the benchmark's workload configs shrunk to run
in about a second.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
from workloads import COMMON_BIG_EVENTS, CONDITIONAL_SEEDS, CONFIG_DIR, WORKLOADS, coupled_summary
from levyfield.chaos import PoCConfig, reference_fixed_point
from levyfield.common_noise import CommonRealization, conditional_picard, sample_common_realization
from levyfield.config import load_config, validate_and_build
from levyfield.measures import EmpiricalMeasure, MeasureFlow
from levyfield.runner import run_experiment
from levyfield.solver import simulate_coupled
from levyfield.streams import EXP_MAIN, EXP_REFERENCE, StreamContext

BENCH = Path(__file__).resolve().parents[1]
SCHEMAS = BENCH.parent / "schemas"


def small_spec(workload, **experiment):
    raw = load_config(CONFIG_DIR / WORKLOADS[workload].config)
    raw["grid"]["step"] = 0.05
    raw["experiment"].update(experiment)
    return validate_and_build(raw)


def shifted(flow, by):
    return MeasureFlow(flow.times, [EmpiricalMeasure(c.points + by) for c in flow.clouds])


@pytest.fixture(scope="module")
def strong_run(tmp_path_factory):
    spec = small_spec("strong-poc", n_grid=[16, 32, 64], replications=2)
    out = tmp_path_factory.mktemp("strong")
    code = run_experiment(spec, out, jobs=1)
    return spec, out, code


def test_json_check_passes_on_real_output(strong_run):
    spec, out, code = strong_run
    assert code in (0, 1)
    assert checks.check_json_outputs(out, SCHEMAS) == []


def test_json_check_rejects_nan_in_result(strong_run, tmp_path):
    spec, out, _ = strong_run
    broken = tmp_path / "broken"
    shutil.copytree(out, broken)
    doc = json.loads((broken / "result.json").read_text())
    doc["slope_se"] = float("nan")
    (broken / "result.json").write_text(json.dumps(doc))
    problems = checks.check_json_outputs(broken, SCHEMAS)
    assert problems and "not strict JSON" in problems[0]


def test_json_check_rejects_schema_violation(strong_run, tmp_path):
    spec, out, _ = strong_run
    broken = tmp_path / "broken"
    shutil.copytree(out, broken)
    doc = json.loads((broken / "manifest.json").read_text())
    del doc["exit_code"]
    (broken / "manifest.json").write_text(json.dumps(doc))
    assert checks.check_json_outputs(broken, SCHEMAS)


def _strong_reference(spec):
    exp = spec.experiment
    pcfg = PoCConfig(p=1.0, n_grid=exp["n_grid"], replications=exp["replications"])
    return reference_fixed_point(spec.coeffs, spec.initial, spec.levy, spec.grid, spec.solver, pcfg, spec.seed)


def test_coupled_gap_check_passes_and_catches_one_perturbed_particle():
    w = WORKLOADS["strong-poc"]
    spec = small_spec("strong-poc", n_grid=[16, 32, 64], replications=2)
    ref = _strong_reference(spec)
    ctx = StreamContext(seed=spec.seed, experiment=EXP_MAIN, replica=0)
    coupled = simulate_coupled(spec.coeffs, 64, spec.initial, spec.levy, spec.grid, ctx, ref.flow,
                               spec.solver, record_paths=True)
    assert w.check(spec, None, coupled_summary(coupled, ref.flow, spec.grid.times)) == []

    # move particle 5 of the interacting system by 1e-3 at one grid time:
    # its gap no longer follows the recursion every particle shares
    coupled.interacting.paths[5].states[10] += 1e-3
    assert w.check(spec, None, coupled_summary(coupled, ref.flow, spec.grid.times))


@pytest.fixture(scope="module")
def conditional_case():
    """A conditional reference on two pinned common paths, each with big common events."""
    spec = small_spec("conditional-poc", replications=2, reference_paths=1024)
    common = spec.common
    realizations = [
        CommonRealization(common, np.array([0.3]), np.array([[0.6]]), np.array([0.55]), np.array([[1.5]])),
        CommonRealization(common, np.empty(0), np.empty((0, 1)), np.array([0.2, 0.7]), np.array([[-1.2], [1.8]])),
    ]
    ref_cfg = spec.solver.__class__(**{**spec.solver.__dict__, "paths": 1024})
    ref = conditional_picard(spec.coeffs, spec.initial, spec.two_layer, spec.grid, ref_cfg,
                             StreamContext(seed=spec.seed, experiment=EXP_REFERENCE, replica=0),
                             realizations=realizations)
    result = {"details": {"common_events": [r.n_events for r in realizations]}}
    return spec, ref, result


def test_conditional_mean_check_passes(conditional_case):
    spec, ref, result = conditional_case
    w = WORKLOADS["conditional-poc"]
    assert w.check(spec, result, w.summarize(spec, ref)) == []


def test_conditional_mean_check_catches_shifted_reference_flow(conditional_case):
    spec, ref, result = conditional_case
    w = WORKLOADS["conditional-poc"]
    bad = copy.copy(ref)
    bad.flows = [ref.flows[0], shifted(ref.flows[1], 0.1)]
    problems = w.check(spec, result, w.summarize(spec, bad))
    assert problems and problems[0].startswith("path 1")


def test_conditional_mean_check_catches_dropped_common_event(conditional_case):
    spec, ref, result = conditional_case
    w = WORKLOADS["conditional-poc"]
    summary = w.summarize(spec, ref)
    ut, um, vt, vm = summary["realizations"][0]
    summary["realizations"][0] = (ut, um, vt[:0], vm[:0])  # path 0 loses its big jump
    problems = w.check(spec, result, summary)
    assert any(p.startswith("path 0") for p in problems)


def test_conditional_seeds_hold_the_workloads_big_events():
    w = WORKLOADS["conditional-poc"]
    spec = small_spec("conditional-poc")
    assert w.pick_seed(spec.seed) == w.pick_seed(spec.seed + len(CONDITIONAL_SEEDS))
    for seed in CONDITIONAL_SEEDS:
        big = sum(
            sample_common_realization(spec.common, StreamContext(seed=seed, experiment=EXP_MAIN, replica=j),
                                      spec.grid.horizon).v_times.size
            for j in range(spec.experiment["replications"])
        )
        assert big == COMMON_BIG_EVENTS, seed


def test_iid_slope_check():
    ns = [64, 128, 256, 512, 1024, 2048, 4096]
    good = [0.8 / np.sqrt(n) for n in ns]
    assert checks.check_iid_slope(ns, good) == []
    floored = [v + 0.1 for v in good]  # an n-independent floor flattens the decay
    assert checks.check_iid_slope(ns, floored)
    assert checks.check_iid_slope(ns, [0.0] + good[1:])


def test_same_bytes_check(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    (a / "rate.csv").write_text("n,estimate\n8,0.5\n")
    (b / "rate.csv").write_text("n,estimate\n8,0.5\n")
    assert checks.check_same_bytes(a, b, ["rate.csv"]) == []
    (b / "rate.csv").write_text("n,estimate\n8,0.50000001\n")
    assert checks.check_same_bytes(a, b, ["rate.csv"])
    assert checks.check_same_bytes(a, b, ["result.json"])


def test_benchmark_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(BENCH / "configs", tmp_path / "perfbench" / "configs")
    for name in ("run.py", "checks.py", "tracer.py", "workloads.py"):
        shutil.copy(BENCH / name, tmp_path / "perfbench" / name)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "weak-poc", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
