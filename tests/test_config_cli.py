"""Config validation, digests, and the command-line surface."""

import copy
import json
import re
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from levyfield.assumptions import check_one_sided_lipschitz
from levyfield.cli import main
from levyfield.config import config_digest, load_config, validate_and_build
from levyfield.errors import ConfigurationError
from levyfield.runner import conditional_reference, reference_fixed_point, run_experiment
from levyfield.streams import STREAM_SCHEME
from levyfield.wasserstein import EXACT_SIZE_CAP

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
SCHEMA_DIR = Path(__file__).resolve().parents[1] / "schemas"
SHIPPED = sorted(CONFIG_DIR.glob("*.yaml"))


def _strict_json(path):
    """Parse a JSON file, rejecting NaN and Infinity."""

    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(Path(path).read_text(), parse_constant=reject)


def _assert_valid(doc, schema_name):
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    jsonschema.Draft7Validator(schema).validate(doc)


def _quick_cfg(kind="simulate", **overrides):
    cfg = {
        "version": 1,
        "kind": kind,
        "seed": 5,
        "model": {
            "dim": 1,
            "beta": 2.0,
            "family": "linear_meanfield",
            "params": {"a": 1.0, "c": 0.5, "gamma_f": 0.2},
        },
        "noise": {
            "split_radius": 1.0,
            "small": {"rate": 0.5, "sampler": "annulus_uniform", "params": {"r_lo": 0.0, "r_hi": 1.0}},
            "big": None,
        },
        "initial": {"kind": "normal", "params": {"mean": 0.0, "std": 1.0}},
        "grid": {"horizon": 1.0, "step": 0.05},
        # only a Picard run reads the fixed-point loop's keys
        "solver": {"paths": 32, "gamma": 2.0, "tol": 1.0e-2, "max_iter": 15} if kind == "picard" else {},
        "experiment": {"n": 16},
    }
    cfg.update(overrides)
    return cfg


RATE_KINDS = ["poc", "strong-poc", "common-noise"]


def _rate_cfg(kind, replications):
    """A toy rate experiment; the common-noise one has a live common layer (small and big band)."""
    exp = {"p": 1.0, "n_grid": [4, 8, 16], "replications": replications, "reference_paths": 64}
    solver = {"gamma": 2.0, "tol": 1.0e-2}  # a rate run takes none of the fixed-point loop's keys
    if kind != "common-noise":
        return _quick_cfg(kind=kind, experiment=exp, solver=solver)
    cfg = _quick_cfg(kind=kind, experiment={"task": "poc", **exp}, solver=solver)
    cfg["common_noise"] = {
        "split_radius": 1.0,
        "small": {"rate": 1.0, "sampler": "annulus_uniform", "params": {"r_lo": 0.0, "r_hi": 1.0}},
        "big": {"rate": 1.0, "sampler": "annulus_uniform", "params": {"r_lo": 1.0, "r_hi": 2.0}},
    }
    cfg["model"]["params"].update(gamma_f0=0.2, gamma_g0=0.3)
    return cfg


def _write_cfg(tmp_path, cfg, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_shipped_configs_validate(path):
    spec = validate_and_build(load_config(path))
    assert spec.kind == load_config(path)["kind"]
    assert spec.coeffs is not None and spec.grid is not None
    assert re.fullmatch(r"[0-9a-f]{64}", config_digest(spec.raw))


def _reduced(cfg):
    """A shipped config cut down to well under a second: fewer paths, particles and trials."""
    cfg = copy.deepcopy(cfg)
    exp = cfg.get("experiment") or {}
    if "n_grid" in exp:
        exp.update(n_grid=[4, 8, 16], replications=2, reference_paths=32)
    elif cfg["kind"] in ("picard", "moments"):
        cfg["solver"] = {**(cfg.get("solver") or {}), "paths": 64}
    for key, value in (("n", 32), ("trials", 200)):
        if key in exp:
            exp[key] = value
    return cfg


def _result_schema(cfg):
    kind = cfg["kind"]
    if kind == "common-noise":
        kind = "poc" if cfg["experiment"]["task"] == "poc" else "simulate"
    return {"simulate": "simulate", "picard": "picard", "poc": "rate", "strong-poc": "rate",
            "moments": "moments", "check-assumptions": "assumptions"}[kind] + "_result.schema.json"


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_every_kind_writes_json_that_validates_against_its_schema(tmp_path, path):
    cfg = _reduced(load_config(path))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [cfg["kind"], "--config", _write_cfg(tmp_path, cfg), "--out", str(out)])
    assert result.exit_code in (0, 1), result.output  # a verdict may fail on a reduced run
    schemas = {"manifest.json": "manifest.schema.json", "result.json": _result_schema(cfg)}
    assert sorted(p.name for p in out.glob("*.json")) == sorted(schemas)
    for name, schema in schemas.items():
        _assert_valid(_strict_json(out / name), schema)
    assert _strict_json(out / "manifest.json")["stream_scheme"] == STREAM_SCHEME


def test_shipped_configs_cover_every_kind():
    kinds = {load_config(p)["kind"] for p in SHIPPED}
    assert kinds == {
        "simulate", "picard", "poc", "strong-poc", "moments",
        "common-noise", "check-assumptions",
    }


def test_validation_collects_every_violation_with_keypaths():
    cfg = _quick_cfg()
    cfg["version"] = 2
    cfg["seed"] = -3
    cfg["model"]["beta"] = 3.5
    cfg["model"]["family"] = "nope"
    cfg["grid"] = {"horizon": 1.0}
    cfg["experiment"] = {"n": 16, "bogus": True}
    with pytest.raises(ConfigurationError) as err:
        validate_and_build(cfg)
    msg = str(err.value)
    assert len(err.value.violations) >= 5
    for fragment in ["version", "seed", "model.beta", "model.family", "grid", "bogus"]:
        assert fragment in msg


_BREAKERS = [
    ("bad-version", lambda c: c.update(version=0)),
    ("bad-kind", lambda c: c.update(kind="frobnicate")),
    ("string-seed", lambda c: c.update(seed="five")),
    ("no-model", lambda c: c.pop("model")),
    ("zero-dim", lambda c: c["model"].update(dim=0)),
    ("beta-too-low", lambda c: c["model"].update(beta=1.0)),
    ("unknown-family", lambda c: c["model"].update(family="quartic")),
    ("bad-family-param", lambda c: c["model"]["params"].update(unknown_knob=1.0)),
    ("no-noise", lambda c: c.pop("noise")),
    ("band-missing-rate", lambda c: c["noise"].update(small={"sampler": "annulus_uniform"})),
    ("unknown-sampler", lambda c: c["noise"]["small"].update(sampler="cauchy")),
    ("unknown-initial", lambda c: c.update(initial={"kind": "dirac_comb"})),
    ("no-grid-step", lambda c: c.update(grid={"horizon": 1.0})),
    ("step-not-dividing", lambda c: c.update(grid={"horizon": 1.0, "step": 0.3})),
    ("bad-solver-key", lambda c: c["solver"].update(warp=9)),
    ("foreign-experiment-key", lambda c: c["experiment"].update(n_grid=[4, 8, 16])),
    ("missing-n", lambda c: c.update(experiment={})),
]


@pytest.mark.parametrize("breaker", _BREAKERS, ids=lambda b: b[0])
def test_single_field_corruptions_are_rejected(breaker):
    cfg = _quick_cfg()
    breaker[1](cfg)
    with pytest.raises(ConfigurationError):
        validate_and_build(cfg)


def test_kind_specific_experiment_checks():
    poc = _quick_cfg(kind="poc", experiment={"p": 1.0, "n_grid": [16, 8, 4], "replications": 2})
    with pytest.raises(ConfigurationError, match="n_grid"):
        validate_and_build(poc)
    strong = _quick_cfg(
        kind="strong-poc",
        experiment={"p": 1.0, "n_grid": [4, 8, 16], "replications": 2, "q1": 0.9, "q2": 0.5},
    )
    with pytest.raises(ConfigurationError, match="q1"):
        validate_and_build(strong)
    moments = _quick_cfg(kind="moments", experiment={"scalings": [1.0]})
    with pytest.raises(ConfigurationError, match="scalings"):
        validate_and_build(moments)
    common = _quick_cfg(kind="common-noise", experiment={"task": "dance", "n": 4})
    with pytest.raises(ConfigurationError, match="task"):
        validate_and_build(common)
    checks = _quick_cfg(kind="check-assumptions", experiment={"variant": "A7"})
    with pytest.raises(ConfigurationError, match="variant"):
        validate_and_build(checks)


@pytest.mark.parametrize("name", ["simulate_cubic", "common_simulate"])
def test_record_paths_is_rejected_where_no_output_reads_it(name):
    # the simulate outputs are a time series and a final cloud: no path is ever written
    cfg = load_config(CONFIG_DIR / f"{name}.yaml")
    validate_and_build(cfg)
    cfg["experiment"]["record_paths"] = True
    with pytest.raises(ConfigurationError, match="record_paths"):
        validate_and_build(cfg)


_SOLVER_VALUES = {"paths": 64, "gamma": 2.0, "tol": 1.0e-2, "max_iter": 5, "flow_metric": "sliced",
                  "divergence_threshold": 1.0e6}
_LOOP_KEYS = ["paths", "gamma", "tol", "max_iter", "flow_metric"]
# solver keys a run never reads: each rate kind's toy config, and each shipped config of
# a run that is neither a rate run nor a Picard run
_UNREAD_SOLVER_KEYS = {
    **{kind: ["paths", "max_iter", "flow_metric"] for kind in RATE_KINDS},
    "simulate_cubic": _LOOP_KEYS,
    "common_simulate": _LOOP_KEYS,
    "check_assumptions_cubic": _LOOP_KEYS + ["divergence_threshold"],
    "moments_cubic": ["gamma", "tol", "max_iter", "flow_metric"],
}


@pytest.mark.parametrize(
    "run, key",
    [(run, key) for run, keys in _UNREAD_SOLVER_KEYS.items() for key in keys],
    ids=lambda param: param if param in _UNREAD_SOLVER_KEYS else f"{param}-{_SOLVER_VALUES[param]}",
)
def test_rate_runs_reject_the_fixed_point_solver_keys(run, key):
    # every run rejects the solver keys it does not read: a rate run's reference is one interacting
    # run (no fixed-point cloud size, pass budget or flow metric), a simulate run reads only the
    # divergence threshold, a moments run also the cloud size, and an assumption sweep no solver key
    cfg = _rate_cfg(run, replications=2) if run in RATE_KINDS else load_config(CONFIG_DIR / f"{run}.yaml")
    read = set(_SOLVER_VALUES) - set(_UNREAD_SOLVER_KEYS[run])
    validate_and_build({**cfg, "solver": {k: _SOLVER_VALUES[k] for k in read}})
    cfg["solver"] = {**(cfg.get("solver") or {}), key: _SOLVER_VALUES[key]}
    with pytest.raises(ConfigurationError, match=f"solver.{key}"):
        validate_and_build(cfg)


def test_two_layer_property_reflects_common_block():
    spec = validate_and_build(_quick_cfg())
    assert spec.common is None and spec.two_layer.common.small_rate == 0.0
    layered = _quick_cfg(kind="common-noise", experiment={"task": "simulate", "n": 16})
    layered["common_noise"] = {
        "split_radius": 1.0,
        "small": {"rate": 0.5, "sampler": "annulus_uniform", "params": {"r_lo": 0.0, "r_hi": 1.0}},
        "big": None,
    }
    layered["model"]["params"]["gamma_f0"] = 0.2
    spec2 = validate_and_build(layered)
    assert spec2.common is not None and spec2.two_layer.common.small_rate == 0.5


@pytest.mark.parametrize("where, key", [("", "seeds"), ("model", "familly"), ("noise", "smal"),
                                        ("common_noise", "bigg"), ("initial", "parms"), ("grid", "steps")],
                         ids=lambda v: v or "top")
def test_unknown_key_in_a_fixed_block_is_rejected_by_its_key_path(where, key):
    cfg = _rate_cfg("common-noise", replications=1)  # carries every block
    validate_and_build(cfg)
    (cfg[where] if where else cfg)[key] = {"rate": 1.0}
    with pytest.raises(ConfigurationError, match=re.escape(f"{where}.{key}" if where else f"'{key}'")):
        validate_and_build(cfg)


@pytest.mark.parametrize("name", ["simulate_cubic", "picard_cubic", "poc_weak_cubic", "poc_strong_linear",
                                  "moments_cubic"])
def test_common_noise_block_is_rejected_where_no_run_reads_it(name):
    cfg = load_config(CONFIG_DIR / f"{name}.yaml")
    validate_and_build(cfg)
    cfg["common_noise"] = load_config(CONFIG_DIR / "common_simulate.yaml")["common_noise"]
    with pytest.raises(ConfigurationError, match=f"common_noise is not read by kind '{cfg['kind']}'"):
        validate_and_build(cfg)


def test_load_config_rejects_non_mapping_root(tmp_path):
    path = tmp_path / "list.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigurationError):
        load_config(path)


def test_config_digest_is_canonical():
    cfg = _quick_cfg()
    reordered = dict(reversed(list(copy.deepcopy(cfg).items())))
    assert config_digest(cfg) == config_digest(reordered)
    changed = copy.deepcopy(cfg)
    changed["seed"] = 6
    assert config_digest(changed) != config_digest(cfg)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_simulate_writes_outputs_and_manifest(tmp_path):
    cfg = _quick_cfg()
    path = _write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["simulate", "--config", path, "--out", str(out)])
    assert result.exit_code == 0, result.output
    for name in ["timeseries.csv", "final_cloud.csv", "result.json", "manifest.json"]:
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["kind"] == "simulate"
    assert manifest["seed"] == 5
    assert manifest["exit_code"] == 0
    assert manifest["jobs"] == 1
    assert manifest["config_sha256"] == config_digest(cfg)
    assert manifest["outputs"][-1] == "manifest.json"
    assert manifest["wall_seconds"] >= 0.0
    _assert_valid(manifest, "manifest.schema.json")
    assert manifest["environment"]["numpy"] == np.__version__
    payload = json.loads((out / "result.json").read_text())
    assert payload["n"] == 16 and len(payload["final_mean"]) == 1
    lines = (out / "timeseries.csv").read_text().splitlines()
    assert lines[0] == "time,mean_0,beta_norm,lyapunov"
    assert len(lines) == 2 + 20  # header + t=0 + one row per step


def test_cli_picard_trace_and_result(tmp_path):
    cfg = _quick_cfg(kind="picard", experiment={})
    path = _write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["picard", "--config", path, "--out", str(out)])
    assert result.exit_code == 0, result.output
    payload = json.loads((out / "result.json").read_text())
    assert payload["converged"] is True
    assert payload["gamma"] == 2.0 and payload["paths"] == 32
    rows = (out / "trace.csv").read_text().splitlines()
    assert rows[0] == "iteration,distance"
    assert len(rows) - 1 == payload["iterations"]


def test_cli_seed_override_changes_results(tmp_path):
    path = _write_cfg(tmp_path, _quick_cfg())
    outs = {s: tmp_path / f"out{s}" for s in (11, 12, "11b")}
    runner = CliRunner()
    for s, out in outs.items():
        seed = int(str(s).rstrip("b"))
        res = runner.invoke(main, ["simulate", "--config", path, "--seed", str(seed), "--out", str(out)])
        assert res.exit_code == 0
    r11 = (outs[11] / "result.json").read_text()
    assert r11 == (outs["11b"] / "result.json").read_text()
    assert r11 != (outs[12] / "result.json").read_text()
    manifest = json.loads((outs[12] / "manifest.json").read_text())
    assert manifest["seed"] == 12


@pytest.mark.parametrize("kind", RATE_KINDS)
def test_cli_worker_count_does_not_change_bytes(tmp_path, kind):
    path = _write_cfg(tmp_path, _rate_cfg(kind, replications=4))
    cli = CliRunner()
    outs = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        res = cli.invoke(main, [kind, "--config", path, "--jobs", str(jobs), "--out", str(out)])
        assert res.exit_code in (0, 1), res.output  # verdict may fail on a toy grid
        outs.append(out)
    assert (outs[0] / "rate.csv").read_bytes() == (outs[1] / "rate.csv").read_bytes()
    assert (outs[0] / "result.json").read_bytes() == (outs[1] / "result.json").read_bytes()
    assert json.loads((outs[1] / "manifest.json").read_text())["jobs"] == 2
    if kind == "common-noise":
        assert sum(json.loads((outs[1] / "result.json").read_text())["details"]["common_events"]) > 0


def _rejected_before_any_reference(tmp_path, monkeypatch, cfg):
    """Run ``cfg`` with both reference builders disabled; return its ``error.json``."""

    def no_reference(*args, **kwargs):
        raise AssertionError("a reference was computed for a config that must be rejected")

    monkeypatch.setattr("levyfield.runner.reference_fixed_point", no_reference)
    monkeypatch.setattr("levyfield.runner.conditional_reference", no_reference)
    out = tmp_path / "out"
    assert run_experiment(validate_and_build(cfg), out) == 2
    error = _strict_json(out / "error.json")
    _assert_valid(error, "error.schema.json")
    assert error["error"] == "ConfigurationError"
    return error


@pytest.mark.parametrize("kind", RATE_KINDS)
def test_rate_run_rejects_a_bad_design_before_any_reference(tmp_path, monkeypatch, kind):
    cfg = _rate_cfg(kind, replications=2)
    cfg["experiment"]["p"] = 2.0  # p = beta leaves no chaos exponent to measure
    assert "p < beta" in _rejected_before_any_reference(tmp_path, monkeypatch, cfg)["message"]


@pytest.mark.parametrize("kind", ["poc", "common-noise"])
def test_rate_run_rejects_an_off_grid_eval_time_before_any_reference(tmp_path, monkeypatch, kind):
    cfg = _rate_cfg(kind, replications=2)
    cfg["experiment"]["eval_time"] = 0.013
    assert "not a grid time" in _rejected_before_any_reference(tmp_path, monkeypatch, cfg)["message"]


def test_strong_poc_rejects_an_eval_time(tmp_path):
    # the strong statistic is a supremum over the whole horizon: no evaluation time to pick
    cfg = _rate_cfg("strong-poc", replications=2)
    cfg["experiment"]["eval_time"] = 0.013
    with pytest.raises(ConfigurationError, match="eval_time"):
        validate_and_build(cfg)
    path = _write_cfg(tmp_path, cfg)
    result = CliRunner().invoke(main, ["strong-poc", "--config", path, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "config error" in result.stderr and "eval_time" in result.stderr


def _rejected_by_validation(tmp_path, monkeypatch, cfg, key):
    """``cfg`` fails validation naming ``key``; the CLI exits 2 before any reference or output."""

    def no_reference(*args, **kwargs):
        raise AssertionError("a reference was computed for a config that must be rejected")

    monkeypatch.setattr("levyfield.runner.reference_fixed_point", no_reference)
    monkeypatch.setattr("levyfield.runner.conditional_reference", no_reference)
    with pytest.raises(ConfigurationError, match=key):
        validate_and_build(cfg)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [cfg["kind"], "--config", _write_cfg(tmp_path, cfg), "--out", str(out)])
    assert result.exit_code == 2
    assert "config error" in result.stderr and key in result.stderr
    assert not out.exists()


def test_unknown_flow_metric_is_rejected_before_any_reference(tmp_path, monkeypatch):
    # a rate run's reference computes no flow distance, so the typo would never surface
    cfg = _rate_cfg("strong-poc", replications=2)
    cfg["solver"]["flow_metric"] = "bogus"
    _rejected_by_validation(tmp_path, monkeypatch, cfg, "flow_metric")


@pytest.mark.parametrize("paths", [0, 2.5, "64"])
def test_reference_paths_must_be_a_positive_integer(tmp_path, monkeypatch, paths):
    # 0 used to run the default reference silently, 2.5 to end in an uncaught TypeError
    cfg = _rate_cfg("strong-poc", replications=2)
    cfg["experiment"]["reference_paths"] = paths
    _rejected_by_validation(tmp_path, monkeypatch, cfg, "reference_paths")


@pytest.mark.parametrize("kind", RATE_KINDS)
def test_slack_must_be_a_nonnegative_number(tmp_path, monkeypatch, kind):
    cfg = _rate_cfg(kind, replications=2)
    cfg["experiment"]["slack"] = "x"
    _rejected_by_validation(tmp_path, monkeypatch, cfg, "slack")


@pytest.mark.parametrize("kernel", ["gaussian", 3])
def test_cubic_kernel_other_than_identity_is_rejected(tmp_path, monkeypatch, kernel):
    # a config cannot give a callable; any other kernel used to pass and end in an uncaught TypeError
    cfg = load_config(CONFIG_DIR / "simulate_cubic.yaml")
    cfg["model"]["params"]["kernel"] = kernel
    _rejected_by_validation(tmp_path, monkeypatch, cfg, "kernel")


def test_unknown_band_key_is_rejected():
    cfg = _quick_cfg()
    cfg["noise"]["small"]["rte"] = 3
    with pytest.raises(ConfigurationError, match="rte"):
        validate_and_build(cfg)


def _picard_cfg(**solver):
    cfg = load_config(CONFIG_DIR / "picard_cubic.yaml")
    cfg["model"]["dim"] = 2
    cfg["solver"].update(solver)
    return cfg


def test_picard_rejects_an_exact_flow_metric_above_the_assignment_cap(tmp_path, monkeypatch):
    # in d >= 2 every pass would solve one assignment per grid time, refused above the cap
    def no_simulation(*args, **kwargs):
        raise AssertionError("a config that must be rejected reached the solver")

    monkeypatch.setattr("levyfield.runner.picard_fixed_point", no_simulation)
    monkeypatch.setattr("levyfield.solver._simulate_system", no_simulation)
    cfg = _picard_cfg(paths=5000)
    with pytest.raises(ConfigurationError, match="exact-assignment cap"):
        validate_and_build(cfg)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["picard", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)])
    assert result.exit_code == 2
    assert "config error" in result.stderr and "exact-assignment cap" in result.stderr
    assert not out.exists()
    # dropping any one of the three conditions is accepted
    validate_and_build(_picard_cfg(paths=EXACT_SIZE_CAP))
    validate_and_build(_picard_cfg(paths=5000, flow_metric="sliced"))
    one_d = _picard_cfg(paths=5000)
    one_d["model"]["dim"] = 1
    validate_and_build(one_d)


def test_cli_jobs_default_comes_from_environment(tmp_path):
    path = _write_cfg(tmp_path, _quick_cfg())
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main, ["simulate", "--config", path, "--out", str(out)], env={"LEVYFIELD_JOBS": "3"}
    )
    assert result.exit_code == 0
    assert json.loads((out / "manifest.json").read_text())["jobs"] == 3


def test_cli_rejects_kind_mismatch_and_bad_configs(tmp_path):
    path = _write_cfg(tmp_path, _quick_cfg())
    runner = CliRunner()
    mismatch = runner.invoke(main, ["picard", "--config", path, "--out", str(tmp_path / "a")])
    assert mismatch.exit_code == 2
    assert "does not match" in mismatch.stderr

    broken = _quick_cfg()
    broken["model"]["beta"] = 9.0
    bad_path = _write_cfg(tmp_path, broken, name="bad.yaml")
    invalid = runner.invoke(main, ["simulate", "--config", bad_path, "--out", str(tmp_path / "b")])
    assert invalid.exit_code == 2
    assert "config error" in invalid.stderr

    missing = runner.invoke(main, ["simulate", "--config", str(tmp_path / "nope.yaml")])
    assert missing.exit_code == 2


def test_cli_divergent_run_writes_error_json(tmp_path):
    # deterministic explicit-scheme blowup: cubic drift, start far outside
    # the stability radius sqrt(2/step), no noise needed
    cfg = _quick_cfg()
    cfg["model"] = {"dim": 1, "beta": 2.0, "family": "cubic_interaction",
                    "params": {"c1": 1.0, "c2": 1.0, "c3": 0.1, "c4": 1.0}}
    cfg["noise"] = {"split_radius": 1.0, "small": None, "big": None}
    cfg["initial"] = {"kind": "point", "params": {"value": 20.0}}
    path = _write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["simulate", "--config", path, "--out", str(out)])
    assert result.exit_code == 2
    error = _strict_json(out / "error.json")
    assert error["error"] == "DivergenceError"
    assert "diverged" in error["message"]
    assert 0.0 < error["time"] <= 1.0
    assert 0 <= error["particle"] < 16
    assert error["magnitude"] > 1e12
    _assert_valid(error, "error.schema.json")
    assert json.loads((out / "manifest.json").read_text())["exit_code"] == 2


@pytest.mark.parametrize("kind", RATE_KINDS)
def test_rate_run_diverging_in_a_replication_writes_error_json(tmp_path, monkeypatch, kind):
    # the threshold comes from the run's own numbers: above the peak |x| of the kept
    # 8-particle reference, below the peak of some replication's 128 particles
    cfg = _rate_cfg(kind, replications=2)
    cfg["experiment"].update(n_grid=[4, 16, 128], reference_paths=8)
    references = []

    def keeping(build):
        def run(*args, **kwargs):
            references.append(build(*args, **kwargs))
            return references[-1]
        return run

    monkeypatch.setattr("levyfield.runner.reference_fixed_point", keeping(reference_fixed_point))
    monkeypatch.setattr("levyfield.runner.conditional_reference", keeping(conditional_reference))

    def run_at(threshold, name):
        cfg["solver"]["divergence_threshold"] = threshold
        references.clear()
        code = run_experiment(validate_and_build(cfg), tmp_path / name)
        assert len(references) == 1
        return code

    assert run_at(1e12, "calm") in (0, 1)
    flows = getattr(references[0], "flows", None) or [references[0].flow]
    ref_peak = max(float(np.abs(cloud.points).max()) for flow in flows for cloud in flow.clouds)
    # just above the reference's peak some replication must cross, else there is no gap to aim into
    assert run_at(float(np.nextafter(ref_peak, np.inf)), "edge") == 2, "no replication exceeds the reference's peak"
    rep_peak = _strict_json(tmp_path / "edge" / "error.json")["magnitude"]  # that replication's peak is at least this
    assert rep_peak > ref_peak

    threshold = (ref_peak + rep_peak) / 2
    assert run_at(threshold, "out") == 2
    error = _strict_json(tmp_path / "out" / "error.json")
    _assert_valid(error, "error.schema.json")
    assert error["error"] == "DivergenceError"
    assert 0 <= error["particle"] < 128 and error["magnitude"] > threshold


@pytest.mark.parametrize("kind", ["poc", "strong-poc"])
def test_single_replication_rate_run_writes_strict_json(tmp_path, kind):
    path = _write_cfg(tmp_path, _rate_cfg(kind, replications=1))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [kind, "--config", path, "--out", str(out)])
    assert result.exit_code in (0, 1), result.output  # verdict may fail on a toy grid
    doc = _strict_json(out / "result.json")
    _assert_valid(doc, "rate_result.schema.json")
    assert doc["ses"] == [None, None, None]
    rows = (out / "rate.csv").read_text().splitlines()
    assert all(row.split(",")[2] == "" for row in rows[1:])


def test_cli_wasserstein_selftest_passes():
    result = CliRunner().invoke(main, ["wasserstein-selftest", "--instances", "25", "--seed", "3"])
    assert result.exit_code == 0, result.output
    lines = [l for l in result.output.splitlines() if l.startswith("[")]
    assert len(lines) == 4 and all(l.startswith("[PASS]") for l in lines)


def test_cli_version_and_help():
    runner = CliRunner()
    assert runner.invoke(main, ["--version"]).exit_code == 0
    help_out = runner.invoke(main, ["--help"])
    assert help_out.exit_code == 0
    for sub in ["simulate", "picard", "poc", "strong-poc", "moments",
                "common-noise", "check-assumptions", "wasserstein-selftest"]:
        assert sub in help_out.output


def test_check_assumptions_writes_witnesses_as_numbers(tmp_path):
    cfg = load_config(CONFIG_DIR / "check_assumptions_cubic.yaml")
    cfg["experiment"]["trials"] = 200
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["check-assumptions", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = _strict_json(out / "result.json")
    _assert_valid(doc, "assumptions_result.schema.json")
    witness = doc["reports"][0]["witness"]
    assert len(witness["mu1"]) > 1 and all(isinstance(v, float) for v in witness["mu1"][0])
    # the written witness replays: its x is the checker's x, bit for bit
    spec = validate_and_build(cfg)
    report = check_one_sided_lipschitz(
        spec.coeffs, spec.levy, spec.coeffs.declared_one_sided, variant="A1", trials=200, seed=spec.seed,
        tolerance=1e-6,
    )
    assert np.array_equal(np.array(witness["x"]), report.witness["x"])
    assert np.array_equal(np.array(witness["mu2"]), report.witness["mu2"].points)
