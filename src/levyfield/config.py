"""Declarative experiment configs.

One YAML document describes one experiment: the coefficient family, the
two-band jump model (plus an optional shared layer), the initial law,
the grid, solver knobs, and the experiment-specific block.  Validation
is collecting, not fail-fast: every violation in the file is reported in
one :class:`ConfigurationError`.  A manifest (config digest, package
version, seed, timing) is written next to every output set so a result
can always be traced back to the exact inputs that produced it.
"""

from __future__ import annotations

import hashlib
import json
import platform
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np
import scipy
import yaml

from . import __version__
from .coefficients import FAMILIES, CoefficientSet
from .common_noise import TwoLayerNoise
from .errors import ConfigurationError
from .initial import INITIAL_SAMPLERS, InitialLaw
from .noise import MARK_SAMPLERS, LevyBand, LevyModel
from .solver import SolverConfig, TimeGrid
from .streams import STREAM_SCHEME
from .wasserstein import EXACT_SIZE_CAP

__all__ = [
    "CONFIG_VERSION",
    "KINDS",
    "ExperimentSpec",
    "load_config",
    "validate_and_build",
    "config_digest",
    "RunManifest",
]

CONFIG_VERSION = 1

KINDS = (
    "simulate",
    "picard",
    "poc",
    "strong-poc",
    "moments",
    "common-noise",
    "check-assumptions",
)

# keys of the top level and of the fixed-shape blocks; anything else is a typo
_TOP_KEYS = {"version", "kind", "seed", "model", "noise", "common_noise", "initial", "grid", "solver", "experiment"}
_MODEL_KEYS = {"dim", "beta", "family", "params"}
_NOISE_KEYS = {"split_radius", "small", "big"}
_INITIAL_KEYS = {"kind", "params"}
_GRID_KEYS = {"horizon", "step"}
_BAND_KEYS = {"rate", "sampler", "params"}
# kinds that read a common_noise block
_COMMON_KINDS = ("common-noise", "check-assumptions")
# solver keys of the fixed-point loop; a rate run's reference is one interacting run, which reads none of them
_FIXED_POINT_SOLVER_KEYS = ("paths", "max_iter", "flow_metric")

# experiment-block keys each kind accepts (None = no experiment block needed);
# strong-poc has no eval_time, its statistic is a supremum over the horizon
_EXPERIMENT_KEYS = {
    "simulate": {"n"},
    "picard": set(),
    "poc": {"p", "n_grid", "replications", "eval_time", "reference_paths", "slack"},
    "strong-poc": {"p", "n_grid", "replications", "q1", "q2", "reference_paths", "slack"},
    "moments": {"scalings", "separated_coercivity", "spread_bound"},
    "common-noise": {"task", "n", "p", "n_grid", "replications", "eval_time", "reference_paths", "slack"},
    "check-assumptions": {"variant", "coercivity_variant", "p", "trials", "tolerance"},
}


@dataclass
class ExperimentSpec:
    """A validated config with all heavyweight objects already built."""

    kind: str
    seed: int
    raw: dict
    coeffs: CoefficientSet
    levy: LevyModel
    initial: InitialLaw
    grid: TimeGrid
    solver: SolverConfig
    experiment: dict
    common: Optional[LevyModel] = None

    @property
    def two_layer(self) -> TwoLayerNoise:
        if self.common is None:
            return TwoLayerNoise.single_layer(self.levy)
        return TwoLayerNoise(idio=self.levy, common=self.common)


def load_config(path) -> dict:
    """Parse a YAML config file into a plain dict."""
    text = Path(path).read_text()
    doc = yaml.safe_load(text)
    if not isinstance(doc, dict):
        raise ConfigurationError(f"config root must be a mapping, got {type(doc).__name__}")
    return doc


def config_digest(cfg: dict) -> str:
    """Canonical sha256 of a config dict (key order independent)."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def _check_keys(block: dict, allowed: set, where: str, problems: list) -> bool:
    """Name every key of ``block`` outside ``allowed`` by its key path; True when there is none."""
    unknown = sorted(str(key) for key in set(block) - allowed)
    if unknown:
        paths = [f"{where}.{key}" if where else key for key in unknown]
        problems.append(f"unknown keys {paths}; {where or 'the top level'} takes {sorted(allowed)}")
    return not unknown


def _build_sampler(block: dict, dim: int, where: str, problems: list):
    name = block.get("sampler")
    if name not in MARK_SAMPLERS:
        problems.append(f"{where}: unknown mark sampler {name!r}, choose from {sorted(MARK_SAMPLERS)}")
        return None
    try:
        return MARK_SAMPLERS[name](dim, **(block.get("params") or {}))
    except (ConfigurationError, TypeError) as exc:
        problems.append(f"{where}: {exc}")
        return None


def _build_band(block, dim: int, where: str, problems: list) -> Optional[LevyBand]:
    if block is None:
        return None
    if not isinstance(block, dict):
        problems.append(f"{where} must be a mapping or null")
        return None
    if not _check_keys(block, _BAND_KEYS, where, problems):
        return None
    if "rate" not in block:
        problems.append(f"{where}: band needs a rate")
        return None
    sampler = _build_sampler(block, dim, where, problems)
    if sampler is None:
        return None
    try:
        return LevyBand(rate=float(block["rate"]), sampler=sampler)
    except ConfigurationError as exc:
        problems.append(f"{where}: {exc}")
        return None


def _build_levy(block, dim: int, where: str, problems: list) -> Optional[LevyModel]:
    if not isinstance(block, dict):
        problems.append(f"{where} block must be a mapping")
        return None
    _check_keys(block, _NOISE_KEYS, where, problems)
    small = _build_band(block.get("small"), dim, f"{where}.small", problems)
    big = _build_band(block.get("big"), dim, f"{where}.big", problems)
    try:
        return LevyModel(
            dim=dim,
            split_radius=float(block.get("split_radius", 1.0)),
            small=small,
            big=big,
        )
    except ConfigurationError as exc:
        problems.append(f"{where}: {exc}")
        return None


def validate_and_build(cfg: dict) -> ExperimentSpec:
    """Check a parsed config exhaustively and construct every object.

    All violations are gathered before raising, so one round trip shows
    everything wrong with a file.
    """
    problems: list[str] = []
    _check_keys(cfg, _TOP_KEYS, "", problems)

    version = cfg.get("version")
    if version != CONFIG_VERSION:
        problems.append(f"version must be {CONFIG_VERSION}, got {version!r}")
    kind = cfg.get("kind")
    if kind not in KINDS:
        problems.append(f"kind must be one of {KINDS}, got {kind!r}")
    seed = cfg.get("seed")
    if not isinstance(seed, int) or seed < 0:
        problems.append(f"seed must be a nonnegative integer, got {seed!r}")
        seed = 0

    model = cfg.get("model")
    dim, beta, coeffs = 1, 2.0, None
    if not isinstance(model, dict):
        problems.append("model block is required (dim, beta, family, params)")
    else:
        _check_keys(model, _MODEL_KEYS, "model", problems)
        dim = model.get("dim", 1)
        beta = model.get("beta", 2.0)
        if not isinstance(dim, int) or dim < 1:
            problems.append(f"model.dim must be a positive integer, got {dim!r}")
            dim = 1
        if not isinstance(beta, (int, float)) or not 1.0 < float(beta) <= 2.0:
            problems.append(f"model.beta must lie in (1, 2], got {beta!r}")
            beta = 2.0
        beta = float(beta)

    if cfg.get("noise") is None:
        problems.append("noise block is required (bands may be null for a jump-free run)")
        levy = None
    else:
        levy = _build_levy(cfg.get("noise"), dim, "noise", problems)

    common = None
    if cfg.get("common_noise") is not None:
        if kind in KINDS and kind not in _COMMON_KINDS:
            problems.append(f"common_noise is not read by kind {kind!r}; only {list(_COMMON_KINDS)} take it")
        common = _build_levy(cfg.get("common_noise"), dim, "common_noise", problems)

    if isinstance(model, dict) and levy is not None:
        family = model.get("family")
        if family not in FAMILIES:
            problems.append(f"model.family must be one of {sorted(FAMILIES)}, got {family!r}")
        else:
            try:
                coeffs = FAMILIES[family](levy, dim=dim, beta=beta, **(model.get("params") or {}))
            except (ConfigurationError, TypeError) as exc:
                problems.append(f"model.params: {exc}")

    initial = None
    init_block = cfg.get("initial") or {"kind": "normal"}
    if not isinstance(init_block, dict) or init_block.get("kind") not in INITIAL_SAMPLERS:
        problems.append(
            f"initial.kind must be one of {sorted(INITIAL_SAMPLERS)}, got {init_block!r}"
        )
    else:
        _check_keys(init_block, _INITIAL_KEYS, "initial", problems)
        try:
            initial = INITIAL_SAMPLERS[init_block["kind"]](dim, **(init_block.get("params") or {}))
        except (ConfigurationError, TypeError) as exc:
            problems.append(f"initial.params: {exc}")

    grid = None
    grid_block = cfg.get("grid")
    if not isinstance(grid_block, dict) or "horizon" not in grid_block or "step" not in grid_block:
        problems.append("grid block with horizon and step is required")
    else:
        _check_keys(grid_block, _GRID_KEYS, "grid", problems)
        try:
            grid = TimeGrid.regular(float(grid_block["horizon"]), float(grid_block["step"]))
        except (ConfigurationError, TypeError, ValueError) as exc:
            problems.append(f"grid: {exc}")

    solver = None
    try:
        solver = SolverConfig(**(cfg.get("solver") or {}))
    except (ConfigurationError, TypeError) as exc:
        problems.append(f"solver: {exc}")
    # a Picard pass compares whole flows; in d >= 2 the exact metric solves one
    # assignment per grid time and refuses clouds above the cap
    if (kind == "picard" and solver is not None and dim >= 2
            and solver.flow_metric == "exact" and solver.paths > EXACT_SIZE_CAP):
        problems.append(
            f"solver.paths {solver.paths} exceeds the exact-assignment cap {EXACT_SIZE_CAP} in dim {dim}; "
            "lower it or set solver.flow_metric: sliced"
        )

    experiment = cfg.get("experiment") or {}
    if not isinstance(experiment, dict):
        problems.append("experiment block must be a mapping")
        experiment = {}
    elif kind in _EXPERIMENT_KEYS:
        allowed = _EXPERIMENT_KEYS[kind]
        unknown = set(experiment) - allowed
        if unknown:
            problems.append(f"experiment keys {sorted(unknown)} are not valid for kind {kind!r}")
        problems.extend(_check_experiment(kind, experiment))
        solver_block = cfg.get("solver") or {}
        rate_run = kind in ("poc", "strong-poc") or (kind == "common-noise" and experiment.get("task") == "poc")
        if rate_run and isinstance(solver_block, dict):
            unread = [f"solver.{key}" for key in _FIXED_POINT_SOLVER_KEYS if key in solver_block]
            if unread:
                problems.append(f"{unread}: a {kind!r} rate run does not read these solver keys")

    if problems:
        raise ConfigurationError(problems)
    return ExperimentSpec(
        kind=kind,
        seed=seed,
        raw=cfg,
        coeffs=coeffs,
        levy=levy,
        initial=initial,
        grid=grid,
        solver=solver,
        experiment=experiment,
        common=common,
    )


def _check_experiment(kind: str, exp: dict) -> list[str]:
    problems = []

    def need(key, pred, msg):
        if key not in exp:
            problems.append(f"experiment.{key} is required for kind {kind!r}")
        elif not pred(exp[key]):
            problems.append(f"experiment.{key} {msg}, got {exp[key]!r}")

    is_pos_int = lambda v: isinstance(v, int) and v > 0
    is_n_grid = lambda v: (
        isinstance(v, list)
        and len(v) >= 3
        and all(isinstance(x, int) and x >= 2 for x in v)
        and all(b > a for a, b in zip(v, v[1:]))
    )
    if kind == "simulate":
        need("n", is_pos_int, "must be a positive integer")
    elif kind in ("poc", "strong-poc"):
        need("p", lambda v: isinstance(v, (int, float)) and v >= 1, "must be >= 1")
        need("n_grid", is_n_grid, "must be >= 3 strictly increasing integers >= 2")
        need("replications", is_pos_int, "must be a positive integer")
        if kind == "strong-poc":
            q1, q2 = exp.get("q1", 0.5), exp.get("q2", 0.9)
            if not (isinstance(q1, (int, float)) and isinstance(q2, (int, float)) and 0 < q1 < q2 < 1):
                problems.append(f"experiment needs 0 < q1 < q2 < 1, got q1={q1!r}, q2={q2!r}")
    elif kind == "moments":
        scal = exp.get("scalings")
        if not (isinstance(scal, list) and len(scal) >= 2 and all(isinstance(s, (int, float)) and s > 0 for s in scal)):
            problems.append(f"experiment.scalings must be >= 2 positive numbers, got {scal!r}")
    elif kind == "common-noise":
        task = exp.get("task")
        if task not in ("simulate", "poc"):
            problems.append(f"experiment.task must be 'simulate' or 'poc', got {task!r}")
        elif task == "simulate":
            need("n", is_pos_int, "must be a positive integer")
        else:
            need("p", lambda v: isinstance(v, (int, float)) and v >= 1, "must be >= 1")
            need("n_grid", is_n_grid, "must be >= 3 strictly increasing integers >= 2")
            need("replications", is_pos_int, "must be a positive integer")
    elif kind == "check-assumptions":
        variant = exp.get("variant", "A1")
        if variant not in ("A1", "A1p"):
            problems.append(f"experiment.variant must be 'A1' or 'A1p', got {variant!r}")
        cvariant = exp.get("coercivity_variant", "A2")
        if cvariant not in ("A2", "A21", "B2"):
            problems.append(f"experiment.coercivity_variant must be 'A2', 'A21' or 'B2', got {cvariant!r}")
    if kind in ("poc", "strong-poc", "common-noise"):
        if "reference_paths" in exp:
            need("reference_paths", is_pos_int, "must be a positive integer")
        if "slack" in exp:
            need("slack", lambda v: isinstance(v, (int, float)) and v >= 0, "must be a number >= 0")
    return problems


@dataclass
class RunManifest:
    """Provenance record written beside every output set."""

    kind: str
    seed: int
    config_sha256: str
    package_version: str = __version__
    started_utc: str = ""
    wall_seconds: float = 0.0
    jobs: int = 1
    outputs: list = field(default_factory=list)
    exit_code: int = 0
    # which draw each stream address yields, see levyfield.streams
    stream_scheme: int = STREAM_SCHEME
    # particle and common draws rest on Philox raw outputs and numpy's float64
    # log1p/cos/sqrt; AUX draws still use numpy's generator algorithms
    environment: dict = field(default_factory=dict)

    @staticmethod
    def start(spec: ExperimentSpec, jobs: int) -> "RunManifest":
        return RunManifest(
            kind=spec.kind,
            seed=spec.seed,
            config_sha256=config_digest(spec.raw),
            started_utc=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            jobs=jobs,
            environment={
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "platform": platform.platform(),
            },
        )

    def write(self, out_dir) -> Path:
        path = Path(out_dir) / "manifest.json"
        path.write_text(json.dumps(self.__dict__, indent=2, sort_keys=True) + "\n")
        return path
