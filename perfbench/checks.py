"""Property checks on the outputs of one chaos experiment.

Every check returns a list of problems; an empty list is a pass.  The
checks test properties the method must have, never a stored copy of an
earlier output, so they hold for every seed.  They take plain arrays and
paths, which lets the benchmark's tests feed them broken inputs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# schema of each JSON output a rate experiment (poc, strong-poc, common-noise poc) writes
SCHEMAS = {"manifest.json": "manifest.schema.json", "error.json": "error.schema.json",
           "result.json": "rate_result.schema.json"}

# Slope of log E W_1(two i.i.d. n-samples) against log n in d = 1.  With
# two replications over n = 64..4096 the fitted slope has a spread of
# about 0.07 around -0.49; the bound is four and a half of those.
IID_EXPONENT = -0.5
IID_SLOPE_BOUND = 0.3


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def load_strict_json(path: Path):
    """Parse a JSON file, rejecting ``NaN`` and ``Infinity``."""
    return json.loads(Path(path).read_text(), parse_constant=_reject_constant)


def check_json_outputs(out_dir: Path, schema_dir: Path) -> list[str]:
    """Every JSON output parses strictly and validates against its schema."""
    import jsonschema

    problems = []
    found = sorted(p.name for p in Path(out_dir).glob("*.json"))
    if "manifest.json" not in found:
        problems.append("manifest.json missing")
    for name in found:
        try:
            doc = load_strict_json(Path(out_dir) / name)
        except ValueError as exc:
            problems.append(f"{name}: not strict JSON ({exc})")
            continue
        if name not in SCHEMAS:
            problems.append(f"{name}: no schema known for this output")
            continue
        schema = json.loads((Path(schema_dir) / SCHEMAS[name]).read_text())
        for err in jsonschema.Draft7Validator(schema).iter_errors(doc):
            problems.append(f"{name}: {err.message}")
    return problems


def fitted_slope(n_values, values) -> float:
    """Ordinary least-squares slope of ``log values`` against ``log n``."""
    return float(np.polyfit(np.log(np.asarray(n_values, float)), np.log(np.asarray(values, float)), 1)[0])


def check_iid_slope(n_values, iid_means, target=IID_EXPONENT, bound=IID_SLOPE_BOUND) -> list[str]:
    """The i.i.d. term decays at the sampling rate ``n^-1/2`` (d = 1, p = 1)."""
    vals = np.asarray(iid_means, dtype=float)
    if vals.size < 3 or not np.all(np.isfinite(vals)) or np.any(vals <= 0):
        return [f"iid means must be >= 3 positive finite numbers, got {list(vals)}"]
    slope = fitted_slope(n_values, vals)
    if abs(slope - target) > bound:
        return [f"iid slope {slope:.4f} outside {target} +/- {bound}"]
    return []


def gap_recursion(inter_means, ref_means, a, c, dt) -> np.ndarray:
    """Coupled gap of the linear family, the same for every particle.

    ``g_{k+1} = (1 - a dt) g_k + c dt (mean X_k - mean ref_k)``, ``g_0 = 0``.
    """
    g = np.zeros(len(inter_means))
    for k in range(len(inter_means) - 1):
        g[k + 1] = (1.0 - a * dt) * g[k] + c * dt * (inter_means[k] - ref_means[k])
    return g


def check_coupled_gaps(sup_errors, inter_means, ref_means, a, c, dt, rtol=1e-9, atol=1e-12) -> list[str]:
    """Each particle's sup gap equals the sup of the scalar gap recursion."""
    want = float(np.max(np.abs(gap_recursion(inter_means, ref_means, a, c, dt))))
    sup = np.asarray(sup_errors, dtype=float)
    off = np.abs(sup - want)
    worst = int(np.argmax(off))
    if not np.all(np.isfinite(sup)) or off[worst] > rtol * want + atol:
        return [f"particle {worst}: sup gap {sup[worst]!r} != recursion sup {want!r}"]
    return []


def conditional_mean(m0, a, c, horizon, events) -> float:
    """Mean at T of the linear family's conditional law on one common path.

    ``e^{(c-a)T} m0 + sum gamma z e^{(c-a)(T-t)}`` over the path's common
    events ``(t, gamma * z)``; symmetric marks make every compensator zero.
    """
    lam = c - a
    return math.exp(lam * horizon) * m0 + math.fsum(
        jump * math.exp(lam * (horizon - t)) for t, jump in events
    )


def conditional_mean_bound(m0, a, c, horizon, dt, events, idio_jump_var, cloud_size, tol, gamma) -> float:
    """Allowed gap between a reference cloud's mean and its closed form.

    Three parts: the Euler scheme's O(dt) error on the decay and on the
    placement of each event; five standard errors of the idiosyncratic
    jumps averaged over the cloud (``idio_jump_var`` is their variance
    per unit time for one particle); and twice the fixed-point stopping
    distance, undiscounted at T.
    """
    lam = abs(c - a)
    scale = abs(m0) + sum(abs(j) for _, j in events)
    discretization = dt * lam * (1.0 + lam * horizon) * scale
    sampling = 5.0 * math.sqrt(idio_jump_var * horizon / cloud_size)
    picard = 2.0 * tol * math.exp(gamma * horizon)
    return discretization + sampling + picard


def check_conditional_means(means_t, m0, a, c, horizon, event_lists, bounds) -> list[str]:
    """Each path's reference mean at T matches the closed form within its bound."""
    problems = []
    for j, (got, events, bound) in enumerate(zip(means_t, event_lists, bounds)):
        want = conditional_mean(m0, a, c, horizon, events)
        if not math.isfinite(got) or abs(got - want) > bound:
            problems.append(f"path {j}: mean at T {got:.6f}, closed form {want:.6f}, bound {bound:.4f}")
    return problems


def check_same_bytes(dir_a: Path, dir_b: Path, names) -> list[str]:
    """Named files exist in both directories with identical bytes."""
    problems = []
    for name in names:
        a, b = Path(dir_a) / name, Path(dir_b) / name
        if not (a.exists() and b.exists()):
            problems.append(f"{name}: missing in {a.parent.name if not a.exists() else b.parent.name}")
        elif a.read_bytes() != b.read_bytes():
            problems.append(f"{name}: bytes differ between {a.parent.name} and {b.parent.name}")
    return problems
