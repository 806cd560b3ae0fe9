"""The three workloads: one config each, its worker count, its checks.

A workload's property check gets the parsed ``result.json`` and what the
run captured of its reference (``summarize`` turns the reference into
the few arrays the check needs, so the flows are not kept alive).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import checks

CONFIG_DIR = Path(__file__).resolve().parent / "configs"


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    jobs: int
    reference_name: Optional[str]  # runner name whose result the checks need
    summarize: Optional[Callable]
    check: Callable  # (spec, result, summary) -> problems
    pick_seed: Optional[Callable] = None  # config seed -> experiment seed to run


def _weak_check(spec, result, summary):
    exp = spec.experiment
    if float(exp["p"]) != 1.0 or spec.coeffs.dim != 1:
        return ["iid slope check needs p = 1 and d = 1"]
    return checks.check_iid_slope(result["n_values"], result["details"]["iid_means"])


def _strong_summary(spec, reference):
    # one coupled pair at the largest n on replica 0, the first replication's streams
    from levyfield.solver import simulate_coupled
    from levyfield.streams import EXP_MAIN, StreamContext

    n = max(spec.experiment["n_grid"])
    ctx = StreamContext(seed=spec.seed, experiment=EXP_MAIN, replica=0)
    coupled = simulate_coupled(spec.coeffs, n, spec.initial, spec.levy, spec.grid, ctx,
                               reference.flow, spec.solver, record_paths=True)
    return coupled_summary(coupled, reference.flow, spec.grid.times)


def coupled_summary(coupled, flow, times):
    """Per-particle sup gaps (reported and recomputed from the paths) and both cloud means."""
    paths = coupled.interacting.paths + coupled.limit.paths
    if not all(np.array_equal(p.times, times) for p in paths):
        return {"on_grid": False}
    inter = np.stack([p.states[:, 0] for p in coupled.interacting.paths], axis=1)
    limit = np.stack([p.states[:, 0] for p in coupled.limit.paths], axis=1)
    return {
        "on_grid": True,
        "sup_errors": coupled.sup_errors,
        "path_sups": np.abs(inter - limit).max(axis=0),
        "inter_means": inter.mean(axis=1),
        "ref_means": np.array([flow.at(t).mean()[0] for t in times]),
    }


def _strong_check(spec, result, summary):
    coeffs = spec.coeffs
    if coeffs.name != "linear_meanfield" or coeffs.dim != 1 or spec.levy.big is not None:
        return ["gap recursion check needs the 1-d linear family without a big band"]
    if not summary["on_grid"]:
        return ["coupled paths left the uniform grid"]
    args = (summary["inter_means"], summary["ref_means"], coeffs.params["a"], coeffs.params["c"], spec.grid.step)
    return (checks.check_coupled_gaps(summary["sup_errors"], *args)
            + checks.check_coupled_gaps(summary["path_sups"], *args))


def _conditional_summary(spec, reference):
    horizon = spec.grid.horizon
    return {
        "means_t": [float(flow.at(horizon).mean()[0]) for flow in reference.flows],
        "m0": float(reference.initial_cloud.mean()[0]),
        "cloud_size": len(reference.initial_cloud),
        "realizations": [(r.u_times, r.u_marks[:, 0], r.v_times, r.v_marks[:, 0]) for r in reference.realizations],
    }


def _conditional_check(spec, result, summary):
    from levyfield.solver import resolve_gamma

    coeffs, levy, common = spec.coeffs, spec.levy, spec.common
    bands = [b for b in (levy.small, levy.big, common.small, common.big) if b is not None]
    if (coeffs.name != "linear_meanfield" or coeffs.dim != 1 or levy.big is not None
            or any(np.any(b.sampler.mean != 0.0) for b in bands)):
        return ["closed-form mean needs the 1-d linear family, symmetric marks and no idiosyncratic big band"]
    prm = coeffs.params
    a, c, horizon = prm["a"], prm["c"], spec.grid.horizon
    idio_var = (levy.small.rate * prm["gamma_f"] ** 2 * levy.small.sampler.abs_moment(2.0)
                if levy.small is not None else 0.0)
    events = [
        sorted([(float(t), prm["gamma_f0"] * float(z)) for t, z in zip(ut, um)]
               + [(float(t), prm["gamma_g0"] * float(z)) for t, z in zip(vt, vm)])
        for ut, um, vt, vm in summary["realizations"]
    ]
    bounds = [
        checks.conditional_mean_bound(summary["m0"], a, c, horizon, spec.grid.step, ev, idio_var,
                                      summary["cloud_size"], spec.solver.tol, resolve_gamma(spec.solver, coeffs))
        for ev in events
    ]
    problems = checks.check_conditional_means(summary["means_t"], summary["m0"], a, c, horizon, events, bounds)
    counts = [ut.size + vt.size for ut, _, vt, _ in summary["realizations"]]
    if result["details"].get("common_events") != counts:
        problems.append(f"result.json common_events {result['details'].get('common_events')} != reference {counts}")
    return problems


# Four common paths at big-band rate 0.5 over T = 1 hold two big events on
# average.  Each one sends every particle of its path through the scalar
# interlacing step, and the conditional fixed point, most of the run,
# takes three or four Picard passes depending on the seed: either varies
# the run time by a quarter to a half between seeds.  So the workload runs
# only the seeds of this fixed table: the first sixteen from 1 up whose
# paths hold exactly COMMON_BIG_EVENTS common big events and whose fixed
# point, when the table was made, took three passes at 4096 particles.
# The table does not depend on the code being measured, so a change that
# alters the pass count runs the same experiments as its parent and shows
# in ``wall_s`` and ``picard.iterations``.
COMMON_BIG_EVENTS = 2
CONDITIONAL_SEEDS = (3, 4, 6, 11, 23, 34, 45, 53, 59, 75, 78, 83, 84, 91, 93, 98)


def _conditional_seed(seed):
    """The table's experiment seed for ``--seed seed``."""
    return CONDITIONAL_SEEDS[seed % len(CONDITIONAL_SEEDS)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("weak-poc", "weak-poc.yaml", 1, None, None, _weak_check),
        Workload("strong-poc", "strong-poc.yaml", 1, "reference_fixed_point", _strong_summary, _strong_check),
        Workload("conditional-poc", "conditional-poc.yaml", 2, "conditional_reference",
                 _conditional_summary, _conditional_check, _conditional_seed),
    )
}
