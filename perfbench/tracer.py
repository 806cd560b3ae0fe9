"""Per-layer tracing from outside the package.

Hooks wrap public names of ``levyfield`` modules and are removed again
after the traced run.  A name bound with ``from .x import y`` is patched
in every module that holds it, since each module looks it up in its own
namespace.  Hot hooks (called up to millions of times) keep a count, a
row total and a busy time; coarse hooks (reference, replication, one
particle count, aggregation) keep a span with name, start, end, parent
and a few facts about the call.

Busy time is counted once per layer, at the outermost hooked call of
that layer, and the leaf total once at the outermost hooked call of any
hot layer, so nested hooks never double-count.  A hook whose target is
gone marks its metrics absent and the run goes on.
"""

from __future__ import annotations

import inspect
import pickle
import statistics
import sys
from time import perf_counter

# rows of a hot call: its first argument is the state or point array
_ROWS_FIRST_ARG = lambda args, kwargs, result: len(args[0])

_COEFFICIENT_FIELDS = ("drift", "small_jump", "big_jump", "small_compensator",
                       "common_small", "common_big", "common_small_compensator")


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


class Tracer:
    """Hooks, counters and spans of one traced experiment."""

    def __init__(self):
        self.t0 = perf_counter()
        self.counts: dict[str, int] = {}
        self.rows: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.leaf_s = 0.0
        self.spans: list[dict] = []
        self.absent: set[str] = set()
        self._layer_depth: dict[str, int] = {}
        self._depth = 0
        self._stack: list[int] = []
        self._restore: list = []
        self.payload_bytes = 0

    # -- hook factories -------------------------------------------------

    def _hot(self, layer, key, fn, rows=None):
        counts, rows_tot, busy, depth = self.counts, self.rows, self.busy, self._layer_depth
        counts.setdefault(key, 0)
        rows_tot.setdefault(key, 0)
        busy.setdefault(layer, 0.0)
        depth.setdefault(layer, 0)
        tracer = self

        def hooked(*args, **kwargs):
            outer_any = tracer._depth == 0
            outer_layer = depth[layer] == 0
            tracer._depth += 1
            depth[layer] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._depth -= 1
                depth[layer] -= 1
                if outer_layer:
                    busy[layer] += elapsed
                if outer_any:
                    tracer.leaf_s += elapsed
            counts[key] += 1
            if rows is not None:
                rows_tot[key] += rows(args, kwargs, result)
            return result

        return hooked

    def _span(self, name, fn, facts=None):
        tracer = self

        def hooked(*args, **kwargs):
            rec = {"name": name, "parent": tracer._stack[-1] if tracer._stack else None,
                   "start": perf_counter() - tracer.t0}
            leaf0 = tracer.leaf_s
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = perf_counter() - tracer.t0
                rec["leaf_s"] = tracer.leaf_s - leaf0
                tracer._stack.pop()
            if facts is not None:
                rec.update(facts(_bound(fn, args, kwargs), result))
            return result

        return hooked

    # -- installation ---------------------------------------------------

    def _rebind(self, original, replacement) -> bool:
        """Replace ``original`` by ``replacement`` in every levyfield module."""
        hit = False
        for name, mod in list(sys.modules.items()):
            if not (name == "levyfield" or name.startswith("levyfield.")) or mod is None:
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, replacement)
                    self._restore.append((setattr, mod, attr, original))
                    hit = True
        return hit

    def _patch_attr(self, owner, attr, replacement):
        self._restore.append((setattr, owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _lookup(self, module, name, metrics):
        obj = getattr(sys.modules.get(f"levyfield.{module}"), name, None)
        if obj is None:
            self.absent.update(metrics)
        return obj

    def _hook_function(self, module, name, make, metrics):
        fn = self._lookup(module, name, metrics)
        if fn is not None:
            self._rebind(fn, make(fn))

    def install(self, n_steps):
        """Install every hook; ``n_steps`` is the grid's uniform step count."""
        import levyfield.runner  # noqa: F401  (loads every module hooked below)

        stream_cls = self._lookup("streams", "NoiseStream", ["streams.generators", "streams.generator_s"])
        if stream_cls is not None and "generator" in stream_cls.__dict__:
            self._patch_attr(stream_cls, "generator",
                             self._hot("streams", "generators", stream_cls.__dict__["generator"]))

        sampler_cls = self._lookup("noise", "MarkSampler", ["noise.mark_draws", "noise.marks",
                                                           "noise.marks_per_draw", "noise.mark_draw_s"])
        if sampler_cls is not None:
            todo = list(sampler_cls.__subclasses__())
            while todo:
                cls = todo.pop()
                todo.extend(cls.__subclasses__())
                if "draw" in cls.__dict__:
                    self._patch_attr(cls, "draw", self._hot(
                        "noise", "mark_draws", cls.__dict__["draw"],
                        rows=lambda args, kwargs, result: len(result)))

        families = self._lookup("coefficients", "FAMILIES", ["coefficients.calls", "coefficients.rows_per_call",
                                                             "coefficients.eval_s"])
        if families is not None:
            for fam, builder in list(families.items()):
                self._restore.append((dict.__setitem__, families, fam, builder))
                families[fam] = self._wrap_builder(builder)

        measure_cls = self._lookup("measures", "EmpiricalMeasure", ["measures.clouds", "measures.cloud_s"])
        if measure_cls is not None:
            self._patch_attr(measure_cls, "__init__", self._hot("measures", "clouds", measure_cls.__dict__["__init__"]))

        w_metrics = ["wasserstein.calls", "wasserstein.points", "wasserstein.s"]
        for name in ("w_p_1d", "w_p_exact"):
            self._hook_function("wasserstein", name,
                                lambda fn: self._hot("wasserstein", "distances", fn, rows=_ROWS_FIRST_ARG), w_metrics)
        self._hook_function("wasserstein", "flow_distance",
                            lambda fn: self._hot("wasserstein", "flow_distances", fn), w_metrics)

        self._hook_function("common_noise", "sample_common_realization",
                            lambda fn: self._hot("common_noise", "common_events", fn,
                                                 rows=lambda args, kwargs, result: result.n_events),
                            ["common_noise.events"])

        ref_metrics = ["picard.reference_s", "picard.iterations", "solver.particle_steps",
                       "solver.self_s", "solver.ns_per_particle_step"]
        self._hook_function("chaos", "reference_fixed_point",
                            lambda fn: self._span("reference", fn, self._reference_facts(n_steps)), ref_metrics)
        self._hook_function("common_noise", "conditional_reference",
                            lambda fn: self._span("reference", fn, self._reference_facts(n_steps)), ref_metrics)

        rep_metrics = ["chaos.replications", "chaos.replication_s"]
        for module, name in (("chaos", "weak_poc_replication"), ("chaos", "strong_poc_replication"),
                             ("common_noise", "conditional_poc_replication")):
            self._hook_function(module, name, lambda fn: self._span("replication", fn), rep_metrics)

        n_metrics = ["solver.particle_steps", "solver.breakpoints", "solver.self_s"]
        self._hook_function("chaos", "coupling_terms",
                            lambda fn: self._span("n", fn, self._system_facts(3, n_steps)), n_metrics)
        self._hook_function("solver", "simulate_coupled",
                            lambda fn: self._span("n", fn, self._system_facts(2, n_steps)), n_metrics)

        for module, name in (("chaos", "run_weak_poc"), ("chaos", "run_strong_poc"),
                             ("common_noise", "run_conditional_poc")):
            self._hook_function(module, name, lambda fn: self._span("aggregate", fn),
                                ["runner.fanout_s", "runner.write_s"])

        pool = self._lookup("runner", "ProcessPoolExecutor", ["runner.payload_bytes"])
        if pool is not None:
            self._rebind(pool, self._counting_pool(pool))

    def _counting_pool(self, pool):
        """``pool`` that adds the pickled size of every call it sends to a worker."""
        tracer = self

        class CountingPool(pool):
            def submit(self, fn, /, *args, **kwargs):  # map sends its chunks through submit
                tracer.payload_bytes += len(pickle.dumps((fn, args, kwargs)))
                return super().submit(fn, *args, **kwargs)

        return CountingPool

    def _wrap_builder(self, builder):
        tracer = self

        def build(*args, **kwargs):
            coeffs = builder(*args, **kwargs)
            for field in _COEFFICIENT_FIELDS:
                fn = getattr(coeffs, field, None)
                if fn is not None:
                    setattr(coeffs, field, tracer._hot("coefficients", "calls", fn, rows=_ROWS_FIRST_ARG))
            return coeffs

        return build

    def _reference_facts(self, n_steps):
        def facts(bound, result):
            flows = getattr(result, "flows", None)
            paths = len(result.initial_cloud)
            k = len(flows) if flows is not None else 1
            big = sum(r.v_times.size for r in result.realizations) if flows is not None else 0
            return {"iterations": int(result.iterations), "paths": paths, "common_paths": k,
                    "particle_steps": result.iterations * k * paths * n_steps,
                    "breakpoints": result.iterations * paths * big}
        return facts

    def _system_facts(self, systems, n_steps):
        def facts(bound, result):
            n = int(bound["n"])
            common = bound.get("common")
            big = common.v_times.size if common is not None else 0
            return {"n": n, "particle_steps": systems * n * n_steps, "breakpoints": systems * n * big}
        return facts

    def uninstall(self):
        for setter, owner, attr, original in reversed(self._restore):
            setter(owner, attr, original)
        self._restore.clear()

    # -- metrics --------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the hot hooks and the in-process spans."""
        c, r, b = self.counts, self.rows, self.busy
        refs = [s for s in self.spans if s["name"] == "reference"]
        systems = refs + [s for s in self.spans if s["name"] == "n"]
        reps = [s["end"] - s["start"] for s in self.spans if s["name"] == "replication"]
        steps = sum(s.get("particle_steps", 0) for s in systems)
        self_s = sum(s["end"] - s["start"] - s["leaf_s"] for s in systems)
        out = {
            "streams.generators": c.get("generators", 0),
            "streams.generator_s": b.get("streams", 0.0),
            "noise.mark_draws": c.get("mark_draws", 0),
            "noise.marks": r.get("mark_draws", 0),
            "noise.marks_per_draw": r.get("mark_draws", 0) / c["mark_draws"] if c.get("mark_draws") else 0.0,
            "noise.mark_draw_s": b.get("noise", 0.0),
            "coefficients.calls": c.get("calls", 0),
            "coefficients.rows_per_call": r.get("calls", 0) / c["calls"] if c.get("calls") else 0.0,
            "coefficients.eval_s": b.get("coefficients", 0.0),
            "measures.clouds": c.get("clouds", 0),
            "measures.cloud_s": b.get("measures", 0.0),
            "solver.particle_steps": steps,
            "solver.breakpoints": sum(s.get("breakpoints", 0) for s in systems),
            "solver.self_s": self_s,
            "solver.ns_per_particle_step": 1e9 * self_s / steps if steps else 0.0,
            "picard.reference_s": sum(s["end"] - s["start"] for s in refs),
            "picard.iterations": sum(s.get("iterations", 0) for s in refs),
            "wasserstein.calls": c.get("distances", 0),
            "wasserstein.points": r.get("distances", 0),
            "wasserstein.s": b.get("wasserstein", 0.0),
            "chaos.replications": len(reps),
            "chaos.replication_s": statistics.median(reps) if reps else 0.0,
            "common_noise.events": r.get("common_events", 0),
        }
        return out

    def runner_metrics(self, run_end) -> dict[str, float]:
        """Fan-out span, payload size and write span of one traced run.

        ``run_end`` is the end of ``run_experiment`` on this tracer's clock.
        The payload is what the runner's process pool pickled for its
        workers; an in-process run sends nothing.
        """
        ref = next((s for s in self.spans if s["name"] == "reference" and s["parent"] is None), None)
        agg = next((s for s in self.spans if s["name"] == "aggregate" and s["parent"] is None), None)
        out = {"runner.payload_bytes": self.payload_bytes}
        if ref is not None and agg is not None:
            out["runner.fanout_s"] = agg["start"] - ref["end"]
        if agg is not None:
            out["runner.write_s"] = run_end - agg["end"]
        return out

    def span_log(self) -> list[dict]:
        return [dict(s) for s in self.spans]

