"""Benchmark of the three chaos experiments, end to end and layer by layer.

Run from the root of a levyfield source tree:

    python3 perfbench/run.py --workload weak-poc --seed 1 --seconds 55 --trace 0

``--trace 0`` repeats the workload's experiment through
``levyfield.runner.run_experiment`` with no hooks, as often as fits in
``--seconds`` (at least once), checks every run's outputs, and reports
the end-to-end metrics (medians over the runs).  ``--trace 1`` repeats
rounds of one untraced run plus a traced pass (hooks on the package's
public names, see ``tracer.py``) and reports the per-layer metrics.
``--workload all`` runs every workload in turn, each for ``--seconds``,
and prefixes each metric with its workload's name.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import time

_START = time.perf_counter()  # set-up time counts from here

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # BLAS threads pinned before numpy loads, workers inherit it

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

COMPARED_OUTPUTS = ("result.json", "rate.csv")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="weak-poc, strong-poc, conditional-poc, or all of them in turn (--seconds each)")
    ap.add_argument("--seed", type=int, default=None, help="experiment seed (default: the shipped config's)")
    ap.add_argument("--seconds", type=float, default=55.0, help="measure whole runs for this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced pass")
    return ap.parse_args(argv)


def metric_units(section):
    """Metric name -> unit for one section of BENCHMARK.json, in file order."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


def _rusage():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss) / 1024.0  # ru_maxrss is in KiB on Linux


class Bench:
    """One workload's runs, checks and counts."""

    def __init__(self, workload, raw, spec, runs_dir):
        import levyfield.runner

        self.w, self.raw, self.spec = workload, raw, spec
        self.runner = levyfield.runner
        self.runs_dir = runs_dir
        self.first_bytes = None
        self.attempted = self.failed = self.wrong = 0
        self.problems: list[str] = []
        self.verdicts: set[str] = set()

    def _count(self, label, code, problems):
        """An experiment fails on exit 2 (no verdict) or on a failed check."""
        self.attempted += 1
        if code == 2 or problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
        if code != 2 and problems:
            self.wrong += 1

    def timed_run(self, out):
        """One untraced run; returns (code, wall, cpu, reference or None)."""
        kept = []
        name = self.w.reference_name
        original = getattr(self.runner, name, None) if name else None
        if original is not None:
            def keep(*args, **kwargs):
                res = original(*args, **kwargs)
                kept.append(res)
                return res
            setattr(self.runner, name, keep)
        try:
            cpu0, _ = _rusage()
            t0 = time.perf_counter()
            code = self.runner.run_experiment(self.spec, out, jobs=self.w.jobs)
            wall = time.perf_counter() - t0
            cpu1, _ = _rusage()
        finally:
            if original is not None:
                setattr(self.runner, name, original)
        return code, wall, cpu1 - cpu0, (kept[-1] if kept else None)

    def verify(self, out, code, reference):
        """All checks on one untraced run's output directory."""
        import checks

        if code == 2:
            err = out / "error.json"
            return [f"no verdict (exit 2): {err.read_text().strip() if err.exists() else 'no error.json'}"]
        problems = checks.check_json_outputs(out, ROOT / "schemas")
        if problems:
            return problems
        manifest = checks.load_strict_json(out / "manifest.json")
        if manifest["exit_code"] != code:
            problems.append(f"manifest exit_code {manifest['exit_code']} != returned {code}")
        result = checks.load_strict_json(out / "result.json")
        tag = "PASS" if result["passed"] else "FAIL"
        self.verdicts.add(f"{tag}: slope {result['slope']:.4f} vs predicted {result['theoretical']:.4f}"
                          f" + slack {result['slack']}")
        if self.w.reference_name and reference is None:
            problems.append(f"runner.{self.w.reference_name} was not called; property check cannot run")
        else:
            summary = self.w.summarize(self.spec, reference) if self.w.summarize else None
            problems += self.w.check(self.spec, result, summary)
        current = {n: (out / n).read_bytes() for n in COMPARED_OUTPUTS if (out / n).exists()}
        if self.first_bytes is None:
            self.first_bytes = current
        elif current != self.first_bytes:
            problems.append("outputs differ from the first run with the same seed")
        return problems

    def untraced_round(self, idx):
        out = self.runs_dir / f"timed{idx}"
        shutil.rmtree(out, ignore_errors=True)
        code, wall, cpu, ref = self.timed_run(out)
        _, peak = _rusage()  # read before any check allocates
        self._count(f"run {idx}", code, self.verify(out, code, ref))
        return out, code, wall, cpu, peak

    def traced_run(self, out, jobs):
        from levyfield.config import validate_and_build
        from tracer import Tracer

        shutil.rmtree(out, ignore_errors=True)
        tracer = Tracer()
        tracer.install(self.spec.grid.n_steps)
        try:
            spec = validate_and_build(self.raw)  # rebuilt so coefficient hooks wrap its callables
            t0 = time.perf_counter()
            code = self.runner.run_experiment(spec, out, jobs=jobs)
            wall = time.perf_counter() - t0
            run_end = time.perf_counter() - tracer.t0
        finally:
            tracer.uninstall()
        return tracer, code, wall, run_end

    def traced_round(self, idx):
        """One untraced run, then traced passes at jobs=1 and at the workload's worker count."""
        import checks

        timed_dir, timed_code, timed_wall, _, _ = self.untraced_round(idx)
        metrics, absent, spans = {}, set(), {}
        for jobs in sorted({1, self.w.jobs}):
            out = self.runs_dir / f"traced{idx}-jobs{jobs}"
            tracer, code, wall, run_end = self.traced_run(out, jobs)
            problems = [] if code == timed_code else [f"traced exit code {code} != timed {timed_code}"]
            problems += checks.check_same_bytes(timed_dir, out, COMPARED_OUTPUTS)
            self._count(f"traced jobs={jobs} run {idx}", code, problems)
            if jobs == 1:
                metrics.update(tracer.layer_metrics())
            if jobs == self.w.jobs:
                metrics.update(tracer.runner_metrics(run_end))
                metrics["trace.overhead_s"] = wall - timed_wall
            absent |= tracer.absent
            spans[f"jobs={jobs}"] = tracer.span_log()
        return metrics, absent, spans


def run_workload(bench, seconds, trace, units):
    """Whole rounds, as many as are expected to end within ``seconds`` (at least one).

    Returns the metric values, the absent metrics and, per round, the
    untraced wall time (or with tracing, the tracing overhead).
    """
    deadline = time.perf_counter() + seconds
    rounds, durations = [], []
    while True:
        idx = len(rounds)
        t0 = time.perf_counter()
        rounds.append(bench.traced_round(idx) if trace else bench.untraced_round(idx))
        shutil.rmtree(bench.runs_dir, ignore_errors=True)  # first outputs live on as bytes in memory
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() + statistics.median(durations) > deadline:
            break  # another round would likely end past the deadline
    if trace:
        absent = set().union(*(r[1] for r in rounds)) | {k for k in units if k not in rounds[0][0]}
        values = {k: statistics.median(r[0].get(k, 0.0) for r in rounds) for k in units}
        traces = HERE / "traces"
        traces.mkdir(exist_ok=True)
        (traces / f"{bench.w.name}.json").write_text(json.dumps(rounds[-1][2], indent=1) + "\n")
        return values, absent, [r[0]["trace.overhead_s"] for r in rounds]
    values = {
        "wall_s": statistics.median(r[2] for r in rounds),
        "cpu_s": statistics.median(r[3] for r in rounds),
        "peak_rss_mb": rounds[0][4],  # the first run's peak, before any check ran
    }
    return values, set(), [r[2] for r in rounds]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not all((ROOT / p).exists() for p in ("src/levyfield/__init__.py", "schemas", "BENCHMARK.json")):
        print(f"error: {ROOT} holds no levyfield source tree (src/levyfield, schemas/, BENCHMARK.json)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import levyfield
    from levyfield.config import load_config, validate_and_build

    if not Path(levyfield.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: levyfield imported from {levyfield.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import CONFIG_DIR, WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    raws = []
    for name in names:
        raw = load_config(CONFIG_DIR / WORKLOADS[name].config)
        if args.seed is not None:
            raw["seed"] = args.seed
        if WORKLOADS[name].pick_seed is not None:
            raw["seed"] = WORKLOADS[name].pick_seed(int(raw["seed"]))
        raws.append(raw)
    specs = [validate_and_build(raws[0])]
    setup_s = time.perf_counter() - _START  # cold: imports, first config load and build
    specs += [validate_and_build(raw) for raw in raws[1:]]
    import jsonschema  # noqa: F401  (loaded before the first run, so every run's memory includes it)

    runs_dir = HERE / "_runs" / str(os.getpid())
    correct, attempted, failed, metrics = True, 0, 0, {}
    units = metric_units("per_layer" if args.trace else "end_to_end")
    try:
        for name, raw, spec in zip(names, raws, specs):
            bench = Bench(WORKLOADS[name], raw, spec, runs_dir)
            values, absent, per_round = run_workload(bench, args.seconds, args.trace, units)
            if not args.trace:
                values["setup_s"] = setup_s
            print(f"workload {name}: seed {spec.seed}, jobs {bench.w.jobs}, {len(per_round)} round(s), "
                  f"trace {args.trace}")
            label = "trace.overhead_s" if args.trace else "wall_s"
            print(f"  {label} per round: {' '.join(f'{v:.4f}' for v in per_round)}")
            for verdict in sorted(bench.verdicts):
                print(f"  verdict {verdict}")
            for key in units:
                note = "  (absent: hook target missing)" if key in absent else ""
                print(f"  {key:<28} {values[key]:>16.6g} {units[key]}{note}")
            print(f"  attempted {bench.attempted}, failed {bench.failed}")
            for problem in bench.problems:
                print(f"  FAILED CHECK {problem}")
            prefix = "" if len(names) == 1 else f"{name}."
            for key in units:
                entry = {"value": values[key], "unit": units[key]}
                if key in absent:
                    entry["absent"] = True
                metrics[prefix + key] = entry
            attempted += bench.attempted
            failed += bench.failed
            correct = correct and bench.wrong == 0
    finally:
        shutil.rmtree(runs_dir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
