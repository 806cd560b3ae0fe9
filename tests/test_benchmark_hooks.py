"""The benchmark's tracer still finds every name it hooks.

``perfbench/tracer.py`` wraps public names of the package from outside
and reports a metric as absent when its target is gone; the benchmark
also swaps the runner's reference builders to capture a run's reference.
A refactor that renames or moves one of these would blind the benchmark
without failing it, so this test fails instead.
"""

import importlib.util
from pathlib import Path

import levyfield.runner as runner
from levyfield.chaos import reference_fixed_point
from levyfield.common_noise import conditional_reference

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_every_target_and_reaches_the_runners_reference_builders():
    tracer = _load_tracer().Tracer()
    try:
        tracer.install(50)
        assert tracer.absent == set()
        # the runner calls its reference builders as module globals, so the hooks reach them
        assert runner.reference_fixed_point is not reference_fixed_point
        assert runner.conditional_reference is not conditional_reference
    finally:
        tracer.uninstall()
    assert runner.reference_fixed_point is reference_fixed_point
    assert runner.conditional_reference is conditional_reference
