"""The package loads without scipy.optimize; an exact d >= 2 distance loads it on first use.

Drawing events loads no ``numpy.ma`` either (``np.unique`` would load it).
"""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

X = [[0.0, 0.0], [1.0, 0.5], [-0.5, 2.0], [2.0, -1.0], [0.3, 0.3]]
Y = [[0.5, -0.5], [1.5, 1.5], [-1.0, 0.0], [0.0, 2.5], [2.5, 0.5]]

# runs in a fresh interpreter, so no other test's imports can hide a module-level load
_PROBE = """
import json, sys
from pathlib import Path

import levyfield, levyfield.runner, levyfield.cli
from levyfield.config import load_config, validate_and_build
from levyfield.noise import AnnulusUniform, LevyBand, _draw_block_events
from levyfield.streams import Layer, StreamContext
from levyfield.wasserstein import w_p, w_p_exact

root, x, y = Path(sys.argv[1]), *json.loads(sys.argv[2])
configs = sorted(root.glob("configs/*.yaml")) + sorted(root.glob("perfbench/configs/*.yaml"))
for path in configs:
    validate_and_build(load_config(path))
built = "scipy.optimize" in sys.modules
_draw_block_events(StreamContext(seed=0).keys(range(64), Layer.SMALL), 1.0, LevyBand(30.0, AnnulusUniform(1, 0.0, 1.0)))
masked = "numpy.ma" in sys.modules
w_p([v[0] for v in x], [v[0] for v in y], 2.0)
one_d = "scipy.optimize" in sys.modules
value = w_p_exact(x, y, 2.0)
print(json.dumps({"configs": [p.name for p in configs], "built": built, "masked": masked, "one_d": one_d,
                  "exact": "scipy.optimize" in sys.modules, "value": value}))
"""


def test_building_every_spec_leaves_the_assignment_solver_unloaded():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", _PROBE, str(ROOT), json.dumps([X, Y])],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout)
    assert len(probe["configs"]) >= 13 and "strong-poc.yaml" in probe["configs"]
    assert not probe["built"], "importing levyfield or building a spec loaded scipy.optimize"
    assert not probe["masked"], "drawing events loaded numpy.ma"
    assert not probe["one_d"], "a d = 1 distance loaded scipy.optimize"
    assert probe["exact"], "an exact d = 2 distance ran without the assignment solver"
    x, y = np.array(X), np.array(Y)
    best = min(sum(float(np.sum((x[i] - y[j]) ** 2)) for i, j in enumerate(perm))
               for perm in itertools.permutations(range(len(X))))
    assert math.isclose(probe["value"], math.sqrt(best / len(X)), rel_tol=1e-12)
