import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import drslam

# Exports the package itself need not call: the Pose wrappers of the scalar
# kernels that only tests and callers use, and the map reader.
ENTRY_POINTS = {"project", "transform_point", "log_se3", "align", "load_map"}
# Module-level functions the package need not call besides those: the
# evaluation harness's baseline runs, which no command runs yet.
FUNCTION_ENTRY_POINTS = ENTRY_POINTS | {"baseline_rmse"}
MODULES = [path for path in Path(drslam.__file__).parent.glob("*.py")
           if path.name != "__init__.py"]


def _used_names():
    """Every name the package's modules load or read as an attribute."""
    used = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_is_used_by_the_package_or_an_entry_point():
    assert ENTRY_POINTS <= set(drslam.__all__)
    assert sorted(set(drslam.__all__) - _used_names() - ENTRY_POINTS) == []


def test_every_function_is_used_by_the_package_or_an_entry_point():
    # code that only tests call belongs in the tests, as their oracle
    functions = {f"{path.stem}.{node.name}" for path in MODULES
                 for node in ast.parse(path.read_text()).body
                 if isinstance(node, ast.FunctionDef)}
    assert "evaluation.baseline_rmse" in functions
    allowed = _used_names() | FUNCTION_ENTRY_POINTS
    assert sorted(name for name in functions if name.partition(".")[2] not in allowed) == []


def test_benchmark_tracer_finds_every_traced_function():
    # bench/tracing.py wraps each traced function at the module attribute the
    # program calls it through and raises TraceError when one was renamed or
    # moved; on exit it puts every original back
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    def sites():
        return {name: getattr(*tracing._lookup(site, attr))
                for name, (_, attr, site, _, _) in tracing.TARGETS.items()}
    before = sites()
    with tracing.Tracer().installed():
        assert all(fn is not before[name] for name, fn in sites().items())
    assert sites() == before


_NO_MASKED_ARRAYS_SCRIPT = """
import json
import sys
import tempfile
from drslam.cli import resolve_config_path
from drslam.config import parse_config
from drslam.evaluation import Trajectory, alpha_sweep, ape_rmse, gt_trajectory
from drslam.pipeline import Pipeline
from drslam.simulator import read_sequence, simulate_sequence, write_sequence
config = parse_config(resolve_config_path("two_lap"))
with tempfile.TemporaryDirectory() as tmp:
    write_sequence(simulate_sequence(config.world_config(), stop=425), tmp)
    seq = read_sequence(tmp)
pipe = Pipeline(config.pipeline_params(), seq.camera, seq.world, "adaptive")
for record in seq.records:
    pipe.process(record)
result = pipe.result()
ape = ape_rmse(Trajectory.from_rows(result.frame_trajectory()), gt_trajectory(seq))
cells = alpha_sweep(seq, [0.0, 1.0], 2, config.pipeline_params(), frame_range=(300, 340))
print(json.dumps({"keyframes": len(result.slam_map.keyframes), "loops": len(result.gba_events),
                  "ape": ape, "cells": len(cells), "masked": "numpy.ma" in sys.modules}))
"""


def test_a_run_imports_no_masked_arrays():
    # numpy's set routines and np.median import numpy.ma, about 1.25 MB of
    # resident memory; reading a sequence, a two_lap prefix whose adaptive run
    # closes its loop (so local and global BA both solve), its APE and a short
    # sweep use none of them
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", _NO_MASKED_ARRAYS_SCRIPT],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    run = json.loads(done.stdout)
    assert run["keyframes"] > 30 and run["loops"] == 1
    assert run["ape"] < 0.1 and run["cells"] == 4
    assert not run["masked"]
