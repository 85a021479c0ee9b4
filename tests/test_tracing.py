"""The benchmark's tracer still finds every call it wraps.

``bench/tracing.py`` wraps the program's calls at the module attributes the
program calls them through. A refactor that rebinds one of them breaks the
traced benchmark run; this test imports the tracer, read-only, and runs a
short corridor under it.
"""

import importlib.util
from collections import Counter
from pathlib import Path

from drslam.cli import resolve_config_path
from drslam.config import parse_config
from drslam.pipeline import run_pipeline
from drslam.simulator import simulate_sequence

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
N_FRAMES = 60


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_layer_of_a_corridor_run():
    config = parse_config(resolve_config_path("corridor_gap"),
                          overrides=[f"world.n_frames={N_FRAMES}"])
    sequence = simulate_sequence(config.world_config())
    tracer = load_tracing().Tracer()
    with tracer.installed():
        run_pipeline(sequence, config.pipeline_params(), "adaptive")
    spans = tracer.spans
    calls = Counter(name for name, *_ in spans)
    # every frame is processed, and every frame after the first is associated
    # and tracked from within its process span
    assert calls["pipeline.process"] == N_FRAMES
    assert calls["pipeline.associate_features"] == calls["optimizer.solve_motion_only"] \
        == N_FRAMES - 1
    for name in ("pipeline.associate_features", "optimizer.solve_motion_only"):
        assert all(spans[parent][0] == "pipeline.process"
                   for span_name, _, _, parent, *_ in spans if span_name == name)
    # bundle adjustment runs through the solver core and its Schur solve
    assert calls["optimizer.solve_local_ba"] > 0
    assert calls["optimizer.solve"] == (calls["optimizer.solve_local_ba"]
                                        + calls["optimizer.solve_global_ba"])
    assert calls["optimizer.schur_solve"] >= calls["optimizer.solve"]
