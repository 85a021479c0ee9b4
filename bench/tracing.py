"""Spans around the public functions of each drslam layer, from outside.

``Tracer.installed()`` replaces each target at the module attribute the
program calls it through, records one span per call (name, start, end,
parent span, frame id, extra counts, raised), and puts the originals back on
exit. Spans stay in memory; ``write`` saves them when the run ends and
``layer_metrics`` derives the per-layer figures from them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from time import perf_counter


class TraceError(RuntimeError):
    """A traced function is gone or the program no longer calls it where expected."""


def _iterations(out):
    return {"iterations": out.iterations}


def _motion_iterations(out):
    return {"iterations": out[1].iterations}


def _problem_size(args):
    problem = args[0]
    return {"poses": len(problem.poses), "landmarks": len(problem.landmarks),
            "factors": len(problem.reprojection_factors) + len(problem.dr_factors)}


# span name -> (defining module, attribute, module whose attribute the program
# calls it through, counts taken from the arguments, counts from the result)
TARGETS = {
    "simulator.read_sequence": ("drslam.simulator", "read_sequence", "drslam.simulator",
                                None, None),
    "fileio.read_csv": ("drslam.fileio", "read_csv", "drslam.simulator",
                        None, lambda out: {"rows": len(out)}),
    "fileio.read_tum": ("drslam.fileio", "read_tum", "drslam.simulator", None, None),
    "simulator.simulate_sequence": ("drslam.simulator", "simulate_sequence", "drslam.evaluation",
                                    None, None),
    "pipeline.process": ("drslam.pipeline", "Pipeline.process", "drslam.pipeline", None, None),
    "pipeline.associate_features": ("drslam.pipeline", "associate_features", "drslam.pipeline",
                                    None, lambda out: {"matches": out[1]}),
    "optimizer.solve_motion_only": ("drslam.optimizer", "solve_motion_only", "drslam.pipeline",
                                    None, _motion_iterations),
    "optimizer.solve_local_ba": ("drslam.optimizer", "solve_local_ba", "drslam.pipeline",
                                 _problem_size, _iterations),
    "optimizer.solve_global_ba": ("drslam.optimizer", "solve_global_ba", "drslam.pipeline",
                                  _problem_size, _iterations),
    "optimizer.solve": ("drslam.optimizer", "solve", "drslam.optimizer", None, _iterations),
    "optimizer.schur_solve": ("drslam.optimizer", "schur_solve", "drslam.optimizer", None, None),
    "evaluation.ape_rmse": ("drslam.evaluation", "ape_rmse", "drslam.evaluation", None, None),
}

# Spans whose self time (duration minus that of their direct children) is reported.
SELF_TIME = ("pipeline.process", "optimizer.solve")
SIZE_FIELDS = ("poses", "landmarks", "factors")


def _lookup(module_name: str, dotted: str):
    obj = importlib.import_module(module_name)
    *owners, attr = dotted.split(".")
    for name in owners:
        obj = getattr(obj, name)
    return obj, attr


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, frame id, counts, raised]
        self.spans: list = []
        self._stack: list = []
        self.frame = -1

    def _wrap(self, name, fn, from_args, from_result):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "pipeline.process":
                tracer.frame = args[1].frame_id
            span = [name, perf_counter(), 0.0,
                    tracer._stack[-1] if tracer._stack else -1, tracer.frame, None, False]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            counts = {}
            if from_args is not None:
                counts.update(from_args(args))
            if from_result is not None:
                counts.update(from_result(out))
            span[5] = counts or None
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target; raise TraceError if one is missing or rebound."""
        patches = []
        for name, (module_name, attr, site_module, from_args, from_result) in TARGETS.items():
            owner, key = _lookup(module_name, attr)
            original = getattr(owner, key, None)
            if not callable(original):
                raise TraceError(f"{module_name}.{attr} no longer exists; cannot trace {name}")
            site, site_key = _lookup(site_module, attr)
            if getattr(site, site_key, None) is not original:
                raise TraceError(f"{site_module}.{attr} is no longer {module_name}.{attr}; "
                                 f"the program does not call {name} where it is traced")
            patches.append((site, site_key, original))
            setattr(site, site_key, self._wrap(name, original, from_args, from_result))
        try:
            yield self
        finally:
            for site, key, original in reversed(patches):
                setattr(site, key, original)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, frame, counts, raised in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                    "frame": frame, "counts": counts, "raised": raised}) + "\n")

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer totals per traced pass, keyed module.function.quantity."""
        total = {name: {"s": 0.0, "calls": 0, "failed": 0} for name in TARGETS}
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _, counts, raised in self.spans:
            agg = total[name]
            agg["s"] += end - start
            agg["calls"] += 1
            agg["failed"] += raised
            for key, value in (counts or {}).items():
                agg[key] = agg.get(key, 0) + value
            if parent >= 0:
                child_s[parent] += end - start
        for i, (name, start, end, *_rest) in enumerate(self.spans):
            if name in SELF_TIME:
                total[name]["self_s"] = total[name].get("self_s", 0.0) + (end - start) - child_s[i]

        out = {}

        def put(name, quantity, value, per_pass=True):
            out[f"{name}.{quantity}"] = value / passes if per_pass else value

        for name in ("simulator.read_sequence", "fileio.read_tum", "simulator.simulate_sequence",
                     "evaluation.ape_rmse", "pipeline.process"):
            put(name, "s", total[name]["s"])
            put(name, "calls", total[name]["calls"])
        put("fileio.read_csv", "s", total["fileio.read_csv"]["s"])
        put("fileio.read_csv", "rows", total["fileio.read_csv"].get("rows", 0))
        assoc = total["pipeline.associate_features"]
        put("pipeline.associate_features", "s", assoc["s"])
        put("pipeline.associate_features", "calls", assoc["calls"])
        put("pipeline.associate_features", "matches", assoc.get("matches", 0))
        for level in ("solve_motion_only", "solve_local_ba", "solve_global_ba"):
            name = f"optimizer.{level}"
            agg = total[name]
            for quantity in ("s", "calls", "failed"):
                put(name, quantity, agg[quantity])
            put(name, "iterations", agg.get("iterations", 0))
            if level != "solve_motion_only":
                for quantity in SIZE_FIELDS:
                    mean = agg.get(quantity, 0) / agg["calls"] if agg["calls"] else 0.0
                    put(name, quantity, mean, per_pass=False)
        solve, schur = total["optimizer.solve"], total["optimizer.schur_solve"]
        put("optimizer.solve", "s", solve["s"])
        put("optimizer.solve", "calls", solve["calls"])
        put("optimizer.solve", "iterations", solve.get("iterations", 0))
        put("optimizer.solve", "self_s", solve.get("self_s", 0.0))
        put("optimizer.schur_solve", "s", schur["s"])
        put("optimizer.schur_solve", "calls", schur["calls"])
        iterations = solve.get("iterations", 0)
        put("optimizer.schur_solve", "per_iteration",
            schur["calls"] / iterations if iterations else 0.0, per_pass=False)
        put("pipeline.process", "self_s", total["pipeline.process"].get("self_s", 0.0))
        return out
