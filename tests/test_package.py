import ast
import importlib.util
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
