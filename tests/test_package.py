import ast
import importlib.util
from pathlib import Path

import drslam

# Exports the package itself need not call: the one-row wrappers the tests
# check the batched kernels against, and the map reader.
ENTRY_POINTS = {"project", "transform_point", "log_se3", "align", "load_map"}


def test_every_export_is_used_by_the_package_or_an_entry_point():
    used = set()
    for path in Path(drslam.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert ENTRY_POINTS <= set(drslam.__all__)
    assert sorted(set(drslam.__all__) - used - ENTRY_POINTS) == []


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
