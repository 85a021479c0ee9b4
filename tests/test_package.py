import ast
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
