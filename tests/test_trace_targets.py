"""Every function the benchmark tracer wraps exists in `evoadapt`.

`perfbench/tracing.py` names its targets as "module:attr" strings in
`LAYERS` and skips a target that is gone, so a renamed function would only
read 0 calls there. This test reads that table from the file (without
importing or changing it) and resolves each target.
"""

import ast
import importlib
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def traced_targets() -> list[str]:
    with open(TRACING) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)):
            layers = ast.literal_eval(node.value)
            return sorted({target for targets in layers.values() for target in targets})
    raise AssertionError(f"no LAYERS table in {TRACING}")


@pytest.mark.parametrize("target", traced_targets())
def test_traced_target_resolves(target):
    module_name, _, path = target.partition(":")
    obj = importlib.import_module(f"evoadapt.{module_name}")
    for attr in path.split("."):
        assert hasattr(obj, attr), f"{target}: {obj!r} has no attribute {attr!r}"
        obj = getattr(obj, attr)
    assert callable(obj), target
