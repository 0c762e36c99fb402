"""perfbench's tracer records a missing patch point instead of failing, and
the per-layer metric of a renamed function then reads 0.  This test makes a
rename that strands a trace point fail the suite instead."""

import importlib
import importlib.util
import os

CHILD = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "child.py")


def test_every_perfbench_trace_point_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    patches = child._patches()
    assert patches
    missing = [
        f"{module}.{attr}"
        for module, attr, _name, _hook in patches
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
