"""The benchmark tracer wraps tissuemix functions by module attribute name.

A function that the program no longer calls may still be wrapped there,
so deleting it would break a traced benchmark run. This test names any
wrapped attribute that no longer resolves.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_wrapped_attribute_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, attr in tracer.WRAPPED:
        target = importlib.import_module(f"tissuemix.{module_name}")
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"perfbench/tracer.py wraps attributes tissuemix lacks: {missing}"
