"""Every callable that perfbench's tracer wraps exists under the name it
wraps, so renaming a traced function fails here, not only in
`perfbench/selftest.py`.

`perfbench/tracing.py` is imported the way `perfbench/selftest.py` imports
it: with the `perfbench` directory first on `sys.path`."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_attribute_resolves(tracing):
    checked = 0
    for layer, (module_name, attributes) in tracing.TRACED.items():
        module = importlib.import_module(f"nonassoc.{module_name}")
        for attribute in attributes:
            if "." in attribute:
                # Tracer.install reads a method from the class's own namespace
                cls_name, method = attribute.split(".")
                target = vars(getattr(module, cls_name)).get(method)
            else:
                target = getattr(module, attribute, None)
            assert callable(target), f"{layer}: nonassoc.{module_name}.{attribute}"
            checked += 1
    assert checked >= len(tracing.TRACED)
