"""Every layer function the traced benchmark wraps by name still exists in cscx."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize(
    "module_name, attr", [(module, attr) for _, module, attr, _ in _targets()]
)
def test_target_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    owner_name, _, fn_name = attr.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    if owner_name:
        # the tracer replaces methods through the class dict
        assert fn_name in owner.__dict__
    assert callable(getattr(owner, fn_name))
