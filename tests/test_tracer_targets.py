"""The benchmark traces the library from outside, by name: every target it
wraps must exist, or its per-layer metrics silently drop out of a run."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("owner,attr", [(t[0], t[1]) for t in tracer_targets()])
def test_tracer_target_resolves(owner, attr):
    # the tracer reads methods from the class's own __dict__ and functions
    # from the module, so a target inherited or re-exported elsewhere is missing
    mod_name, _, cls_name = owner.partition(":")
    module = importlib.import_module(f"neighborrank.{mod_name}")
    if cls_name:
        cls = getattr(module, cls_name, None)
        assert cls is not None, f"neighborrank.{mod_name} has no class {cls_name}"
        target = cls.__dict__.get(attr)
    else:
        target = getattr(module, attr, None)
    assert callable(target), f"perfbench traces {owner}.{attr}, which neighborrank lacks"
