"""The benchmark's tracer wraps gridprep functions by name
(`perfbench/tracing.LAYERS`), so a rename that drops one of them breaks
`perfbench/run.py --trace 1`.  Every name must resolve the way
`Tracer.install` looks it up.
"""
import importlib.util
from pathlib import Path

import pytest

import gridprep

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced_names() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(layer, qualname) for layer, names in tracing.LAYERS.items()
            for qualname in names]


@pytest.mark.parametrize("layer, qualname", _traced_names())
def test_traced_name_resolves(layer, qualname):
    module = getattr(gridprep, layer)
    owner, _, attr = qualname.rpartition(".")
    if owner:  # a method is wrapped from its own class's namespace
        assert attr in vars(getattr(module, owner))
    else:
        assert callable(getattr(module, attr))
