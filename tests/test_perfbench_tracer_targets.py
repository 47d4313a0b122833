"""The benchmark tracer's entry-point table still matches the program.

``perfbench/tracer.py`` wraps each layer's entry points by name and stops
a traced run (``--trace 1``) with ``LookupError`` when one is missing.
Loading its ``LAYERS`` table here, read-only, makes a rename or deletion
of a traced entry point fail the ordinary test suite instead of only the
traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracer = _load_tracer()
_TARGETS = [
    (layer, target, attr)
    for layer, items in _tracer.LAYERS.items()
    for target, attr in items
]


@pytest.mark.parametrize(
    "layer,target,attr", _TARGETS,
    ids=[f"{t}.{a}" for _layer, t, a in _TARGETS],
)
def test_tracer_target_is_a_function_of_its_owner(layer, target, attr):
    # Same resolution and check as Tracer.install.
    owner = _tracer._resolve(target)
    assert callable(vars(owner).get(attr)), f"{layer}: {target}.{attr}"
