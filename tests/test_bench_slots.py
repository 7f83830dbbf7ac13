"""Every benchmark layer slot still names a callable of the package.

perfbench/tracer.py wraps tempsync's callables by their dotted paths and
reports a layer whose slots all vanished as absent, without failing.  This
test reads its LAYERS table (nothing is installed or wrapped) so that a
refactor which renames or deletes a traced callable fails here instead.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("layer", sorted(tracer.LAYERS))
def test_every_slot_of_a_benchmark_layer_resolves(layer):
    missing = [path for path in tracer.LAYERS[layer] if tracer.resolve(path) is None]
    assert missing == []
