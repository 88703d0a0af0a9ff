"""What the benchmark's tracer needs from cupweb.

``perfbench/tracing.py`` wraps the functions its ``LAYERS`` names and
counts the nonzeros of each built matrix through ``entries``; a rename in
``src`` would otherwise break a traced run without failing any test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from cupweb import transition_matrix

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _tracing().LAYERS


@pytest.mark.parametrize(
    "layer, name", [(layer, name) for layer, names in LAYERS.items() for name in names]
)
def test_traced_function_exists(layer, name):
    assert callable(getattr(importlib.import_module(f"cupweb.{layer}"), name, None))


def test_entries_are_int_tuples():
    entries = transition_matrix(3).entries
    assert type(entries) is tuple
    assert all(type(row) is tuple for row in entries)
    assert all(type(e) is int for row in entries for e in row)


def test_tracer_counts_nonzeros():
    tracer = _tracing().Tracer()
    matrix = transition_matrix(4)
    tracer._hooks()["transition_matrix"](matrix)
    nonzeros = sum(len(col) for col in matrix.columns)
    assert tracer.summary()["transition.nonzeros"] == nonzeros
