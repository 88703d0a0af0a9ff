"""What the benchmark's tracer and query-mix worker need from cupweb.

``perfbench/tracing.py`` wraps the functions its ``LAYERS`` names and
counts the nonzeros of each built matrix through ``entries``; the
query-mix worker builds its calls from cupweb types and reads their
results.  A rename in ``src`` would otherwise break a benchmark run
without failing any test.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from cupweb import transition_matrix

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


@pytest.fixture
def perfbench_path(monkeypatch):
    """``perfbench`` importable for one test; its modules are dropped after."""
    monkeypatch.setattr(sys, "path", [str(PERFBENCH)] + sys.path)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    yield
    for name, module in list(sys.modules.items()):
        if Path(getattr(module, "__file__", None) or "").parent == PERFBENCH:
            del sys.modules[name]


def test_query_mix_runs_on_the_package(perfbench_path):
    import cupweb
    import checks
    import inputs
    import worker

    def witness(t, s):
        script = cupweb.witness_path(t, s)
        return script, cupweb.check_witness(t, s, script)

    run = {
        "resolve": cupweb.resolve_full,
        "witness": witness,
        "straighten": cupweb.garnir_straighten,
        "act": cupweb.act_web,
    }
    queries = inputs.query_list(1, per_kind=20)
    results = [worker.plain_result(kind, run[kind](*args))
               for kind, args in worker.prepare_calls(cupweb, queries)]
    assert {kind for kind, _ in queries} == set(run)
    assert checks.check_queries(queries, json.loads(json.dumps(results))) == []
