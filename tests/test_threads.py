"""Calls issued from several threads give what the same calls give one by one.

The only shared state is the session tables: the two of ``resolve_full``
and the per-n cache of ``transition_matrix``.  They are cleared before the
threads start, so the threads fill them concurrently, and a refused call
drops its own entries while other calls add theirs.
"""

import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import cupweb.resolution as resolution_module
from cupweb import (
    Matching,
    SizeLimitError,
    canonicalize_columns,
    garnir_straighten,
    resolve_full,
    transition_matrix,
)
from _oracles import random_matching_arcs

FOUR_ARCS = Matching([(1, 5), (2, 6), (3, 7), (4, 8)])  # a tree of 31 nodes


def _calls():
    """(name, call) pairs: resolutions, matrices, straightenings and refusals."""
    rng = random.Random(26)
    calls = []
    for k in range(24):
        m = Matching(random_matching_arcs(rng, 2 * (4 + k % 4)))
        calls.append((f"resolve {k}", lambda m=m: resolve_full(m)))
    for n in range(1, 7):
        calls.append((f"matrix {n}", lambda n=n: transition_matrix(n)))
    for k in range(24):
        dots = list(range(1, 2 * (3 + k % 4) + 1))
        rng.shuffle(dots)
        filling, _ = canonicalize_columns(zip(dots[::2], dots[1::2]))
        calls.append((f"straighten {k}", lambda f=filling: garnir_straighten(f)))
    for k in range(6):
        calls.append((f"refusal {k}", lambda: resolve_full(FOUR_ARCS, node_budget=30)))
    rng.shuffle(calls)
    return calls


def _outcome(call):
    try:
        return call()
    except SizeLimitError as exc:
        return exc.__class__, str(exc)


def _clear_session_tables():
    resolution_module._INSERTED.clear()
    resolution_module._CUPS.clear()
    transition_matrix.cache_clear()


def test_a_pool_of_four_threads_matches_the_serial_results():
    calls = _calls()
    _clear_session_tables()
    serial = [_outcome(call) for _, call in calls]
    refused = (SizeLimitError, "resolution exceeded its node budget")
    assert [name for (name, _), got in zip(calls, serial) if got == refused] == [
        name for name, _ in calls if name.startswith("refusal")]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the kernels too
    try:
        for _ in range(3):
            _clear_session_tables()
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(_outcome, [call for _, call in calls],
                                         timeout=120))
            for (name, _), want, got in zip(calls, serial, threaded):
                assert got == want, name
    finally:
        sys.setswitchinterval(interval)


def test_every_threaded_refusal_raises():
    _clear_session_tables()
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(resolve_full, FOUR_ARCS, node_budget=30) for _ in range(8)]
        futures += [pool.submit(resolve_full, FOUR_ARCS) for _ in range(8)]
    for future in futures[:8]:
        with pytest.raises(SizeLimitError):
            future.result(timeout=60)
    assert all(sum(f.result(timeout=60).values()) == 16 for f in futures[8:])
