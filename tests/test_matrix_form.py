"""The transition matrix is stored as sparse columns.

Only ``TransitionMatrix.entries`` and the CSV and JSON exports build dense
rows, and every reader treats a stored 0 as an absent entry.
"""

import itertools
import re

import pytest

from cupweb import (
    TransitionMatrix,
    transition_matrix,
    verify_positivity,
    verify_psi,
    verify_unitriangular,
)
from cupweb.cli import main

RUNS = [
    ("verify", "-n", "5", "all"),
    ("verify", "-n", "4", "all", "--self-test"),
    ("matrix", "-n", "4"),
    ("matrix", "-n", "4", "--format", "json"),
    ("inverse", "-n", "4"),
    ("inverse", "-n", "4", "--format", "json"),
]


def _run(capsys, argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    out = re.sub(r'"(timestamp|elapsed_seconds)": [^,\n]*', r'"\1": null', out)
    return code, out, err


@pytest.mark.parametrize("argv", RUNS, ids=" ".join)
def test_cli_reads_no_dense_rows(capsys, monkeypatch, argv):
    expected = _run(capsys, argv)

    def refuse(self):
        raise AssertionError("dense rows read through TransitionMatrix.entries")

    monkeypatch.setattr(TransitionMatrix, "entries", property(refuse))
    assert _run(capsys, argv) == expected


def _verdicts(matrix: TransitionMatrix) -> list:
    return [
        (c.name, c.passed, c.witness)
        for verify in (verify_unitriangular, verify_positivity, verify_psi)
        for c in verify(matrix).checks
    ]


@pytest.mark.parametrize("s, t", itertools.product(range(5), repeat=2))
def test_stored_zero_reads_as_absent(s, t):
    base = transition_matrix(3)
    absent = [dict(col) for col in base.columns]
    stored = [dict(col) for col in base.columns]
    absent[t].pop(s, None)
    stored[t][s] = 0
    without = TransitionMatrix(3, base.index, tuple(absent))
    with_zero = TransitionMatrix(3, base.index, tuple(stored))
    assert len(_verdicts(with_zero)) == 4
    assert _verdicts(with_zero) == _verdicts(without)
    assert with_zero.entries == without.entries
    assert with_zero.to_csv("m") == without.to_csv("m")
