"""The reflection symmetry of M and of its inverse.

Let rho(d) = 2n + 1 - d.  It maps crossings to crossings and each
smoothing to the smoothing of the same kind, the column matching of T to
that of ev(T), and the cup of S to the cup of ev(S), where ev(T)'s top
row is the sorted rho(b) over T's bottom row.  So M[ev s, ev t] = M[s, t],
and the inverse inherits the same symmetry.
"""

import pytest

from cupweb import StandardTableau, TransitionMatrix, inverse_matrix, transition_matrix


def _evacuated(t: StandardTableau) -> StandardTableau:
    """ev(t): the top row is the sorted 2n + 1 - b over t's bottom row."""
    mirror = 2 * t.n + 1
    return StandardTableau(sorted(mirror - b for b in t.bottom),
                           sorted(mirror - a for a in t.top))


def _reflection(matrix: TransitionMatrix) -> list[int]:
    position = {t: k for k, t in enumerate(matrix.index)}
    return [position[_evacuated(t)] for t in matrix.index]


class TestReflectionSymmetry:
    """M[ev s, ev t] = M[s, t]: d -> 2n + 1 - d maps T's column matching to ev(T)'s."""

    @staticmethod
    def _is_invariant(matrix: TransitionMatrix) -> bool:
        ev = _reflection(matrix)
        return all(matrix.columns[ev[t]] == {ev[s]: e for s, e in col.items()}
                   for t, col in enumerate(matrix.columns))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_of_the_matrix(self, n):
        matrix = transition_matrix(n)
        assert self._is_invariant(matrix)
        ev = _reflection(matrix)
        assert sorted(ev) == list(range(matrix.size))
        assert all(ev[ev[t]] == t for t in ev)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_of_the_inverse(self, n):
        assert self._is_invariant(inverse_matrix(transition_matrix(n)))

    def test_a_broken_symmetry_is_seen(self):
        base = transition_matrix(4)
        ev = _reflection(base)
        t = next(t for t in range(base.size) if ev[t] != t)
        columns = [dict(col.items()) for col in base.columns]
        columns[t][0] += 1  # ev fixes row 0, t0: the mirror entry M[0, ev t] keeps its value
        assert ev[0] == 0 and not self._is_invariant(TransitionMatrix(4, base.index, columns))

    def test_70_tableaux_are_fixed_at_n8(self):
        fixed = [sum(ev == t for t, ev in enumerate(_reflection(transition_matrix(n))))
                 for n in range(1, 9)]
        assert fixed == [1, 2, 3, 6, 10, 20, 35, 70]  # C(n, n // 2)
