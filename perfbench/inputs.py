"""Seeded inputs for the query-mix workload (plain tuples, no cupweb types).

The same seed always gives the same list.  Each list holds an equal share
of the four query kinds, in a seeded order:

- ``resolve``: a uniformly random perfect matching of 16 dots;
- ``witness``: a uniformly random pair (T, S) of SYT(8, 8) whose top rows
  satisfy S.top >= T.top componentwise (rejection sampling);
- ``straighten``: a uniformly random two-row filling of 1..12 (n = 6), in
  signed normal form (columns sorted inside, then by top entry);
- ``act``: a uniformly random cup diagram of 16 dots and generator i in 1..15.
"""

from __future__ import annotations

import random

from oracle import cup_arcs, standard_tableaux

KINDS = ("resolve", "witness", "straighten", "act")
QUERIES_PER_KIND = 750
SESSION_N = 8
FILLING_N = 6


def _random_pairing(rng: random.Random, n2: int) -> tuple[tuple[int, int], ...]:
    dots = list(range(1, n2 + 1))
    rng.shuffle(dots)
    return tuple(sorted(
        (min(dots[2 * k], dots[2 * k + 1]), max(dots[2 * k], dots[2 * k + 1]))
        for k in range(n2 // 2)
    ))


def query_list(seed: int, per_kind: int = QUERIES_PER_KIND) -> list[tuple]:
    rng = random.Random(seed)
    tableaux = standard_tableaux(SESSION_N)
    kinds = [kind for kind in KINDS for _ in range(per_kind)]
    rng.shuffle(kinds)
    queries = []
    for kind in kinds:
        if kind == "resolve":
            queries.append((kind, _random_pairing(rng, 2 * SESSION_N)))
        elif kind == "witness":
            while True:
                t, s = rng.choice(tableaux), rng.choice(tableaux)
                if all(a >= b for a, b in zip(s[0], t[0])):
                    break
            queries.append((kind, (t, s)))
        elif kind == "straighten":
            queries.append((kind, _random_pairing(rng, 2 * FILLING_N)))
        else:
            cup = cup_arcs(rng.choice(tableaux)[0])
            queries.append((kind, (cup, rng.randrange(1, 2 * SESSION_N))))
    return queries
