"""Seeded inputs of the three workloads, as plain integers.

Nothing here imports ``bottcoh``: inputs exist before the package is
loaded, and every item carries the answer it is known to have by
construction.  The same seed always gives the same items in the same
order.
"""

from __future__ import annotations

import random
from itertools import product

from closedform import (
    bott3_rows,
    p1_content,
    represent_dual,
    sign_flip,
    square_zero_count,
)

CLASSIFY_BOUND = 6
ISO_BOUND = 2

# bott3-classify: items per round of each kind
MOVE_PAIRS = 144
MOD2_PAIRS = 12
MOD4_PAIRS = 12
P1_PAIRS = 24

# iso-search: the pairs are drawn once from this fixed seed, so that every
# run solves the same problems; --seed chooses their order and how the
# non-isomorphic pairs are presented
ISO_POOL_SEED = "iso-search-pool-v1"
ISO_PAIRS = 32
NON_ISO_PAIRS = 32
ISO_HEIGHT = 5
ISO_ENTRY = 2

# char-classes: one tower per fiber-dimension shape
CHAR_MAX_FIBER = 3
CHAR_HEIGHTS = (2, 3, 4)
CHAR_TOTAL_DIM = (6, 8)
CHAR_ENTRY = 2


def _bott3_census():
    """Every (a, b, c) in [-3, 3]^3 with its closed-form invariants."""
    return {
        abc: (
            p1_content(bott3_rows(abc)),
            square_zero_count(bott3_rows(abc), 2),
            square_zero_count(bott3_rows(abc), 4),
        )
        for abc in product(range(-3, 4), repeat=3)
    }


def bott3_classify(seed: int) -> list[dict]:
    """Pairs of 3-stage Bott towers (a, b, c) for ``classify_3stage``.

    - move: a tower and its image under the sign twist (a, -b, -c) or the
      dual transport (-a, b - ac, c), in either order: DIFFEOMORPHIC;
    - mod2 / mod4: equal p1 content, square-zero counts over Z/2 (or equal
      over Z/2 and different over Z/4) differ: DISTINCT by that count;
    - p1: different p1 content: DISTINCT by p1_content.
    """
    rng = random.Random(f"bott3-classify:{seed}")
    census = _bott3_census()
    triples = sorted(census)
    moves = [(abc, move) for abc in triples for move in ("twist", "transport")]
    items = []
    for (a, b, c), move in rng.sample(moves, MOVE_PAIRS):
        image = (a, -b, -c) if move == "twist" else (-a, b - a * c, c)
        pair = [(a, b, c), image]
        rng.shuffle(pair)
        items.append({"kind": move, "t": pair[0], "tp": pair[1],
                      "expect": "DIFFEOMORPHIC"})
    by_p1: dict = {}
    for abc in triples:
        by_p1.setdefault(census[abc][0], []).append(abc)
    mod2, mod4 = [], []
    for group in by_p1.values():
        for s in group:
            for t in group:
                if census[s][1] != census[t][1]:
                    mod2.append((s, t))
                elif census[s][2] != census[t][2]:
                    mod4.append((s, t))
    for pairs, count, name in (
        (mod2, MOD2_PAIRS, "square_zero_count_mod2"),
        (mod4, MOD4_PAIRS, "square_zero_count_mod4"),
    ):
        for s, t in rng.sample(pairs, count):
            items.append({"kind": name[-4:], "t": s, "tp": t, "expect": name})
    while sum(item["kind"] == "p1" for item in items) < P1_PAIRS:
        s, t = rng.choice(triples), rng.choice(triples)
        if census[s][0] != census[t][0]:
            items.append({"kind": "p1", "t": s, "tp": t, "expect": "p1_content"})
    rng.shuffle(items)
    return items


def _random_bott(rng, height, entry):
    return [[rng.randint(-entry, entry) for _ in range(k)] for k in range(height)]


def _counts(rows):
    return square_zero_count(rows, 2), square_zero_count(rows, 3)


def iso_pool() -> list[dict]:
    """The fixed iso-search problems, unpresented.

    iso: a tower and the same tower with one stage re-presented through
    the dual line bundle (the unitriangular witness lies in the box).
    non: two towers whose square-zero counts over Z/2 or Z/3 differ, so no
    isomorphism exists and the search must exhaust the box.
    """
    rng = random.Random(ISO_POOL_SEED)
    pool = []
    while len(pool) < ISO_PAIRS:
        rows = _random_bott(rng, ISO_HEIGHT, ISO_ENTRY)
        i = rng.randint(1, ISO_HEIGHT - 1)
        if any(rows[i]):
            pool.append({"kind": "iso", "t": rows, "tp": represent_dual(rows, i)})
    while len(pool) < ISO_PAIRS + NON_ISO_PAIRS:
        rows = _random_bott(rng, ISO_HEIGHT, ISO_ENTRY)
        other = _random_bott(rng, ISO_HEIGHT, ISO_ENTRY)
        if _counts(rows) != _counts(other):
            pool.append({"kind": "non", "t": rows, "tp": other})
    return pool


def iso_search(seed: int) -> list[dict]:
    """The fixed pool in seeded order, each non-isomorphic pair presented
    with seeded generator signs.

    A sign change of generators is a ring isomorphism that maps the
    coefficient box onto itself, so an exhaustive search costs the same
    under it.  The isomorphic pairs are left as drawn: the search stops at
    the first witness in lexicographic order, and a sign change moves that
    witness, changing the pair's cost by up to ten times.
    """
    rng = random.Random(f"iso-search:{seed}")
    items = []
    for pair in iso_pool():
        if pair["kind"] == "non":
            signs = [[rng.choice((1, -1)) for _ in range(ISO_HEIGHT)] for _ in range(2)]
            pair = {"kind": "non", "t": sign_flip(pair["t"], signs[0]),
                    "tp": sign_flip(pair["tp"], signs[1])}
        items.append(pair)
    rng.shuffle(items)
    return items


def char_shapes() -> list[tuple[int, ...]]:
    lo, hi = CHAR_TOTAL_DIM
    return [
        dims
        for height in CHAR_HEIGHTS
        for dims in product(range(1, CHAR_MAX_FIBER + 1), repeat=height)
        if lo <= sum(dims) <= hi
    ]


def char_classes(seed: int) -> list[dict]:
    """One generalized tower per fiber-dimension shape, seeded entries."""
    rng = random.Random(f"char-classes:{seed}")
    items = []
    for dims in char_shapes():
        stages = [
            (n, [[rng.randint(-CHAR_ENTRY, CHAR_ENTRY) for _ in range(k)]
                 for _ in range(n)])
            for k, n in enumerate(dims)
        ]
        items.append({"kind": "tower", "stages": stages})
    rng.shuffle(items)
    return items


GENERATORS = {
    "bott3-classify": bott3_classify,
    "iso-search": iso_search,
    "char-classes": char_classes,
}
