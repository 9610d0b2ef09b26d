import random
from itertools import combinations
from itertools import product as iproduct
from math import factorial, prod
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bottcoh import (
    DomainMismatchError,
    ModulusError,
    SearchBoundError,
    bott_tower_3,
    build_ring,
    classify_3stage,
    dualize_stage,
    hirzebruch,
    iso_search,
    product_tower,
    search,
    square_zero_elements,
    validate_tower,
    verify_map,
)
from bottcoh import classify
from bottcoh.classify import _square_zero_count_mod
from bottcoh.linalg import clear_row, det_int, minors_gcd
from bottcoh.ring import BottRing, image_of_terms
from bottcoh.search import (
    _cp1_rows,
    _lift,
    _scan,
    _square_rewrites,
    _square_zero_residues,
    _stage_record,
    _stage_relation,
)

from .conftest import mod_label, random_tower
from .oracles import (
    brute_force_iso_search,
    brute_force_minors_gcd,
    brute_force_scan,
    brute_force_square_zero_count,
    full_residue_square_zero_count,
    relation_split,
    sympy_relation,
)

# the modulus of the oracle's ring (0 for Z): a walk of the integer ring
# modulo it must find what the oracle finds in that ring, the pieces
# carried over
DOMAINS = [0, 2, 4]

RINGS = [
    product_tower((2,)),
    hirzebruch(1),
    hirzebruch(2),
    bott_tower_3(1, -2, 3),
    bott_tower_3(0, 1, 1),
    product_tower((1, 1, 1)),
    validate_tower([(1, []), (2, [[1], [3]])]),
    validate_tower([(2, []), (1, [[2]])]),
]


def vectors(classes, m):
    out = []
    for cls in classes:
        vec = [0] * m
        for e, c in cls.items():
            vec[list(e).index(1)] = int(c)
        out.append(tuple(vec))
    return out


def test_square_zero_hirzebruch_a1():
    # oracle: (b1 y1 + b2 y2)^2 = (2 b1 b2 - b2^2) y1 y2, hence b2 = 0 or
    # b2 = 2 b1; exhaustive enumeration over |b| <= 2
    r = build_ring(hirzebruch(1))
    found = vectors(square_zero_elements(r, 2, 2), 2)
    assert found == [(-2, 0), (-1, -2), (-1, 0), (1, 0), (1, 2), (2, 0)]


def test_square_zero_hirzebruch_a2():
    r = build_ring(hirzebruch(2))
    found = vectors(square_zero_elements(r, 2, 2), 2)
    assert found == [
        (-2, -2),
        (-2, 0),
        (-1, -1),
        (-1, 0),
        (1, 0),
        (1, 1),
        (2, 0),
        (2, 2),
    ]


def test_square_zero_bott3_y3_filter_empty():
    # c(2b - ac) = 2 for (0, 1, 1), so no square-zero class touches y3
    r = build_ring(bott_tower_3(0, 1, 1))
    found = [
        u for u in square_zero_elements(r, 2, 2) if any(e[2] for e, _ in u.items())
    ]
    assert found == []


def test_square_zero_modular_domain():
    # the Z/2 question is the walk mod 2 of the integer ring (a ring over
    # Z/2 is not searched), whose residue box names the class y1 once
    r = build_ring(hirzebruch(1))
    assert list(_scan(r, {2: r.one()}, range(2), 2)) == [(1, 0)]


@pytest.mark.parametrize("mod", [2, 4], ids=mod_label)
def test_only_rings_over_z_are_searched(mod):
    r, r_n = build_ring(hirzebruch(1)), build_ring(hirzebruch(1), mod)
    for call in (lambda: iso_search(r_n, r_n, 1),
                 lambda: square_zero_elements(r_n, 2, 1)):
        with pytest.raises(DomainMismatchError):
            call()
    if mod == 2:  # one ring over Z, one over Z/2, either way round
        for pair in ((r, r_n), (r_n, r)):
            with pytest.raises(DomainMismatchError):
                iso_search(*pair, 1)


def test_square_zero_argument_validation():
    r = build_ring(hirzebruch(1))
    with pytest.raises(ValueError):
        square_zero_elements(r, 0, 2)
    with pytest.raises(ValueError):
        square_zero_elements(r, 2, -1)
    # bool is an int subclass, but True is no power
    with pytest.raises(ValueError):
        square_zero_elements(r, True, 1)


def test_negative_bound_rejected_before_any_work():
    r = build_ring(hirzebruch(1))
    with pytest.raises(SearchBoundError):
        iso_search(r, r, -1)
    # bool is an int subclass, but True is no bound
    for call in (lambda: iso_search(r, r, True),
                 lambda: square_zero_elements(r, 2, False)):
        with pytest.raises(SearchBoundError):
            call()
    # p1 content 2 against 0: DISTINCT without a search, yet still rejected
    with pytest.raises(SearchBoundError):
        classify_3stage(bott_tower_3(0, 1, 1), bott_tower_3(0, 0, 0), bound=-1)


def test_iso_search_self_returns_witness():
    r = build_ring(hirzebruch(1))
    w = iso_search(r, build_ring(hirzebruch(1)), 1)
    assert w is not None
    # lexicographically smallest witness, not necessarily the identity
    assert w.matrix == ((-1, 0), (0, -1))
    assert abs(w.ring_map.determinant) == 1


def test_iso_search_hirzebruch_1_vs_3():
    w = iso_search(build_ring(hirzebruch(1)), build_ring(hirzebruch(3)), 3)
    assert w is not None
    assert w.matrix == ((-1, -2), (1, 3))


def test_iso_search_parity_obstruction():
    assert iso_search(build_ring(hirzebruch(1)), build_ring(hirzebruch(2)), 3) is None


def test_iso_search_height_or_dims_mismatch():
    r1 = build_ring(product_tower((1, 1)))
    r2 = build_ring(product_tower((1, 1, 1)))
    assert iso_search(r1, r2, 2) is None
    r3 = build_ring(product_tower((1, 2)))
    r4 = build_ring(product_tower((1, 1)))
    assert iso_search(r3, r4, 2) is None


def test_iso_search_swapped_dims():
    r1 = build_ring(product_tower((1, 2)))
    r2 = build_ring(product_tower((2, 1)))
    w = iso_search(r1, r2, 1)
    assert w is not None
    assert abs(w.ring_map.determinant) == 1


def test_iso_search_generalized_two_stage():
    # P(C + gamma^1 + gamma^3) and P(C + gamma^0 ... shifted roots {0,1,3}
    # vs {0,-3,-2}: a twist by gamma^3 matches them
    t1 = validate_tower([(1, []), (2, [[1], [3]])])
    t2 = validate_tower([(1, []), (2, [[-3], [-2]])])
    w = iso_search(build_ring(t1), build_ring(t2), 3)
    assert w is not None


def test_iso_search_first_witness_is_lex_minimal():
    # brute-force reference over the full matrix space at a small bound
    from itertools import product as iproduct

    from bottcoh.linalg import det_int
    from bottcoh.ring import verify_map

    target = build_ring(hirzebruch(1))
    source = build_ring(hirzebruch(3))
    bound = 2

    def brute():
        for flat in iproduct(range(-bound, bound + 1), repeat=4):
            mat = (flat[:2], flat[2:])
            if abs(det_int([list(r) for r in mat])) != 1:
                continue
            if verify_map(source, target, mat) is not None:
                return mat
        return None

    expected = brute()
    got = iso_search(target, source, bound)
    if expected is None:
        assert got is None
    else:
        assert got is not None and got.matrix == expected


# -- scan parity against the per-vector oracle ---------------------------------


def walk_parity(ring, pieces, values, mod=0):
    """The walk of the integer ``ring`` modulo ``mod`` (0 for none) agrees
    with the oracle on the ring over Z/mod (over Z for 0), the pieces
    carried over; returns the hits."""
    oracle = build_ring(ring.tower, mod)
    carried = {t: oracle.from_terms(dict(p.items())) for t, p in pieces.items()}
    expected = brute_force_scan(oracle, carried, max(pieces, default=0), values)
    got = list(_scan(ring, pieces, values, mod))
    assert got == expected, (mod, ring, pieces, values)
    return got


def scan_parity(ring, pieces, bound, mod=0):
    return walk_parity(ring, pieces, range(-bound, bound + 1), mod)


@pytest.mark.parametrize("mod", DOMAINS, ids=mod_label)
@pytest.mark.parametrize("tower", RINGS, ids=lambda t: str(t.dims))
def test_scan_matches_oracle_on_powers(tower, mod):
    ring = build_ring(tower)
    for k in (2, 3):
        for bound in (1, 2):
            scan_parity(ring, {k: ring.one()}, bound, mod)


@pytest.mark.parametrize("mod", DOMAINS, ids=mod_label)
def test_scan_matches_oracle_on_random_towers(mod, seed):
    rng = random.Random(seed)
    for _ in range(12):
        ring = build_ring(random_tower(rng, max_height=3, max_dim=2))
        for k in (2, 3):
            scan_parity(ring, {k: ring.one()}, 2, mod)


@pytest.mark.parametrize("mod", DOMAINS, ids=mod_label)
def test_scan_bound_zero_is_empty(mod):
    ring = build_ring(bott_tower_3(1, -2, 3))
    assert scan_parity(ring, {2: ring.one()}, 0, mod) == []


@pytest.mark.parametrize("mod", DOMAINS, ids=mod_label)
def test_scan_vanishing_expression_hits_every_vector(mod):
    ring = build_ring(hirzebruch(1))
    every = [v for v in iproduct(range(-2, 3), repeat=2) if any(v)]
    assert scan_parity(ring, {}, 2, mod) == every
    assert scan_parity(ring, {t: ring.zero() for t in range(1, 3)}, 2, mod) == every
    # h^3 lands above the top degree, so it is zero for every h
    assert scan_parity(ring, {3: ring.one()}, 2, mod) == every


@pytest.mark.parametrize("mod", DOMAINS, ids=mod_label)
def test_scan_matches_oracle_with_gaps_in_t(mod):
    ring = build_ring(bott_tower_3(1, -2, 3))
    y1, y2, y3 = ring.gens()
    cases = [
        {3: ring.one(), 1: -(y1 * y2)},
        {3: y1, 1: y1 * y2 * y3},
        {4: ring.one(), 1: y1 * y2},
        {4: ring.one(), 2: y1 - y3, 1: y2 * y3},
    ]
    for pieces in cases:
        scan_parity(ring, pieces, 2, mod)


@pytest.mark.parametrize("mod", DOMAINS, ids=mod_label)
def test_scan_rejects_at_the_first_coordinate(mod):
    # h^2 y2 y3 + 2 h y1 y2 y3 = (b1^2 + 2 b1) y1^2 y2 y3 in CP^2 x (CP^1)^2:
    # the only polynomial involves b1 alone and is settled by the first
    # coordinate
    ring = build_ring(product_tower((2, 1, 1)))
    y1, y2, y3 = ring.gens()
    hits = scan_parity(ring, {2: y2 * y3, 1: 2 * (y1 * y2 * y3)}, 2, mod)
    firsts = {v[0] for v in hits}
    assert firsts == ({-2, 0} if mod == 0 else {-2, 0, 2}), firsts
    # every completion b2, b3 of an accepted b1 is a hit, but for b = 0
    assert len(hits) == 25 * len(firsts) - 1


@pytest.mark.parametrize("mod", [0, 2, 3], ids=mod_label)
def test_scan_matches_oracle_on_iso_search_stage_splits(mod):
    # replay the stage-by-stage search on prefixes of up to four hits per
    # stage, plus one zero row per stage, which kills the lower pieces of
    # the next stage's split.  On G123 and its top-stage dual, the pieces
    # are the package's own stage relations: walked mod 2 and 3, their CP^2
    # and CP^3 rows are those of a residue search over Z/n
    pairs = [
        (hirzebruch(1), hirzebruch(3)),
        (bott_tower_3(1, 1, 1), bott_tower_3(1, -1, -1)),
        (bott_tower_3(2, 0, 1), bott_tower_3(-2, 0, 1)),
        (product_tower((1, 2)), product_tower((2, 1))),
        (validate_tower([(1, []), (2, [[1], [3]])]),
         validate_tower([(1, []), (2, [[-3], [-2]])])),
        (G123, G123_DUAL),
    ]
    bound = 1
    for t, tp in pairs:
        target, source = build_ring(t), build_ring(tp)
        m = target.height
        prefixes = [[]]
        for i in range(1, m + 1):
            extended = []
            for rows in prefixes:
                if tp is G123_DUAL:
                    pieces = _stage_relation(target, _stage_record(source, i), rows)
                else:
                    pieces = relation_split(source, target, rows, i)
                hits = scan_parity(target, pieces, bound, mod)
                extended += [rows + [row] for row in hits[:4]]
            if i < m:
                extended.append(prefixes[0] + [(0,) * m])
            prefixes = extended


@pytest.mark.parametrize(
    "t, tp, bound",
    [
        (hirzebruch(1), hirzebruch(3), 3),
        (hirzebruch(1), hirzebruch(2), 2),
        (bott_tower_3(1, 1, 1), bott_tower_3(1, -1, -1), 3),
        (bott_tower_3(2, 0, 1), bott_tower_3(-2, 0, 1), 3),
        (product_tower((1, 2)), product_tower((2, 1)), 1),
    ],
)
def test_iso_search_matches_oracle_scan(t, tp, bound, monkeypatch):
    # every row from the brute-force scan: a CP^1 row of x^2 + L x, a row of
    # fiber >= 2 of its stage relation
    got = iso_search(build_ring(t), build_ring(tp), bound)
    target = build_ring(t)
    monkeypatch.setattr(search, "_scan", lambda ring, pieces, values:
                        brute_force_scan(ring, pieces, max(pieces), values))
    monkeypatch.setattr(search, "_cp1_rows", lambda rewrites, lift, values: brute_force_scan(
        target, {2: target.one(), 1: target.linear_class(lift)}, 2, values))
    expected = iso_search(target, build_ring(tp), bound)
    if expected is None:
        assert got is None
    else:
        assert got is not None and got.matrix == expected.matrix


HEIGHT_4 = [
    validate_tower([(1, []), (1, [[2]]), (1, [[1, -1]]), (1, [[0, 1, 1]])]),
    validate_tower([(1, []), (1, [[1]]), (1, [[2, 0]]), (1, [[-1, 3, 2]])]),
    validate_tower([(1, []), (2, [[1], [-1]]), (1, [[0, 2]]), (1, [[1, 1, 1]])]),
]


CENSUS_3 = [bott_tower_3(a, b, c) for a, b, c in iproduct(range(-3, 4), repeat=3)]


# -- the DFS against the row-by-row oracle ------------------------------------------


def search_parity(t, tp, bound):
    """iso_search and brute_force_iso_search agree on the pair; returns
    whether a witness was found."""
    got = iso_search(build_ring(t), build_ring(tp), bound)
    expected = brute_force_iso_search(build_ring(t), build_ring(tp), bound)
    assert (None if got is None else got.matrix) == expected, (t, tp, bound)
    return expected is not None


def bott_tower(rows):
    """The Bott tower (fibers 1) whose stage k has the row rows[k]."""
    return validate_tower([(1, [list(row)]) for row in rows])


def flip_signs(rows, signs):
    """Rows of the same tower presented with generators y_k -> signs[k] y_k."""
    return [[row[j] * signs[k] * signs[j] for j in range(k)]
            for k, row in enumerate(rows)]


def present_dual(rows, i):
    """Rows of the same tower with stage i (0-based) presented through the
    dual line bundle: the new generator is y_i + sum_j rows[i][j] y_j."""
    new = [list(row) for row in rows]
    new[i] = [-v for v in rows[i]]
    for k in range(i + 1, len(rows)):
        for j in range(i):
            new[k][j] = rows[k][j] - rows[k][i] * rows[i][j]
    return new


def test_iso_search_matches_oracle_on_census_3():
    # every census tower against its sign twist (a, -b, -c), its dual
    # transport (-a, b - ac, c) and a spread of other towers, most of
    # which have no witness in the box
    found = {True: 0, False: 0}
    for a, b, c in list(iproduct(range(-3, 4), repeat=3))[::17]:
        t = bott_tower_3(a, b, c)
        partners = [bott_tower_3(a, -b, -c), bott_tower_3(-a, b - a * c, c)]
        partners += CENSUS_3[(a + 3) % 7::67]
        for tp in partners:
            found[search_parity(t, tp, 2)] += 1
    assert min(found.values()) >= 15, found


def test_iso_search_matches_oracle_on_height_4():
    for t in HEIGHT_4:
        dual = t.replace_stage(4, dualize_stage(t.stages[-1]))
        assert search_parity(t, dual, 2)
        for tp in HEIGHT_4:
            assert search_parity(t, tp, 1) == (tp is t)


def test_iso_search_matches_oracle_on_height_5(seed):
    # isomorphic pairs re-present a seeded tower by generator signs and a
    # dual line bundle, so the witness lies in the box at bound 1; the
    # other pairs are two seeded towers, and the search mostly exhausts
    rng = random.Random(seed)
    found = {True: 0, False: 0}
    for _ in range(6):
        rows = [[rng.randint(-1, 1) for _ in range(k)] for k in range(5)]
        signs = [rng.choice((1, -1)) for _ in range(5)]
        twin = flip_signs(present_dual(rows, rng.randint(1, 3)), signs)
        assert search_parity(bott_tower(rows), bott_tower(twin), 1)
        other = [[rng.randint(-1, 1) for _ in range(k)] for k in range(5)]
        found[search_parity(bott_tower(rows), bott_tower(other), 1)] += 1
    assert found[False] >= 3, found


def test_iso_search_sign_rule_keeps_the_witness_negated():
    # -W is a witness whenever W is, and the first witness is the one
    # whose row 1 leads with a negative entry
    for t, tp in [(hirzebruch(1), hirzebruch(3)),
                  (bott_tower_3(1, 1, 1), bott_tower_3(1, -1, -1)),
                  (HEIGHT_4[0], HEIGHT_4[0])]:
        ring, ring_prime = build_ring(t), build_ring(tp)
        matrix = iso_search(ring, ring_prime, 2).matrix
        assert next(v for v in matrix[0] if v) < 0
        negated = tuple(tuple(-v for v in row) for row in matrix)
        assert verify_map(ring_prime, ring, negated) is not None


def test_carried_transform_gives_the_minors_gcd(rng):
    # U is built the way the DFS builds it; for a prefix with minors gcd
    # 1, prefix @ U = [L | 0] with |det L| = 1, and the gcd of the free
    # entries of r @ U is the minors gcd of the prefix with r appended
    entries = [0, 1, -1, 2, -2, 3, -3]
    checked = {"one": 0, "other": 0}
    for _ in range(600):
        m = rng.randint(1, 6)
        cols = [tuple(int(i == j) for i in range(m)) for j in range(m)]
        prefix = []
        for depth in range(rng.randint(0, m - 1)):
            row = tuple(rng.choice(entries) for _ in range(m))
            tail = [sum(a * b for a, b in zip(row, col)) for col in cols[depth:]]
            if brute_force_minors_gcd(prefix + [row], m) != 1:
                break
            prefix.append(row)
            cols = cols[:depth] + clear_row(tail, cols[depth:])[1]
        depth = len(prefix)
        image = [[sum(a * b for a, b in zip(row, col)) for col in cols]
                 for row in prefix]
        assert all(not any(row[depth:]) for row in image), (prefix, cols)
        assert abs(det_int([row[:depth] for row in image])) == 1
        assert abs(det_int([list(r) for r in zip(*cols)])) == 1
        for _ in range(5):
            r = tuple(rng.choice(entries) for _ in range(m))
            tail = [sum(a * b for a, b in zip(r, col)) for col in cols[depth:]]
            g = brute_force_minors_gcd(prefix + [r], m)
            assert minors_gcd([tail], m - depth) == g, (prefix, r)
            checked["one" if g == 1 else "other"] += 1
    assert min(checked.values()) > 300, checked


def dfs_candidates(source, target, bound):
    """Candidate rows the exhaustive search tries, summed over the nodes of
    its DFS: a node's candidates are its stage scan (row 1 only with a
    negative leading entry), and a candidate that keeps the minors gcd at
    1 below the last row is a child node."""
    m = source.height
    values = range(-bound, bound + 1)

    def tried(rows):
        pieces = relation_split(source, target, rows, len(rows) + 1)
        rows_next = list(_scan(target, pieces, values))
        if not rows:
            rows_next = [row for row in rows_next if next(v for v in row if v) < 0]
        total = len(rows_next)
        for row in rows_next:
            if len(rows) + 1 < m and brute_force_minors_gcd(rows + [row], m) == 1:
                total += tried(rows + [row])
        return total

    return tried([])


@pytest.mark.parametrize("t, tp", [
    (bott_tower_3(1, 1, 1), bott_tower_3(1, -1, -1)),  # a witness
    (HEIGHT_4[0], HEIGHT_4[1]),  # no witness: the box is exhausted
])
def test_iso_search_prunes_one_single_row_per_candidate(t, tp, monkeypatch):
    solves, calls = [], []

    def recording_rows(*args):
        out = _cp1_rows(*args)
        solves.append(out)
        return out

    def recording_minors_gcd(rows, ncols):
        calls.append(rows)
        return minors_gcd(rows, ncols)

    target, source = build_ring(t), build_ring(tp)
    candidates = dfs_candidates(source, target, 2)
    monkeypatch.setattr(search, "_cp1_rows", recording_rows)
    monkeypatch.setattr(search, "minors_gcd", recording_minors_gcd)
    witness = iso_search(target, source, 2)
    assert calls and all(len(rows) == 1 for rows in calls)
    # row 1 is tried only with a negative leading entry, later rows all;
    # at row 1 the transform is the identity, so the tail is the row
    row1 = [row for row in solves[0] if next(v for v in row if v) < 0]
    assert tuple(calls[0][0]) == row1[0]
    # one prune call per candidate per DFS node, also where nodes share
    # the candidates of one lift
    if witness is None:
        assert len(calls) == candidates
    else:
        assert len(calls) <= candidates


# c_2 = 3 y_1^2 = 0 at stage 2: its relation y_2^3 + 4 y_1 y_2^2 has no
# term linear in y_2
GEN = validate_tower([(1, []), (2, [[1], [3]]), (1, [[2, -1]])])
GEN_DUAL = GEN.replace_stage(3, dualize_stage(GEN.stages[-1]))
# CP^1, CP^2 and CP^3 stages; the dual's stage 3 is [[-3, 0], [-1, -2], [-1, -2]]
G123 = validate_tower([(1, []), (2, [[0], [2]]), (3, [[-1, -2], [0, 0], [2, -2]])])
G123_DUAL = G123.replace_stage(3, dualize_stage(G123.stages[-1]))
WALK = bott_tower([[], [1], [-1, 2], [0, 1, -2]])


def test_stage_relation_is_the_relation_split(rng):
    # the pieces built from the stage record are the relation's terms split
    # by the exponent t of y_i and mapped by the earlier rows, with the
    # zero pieces left out: for random earlier rows, and for zero rows,
    # which send every piece but y_i^(n+1) to zero
    towers = [GEN, G123] + CENSUS_3 + [
        random_tower(rng, max_height=4, max_dim=3) for _ in range(30)]
    dropped = 0
    for tower in towers:
        ring = build_ring(tower)
        m = ring.height
        for i in range(1, m + 1):
            rows = [tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(i - 1)]
            if not rng.randrange(4):
                rows = [(0,) * m] * (i - 1)
            split = relation_split(ring, ring, rows, i)
            pieces = _stage_relation(ring, _stage_record(ring, i), rows)
            assert pieces == {t: p for t, p in split.items() if not p.is_zero()}, (
                tower, rows, i)
            dropped += len(pieces) < len(split)
    assert dropped >= 10, dropped


# stages whose c_1 vanishes: y2 (y2 + y1)(y2 - y1), and
# y3^2 (y3 + y1 + y2)(y3 - y1 - y2) over CP^2 x CP^1
C1_ZERO = [
    validate_tower([(1, []), (2, [[1], [-1]]), (1, [[2, 1]])]),
    validate_tower([(2, []), (1, [[0]]), (3, [[1, 1], [-1, -1], [0, 0]])]),
]


def test_stage_relation_is_the_sympy_relation(rng):
    # sum_t pieces[t] x^t at a random x in the ring itself, where the
    # earlier relations hold, is the relation expanded by sympy
    # (sympy_relation) under the identity rows.  For random earlier rows,
    # the walk of the pieces must find the rows of the oracle's scan of
    # the relation_split, in order
    towers = [GEN] + C1_ZERO + [
        validate_tower([(3, []), (2, [[1], [2]])]),
        validate_tower([(1, []), (1, [[1]]), (2, [[1, -1], [0, 2]]), (1, [[1, 0, -1]])]),
    ]
    while len(towers) < 16:
        tower = random_tower(rng, max_height=4, max_dim=3, max_entry=2)
        if tower.height >= 2 and sum(tower.dims) <= 7:
            towers.append(tower)
    assert {n for t in towers for n in t.dims} == {1, 2, 3}
    assert {t.height for t in towers} == {2, 3, 4}
    walked = {True: 0, False: 0}
    for tower in towers:
        ring = build_ring(tower)
        m = ring.height
        bound = 1 if m == 4 else 2
        values = range(-bound, bound + 1)
        identity = [tuple(int(j == k) for k in range(m)) for j in range(m)]
        for i in range(2, m + 1):
            n = ring.dims[i - 1]
            pieces = _stage_relation(ring, _stage_record(ring, i), identity)
            assert pieces[n + 1] == ring.one() and min(pieces) >= 1
            x = ring.linear_class([rng.randint(-3, 3) for _ in range(m)])
            images = list(ring.gens()[:i - 1]) + [x]
            relation = image_of_terms(ring, images, sympy_relation(tower, i))
            assert sum((p * x**t for t, p in pieces.items()),
                       ring.zero()) == relation, (tower, i)
            rows = [tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(i - 1)]
            pieces = _stage_relation(ring, _stage_record(ring, i), rows)
            hits = list(_scan(ring, pieces, values))
            split = relation_split(ring, ring, rows, i)
            assert hits == brute_force_scan(ring, split, n + 1, values), (tower, rows, i)
            walked[bool(hits)] += 1
    assert min(walked.values()) >= 5, walked


def test_cp1_stage_relation_needs_no_ring_arithmetic(monkeypatch):
    # a CP^1 row is solved from the lift alone, with no ring arithmetic,
    # and finds the rows of the {2: 1, 1: L} walk it replaces; a stage of
    # fiber >= 2 still forms its pieces in the ring
    calls = []
    for name in ("_raw_mul", "_raw_add", "linear_class", "_monomial_nf"):
        def counted(self, *args, _name=name, _real=getattr(BottRing, name)):
            calls.append(_name)
            return _real(self, *args)
        monkeypatch.setattr(BottRing, name, counted)
    values = range(-2, 3)
    for tower in (WALK, GEN):
        ring = build_ring(tower)
        m = ring.height
        rows = [(-1, 0, 0, 0), (2, -1, 0, 0), (1, 1, 1, 0)]
        rows = [row[:m] for row in rows]
        for i in range(1, m + 1):
            stage = _stage_record(ring, i)
            if stage[0] != 2:
                continue
            assert stage[2:] == ((), ())  # a CP^1 row reads only (n + 1, c1)
            calls.clear()
            lift = _lift(stage[1], rows[:i - 1], m)
            found = _cp1_rows(_square_rewrites(ring), lift, values)
            assert not calls, (tower, i, calls)
            (row,) = tower.stages[i - 1].summand_exponents
            assert lift == tuple(sum(a * r[k] for a, r in zip(row, rows)) for k in range(m))
            pieces = {2: ring.one(), 1: ring.linear_class(lift)}
            assert found == list(_scan(ring, pieces, values))
    ring = build_ring(G123)
    rows = [(-1, 0, 0), (0, -1, 0)]
    calls.clear()
    pieces = _stage_relation(ring, _stage_record(ring, 3), rows)
    assert calls.count("_raw_mul") > 0
    assert pieces == relation_split(ring, ring, rows, 3) and len(pieces) == 3


def test_row_one_stops_at_the_sign_midpoint(monkeypatch):
    # row 1's candidates are in lexicographic order over a symmetric box,
    # so after the first row 1 that leads with a positive entry every later
    # one does too: an exhaustive search pulls the negative half of row 1
    # and that one row, and tries no row 1 that leads positive
    solves, pulled, tried = [], [], []

    def recording_rows(*args):
        found = _cp1_rows(*args)
        solves.append(args[1])
        if len(solves) > 1:
            return found
        # row 1's lift is 0, and no later row of this pair has lift 0 (its
        # c_1 is a nonzero combination of independent rows), so only row 1
        # reads this generator
        return (pulled.append(row) or row for row in found)

    def recording_minors_gcd(rows, ncols):
        if ncols == 4:  # row 1: the transform is the identity
            tried.append(tuple(rows[0]))
        return minors_gcd(rows, ncols)

    t, tp = WALK, bott_tower([[], [-1], [1, -2], [0, 1, 2]])
    row1 = list(_scan(build_ring(t), {2: build_ring(t).one()}, range(-2, 3)))
    negative = [row for row in row1 if next(filter(None, row)) < 0]
    assert 0 < len(negative) < len(row1)
    monkeypatch.setattr(search, "_cp1_rows", recording_rows)
    monkeypatch.setattr(search, "minors_gcd", recording_minors_gcd)
    assert iso_search(build_ring(t), build_ring(tp), 2) is None
    assert solves[0] == (0, 0, 0, 0) and all(any(lift) for lift in solves[1:])
    assert pulled == row1[:len(negative) + 1]
    assert tried == negative


def cp1_row_towers(rng):
    """Towers with CP^1 stages: census 3, seeded height-4 and height-5 Bott
    towers, and generalized towers with CP^1 stages above and below CP^2
    and CP^3 stages."""
    towers = CENSUS_3[::9] + [
        bott_tower([[rng.randint(-3, 3) for _ in range(k)] for k in range(m)])
        for m in (4, 4, 5, 5)]
    towers += [GEN, GEN_DUAL] + C1_ZERO + [
        validate_tower([(1, []), (3, [[1], [-1], [2]]), (1, [[2, -2]])]),
        validate_tower([(2, []), (1, [[2]]), (1, [[-1, 2]])]),
        validate_tower([(1, []), (1, [[2]]), (2, [[1, -1], [0, 2]]), (1, [[1, 0, -2]])]),
    ]
    while len(towers) < 60:
        tower = random_tower(rng, max_height=4, max_dim=3, max_entry=3)
        if 1 in tower.dims and max(tower.dims) > 1 and sum(tower.dims) <= 7:
            towers.append(tower)
    return towers


def test_cp1_rows_match_oracle(rng):
    # the closed-form candidates of a CP^1 row are, in order, the oracle's
    # scan of the relation's own pieces y_i^2 + c_1 y_i under random
    # earlier rows, at bounds 0 to 4 (at most 2 at height >= 4, where the
    # oracle pays one ring evaluation per vector of the box).  Some rows
    # are set so that the lift is -v (C, 2) for a top CP^1 stage whose c_1
    # has the coefficients C: then x_m = v is kept, 2 v + L_m = 0, and its
    # column's conditions on constants hold
    kept = squares = 0
    for tower in cp1_row_towers(rng):
        ring = build_ring(tower)
        m = ring.height
        rewrites = _square_rewrites(ring)
        for i in range(1, m + 1):
            if ring.dims[i - 1] != 1:
                continue
            c1 = _stage_record(ring, i)[1]
            for _ in range(3):
                bound = rng.randint(0, 2 if m >= 4 else 4)
                values = range(-bound, bound + 1)
                rows = [tuple(rng.randint(-bound, bound) for _ in range(m))
                        for _ in range(i - 1)]
                units = [(j, a) for j, a in c1 if a in (1, -1)]
                if units and bound and not rewrites[-1][0] and rng.randrange(2):
                    v = rng.choice([-1, 1]) * rng.randint(1, bound)
                    want = tuple(-v * c for c in rewrites[-1][1] + (2,))
                    j, a = rng.choice(units)
                    rows[j] = (0,) * m
                    rest = _lift(c1, rows, m)
                    rows[j] = tuple(a * (x - r) for x, r in zip(want, rest))
                    assert _lift(c1, rows, m) == want
                lift = _lift(c1, rows, m)
                got = _cp1_rows(rewrites, lift, values)
                pieces = relation_split(ring, ring, rows, i)
                assert got == brute_force_scan(ring, pieces, 2, values), (tower, rows, i)
                # a candidate below a kept last coordinate, 2 x_k + L_k = 0
                # with x_k != 0; a candidate with x_k = -L_k != 0 on a stage k
                # of fiber >= 2, the one nonzero root of its square condition
                kept += any(x[-1] and 2 * x[-1] + lift[-1] == 0 for x in got)
                squares += any(x[k] and n > 1 for x in got for k, n in enumerate(ring.dims))
    assert kept >= 5 and squares >= 5, (kept, squares)


def test_search_of_cp1_stages_walks_no_scan(rng, monkeypatch):
    # every source stage CP^1: the search solves each row in closed form
    # and calls the scan zero times, on census-3 pairs, on seeded
    # height-4 and height-5 Bott towers against their top-stage duals, and
    # in the search of a 3-stage classification
    def failing_scan(*args):
        raise AssertionError("a row of a CP^1 stage walked a scan")

    monkeypatch.setattr(search, "_scan", failing_scan)
    found = 0
    for a, b, c in list(iproduct(range(-3, 4), repeat=3))[::11]:
        t = bott_tower_3(a, b, c)
        for tp in (bott_tower_3(a, -b, -c), bott_tower_3(-a, b - a * c, c), CENSUS_3[a + 3]):
            found += iso_search(build_ring(t), build_ring(tp), 2) is not None
    for m in (4, 5):
        rows = [[rng.randint(-2, 2) for _ in range(k)] for k in range(m)]
        t = bott_tower(rows)
        dual = t.replace_stage(m, dualize_stage(t.stages[-1]))
        found += iso_search(build_ring(t), build_ring(dual), 2) is not None
    verdict = classify_3stage(bott_tower([[], [2], [1, 1]]), bott_tower([[], [-2], [-1, 1]]))
    assert verdict.witness is not None
    assert found >= 30, found


def test_scan_rejects_a_piece_of_exponent_below_one():
    # a constant piece on a monomial outside every polynomial used to fail
    # deep in the plan; every exponent below 1 is refused by name before
    # any plan is compiled
    ring = build_ring(bott_tower_3(1, -2, 3))
    y1y3 = ring.from_terms({(1, 0, 1): 1})
    for t in (0, -1):
        with pytest.raises(ValueError, match=rf"exponent t >= 1, got t = {t}$"):
            list(_scan(ring, {2: ring.one(), t: y1y3}, range(-1, 2)))
        assert ring._scan_plans == {}


@pytest.mark.parametrize("t, tp, bound, lists, found", [
    (GEN, GEN_DUAL, 2, 3, True),
    (WALK, WALK.replace_stage(4, dualize_stage(WALK.stages[-1])), 2, 9, True),
    (WALK, bott_tower([[], [-1], [1, -2], [0, 1, 2]]), 2, 5, False),
    (bott_tower_3(2, 1, 1), bott_tower_3(-2, -1, 1), 4, 7, True),
])
def test_iso_search_walks_no_further_than_its_first_witness(
        t, tp, bound, lists, found, monkeypatch):
    # the DFS forms one candidate list per distinct lift of a CP^1 row (a
    # closed-form solve) and per stage image of a row of fiber >= 2 (a
    # walk: GEN's CP^2 row, once); a search with a witness stops at it,
    # and the counts pin the work of the row-by-row search
    lifts, walks = [], []

    def counting_rows(rewrites, lift, values):
        lifts.append(lift)
        return _cp1_rows(rewrites, lift, values)

    def counting_scan(*args):
        walks.append(args)
        return _scan(*args)

    monkeypatch.setattr(search, "_cp1_rows", counting_rows)
    monkeypatch.setattr(search, "_scan", counting_scan)
    witness = iso_search(build_ring(t), build_ring(tp), bound)
    assert len(lifts) == len(set(lifts))
    assert len(walks) == (1 if 2 in t.dims else 0)
    assert len(lifts) + len(walks) == lists
    assert (witness is not None) == found


def test_iso_search_shares_walks_between_stage_images(seed, monkeypatch):
    # Bott towers with zero entries have stages whose c_1 skips earlier
    # generators, so DFS nodes whose prefixes differ only in skipped rows
    # have one lift and share one solve.  The search must still agree with
    # the oracle, and solve fewer rows than its DFS has nodes: the root,
    # plus a child per candidate that keeps the minors gcd at 1, less the
    # leaf of a witness.  No row of a Bott tower walks a scan.  The oracle
    # costs 3^m vectors per node, so pairs whose DFS exceeds 60 nodes are
    # not compared.
    walks, passes = [], []

    def counting_rows(*args):
        walks.append(args)
        return _cp1_rows(*args)

    def failing_scan(*args):
        raise AssertionError("a Bott tower search walked a scan")

    def counting_minors_gcd(rows, ncols):
        g = minors_gcd(rows, ncols)
        passes.append(g == 1)
        return g

    monkeypatch.setattr(search, "_cp1_rows", counting_rows)
    monkeypatch.setattr(search, "_scan", failing_scan)
    monkeypatch.setattr(search, "minors_gcd", counting_minors_gcd)
    rng = random.Random(seed)
    compared = {True: 0, False: 0}
    fewer = 0
    for height in (4, 5):
        for _ in range(3):
            rows = [[rng.choice((0, 0, 1, -1)) for _ in range(k)] for k in range(height)]
            signs = [rng.choice((1, -1)) for _ in range(height)]
            twin = flip_signs(present_dual(rows, rng.randint(1, height - 2)), signs)
            other = [[rng.choice((0, 0, 1, -1)) for _ in range(k)] for k in range(height)]
            for partner in (twin, other):
                walks.clear()
                passes.clear()
                t, tp = bott_tower(rows), bott_tower(partner)
                found = iso_search(build_ring(t), build_ring(tp), 1) is not None
                nodes = 1 + sum(passes) - found
                assert len(walks) <= nodes
                fewer += len(walks) < nodes
                if nodes <= 60:
                    assert search_parity(t, tp, 1) == found
                    compared[found] += 1
    assert min(compared.values()) >= 1, compared
    assert fewer, "no pair shared a solve"


@pytest.mark.parametrize("modulus", [2, 3, 4, 8])
def test_square_zero_count_mod_matches_oracle(modulus):
    for tower in CENSUS_3 + HEIGHT_4:
        assert _square_zero_count_mod(tower, modulus) == \
            brute_force_square_zero_count(tower, modulus), (tower, modulus)


@pytest.mark.parametrize("modulus", [2, 3, 4, 8, 12, 16])
def test_lifted_residue_count_matches_the_full_walk(modulus, rng):
    # when 4 | n the count tries range(n/2) and lifts each hit to 2^m
    # solutions; the full walk over range(n) must agree, on census 3,
    # seeded height-4 and height-5 Bott towers and generalized towers
    seeded = [bott_tower([[rng.randint(-3, 3) for _ in range(k)] for k in range(m)])
              for m in (4, 4, 4, 5, 5, 5)]
    seeded += [random_tower(rng, max_height=4, max_dim=3, max_entry=2)
               for _ in range(12)]
    counts = set()
    for tower in CENSUS_3 + seeded:
        ring = build_ring(tower)
        count = _square_zero_residues(_square_rewrites(ring), modulus)
        assert count == full_residue_square_zero_count(ring, modulus), (tower, modulus)
        counts.add(count)
    assert len(counts) > 2, counts


@pytest.mark.parametrize("modulus", [2, 3, 4, 6, 8, 9, 12])
def test_residue_count_matches_oracle_on_generalized_towers(modulus, rng):
    # CP^2 and CP^3 stages above and below CP^1 stages: y_k^2 of a stage of
    # fiber n_k >= 2 is a basis monomial, so x_k^2 must vanish on its own,
    # and some solutions of the pair conditions alone fail that
    rejected = 0
    for dims in [(2, 1, 1), (1, 3, 1), (1, 1, 2), (3, 1), (1, 2), (2, 1, 3), (1, 2, 1)]:
        stages = [(n, [[rng.randint(-3, 3) for _ in range(i)] for _ in range(n)])
                  for i, n in enumerate(dims)]
        tower = validate_tower(stages)
        rewrites = _square_rewrites(build_ring(tower))
        count = _square_zero_residues(rewrites, modulus)
        assert count == brute_force_square_zero_count(tower, modulus), (tower, modulus)
        unsquared = tuple((False, ck) for _, ck in rewrites)
        rejected += _square_zero_residues(unsquared, modulus) > count
    assert rejected


def test_classify_3stage_walks_no_scan(rng, monkeypatch):
    # the battery's residue counts solve the column equations of x^2 = 0
    # and the search solves each CP^1 row in closed form: on census 3, each
    # tower against its sign twist and a random partner, no scan is walked
    # and no ring keeps a plan
    rings = []
    real_build_ring = classify.build_ring

    def recording_build_ring(*args):
        rings.append(real_build_ring(*args))
        return rings[-1]

    def failing_scan(*args):
        raise AssertionError("a 3-stage classification walked a scan")

    monkeypatch.setattr(search, "_scan", failing_scan)
    monkeypatch.setattr(classify, "build_ring", recording_build_ring)
    kinds = set()
    for a, b, c in iproduct(range(-3, 4), repeat=3):
        t = bott_tower_3(a, b, c)
        for tp in (bott_tower_3(a, -b, -c), rng.choice(CENSUS_3)):
            v = classify_3stage(t, tp)
            kinds.add(v.invariant[0] if v.invariant else v.kind)
    assert rings and all(r._scan_plans == {} for r in rings)
    assert {"square_zero_count_mod2", "square_zero_count_mod4",
            classify.DIFFEOMORPHIC} <= kinds, kinds


def test_residue_count_walks_half_the_residues_when_four_divides(monkeypatch):
    # the residues tried per coordinate are the one-argument ranges that
    # the count asks of the search module: range(n/2) exactly when 4 | n
    tried = []

    def recording_range(*args):
        if len(args) == 1:
            tried.append(args[0])
        return range(*args)

    monkeypatch.setattr(search, "range", recording_range, raising=False)
    rewrites = _square_rewrites(build_ring(bott_tower_3(-4, -2, -3)))
    for n in (2, 3, 4, 6, 8, 12, 16):
        _square_zero_residues(rewrites, n)
    assert tried == [n // 2 if n % 4 == 0 else n for n in (2, 3, 4, 6, 8, 12, 16)]


def test_every_scan_walks_pieces_of_positive_exponent(rng, monkeypatch):
    # no caller has a constant piece: the square-zero searches and every
    # row of the isomorphism search pass pieces of exponent t >= 1 only, on
    # census 3 (whose 3-stage classifications walk no scan) and on seeded
    # generalized towers, whose rows of fiber >= 2 have several pieces
    keys = []

    def recording_scan(ring, pieces, *args):
        keys.append(tuple(pieces))
        return _scan(ring, pieces, *args)

    monkeypatch.setattr(search, "_scan", recording_scan)
    for a, b, c in iproduct(range(-3, 4), repeat=3):
        t = bott_tower_3(a, b, c)
        square_zero_elements(build_ring(t), 2, 1)
        for tp in (bott_tower_3(a, -b, -c), rng.choice(CENSUS_3)):
            classify_3stage(t, tp, bound=1)
    while sum(len(k) > 1 for k in keys) < 10:  # rows with lower pieces
        t = random_tower(rng, max_height=3, max_dim=3, max_entry=2)
        tp = t.replace_stage(t.height, dualize_stage(t.stages[-1]))
        ring = build_ring(t)
        for k in (2, 3):
            square_zero_elements(ring, k, 1)
        iso_search(ring, build_ring(tp), 1)
    assert keys and all(k and min(k) >= 1 for k in keys), set(keys)


@pytest.mark.parametrize("modulus", [0, 1, -3, True, False, 2.0])
def test_square_zero_count_mod_rejects_bad_modulus(modulus):
    calls = [_square_zero_count_mod]
    if modulus is False or modulus != 0:  # a ring takes 0, for Z
        calls.append(build_ring)
    for call in calls:
        with pytest.raises(ModulusError):
            call(hirzebruch(1), modulus)


def test_residue_scan_of_integer_ring_matches_modular_ring(seed):
    # the relations are monic over Z, so the normal form over Z/n is the
    # normal form over Z reduced mod n: the residue walk of the ring over Z
    # mod n finds the vectors whose k-th power vanishes in the ring over
    # Z/n (k = 2 on the census: test_square_zero_count_mod_matches_oracle)
    rng = random.Random(seed)
    seeded = [random_tower(rng, max_height=4, max_dim=2, max_entry=3)
              for _ in range(12)]
    cases = [(tower, 3) for tower in CENSUS_3 + HEIGHT_4]
    cases += [(tower, k) for tower in seeded for k in (2, 3)]
    for tower, k in cases:
        ring = build_ring(tower)
        for n in (2, 3, 4):
            walk_parity(ring, {k: ring.one()}, range(n), n)


@st.composite
def scan_cases(draw):
    """A random integer ring of height 1 to 4 with fibers <= 2, the pieces
    {k: 1} with an optional lower piece that keeps the expression
    homogeneous, the modulus of the walk and of the oracle's ring (0 for
    Z), and a bounded or (modulo n) residue box."""
    stages = []
    for i in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 2))
        stages.append((n, [[draw(st.integers(-2, 2)) for _ in range(i)]
                           for _ in range(n)]))
    ring = build_ring(validate_tower(stages))
    mod = draw(st.sampled_from([0, 2, 3, 4]))
    k = draw(st.integers(2, 3))
    pieces = {k: ring.one()}
    if draw(st.booleans()):
        t = draw(st.integers(1, k - 1))
        basis = ring.basis(k - t)
        if basis:
            pieces[t] = ring.from_terms(
                {e: draw(st.integers(-2, 2)) for e in basis})
    if mod and draw(st.booleans()):
        values = range(mod)
    else:
        bound = draw(st.integers(0, 1 if ring.height == 4 else 2))
        values = range(-bound, bound + 1)
    return ring, pieces, values, mod


@settings(max_examples=120, deadline=None)
@given(scan_cases())
def test_scan_matches_oracle_property(case):
    walk_parity(*case)


@st.composite
def search_pairs(draw):
    """A tower of height 1 to 4 with fibers <= 2, paired with itself, with
    the copy whose top stage is dualized, or with another tower of the same
    fiber dimensions, and a bound 0 to 2 (at most 1 at height 4)."""
    dims = draw(st.lists(st.integers(1, 2), min_size=1, max_size=4))

    def tower():
        return validate_tower([
            (n, [[draw(st.integers(-2, 2)) for _ in range(i)] for _ in range(n)])
            for i, n in enumerate(dims)
        ])

    t = tower()
    kind = draw(st.sampled_from(["same", "dual", "other"]))
    if kind == "same":
        tp = t
    elif kind == "dual":
        tp = t.replace_stage(t.height, dualize_stage(t.stages[-1]))
    else:
        tp = tower()
    bound = draw(st.integers(0, 1 if len(dims) == 4 else 2))
    return t, tp, kind, bound


@settings(max_examples=80, deadline=None)
@given(search_pairs())
def test_iso_search_witnesses_verify_property(case):
    t, tp, kind, bound = case
    ring, ring_prime = build_ring(t), build_ring(tp)
    witness = iso_search(ring, ring_prime, bound)
    if kind == "same" and bound >= 1:
        assert witness is not None  # the identity is in the box
    if witness is None:
        return
    matrix = witness.matrix
    assert all(abs(v) <= bound for row in matrix for v in row)
    assert abs(det_int([list(row) for row in matrix])) == 1
    rm = verify_map(ring_prime, ring, matrix)
    assert rm is not None and rm.is_isomorphism


# -- compiled scan plans -----------------------------------------------------------


def shaped_pieces(ring):
    """Pieces {2: 1, 1: degree 1} of one shape, with different supports:
    some coefficients zero, a single monomial and full support."""
    one, d1 = ring.one(), ring.basis(1)
    return [
        {2: one, 1: ring.from_terms({d1[1]: 1})},
        {2: one, 1: ring.from_terms({e: -1 for e in d1[::2]})},
        {2: one, 1: ring.from_terms({d1[0]: -1})},
        {2: one, 1: ring.from_terms({e: i for i, e in enumerate(d1, 1)})},
    ]


@pytest.mark.parametrize("mod", [0, 4], ids=mod_label)
@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reverse"])
def test_scan_plan_compiled_once_per_shape(mod, order):
    ring = build_ring(bott_tower_3(1, -2, 3))
    values = range(-2, 3)
    plan = None
    hits = []
    for pieces in shaped_pieces(ring)[::order]:
        hits.append(walk_parity(ring, pieces, values, mod))
        assert len(ring._scan_plans) == 1
        (current,) = ring._scan_plans.values()
        assert plan is None or current is plan
        plan = current
    assert any(hits)


@pytest.mark.parametrize("order", [1, -1], ids=["z-first", "residues-first"])
def test_one_plan_serves_integer_and_residue_walks(order):
    # a plan holds integer weights, so a bounded scan over Z and residue
    # scans mod 2, 3, 4 and 8 of one ring share it, in either order
    tower = bott_tower_3(1, -2, 3)
    ring = build_ring(tower)
    walks = [(0, range(-2, 3))] + [(n, range(n)) for n in (2, 3, 4, 8)]
    for shaped in ([{2: ring.one()}], shaped_pieces(ring)):
        for mod, values in walks[::order]:
            for pieces in shaped:
                walk_parity(ring, pieces, values, mod)
    assert len(ring._scan_plans) == 2


def test_iso_search_compiles_one_plan_per_stage_shape(monkeypatch):
    t = validate_tower([(1, []), (1, [[1]]), (1, [[-1, 2]]), (1, [[0, 1, -2]]),
                        (1, [[2, -1, 0, 1]])])
    tp = validate_tower([(1, []), (1, [[-1]]), (1, [[1, -2]]), (1, [[0, 1, 2]]),
                         (1, [[1, -1, 2, 0]])])
    for source in (t, tp):
        target = build_ring(t)
        iso_search(target, build_ring(source), 1)
        # every row is CP^1, solved in closed form: no plan is compiled
        assert target._scan_plans == {}
    # GEN's CP^2 row compiles the plans of its cubic stage relation only
    target = build_ring(GEN)
    assert iso_search(target, build_ring(GEN_DUAL), 2) is not None
    assert target._scan_plans and all(max(t for t, _ in shape) == 3
                                      for shape in target._scan_plans)
    # a 3-stage classification that reaches the search: the residue counts
    # solve column equations and the search solves CP^1 rows, so neither
    # ring keeps a plan
    rings = []
    real_build_ring = classify.build_ring

    def recording_build_ring(*args):
        rings.append(real_build_ring(*args))
        return rings[-1]

    monkeypatch.setattr(classify, "build_ring", recording_build_ring)
    verdict = classify_3stage(bott_tower([[], [2], [1, 1]]),
                              bott_tower([[], [-2], [-1, 1]]))
    assert verdict.witness is not None
    assert len(rings) == 2
    assert [r._scan_plans for r in rings] == [{}, {}]


def plan_polynomials(plan):
    """Each settled polynomial of a compiled plan read back from its slots,
    per (level, check), {alpha: {(t, beta): weight}}.  The layout is
    checked on the way: at every level the parent's slot c < the child's
    width is carried as the child's slot c (z_j^0, no spread entry), and
    every other slot is exactly one spread entry, of k >= 1, or one term of
    one check."""
    table, levels, width = plan
    widths = [width] + [child_width for _, _, child_width in levels]
    assert widths[-1] == 0
    routes = []  # per level, slot -> (k, child slot or (level, check))
    for j, (checks, spread, child_width) in enumerate(levels):
        route = {c: (0, c) for c in range(child_width)}
        for s, c, k in spread:
            assert k >= 1 and s >= child_width and 0 <= c < child_width, (j, s, c, k)
            assert s not in route, (j, s)
            route[s] = (k, c)
        for i, terms in enumerate(checks):
            for s, k in terms:
                assert s >= child_width and s not in route, (j, s)
                route[s] = (k, (j, i))
        assert sorted(route) == list(range(widths[j])), j
        routes.append(route)
    polys: dict = {}
    for (t, beta), entries in table.items():
        for s, w in entries:
            alpha, j = [], 0
            while True:
                k, s = routes[j][s]
                alpha.append(k)
                if isinstance(s, tuple):
                    break
                j += 1
            alpha += [0] * (len(levels) - len(alpha))
            poly = polys.setdefault(s, {}).setdefault(tuple(alpha), {})
            poly[t, beta] = poly.get((t, beta), 0) + w
    return polys


def assert_plan_layout(ring, rng):
    """Every plan compiled on ``ring`` has the carried layout, and its
    polynomials read back from the slots are, as a multiset, the
    polynomials {alpha: {(t, beta): weight}} built here, one per basis
    monomial mu, from the multinomial theorem and the ring's normal form of
    y^(alpha + beta).  Filled with random pieces of the plan's shape, those
    are the coefficients of sum_t pieces[t] h_z^t at a random z."""
    assert ring._scan_plans
    for shape, plan in ring._scan_plans.items():
        built: dict = {}  # mu -> alpha -> {(t, beta): weight}
        for t, degrees in shape:
            for alpha in iproduct(range(t + 1), repeat=ring.height):
                if sum(alpha) != t:
                    continue
                mult = factorial(t) // prod(map(factorial, alpha))
                for d in degrees:
                    for beta in ring.basis(d):
                        nf = ring._monomial_nf(tuple(map(add, alpha, beta)))
                        for mu, c in nf.items():
                            poly = built.setdefault(mu, {}).setdefault(alpha, {})
                            poly[t, beta] = mult * c

        def key(poly):
            return sorted((alpha, sorted(weights.items()))
                          for alpha, weights in poly.items())

        read_back = plan_polynomials(plan).values()
        assert sorted(map(key, read_back)) == sorted(map(key, built.values())), shape
        pieces = {t: ring.from_terms({beta: rng.randint(-3, 3)
                                      for d in degrees for beta in ring.basis(d)})
                  for t, degrees in shape}
        z = [rng.randint(-3, 3) for _ in range(ring.height)]
        h = ring.linear_class(z)
        expected = dict(sum((p * h**t for t, p in pieces.items()), ring.zero()).items())
        for mu, poly in built.items():
            value = 0
            for alpha, weights in poly.items():
                zalpha = prod(zj**a for zj, a in zip(z, alpha))
                for (t, beta), w in weights.items():
                    value += dict(pieces[t].items()).get(beta, 0) * w * zalpha
            assert value == expected.pop(mu, 0), (shape, mu)
        assert not any(expected.values()), expected  # nothing outside every polynomial


def test_scan_plans_carry_the_child_slots(rng):
    # the {2: 1} plans of census 3 and of seeded height-4 and height-5
    # Bott towers, the plan of shaped_pieces and the plans of CP^2 and
    # CP^3 stage relations
    towers = CENSUS_3 + [
        bott_tower([[rng.randint(-2, 2) for _ in range(k)] for k in range(m)])
        for m in (4, 4, 5, 5, 5)]
    for tower in towers:
        ring = build_ring(tower)
        list(_scan(ring, {2: ring.one()}, range(1)))
        assert_plan_layout(ring, rng)
    ring = build_ring(bott_tower_3(1, -2, 3))
    list(_scan(ring, shaped_pieces(ring)[-1], range(1)))
    assert_plan_layout(ring, rng)
    stages = 0
    for tower in [GEN, validate_tower([(3, []), (3, [[2], [-1], [3]])]),
                  validate_tower([(1, []), (2, [[1], [-1]]), (3, [[1, 1], [0, 2], [-1, 0]])])]:
        ring = build_ring(tower)
        for i in range(2, ring.height + 1):
            if ring.dims[i - 1] in (2, 3):
                rows = [tuple(rng.randint(-2, 2) for _ in range(ring.height))
                        for _ in range(i - 1)]
                pieces = _stage_relation(ring, _stage_record(ring, i), rows)
                list(_scan(ring, pieces, range(1)))
                stages += 1
        assert_plan_layout(ring, rng)
    assert stages == 4


def test_equal_rings_do_not_share_scan_plans():
    r1, r2 = build_ring(hirzebruch(1)), build_ring(hirzebruch(1))
    assert r1 == r2 and r1 is not r2
    values = range(-2, 3)
    got = list(_scan(r1, {2: r1.one()}, values))
    assert r2._scan_plans == {}
    assert list(_scan(r2, {2: r2.one()}, values)) == got
    (p1,), (p2,) = r1._scan_plans.values(), r2._scan_plans.values()
    assert p1 is not p2
    # each ring keeps its own weights; only the walk, levels and width, is
    # shared by support signature
    assert p1[0] == p2[0] and p1[0] is not p2[0]
    assert p1[1] is p2[1] and p1[2] == p2[2]


def only_plan(ring):
    (plan,) = ring._scan_plans.values()
    return plan


def test_sign_twists_share_one_walk_and_keep_their_weights():
    # (a, -b, -c) has the supports of (a, b, c), with weights of the other
    # sign on the terms of b and c
    for a, b, c in [(1, 2, 3), (-2, 1, -1), (0, 3, 1)]:
        rings = [build_ring(bott_tower_3(a, b, c)), build_ring(bott_tower_3(a, -b, -c))]
        for ring in rings:
            list(_scan(ring, {2: ring.one()}, range(-1, 2)))
        p, q = map(only_plan, rings)
        assert p[1] is q[1] and p[2] == q[2]
        assert p[0] is not q[0] and p[0] != q[0]


def test_rings_with_other_zero_patterns_get_other_walks():
    walks = []
    for abc in [(1, 2, 3), (0, 2, 3), (1, 0, 3), (1, 2, 0), (0, 0, 0)]:
        ring = build_ring(bott_tower_3(*abc))
        list(_scan(ring, {2: ring.one()}, range(-1, 2)))
        walks.append(only_plan(ring)[1])
    for i, j in combinations(range(len(walks)), 2):
        assert walks[i] != walks[j], (i, j)


def test_shared_walk_parts_are_tuples():
    ring = build_ring(validate_tower([(1, []), (2, [[1], [-1]]), (1, [[0, 2]])]))
    list(_scan(ring, {2: ring.one(), 1: ring.gen(1)}, range(-1, 2)))
    for _, levels, width in ring._scan_plans.values():
        assert isinstance(levels, tuple) and isinstance(width, int)
        for level in levels:
            checks, spread, child_width = level
            assert isinstance(level, tuple) and isinstance(child_width, int)
            assert isinstance(checks, tuple) and isinstance(spread, tuple)
            assert all(isinstance(check, tuple)
                       and all(isinstance(term, tuple) for term in check)
                       for check in checks)
            assert all(isinstance(entry, tuple) for entry in spread)
    supports = (((2, 0), (1, 1)), ((0, 2),))
    plan = search._plan(supports, 2)
    assert search._plan(supports, 2) is plan
    slots, levels, width = plan
    assert isinstance(slots, tuple) and all(isinstance(s, tuple) for s in slots)
    assert [len(s) for s in slots] == [2, 1]
    assert isinstance(levels, tuple)
    assert search._plan.cache_info().maxsize is not None  # a bounded cache


# -- minors gcd against every maximal minor ------------------------------------------


def test_minors_gcd_of_one_row_matches_oracle(rng):
    # the one shape the search prunes with: a single row, whose maximal
    # minors are its first ncols entries
    kinds = {"zero": 0, "one": 0, "other": 0}
    for _ in range(2000):
        width = rng.randint(1, 7)
        row = tuple(rng.choice([0, 1, -1, 2, -2, 3, -3, 6, -6]) for _ in range(width))
        if rng.randrange(5) == 0:
            row = (0,) * width
        ncols = rng.randint(0, width)
        g = minors_gcd([row], ncols)
        assert g == brute_force_minors_gcd([row], ncols), (row, ncols)
        kinds["zero" if g == 0 else "one" if g == 1 else "other"] += 1
    assert min(kinds.values()) > 100, kinds
    assert minors_gcd([(0, -4, -6, 5)], 3) == 2
    assert minors_gcd([(-3, 0)], 2) == 3
