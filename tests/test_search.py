import random
from itertools import product as iproduct

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
from bottcoh.ring import image_of_terms
from bottcoh.search import _depressed, _scan, _stage_pieces

from .conftest import mod_label, random_tower
from .oracles import (
    brute_force_iso_search,
    brute_force_minors_gcd,
    brute_force_scan,
    brute_force_square_zero_count,
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
    assert scan_parity(ring, {t: ring.zero() for t in range(3)}, 2, mod) == every
    # h^3 lands above the top degree, so it is zero for every h
    assert scan_parity(ring, {3: ring.one()}, 2, mod) == every


@pytest.mark.parametrize("mod", DOMAINS, ids=mod_label)
def test_scan_matches_oracle_with_gaps_in_t(mod):
    ring = build_ring(bott_tower_3(1, -2, 3))
    y1, y2, y3 = ring.gens()
    cases = [
        {2: ring.one(), 0: -(y1 * y2)},
        {3: ring.one(), 1: -(y1 * y2)},
        {2: y1, 0: y1 * y2 * y3},
        {3: y1, 1: y1 * y2 * y3},
        {4: ring.one(), 1: y1 * y2},
    ]
    for pieces in cases:
        scan_parity(ring, pieces, 2, mod)
    # a nonzero constant polynomial, also behind a zero piece at the
    # highest key, rules out every vector
    for pieces in ({0: y1 * y3}, {0: y1 * y3, 3: ring.zero()}):
        assert scan_parity(ring, pieces, 2, mod) == []


@pytest.mark.parametrize("mod", DOMAINS, ids=mod_label)
def test_scan_rejects_at_the_first_coordinate(mod):
    # h y2 y3 = b1 y1 y2 y3 in (CP^1)^3: the only polynomial, b1 - 1,
    # involves b1 alone and is settled by the first coordinate
    ring = build_ring(product_tower((1, 1, 1)))
    y1, y2, y3 = ring.gens()
    hits = scan_parity(ring, {1: y2 * y3, 0: -(y1 * y2 * y3)}, 2, mod)
    firsts = {v[0] for v in hits}
    assert firsts and firsts <= {-1, 1}
    # every completion b2, b3 of an accepted b1 is a hit
    assert len(hits) == 25 * len(firsts)


@pytest.mark.parametrize("mod", [0, 2], ids=mod_label)
def test_scan_matches_oracle_on_iso_search_stage_splits(mod):
    # replay the stage-by-stage search on prefixes of up to four hits per
    # stage, plus one zero row per stage, which kills the lower pieces of
    # the next stage's split
    pairs = [
        (hirzebruch(1), hirzebruch(3)),
        (bott_tower_3(1, 1, 1), bott_tower_3(1, -1, -1)),
        (bott_tower_3(2, 0, 1), bott_tower_3(-2, 0, 1)),
        (product_tower((1, 2)), product_tower((2, 1))),
        (validate_tower([(1, []), (2, [[1], [3]])]),
         validate_tower([(1, []), (2, [[-3], [-2]])])),
    ]
    bound = 1
    for t, tp in pairs:
        target, source = build_ring(t), build_ring(tp)
        m = target.height
        prefixes = [[]]
        for i in range(1, m + 1):
            extended = []
            for rows in prefixes:
                pieces = _stage_pieces(source, target, rows, i)
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
    got = iso_search(build_ring(t), build_ring(tp), bound)
    monkeypatch.setattr(search, "_scan", lambda ring, pieces, values, mod, shift:
                        brute_force_scan(ring, pieces, max(pieces), values, shift))
    expected = iso_search(build_ring(t), build_ring(tp), bound)
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
        pieces = _stage_pieces(source, target, rows, len(rows) + 1)
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
    scans, calls = [], []

    def recording_scan(*args):
        out = list(_scan(*args))
        scans.append(out)
        return out

    def recording_minors_gcd(rows, ncols):
        calls.append(rows)
        return minors_gcd(rows, ncols)

    target, source = build_ring(t), build_ring(tp)
    candidates = dfs_candidates(source, target, 2)
    monkeypatch.setattr(search, "_scan", recording_scan)
    monkeypatch.setattr(search, "minors_gcd", recording_minors_gcd)
    witness = iso_search(target, source, 2)
    assert calls and all(len(rows) == 1 for rows in calls)
    # row 1 is tried only with a negative leading entry, later rows all;
    # at row 1 the transform is the identity, so the tail is the row
    row1 = [row for row in scans[0] if next(v for v in row if v) < 0]
    assert tuple(calls[0][0]) == row1[0]
    # one prune call per candidate per DFS node, also where nodes share
    # the walk of one stage image
    if witness is None:
        assert len(calls) == candidates
    else:
        assert len(calls) <= candidates


# c_2 = 3 y_1^2 = 0 at stage 2: its relation y_2^3 + 4 y_1 y_2^2 has no
# term linear in y_2
GEN = validate_tower([(1, []), (2, [[1], [3]]), (1, [[2, -1]])])
GEN_DUAL = GEN.replace_stage(3, dualize_stage(GEN.stages[-1]))
WALK = bott_tower([[], [1], [-1, 2], [0, 1, -2]])


@pytest.mark.parametrize("mod", [0, 2, 3], ids=mod_label)
def test_stage_pieces_are_the_relation_split(mod, rng):
    # the c_q of the stage table give the pieces that splitting the
    # relation's terms by the exponent of y_i gives; a zero piece stands
    # where the split has no key
    towers = [GEN] + CENSUS_3 + [
        random_tower(rng, max_height=4, max_dim=3) for _ in range(30)]
    for tower in towers:
        ring = build_ring(tower, mod)
        m = ring.height
        for i in range(1, m + 1):
            rows = [tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(i - 1)]
            got = _stage_pieces(ring, ring, rows, i)
            expected = relation_split(ring, ring, rows, i)
            assert sorted(got) == list(range(1, ring.dims[i - 1] + 2))
            assert {t: p for t, p in got.items() if not p.is_zero()} == {
                t: p for t, p in expected.items() if not p.is_zero()
            }, (tower, mod, rows, i)
    if mod == 0:
        ring = build_ring(GEN)
        pieces = _stage_pieces(ring, ring, [(1, 0, 0)], 2)
        assert pieces[1].is_zero() and 1 not in relation_split(ring, ring, [(1, 0, 0)], 2)


# stages whose c_1 vanishes: y2 (y2 + y1)(y2 - y1), and
# y3^2 (y3 + y1 + y2)(y3 - y1 - y2) over CP^2 x CP^1
C1_ZERO = [
    validate_tower([(1, []), (2, [[1], [-1]]), (1, [[2, 1]])]),
    validate_tower([(2, []), (1, [[0]]), (3, [[1, 1], [-1, -1], [0, 0]])]),
]


def test_depressed_stage_relation_is_the_scaled_relation(rng):
    # z = (n+1) x + c_1 turns (n+1)^(n+1) f_i(x) into sum_r D_r z^r with no
    # z^n term: checked at a random x in the ring itself, where the earlier
    # relations hold, against the relation expanded by sympy.  For random
    # earlier rows, the shifted walk of the depressed pieces must find the
    # rows of the oracle's scan of the undepressed pieces, in order
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
            depressed, (scale, lift) = _depressed(
                ring, _stage_pieces(ring, ring, identity, i))
            assert scale == n + 1 and depressed[n + 1] == ring.one()
            assert n not in depressed
            x = ring.linear_class([rng.randint(-3, 3) for _ in range(m)])
            z = scale * x + ring.linear_class(lift)
            images = list(ring.gens()[:i - 1]) + [x]
            relation = image_of_terms(ring, images, sympy_relation(tower, i))
            assert sum((d * z**r for r, d in depressed.items()), ring.zero()) \
                == scale ** scale * relation, (tower, i)
            rows = [tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(i - 1)]
            pieces = _stage_pieces(ring, ring, rows, i)
            depressed, (scale, lift) = _depressed(ring, pieces)
            assert ring.linear_class(lift) == pieces[n]
            hits = list(_scan(ring, depressed, values, 0, (scale, lift)))
            assert hits == brute_force_scan(ring, pieces, n + 1, values), (tower, rows, i)
            walked[bool(hits)] += 1
    assert min(walked.values()) >= 5, walked


@pytest.mark.parametrize("t, tp, bound, scans, found", [
    (GEN, GEN_DUAL, 2, 3, True),
    (WALK, WALK.replace_stage(4, dualize_stage(WALK.stages[-1])), 2, 9, True),
    (WALK, bott_tower([[], [-1], [1, -2], [0, 1, 2]]), 2, 7, False),
    (bott_tower_3(2, 1, 1), bott_tower_3(-2, -1, 1), 4, 9, True),
])
def test_iso_search_walks_no_further_than_its_first_witness(
        t, tp, bound, scans, found, monkeypatch):
    # one walk per stage image the DFS reaches; a search with a witness
    # stops at it, and the counts pin the walk of the row-by-row search
    calls = []

    def counting_scan(*args):
        calls.append(args)
        return _scan(*args)

    monkeypatch.setattr(search, "_scan", counting_scan)
    witness = iso_search(build_ring(t), build_ring(tp), bound)
    assert len(calls) == scans
    assert (witness is not None) == found


def test_iso_search_shares_walks_between_stage_images(seed, monkeypatch):
    # Bott towers with zero entries have stages whose c_q skip earlier
    # generators, so DFS nodes whose prefixes differ only in skipped rows
    # share one walk.  The search must still agree with the oracle, and
    # start fewer walks than its DFS has nodes that scan: the root, plus a
    # child per candidate that keeps the minors gcd at 1, less the leaf of
    # a witness.  The oracle costs 3^m vectors per node, so pairs whose
    # DFS exceeds 60 nodes are not compared.
    walks, passes = [], []

    def counting_scan(*args):
        walks.append(args)
        return _scan(*args)

    def counting_minors_gcd(rows, ncols):
        g = minors_gcd(rows, ncols)
        passes.append(g == 1)
        return g

    monkeypatch.setattr(search, "_scan", counting_scan)
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
    assert fewer, "no pair shared a walk"


@pytest.mark.parametrize("modulus", [2, 3, 4, 8])
def test_square_zero_count_mod_matches_oracle(modulus):
    for tower in CENSUS_3 + HEIGHT_4:
        assert _square_zero_count_mod(tower, modulus) == \
            brute_force_square_zero_count(tower, modulus), (tower, modulus)


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
        t = draw(st.integers(0, k - 1))
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
    """Pieces {2: 1, 1: degree 1, 0: constant} of one shape, with different
    supports: some coefficients zero, a single monomial, full support, and
    a constant whose degree-3 term 4 y^mu lies outside every polynomial
    (the polynomials are those of degree 2): no vector solves it over Z,
    while over Z/4 and Z/2 the term vanishes and the walk goes on."""
    one, d1, d2, d3 = ring.one(), ring.basis(1), ring.basis(2), ring.basis(3)
    return [
        {2: one,
         1: ring.from_terms({d1[1]: 1}),
         0: ring.from_terms({d2[2]: -1, d3[0]: 4})},
        {2: one,
         1: ring.from_terms({e: -1 for e in d1[::2]}),
         0: ring.from_terms({e: 2 for e in d2[1::2]})},
        {2: one, 1: ring.from_terms({d1[0]: -1}), 0: ring.from_terms({d2[-1]: 3})},
        {2: one,
         1: ring.from_terms({e: i for i, e in enumerate(d1, 1)}),
         0: ring.from_terms({e: (-1) ** i for i, e in enumerate(d2)})},
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
    outside = hits[0 if order == 1 else -1]
    assert bool(outside) == (mod == 4), (mod, outside)


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
        # row 1 walks z^2 = 0 and every later row z^2 = c_1^2: the one
        # {2: 1} plan of the target ring
        assert list(target._scan_plans) == [((2, (0,)),)]
    # a 3-stage classification that reaches the search: the residue walks
    # of both rings and every row of the search share each ring's one plan
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
    assert [list(r._scan_plans) for r in rings] == [[((2, (0,)),)]] * 2


def test_equal_rings_do_not_share_scan_plans():
    r1, r2 = build_ring(hirzebruch(1)), build_ring(hirzebruch(1))
    assert r1 == r2 and r1 is not r2
    values = range(-2, 3)
    got = list(_scan(r1, {2: r1.one()}, values))
    assert r2._scan_plans == {}
    assert list(_scan(r2, {2: r2.one()}, values)) == got
    (p1,), (p2,) = r1._scan_plans.values(), r2._scan_plans.values()
    assert p1 is not p2


# -- minors gcd against every maximal minor ------------------------------------------


def test_minors_gcd_matches_oracle(rng):
    entries = [0, 1, -1, 2, -2, 3, -3, 6, -6]
    kinds = {"zero": 0, "one": 0, "other": 0}
    for _ in range(4000):
        m = rng.randint(1, 6)
        k = rng.randint(1, m)
        rows = [[rng.choice(entries) for _ in range(m)] for _ in range(k)]
        tweak = rng.randrange(4)
        if tweak == 1:  # a zero row
            rows[rng.randrange(k)] = [0] * m
        elif tweak == 2 and k > 1:  # a repeated row
            rows[rng.randrange(k)] = list(rows[rng.randrange(k)])
        elif tweak == 3 and k > 1:  # short rank: a combination of two rows
            i, j = rng.randrange(k), rng.randrange(k)
            a, b = rng.choice(entries), rng.choice(entries)
            rows[rng.randrange(k)] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
        rows = [tuple(r) for r in rows]
        g = minors_gcd(rows, m)
        assert g == brute_force_minors_gcd(rows, m), rows
        if k == m:
            assert g == abs(det_int([list(r) for r in rows])), rows
        kinds["zero" if g == 0 else "one" if g == 1 else "other"] += 1
    assert min(kinds.values()) > 100, kinds
    assert minors_gcd([], 3) == 1
