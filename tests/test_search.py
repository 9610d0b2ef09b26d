import random
from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bottcoh import (
    GF2,
    QQ,
    ZZ,
    ModularDomain,
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
from bottcoh.classify import _square_zero_count_mod
from bottcoh.linalg import clear_row, det_int, minors_gcd
from bottcoh.search import _scan, _stage_pieces

from .conftest import random_tower
from .oracles import (
    brute_force_iso_search,
    brute_force_minors_gcd,
    brute_force_scan,
    brute_force_square_zero_count,
    relation_split,
)

DOMAINS = [ZZ, QQ, GF2, ModularDomain(4)]

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
    # enumeration is over representative vectors; (-1, 0) and (1, 0) both
    # name the class y1 over Z/2
    r = build_ring(hirzebruch(1), GF2)
    found = square_zero_elements(r, 2, 1)
    assert len(found) == 2
    assert all(cls == r.gen(1) for cls in found)


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


def scan_parity(ring, pieces, tmax, bound):
    values = range(-bound, bound + 1)
    expected = brute_force_scan(ring, pieces, tmax, values)
    got = list(_scan(ring, pieces, tmax, values))
    assert got == expected, (ring, pieces, tmax, bound)
    return got


@pytest.mark.parametrize("domain", DOMAINS, ids=str)
@pytest.mark.parametrize("tower", RINGS, ids=lambda t: str(t.dims))
def test_scan_matches_oracle_on_powers(tower, domain):
    ring = build_ring(tower, domain)
    for k in (2, 3):
        for bound in (1, 2):
            scan_parity(ring, {k: ring.one()}, k, bound)


@pytest.mark.parametrize("domain", DOMAINS, ids=str)
def test_scan_matches_oracle_on_random_towers(domain, seed):
    rng = random.Random(seed)
    for _ in range(12):
        ring = build_ring(random_tower(rng, max_height=3, max_dim=2), domain)
        for k in (2, 3):
            scan_parity(ring, {k: ring.one()}, k, 2)


@pytest.mark.parametrize("domain", DOMAINS, ids=str)
def test_scan_bound_zero_is_empty(domain):
    ring = build_ring(bott_tower_3(1, -2, 3), domain)
    assert scan_parity(ring, {2: ring.one()}, 2, 0) == []


@pytest.mark.parametrize("domain", DOMAINS, ids=str)
def test_scan_vanishing_expression_hits_every_vector(domain):
    ring = build_ring(hirzebruch(1), domain)
    every = [v for v in iproduct(range(-2, 3), repeat=2) if any(v)]
    assert scan_parity(ring, {}, 0, 2) == every
    assert scan_parity(ring, {t: ring.zero() for t in range(3)}, 2, 2) == every
    # h^3 lands above the top degree, so it is zero for every h
    assert scan_parity(ring, {3: ring.one()}, 3, 2) == every


@pytest.mark.parametrize("domain", DOMAINS, ids=str)
def test_scan_matches_oracle_with_gaps_in_t(domain):
    ring = build_ring(bott_tower_3(1, -2, 3), domain)
    y1, y2, y3 = ring.gens()
    cases = [
        {2: ring.one(), 0: -(y1 * y2)},
        {3: ring.one(), 1: -(y1 * y2)},
        {2: y1, 0: y1 * y2 * y3},
        {3: y1, 1: y1 * y2 * y3},
        {4: ring.one(), 1: y1 * y2},
    ]
    for pieces in cases:
        scan_parity(ring, pieces, max(pieces), 2)
    # a nonzero constant polynomial, also behind a zero piece at the
    # highest key, rules out every vector
    for pieces in ({0: y1 * y3}, {0: y1 * y3, 3: ring.zero()}):
        assert scan_parity(ring, pieces, max(pieces), 2) == []


@pytest.mark.parametrize("domain", DOMAINS, ids=str)
def test_scan_rejects_at_the_first_coordinate(domain):
    # h y2 y3 = b1 y1 y2 y3 in (CP^1)^3: the only polynomial, b1 - 1,
    # involves b1 alone and is settled by the first coordinate
    ring = build_ring(product_tower((1, 1, 1)), domain)
    y1, y2, y3 = ring.gens()
    hits = scan_parity(ring, {1: y2 * y3, 0: -(y1 * y2 * y3)}, 1, 2)
    firsts = {v[0] for v in hits}
    assert firsts and firsts <= {-1, 1}
    # every completion b2, b3 of an accepted b1 is a hit
    assert len(hits) == 25 * len(firsts)


def test_scan_matches_oracle_with_rational_pieces():
    ring = build_ring(bott_tower_3(1, -2, 3), QQ)
    y1, y2, y3 = ring.gens()
    half, third = Fraction(1, 2), Fraction(1, 3)
    cases = [
        {2: ring.scalar(half), 0: -(y1 * y2) * half},
        {2: ring.scalar(third), 1: y1 * half, 0: y2 * y3 * third},
        {3: y1 * third, 1: y1 * y2 * y3 * half},
    ]
    hits = [scan_parity(ring, pieces, max(pieces), 2) for pieces in cases]
    assert any(hits)


@pytest.mark.parametrize("domain", [ZZ, GF2], ids=str)
def test_scan_matches_oracle_on_iso_search_stage_splits(domain):
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
        target, source = build_ring(t, domain), build_ring(tp, domain)
        m = target.height
        prefixes = [[]]
        for i in range(1, m + 1):
            extended = []
            for rows in prefixes:
                pieces = _stage_pieces(source, target, rows, i)
                hits = scan_parity(target, pieces, max(pieces), bound)
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
    monkeypatch.setattr(search, "_scan", brute_force_scan)
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


def search_parity(t, tp, bound, domain=ZZ):
    """iso_search and brute_force_iso_search agree on the pair; returns
    whether a witness was found."""
    got = iso_search(build_ring(t, domain), build_ring(tp, domain), bound)
    expected = brute_force_iso_search(build_ring(t, domain), build_ring(tp, domain), bound)
    assert (None if got is None else got.matrix) == expected, (t, tp, bound, domain)
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


def test_iso_search_matches_oracle_over_z2():
    pairs = [(t, tp) for t in HEIGHT_4 for tp in HEIGHT_4]
    pairs += [(CENSUS_3[i], CENSUS_3[j]) for i, j in
              [(0, 1), (10, 200), (57, 171), (100, 300), (171, 171), (342, 0)]]
    found = [search_parity(t, tp, 1, GF2) for t, tp in pairs]
    assert any(found) and not all(found)


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
        rows_next = list(_scan(target, pieces, max(pieces), values))
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


@pytest.mark.parametrize("domain", [ZZ, QQ, GF2, ModularDomain(3)], ids=str)
def test_stage_pieces_are_the_relation_split(domain, rng):
    # the c_q of the stage table give the pieces that splitting the
    # relation's terms by the exponent of y_i gives; a zero piece stands
    # where the split has no key
    towers = [GEN] + CENSUS_3 + [
        random_tower(rng, max_height=4, max_dim=3) for _ in range(30)]
    for tower in towers:
        ring = build_ring(tower, domain)
        m = ring.height
        for i in range(1, m + 1):
            rows = [tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(i - 1)]
            got = _stage_pieces(ring, ring, rows, i)
            expected = relation_split(ring, ring, rows, i)
            assert sorted(got) == list(range(1, ring.dims[i - 1] + 2))
            assert {t: p for t, p in got.items() if not p.is_zero()} == {
                t: p for t, p in expected.items() if not p.is_zero()
            }, (tower, domain, rows, i)
    if domain == ZZ:
        ring = build_ring(GEN)
        pieces = _stage_pieces(ring, ring, [(1, 0, 0)], 2)
        assert pieces[1].is_zero() and 1 not in relation_split(ring, ring, [(1, 0, 0)], 2)


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
    # DFS exceeds 60 nodes (exhaustive searches over Z/2) are not compared.
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
    compared = {(domain, found): 0 for domain in (ZZ, GF2) for found in (True, False)}
    fewer = 0
    for height in (4, 5):
        for domain in (ZZ, GF2):
            for _ in range(3):
                rows = [[rng.choice((0, 0, 1, -1)) for _ in range(k)] for k in range(height)]
                signs = [rng.choice((1, -1)) for _ in range(height)]
                twin = flip_signs(present_dual(rows, rng.randint(1, height - 2)), signs)
                other = [[rng.choice((0, 0, 1, -1)) for _ in range(k)] for k in range(height)]
                for partner in (twin, other):
                    walks.clear()
                    passes.clear()
                    t, tp = bott_tower(rows), bott_tower(partner)
                    found = iso_search(build_ring(t, domain), build_ring(tp, domain), 1) is not None
                    nodes = 1 + sum(passes) - found
                    assert len(walks) <= nodes
                    fewer += len(walks) < nodes
                    if nodes <= 60:
                        assert search_parity(t, tp, 1, domain) == found
                        compared[domain, found] += 1
    assert min(compared.values()) >= 1, compared
    assert fewer, "no pair shared a walk"


@pytest.mark.parametrize("modulus", [2, 3, 4, 8])
def test_square_zero_count_mod_matches_oracle(modulus):
    for tower in CENSUS_3 + HEIGHT_4:
        assert _square_zero_count_mod(tower, modulus) == \
            brute_force_square_zero_count(tower, modulus), (tower, modulus)


@pytest.mark.parametrize("modulus", [0, 1, -3, True, False, 2.0])
def test_square_zero_count_mod_rejects_bad_modulus(modulus):
    with pytest.raises(ModulusError):
        _square_zero_count_mod(hirzebruch(1), modulus)


def test_residue_scan_of_integer_ring_matches_modular_ring(seed):
    # the relations are monic over Z, so the normal form over Z/n is the
    # normal form over Z reduced mod n: scanning the ring over Z mod n
    # finds exactly what scanning the ring over Z/n finds
    rng = random.Random(seed)
    seeded = [random_tower(rng, max_height=4, max_dim=2, max_entry=3)
              for _ in range(12)]
    for tower in CENSUS_3 + HEIGHT_4 + seeded:
        ring = build_ring(tower, ZZ)
        for n in (2, 3, 4, 8):
            ring_n = build_ring(tower, ModularDomain(n))
            for k in (2, 3):
                assert list(_scan(ring, {k: ring.one()}, k, range(n), n)) == \
                    list(_scan(ring_n, {k: ring_n.one()}, k, range(n))), (tower, n, k)


@st.composite
def scan_cases(draw):
    """A random tower of height 1 to 4 with fibers <= 2, a domain, the
    pieces {k: 1} with an optional lower piece that keeps the expression
    homogeneous, and a bounded or (over Z/n) residue box."""
    stages = []
    for i in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 2))
        stages.append((n, [[draw(st.integers(-2, 2)) for _ in range(i)]
                           for _ in range(n)]))
    domain = draw(st.sampled_from(
        [ZZ, QQ, GF2, ModularDomain(3), ModularDomain(4)]))
    ring = build_ring(validate_tower(stages), domain)
    k = draw(st.integers(2, 3))
    pieces = {k: ring.one()}
    if draw(st.booleans()):
        t = draw(st.integers(0, k - 1))
        basis = ring.basis(k - t)
        if basis:
            scale = Fraction(1, draw(st.integers(1, 3))) if domain == QQ else 1
            pieces[t] = ring.from_terms(
                {e: draw(st.integers(-2, 2)) * scale for e in basis})
    if domain.modulus is not None and draw(st.booleans()):
        values = range(domain.modulus)
    else:
        bound = draw(st.integers(0, 1 if ring.height == 4 else 2))
        values = range(-bound, bound + 1)
    return ring, pieces, k, values


@settings(max_examples=120, deadline=None)
@given(scan_cases())
def test_scan_matches_oracle_property(case):
    ring, pieces, tmax, values = case
    assert list(_scan(ring, pieces, tmax, values)) == \
        brute_force_scan(ring, pieces, tmax, values)


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
    ring, ring_prime = build_ring(t, ZZ), build_ring(tp, ZZ)
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
    """Pieces {2: 1, 1: degree 1, 0: degree 2} of one shape, with different
    supports: some coefficients zero, a single monomial, full support."""
    one, d1, d2 = ring.one(), ring.basis(1), ring.basis(2)
    scale = Fraction(1, 2) if ring.domain == QQ else 1
    return [
        {2: one,
         1: ring.from_terms({e: -1 for e in d1[::2]}),
         0: ring.from_terms({e: 2 * scale for e in d2[1::2]})},
        {2: one, 1: ring.from_terms({d1[0]: -1}), 0: ring.from_terms({d2[-1]: 3})},
        {2: one,
         1: ring.from_terms({e: i for i, e in enumerate(d1, 1)}),
         0: ring.from_terms({e: (-1) ** i * scale for i, e in enumerate(d2)})},
    ]


@pytest.mark.parametrize("domain", [ZZ, QQ, ModularDomain(4)], ids=str)
@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reverse"])
def test_scan_plan_compiled_once_per_shape(domain, order):
    ring = build_ring(bott_tower_3(1, -2, 3), domain)
    values = range(-2, 3)
    plan = None
    hits = []
    for pieces in shaped_pieces(ring)[::order]:
        got = list(_scan(ring, pieces, 2, values))
        assert got == brute_force_scan(ring, pieces, 2, values), pieces
        hits.append(got)
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
    ring = build_ring(tower, ZZ)
    walks = [(None, range(-2, 3))] + [(n, range(n)) for n in (2, 3, 4, 8)]
    for shaped in ([{2: ring.one()}], shaped_pieces(ring)):
        for n, values in walks[::order]:
            for pieces in shaped:
                got = list(_scan(ring, pieces, 2, values, n))
                if n is None:
                    expected = brute_force_scan(ring, pieces, 2, values)
                else:
                    ring_n = build_ring(tower, ModularDomain(n))
                    expected = brute_force_scan(
                        ring_n,
                        {t: ring_n.from_terms(dict(p.items())) for t, p in pieces.items()},
                        2, values)
                assert got == expected, (n, pieces)
    assert len(ring._scan_plans) == 2


def test_iso_search_compiles_one_plan_per_stage_shape():
    t = validate_tower([(1, []), (1, [[1]]), (1, [[-1, 2]]), (1, [[0, 1, -2]]),
                        (1, [[2, -1, 0, 1]])])
    tp = validate_tower([(1, []), (1, [[-1]]), (1, [[1, -2]]), (1, [[0, 1, 2]]),
                         (1, [[1, -1, 2, 0]])])
    for source in (t, tp):
        target = build_ring(t)
        iso_search(target, build_ring(source), 1)
        # stage 1 has pieces {2: 1}, later stages {2: 1, 1: degree 1}
        assert 1 <= len(target._scan_plans) <= 2


def test_equal_rings_do_not_share_scan_plans():
    r1, r2 = build_ring(hirzebruch(1)), build_ring(hirzebruch(1))
    assert r1 == r2 and r1 is not r2
    values = range(-2, 3)
    got = list(_scan(r1, {2: r1.one()}, 2, values))
    assert r2._scan_plans == {}
    assert list(_scan(r2, {2: r2.one()}, 2, values)) == got
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
