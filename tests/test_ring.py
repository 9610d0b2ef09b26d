from fractions import Fraction
from itertools import product as iproduct
from operator import le

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bottcoh import (
    BottRing,
    DomainMismatchError,
    IsoWitness,
    RingMismatchError,
    UnverifiedMapError,
    apply_map,
    bott_tower_3,
    build_ring,
    dualize_stage,
    graded_rank,
    hirzebruch,
    integrate,
    iso_search,
    multiply,
    normal_form,
    power,
    product_tower,
    validate_tower,
    verify_map,
)
from bottcoh.linalg import det_int
from bottcoh.ring import image_of_terms

from .conftest import mod_label, random_tower
from .oracles import (
    class_terms,
    expanded_relation_failure,
    random_order_reduce,
    sympy_normal_form,
    sympy_relation,
)


def test_relations_hirzebruch():
    r = build_ring(hirzebruch(5))
    assert r.relation_terms(1) == {(2, 0): 1}
    assert r.relation_terms(2) == {(0, 2): 1, (1, 1): 5}


def test_relations_product():
    r = build_ring(product_tower((1, 1)))
    assert r.relation_terms(1) == {(2, 0): 1}
    assert r.relation_terms(2) == {(0, 2): 1}


def test_relations_bott3():
    r = build_ring(bott_tower_3(2, 3, -1))
    assert r.relation_terms(2) == {(0, 2, 0): 1, (1, 1, 0): 2}
    assert r.relation_terms(3) == {(0, 0, 2): 1, (1, 0, 1): 3, (0, 1, 1): -1}


def test_relations_generalized_elementary_symmetric():
    # stage with summands gamma^1 and gamma^3 over CP^1: c_1 = 4 y_1,
    # c_2 = 3 y_1^2, which dies in the base ring since y_1^2 = 0
    r = build_ring(validate_tower([(1, []), (2, [[1], [3]])]))
    assert r.chern[1][0] == {(1, 0): 4}
    assert r.chern[1][1] == {}


def test_relation_terms_are_the_reduced_root_product(rng):
    # f_i minus y_i prod_rows (y_i + row . y) reduces to zero, and every term
    # but the leading one is a basis monomial: together these pin the unique
    # reduced relation, dropping the vanishing c_2 = 3 y_1^2 of stage 2 here
    pinned = validate_tower([(1, []), (2, [[1], [3]]), (1, [[2, -1]])])
    assert build_ring(pinned).relation_terms(2) == {(0, 3, 0): 1, (1, 2, 0): 4}
    for tower in [pinned] + [random_tower(rng) for _ in range(12)]:
        ring = build_ring(tower)
        gf3 = build_ring(tower, 3)
        for i, n in enumerate(tower.dims, start=1):
            terms = ring.relation_terms(i)
            lead = tuple(n + 1 if j == i - 1 else 0 for j in range(tower.height))
            assert terms.pop(lead) == 1
            assert all(c and all(map(le, e, tower.dims)) for e, c in terms.items())
            diff = {lead: 1, **terms}
            for e, c in sympy_relation(tower, i).items():
                diff[e] = diff.get(e, 0) - c
            assert sympy_normal_form(tower, diff) == {}, (tower, i)
            reduced = {e: c % 3 for e, c in terms.items() if c % 3}
            assert gf3.relation_terms(i) == {lead: 1, **reduced}


def test_zero_roots_cost_no_products(rng, monkeypatch):
    # a zero root adds nothing to any c_q, so a product tower's stage table
    # takes no ring product and a stage with r nonzero roots takes the
    # r(r - 1)/2 of the recurrence over those alone; the relations of
    # towers that mix zero and nonzero rows still match sympy's, over Z/2
    # too, where a row of even entries is a zero root
    raw_mul = BottRing._raw_mul
    calls = []

    def counting_mul(ring, a, b):
        calls.append(ring)
        return raw_mul(ring, a, b)

    monkeypatch.setattr(BottRing, "_raw_mul", counting_mul)
    cp = build_ring(product_tower((4095,)))
    build_ring(product_tower((3, 1, 2)))
    assert calls == []
    assert cp.chern == (({},) * 4095,)
    assert cp.relation_terms(1) == {(4096,): 1}
    for _ in range(12):
        stages = [
            (n, [[rng.randint(-3, 3) for _ in range(i)] if rng.random() < 0.5
                 else [0] * i for _ in range(n)])
            for i, n in enumerate(rng.randint(1, 3) for _ in range(rng.randint(2, 4)))
        ]
        tower = validate_tower(stages)
        calls.clear()
        ring = build_ring(tower)
        assert len(calls) == sum(
            r * (r - 1) // 2
            for r in (sum(map(any, rows)) for _, rows in stages)
        ), tower
        gf2 = build_ring(tower, 2)
        for i, n in enumerate(tower.dims, start=1):
            terms = ring.relation_terms(i)
            diff = dict(terms)
            for e, c in sympy_relation(tower, i).items():
                diff[e] = diff.get(e, 0) - c
            assert sympy_normal_form(tower, diff) == {}, (tower, i)
            assert len(ring.chern[i - 1]) == n
            assert gf2.relation_terms(i) == {e: c % 2 for e, c in terms.items() if c % 2}


@pytest.mark.parametrize("mod", [0, 2], ids=mod_label)
def test_stage_roots_split_the_relation(mod, rng):
    # trivial root first, then the rows as classes (equality of classes
    # means no zero coefficient is stored), and f_i = prod_u (y_i + u)
    # over them vanishes in the ring
    for _ in range(12):
        tower = random_tower(rng, max_height=3)
        ring = build_ring(tower, mod)
        for i, stage in enumerate(tower.stages, start=1):
            pad = (0,) * (tower.height - i + 1)
            roots = ring.stage_roots(i)
            assert roots == [ring.zero()] + [
                ring.linear_class(row + pad) for row in stage.summand_exponents
            ]
            product = ring.one()
            for u in roots:
                product = product * (ring.gen(i) + u)
            assert product.is_zero(), (tower, i)


def test_normal_form_examples():
    r = build_ring(hirzebruch(1))
    y1, y2 = r.gens()
    assert y2 * y2 == -(y1 * y2)
    assert (y1 ** 2).is_zero()
    r3 = build_ring(bott_tower_3(0, 1, 1))
    z1, z2, z3 = r3.gens()
    assert z3 * z3 == -(z1 * z3) - (z2 * z3)


def test_normal_form_accepts_out_of_bound_exponents():
    r = build_ring(hirzebruch(2))
    cls = normal_form(r, {(0, 3): 1})
    # y2^3 = (-2 y1 y2) y2 = -2 y1 y2^2 = 4 y1^2 y2 = 0
    assert cls.is_zero()
    assert class_terms(cls) == sympy_normal_form(r.tower, {(0, 3): 1})


@pytest.mark.parametrize("mod", [0, 2], ids=mod_label)
def test_normal_form_of_a_huge_exponent(mod):
    # __pow__ reduces after every squaring, so it never sees an exponent
    # above the top degree; from_terms reduces y2^1500 in one go
    r = build_ring(hirzebruch(1), mod)
    assert r.from_terms({(0, 1500): 1}) == r.gen(2) ** 1500


@pytest.mark.parametrize("mod", [0, 2], ids=mod_label)
def test_normal_form_of_a_chain_longer_than_the_recursion_limit(mod):
    # y_k^2 = -y_{k-1} y_k at every stage: y_50^50 reaches the top class
    # through 49 + 48 + ... + 1 = 1225 single rewriting steps
    m = 50
    tower = validate_tower(
        [(1, [])] + [(1, [[0] * (k - 2) + [1]]) for k in range(2, m + 1)]
    )
    r = build_ring(tower, mod)
    got = r.from_terms({(0,) * (m - 1) + (m,): 1})
    assert got == r.gen(m) ** m == -r.from_terms({(1,) * m: 1})


def test_normal_form_of_high_exponents_matches_sympy_oracle():
    tower = validate_tower([(1, []), (2, [[1], [-2]]), (1, [[2, -1]])])
    terms = {(0, 0, 40): 1, (1, 37, 3): -2, (0, 2, 1): 3, (1, 1, 1): 5}
    ring = build_ring(tower)
    assert class_terms(ring.from_terms(terms)) == sympy_normal_form(tower, terms)


def test_multiply_examples():
    r = build_ring(hirzebruch(1))
    y1, y2 = r.gens()
    assert multiply(r, r.one(), y1 + 2 * y2) == y1 + 2 * y2
    assert multiply(r, y2, y2) == -(y1 * y2)
    assert multiply(r, y1 + 2 * y2, y1 + 2 * y2).is_zero()


def test_multiply_ring_mismatch():
    r1 = build_ring(hirzebruch(1))
    r2 = build_ring(hirzebruch(2))
    with pytest.raises(RingMismatchError):
        multiply(r1, r1.one(), r2.one())


def test_power_examples():
    r = build_ring(hirzebruch(2))
    y1, y2 = r.gens()
    assert power(r, y1, 2).is_zero()
    assert power(r, y1 + y2, 2).is_zero()
    assert power(r, y1, 0) == r.one()
    # c(2b - ac) = 0 makes (b y1 + c y2 + 2 y3)^2 vanish
    for (a, b, c) in [(1, 2, 0), (2, 1, 1), (0, 0, -3)]:
        assert c * (2 * b - a * c) == 0
        r3 = build_ring(bott_tower_3(a, b, c))
        x = r3.linear_class((b, c, 2))
        assert power(r3, x, 2).is_zero()


@pytest.mark.parametrize("mod", [0, 3], ids=mod_label)
def test_power_starts_from_the_first_factor(mod, rng, monkeypatch):
    # x ** k squares k.bit_length() - 1 times and multiplies the squares
    # popcount(k) - 1 times; it never multiplies by one
    raw_mul = BottRing._raw_mul
    calls = []

    def counting_mul(ring, a, b):
        calls.append(ring)
        return raw_mul(ring, a, b)

    for _ in range(12):
        ring = build_ring(random_tower(rng), mod)
        terms = {e: rng.randint(-2, 2) for d in range(ring.top_degree + 1)
                 for e in ring.basis(d) if rng.random() < 0.5}
        x = ring.from_terms(terms)
        powers = [ring.one()]
        for _ in range(6):
            powers.append(powers[-1] * x)
        monkeypatch.setattr(BottRing, "_raw_mul", counting_mul)
        for k, expected in enumerate(powers):
            calls.clear()
            got = x ** k
            assert len(calls) == (k.bit_length() + bin(k).count("1") - 2 if k else 0)
            assert got == expected, (ring.tower, terms, k)
        monkeypatch.undo()


@pytest.mark.parametrize("tower, i, products", [
    (bott_tower_3(1, -2, 3), 3, 3),  # y3^2 - 2 y1 y3 + 3 y2 y3
    (validate_tower([(1, []), (2, [[1], [3]])]), 2, 3),  # y2^3 + 4 y1 y2^2
])
def test_image_of_terms_starts_power_chains_at_the_image(tower, i, products,
                                                         monkeypatch):
    # images[j] is already in normal form, so only powers above the first
    # and products of several variables cost a ring product
    raw_mul = BottRing._raw_mul
    calls = []

    def counting_mul(ring, a, b):
        calls.append(ring)
        return raw_mul(ring, a, b)

    ring = build_ring(tower)
    images = [ring.linear_class([j + 1, -1, 2][:ring.height]) for j in range(ring.height)]
    cases = [({e: 1 for e in ring.basis(1)}, 0), (ring.relation_terms(i), products)]
    for terms, expected_calls in cases:
        expected = ring.zero()
        for e, c in terms.items():
            term = ring.scalar(c)
            for image, k in zip(images, e):
                term = term * image ** k
            expected = expected + term
        monkeypatch.setattr(BottRing, "_raw_mul", counting_mul)
        calls.clear()
        got = image_of_terms(ring, images, terms)
        monkeypatch.undo()
        assert len(calls) == expected_calls, terms
        assert got == expected


def test_graded_rank_examples():
    assert graded_rank(build_ring(product_tower((1, 1, 1))), 1) == 3
    r = build_ring(validate_tower([(1, []), (2, [[1], [3]])]))
    assert graded_rank(r, 2) == 2
    assert graded_rank(r, r.top_degree) == 1
    assert graded_rank(r, r.top_degree + 1) == 0


def test_graded_rank_matches_basis_count(rng):
    for _ in range(20):
        r = build_ring(random_tower(rng))
        monomials = sorted(iproduct(*(range(n + 1) for n in r.dims)))
        for d in range(-1, r.top_degree + 2):
            assert r.graded_rank(d) == len(r.basis(d))
            assert list(r.basis(d)) == [e for e in monomials if sum(e) == d]


def test_integrate_examples():
    r = build_ring(hirzebruch(4))
    y1, y2 = r.gens()
    assert integrate(r, y1 * y2) == 1
    assert integrate(r, y2 * y2) == -4
    assert integrate(r, r.one()) == 0


def test_rational_and_modular_domains():
    # there is no ring over Q: a rational scalar is refused by every ring
    # (so is a string, or a bool), and a ring over Z/2 reduces its relations
    for r in (build_ring(hirzebruch(1)), build_ring(hirzebruch(1), 2)):
        y2 = r.gen(2)
        for bad in (Fraction(1, 2), Fraction(2), "3", True):
            for call in (r.scalar, lambda c: r.from_terms({(1, 1): c}),
                         lambda c: r.linear_class([c, 0]), lambda c: y2 * c):
                with pytest.raises(DomainMismatchError):
                    call(bad)
        assert r.one() == 1 and r.one() != Fraction(1)
        # an exponent is an int, never truncated, parsed or read as a bool
        for e in ((1.7, 0), ("1", 0), (True, 0), (1, False), (1.0, 0)):
            with pytest.raises(ValueError, match="bad exponent vector"):
                r.from_terms({e: 1})
        with pytest.raises(IndexError):
            r.gen(True)
    r2 = build_ring(hirzebruch(3), 2)
    z1, z2 = r2.gens()
    assert z2 * z2 == z1 * z2  # -3 = 1 mod 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_modular_arithmetic_is_integer_arithmetic_reduced(n, rng):
    # over Z/n a monomial's normal form is an integer combination, reduced
    # only where a class is produced: normal forms, products and powers
    # must equal those over Z reduced mod n
    def reduced(cls):
        return {e: c % n for e, c in cls.items() if c % n}

    for _ in range(8):
        tower = random_tower(rng, max_height=4, max_dim=3, max_entry=3)
        rz, rn = build_ring(tower), build_ring(tower, n)

        def rand_terms():
            return {
                tuple(rng.randint(0, k + 1) for k in tower.dims): rng.randint(-5, 5)
                for _ in range(4)
            }

        a, b = rand_terms(), rand_terms()
        u, v = rz.from_terms(a), rz.from_terms(b)
        un, vn = rn.from_terms(a), rn.from_terms(b)
        assert dict(un.items()) == reduced(u), (tower, a)
        assert dict((un * vn).items()) == reduced(u * v), (tower, a, b)
        for k in range(6):
            assert dict((un ** k).items()) == reduced(u ** k), (tower, a, k)


def test_class_serialization_graded_lex():
    r = build_ring(hirzebruch(1))
    y1, y2 = r.gens()
    obj = (r.one() + 3 * y2 + y1 * y2).to_obj()
    assert obj == [
        {"exponents": [0, 0], "coeff": "1"},
        {"exponents": [0, 1], "coeff": "3"},
        {"exponents": [1, 1], "coeff": "1"},
    ]


# -- ring maps ---------------------------------------------------------------


def test_verify_map_zero_matrix_on_product():
    r = build_ring(product_tower((1, 2)))
    rm = verify_map(r, r, [[0, 0], [0, 0]])
    assert rm is not None and rm.verified
    assert not rm.is_isomorphism
    assert rm.determinant == 0


def test_verify_map_hirzebruch_witness():
    # lexicographically-first witness found by exhaustive bound-3 search
    src = build_ring(hirzebruch(3))
    tgt = build_ring(hirzebruch(1))
    rm = verify_map(src, tgt, [[-1, -2], [1, 3]])
    assert rm is not None and rm.is_isomorphism
    assert rm.determinant == -1
    witness = IsoWitness(rm)
    assert witness.matrix == ((-1, -2), (1, 3))


def test_verify_map_parity_obstruction_exhaustive():
    src = build_ring(hirzebruch(2))
    tgt = build_ring(hirzebruch(1))
    found = []
    for m11 in range(-2, 3):
        for m12 in range(-2, 3):
            for m21 in range(-2, 3):
                for m22 in range(-2, 3):
                    mat = [[m11, m12], [m21, m22]]
                    if abs(det_int(mat)) != 1:
                        continue
                    rm = verify_map(src, tgt, mat)
                    if rm is not None:
                        found.append(mat)
    assert found == []


def test_verify_map_root_products_match_the_expanded_relations(rng):
    # verify_map multiplies each stage's root factors; the oracle maps every
    # term of each relation.  Search witnesses, the same with one entry
    # changed and random matrices, on seeded towers of height 2 to 4 with
    # fibers 1 to 3 and some zero summand rows, over Z, Z/2, Z/3 and Z/4
    seen = {"verified": 0, "rejected": 0, "failed_before_last": 0, "witnesses": 0}
    for _ in range(40):
        m = rng.randint(2, 4)
        dims = [rng.randint(1, 3) for _ in range(m)]

        def row(i):
            if rng.random() < 0.25:
                return [0] * i
            return [rng.randint(-2, 2) for _ in range(i)]

        t = validate_tower([(n, [row(i) for _ in range(n)]) for i, n in enumerate(dims)])
        tp = t.replace_stage(m, dualize_stage(t.stages[-1])) if rng.random() < 0.7 else t
        matrices = []
        witness = iso_search(build_ring(t), build_ring(tp), 1)
        if witness is not None:
            seen["witnesses"] += 1
            bent = [list(r) for r in witness.matrix]
            bent[rng.randrange(m)][rng.randrange(m)] += rng.choice([-1, 1])
            matrices += [witness.matrix, bent]
        matrices += [[[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)]
                     for _ in range(3)]
        for mod in (0, 2, 3, 4):
            source, target = build_ring(tp, mod), build_ring(t, mod)
            for mat in matrices:
                failed = expanded_relation_failure(source, target, mat)
                assert (verify_map(source, target, mat) is None) == (failed is not None), \
                    (t, tp, mat, mod)
                seen["rejected" if failed else "verified"] += 1
                seen["failed_before_last"] += failed is not None and failed < m
    assert min(seen.values()) >= 20, seen


def test_verify_map_returns_at_the_first_failing_stage():
    # stage 1 fails; stage 2's relation then maps to zero term by term,
    # while its root product does not: the two checks agree only once the
    # stages below map to zero, and both reject the matrix at stage 1
    ring = build_ring(validate_tower([(1, []), (2, [[2], [-1]])]))
    matrix = [[1, -1], [-1, 0]]
    assert expanded_relation_failure(ring, ring, matrix) == 1
    images = [ring.linear_class(row) for row in matrix]
    assert image_of_terms(ring, images, ring.relation_terms(2)).is_zero()
    y1, y2 = images
    assert not (y2 * (y2 + 2 * y1) * (y2 - y1)).is_zero()
    assert verify_map(ring, ring, matrix) is None


def test_apply_map_identity():
    r = build_ring(bott_tower_3(1, 2, 3))
    rm = verify_map(r, r, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    x = r.from_terms({(1, 1, 0): 5, (0, 0, 1): -2})
    assert apply_map(rm, x) == x


def test_apply_map_hirzebruch_example():
    src = build_ring(hirzebruch(3))
    tgt = build_ring(hirzebruch(1))
    rm = verify_map(src, tgt, [[1, 2], [-1, -3]])
    assert rm is not None
    x = src.gen(1)
    image = apply_map(rm, x)
    t1, t2 = tgt.gens()
    assert image == t1 + 2 * t2
    assert (image * image).is_zero()


def test_apply_map_twist_relation_image():
    a, b, c = 2, -1, 3
    src = build_ring(bott_tower_3(a, -b, -c))
    tgt = build_ring(bott_tower_3(a, b, c))
    rm = verify_map(src, tgt, [[1, 0, 0], [0, 1, 0], [b, c, 1]])
    assert rm is not None and rm.is_isomorphism


def test_apply_map_requires_verified():
    r = build_ring(hirzebruch(1))
    from bottcoh.ring import RingMap

    rm = RingMap(r, r, ((1, 0), (0, 1)), verified=False)
    with pytest.raises(UnverifiedMapError):
        apply_map(rm, r.one())


def test_verify_map_domain_mismatch():
    with pytest.raises(DomainMismatchError):
        verify_map(build_ring(hirzebruch(1)), build_ring(hirzebruch(1), 2), [[1, 0], [0, 1]])


@pytest.mark.parametrize("entry", [0.4, True, Fraction(1, 2)], ids=repr)
def test_verify_map_rejects_non_integer_entries(entry):
    # int(v) would truncate -0.6 and 0.4 to 0 and verify ((0, 0), (1, 0))
    src, tgt = build_ring(hirzebruch(3)), build_ring(hirzebruch(1))
    with pytest.raises(ValueError):
        verify_map(src, tgt, [[-0.6, 0.4], [1.4, -0.6]])
    with pytest.raises(ValueError):
        verify_map(src, tgt, [[entry, 0], [1, 0]])
    assert verify_map(src, tgt, [[0, 0], [1, 0]]) is not None


def test_non_square_verified_map_has_no_determinant():
    rm = verify_map(build_ring(product_tower((1,))), build_ring(hirzebruch(1)), [[1, 0]])
    assert rm is not None and rm.verified and not rm.is_isomorphism
    assert rm.determinant is None
    assert rm.to_obj() == {"matrix": [[1, 0]], "det": None,
                           "source_dims": [1], "target_dims": [1, 1]}


def test_unimodular_map_is_bijective_per_degree(rng):
    # the matrix of a verified unimodular map on each graded piece is itself
    # unimodular
    src = build_ring(bott_tower_3(1, -2, 2))
    tgt = build_ring(bott_tower_3(1, 2, -2))
    rm = verify_map(src, tgt, [[1, 0, 0], [0, 1, 0], [2, -2, 1]])
    assert rm is not None and rm.is_isomorphism
    for d in range(src.top_degree + 1):
        rows = []
        tgt_basis = tgt.basis(d)
        for e in src.basis(d):
            image = apply_map(rm, src.from_terms({e: 1}))
            rows.append([int(image.coefficient(g)) for g in tgt_basis])
        assert abs(det_int(rows)) == 1


# -- properties ----------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_normal_form_confluent_random_orders(data):
    import random

    tower_seed = data.draw(st.integers(0, 10**6))
    rng = random.Random(tower_seed)
    tower = random_tower(rng, max_height=3, max_dim=3, max_entry=2)
    ring = build_ring(tower)
    terms = {}
    for _ in range(data.draw(st.integers(1, 4))):
        e = tuple(rng.randint(0, 2 * n) for n in ring.dims)
        terms[e] = terms.get(e, 0) + rng.randint(-4, 4)
    engine = class_terms(ring.from_terms(terms))
    alt = random_order_reduce(ring, terms, rng)
    assert engine == alt


def test_normal_form_matches_sympy_oracle(rng):
    for _ in range(12):
        tower = random_tower(rng, max_height=3, max_dim=3, max_entry=2)
        ring = build_ring(tower)
        terms = {}
        for _ in range(3):
            e = tuple(rng.randint(0, 2 * n) for n in ring.dims)
            terms[e] = terms.get(e, 0) + rng.randint(-4, 4)
        assert class_terms(ring.from_terms(terms)) == sympy_normal_form(tower, terms)


def test_normal_form_idempotent(rng):
    for _ in range(15):
        ring = build_ring(random_tower(rng, max_height=3))
        terms = {
            tuple(rng.randint(0, 2 * n) for n in ring.dims): rng.randint(-5, 5)
            for _ in range(4)
        }
        cls = ring.from_terms(terms)
        assert ring.from_terms(dict(cls.items())) == cls


def test_multiply_commutative_associative(rng):
    for _ in range(10):
        ring = build_ring(random_tower(rng, max_height=3, max_dim=3, max_entry=2))

        def rand_class():
            return ring.from_terms(
                {
                    tuple(rng.randint(0, n) for n in ring.dims): rng.randint(-3, 3)
                    for _ in range(3)
                }
            )

        u, v, w = rand_class(), rand_class(), rand_class()
        assert u * v == v * u
        assert (u * v) * w == u * (v * w)


def test_poincare_pairing_unimodular(rng):
    for _ in range(6):
        ring = build_ring(random_tower(rng, max_height=3, max_dim=3, max_entry=2))
        top = ring.top_degree
        for d in range(top + 1):
            rows = []
            for e in ring.basis(d):
                u = ring.from_terms({e: 1})
                rows.append(
                    [
                        int(ring.integrate(u * ring.from_terms({g: 1})))
                        for g in ring.basis(top - d)
                    ]
                )
            assert abs(det_int(rows)) == 1


def test_power_nonvanishing_lemma(rng):
    # x = sum b_j y_j with every b_j nonzero has x^{n_j} != 0 for each j
    for _ in range(10):
        ring = build_ring(random_tower(rng, max_height=3, max_dim=3, max_entry=2))
        coeffs = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in ring.dims]
        x = ring.linear_class(coeffs)
        for n in ring.dims:
            assert not (x**n).is_zero()
