from itertools import product as iproduct
from math import comb

import pytest

from bottcoh import (
    DomainMismatchError,
    bott_tower_3,
    build_ring,
    char_class_report,
    charclasses,
    hirzebruch,
    p1_b3,
    product_tower,
    sq_component,
    steenrod_square,
    stiefel_whitney,
    tangent_chern,
    tangent_pontrjagin,
    validate_tower,
    verify_map,
    verify_pontrjagin_preservation,
    wu_classes,
)
from bottcoh.linalg import solve_mod
from bottcoh.ring import BottRing, IsoWitness

from .conftest import small_tower_corpus
from .oracles import (
    brute_force_wu_classes,
    class_terms,
    gauss_solve_mod,
    root_by_root_tangent_classes,
    sympy_normal_form,
    sympy_tangent_classes,
)


def test_tangent_chern_cp2():
    cp2 = product_tower((2,))
    c = tangent_chern(cp2)
    r = c.ring
    assert c == r.from_terms({(0,): 1, (1,): 3, (2,): 3})


def test_tangent_chern_hirzebruch_matches_oracle():
    for a in (-2, 0, 1, 3):
        t = hirzebruch(a)
        c = tangent_chern(t)
        # oracle: expand (1+y1)^2 (1+y2) (1+y2+a y1) by dict convolution,
        # then reduce with sympy
        poly = {(0, 0): 1}

        def mul(p, q):
            out = {}
            for ea, ca in p.items():
                for eb, cb in q.items():
                    e = (ea[0] + eb[0], ea[1] + eb[1])
                    out[e] = out.get(e, 0) + ca * cb
            return out

        one_y1 = {(0, 0): 1, (1, 0): 1}
        poly = mul(poly, one_y1)
        poly = mul(poly, one_y1)
        poly = mul(poly, {(0, 0): 1, (0, 1): 1})
        poly = mul(poly, {(0, 0): 1, (0, 1): 1, (1, 0): a})
        assert class_terms(c) == sympy_normal_form(t, poly)


def test_tangent_chern_product_11():
    t = product_tower((1, 1))
    c = tangent_chern(t)
    r = c.ring
    assert c == r.from_terms({(0, 0): 1, (1, 0): 2, (0, 1): 2, (1, 1): 4})


def test_tangent_pontrjagin_two_stage_bott_is_one():
    for a in range(-4, 5):
        p = tangent_pontrjagin(hirzebruch(a))
        assert p == p.ring.one()


def test_tangent_pontrjagin_bott3():
    for (a, b, c) in [(0, 1, 1), (1, 1, 1), (2, -1, 3), (0, 0, 0)]:
        p = tangent_pontrjagin(bott_tower_3(a, b, c))
        r = p.ring
        expected = r.from_terms({(0, 0, 0): 1, (1, 1, 0): c * (2 * b - a * c)})
        assert p == expected


def test_tangent_pontrjagin_product_111():
    p = tangent_pontrjagin(product_tower((1, 1, 1)))
    assert p == p.ring.one()


def test_p1_b3_examples():
    r = p1_b3(0, 1, 1).ring
    assert p1_b3(0, 1, 1) == r.from_terms({(1, 1, 0): 2})
    assert class_terms(p1_b3(1, 1, 1)) == {(1, 1, 0): 1}
    assert p1_b3(3, -2, 0).is_zero()


def test_p1_closed_form_matches_product_route():
    for a in range(-3, 4):
        for b in range(-2, 3):
            for c in range(-2, 3):
                p = tangent_pontrjagin(bott_tower_3(a, b, c))
                assert class_terms(p.homogeneous_part(2)) == class_terms(
                    p1_b3(a, b, c)
                )
                assert all(d <= 2 for d in p.degrees())


def seeded_tangent_towers(rng):
    """The census a, b, c in [-3, 3], then one generalized tower per fiber
    shape of height 1 to 5 and fibers <= 3, with summand entries in
    [-3, 3]."""
    for a, b, c in iproduct(range(-3, 4), repeat=3):
        yield bott_tower_3(a, b, c)
    for height in range(1, 6):
        for dims in iproduct(range(1, 4), repeat=height):
            yield validate_tower([
                (n, [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)])
                for k, n in enumerate(dims)
            ])


def test_tangent_classes_match_root_by_root_oracle(rng):
    towers = 0
    for tower in seeded_tangent_towers(rng):
        ring = build_ring(tower)
        chern, pontrjagin = root_by_root_tangent_classes(ring)
        assert tangent_chern(tower, ring) == chern, tower
        assert tangent_pontrjagin(tower, ring) == pontrjagin, tower
        towers += 1
    assert towers == 343 + 363


def test_tangent_classes_match_sympy_oracle(rng):
    towers = [t for t in seeded_tangent_towers(rng) if t.total_complex_dim() <= 4]
    for tower in rng.sample(towers, 6):
        chern, pontrjagin = sympy_tangent_classes(tower)
        assert class_terms(tangent_chern(tower)) == chern, tower
        assert class_terms(tangent_pontrjagin(tower)) == pontrjagin, tower


def test_tangent_classes_with_a_vanishing_middle_chern_class(rng):
    # stage 2 has c_1 = 3 y_1, c_2 = 0 and c_3 = -4 y_1^3: the stacked
    # class of the Chern product skips the zero layer, and the y_2-exponent
    # of its product must still give back each q
    tower = validate_tower([(3, []), (3, [[2], [2], [-1]])])
    ring = build_ring(tower)
    assert ring.chern[1] == ({(1, 0): 3}, {}, {(3, 0): -4})
    chern, pontrjagin = root_by_root_tangent_classes(ring)
    assert tangent_chern(tower, ring) == chern
    assert tangent_pontrjagin(tower, ring) == pontrjagin
    assert (class_terms(chern), class_terms(pontrjagin)) == sympy_tangent_classes(tower)
    # seeded towers of height 1 to 3 with a fiber of dimension 4
    towers = 0
    for height in range(1, 4):
        for dims in iproduct(range(1, 5), repeat=height):
            if max(dims) < 4:
                continue
            tower = validate_tower([
                (n, [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)])
                for k, n in enumerate(dims)
            ])
            ring = build_ring(tower)
            chern, pontrjagin = root_by_root_tangent_classes(ring)
            assert tangent_chern(tower, ring) == chern, tower
            assert tangent_pontrjagin(tower, ring) == pontrjagin, tower
            towers += 1
    assert towers == 1 + 7 + 37


def test_tangent_classes_take_no_binomials_for_zero_chern_classes(monkeypatch):
    # every Chern root of CP^64 is zero, so only c_0 = 1 is spread over the
    # powers of y_1: n + 1 binomials per class, not one per (q, r), and no
    # class product; the Pontrjagin factor (1 + y^2)^(n+1) is read off the
    # same binomials C(n + 1, k)
    n = 64
    tower = product_tower((n,))
    ring = build_ring(tower)
    comb, raw_mul = charclasses.comb, BottRing._raw_mul
    calls, products = [], []

    def counted(a, b):
        calls.append((a, b))
        return comb(a, b)

    def counting_mul(ring, a, b):
        products.append(ring)
        return raw_mul(ring, a, b)

    monkeypatch.setattr(charclasses, "comb", counted)
    monkeypatch.setattr(BottRing, "_raw_mul", counting_mul)
    chern = tangent_chern(tower, ring)
    assert len(calls) <= n + 1 and not products
    calls.clear()
    pontrjagin = tangent_pontrjagin(tower, ring)
    assert len(calls) <= n + 1 and not products
    monkeypatch.undo()
    y = ring.gen(1)
    assert chern == (ring.one() + y) ** (n + 1)
    assert pontrjagin == (ring.one() + y * y) ** (n + 1)


def chern_free_stage_towers(rng):
    """Towers with stages whose c_q all vanish: roots +-a y_1 over CP^1
    (y_1^2 = 0), alone, in the middle of a tower and at its top, and
    seeded towers of height 2 to 4 whose later stages are, at random, a
    product with CP^n, roots +-a y_1 or rows of random entries."""
    towers = [
        validate_tower([(1, []), (2, [[1], [-1]])]),
        validate_tower([(1, []), (2, [[1], [-1]]), (1, [[1, 2]])]),
        validate_tower([(1, []), (3, [[2], [-2], [0]]), (2, [[1, 1], [0, -1]])]),
        validate_tower([(2, []), (1, [[1]]), (2, [[0, 0], [0, 0]])]),
    ]
    while len(towers) < 24:
        stages = [(1, [])]
        for k in range(1, rng.randint(2, 4)):
            kind = rng.choice(["product", "pm", "random"])
            n = rng.randint(2, 3) if kind == "pm" else rng.randint(1, 3)
            rows = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
            if kind == "product":
                rows = [[0] * k for _ in range(n)]
            elif kind == "pm":
                a = rng.choice((1, -1, 2, 3))
                rows = [[a] + [0] * (k - 1), [-a] + [0] * (k - 1)]
                rows += [[0] * k for _ in range(n - 2)]
            stages.append((n, rows))
        towers.append(validate_tower(stages))
    return towers


def test_pontrjagin_of_chern_free_stages_matches_oracles(rng):
    free = 0
    for tower in chern_free_stage_towers(rng):
        ring = build_ring(tower)
        free += sum(not any(cq) for cq in ring.chern[1:])
        chern, pontrjagin = root_by_root_tangent_classes(ring)
        assert tangent_pontrjagin(tower, ring) == pontrjagin, tower
        if tower.total_complex_dim() <= 5:
            assert class_terms(pontrjagin) == sympy_tangent_classes(tower)[1], tower
    assert free >= 12, free


def test_steenrod_square_examples():
    r = build_ring(product_tower((2,)), 2)
    one = r.one()
    y = r.gen(1)
    assert steenrod_square(one) == one
    assert steenrod_square(y) == y + y * y
    assert steenrod_square(y * y) == y * y  # (y + y^2)^2 truncates to y^2


def test_steenrod_square_requires_mod2():
    r = build_ring(product_tower((2,)))
    with pytest.raises(DomainMismatchError):
        steenrod_square(r.one())


def test_steenrod_square_additive_cartan(rng):
    r = build_ring(validate_tower([(1, []), (2, [[1], [3]])]), 2)

    def rand_class():
        return r.from_terms(
            {
                tuple(rng.randint(0, n) for n in r.dims): rng.randint(0, 1)
                for _ in range(3)
            }
        )

    for _ in range(10):
        u, v = rand_class(), rand_class()
        assert steenrod_square(u + v) == steenrod_square(u) + steenrod_square(v)
        assert steenrod_square(u * v) == steenrod_square(u) * steenrod_square(v)


def test_sq_component_vanishing_and_top(rng):
    r = build_ring(bott_tower_3(1, 0, 1), 2)
    for e in [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1)]:
        x = r.from_terms({e: 1})
        d = sum(e)
        assert sq_component(x, 2 * d) == x * x
        assert sq_component(x, 1).is_zero()
        for k in range(2 * d + 1, 2 * d + 4):
            assert sq_component(x, k).is_zero()


def test_sq_component_rejects_bad_k():
    r = build_ring(product_tower((2,)), 2)
    y = r.gen(1)
    for k in (1.5, 2.0, True, False, -2, "2"):
        with pytest.raises(ValueError):
            sq_component(y, k)
    assert sq_component(y, 2) == y * y
    assert sq_component(y, 0) == y


def test_power_rejects_bool_exponent():
    u = build_ring(product_tower((2,))).gen(1)
    for k in (True, False, 1.0, -1):
        with pytest.raises(ValueError):
            u ** k
    assert u ** 1 == u
    assert u ** 0 == u.ring.one()


def seeded_wu_towers(rng):
    """One generalized tower per fiber shape of height 1 to 5, fibers <= 3
    and complex dimension <= 8 (the char-classes shapes among them), with
    summand entries in [-2, 2]."""
    for height in range(1, 6):
        for dims in iproduct(range(1, 4), repeat=height):
            if sum(dims) <= 8:
                yield validate_tower([
                    (n, [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)])
                    for k, n in enumerate(dims)
                ])


def test_wu_classes_match_brute_force_oracle(rng):
    towers = 0
    for tower in seeded_wu_towers(rng):
        v = wu_classes(tower)
        ring = v.ring
        top = ring.top_degree
        assert v == brute_force_wu_classes(tower), tower
        assert all(d <= top // 2 for d in v.degrees()), tower
        # the defining property of the total Wu class, against full-ring
        # products and Steenrod squares
        for d in range(top + 1):
            for e in ring.basis(d):
                x = ring.from_terms({e: 1})
                assert ring.integrate(v * x) == ring.integrate(steenrod_square(x)), (
                    tower,
                    e,
                )
        towers += 1
    assert towers == 139


def test_wu_classes_match_brute_force_oracle_on_wide_fibers(rng):
    # exponents e_j + g_j up to 2 n_j: the packed fields must not carry on
    # fibers past the seeded corpus
    towers = [
        product_tower((16,)),
        product_tower((8, 8)),
        validate_tower([(4, []), (4, [[1], [2], [-1], [0]])]),
        validate_tower([
            (n, [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)])
            for k, n in enumerate((5, 2, 4))
        ]),
    ]
    for tower in towers:
        assert wu_classes(tower) == brute_force_wu_classes(tower), tower


def pairing_exponents(ring):
    """Every y^(e+g) of the Wu pairings of a ring: e of degree top - d and g
    of degree d, for 1 <= d <= top // 2."""
    top = ring.top_degree
    for d in range(1, top // 2 + 1):
        for e in ring.basis(top - d):
            for g in ring.basis(d):
                yield tuple(a + b for a, b in zip(e, g))


def test_pushforward_parity_is_the_normal_form_parity(rng):
    # the integral pushed forward through the Segre classes of each stage
    # against the top coefficient of the Z/2 normal form, on every entry of
    # every pairing, including those the last stage sends to 0
    towers = [
        validate_tower([(3, []), (3, [[2], [2], [-1]])]),  # c_2 = 0 over Z
        product_tower((16,)),
    ]
    for height in range(1, 5):
        for dims in iproduct(range(1, 5), repeat=height):
            if sum(dims) <= 8:
                towers.append(validate_tower([
                    (n, [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)])
                    for k, n in enumerate(dims)
                ]))
    assert {t.height for t in towers} == {1, 2, 3, 4}
    assert {n for t in towers for n in t.dims} >= {1, 2, 3, 4}
    skipped = 0
    for tower in towers:
        ring = build_ring(tower, 2)
        integral = charclasses._TopIntegral(ring)
        top = ring._top
        for f in pairing_exponents(ring):
            want = ring._monomial_nf(f).get(top, 0) & 1
            assert integral[integral.pack(f)] == want, (tower, f)
            skipped += f[-1] < top[-1]
    assert skipped > 0


def test_pushforward_lists_the_basis_packed():
    for tower in (product_tower((1,)), product_tower((3, 1, 2)),
                  validate_tower([(2, []), (1, [[1]]), (3, [[1, 0], [0, 1], [1, 1]])])):
        ring = build_ring(tower, 2)
        integral = charclasses._TopIntegral(ring)
        packed = integral.basis()
        assert len(packed) == ring.top_degree + 1
        for d, monos in enumerate(packed):
            assert monos == [integral.pack(e) for e in ring.basis(d)], (tower, d)
            assert [integral.unpack(p) for p in monos] == list(ring.basis(d))


def test_wu_classes_take_no_normal_form(rng, monkeypatch):
    # the pairings are read from the pushforward: every normal form a Wu
    # solve takes is one that building its Z/2 ring takes, and a Bott tower
    # (one root per stage) or a product builds its ring with none
    monomial_nf = BottRing._monomial_nf
    calls = []

    def counting_nf(ring, e):
        calls.append(e)
        return monomial_nf(ring, e)

    monkeypatch.setattr(BottRing, "_monomial_nf", counting_nf)
    built = 0
    for tower in seeded_wu_towers(rng):
        calls.clear()
        build_ring(tower, 2)
        want = len(calls)
        calls.clear()
        wu_classes(tower)
        assert len(calls) == want, tower
        built += bool(want)
    assert built > 0
    for tower in (bott_tower_3(1, -2, 3), hirzebruch(3), product_tower((16,)),
                  product_tower((8, 8))):
        calls.clear()
        wu_classes(tower)
        assert not calls, tower


def test_wu_classes_of_a_projective_space_of_high_dimension():
    # one stage of fiber 2048: every degree has one row and one column, so
    # the solve must cost no more than its entries, and Wu's formula
    # w = Sq(v) gives back the Chern class (1 + y)^(n+1) mod 2
    n = 2048
    tower = product_tower((n,))
    w = steenrod_square(wu_classes(tower))
    assert w == build_ring(tower, 2).from_terms(
        {(k,): comb(n + 1, k) for k in range(n + 1)})


def test_pushforward_of_a_tall_tower_needs_no_recursion():
    # a height past Python's recursion limit: the top monomial of
    # (CP^1)^1100 integrates to 1, walked down one level per stage
    ring = build_ring(product_tower((1,) * 1100), 2)
    integral = charclasses._TopIntegral(ring)
    assert integral[integral.pack(ring._top)] == 1
    assert integral[integral.pack((2,) + (1,) * 1098 + (0,))] == 0


def test_solve_mod_matches_elimination_on_lists(rng):
    # the packed Z/2 solve against the oracle's Z/n elimination on lists, on
    # seeded invertible systems whose right-hand sides count only by parity;
    # the same system with a repeated row is singular for both
    for size in range(1, 41):
        while True:
            matrix = [[rng.randint(0, 1) for _ in range(size)] for _ in range(size)]
            rhs = [rng.randint(-3, 3) for _ in range(size)]
            try:
                want = gauss_solve_mod(matrix, rhs, 2)
            except ValueError:
                continue
            break
        rows = [sum(v << j for j, v in enumerate(row)) for row in matrix]
        assert solve_mod(rows, rhs) == want, (size, matrix, rhs)
        singular = rows[:-1] + [rows[0] if size > 1 else 0]
        with pytest.raises(ValueError):
            solve_mod(singular, rhs)
        with pytest.raises(ValueError):
            gauss_solve_mod(matrix[:-1] + [matrix[0] if size > 1 else [0]], rhs, 2)
    assert solve_mod([], []) == []


def test_tangent_classes_cost_a_few_products_per_stage(rng, monkeypatch):
    # c(T) multiplies one closed-form factor per stage; p(T) adds the
    # squares of its two signed parts first, so no product per Chern root
    raw_mul = BottRing._raw_mul
    calls = []

    def counting_mul(ring, a, b):
        calls.append(ring)
        return raw_mul(ring, a, b)

    for tower in seeded_wu_towers(rng):
        ring = build_ring(tower)
        monkeypatch.setattr(BottRing, "_raw_mul", counting_mul)
        calls.clear()
        tangent_chern(tower, ring)
        assert len(calls) <= ring.height, tower
        calls.clear()
        tangent_pontrjagin(tower, ring)
        assert len(calls) <= 3 * ring.height, tower
        monkeypatch.undo()


def test_wu_classes_examples():
    cp2 = product_tower((2,))
    v = wu_classes(cp2)
    assert v == v.ring.from_terms({(0,): 1, (1,): 1})
    cp1 = product_tower((1,))
    assert wu_classes(cp1) == wu_classes(cp1).ring.one()
    p11 = product_tower((1, 1))
    assert wu_classes(p11) == wu_classes(p11).ring.one()


def test_stiefel_whitney_examples():
    cp2 = product_tower((2,))
    w = stiefel_whitney(cp2)
    assert w == w.ring.from_terms({(0,): 1, (1,): 1, (2,): 1})
    cp1 = product_tower((1,))
    assert stiefel_whitney(cp1) == stiefel_whitney(cp1).ring.one()


def test_stiefel_whitney_matches_chern_mod2_on_corpus():
    for tower in small_tower_corpus():
        chern_mod2, _ = root_by_root_tangent_classes(build_ring(tower, 2))
        assert stiefel_whitney(tower) == chern_mod2, tower


def test_char_class_report_shape():
    report = char_class_report(hirzebruch(1))
    obj = report.to_obj()
    assert set(obj) == {"chern", "pontrjagin", "wu", "stiefel_whitney"}
    assert report.total_chern.coefficient((0, 0)) == 1
    assert report.total_pontrjagin == report.total_pontrjagin.ring.one()


def test_char_class_report_solves_wu_once(monkeypatch):
    calls = []
    original = charclasses.wu_classes

    def counted(tower):
        calls.append(tower)
        return original(tower)

    monkeypatch.setattr(charclasses, "wu_classes", counted)
    towers = [hirzebruch(1), product_tower((2,)), bott_tower_3(1, -2, 3)]
    reports = [char_class_report(t) for t in towers]
    assert len(calls) == len(towers)
    for t, report in zip(towers, reports):
        assert report.stiefel_whitney == stiefel_whitney(t)


def test_verify_pontrjagin_preservation_identity():
    t = product_tower((1, 2))
    r = build_ring(t)
    rm = verify_map(r, r, [[1, 0], [0, 1]])
    assert verify_pontrjagin_preservation(IsoWitness(rm), t, t)


def test_verify_pontrjagin_preservation_twist():
    a, b, c = 2, 1, -1
    t = bott_tower_3(a, b, c)
    tp = bott_tower_3(a, -b, -c)
    rm = verify_map(build_ring(tp), build_ring(t), [[1, 0, 0], [0, 1, 0], [b, c, 1]])
    assert rm is not None
    assert verify_pontrjagin_preservation(IsoWitness(rm), t, tp)


def test_verify_pontrjagin_preservation_hirzebruch():
    # triangular witness between the a=3 and a=1 towers; both have p = 1
    src = build_ring(hirzebruch(3))
    tgt = build_ring(hirzebruch(1))
    rm = verify_map(src, tgt, [[1, 0], [-1, 1]])
    assert rm is not None and rm.is_isomorphism
    assert verify_pontrjagin_preservation(rm, hirzebruch(1), hirzebruch(3))


def test_verify_pontrjagin_preservation_accepts_nontriangular():
    # the degree-2 matrix is not triangular for the stage filtration, yet
    # the map is a verified isomorphism and carries p to p
    src = build_ring(hirzebruch(3))
    tgt = build_ring(hirzebruch(1))
    rm = verify_map(src, tgt, [[-1, -2], [1, 3]])
    assert rm is not None
    assert verify_pontrjagin_preservation(rm, hirzebruch(1), hirzebruch(3)) is True
