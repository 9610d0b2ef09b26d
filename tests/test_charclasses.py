import pytest

from bottcoh import (
    GF2,
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
from bottcoh.ring import IsoWitness

from .conftest import small_tower_corpus
from .oracles import class_terms, sympy_normal_form


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


def test_steenrod_square_examples():
    r = build_ring(product_tower((2,)), GF2)
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
    r = build_ring(validate_tower([(1, []), (2, [[1], [3]])]), GF2)

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
    r = build_ring(bott_tower_3(1, 0, 1), GF2)
    for e in [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1)]:
        x = r.from_terms({e: 1})
        d = sum(e)
        assert sq_component(x, 2 * d) == x * x
        assert sq_component(x, 1).is_zero()
        for k in range(2 * d + 1, 2 * d + 4):
            assert sq_component(x, k).is_zero()


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


def _chern_mod2(tower):
    ring2 = build_ring(tower, GF2)
    total = ring2.one()
    for i in range(1, ring2.height + 1):
        y = ring2.gen(i)
        stage = tower.stages[i - 1]
        pad = (0,) * (ring2.height - stage.columns)
        roots = [ring2.zero()] + [
            ring2.linear_class(tuple(row) + pad) for row in stage.summand_exponents
        ]
        for u in roots:
            total = total * (ring2.one() + y + u)
    return total


def test_stiefel_whitney_matches_chern_mod2_on_corpus():
    for tower in small_tower_corpus():
        assert stiefel_whitney(tower) == _chern_mod2(tower), tower


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
