from itertools import product as iproduct

import pytest

from bottcoh import (
    DIFFEOMORPHIC,
    DISTINCT,
    UNKNOWN,
    ProductObstruction,
    ProductWitness,
    TowerFormatError,
    TwoStageWitness,
    bott_tower_3,
    build_ring,
    classify_2stage,
    classify_3stage,
    hirzebruch,
    is_product_cohomology,
    iso_search,
    product_tower,
    q_product_b3,
    square_zero_elements,
    validate_tower,
    verify_map,
    verify_pontrjagin_preservation,
)

from .conftest import random_tower


def test_is_product_hirzebruch_even():
    w = is_product_cohomology(hirzebruch(2))
    assert isinstance(w, ProductWitness)
    assert w.twists == ((), (1,))


def test_is_product_hirzebruch_odd_fails_divisibility():
    obs = is_product_cohomology(hirzebruch(1))
    assert isinstance(obs, ProductObstruction)
    assert obs.stage == 2 and obs.reason == "divisibility"


def test_is_product_bott3_examples():
    w = is_product_cohomology(bott_tower_3(2, 2, 0))
    assert isinstance(w, ProductWitness)
    assert w.twists == ((), (1,), (1, 0))
    assert isinstance(is_product_cohomology(bott_tower_3(1, 0, 0)), ProductObstruction)


def test_is_product_chern_residue_obstruction():
    # stage sum divisible but the twisted total Chern class is not 1:
    # roots {0, 2y1} over CP^2 shift to {-y1, y1} and 1 - y1^2 != 1 there
    t = validate_tower([(2, []), (1, [[2]])])
    obs = is_product_cohomology(t)
    assert isinstance(obs, ProductObstruction)
    assert obs.stage == 2 and obs.reason == "chern_residue"


def test_is_product_product_tower_zero_twists():
    for dims in [(1,), (2, 1), (1, 2, 3), (1, 1, 1, 1)]:
        w = is_product_cohomology(product_tower(dims))
        assert isinstance(w, ProductWitness)
        assert all(all(v == 0 for v in tw) for tw in w.twists)


def test_product_witness_generators_are_nilpotent():
    cases = [
        hirzebruch(2),
        hirzebruch(-4),
        bott_tower_3(2, 2, 0),
        bott_tower_3(2, 2, 2),
        bott_tower_3(-2, 4, -4),
        validate_tower([(1, []), (2, [[2], [4]])]),
        product_tower((2, 3)),
    ]
    for tower in cases:
        w = is_product_cohomology(tower)
        assert isinstance(w, ProductWitness), tower
        ring = build_ring(tower)
        for i, x in enumerate(w.generator_classes(ring)):
            assert (x ** (tower.dims[i] + 1)).is_zero(), (tower, i)


def test_is_product_validates_no_stage_again(monkeypatch):
    # the towers are validated already, and the stage roots come from the
    # tower's own ring, so no stage row is read through validation again
    import bottcoh.towers

    towers = [
        bott_tower_3(0, 0, 0),
        bott_tower_3(1, 2, 0),
        validate_tower([(2, []), (1, [[2]])]),
        validate_tower([(1, []), (2, [[2], [4]]), (1, [[1, 1]])]),
    ]
    calls = []
    real = bottcoh.towers._as_tuple

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bottcoh.towers, "_as_tuple", counting)
    for tower in towers:
        is_product_cohomology(tower)
    assert calls == []


def _max_entry(tower):
    return max((abs(v) for s in tower.stages for r in s.summand_exponents for v in r), default=0)


def test_is_product_agrees_with_the_isomorphism_search(rng):
    # a ProductWitness exactly when the search finds an isomorphism from the
    # product ring in a box that holds every twist; the witness's own
    # generator change is then such an isomorphism
    census = [bott_tower_3(a, b, c) for a in range(-3, 4) for b in range(-3, 4) for c in range(-3, 4)]
    seeded = [t for t in (random_tower(rng, max_height=4, max_dim=2, max_entry=2) for _ in range(150))
              if t.height > 1]
    verdicts = []
    for tower in census + seeded:
        result = is_product_cohomology(tower)
        ring = build_ring(tower)
        product = build_ring(product_tower(tower.dims))
        found = iso_search(ring, product, max(1, _max_entry(tower)))
        assert isinstance(result, ProductWitness) == (found is not None), tower
        if found is not None:
            rm = verify_map(product, ring, result.generator_matrix())
            assert rm is not None and rm.is_isomorphism, tower
        verdicts.append(found is not None)
    assert sum(verdicts[:len(census)]) == 15
    assert 0 < sum(verdicts[len(census):]) < len(seeded)


def test_is_product_invariant_under_dualize():
    # replacing a stage by its dual preserves the verdict whenever the
    # replacement preserves the ring: always for the top stage, and for
    # interior stages whose generator no later stage references
    from bottcoh import dualize_stage

    cases = [
        hirzebruch(2),
        hirzebruch(1),
        bott_tower_3(2, 2, 0),
        bott_tower_3(2, 4, 0),  # stage-2 generator unused above
        validate_tower([(1, []), (2, [[2], [4]])]),
    ]
    for tower in cases:
        base = isinstance(is_product_cohomology(tower), ProductWitness)
        top = tower.height
        swapped = tower.replace_stage(top, dualize_stage(tower.stages[top - 1]))
        assert isinstance(is_product_cohomology(swapped), ProductWitness) == base
    t = bott_tower_3(2, 4, 0)
    swapped = t.replace_stage(2, dualize_stage(t.stages[1]))
    assert isinstance(is_product_cohomology(swapped), ProductWitness)


def test_classify_2stage_hirzebruch_witness():
    v = classify_2stage(hirzebruch(1), hirzebruch(3))
    assert v.kind == DIFFEOMORPHIC
    assert v.witness == TwoStageWitness(epsilon=1, w=-1)


def test_classify_2stage_parity_distinct():
    v = classify_2stage(hirzebruch(1), hirzebruch(2))
    assert v.kind == DISTINCT
    assert v.invariant[0] == "twisted_total_chern"


def test_classify_2stage_higher_base_absolute_value():
    for n1 in (2, 3):
        for a in range(-3, 4):
            for ap in range(-3, 4):
                t = validate_tower([(n1, []), (1, [[a]])])
                tp = validate_tower([(n1, []), (1, [[ap]])])
                v = classify_2stage(t, tp)
                assert v.is_diffeomorphic == (abs(a) == abs(ap)), (n1, a, ap)


def test_classify_2stage_swapped_dims_products():
    t = validate_tower([(1, []), (2, [[0], [0]])])
    tp = validate_tower([(2, []), (1, [[0]])])
    v = classify_2stage(t, tp)
    assert v.kind == DIFFEOMORPHIC
    assert isinstance(v.witness, tuple)


def test_classify_2stage_swapped_dims_nonproduct_distinct():
    t = validate_tower([(1, []), (2, [[1], [0]])])
    tp = validate_tower([(2, []), (1, [[1]])])
    v = classify_2stage(t, tp)
    assert v.kind == DISTINCT
    assert v.invariant[1] != v.invariant[2]
    # only the tower over the larger base is a product: y2^2 = 0 in
    # CP^2 x CP^1, so a square-zero class exists on both sides and only the
    # product flags differ
    p21 = product_tower((2, 1))
    v = classify_2stage(t, p21)
    assert v.kind == DISTINCT
    assert v.invariant == ("product_cohomology", False, True)
    assert classify_2stage(p21, t).invariant == ("product_cohomology", True, False)


def test_classify_2stage_power_zero_invariant_matches_square_zero_search():
    # every exists_degree2_class_with_power_k_zero value says whether the
    # bounded square-zero search finds such a class in that tower's ring
    towers = [
        validate_tower([(n1, []), (n2, [[u] for u in roots])])
        for n1, n2 in ((1, 2), (2, 1), (1, 3), (3, 1))
        for roots in iproduct(range(-2, 3), repeat=n2)
    ]
    found = {}

    def has_class(tower, k):
        if (tower, k) not in found:
            found[tower, k] = bool(square_zero_elements(build_ring(tower), k, 4))
        return found[tower, k]

    checked = 0
    for t in towers:
        for tp in towers:
            if t.dims != tuple(reversed(tp.dims)):
                continue
            v = classify_2stage(t, tp)
            if v.invariant and v.invariant[0].startswith("exists_degree2_class"):
                k = max(t.dims)
                assert v.invariant == (v.invariant[0], has_class(t, k), has_class(tp, k)), (t, tp)
                checked += 1
    assert checked > 1000, checked


def test_classify_2stage_rank_mismatch():
    v = classify_2stage(
        validate_tower([(1, []), (2, [[0], [0]])]),
        validate_tower([(1, []), (1, [[0]])]),
    )
    assert v.kind == DISTINCT
    assert v.invariant[0] == "fiber_dimension_multiset"


def test_classify_2stage_requires_height_2():
    with pytest.raises(TowerFormatError):
        classify_2stage(product_tower((1, 1, 1)), product_tower((1, 1, 1)))


def test_classify_2stage_symmetric_reflexive():
    towers = [
        hirzebruch(a) for a in range(-3, 4)
    ] + [
        validate_tower([(2, []), (1, [[a]])]) for a in (-2, 0, 1, 3)
    ] + [
        validate_tower([(1, []), (2, [[1], [3]])]),
        validate_tower([(1, []), (2, [[-3], [-2]])]),
    ]
    for t in towers:
        assert classify_2stage(t, t).kind == DIFFEOMORPHIC
    for t in towers:
        for tp in towers:
            assert (
                classify_2stage(t, tp).is_diffeomorphic
                == classify_2stage(tp, t).is_diffeomorphic
            ), (t, tp)


def test_classify_2stage_truncation_can_identify_different_root_multisets():
    # over CP^1 only the root sum survives truncation: {0,0,3} vs {0,1,2}
    t = validate_tower([(1, []), (2, [[0], [3]])])
    tp = validate_tower([(1, []), (2, [[1], [2]])])
    assert classify_2stage(t, tp).kind == DIFFEOMORPHIC


def test_q_product_b3_examples():
    assert q_product_b3(1, 2, 0)
    assert not q_product_b3(0, 1, 1)
    assert q_product_b3(2, 1, 1)


def test_q_product_b3_matches_square_zero_search():
    from bottcoh import square_zero_elements

    for a in range(-2, 3):
        for b in range(-2, 3):
            for c in range(-2, 3):
                ring = build_ring(bott_tower_3(a, b, c))
                bound = max(abs(b), abs(c), 2)
                hits = [
                    u
                    for u in square_zero_elements(ring, 2, bound)
                    if any(e[2] for e, _ in u.items())
                ]
                assert bool(hits) == q_product_b3(a, b, c), (a, b, c)


def test_classify_3stage_examples():
    v = classify_3stage(bott_tower_3(1, 0, 0), bott_tower_3(3, 0, 0), bound=3)
    assert v.kind == DIFFEOMORPHIC
    assert v.witness is not None

    v = classify_3stage(bott_tower_3(2, 1, -1), bott_tower_3(2, -1, 1), bound=6)
    assert v.kind == DIFFEOMORPHIC

    v = classify_3stage(bott_tower_3(0, 0, 0), bott_tower_3(0, 1, 1), bound=3)
    assert v.kind == DISTINCT
    assert v.invariant == ("p1_content", 0, 2)

    # p1 content and the Z/2, Z/4 counts agree and no witness exists, but
    # the Z/8 square-zero counts differ
    t, tp = bott_tower_3(-4, -2, -3), bott_tower_3(-3, 0, -4)
    for bound in (4, 12):
        v = classify_3stage(t, tp, bound=bound)
        assert v.kind == DISTINCT
        assert v.invariant == ("square_zero_count_mod8", 79, 63)
        assert v.bound == bound


def test_classify_3stage_requires_bott():
    with pytest.raises(TowerFormatError):
        classify_3stage(product_tower((1, 1, 2)), product_tower((1, 1, 2)))


def test_classify_3stage_diffeomorphic_consistency(rng):
    # battery values agree whenever a witness is found, and every
    # witness preserves the Pontrjagin class
    from bottcoh.classify import _square_zero_count_mod

    pairs = [
        ((1, 0, 0), (3, 0, 0)),
        ((1, 2, 2), (1, -2, -2)),
        ((2, 1, 1), (-2, -1, 1)),
        ((0, 3, 1), (0, -3, -1)),
    ]
    for (p, q) in pairs:
        t, tp = bott_tower_3(*p), bott_tower_3(*q)
        v = classify_3stage(t, tp, bound=6)
        assert v.kind == DIFFEOMORPHIC, (p, q, v)
        for modulus in (2, 4):
            assert _square_zero_count_mod(t, modulus) == _square_zero_count_mod(
                tp, modulus
            )
        assert verify_pontrjagin_preservation(v.witness, t, tp)


def test_classify_3stage_unknown_is_honest():
    # every witness between these isomorphic rings needs an entry of size 3,
    # so a bound-2 search exhausts and reports UNKNOWN rather than guessing
    t, tp = bott_tower_3(3, 0, 3), bott_tower_3(-3, -9, 3)
    assert classify_3stage(t, tp, bound=2).kind == UNKNOWN
    v = classify_3stage(t, tp, bound=3)
    assert v.kind == DIFFEOMORPHIC
    assert v.witness.matrix == ((-1, 0, 0), (-3, -1, 0), (0, 0, -1))


@pytest.fixture
def built_rings(monkeypatch):
    """The moduli of the rings that ``classify_3stage`` builds, per call."""
    import bottcoh.classify

    mods = []
    real = bottcoh.classify.build_ring

    def counting(*args):
        ring = real(*args)
        mods.append(ring.mod)
        return ring

    monkeypatch.setattr(bottcoh.classify, "build_ring", counting)
    return mods


def test_classify_3stage_builds_one_integer_ring_per_tower(built_rings, rng, monkeypatch):
    # one pair per way the call can end, then a seeded census-3 sample; the
    # residue counts run in battery order, and Z/8 only after a failed search
    import bottcoh.classify

    moduli = []
    real_count = bottcoh.classify._square_zero_residues

    def recording_count(rewrites, modulus):
        moduli.append(modulus)
        return real_count(rewrites, modulus)

    monkeypatch.setattr(bottcoh.classify, "_square_zero_residues", recording_count)
    pinned = [
        ((-3, -3, -3), (0, 0, 1), 4),  # p1 content
        ((-3, -3, 0), (0, 0, 1), 4),  # Z/2 count
        ((-2, -3, 1), (1, 2, 2), 4),  # Z/4 count
        ((-3, -2, 0), (0, 0, 1), 4),  # witness
        ((-4, -2, -3), (-3, 0, -4), None),  # Z/8 count, default bound
        ((3, 0, 3), (-3, -9, 3), 2),  # UNKNOWN
    ]
    census = [(a, b, c) for a in range(-3, 4) for b in range(-3, 4) for c in range(-3, 4)]
    sample = [(rng.choice(census), rng.choice(census), 4) for _ in range(150)]
    kinds, counted = [], []
    for p, q, bound in pinned + sample:
        built_rings.clear()
        moduli.clear()
        t, tp = bott_tower_3(*p), bott_tower_3(*q)
        v = classify_3stage(t, tp) if bound is None else classify_3stage(t, tp, bound=bound)
        kinds.append(v.invariant[0] if v.invariant else v.kind)
        counted.append(list(moduli))
        if kinds[-1] == "p1_content":
            assert built_rings == [], (p, q)
        else:
            assert built_rings == [0, 0], (p, q, v)
    assert kinds[:len(pinned)] == [
        "p1_content", "square_zero_count_mod2", "square_zero_count_mod4",
        DIFFEOMORPHIC, "square_zero_count_mod8", UNKNOWN,
    ]
    assert counted[:len(pinned)] == [
        [], [2, 2], [2, 2, 4, 4], [2, 2, 4, 4], [2, 2, 4, 4, 8, 8], [2, 2, 4, 4, 8, 8],
    ]
