"""Acceptance suite: every criterion at its stated tolerance (exact
equality; arithmetic is exact everywhere) and within its runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import random
from contextlib import contextmanager
from time import perf_counter

from bottcoh import (
    ProductWitness,
    bott_tower_3,
    build_ring,
    classify_2stage,
    classify_3stage,
    find_zero_column,
    hirzebruch,
    is_product_cohomology,
    is_trivial,
    iso_search,
    p1_b3,
    product_tower,
    q_product_b3,
    square_zero_elements,
    stiefel_whitney,
    tangent_chern,
    tangent_pontrjagin,
    validate_bundle,
    validate_tower,
    verify_map,
)
from bottcoh.linalg import det_int
from bottcoh.ring import apply_map

from .conftest import random_tower, small_tower_corpus
from .oracles import class_terms, random_order_reduce, rank_exact


@contextmanager
def criterion(num, desc, limit):
    start = perf_counter()
    try:
        yield
    except Exception:
        print(f"[acceptance {num}] FAIL {desc}")
        raise
    elapsed = perf_counter() - start
    timing = f"({elapsed:.2f}s, limit {limit}s)"
    if elapsed < limit:
        print(f"[acceptance {num}] PASS {desc} {timing}")
    else:
        print(f"[acceptance {num}] FAIL {desc}: over the runtime budget {timing}")
    assert elapsed < limit, f"criterion {num} took {elapsed:.2f}s, limit {limit}s"


def test_criterion_1_hirzebruch_classification():
    with criterion(1, "Hirzebruch towers diffeomorphic iff equal parity", 1.0):
        towers = {a: hirzebruch(a) for a in range(-6, 7)}
        for a in range(-6, 7):
            for ap in range(-6, 7):
                verdict = classify_2stage(towers[a], towers[ap])
                assert verdict.is_diffeomorphic == ((a - ap) % 2 == 0), (a, ap)


def test_criterion_2_higher_base_two_stage():
    with criterion(2, "2-stage over CP^2/CP^3 diffeomorphic iff |a| = |a'|", 5.0):
        for n1 in (2, 3):
            towers = {
                a: validate_tower([(n1, []), (1, [[a]])]) for a in range(-6, 7)
            }
            for a in range(-6, 7):
                for ap in range(-6, 7):
                    verdict = classify_2stage(towers[a], towers[ap])
                    assert verdict.is_diffeomorphic == (abs(a) == abs(ap)), (n1, a, ap)


def test_criterion_3_pontrjagin_closed_form():
    with criterion(3, "p(B3) = 1 + c(2b-ac) y1y2 on [-4,4]^3", 10.0):
        for a in range(-4, 5):
            for b in range(-4, 5):
                for c in range(-4, 5):
                    p = tangent_pontrjagin(bott_tower_3(a, b, c))
                    assert class_terms(p.homogeneous_part(2)) == class_terms(
                        p1_b3(a, b, c)
                    ), (a, b, c)
                    assert all(d in (0, 2) for d in p.degrees()), (a, b, c)


def test_criterion_4_square_zero_equivalence():
    with criterion(4, "rational product criterion equivalences on [-4,4]^3", 30.0):
        for a in range(-4, 5):
            for b in range(-4, 5):
                for c in range(-4, 5):
                    flag = q_product_b3(a, b, c)
                    ring = build_ring(bott_tower_3(a, b, c))
                    candidate = ring.linear_class((b, c, 2))
                    assert (candidate * candidate).is_zero() == flag, (a, b, c)
                    hits = [
                        u
                        for u in square_zero_elements(ring, 2, 6)
                        if any(e[2] for e, _ in u.items())
                    ]
                    assert bool(hits) == flag, (a, b, c)


def _bundle_corpus(seed):
    rng = random.Random(seed)
    corpus = []
    for _ in range(160):
        k = rng.randint(1, 3)
        n = rng.randint(1, 3)
        dims = tuple(rng.randint(1, 3) for _ in range(k))
        rows = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
        corpus.append(validate_bundle({"base_dims": dims, "exponents": rows}))
    # seed the corpus with bundles built to be trivial: cancelling pairs
    # over a single CP^1 factor, padded with zero summands
    for _ in range(60):
        k = rng.randint(2, 3)
        dims = tuple(rng.randint(1, 3) for _ in range(k))
        ones = [j for j in range(k) if dims[j] == 1]
        vec = [0] * k
        if ones:
            vec[rng.choice(ones)] = rng.randint(-3, 3)
        rows = [vec, [-v for v in vec]]
        if rng.random() < 0.5:
            rows.append([0] * k)
        corpus.append(validate_bundle({"base_dims": dims, "exponents": rows}))
    return corpus


def test_criterion_5_trivial_bundle_structure(seed):
    with criterion(5, "trivial sub-stable bundles decompose constructively", 10.0):
        checked = 0
        for bundle in _bundle_corpus(seed):
            if not is_trivial(bundle):
                continue
            n, k = bundle.rank, bundle.factors
            for j in range(k):
                assert sum(row[j] for row in bundle.exponents) == 0
            if all(d == 1 for d in bundle.base_dims):
                for j in range(k):
                    for jp in range(j + 1, k):
                        assert (
                            sum(row[j] * row[jp] for row in bundle.exponents) == 0
                        )
            if n < sum(bundle.base_dims):
                col, trace = find_zero_column(bundle)
                assert col == trace[0] and len(trace) >= 1
                checked += 1
        assert checked >= 20, f"corpus produced only {checked} reducible bundles"


def test_criterion_6_product_detection():
    with criterion(6, "product-cohomology detection and witnesses", 5.0):
        witnesses = []
        for a in range(-6, 7):
            t = hirzebruch(a)
            res = is_product_cohomology(t)
            assert isinstance(res, ProductWitness) == (a % 2 == 0), a
            if isinstance(res, ProductWitness):
                witnesses.append((t, res))
        t220 = bott_tower_3(2, 2, 0)
        res = is_product_cohomology(t220)
        assert isinstance(res, ProductWitness)
        witnesses.append((t220, res))
        assert not isinstance(is_product_cohomology(bott_tower_3(1, 0, 0)), ProductWitness)
        for dims in [(1, 2), (2, 2), (1, 1, 1)]:
            t = product_tower(dims)
            res = is_product_cohomology(t)
            assert isinstance(res, ProductWitness)
            witnesses.append((t, res))
        for tower, witness in witnesses:
            ring = build_ring(tower)
            for i, x in enumerate(witness.generator_classes(ring)):
                assert (x ** (tower.dims[i] + 1)).is_zero(), (tower, i)


def _witness_pairs():
    """(tower, tower_prime, unimodular witness) triples produced by the
    package's own searches."""
    pairs = []
    searches = [
        (hirzebruch(1), hirzebruch(3), 3),
        (hirzebruch(0), hirzebruch(2), 3),
        (product_tower((1, 2)), product_tower((2, 1)), 1),
        (validate_tower([(1, []), (2, [[1], [3]])]),
         validate_tower([(1, []), (2, [[-3], [-2]])]), 3),
    ]
    for t, tp, bound in searches:
        w = iso_search(build_ring(t), build_ring(tp), bound)
        assert w is not None, (t, tp)
        pairs.append((t, tp, w))
    classifications = [
        ((1, 0, 0), (3, 0, 0), 3),
        ((2, 1, 1), (2, -1, -1), 6),
        ((1, 1, 1), (-1, 0, 1), 6),
        ((3, 0, 3), (-3, -9, 3), 3),
    ]
    for p, q, bound in classifications:
        t, tp = bott_tower_3(*p), bott_tower_3(*q)
        v = classify_3stage(t, tp, bound=bound)
        assert v.is_diffeomorphic, (p, q)
        pairs.append((t, tp, v.witness))
    return pairs


def test_criterion_7_stiefel_whitney_oracle():
    with criterion(7, "Wu pipeline matches mod-2 Chern; witnesses preserve w", 30.0):
        for tower in small_tower_corpus():
            assert 2 * tower.total_complex_dim() <= 8
            sw = stiefel_whitney(tower)
            ring2 = build_ring(tower, 2)
            chern2 = tangent_chern(tower, build_ring(tower))
            reduced = ring2.from_terms({e: int(c) % 2 for e, c in chern2.items()})
            assert sw == reduced, tower
        for t, tp, witness in _witness_pairs():
            rm2 = verify_map(
                build_ring(tp, 2), build_ring(t, 2), witness.matrix
            )
            assert rm2 is not None, (t, tp)
            assert apply_map(rm2, stiefel_whitney(tp)) == stiefel_whitney(t), (t, tp)


def test_criterion_8_three_stage_suite():
    with criterion(8, "3-stage Bott classification suite", 60.0):
        v = classify_3stage(bott_tower_3(1, 0, 0), bott_tower_3(3, 0, 0), bound=3)
        assert v.is_diffeomorphic
        for a in range(-3, 4):
            for b in range(-3, 4):
                for c in range(-3, 4):
                    t = bott_tower_3(a, b, c)
                    v1 = classify_3stage(t, bott_tower_3(a, -b, -c), bound=6)
                    assert v1.is_diffeomorphic, (a, b, c, "sign twist")
                    v2 = classify_3stage(t, bott_tower_3(-a, b - a * c, c), bound=6)
                    assert v2.is_diffeomorphic, (a, b, c, "dual transport")
        v = classify_3stage(bott_tower_3(0, 0, 0), bott_tower_3(0, 1, 1), bound=3)
        assert v.kind == "DISTINCT" and v.invariant == ("p1_content", 0, 2)


def test_criterion_9_ring_engine_properties(seed):
    with criterion(9, "ring-engine properties on 100 seeded random towers", 60.0):
        rng = random.Random(seed)
        for _ in range(100):
            tower = random_tower(rng, max_height=4, max_dim=3, max_entry=3)
            ring = build_ring(tower)
            top = ring.top_degree

            # graded ranks match the generating function and the basis count
            poly = [1]
            for n in ring.dims:
                new = [0] * (len(poly) + n)
                for i, cf in enumerate(poly):
                    for j in range(n + 1):
                        new[i + j] += cf
                poly = new
            for d in range(top + 1):
                assert ring.graded_rank(d) == poly[d] == len(ring.basis(d))

            # Poincare pairing is unimodular in every degree
            for d in range(top + 1):
                rows = [
                    [
                        int(ring.integrate(ring.from_terms({e: 1}) * ring.from_terms({g: 1})))
                        for g in ring.basis(top - d)
                    ]
                    for e in ring.basis(d)
                ]
                assert abs(det_int(rows)) == 1, (tower, d)

            # normal form is confluent: a random reduction order agrees
            terms = {
                tuple(rng.randint(0, 2 * n) for n in ring.dims): rng.randint(-3, 3)
                for _ in range(3)
            }
            assert class_terms(ring.from_terms(terms)) == random_order_reduce(
                ring, terms, rng
            )

            # a combination with every coefficient nonzero resists
            # nilpotency below each fiber bound
            coeffs = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in ring.dims]
            x = ring.linear_class(coeffs)
            for n in ring.dims:
                assert not (x**n).is_zero(), (tower, coeffs, n)

            # square-zero classes touching the top generator span rank <= 1
            k = ring.dims[-1] + 1
            found = [
                [int(c) for c in _vector_of(u, ring.height)]
                for u in square_zero_elements(ring, k, 4)
                if _vector_of(u, ring.height)[-1] != 0
            ]
            if found:
                assert rank_exact(found) <= 1, (tower, found)


def _vector_of(cls, m):
    vec = [0] * m
    for e, c in cls.items():
        vec[list(e).index(1)] = int(c)
    return vec
