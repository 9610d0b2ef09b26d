"""Rigidity evidence: every isomorphism the engine finds carries the total
Pontrjagin class and the total Stiefel-Whitney class of one tower to those
of the other.

Rational Pontrjagin classes are homeomorphism invariants, so a witness
that failed to preserve p could not be induced by a homeomorphism, and a
pair for which no ring isomorphism preserves p would be a counterexample
to cohomological rigidity.
"""

import pytest

from bottcoh import (
    DIFFEOMORPHIC,
    DISTINCT,
    apply_map,
    bott_tower_3,
    build_ring,
    classify_3stage,
    dualize_stage,
    iso_search,
    stiefel_whitney,
    validate_tower,
    verify_map,
    verify_pontrjagin_preservation,
)


def preserves_w(witness, tower, tower_prime) -> bool:
    """Whether the witness, read mod 2, carries w(tower') to w(tower)."""
    rm2 = verify_map(build_ring(tower_prime, 2), build_ring(tower, 2), witness.matrix)
    assert rm2 is not None, (tower, tower_prime)
    return apply_map(rm2, stiefel_whitney(tower_prime)) == stiefel_whitney(tower)


def is_triangular(matrix) -> bool:
    return all(not any(row[i + 1 :]) for i, row in enumerate(matrix))


@pytest.mark.parametrize(
    "n, bound, classes, diffeomorphic, distinct",
    [(3, 4, 32, 311, 4986), (4, 6, 59, 670, 18856)],
)
def test_bott3_census_witnesses_preserve_p_and_w(
    n, bound, classes, diffeomorphic, distinct
):
    # each tower of the census a, b, c in [-n, n] is compared, in order,
    # with one representative per class found so far; no pair is left
    # UNKNOWN
    reps = []
    kinds = {DIFFEOMORPHIC: 0, DISTINCT: 0}
    nontriangular = 0
    for a in range(-n, n + 1):
        for b in range(-n, n + 1):
            for c in range(-n, n + 1):
                t = bott_tower_3(a, b, c)
                for rep in reps:
                    v = classify_3stage(rep, t, bound=bound)
                    assert v.kind in kinds, ((a, b, c), rep, v)
                    kinds[v.kind] += 1
                    if v.kind == DIFFEOMORPHIC:
                        # the search takes row 1 up to sign: the first
                        # witness leads with a negative entry, and its
                        # negative is a witness too
                        matrix = v.witness.matrix
                        assert next(x for x in matrix[0] if x) < 0, (rep, t)
                        negated = tuple(tuple(-x for x in row) for row in matrix)
                        assert verify_map(build_ring(t), build_ring(rep), negated), (rep, t)
                        assert verify_pontrjagin_preservation(v.witness, rep, t), (rep, t)
                        assert preserves_w(v.witness, rep, t), (rep, t)
                        nontriangular += not is_triangular(v.witness.matrix)
                        break
                else:
                    reps.append(t)
    assert len(reps) == classes
    assert kinds == {DIFFEOMORPHIC: diffeomorphic, DISTINCT: distinct}
    assert diffeomorphic == (2 * n + 1) ** 3 - classes
    # most witnesses are not triangular for the stage filtration
    assert nontriangular > diffeomorphic // 2


def random_tower_of_height(rng, m, max_dim=2, max_entry=1):
    stages = []
    for i in range(m):
        n = rng.randint(1, max_dim)
        rows = [[rng.randint(-max_entry, max_entry) for _ in range(i)] for _ in range(n)]
        stages.append((n, rows))
    return validate_tower(stages)


@pytest.mark.parametrize("height", [3, 4])
def test_dual_top_stage_witnesses_preserve_p_and_w(rng, height):
    # generalized towers, outside the paper's theorems: dualizing the top
    # stage gives an isomorphic ring, and the witness found must carry p
    # and w across
    pairs = 0
    for _ in range(40):
        t = random_tower_of_height(rng, height)
        tp = t.replace_stage(height, dualize_stage(t.stages[-1]))
        if tp == t:
            continue
        witness = iso_search(build_ring(t), build_ring(tp), 2)
        assert witness is not None, (t, tp)
        assert verify_pontrjagin_preservation(witness, t, tp), (t, tp)
        assert preserves_w(witness, t, tp), (t, tp)
        pairs += 1
    assert pairs >= 10
