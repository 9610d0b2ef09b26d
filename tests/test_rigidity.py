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
    GF2,
    ZZ,
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
    rm2 = verify_map(build_ring(tower_prime, GF2), build_ring(tower, GF2), witness.matrix)
    assert rm2 is not None, (tower, tower_prime)
    return apply_map(rm2, stiefel_whitney(tower_prime)) == stiefel_whitney(tower)


def is_triangular(matrix) -> bool:
    return all(not any(row[i + 1 :]) for i, row in enumerate(matrix))


def test_bott3_census_witnesses_preserve_p_and_w():
    # each tower of the census a, b, c in [-3, 3] is compared, in order,
    # with one representative per class found so far
    reps = []
    kinds = {DIFFEOMORPHIC: 0, DISTINCT: 0}
    nontriangular = 0
    for a in range(-3, 4):
        for b in range(-3, 4):
            for c in range(-3, 4):
                t = bott_tower_3(a, b, c)
                for rep in reps:
                    v = classify_3stage(rep, t)
                    assert v.kind in kinds, ((a, b, c), rep, v)
                    kinds[v.kind] += 1
                    if v.kind == DIFFEOMORPHIC:
                        assert verify_pontrjagin_preservation(v.witness, rep, t), (rep, t)
                        assert preserves_w(v.witness, rep, t), (rep, t)
                        nontriangular += not is_triangular(v.witness.matrix)
                        break
                else:
                    reps.append(t)
    assert len(reps) == 32
    assert kinds == {DIFFEOMORPHIC: 343 - 32, DISTINCT: 4986}
    # most witnesses are not triangular for the stage filtration
    assert nontriangular > (343 - 32) // 2


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
        witness = iso_search(build_ring(t, ZZ), build_ring(tp, ZZ), 2)
        assert witness is not None, (t, tp)
        assert verify_pontrjagin_preservation(witness, t, tp), (t, tp)
        assert preserves_w(witness, t, tp), (t, tp)
        pairs += 1
    assert pairs >= 10
