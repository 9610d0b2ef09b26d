import json

import pytest

from bottcoh import (
    StageSpec,
    TowerFormatError,
    build_ring,
    dualize_stage,
    hirzebruch,
    iso_search,
    load_bundle,
    load_tower,
    normalize_stage,
    product_tower,
    tangent_pontrjagin,
    validate_bundle,
    validate_tower,
)
from bottcoh.towers import tower_from_json


def test_validate_hirzebruch_shape():
    t = validate_tower([(1, []), (1, [[2]])])
    assert t.dims == (1, 1)
    assert t.stages[1].summand_exponents == ((2,),)


def test_validate_rejects_columns_in_first_stage():
    with pytest.raises(TowerFormatError, match="stage 1"):
        validate_tower([(2, [[1, 1]])])


def test_validate_generalized_two_stage():
    t = validate_tower([(1, []), (2, [[1], [3]])])
    assert t.dims == (1, 2)


def test_validate_rejects_bad_fiber_dim():
    with pytest.raises(TowerFormatError):
        validate_tower([(0, [])])
    with pytest.raises(TowerFormatError):
        validate_tower([])


def test_validate_rejects_row_count_mismatch():
    with pytest.raises(TowerFormatError, match="rows"):
        validate_tower([(1, []), (2, [[1]])])


def test_validate_json_form():
    t = tower_from_json(json.dumps({"stages": [
        {"fiber_dim": 1, "summands": [[]]},
        {"fiber_dim": 2, "summands": [[1], [3]]},
    ]}))
    assert t.dims == (1, 2)


def test_validate_json_position_on_parse_error():
    with pytest.raises(TowerFormatError, match="line 1"):
        tower_from_json("{not json}")


@pytest.mark.parametrize(
    "raw",
    [
        [{"fiber_dim": 1, "summands": 5}],
        [{"fiber_dim": 1, "summands": [5]}],
        [(1, []), (1, [7])],
    ],
)
def test_validate_rejects_non_list_matrix_or_row(raw):
    with pytest.raises(TowerFormatError, match="not a list"):
        validate_tower(raw)


@pytest.mark.parametrize(
    "raw",
    [
        {"base_dims": [1], "exponents": [5]},
        {"base_dims": [1], "exponents": 5},
    ],
)
def test_validate_bundle_rejects_non_list_rows(raw):
    with pytest.raises(TowerFormatError):
        validate_bundle(raw)


@pytest.mark.parametrize("loader", [load_tower, load_bundle])
def test_load_rejects_undecodable_file(tmp_path, loader):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"stages": [\xff]}')
    with pytest.raises(TowerFormatError, match="UTF-8"):
        loader(str(path))


def test_normalize_stage_subtracts_first_row():
    st = normalize_stage([[2], [3], [5]])
    assert st == StageSpec(2, ((1,), (3,)))


def test_normalize_stage_already_normalized():
    assert normalize_stage([[0], [7]]) == StageSpec(1, ((7,),))


def test_normalize_stage_trivial_factor():
    assert normalize_stage([[1, 1], [1, 1]]) == StageSpec(1, ((0, 0),))


def test_normalize_stage_empty_errors():
    with pytest.raises(TowerFormatError):
        normalize_stage([])


def test_normalize_stage_idempotent_on_output():
    st = normalize_stage([[2, -1], [3, 0], [5, 5]])
    width = st.columns
    again = normalize_stage([(0,) * width] + list(st.summand_exponents))
    assert again == st


def test_dualize_single_summand():
    assert dualize_stage(StageSpec(1, ((3,),))) == StageSpec(1, ((-3,),))
    assert dualize_stage(StageSpec(1, ((0,),))) == StageSpec(1, ((0,),))


def test_dualize_picks_lex_minimal_candidate():
    # negated roots {0,-1,-3}; subtracting each root in turn gives
    # [[-3],[-1]], [[-2],[1]], [[2],[3]] after sorting rows; the first wins
    assert dualize_stage(StageSpec(2, ((1,), (3,)))) == StageSpec(2, ((-3,), (-1,)))


def test_dualize_twice_gives_isomorphic_ring():
    # witness bound 2 covers stages with entries in {-1, 0, 1}
    cases = [
        (1, ((1,),)),
        (2, ((0,), (1,))),
        (1, ((1, 1),)),
        (2, ((1, 0), (0, -1))),
    ]
    for n, rows in cases:
        width = len(rows[0])
        base = [(1, [])] + [(1, [[0] * j]) for j in range(1, width)]
        stage = StageSpec(n, rows)
        dd = dualize_stage(dualize_stage(stage))
        t1 = validate_tower(base + [(n, [list(r) for r in rows])])
        t2 = validate_tower(base + [(n, [list(r) for r in dd.summand_exponents])])
        witness = iso_search(build_ring(t1), build_ring(t2), 2)
        assert witness is not None, (rows, dd)


def test_dualize_twice_larger_entries_need_larger_bound():
    stage = StageSpec(2, ((1,), (3,)))
    dd = dualize_stage(dualize_stage(stage))
    assert dd == StageSpec(2, ((-3,), (-2,)))
    t1 = validate_tower([(1, []), (2, [[1], [3]])])
    t2 = validate_tower([(1, []), (2, [[-3], [-2]])])
    assert iso_search(build_ring(t1), build_ring(t2), 3) is not None


def test_dual_replacement_is_ring_isomorphic():
    # sound whenever no later stage references the dualized generator; the
    # top stage always qualifies
    t = validate_tower([(1, []), (1, [[1]]), (1, [[1, 1]])])
    dual_top = t.replace_stage(3, dualize_stage(t.stages[2]))
    assert iso_search(build_ring(t), build_ring(dual_top), 2) is not None

    # interior stage whose generator is unused above
    t2 = validate_tower([(1, []), (1, [[2]]), (1, [[1, 0]])])
    dual_mid = t2.replace_stage(2, dualize_stage(t2.stages[1]))
    assert iso_search(build_ring(t2), build_ring(dual_mid), 2) is not None


def test_dual_replacement_interior_stage_changes_ring_when_used_above():
    # replacing an interior stage without transporting the stages above it
    # changes the ring: the Pontrjagin contents differ
    t = validate_tower([(1, []), (1, [[1]]), (1, [[1, 1]])])
    swapped = t.replace_stage(2, dualize_stage(t.stages[1]))
    p = tangent_pontrjagin(t).homogeneous_part(2)
    q = tangent_pontrjagin(swapped).homogeneous_part(2)
    content = lambda cls: {abs(int(c)) for _, c in cls.items()}
    assert content(p) != content(q)


def test_product_tower_examples():
    t = product_tower((1, 1, 1))
    assert t.dims == (1, 1, 1)
    assert all(all(all(v == 0 for v in row) for row in s.summand_exponents) for s in t.stages)
    assert product_tower((2,)).dims == (2,)
    assert product_tower((1, 2)).stages[1].summand_exponents == ((0,), (0,))


def test_tower_json_roundtrip():
    t = validate_tower([(1, []), (2, [[1], [3]]), (1, [[0, -2]])])
    assert validate_tower(t.to_obj()) == t


def test_hirzebruch_constructor():
    assert hirzebruch(4).stages[1].summand_exponents == ((4,),)
