"""Tests of the benchmark itself: its inputs, its checkers and its tracer.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import ast
import json
import random
import sys
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bottcoh  # noqa: E402
import closedform as cf  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from bottcoh import classify as package_classify  # noqa: E402
from workloads import Rejected  # noqa: E402

TRIPLES = list(product(range(-3, 4), repeat=3))


def _imports(path):
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""


@pytest.mark.parametrize("module", ["refloop.py", "closedform.py", "inputs.py"])
def test_reference_loop_and_checkers_import_nothing_from_bottcoh(module):
    assert not [m for m in _imports(HERE / module) if m.split(".")[0] == "bottcoh"]


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.GENERATORS)
    assert set(workloads.WORKLOADS) == set(inputs.GENERATORS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _, _) in tracing.METRICS.items()
    }


@pytest.mark.parametrize("workload", list(inputs.GENERATORS))
def test_same_seed_same_inputs(workload):
    generate = inputs.GENERATORS[workload]
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)
    assert len(generate(7)) >= run.MIN_ITEMS


def test_closed_form_invariants_match_the_package_on_every_small_tower():
    for a, b, c in TRIPLES:
        rows = cf.bott3_rows((a, b, c))
        tower = bottcoh.bott_tower_3(a, b, c)
        assert cf.p1_content(rows) == abs(c * (2 * b - a * c))
        for modulus in (2, 4):
            assert cf.square_zero_count(rows, modulus) == \
                package_classify._square_zero_count_mod(tower, modulus), (a, b, c)


def test_closed_form_product_matches_the_package():
    rng = random.Random(5)
    for _ in range(40):
        m = rng.randint(2, 5)
        rows = [[rng.randint(-3, 3) for _ in range(k)] for k in range(m)]
        ring = bottcoh.build_ring(bottcoh.validate_tower([(1, [r]) for r in rows]))
        x = [rng.randint(-3, 3) for _ in range(m)]
        z = [rng.randint(-3, 3) for _ in range(m)]
        got = {}
        for e, coeff in (ring.linear_class(x) * ring.linear_class(z)).items():
            got[tuple(j for j, k in enumerate(e) for _ in range(k))] = coeff
        assert got == cf.bott_product(rows, x, z)


def test_tower_ring_matches_the_package_and_euler_characteristic():
    rng = random.Random(6)
    for _ in range(60):
        dims = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        stages = [(n, [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)])
                  for k, n in enumerate(dims)]
        tower = bottcoh.validate_tower(stages)
        ring = cf.TowerRing(stages)
        chern = ring.total_chern(stages)
        package = {tuple(e): c for e, c in bottcoh.tangent_chern(tower).items()}
        assert chern == package
        euler = 1
        for n in dims:
            euler *= n + 1
        assert chern[tuple(dims)] == euler


def test_moves_and_presentations_are_isomorphisms():
    rng = random.Random(8)
    for _ in range(10):
        rows = [[rng.randint(-2, 2) for _ in range(k)] for k in range(4)]
        i = rng.randint(1, 3)
        matrix = [[int(r == c) for c in range(4)] for r in range(4)]
        matrix[i][:i] = rows[i]
        assert cf.witness_error(rows, cf.represent_dual(rows, i), matrix) is None
        signs = [rng.choice((1, -1)) for _ in range(4)]
        diagonal = [[signs[r] if r == c else 0 for c in range(4)] for r in range(4)]
        assert cf.witness_error(rows, cf.sign_flip(rows, signs), diagonal) is None


# -- each checker rejects a deliberately wrong answer ---------------------------


def _classify(item):
    towers = workloads.classify_prepare(bottcoh, item)
    return workloads.classify_run(bottcoh, towers)


def _fake_verdict(verdict, **changes):
    fields = {"kind": verdict.kind, "invariant": verdict.invariant,
              "witness": verdict.witness}
    fields.update(changes)
    return SimpleNamespace(**fields)


def test_classify_check_rejects_a_witness_with_one_entry_changed():
    item = {"kind": "transport", "t": (1, 1, 1), "tp": (-1, 0, 1),
            "expect": "DIFFEOMORPHIC"}
    verdict = _classify(item)
    workloads.classify_check(item, verdict)
    matrix = [list(row) for row in verdict.witness.matrix]
    for r, c in product(range(3), repeat=2):
        wrong = [row[:] for row in matrix]
        wrong[r][c] += 1
        fake = _fake_verdict(verdict, witness=SimpleNamespace(matrix=wrong))
        with pytest.raises(Rejected):
            workloads.classify_check(item, fake)


def test_classify_check_rejects_wrong_invariants():
    items = [it for it in inputs.bott3_classify(3) if it["expect"] != "DIFFEOMORPHIC"]
    assert {it["kind"] for it in items} == {"p1", "mod2", "mod4"}
    for item in items:
        verdict = _classify(item)
        workloads.classify_check(item, verdict)
        name, value, value_p = verdict.invariant
        for wrong in [(name, value + 1, value_p), (name, value, value_p - 1),
                      (name, value_p, value), ("p1_content" if name != "p1_content"
                                               else "square_zero_count_mod2",
                                               value, value_p)]:
            with pytest.raises(Rejected):
                workloads.classify_check(item, _fake_verdict(verdict, invariant=wrong))
        with pytest.raises(Rejected):
            workloads.classify_check(item, _fake_verdict(verdict, kind="UNKNOWN",
                                                         invariant=None))


def test_iso_check_rejects_wrong_witnesses_and_uncertified_none():
    pool = inputs.iso_pool()
    item = next(p for p in pool if p["kind"] == "iso")
    witness = workloads.iso_run(bottcoh, workloads.iso_prepare(bottcoh, item))
    workloads.iso_check(item, witness)
    for r, c in product(range(inputs.ISO_HEIGHT), repeat=2):
        wrong = [list(row) for row in witness.matrix]
        wrong[r][c] -= 1
        with pytest.raises(Rejected):
            workloads.iso_check(item, SimpleNamespace(matrix=wrong))
    with pytest.raises(Rejected):
        workloads.iso_check(item, None)
    same = {"kind": "non", "t": item["t"], "tp": item["t"]}
    with pytest.raises(Rejected):
        workloads.iso_check(same, None)


def test_char_check_rejects_one_flipped_stiefel_whitney_coefficient():
    item = inputs.char_classes(4)[0]
    report = workloads.char_run(bottcoh, workloads.char_prepare(bottcoh, item))
    workloads.char_check(item, report)
    plain = {key: dict(workloads._plain(getattr(report, key)))
             for key in ("total_chern", "total_pontrjagin", "wu", "stiefel_whitney")}
    ring = cf.TowerRing(item["stages"])
    monomials = [e for e in product(*(range(n + 1) for n in ring.dims))]
    for e in monomials:
        for key in ("stiefel_whitney", "wu"):
            wrong = {k: dict(v) for k, v in plain.items()}
            if e in wrong[key]:
                del wrong[key][e]
            else:
                wrong[key][e] = 1
            with pytest.raises(Rejected):
                workloads.char_check(item, SimpleNamespace(**wrong))
    for key in ("total_chern", "total_pontrjagin"):
        wrong = {k: dict(v) for k, v in plain.items()}
        e = max(wrong[key])
        wrong[key][e] += 2
        with pytest.raises(Rejected):
            workloads.char_check(item, SimpleNamespace(**wrong))


# -- a second seed passes every check; the tracer sees every boundary ------------


@pytest.mark.parametrize("workload", list(inputs.GENERATORS))
def test_a_second_seed_passes_every_check(workload):
    prepare, run_item, check, _ = workloads.WORKLOADS[workload]
    for item in inputs.GENERATORS[workload](2):
        check(item, run_item(bottcoh, prepare(bottcoh, item)))


def test_tracer_counts_every_boundary_and_uninstalls():
    originals = (bottcoh.classify.iso_search, bottcoh.ring.CohomologyClass.__mul__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        before = tracer.snapshot()
        for workload in inputs.GENERATORS:
            prepare, run_item, _, _ = workloads.WORKLOADS[workload]
            for item in inputs.GENERATORS[workload](1)[:3]:
                run_item(bottcoh, prepare(bottcoh, item))
        metrics = tracer.round_metrics(before, 1e-3)
    finally:
        tracer.uninstall()
    assert not tracer.missing
    assert set(metrics) == set(tracing.METRICS)
    assert metrics["charclasses.wu_classes.calls"] == 2 * 3
    assert metrics["search.iso_search.calls"] >= 3
    assert sum(metrics[f"classify.by_{k}"] for k in ("p1", "mod2", "mod4", "search")) == 3
    assert metrics["search.dfs_rows"] >= metrics["search.dfs_prunes"] > 0
    assert all(metrics[name] > 0 for name in tracing.METRICS
               if name.startswith(("ring.", "charclasses.", "linalg.")))
    assert (bottcoh.classify.iso_search, bottcoh.ring.CohomologyClass.__mul__) == originals
