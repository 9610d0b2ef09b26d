import json
import re
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bottcoh import (
    bott_tower_3,
    build_ring,
    dualize_stage,
    hirzebruch,
    product_tower,
    validate_tower,
)
from bottcoh import cli
from bottcoh.cli import canonical_json, main

from .conftest import random_tower
from .oracles import sympy_normal_form, sympy_relation


@pytest.fixture
def tower_file(tmp_path):
    def write(name, tower):
        path = tmp_path / name
        path.write_text(json.dumps(tower.to_obj()))
        return str(path)

    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify2_hirzebruch_1_vs_3(tower_file, capsys):
    h1 = tower_file("h1.json", hirzebruch(1))
    h3 = tower_file("h3.json", hirzebruch(3))
    code, out, _ = run_cli(capsys, "classify2", h1, h3)
    assert code == 0
    assert "DIFFEOMORPHIC" in out
    # swapped fiber dimensions: the witness is a pair of product witnesses
    p12 = tower_file("p12.json", product_tower((1, 2)))
    p21 = tower_file("p21.json", product_tower((2, 1)))
    code, out, _ = run_cli(capsys, "--json", "classify2", p12, p21)
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "DIFFEOMORPHIC"
    assert obj["witness"] == [
        {"generator_change": [[1, 0], [0, 1]], "twists": [[], [0]]},
    ] * 2


def test_classify2_distinct_exit_code(tower_file, capsys):
    h1 = tower_file("h1.json", hirzebruch(1))
    h2 = tower_file("h2.json", hirzebruch(2))
    code, out, _ = run_cli(capsys, "classify2", h1, h2)
    assert code == 1
    assert "DISTINCT" in out


def test_is_product_exit_codes(tower_file, capsys):
    h1 = tower_file("h1.json", hirzebruch(1))
    h2 = tower_file("h2.json", hirzebruch(2))
    assert run_cli(capsys, "is-product", h1)[0] == 1
    assert run_cli(capsys, "is-product", h2)[0] == 0


def test_classes_cp2_wu_and_sw(tower_file, capsys):
    cp2 = tower_file("cp2.json", product_tower((2,)))
    code, out, _ = run_cli(capsys, "--json", "classes", cp2)
    assert code == 0
    report = json.loads(out)
    assert report["wu"] == [
        {"coeff": "1", "exponents": [0]},
        {"coeff": "1", "exponents": [1]},
    ]
    assert report["stiefel_whitney"] == [
        {"coeff": "1", "exponents": [0]},
        {"coeff": "1", "exponents": [1]},
        {"coeff": "1", "exponents": [2]},
    ]


def test_ring_command_modular(tower_file, capsys):
    h3 = tower_file("h3.json", hirzebruch(3))
    code, out, _ = run_cli(capsys, "--json", "ring", h3, "--mod", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["domain"] == "Z/2"
    assert obj["graded_ranks"] == [1, 2, 1]
    # 3 y1 y2 reduces to y1 y2 mod 2 in the stage-2 relation
    assert {"coeff": "1", "exponents": [1, 1]} in obj["relations"][1]


def test_ring_command_rational(tower_file, capsys, rng):
    # the relations are monic with integer coefficients, so the ring over Q
    # prints as the ring over Z with the label Q; each relation is the
    # leading power plus the normal form, by sympy, of the rest of
    # y_i prod_rows (y_i + row . y)
    towers = [hirzebruch(1), validate_tower([(1, []), (2, [[1], [3]]), (1, [[2, -1]])])]
    towers += [random_tower(rng, max_height=3, max_dim=2) for _ in range(4)]
    for k, tower in enumerate(towers):
        path = tower_file(f"t{k}.json", tower)
        for fmt, z, q in (([], "domain: Z", "domain: Q"),
                          (["--json"], '"domain":"Z"', '"domain":"Q"')):
            code, out_z, _ = run_cli(capsys, *fmt, "ring", path)
            assert code == 0 and out_z.count(z) == 1
            code, out_q, _ = run_cli(capsys, *fmt, "ring", path, "--rational")
            assert code == 0
            assert out_q == out_z.replace(z, q), tower
        relations = json.loads(out_q)["relations"]
        for i, n in enumerate(tower.dims, start=1):
            lead = tuple(n + 1 if j == i - 1 else 0 for j in range(tower.height))
            rest = sympy_relation(tower, i)
            assert rest.pop(lead) == 1
            expected = {lead: 1, **sympy_normal_form(tower, rest)}
            got = {tuple(t["exponents"]): int(t["coeff"]) for t in relations[i - 1]}
            assert got == expected, (tower, i)


def test_classify3_and_bound_flag(tower_file, capsys):
    t1 = tower_file("t1.json", validate_tower([(1, []), (1, [[1]]), (1, [[0, 0]])]))
    t2 = tower_file("t2.json", validate_tower([(1, []), (1, [[3]]), (1, [[0, 0]])]))
    code, out, _ = run_cli(capsys, "--json", "classify3", t1, t2, "--bound", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "DIFFEOMORPHIC"
    assert obj["bound"] == 3
    code, out, _ = run_cli(capsys, "classify3", t1, t2, "--bound", "0")
    assert code == 1
    assert out == "UNKNOWN at search bound 0\n"


def test_iso_search_command(tower_file, capsys):
    h1 = tower_file("h1.json", hirzebruch(1))
    h3 = tower_file("h3.json", hirzebruch(3))
    code, out, _ = run_cli(capsys, "--json", "iso-search", h1, h3, "--bound", "3")
    assert code == 0
    assert json.loads(out)["witness"]["matrix"] == [[-1, -2], [1, 3]]
    h2 = tower_file("h2.json", hirzebruch(2))
    code, out, _ = run_cli(capsys, "--json", "iso-search", h1, h2, "--bound", "2")
    assert code == 1


def test_negative_bound_exit_2(tower_file, capsys):
    h1 = tower_file("h1.json", hirzebruch(1))
    code, out, err = run_cli(capsys, "--json", "iso-search", h1, h1, "--bound", "-2")
    assert (code, out) == (2, "")
    assert "bound" in err
    b = tower_file("b.json", bott_tower_3(1, 1, 1))
    code, out, err = run_cli(capsys, "--json", "classify3", b, b, "--bound", "-1")
    assert (code, out) == (2, "")
    assert "bound" in err


@pytest.mark.parametrize("mod", ["0", "1", "-3"])
def test_invalid_mod_exit_2(tower_file, capsys, mod):
    h1 = tower_file("h1.json", hirzebruch(1))
    code, out, err = run_cli(capsys, "--json", "ring", h1, "--mod", mod)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "modulus" in err
    assert "Traceback" not in err


def test_out_of_memory_exit_2(tower_file, capsys, monkeypatch):
    # a ring too large for memory ends in an error line and exit 2, not in
    # a traceback
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "build_ring", exhausted)
    h1 = tower_file("h1.json", hirzebruch(1))
    code, out, err = run_cli(capsys, "--json", "ring", h1)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "memory" in err
    assert "Traceback" not in err


def test_bundle_trivial_command(tmp_path, capsys):
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"base_dims": [1, 1, 1], "exponents": [[1, 0, 0], [-1, 0, 0]]}))
    code, out, _ = run_cli(capsys, "--json", "bundle-trivial", str(path))
    assert code == 0
    assert json.loads(out) == {"trivial": True, "zero_column_trace": [2]}

    path2 = tmp_path / "nb.json"
    path2.write_text(json.dumps({"base_dims": [1, 1], "exponents": [[1, 1], [-1, -1]]}))
    code, out, _ = run_cli(capsys, "--json", "bundle-trivial", str(path2))
    assert code == 1
    assert json.loads(out)["trivial"] is False


def test_json_output_roundtrips_byte_identical(tower_file, capsys):
    h2 = tower_file("h2.json", hirzebruch(2))
    for argv in (
        ["--json", "classes", h2],
        ["--json", "ring", h2],
        ["--json", "is-product", h2],
    ):
        _, out, _ = run_cli(capsys, *argv)
        line = out.strip()
        assert canonical_json(json.loads(line)) == line


@st.composite
def small_towers(draw):
    stages = []
    for i in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 2))
        stages.append((n, [[draw(st.integers(-2, 2)) for _ in range(i)]
                           for _ in range(n)]))
    return validate_tower(stages)


@st.composite
def json_invocations(draw):
    """One `--json` invocation of `classes`, `ring` (Z, Z/n or Q) or
    `iso-search` (a tower against itself, its dual top stage or another
    tower) on small towers."""
    t = draw(small_towers())
    command = draw(st.sampled_from(["classes", "ring", "iso-search"]))
    if command == "classes":
        return command, [t], []
    if command == "ring":
        extra = draw(st.sampled_from(
            [[], ["--rational"], ["--mod", "2"], ["--mod", "4"]]))
        return command, [t], extra
    tp = draw(st.sampled_from(
        [t, t.replace_stage(t.height, dualize_stage(t.stages[-1])),
         draw(small_towers())]))
    return command, [t, tp], ["--bound", str(draw(st.integers(0, 2)))]


@settings(max_examples=60, deadline=None)
@given(json_invocations())
def test_json_stdout_round_trips_property(case):
    command, towers, extra = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, tower in enumerate(towers):
            path = Path(tmp) / f"t{k}.json"
            path.write_text(json.dumps(tower.to_obj()))
            paths.append(str(path))
        out = StringIO()
        with redirect_stdout(out):
            code = main(["--json", command, *paths, *extra])
    assert code in (0, 1)
    text = out.getvalue()
    assert text.endswith("\n") and text.count("\n") == 1
    assert canonical_json(json.loads(text)) + "\n" == text


def test_malformed_input_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run_cli(capsys, "ring", str(bad))
    assert code == 2
    assert "line" in err

    shape = tmp_path / "shape.json"
    shape.write_text(json.dumps({"stages": [{"fiber_dim": 2, "summands": [[1]]}]}))
    code, _, err = run_cli(capsys, "ring", str(shape))
    assert code == 2
    assert "stage 1" in err

    code, _, err = run_cli(capsys, "ring", str(tmp_path / "missing.json"))
    assert code == 2


@pytest.mark.parametrize(
    "command, content",
    [
        ("ring", json.dumps([{"fiber_dim": 1, "summands": 5}]).encode()),
        ("ring", json.dumps([{"fiber_dim": 1, "summands": [5]}]).encode()),
        ("bundle-trivial", json.dumps({"base_dims": [1], "exponents": [5]}).encode()),
        ("ring", b'{"stages": [\xff]}'),
        ("bundle-trivial", b"\xc3\x28"),
    ],
    ids=["matrix-not-list", "row-not-list", "bundle-row-not-list", "tower-not-utf8", "bundle-not-utf8"],
)
def test_malformed_file_exit_2(tmp_path, capsys, command, content):
    path = tmp_path / "in.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "--json", command, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, extra",
    [("ring", []), ("classes", []), ("is-product", []), ("bundle-trivial", []),
     ("classify2", ["in.json"]), ("classify3", ["in.json"]),
     ("iso-search", ["in.json", "--bound", "1"])],
)
def test_deeply_nested_json_exit_2(tmp_path, capsys, command, extra, monkeypatch):
    # json.loads recurses once per nesting level
    monkeypatch.chdir(tmp_path)
    Path("in.json").write_text("[" * 100000 + "]" * 100000)
    code, out, err = run_cli(capsys, "--json", command, "in.json", *extra)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "nested" in err
    assert "Traceback" not in err


def test_integers_beyond_the_str_digit_limit(tmp_path, capsys):
    # towers hold exact integers: a 5000-digit entry reads, and c_2 = X^2
    # y1^2 with X = 10^3000 prints in 6001 digits; the interpreter's digit
    # limit is back in place once main returns
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    big_in = tmp_path / "big_in.json"
    big_in.write_text(
        '{"stages":[{"fiber_dim":1,"summands":[]},'
        '{"fiber_dim":2,"summands":[[0],[1%s]]}]}' % ("0" * 4999))
    code, out, err = run_cli(capsys, "--json", "is-product", str(big_in))
    assert (code, err) == (1, "")
    assert "1" + "0" * 4999 in out
    x = "1" + "0" * 3000
    big_out = tmp_path / "big_out.json"
    big_out.write_text(
        '{"stages":[{"fiber_dim":2,"summands":[]},'
        '{"fiber_dim":2,"summands":[[%s],[%s]]}]}' % (x, x))
    for command, want, digits in (
        ("ring", 0, 6001), ("classes", 0, 6001), ("is-product", 1, 3001)
    ):
        for argv in (["--json", command], [command]):
            code, out, err = run_cli(capsys, *argv, str(big_out))
            assert (code, err) == (want, "")
            assert re.search(r"\d{%d}" % digits, out)
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_rank_over_the_limit_exits_2(tmp_path, capsys):
    # ring, classes and iso-search refuse a ring of rank 2^1100 before
    # building it, and basis(1) of that ring enumerates its 1100 monomials
    # without recursing
    tower = validate_tower([(1, [[0] * i]) for i in range(1100)])
    path = str(tmp_path / "tall.json")
    Path(path).write_text(json.dumps(tower.to_obj()))
    for command in (["ring", path], ["classes", path],
                    ["iso-search", path, path, "--bound", "0"]):
        for argv in (["--json", *command], command):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == f"error: ring rank {2 ** 1100} is over the limit 4096\n"
    assert cli.MAX_RANK == 4096
    basis = build_ring(tower).basis(1)
    assert basis == tuple((0,) * (1099 - j) + (1,) + (0,) * j for j in range(1100))


def test_rank_limit_is_inclusive(tower_file, capsys):
    at = tower_file("at.json", product_tower((1,) * 12))
    over = tower_file("over.json", product_tower((1,) * 11 + (2,)))
    code, out, err = run_cli(capsys, "--json", "ring", at)
    assert (code, err) == (0, "")
    assert sum(json.loads(out)["graded_ranks"]) == 4096
    code, out, err = run_cli(capsys, "--json", "ring", over)
    assert (code, out, err) == (2, "", "error: ring rank 6144 is over the limit 4096\n")
