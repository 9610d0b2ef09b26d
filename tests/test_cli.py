import json
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bottcoh import (
    bott_tower_3,
    dualize_stage,
    hirzebruch,
    product_tower,
    validate_tower,
)
from bottcoh import cli
from bottcoh.cli import canonical_json, main


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


def test_ring_command_rational(tower_file, capsys):
    h1 = tower_file("h1.json", hirzebruch(1))
    code, out, _ = run_cli(capsys, "--json", "ring", h1, "--rational")
    assert code == 0
    assert json.loads(out)["domain"] == "Q"


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
