"""End-to-end checks of the command line interface.

Everything but the memory-limit check goes through main(argv)
in-process; stdout is captured and parsed back, so these double as
determinism checks on the JSON layer.  The memory-limit check runs in a
subprocess, since the limit must never apply to the test process.
"""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from graphhom.catalog import (
    braid_closure,
    handcuff,
    hopf_handcuff,
    hopf_positive,
    theta,
    trefoil_right,
)
from graphhom.cli import LOOP_CAP, main
from graphhom.graph_homology import SKIP_GRID


def run_cli(argv, stdin_text=None, capsys=None):
    if stdin_text is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            code = main(argv)
        finally:
            sys.stdin = old
    else:
        code = main(argv)
    out = capsys.readouterr().out if capsys else ""
    return code, out


# Every subcommand that reads a diagram, with its required flags.
COMPUTE_COMMANDS = [
    ["validate"],
    ["family"],
    ["invariants"],
    ["khovanov"],
    ["floer"],
    ["graph-homology"],
    ["moves", "--seed", "0"],
]


@pytest.fixture
def tref_path(tmp_path):
    p = tmp_path / "tref.json"
    p.write_text(json.dumps(trefoil_right().to_json()))
    return str(p)


@pytest.fixture
def handcuff_path(tmp_path):
    p = tmp_path / "handcuff.json"
    p.write_text(json.dumps(handcuff().to_json()))
    return str(p)


def test_validate_reports_counts(tref_path, capsys):
    code, out = run_cli(["validate", tref_path], capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] and doc["link"] and doc["crossings"] == 3
    assert doc["components"] == 1


def test_validate_rejects_arc_multiplicity(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"crossings": [[0, 0, 0, 1]], "vertices": []}))
    code = main(["validate", str(p)])
    err = capsys.readouterr().err
    assert code == 2
    assert "arc multiplicity" in err


def test_malformed_json_exit_two_with_position(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"crossings": [[0,1,2')
    code = main(["family", str(p)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 1" in err and "column" in err


# Documents that ``json.loads`` itself rejects past its syntax errors.
UNPARSABLE_DOCUMENTS = {
    "nested_100000_deep": b"[" * 100_000 + b"]" * 100_000,
    "not_utf8": b'{"crossings": [], "loops": 1, "name": "\xff\xfe"}',
    "integer_over_4300_digits": b'{"loops": ' + b"1" * 5000 + b"}",
}


@pytest.mark.parametrize("command", COMPUTE_COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("name", list(UNPARSABLE_DOCUMENTS))
def test_unparsable_document_exit_two(command, name, tmp_path, capsys):
    p = tmp_path / "doc.json"
    p.write_bytes(UNPARSABLE_DOCUMENTS[name])
    code = main([command[0], str(p), *command[1:]])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and err.count("\n") == 1
    assert str(p) in err and "Traceback" not in err


HOPF = '{"crossings": [[0, 2, 3, 1], [2, 0, 1, 3]]'


@pytest.mark.parametrize("command", COMPUTE_COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize(
    "text",
    [
        "[]",
        "null",
        '{"loops": 1e400}',
        '{"orientations": [1]}',
        "{}",
        '{"loops": 0}',
        '{"crossings": [[]]}',
        '{"crossings": [{}]}',
        '{"crossings": [[0, 0]]}',
        # the trefoil with one field that int() would have coerced
        '{"crossings": [[0, 2, 3, 1], [2, 4, 5, 3], [4, 0, 1, 5]], "loops": 1.5}',
        '{"crossings": [[0, 2, 3, 1.7], [2, 4, 5, 3], [4, 0, 1, 5]]}',
        '{"crossings": [[0, 2, 3, true], [2, 4, 5, 3], [4, 0, 1, 5]]}',
        '{"crossings": [[0, 2, 3, "1"], [2, 4, 5, 3], [4, 0, 1, 5]]}',
        '{"crossings": [[0, 2, 3, 1], [2, 4, 5, 3], [4, 0, 1, 5]], "orientations": {"0": 0}}',
        # the positive Hopf link with orientation keys that int() would
        # have read as arcs, so that an arc could be oriented twice
        HOPF + ', "orientations": {"00": 1, "0": -1, "03": -1, "3": 1}}',
        HOPF + ', "orientations": {"0": -1, "00": 1, "3": 1, "03": -1}}',
        HOPF + ', "orientations": {"+3": 1}}',
        HOPF + ', "orientations": {" 2": 1}}',
        HOPF + ', "orientations": {"0_2": 1}}',
    ],
    ids=[
        "list",
        "null",
        "huge_loops",
        "orientation_list",
        "empty",
        "no_loops",
        "empty_crossing",
        "object_crossing",
        "two_slot_crossing",
        "float_loops",
        "float_arc",
        "bool_arc",
        "string_arc",
        "zero_orientation",
        "padded_key_last",
        "padded_key_first",
        "signed_key",
        "spaced_key",
        "underscored_key",
    ],
)
def test_non_diagram_document_exit_two(command, text, tmp_path, capsys):
    p = tmp_path / "doc.json"
    p.write_text(text)
    code = main([command[0], str(p), *command[1:]])
    err = capsys.readouterr().err
    assert code == 2
    assert "invalid diagram" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", COMPUTE_COMMANDS, ids=lambda c: c[0])
def test_loops_over_cap_exit_two(command, tmp_path, capsys):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps({"loops": LOOP_CAP + 1}))
    code = main([command[0], str(p), *command[1:]])
    err = capsys.readouterr().err
    assert code == 2
    assert "LOOP_CAP" in err and "Traceback" not in err


def test_loops_at_cap_are_valid(tmp_path, capsys):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps({"loops": LOOP_CAP}))
    code, out = run_cli(["validate", str(p)], capsys=capsys)
    assert code == 0
    assert json.loads(out)["components"] == LOOP_CAP


def test_khovanov_trefoil_with_loops_at_cap_is_fast(tmp_path, capsys):
    # Loops factor out of the resolution cube, so a knotted diagram with
    # LOOP_CAP loops costs one small cube plus one tensor factor per loop.
    doc = trefoil_right().to_json()
    doc["loops"] = LOOP_CAP
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out = run_cli(["khovanov", str(p), "--check-euler"], capsys=capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(out)["euler_check"] == "pass"


@pytest.mark.parametrize("raw", ["12x", "abc"])
def test_max_mem_that_is_not_a_byte_count_exits_two(raw, tref_path, monkeypatch, capsys):
    # Both values fail to parse before setrlimit, so this process is never limited.
    monkeypatch.setenv("GRAPHHOM_MAX_MEM", raw)
    code = main(["validate", tref_path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "GRAPHHOM_MAX_MEM" in captured.err and "not a byte count" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "command",
    [
        ["validate"],
        ["family"],
        ["invariants"],
        ["khovanov"],
        ["graph-homology"],
        ["moves", "--seed", "0"],
    ],
    ids=lambda c: c[0],
)
def test_grid_document_is_not_a_diagram(command, tmp_path, capsys):
    p = tmp_path / "grid.json"
    p.write_text('{"n": 2, "X": [1, 0], "O": [0, 1]}')
    code = main([command[0], str(p), *command[1:]])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown keys" in err
    assert "Traceback" not in err


def test_orientation_key_is_named(tmp_path, capsys):
    p = tmp_path / "doc.json"
    p.write_text(HOPF + ', "orientations": {"00": 1, "0": -1, "03": -1, "3": 1}}')
    code = main(["invariants", str(p)])
    assert code == 2
    assert "invalid diagram: orientation key '00' is not an arc id" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,unknown",
    [
        # the 2x2 unknot grid with the Hopf link's crossings beside it
        ('{"n": 2, "X": [1, 0], "O": [0, 1], "crossings": [[0, 2, 3, 1], [2, 0, 1, 3]], "loops": 0}',
         "'crossings', 'loops'"),
        ('{"n": 2, "X": [1, 0], "O": [0, 1], "comment": "x"}', "'comment'"),
    ],
    ids=["diagram_keys", "comment"],
)
def test_grid_document_with_other_keys_exit_two(text, unknown, tmp_path, capsys):
    p = tmp_path / "grid.json"
    p.write_text(text)
    code = main(["floer", str(p)])
    out, err = capsys.readouterr()
    assert code == 2
    assert f"invalid grid: unknown keys {unknown}" in err
    assert out == "" and "Traceback" not in err


def test_grid_document_with_boolean_columns_exit_two(tmp_path, capsys):
    p = tmp_path / "grid.json"
    p.write_text('{"n": 2, "X": [true, false], "O": [false, true]}')
    code = main(["floer", str(p)])
    out, err = capsys.readouterr()
    assert code == 2
    assert "invalid grid: grid payload fields n, X and O must be" in err
    assert out == "" and "Traceback" not in err


@pytest.mark.parametrize("command", COMPUTE_COMMANDS, ids=lambda c: c[0])
def test_nonplanar_pd_exit_two(command, tmp_path, capsys):
    # two crossings, structurally sound, but 2 faces where Euler's
    # formula wants 4; before the planarity check some commands answered
    p = tmp_path / "nonplanar.json"
    p.write_text('{"crossings": [[0, 1, 2, 3], [2, 0, 3, 1]]}')
    code = main([command[0], str(p), *command[1:]])
    out, err = capsys.readouterr()
    assert code == 2
    assert "not planar" in err
    assert out == "" and "Traceback" not in err


# (diagram, argv without the path, the bad value as stderr names it)
BAD_OPTION_VALUES = [
    (theta, ["moves", "--seed", "1", "--kinds", "R9"], "'R9'"),
    (theta, ["moves", "--seed", "1", "--kinds", ","], "','"),
    (theta, ["moves", "--seed", "1", "--kinds", ""], "['']"),
    (theta, ["moves", "--seed", "1", "--count", "-3"], "-3"),
    (theta, ["moves", "--seed", "1", "--budget", "-3"], "-3"),
    (theta, ["family", "--max-assignments", "-1"], "-1"),
    (trefoil_right, ["floer", "--max-grid", "-1"], "-1"),
    (trefoil_right, ["khovanov", "--max-crossings", "-1"], "-1"),
    (theta, ["graph-homology", "--max-grid", "-1"], "-1"),
    (theta, ["graph-homology", "--max-crossings", "-2"], "-2"),
]


@pytest.mark.parametrize(
    "diagram,argv,named", BAD_OPTION_VALUES, ids=[" ".join(a) for _, a, _ in BAD_OPTION_VALUES]
)
def test_bad_option_value_exit_two(diagram, argv, named, tmp_path, capsys):
    p = tmp_path / "d.json"
    p.write_text(json.dumps(diagram().to_json()))
    try:
        code = main([argv[0], str(p), *argv[1:]])
    except SystemExit as exc:  # argparse rejects a bad value itself
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert named in err
    assert out == "" and "Traceback" not in err


def test_missing_file_exit_two(capsys):
    code, _ = run_cli(["validate", "/nonexistent/x.json"], capsys=capsys)
    assert code == 2


def test_family_output_matches_library(handcuff_path, capsys):
    from graphhom.kauffman import family

    code, out = run_cli(["family", handcuff_path], capsys=capsys)
    assert code == 0
    assert json.loads(out) == json.loads(
        json.dumps(family(handcuff()).to_json(), sort_keys=True)
    )


def test_output_is_deterministic(handcuff_path, capsys):
    _, first = run_cli(["family", handcuff_path], capsys=capsys)
    _, second = run_cli(["family", handcuff_path], capsys=capsys)
    assert first == second


def test_invariants_fields(tref_path, capsys):
    code, out = run_cli(["invariants", tref_path], capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {
        "alexander",
        "components",
        "conway",
        "determinant",
        "jones",
        "reduced_crossings",
    }
    assert doc["determinant"] == 3


def test_invariants_rejects_graphs(handcuff_path, capsys):
    code, _ = run_cli(["invariants", handcuff_path], capsys=capsys)
    assert code == 2


def test_khovanov_euler_check_passes(tref_path, capsys):
    code, out = run_cli(["khovanov", tref_path, "--check-euler"], capsys=capsys)
    assert code == 0
    assert json.loads(out)["euler_check"] == "pass"


def test_khovanov_cap_skip_exits_one(tref_path, capsys):
    code, out = run_cli(["khovanov", tref_path, "--max-crossings", "2"], capsys=capsys)
    assert code == 1
    assert "skipped" in json.loads(out)["skip"]


def test_floer_accepts_link_and_grid(tref_path, tmp_path, capsys):
    code, out = run_cli(["floer", tref_path], capsys=capsys)
    assert code == 0
    link_doc = json.loads(out)
    assert link_doc["euler_check"]["verdict"] == "pass"

    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(link_doc["grid"]))
    code, out = run_cli(["floer", str(grid)], capsys=capsys)
    assert code == 0
    grid_doc = json.loads(out)
    assert grid_doc["source"] == "grid"
    assert grid_doc["hat"] == link_doc["hat"]


def test_floer_routing_failure_exits_one_without_traceback(tref_path, monkeypatch, capsys):
    from test_grid import mirror_braid_words

    mirror_braid_words(monkeypatch)
    code = main(["floer", tref_path])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: extracted braid closure presents a different link\n"


def test_floer_cap_skip_exits_one(tref_path, capsys):
    code, out = run_cli(["floer", tref_path, "--max-grid", "2"], capsys=capsys)
    assert code == 1
    assert "skipped" in json.loads(out)["skip"]


def test_floer_eight_component_link_skips_on_grid_cap(tmp_path, capsys):
    # The closure of s1^2 s2^2 ... s7^2 has 8 components, past the
    # fingerprint's orientation cap; grid conversion checks its braid in
    # the given orientation, so only the grid cap stops it.
    p = tmp_path / "link.json"
    word = [g for i in range(1, 8) for g in (i, i)]
    p.write_text(json.dumps(braid_closure(word, 8).to_json()))
    code = main(["floer", str(p)])
    captured = capsys.readouterr()
    assert code == 1
    doc = json.loads(captured.out)
    assert doc["components"] == 8
    assert doc["skip"] == SKIP_GRID
    assert "orientation cap" not in captured.err


def test_graph_homology_full_and_summary(handcuff_path, capsys):
    code, out = run_cli(["graph-homology", handcuff_path], capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdicts"] == {"floer_euler": "pass", "khovanov_euler": "pass"}
    assert doc["distinct_members"] == 2

    code, out = run_cli(["graph-homology", handcuff_path, "--summary"], capsys=capsys)
    assert code == 0
    summary = json.loads(out)
    assert summary["floer_poincare"] == {"-1,0": 1, "0,0": 1, "1,0": 1}


def test_graph_homology_skip_exits_one(tmp_path, capsys):
    # The cap bounds the largest split piece of a member: the handcuff's
    # pieces are all unknots (n = 2), the hopf handcuff's Hopf link needs n = 4.
    p = tmp_path / "hh.json"
    p.write_text(json.dumps(hopf_handcuff().to_json()))
    code, out = run_cli(
        ["graph-homology", str(p), "--floer", "--max-grid", "3"], capsys=capsys
    )
    assert code == 1
    assert json.loads(out)["verdicts"]["floer_euler"] == "partial"


def test_moves_pipe_into_family(tmp_path, capsys):
    p = tmp_path / "hh.json"
    p.write_text(json.dumps(hopf_handcuff().to_json()))
    code, moved = run_cli(
        ["moves", str(p), "--seed", "7", "--count", "20"], capsys=capsys
    )
    assert code == 0
    code, fam_moved = run_cli(["family", "-"], stdin_text=moved, capsys=capsys)
    assert code == 0
    _, fam_orig = run_cli(["family", str(p)], capsys=capsys)

    def fps(text):
        return sorted(
            json.dumps(m["fingerprint"], sort_keys=True)
            for m in json.loads(text)["members"]
        )

    assert fps(fam_moved) == fps(fam_orig)


def test_moves_same_seed_same_output(tref_path, capsys):
    _, first = run_cli(["moves", tref_path, "--seed", "3", "--count", "12"], capsys=capsys)
    _, second = run_cli(["moves", tref_path, "--seed", "3", "--count", "12"], capsys=capsys)
    assert first == second


def test_census_passes_and_lists(capsys):
    code, out = run_cli(["census", "--list"], capsys=capsys)
    assert code == 0
    names = json.loads(out)["entries"]
    assert {"unknot", "hopf_positive", "trefoil_right", "figure_eight",
            "handcuff", "hopf_handcuff", "theta"} <= set(names)

    code, out = run_cli(["census"], capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert all(e["status"] == "pass" for e in doc["entries"])


def test_census_dump_is_valid_diagram(capsys):
    code, out = run_cli(["census", "--dump", "theta"], capsys=capsys)
    assert code == 0
    assert json.loads(out) == json.loads(json.dumps(theta().to_json()))


def test_census_dump_of_empty_name_exit_two(capsys):
    code = main(["census", "--dump", ""])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and "unknown census entry ''" in err


@pytest.mark.parametrize(
    "flags",
    [["--list", "--dump", "unknot"], ["--list", "--write-golden"], ["--dump", "unknot", "--write-golden"]],
    ids=["list+dump", "list+write-golden", "dump+write-golden"],
)
def test_census_flags_are_mutually_exclusive(flags, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", *flags])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == "" and "not allowed with argument" in err


def test_memory_limit_hit_mid_run_exits_one_with_one_line(tmp_path):
    # 16m is below the interpreter's own address space; ``main`` applies the
    # limit after start-up, so only the Khovanov run of the (s1 s2^-1)^5
    # closure, which must map more memory, hits it.
    p = tmp_path / "link.json"
    p.write_text(json.dumps(braid_closure([1, -2] * 5, 3).to_json()))
    proc = subprocess.run(
        [sys.executable, "-m", "graphhom.cli", "khovanov", str(p)],
        env={**os.environ, "GRAPHHOM_MAX_MEM": "16m"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: out of memory under GRAPHHOM_MAX_MEM=16m\n"


def test_stdin_dash(capsys):
    text = json.dumps(hopf_positive().to_json())
    code, out = run_cli(["invariants", "-"], stdin_text=text, capsys=capsys)
    assert code == 0
    assert json.loads(out)["components"] == 2


# Small numbers only: a document with many loops is a valid unlink whose
# Khovanov and graph homology take exponential time.  Only "loops" also
# draws large counts, which must hit LOOP_CAP.
_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(-3, 3)
    | st.text(alphabet="01ab", max_size=2)
)
_json = st.recursive(
    _leaves,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(alphabet="01ab", max_size=2), kids, max_size=3),
    max_leaves=8,
)
_short_crossings = st.lists(st.lists(st.integers(0, 3), max_size=5), max_size=3)
json_shapes = _json | st.fixed_dictionaries(
    {},
    optional={
        "crossings": _json | _short_crossings,
        "vertices": _json | _short_crossings,
        "loops": _json | st.integers(0, 10**5),
        "orientations": _json,
    },
)


@st.composite
def pd_codes(draw):
    """A link PD code with 0-3 crossings: every arc label sits in exactly
    two slots, but orientations and planarity are left to chance.  The
    loop count is small or over LOOP_CAP."""
    n = draw(st.integers(0, 3))
    labels = draw(st.permutations([a for a in range(2 * n) for _ in (0, 1)]))
    crossings = [labels[4 * i:4 * i + 4] for i in range(n)]
    loops = draw(st.integers(0, 2) | st.integers(LOOP_CAP + 1, 10**5))
    return {"crossings": crossings, "loops": loops}


def planar(crossings):
    """Euler's formula F = E - V + 2C on the rotation system of 4-valent
    crossings, faces being orbits of next-slot-after-partner."""
    where = {}
    for i, c in enumerate(crossings):
        for s, a in enumerate(c):
            where.setdefault(a, []).append((i, s))

    def partner(d):
        e1, e2 = where[crossings[d[0]][d[1]]]
        return e2 if d == e1 else e1

    darts = {(i, s) for i in range(len(crossings)) for s in range(4)}
    faces = 0
    while darts:
        faces += 1
        d = darts.pop()
        while True:
            i, s = partner(d)
            d = (i, (s + 1) % 4)
            if d not in darts:
                break
            darts.remove(d)
    piece = list(range(len(crossings)))

    def root(i):
        while piece[i] != i:
            i = piece[i]
        return i

    for (i, _), (j, _) in where.values():
        piece[root(i)] = root(j)
    pieces = len({root(i) for i in range(len(crossings))})
    return faces == len(crossings) + 2 * pieces


def run_on_stdin(argv, text):
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old
    return code, out.getvalue(), err.getvalue()


FUZZ = settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def assert_exits_cleanly(doc):
    """Every compute subcommand exits 0, 1 or 2 without a traceback, and
    2 on a PD code that is not planar or on more loops than LOOP_CAP."""
    text = json.dumps(doc)
    too_many_loops = (
        isinstance(doc, dict)
        and isinstance(doc.get("loops"), int)
        and doc["loops"] > LOOP_CAP
    )
    nonplanar = (
        isinstance(doc, dict)
        and set(doc) == {"crossings", "loops"}
        and isinstance(doc["loops"], int)
        and all(isinstance(c, list) and len(c) == 4 for c in doc["crossings"])
        and not planar(doc["crossings"])
    )
    for command in COMPUTE_COMMANDS:
        code, _, err = run_on_stdin([command[0], "-", *command[1:]], text)
        assert code in (0, 1, 2), (command, text, err)
        assert "Traceback" not in err
        if nonplanar or too_many_loops:
            assert code == 2, (command, text, err)


@FUZZ
@given(doc=json_shapes)
def test_cli_fuzz_json_shapes(doc):
    assert_exits_cleanly(doc)


@FUZZ
@given(doc=pd_codes())
def test_cli_fuzz_pd_codes(doc):
    assert_exits_cleanly(doc)
