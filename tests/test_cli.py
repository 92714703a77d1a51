"""Command-line surface: exit codes, report text, JSON payloads."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import plasti
from plasti import cli
from plasti.classify import Verdict, WitnessVerification
from plasti.cli import main
from plasti.extend import AxiomReport, DistanceMatrix, RestrictionReport, Shrinkage
from plasti.maps import CheckReport
from plasti.oracle import PlasticVerdict, StrongPlasticVerdict
from plasti.space import DEFAULT_WINDOW


INTEGERS = (
    "arith: anchor=0 step=1 dir=both\n"
    "meta: bounded-below=unbounded\n"
    "meta: bounded-above=unbounded\n"
)
GROWING = "arith: anchor=0 step=1 dir=left\narith: anchor=2 step=2 dir=right\n"
HALFOPEN = "periodic: len=1 gap=1 anchor=0 topo=left-closed dir=both\n"
IDENTITY = "piece: dom=(-inf,+inf) slope=1 icpt=0\n"
SHIFT = "piece: dom=(-inf,+inf) slope=1 icpt=1\n"
SQUEEZE = "piece: dom=(-inf,+inf) slope=1/2 icpt=0\n"
MATRIX = "labels: a=inner(0) b=inner(10) p=outer\nx0: a\nrow: 10 1\nrow: 1\n"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


# -------------------------------------------------------------------
# check
# -------------------------------------------------------------------


def test_check_isometry_passes(files, capsys):
    code = main(
        ["check", "--space", files("s.sp", INTEGERS), "--map", files("m.mp", IDENTITY),
         "--which", "isometry"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "[pass]" in out


def test_check_isometry_failure_exits_one(files, capsys):
    code = main(
        ["check", "--space", files("s.sp", INTEGERS), "--map", files("m.mp", SQUEEZE),
         "--which", "isometry"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL]" in out


def test_check_json_payload(files, capsys):
    code = main(
        ["check", "--space", files("s.sp", INTEGERS), "--map", files("m.mp", SQUEEZE),
         "--which", "nonexpansive", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["check"] == "nonexpansive"
    assert payload["passed"] is True


def test_check_bijection_without_inverse_is_a_usage_error(files, capsys):
    code = main(
        ["check", "--space", files("s.sp", INTEGERS), "--map", files("m.mp", SHIFT),
         "--which", "bijection"]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "inverse" in err


def test_check_lipschitz_reports_a_bound(files, capsys):
    code = main(
        ["check", "--space", files("s.sp", INTEGERS), "--map", files("m.mp", SQUEEZE),
         "--which", "lipschitz"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "1/2" in out


def test_check_custom_window(files, capsys):
    code = main(
        ["check", "--space", files("s.sp", INTEGERS), "--map", files("m.mp", IDENTITY),
         "--which", "endo", "--window=-3..3"]
    )
    assert code == 0
    assert "[pass]" in capsys.readouterr().out


# -------------------------------------------------------------------
# classify
# -------------------------------------------------------------------


def test_classify_prints_the_verdict_and_witness(files, capsys):
    code = main(["classify", "--space", files("s.sp", GROWING)])
    out = capsys.readouterr().out
    assert code == 0
    assert "not-plastic" in out
    assert "R1" in out
    assert "witness map:" in out
    assert "idxshift:" in out


def test_classify_json_shape(files, capsys):
    code = main(["classify", "--space", files("s.sp", GROWING), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcome"] == "not-plastic"
    assert payload["rule"] == "R1"
    assert payload["witness"].startswith("idxshift:")
    assert payload["witness_verification"]["valid"] is True
    # first match wins: the trace stops at the rule that fired
    assert [t["rule"] for t in payload["trace"]] == ["R0", "R1"]
    assert payload["trace"][-1]["matched"] is True


def test_classify_unknown_lists_falsification_attempts(files, capsys):
    space = (
        "gapseq: anchor=0 left=alt(recip(n+0),affine(1n+1))"
        " right=alt(recip(n+0),affine(1n+1))\n"
        "meta: accum=none\n"
        "meta: bounded-below=unbounded\n"
        "meta: bounded-above=unbounded\n"
    )
    code = main(["classify", "--space", files("s.sp", space), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcome"] == "unknown"
    assert payload["falsifications"]
    assert all(f["outcome"].startswith("ruled out") for f in payload["falsifications"])


# -------------------------------------------------------------------
# oracle
# -------------------------------------------------------------------


def test_oracle_points_list(capsys):
    code = main(["oracle", "--points", "0,1,3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "plastic" in out
    assert "1" in out


def test_oracle_range_expansion(capsys):
    code = main(["oracle", "--points", "0..4", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["points"] == ["0", "1", "2", "3", "4"]
    assert payload["bijections"] == 2
    assert payload["plastic"] is True


def test_oracle_strong_mode(capsys):
    code = main(["oracle", "--points", "0,1,2", "--strong", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["selfmaps"] == 27
    assert payload["strongly_plastic"] is True


def test_oracle_cap_overflow_is_a_usage_error(capsys):
    code = main(["oracle", "--points", ",".join(str(k) for k in range(11))])
    err = capsys.readouterr().err
    assert code == 2
    assert "cap" in err


def test_oracle_points_reach_the_hard_cap(capsys):
    code = main(["oracle", "--points", "0..6", "--strong", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["points"]) == 7
    assert payload["strongly_plastic"] is True


@pytest.mark.parametrize(
    "args, needle",
    [
        (["0..x"], "integer ends"),
        (["1/0"], "not an exact rational"),
        (["a"], "not an exact rational"),
        (["0..1000000000000000000"], "hard limit of 10"),
        (["0..7", "--strong"], "hard limit of 7"),
    ],
)
def test_oracle_bad_points_exit_two_with_one_line(args, needle, capsys):
    code = main(["oracle", "--points", *args])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("plasti oracle: ") and err.count("\n") == 1
    assert needle in err


def test_oracle_needs_exactly_one_source(files, capsys):
    assert main(["oracle"]) == 2
    capsys.readouterr()
    code = main(["oracle", "--points", "0,1", "--space", files("s.sp", INTEGERS)])
    assert code == 2


def test_oracle_from_space_file(files, capsys):
    code = main(
        ["oracle", "--space", files("s.sp", "points: 0 1 3\n"), "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bijections"] == 1


@pytest.mark.parametrize(
    "text, flags, reason",
    [
        ("points: 0 1 3\ninterval: [5,6]\n", [], "it has interval parts there"),
        ("interval: [5,6]\n", ["--strong"], "it has interval parts there"),
        ("gapseq: anchor=0 right=recipdiff(n+1)\n", ["--window=0..3", "--cap", "3"],
         "it accumulates at 1/2"),
    ],
    ids=["points-and-interval", "interval-only", "truncated-tail"],
)
def test_oracle_refuses_a_window_slice_that_is_not_finite(files, capsys, text, flags, reason):
    code = main(["oracle", "--space", files("s.sp", text), *flags])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("plasti oracle: the space is not a finite set in window ")
    assert err.endswith(f": {reason}\n") and err.count("\n") == 1


# -------------------------------------------------------------------
# plot
# -------------------------------------------------------------------


def test_plot_to_file(files, tmp_path, capsys):
    out_path = tmp_path / "fig.svg"
    code = main(
        ["plot", "--space", files("s.sp", INTEGERS), "--map", files("m.mp", IDENTITY),
         "--window=-3..3", "--out", str(out_path)]
    )
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("<svg")
    assert text.count("<circle") == 7


def test_plot_to_stdout_product_only(files, capsys):
    code = main(["plot", "--space", files("s.sp", INTEGERS), "--window", "0..2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("<svg")
    assert "<circle" not in out


def test_plot_announces_jumps_on_stderr(files, tmp_path, capsys):
    glue = (
        "piece: dom=[0,1) slope=1/2 icpt=0\n"
        "piece: dom=[2,3) slope=1/2 icpt=-1/2\n"
        "piece: dom=(7/2,+inf) slope=1 icpt=-2\n"
        "piece: dom=(-inf,-1/2) slope=1 icpt=0\n"
    )
    code = main(
        ["plot", "--space", files("s.sp", HALFOPEN), "--map", files("m.mp", glue),
         "--out", str(tmp_path / "fig.svg")]
    )
    err = capsys.readouterr().err
    assert code == 0
    assert "jump between x=3 and x=4" in err


# -------------------------------------------------------------------
# gallery
# -------------------------------------------------------------------


def test_gallery_list(capsys):
    code = main(["gallery", "list"])
    out = capsys.readouterr().out
    assert code == 0
    assert "example1:" in out
    assert "unit-interval-grid:" in out


def test_gallery_summary_without_verify(capsys):
    code = main(["gallery", "example2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "junction" in out


def test_gallery_verify_exits_zero_on_green(capsys):
    code = main(["gallery", "unit-interval-grid", "--verify"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[pass]" in out


def test_gallery_unknown_id(capsys):
    code = main(["gallery", "nope"])
    err = capsys.readouterr().err
    assert code == 2
    assert "no gallery entry" in err


@pytest.mark.parametrize(
    "command, reference, message",
    [
        ("check", "missing-entry", "no gallery entry 'missing-entry' (known: example1, example2, "
         "example310, prop31, prop313, prop314-open, rem316-halfopen, rem317-mixed, integers, "
         "r-minus-z, unit-interval-grid)"),
        ("check", "unit-interval-grid", "entry 'unit-interval-grid' needs a map name, one of: "
         "identity, flip"),
        # resolved when the map file is read, so before the window is found empty
        ("plot", "example1:nope", "entry example1 has no map named 'nope'"),
    ],
    ids=["unknown", "ambiguous", "plot"],
)
def test_a_bad_gallery_map_reference_is_one_line(files, capsys, command, reference, message):
    argv = [command, "--space", files("s.sp", "points: 0 1 3\n"),
            "--map", files("m.mp", f"gallery: {reference}\n"), "--window=5..6"]
    assert main(argv + (["--which", "endo"] if command == "check" else [])) == 2
    assert capsys.readouterr().err == f"plasti {command}: {message}\n"


# -------------------------------------------------------------------
# extend
# -------------------------------------------------------------------


def test_extend_paths_reports_shrinkage(files, capsys):
    code = main(["extend", files("m.dm", MATRIX)])
    out = capsys.readouterr().out
    assert code == 0
    assert "shrinks to 2 via a - p - b" in out
    assert "metric axioms: pass" in out


def test_extend_railway_mode(files, capsys):
    code = main(["extend", files("m.dm", MATRIX), "--mode", "railway"])
    out = capsys.readouterr().out
    assert code == 0
    assert "intact" in out


def test_extend_json_payload(files, capsys):
    code = main(["extend", files("m.dm", MATRIX), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "paths"
    assert payload["axioms_pass"] is True
    assert payload["shrinkage"][0]["chain"] == ["a", "p", "b"]


EXTEND_GOLDEN = Path(__file__).parent / "golden" / "extend"


@pytest.mark.parametrize("mode", ["paths", "railway"])
@pytest.mark.parametrize("suffix", ["txt", "json"])
def test_extend_matches_the_golden_output(mode, suffix, capsys):
    # paths.dm shrinks every inner pair, one of them through a four-hop
    # chain; railway.dm puts the inner positions on denominators 3, 4 and 7
    argv = ["extend", str(EXTEND_GOLDEN / f"{mode}.dm"), "--mode", mode]
    assert main(argv + (["--json"] if suffix == "json" else [])) == 0
    assert capsys.readouterr().out.encode() == (EXTEND_GOLDEN / f"{mode}.{suffix}").read_bytes()


# text that needs escaping: quotes, backslashes, controls, non-ASCII, astral
JSON_TEXT = st.text(alphabet=st.sampled_from('ab"\\/\n\t\x00\x1f\x7f é∞✓\U0001d11e'), max_size=6)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=24,
)


@given(JSON_VALUES)
def test_the_json_writer_prints_what_json_dumps_prints(value):
    assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [
    {}, [], [[]], {"a": {}}, [{}, [], ""], {"z": 1, "a": [True, None, -0]},
    ["plain", "é", " ", "tab\tand \"quote\""], [["1/2", "0"], ["0", "1/2"]],
    {"rows": [["1", "2"], []], "empty": [[], {}], "mixed": ["a", 1, None, ["b"]]},
    10 ** 30, "\ud800",
])
def test_the_json_writer_on_edge_shapes(value):
    assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [1.5, {1, 2}, {"a": [Fraction(1, 2)]}, {1: "a"}, b"x"])
def test_the_json_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._json(value)


# -------------------------------------------------------------------
# shared failure shapes
# -------------------------------------------------------------------


def test_parse_errors_are_positioned_and_exit_two(files, capsys):
    bad = files("bad.mp", "piece: dom=[0,1]\n")
    code = main(
        ["check", "--space", files("s.sp", INTEGERS), "--map", bad, "--which", "endo"]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "line 1" in err


def test_missing_file_exits_two(files, capsys):
    code = main(
        ["check", "--space", "/nonexistent.sp", "--map", files("m.mp", IDENTITY),
         "--which", "endo"]
    )
    assert code == 2


def test_bad_window_format_exits_two(files, capsys):
    code = main(
        ["check", "--space", files("s.sp", INTEGERS), "--map", files("m.mp", IDENTITY),
         "--which", "endo", "--window", "oops"]
    )
    assert code == 2


def test_unknown_subcommand_exits_two(capsys):
    assert main(["frobnicate"]) == 2


def test_plot_to_an_unwritable_path_exits_two_with_one_line(files, tmp_path, capsys):
    out = tmp_path / "missing" / "x.svg"
    code = main(["plot", "--space", files("s.sp", INTEGERS), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"plasti plot: cannot write {out}: No such file or directory\n"


def test_plot_refuses_json_with_one_line(files, capsys):
    code = main(["plot", "--space", files("s.sp", INTEGERS), "--json"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == "plasti: unrecognized arguments: --json\n"


def test_a_file_that_is_not_utf8_exits_two_with_one_line(tmp_path, capsys):
    space = tmp_path / "s.sp"
    space.write_bytes(b"points: 0 1 \xe9\n")
    code = main(["classify", "--space", str(space)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"plasti classify: cannot read {space}: byte 12 is not UTF-8\n"


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_a_cap_below_one_is_refused_while_parsing(files, cap, capsys):
    code = main(["classify", "--space", files("s.sp", INTEGERS), "--cap", cap])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"plasti classify: argument --cap: cap must be at least 1, got {cap}\n"


@pytest.mark.parametrize(
    "text",
    [
        "gapseq: anchor=100000 left=const(1)\n",
        "gapseq: anchor=-100000 right=affine(1/100000n+1/2)\n",
        "gapseq: anchor=100000 left=alt(const(1),affine(0n+2))\n",
    ],
    ids=["const", "affine", "alt"],
)
def test_classify_answers_on_a_side_anchored_far_from_the_window(files, text, capsys):
    # more than --cap steps from the anchor to the window, a few dozen members in it
    code = main(["classify", "--space", files("s.sp", text)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out.startswith("verdict: plastic (R2)\n")


@pytest.mark.parametrize(
    "text, cap, message",
    [
        ("gapseq: anchor=100000 left=const(1)\n", "20",
         "gap rule const(1) puts more than 20 points in [-10,10]"),
        ("arith: anchor=1/2 step=1 dir=right\n", "8",
         "gap rule const(1) puts more than 8 points in [-10,10]"),
        ("gapseq: anchor=0 right=recip(n+0)\n", "3",
         "gap rule recip(n+0) did not reach the edge 10 in 3 steps"),
    ],
    ids=["const", "arith", "recip"],
)
def test_a_side_beyond_the_cap_exits_two_with_one_line(files, text, cap, message, capsys):
    code = main(["classify", "--space", files("s.sp", text), "--cap", cap])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"plasti classify: {message}\n"


# -------------------------------------------------------------------
# one parser per process, and only the report asked for
# -------------------------------------------------------------------


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _report_calls(files):
    space = files("s.sp", INTEGERS)
    check = ["check", "--space", space, "--map", files("m.mp", SQUEEZE), "--which", "nonexpansive"]
    calls = [
        check + ["--window=-3..3"],
        check,
        ["classify", "--space", files("g.sp", GROWING)],
        ["oracle", "--points", "0,1,3"],
        ["oracle", "--points", "0,1,2", "--strong"],
        ["gallery", "unit-interval-grid", "--verify"],
        ["extend", files("m.dm", MATRIX)],
        ["extend", files("m.dm", MATRIX), "--mode", "railway"],
    ]
    return [argv + mode for argv in calls for mode in (["--json"], [])]


def test_a_reused_parser_answers_like_a_fresh_one(files):
    helps = [["--help"]] + [[sub, "--help"] for sub in
                            ("check", "classify", "oracle", "plot", "gallery", "extend")]
    usage = [["frobnicate"], ["classify", "--space", files("s.sp", INTEGERS), "--cap", "0"]]
    sequence = helps + usage + _report_calls(files)
    cli._build_parser.cache_clear()
    reused = [_call(argv) for argv in sequence]
    # fresh calls in reverse order, so that state one call leaves behind
    # meets a different next call
    fresh = []
    for argv in reversed(sequence):
        cli._build_parser.cache_clear()
        fresh.append(_call(argv))
    for argv, got, want in zip(sequence, reused, reversed(fresh)):
        assert got == want, argv


def test_the_window_defaults_to_the_library_default():
    args = cli._build_parser().parse_args(["classify", "--space", "s.sp"])
    assert args.window is DEFAULT_WINDOW


def test_the_second_call_builds_no_parser(monkeypatch, capsys):
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def counting(self, *args, **kwargs):
        added.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    cli._build_parser.cache_clear()
    assert main(["oracle", "--points", "0,1,3"]) == 0
    assert added
    added.clear()
    assert main(["gallery", "list", "--json"]) == 0
    assert added == []


def test_json_mode_renders_no_text(files, monkeypatch):
    # gallery verification renders check reports into its expectations
    calls = [argv for argv in _report_calls(files) if "--json" in argv and argv[0] != "gallery"]
    before = [_call(argv) for argv in calls]

    def refuse(self):
        raise AssertionError(f"{type(self).__name__}.render ran under --json")

    for cls in (CheckReport, Verdict, WitnessVerification, PlasticVerdict, StrongPlasticVerdict,
                DistanceMatrix, AxiomReport, RestrictionReport, Shrinkage):
        monkeypatch.setattr(cls, "render", refuse)
    assert [_call(argv) for argv in calls] == before


def _module_env() -> dict:
    """The environment with this checkout's plasti first on the path."""
    src = str(Path(plasti.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


@pytest.mark.parametrize(
    "flags", [("-OO", "-m", "plasti.cli"), ("-m", "plasti")], ids=["optimized", "package"]
)
def test_the_cli_runs_as_a_module(flags):
    """``python -m plasti`` works from a checkout, and ``-OO`` (which strips
    docstrings) changes nothing."""
    run = subprocess.run([sys.executable, *flags, "gallery", "list"], env=_module_env(),
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == _call(["gallery", "list"])


@pytest.mark.parametrize("command", ["gallery", "plot"])
def test_a_closed_stdout_ends_quietly(files, command):
    """A reader that closes stdout early, as in ``plasti gallery list | head -1``,
    gets exit 1 and an empty stderr, not a BrokenPipeError traceback."""
    argv = ["gallery", "list"] if command == "gallery" else [
        "plot", "--space", files("s.sp", "points: 0 1 3\n")]
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails
    try:
        run = subprocess.run([sys.executable, "-m", "plasti", *argv], stdout=write_end,
                             stderr=subprocess.PIPE, env=_module_env(), timeout=60)
    finally:
        os.close(write_end)
    assert (run.returncode, run.stderr) == (1, b"")


# -------------------------------------------------------------------
# fuzz: every input ends in exit 0, 1 or 2
# -------------------------------------------------------------------

SPACE_FILES = (
    ("points: 0 1 3",),
    ("interval: [0,1)", "interval: [2,3]", "points: 5"),
    ("arith: anchor=0 step=1 dir=both", "meta: bounded-below=unbounded"),
    ("gapseq: anchor=0 left=recipdiff(n+3) right=alt(recip(n+0),affine(1n+1))",),
    ("gapseq: anchor=1/2 left=explicit(1,1/2) right=const(2)", "meta: accum=none"),
    (
        "gapseq: anchor=1/2 left=recipdiff(n+3)",
        "arith: anchor=1 step=1 dir=right",
        "meta: accum=1/4",
        "meta: bounded-below=unattained(1/4)",
    ),
    ("periodic: len=1 gap=1 anchor=0 topo=left-closed dir=both",),
    ("halfline: (2,+inf)", "points: 0 1"),
)
MAP_FILES = (
    ("piece: dom=(-inf,+inf) slope=1 icpt=0",),
    ("table: 0->1 1->0 3->3", "piece: dom=(3,+inf) slope=1/2 icpt=0"),
    ("idxshift: comp=0 k=1", "inverse: idxshift: comp=0 k=-1"),
    ("idxshift: comp=* k=-1 dom=(1/4,1/2)", "piece: dom=[1,+inf) slope=1 icpt=-1"),
    ("gallery: example1:relocate",),
)
MATRIX_FILE = ("labels: a=inner(0) b=inner(10) p=outer", "x0: a", "row: 10 1", "row: 1")
SYMBOLS = "0123456789/-+=:,.()[]#n* abcdfinpqrstx\té"


@st.composite
def mutated_lines(draw, files):
    """One of the files, its lines with a few characters deleted, inserted
    or replaced, and a line sometimes dropped or repeated."""
    lines = list(draw(st.sampled_from(files)))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(lines)))
    if len(lines) > 1 and draw(st.booleans()):
        del lines[draw(st.integers(0, len(lines) - 1))]
    out = []
    for line in lines:
        for _ in range(draw(st.sampled_from((0, 0, 0, 0, 0, 0, 1, 2)))):
            at = draw(st.integers(0, len(line)))
            op = draw(st.sampled_from(("delete", "insert", "replace")))
            char = draw(st.sampled_from(SYMBOLS))
            if op == "insert":
                line = line[:at] + char + line[at:]
            else:
                line = line[:at] + (char if op == "replace" else "") + line[at + 1 :]
        out.append(line)
    return "\n".join(out) + "\n"


scalars = st.integers(-4, 4).map(str) | st.sampled_from(["1/2", "-3/2", "x", "", "1/0"])


@st.composite
def windows(draw):
    """Mostly a well-formed window, so that most cases run past parsing."""
    if draw(st.integers(0, 15)):
        lo = draw(st.integers(-4, 3))
        return f"{lo}..{lo + draw(st.integers(1, 6))}"
    return f"{draw(scalars)}..{draw(scalars)}"


@st.composite
def caps(draw):
    if draw(st.integers(0, 15)):
        return str(draw(st.integers(1, 12)))
    return draw(st.sampled_from(["0", "-1", "x"]))


# argv tokens an operating system can pass: no NUL and no surrogates (an
# undecodable byte arrives as one of U+DC80..U+DCFF); no slash in a file name
characters = st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")
tokens = st.text(characters | st.sampled_from("\udc80\udcff"), max_size=6)
names = tokens.filter(lambda t: t and "/" not in t)


@st.composite
def cli_cases(draw):
    """(argv, files): a subcommand with generated options, and the bytes of
    the files it names. A name that starts with @ stands for a path in a
    scratch directory; files holds those that exist. Windows stay small and
    caps low."""
    commands = ("check", "classify", "oracle", "plot", "gallery", "extend", "nope")
    command = draw(st.sampled_from(commands))
    argv, files = [command], {}

    def path(name: str, lines) -> str:
        if draw(st.integers(0, 15)):
            files[name] = draw(mutated_lines(lines))
            return "@" + name
        return "@" + draw(names)  # missing, or a directory

    if command == "gallery":
        argv.append(draw(st.sampled_from(("list", "example1", "example2", "nope", ""))))
    elif command == "extend":
        argv.append(path("m.dm", (MATRIX_FILE,)))
        argv += draw(st.sampled_from(([], ["--mode", "railway"], ["--mode", "x"])))
    elif command in ("check", "classify", "plot", "oracle"):
        if command == "oracle" and draw(st.booleans()):
            points = draw(st.lists(scalars | st.just("0..3"), min_size=1, max_size=4))
            argv += ["--points", ",".join(points)] + draw(st.sampled_from(([], ["--strong"])))
        else:
            argv += ["--space", path("s.sp", SPACE_FILES)]
        if command in ("check", "plot"):
            argv += ["--map", path("m.mp", MAP_FILES)]
        if command == "check":
            which = ("endo", "nonexpansive", "bijection", "isometry", "between", "lipschitz", "x")
            argv += ["--which", draw(st.sampled_from(which))]
        if command == "plot" and draw(st.booleans()):
            argv += ["--out", "@" + draw(st.sampled_from(("fig.svg", "missing/fig.svg", ".")))]
        argv += [f"--window={draw(windows())}", "--cap", draw(caps())]
    if draw(st.booleans()):
        argv.append("--json")
    options = ("--cap", "--window", "--strong", "--verify", "-h", "--")
    argv += draw(st.lists(st.sampled_from(options) | tokens, max_size=1))
    # latin-1 turns the inserted é into a byte that is not UTF-8
    encoding = draw(st.sampled_from(("utf-8", "latin-1")))
    return argv, {name: text.encode(encoding) for name, text in files.items()}


@settings(max_examples=300)
@given(cli_cases())
def test_every_input_exits_zero_one_or_two(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            Path(tmp, name).write_bytes(data)
        argv = [str(Path(tmp, a[1:])) if a.startswith("@") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
