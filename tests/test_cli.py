"""Command-line surface: exit codes, report text, JSON payloads."""

import json

import pytest

from plasti.cli import main


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
