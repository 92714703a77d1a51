"""Text grammar round trips and positioned error reporting."""

from fractions import Fraction as F

import pytest

from plasti.classify import classify
from plasti.cli import main
from plasti.errors import ParseError
from plasti.gallery import gallery_map
from plasti.maps import IndexShift, Table, collect_samples, eval_map
from plasti.parser import (
    parse_gap_rule,
    parse_interval,
    parse_map,
    parse_matrix,
    parse_space,
    render_map,
)
from plasti.scalar import is_finite
from plasti.space import (
    UNBOUNDED,
    ConstantGaps,
    Endpoint,
    FinitePoints,
    GapSequence,
    HalfLine,
    IntervalList,
    PeriodicIntervals,
    Window,
    materialize,
)


WINDOW = Window(F(-10), F(10))


# -------------------------------------------------------------------
# Spaces
# -------------------------------------------------------------------


def test_parse_points_space():
    space = parse_space("points: 3 0 1\n")
    assert space.components == (FinitePoints((F(0), F(1), F(3))),)


def test_parse_interval_merges_lines():
    space = parse_space("interval: [2,3]\ninterval: [0,1)\n")
    (component,) = space.components
    assert isinstance(component, IntervalList)
    assert [str(iv) for iv in component.intervals] == ["[0,1)", "[2,3]"]


def test_parse_arithmetic_and_meta():
    text = "arith: anchor=0 step=1 dir=both\nmeta: bounded-below=unbounded\n"
    space = parse_space(text)
    assert space.bound_below is not None
    assert space.bound_below.kind == UNBOUNDED
    assert materialize(space, WINDOW).points == tuple(F(k) for k in range(-10, 11))


def test_parse_gap_sequence_both_rules():
    text = "gapseq: anchor=0 left=recipdiff(n+3) right=alt(recip(n+0),affine(1n+1))\n"
    space = parse_space(text)
    (component,) = space.components
    assert isinstance(component, GapSequence)
    assert component.anchor == F(0)
    assert str(component.left) == "recipdiff(n+3)"
    assert str(component.right) == "alt(recip(n+0),affine(1n+1))"


def test_parse_periodic_and_halfline():
    space = parse_space(
        "periodic: len=1 gap=1 anchor=0 topo=left-closed dir=both\nhalfline: (2,+inf)\n"
    )
    periodic, half = space.components
    assert isinstance(periodic, PeriodicIntervals)
    assert periodic.topology == "left-closed"
    assert isinstance(half, HalfLine)
    assert (half.endpoint.value, half.endpoint.closed, half.direction) == (F(2), False, "right")


def test_gap_rules_round_trip_through_str(rng):
    catalog = (
        "const(3/2)",
        "affine(2n+1)",
        "affine(0n+5)",
        "recip(n+0)",
        "recipdiff(n+3)",
        "alt(recip(n+0),affine(1n+1))",
        "explicit(1,3,1)",
    )
    for text in catalog:
        rule = parse_gap_rule(text)
        assert str(rule) == text
        assert parse_gap_rule(str(rule)) == rule


def test_parsing_is_deterministic():
    text = (
        "arith: anchor=0 step=1 dir=right\n"
        "gapseq: anchor=1/2 left=recipdiff(n+3)\n"
        "meta: accum=1/4\n"
        "meta: bounded-below=attained(0)\n"
    )
    assert parse_space(text) == parse_space(text)


def test_space_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_space("points: 0 1\nbogus: 3\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        parse_space("interval: [5,1]\n")
    assert exc.value.line == 1
    with pytest.raises(ParseError, match="component"):
        parse_space("# only a comment\n")


def test_a_gapseq_line_needs_a_side(tmp_path, capsys):
    # a gap sequence with no side is its anchor alone, which `points:` writes
    path = tmp_path / "s.sp"
    path.write_text("points: 0\ngapseq: anchor=5\n")
    assert main(["classify", "--space", str(path)]) == 2
    assert capsys.readouterr().err == (
        "plasti classify: line 2, column 1: GapSequence needs at least one side\n"
    )


def test_meta_conflicts_are_rejected():
    with pytest.raises(ParseError):
        parse_space(
            "points: 0 1\nmeta: bounded-below=attained(0)\nmeta: bounded-below=attained(0)\n"
        )
    with pytest.raises(ParseError, match="accum"):
        parse_space("gapseq: anchor=0 left=recipdiff(n+3)\nmeta: accum=1/4\nmeta: accum=none\n")


def test_parse_interval_topology_forms():
    for text, lo_closed, hi_closed in (
        ("[0,1]", True, True),
        ("[0,1)", True, False),
        ("(0,1]", False, True),
        ("(0,1)", False, False),
    ):
        iv = parse_interval(text)
        assert (iv.lo.closed, iv.hi.closed) == (lo_closed, hi_closed)
    unbounded = parse_interval("(-inf,3]")
    assert not is_finite(unbounded.lo.value)
    with pytest.raises(ParseError):
        parse_interval("[1,+inf]")
    with pytest.raises(ParseError):
        parse_interval("[0;1]")


# -------------------------------------------------------------------
# Maps
# -------------------------------------------------------------------


def test_parse_table_and_piece():
    text = "table: 0->1/2 1->0\npiece: dom=[1,+inf) slope=1 icpt=-1\n"
    mp = parse_map(text)
    assert render_map(mp) == text
    space = parse_space("points: 0 1 2 3\n")
    assert eval_map(mp, space, F(0)) == F(1, 2)
    assert eval_map(mp, space, F(2)) == F(1)


def test_parse_idxshift_forms():
    mp = parse_map("idxshift: comp=1 k=-1\n")
    (clause,) = mp.clauses
    assert isinstance(clause, IndexShift)
    assert clause.component == 1
    starred = parse_map("idxshift: comp=* k=1\n")
    assert starred.clauses[0].component == "*"
    restricted = parse_map("idxshift: comp=1 k=-1 dom=(1/4,1/2)\n")
    assert restricted.clauses[0].restriction is not None
    assert render_map(restricted) == "idxshift: comp=1 k=-1 dom=(1/4,1/2)\n"


def test_parse_inverse_clauses():
    text = (
        "piece: dom=[0,1/2] slope=-1 icpt=1/2\n"
        "inverse: piece: dom=[0,1/2] slope=-1 icpt=1/2\n"
    )
    mp = parse_map(text)
    assert mp.inverse is not None
    assert render_map(mp) == text


def test_parse_gallery_reference():
    # the reference is resolved when the file is read: the map is the entry's own
    mp = parse_map("gallery: unit-interval-grid:flip\n")
    assert mp == gallery_map("unit-interval-grid:flip")
    assert render_map(mp) == (
        "piece: dom=(-inf,+inf) slope=-1 icpt=1\n"
        "inverse: piece: dom=(-inf,+inf) slope=-1 icpt=1\n"
    )
    with pytest.raises(ParseError):
        parse_map("gallery: integers\ntable: 0->1\n")


def test_classifier_witness_round_trips():
    # Unit gaps to the left of 0, doubled gaps to the right: the shift
    # witness from the classifier must survive a print-and-reparse loop.
    space = parse_space(
        "arith: anchor=0 step=1 dir=left\narith: anchor=2 step=2 dir=right\n"
    )
    verdict = classify(space, WINDOW)
    assert verdict.witness is not None
    text = render_map(verdict.witness)
    again = parse_map(text)
    assert render_map(again) == text
    ws = collect_samples(verdict.witness, space, WINDOW)
    for sample in ws.point_samples[:5]:
        assert eval_map(again, space, sample.x) == eval_map(verdict.witness, space, sample.x)


def test_map_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_map("table: 0->1\npiece: dom=[0,1]\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        parse_map("piece: dom=[0,1] slope=1 icpt=0 slope=2\n")
    assert exc.value.line == 1
    with pytest.raises(ParseError):
        parse_map("table: 0->1 0->2\n")
    with pytest.raises(ParseError):
        parse_map("")


# -------------------------------------------------------------------
# Distance tables
# -------------------------------------------------------------------


MATRIX_TEXT = """labels: a=inner(0) b=inner(10) p=outer
x0: a
row: 10 1
row: 1
"""


def test_parse_matrix_builds_the_augmented_space():
    aug = parse_matrix(MATRIX_TEXT)
    assert aug.inner.labels == ("a", "b")
    assert aug.outer == ("p",)
    assert aug.basepoint == "a"
    assert aug.proposed.value("a", "b") == F(10)
    assert aug.proposed.value("b", "p") == F(1)


def test_matrix_errors():
    with pytest.raises(ParseError, match="row"):
        parse_matrix("labels: a=inner(0) b=inner(1)\nrow: 1\nrow: 2\n")
    with pytest.raises(ParseError):
        parse_matrix("labels: a=inner(0) a=inner(1)\nrow: 1\n")
    with pytest.raises(ParseError):
        parse_matrix("labels: a=inner(0) b=outer\nx0: a\nx0: a\nrow: 1\n")
    with pytest.raises(ParseError, match="inner"):
        parse_matrix("labels: a=inner(0) b=outer\nx0: b\nrow: 1\n")


def test_matrix_detects_inner_mismatch():
    text = "labels: a=inner(0) b=inner(1)\nrow: 7\n"
    with pytest.raises(ParseError):
        parse_matrix(text)


# -------------------------------------------------------------------
# Shared grammar details
# -------------------------------------------------------------------


def test_comments_and_blank_lines_are_skipped():
    space = parse_space("# heading\n\npoints: 0 1  # trailing note\n")
    assert space.components == (FinitePoints((F(0), F(1))),)


def test_scalar_forms():
    mp = parse_map("table: -3/2->1/4 2->-5\n")
    table = mp.clauses[0]
    assert isinstance(table, Table)
    assert dict(table.entries) == {F(-3, 2): F(1, 4), F(2): F(-5)}
    with pytest.raises(ParseError):
        parse_map("table: 0.5->1\n")


def test_endpoint_values_render_and_parse():
    iv = parse_interval("[-3/2,7/4)")
    assert iv.lo == Endpoint(F(-3, 2), True)
    assert iv.hi == Endpoint(F(7, 4), False)
    assert str(iv) == "[-3/2,7/4)"


def test_arith_direction_tokens():
    step = ConstantGaps(F(2))
    sides = {"left": (step, None), "right": (None, step), "both": (step, step)}
    for token, (left, right) in sides.items():
        space = parse_space(f"arith: anchor=0 step=2 dir={token}\n")
        assert space.components == (GapSequence(F(0), left=left, right=right),)
    with pytest.raises(ParseError):
        parse_space("arith: anchor=0 step=2 dir=up\n")
