"""Map descriptions and their windowed checks.

Covers evaluation semantics (first-match-is-only-match, index shifts,
tables), inverse derivation, and the five checks with both passing and
failing instances, including the soundness case where a declared inverse
fails to cover part of the space.
"""

from fractions import Fraction as F
from itertools import accumulate

import pytest
from hypothesis import given, strategies as st

from plasti.errors import (
    AmbiguousPiece,
    InverseMissing,
    MapError,
    NoAdjacentPoint,
    NoPieceApplies,
    OutsideDomain,
)
from plasti import maps
from plasti.scalar import NEG_INF, POS_INF
from plasti.maps import (
    AffinePiece,
    IndexShift,
    MapDescription,
    Sample,
    Table,
    check_between_preservation,
    check_bijection,
    check_endomorphism,
    check_isometry,
    check_nonexpansive,
    derive_inverse,
    eval_map,
    full_line,
    lipschitz_upper,
    orbit,
)
from plasti.space import (
    ArithmeticProgression,
    Endpoint,
    FinitePoints,
    GapSequence,
    Interval,
    IntervalList,
    PeriodicIntervals,
    SubspaceDescription,
    TelescopingGaps,
    Window,
    contains,
)

W = Window(F(-10), F(10))


def points(*vals) -> SubspaceDescription:
    return SubspaceDescription(components=(FinitePoints(tuple(F(v) for v in vals)),))


def finite_members(comp: GapSequence) -> list:
    """The points of a finite set built by FinitePoints: its anchor and the
    partial sums of its explicit right side, if any, added to the anchor."""
    gaps = comp.right.values if comp.right is not None else ()
    return list(accumulate(gaps, initial=comp.anchor))


def affine(domain: Interval, slope, icpt) -> AffinePiece:
    return AffinePiece(domain, F(slope), F(icpt))


IDENTITY = MapDescription(
    clauses=(affine(full_line(), 1, 0),),
    inverse=MapDescription(clauses=(affine(full_line(), 1, 0),)),
)


# -------------------------------------------------------------------
# Evaluation semantics
# -------------------------------------------------------------------


def test_eval_table_and_piece():
    space = points(0, 1, 2)
    desc = MapDescription(
        clauses=(
            Table(((F(0), F(2)),)),
            affine(Interval.closed(F(1), F(2)), 1, 0),
        )
    )
    assert eval_map(desc, space, F(0)) == F(2)
    assert eval_map(desc, space, F(1)) == F(1)


def test_eval_rejects_non_members():
    with pytest.raises(OutsideDomain):
        eval_map(IDENTITY, points(0, 1), F(5))


def test_eval_requires_exactly_one_claiming_clause():
    space = points(0, 1)
    nobody = MapDescription(clauses=(Table(((F(0), F(0)),)),))
    with pytest.raises(NoPieceApplies):
        eval_map(nobody, space, F(1))
    both = MapDescription(
        clauses=(Table(((F(0), F(1)),)), affine(full_line(), 1, 0))
    )
    with pytest.raises(AmbiguousPiece):
        eval_map(both, space, F(0))


def test_index_shift_walks_adjacent_members():
    space = points(0, 1, 5)
    down = MapDescription(clauses=(IndexShift("*", -1),))
    assert eval_map(down, space, F(5)) == F(1)
    assert eval_map(down, space, F(1)) == F(0)
    with pytest.raises(NoAdjacentPoint):
        eval_map(down, space, F(0))


def test_index_shift_restriction_limits_the_claim():
    space = points(0, 1, 2)
    desc = MapDescription(
        clauses=(
            IndexShift("*", 1, Interval.closed(F(0), F(1))),
            Table(((F(2), F(0)),)),
        )
    )
    assert eval_map(desc, space, F(0)) == F(1)
    assert eval_map(desc, space, F(2)) == F(0)


def test_index_shift_component_selector():
    space = SubspaceDescription(
        components=(
            ArithmeticProgression(F(0), F(1), "right"),
            GapSequence(F(-5), left=TelescopingGaps(F(3))),
        ),
        accumulation=(F(-21, 4),),
    )
    shift_second = MapDescription(
        clauses=(IndexShift(1, -1), affine(Interval.closed(F(0), F(100)), 1, 0))
    )
    assert eval_map(shift_second, space, F(-5)) == F(-5) - F(1, 20)
    assert eval_map(shift_second, space, F(3)) == F(3)


def test_orbit_collects_iterates():
    space = points(0, 1, 2, 3)
    down = MapDescription(
        clauses=(IndexShift("*", -1, Interval.left_closed(F(1), F(4))), Table(((F(0), F(0)),)))
    )
    assert orbit(down, space, F(3), 4) == (F(3), F(2), F(1), F(0), F(0))


def test_table_rejects_duplicate_keys():
    with pytest.raises(MapError):
        Table(((F(0), F(1)), (F(0), F(2))))


# -------------------------------------------------------------------
# Inverse derivation
# -------------------------------------------------------------------


def test_derive_inverse_round_trips():
    desc = MapDescription(
        clauses=(
            Table(((F(0), F(5)),)),
            affine(Interval.left_closed(F(1), F(3)), 2, -1),
        )
    )
    inv = derive_inverse(desc)
    space = points(0, 1, 2, 3, 5)
    for x in (F(0), F(1), F(2)):
        assert eval_map(inv, space, eval_map(desc, space, x), cap=10_000) == x


def test_derive_inverse_rejects_flat_pieces():
    with pytest.raises(MapError):
        derive_inverse(MapDescription(clauses=(affine(full_line(), 0, 1),)))


def test_derive_inverse_rejects_index_shift():
    # An index shift has no closed-form inverse domain; the caller declares
    # the inverse instead.
    with pytest.raises(MapError):
        derive_inverse(MapDescription(clauses=(IndexShift("*", 1),)))


# -------------------------------------------------------------------
# Checks: endomorphism and non-expansiveness
# -------------------------------------------------------------------


def test_endomorphism_detects_escaping_image():
    space = points(0, 1, 2)
    escape = MapDescription(clauses=(affine(full_line(), 1, F(1, 2)),))
    report = check_endomorphism(escape, space, W)
    assert not report.passed
    assert report.witness is not None


def _escape_report(space, piece: AffinePiece, window: Window):
    """The endomorphism report of a map that is the identity off the piece."""
    rest = [
        affine(ivl, 1, 0)
        for comp in space.components
        if isinstance(comp, IntervalList)
        for ivl in comp.intervals
        if ivl != piece.domain
    ]
    fixed = [
        (p, p)
        for comp in space.components
        if isinstance(comp, GapSequence)
        for p in finite_members(comp)
    ]
    if fixed:
        rest.append(Table(tuple(fixed)))
    return check_endomorphism(MapDescription(clauses=(piece, *rest)), space, window)


def test_endomorphism_witness_image_falls_outside_the_space():
    # x -> 8x - 3/2 sends (0,1) onto (-3/2, 13/2); the images of the
    # interior probes 1/4 and 1/2 (1/2 and 5/2) are both members
    space = SubspaceDescription(
        components=(IntervalList((Interval.open(F(0), F(1)), Interval.open(F(2), F(3)))),)
    )
    piece = affine(Interval.open(F(0), F(1)), 8, F(-3, 2))
    report = _escape_report(space, piece, Window(F(-1), F(4)))
    assert not report.passed
    (x,), (y,) = report.witness.points, report.witness.images
    assert contains(space, x) and not contains(space, y)
    assert piece.apply(x) == y


def test_endomorphism_witness_steps_past_a_point_in_a_gap():
    # the image (1,2) crosses the gap between the intervals, whose middle
    # 3/2 is an isolated member: the witness lands between 1 and 3/2
    space = SubspaceDescription(
        components=(
            IntervalList((Interval.open(F(0), F(1)), Interval.open(F(2), F(3)))),
            FinitePoints((F(3, 2),)),
        )
    )
    piece = affine(Interval.open(F(0), F(1)), 1, 1)
    report = _escape_report(space, piece, Window(F(-1), F(4)))
    assert report.witness.render() == "piece image leaves the space (1/4 -> 5/4)"


def test_endomorphism_passes_an_image_covered_by_touching_pieces():
    # (0,1] and (1,2) together cover the image (1/2, 3/2]
    space = SubspaceDescription(
        components=(IntervalList((Interval.right_closed(F(0), F(1)), Interval.open(F(1), F(2)))),)
    )
    piece = affine(Interval.right_closed(F(0), F(1)), 1, F(1, 2))
    assert _escape_report(space, piece, Window(F(0), F(2))).passed
    # so do (0,1), the point 1 and (1,2)
    piece = affine(Interval.open(F(0), F(1)), 1, F(1, 2))
    space = SubspaceDescription(
        components=(
            IntervalList((Interval.open(F(0), F(1)), Interval.open(F(1), F(2)))),
            FinitePoints((F(1),)),
        )
    )
    assert _escape_report(space, piece, Window(F(0), F(2))).passed


def test_nonexpansive_pass_and_fail():
    space = points(0, 1, 2)
    assert check_nonexpansive(IDENTITY, space, W).passed
    stretch = MapDescription(clauses=(Table(((F(0), F(0)), (F(1), F(2)), (F(2), F(0)),)),))
    report = check_nonexpansive(stretch, space, W)
    assert not report.passed
    assert report.witness.detail == "pair moves apart"


def test_nonexpansive_across_interval_pieces():
    # Two half-slope pieces meet at the fragment cut; the straddling pair
    # must still be checked through the piece endpoints.
    space = SubspaceDescription(
        components=(PeriodicIntervals(F(1), F(1), F(0), "left-closed", "both"),)
    )
    fold = MapDescription(
        clauses=(
            affine(Interval.left_closed(F(0), F(1)), F(1, 2), 0),
            affine(Interval.left_closed(F(2), F(3)), F(1, 2), F(-1, 2)),
            affine(Interval(Endpoint(F(7, 2), False), Endpoint(F(10_000), False)), 1, -2),
            affine(Interval(Endpoint(F(-10_000), False), Endpoint(F(-1, 2), False)), 1, 0),
        )
    )
    assert check_nonexpansive(fold, space, W).passed
    expanding = MapDescription(clauses=(affine(full_line(), 2, 0),))
    report = check_nonexpansive(expanding, space, W)
    assert not report.passed


# -------------------------------------------------------------------
# Checks: bijection
# -------------------------------------------------------------------


def test_bijection_finite_without_inverse():
    space = points(0, 1, 2)
    swap = MapDescription(clauses=(Table(((F(0), F(1)), (F(1), F(0)), (F(2), F(2)))),))
    assert check_bijection(swap, space, W).passed
    collapse = MapDescription(clauses=(Table(((F(0), F(0)), (F(1), F(0)), (F(2), F(2)))),))
    report = check_bijection(collapse, space, W)
    assert not report.passed


def test_bijection_infinite_needs_declared_inverse():
    space = SubspaceDescription(components=(ArithmeticProgression(F(0), F(1), "both"),))
    bare = MapDescription(clauses=(affine(full_line(), 1, 0),))
    with pytest.raises(InverseMissing):
        check_bijection(bare, space, W)
    assert check_bijection(IDENTITY, space, W).passed


def test_bijection_wrong_inverse_is_reported():
    space = SubspaceDescription(components=(ArithmeticProgression(F(0), F(1), "both"),))
    wrong = MapDescription(
        clauses=(affine(full_line(), 1, 1),),
        inverse=MapDescription(clauses=(affine(full_line(), 1, 1),)),
    )
    report = check_bijection(wrong, space, W)
    assert not report.passed
    assert "does not undo" in report.witness.detail


def test_bijection_validates_inverse_cover_on_pure_intervals():
    # The forward fold of the unit-spaced open intervals misses every
    # midpoint m + 1/2. No forward sample exposes that, so the check must
    # walk the declared inverse's cover and trip on the hole.
    space = SubspaceDescription(
        components=(PeriodicIntervals(F(1), F(0), F(0), "open", "both"),)
    )
    glue = MapDescription(
        clauses=(
            affine(Interval.open(F(0), F(1)), F(1, 2), 0),
            affine(Interval.open(F(1), F(2)), F(1, 2), 0),
            affine(Interval(Endpoint(F(2), False), Endpoint(F(10_000), False)), 1, -1),
            affine(Interval(Endpoint(F(-10_000), False), Endpoint(F(0), True)), 1, 0),
        ),
        inverse=MapDescription(
            clauses=(
                affine(Interval.open(F(0), F(1, 2)), 2, 0),
                affine(Interval.open(F(1, 2), F(1)), 2, 0),
                affine(Interval(Endpoint(F(1), False), Endpoint(F(10_000), False)), 1, 1),
                affine(Interval(Endpoint(F(-10_000), False), Endpoint(F(0), True)), 1, 0),
            )
        ),
    )
    with pytest.raises(NoPieceApplies, match="1/2"):
        check_bijection(glue, space, W)


# -------------------------------------------------------------------
# Checks: isometry and betweenness
# -------------------------------------------------------------------


def test_isometry_exact_for_reflection():
    space = points(0, 1, 3)
    reflection = MapDescription(clauses=(affine(full_line(), -1, 3),))
    assert check_isometry(reflection, space, W).passed


def test_isometry_fails_with_pair_witness():
    space = points(0, 1, 3)
    squeeze = MapDescription(clauses=(Table(((F(0), F(0)), (F(1), F(1)), (F(3), F(2)))),))
    report = check_isometry(squeeze, space, W)
    assert not report.passed
    assert len(report.witness.points) == 2


def test_betweenness_violation_at_named_triple():
    space = SubspaceDescription(
        components=(
            ArithmeticProgression(F(0), F(1), "right"),
            ArithmeticProgression(F(-2), F(2), "left"),
        ),
    )
    junction = MapDescription(
        clauses=(
            affine(Interval(Endpoint(F(-10_000), False), Endpoint(F(-4), True)), 1, 6),
            affine(Interval(Endpoint(F(-2), True), Endpoint(F(10_000), False)), 1, 3),
        )
    )
    report = check_between_preservation(junction, space, Window(F(-20), F(20)))
    assert not report.passed
    imgs = tuple(eval_map(junction, space, x) for x in (F(-4), F(-2), F(0)))
    assert imgs == (F(2), F(1), F(3))
    assert check_between_preservation(IDENTITY, space, Window(F(-20), F(20))).passed


def test_betweenness_decides_every_triple_of_a_wide_window():
    # Swapping 250 and 251 on the nonnegative integers breaks betweenness
    # only in triples past the first 20,000 in lexicographic order.
    naturals = SubspaceDescription(components=(ArithmeticProgression(F(0), F(1), "right"),))
    swap = MapDescription(
        clauses=(
            Table(((F(250), F(251)), (F(251), F(250)))),
            affine(Interval(Endpoint(F(-1), False), Endpoint(F(250), False)), 1, 0),
            affine(Interval(Endpoint(F(251), False), Endpoint(F(10_000), False)), 1, 0),
        )
    )
    report = check_between_preservation(swap, naturals, Window(F(0), F(299)))
    assert not report.passed
    assert report.witness.points == (F(0), F(250), F(251))
    assert report.witness.images == (F(0), F(251), F(250))
    assert report.notes == ()


def _two_open_spans(first_icpt, second_icpt) -> tuple:
    """(0,1) and (1,2), both open, each moved by a unit-slope piece."""
    left, right = Interval.open(F(0), F(1)), Interval.open(F(1), F(2))
    space = SubspaceDescription(components=(IntervalList((left, right)),))
    return space, MapDescription(clauses=(affine(left, 1, first_icpt), affine(right, 1, second_icpt)))


def _breaks_betweenness(desc, space, xs) -> bool:
    a, b, c = (eval_map(desc, space, x) for x in xs)
    return xs[0] < xs[1] < xs[2] and not min(a, c) <= b <= max(a, c)


def test_betweenness_sees_a_break_near_a_span_upper_end():
    # (1/2, 99/100, 101/100) -> (1/2, 99/100, 41/100): the middle point sits
    # near the upper end of (0,1), past both interior probes of that span.
    space, drop = _two_open_spans(0, F(-3, 5))
    report = check_between_preservation(drop, space, Window(F(-1), F(3)))
    assert not report.passed
    assert report.witness.points == (F(1, 16), F(15, 16), F(17, 16))
    assert _breaks_betweenness(drop, space, report.witness.points)


def test_betweenness_sees_a_break_near_a_span_lower_end():
    # (99/100, 101/100, 3/2) -> (159/100, 101/100, 3/2): the middle point sits
    # near the lower end of (1,2).
    space, lift = _two_open_spans(F(3, 5), 0)
    report = check_between_preservation(lift, space, Window(F(-1), F(3)))
    assert not report.passed
    assert report.witness.detail == "middle point leaves the image segment"
    assert _breaks_betweenness(lift, space, report.witness.points)


def test_pair_witness_nudges_each_limit_into_its_own_span():
    # Both limits at the jump x = 1 belong to different spans; each must
    # step into its own, giving a pair of members that moves apart.
    space, drop = _two_open_spans(0, F(-3, 5))
    report = check_nonexpansive(drop, space, Window(F(-1), F(3)))
    assert not report.passed
    assert report.witness.render() == "pair moves apart (15/16, 17/16 -> 15/16, 37/80)"


def test_first_pair_moving_apart_looks_back_past_a_later_row():
    # (1, 2) is the first pair to move apart as j rises, but (0, 3), found
    # at j = 3, comes before it in pair order
    samples = tuple(Sample(F(x), v, True) for x, v in ((0, F(0)), (1, F(0)), (2, F(3, 2)), (3, F(7, 2))))
    assert maps._first_pair_moving_apart(samples) == (0, 3)


def test_first_between_violation_needs_a_strict_step_back():
    # the third value ties the middle one, so only the fourth leaves the segment
    assert maps._first_between_violation([F(0), F(2), F(2), F(1)]) == (0, 1, 3)
    assert maps._first_between_violation([F(0), F(-2), F(-2), F(-1)]) == (0, 1, 3)
    # a value equal to a later one breaks nothing
    assert maps._first_between_violation([F(1), F(0), F(0)]) is None
    assert maps._first_between_violation([F(-1), F(0), F(0)]) is None


@pytest.mark.parametrize(
    "end, ends",
    [
        # nudged by 1/16 of its span, the limit's value lands strictly inside the segment
        (1, (F(0), F(19, 20))),
        # ... or on its lower or its upper end
        (0, (F(1, 16), F(1))),
        (1, (F(0), F(15, 16))),
    ],
)
def test_between_witness_nudges_a_limit_until_the_triple_breaks(end, ends):
    # the limit of x -> x at an end of (0, 1) is the middle of a broken
    # triple; only the nudge by 1/64 keeps it broken
    span = maps.PieceSpan(affine(Interval.open(F(0), F(1)), 1, 0), F(0), F(1))
    a, c = Sample(F(-1), ends[0], True), Sample(F(2), ends[1], True)
    triple = (a, Sample(F(end), F(end), False, span), c)
    witness = maps._member_witness(triple, "middle point leaves the image segment", maps._breaks_between)
    x = F(1, 64) if end == 0 else F(63, 64)
    assert witness.points == (F(-1), x, F(2))
    assert witness.images == (ends[0], x, ends[1])
    assert witness.detail == "middle point leaves the image segment"


def test_a_point_image_at_an_open_end_of_a_piece_image_is_no_collision():
    # (0, 1), open, maps onto (10, 11); the point 5 maps to a limit of that
    # image, which no member of (0, 1) reaches, and then into its interior
    span = Interval.open(F(0), F(1))
    space = SubspaceDescription(components=(IntervalList((span,)), FinitePoints((F(5),))))

    def collision(y):
        desc = MapDescription(clauses=(affine(span, 1, 10), Table(((F(5), y),))))
        return maps._collision(maps.collect_samples(desc, space, W))

    assert collision(F(10)) is None
    assert collision(F(11)) is None
    assert collision(F(21, 2)).points == (F(5), F(1, 2))


def test_bijection_compares_images_when_the_window_edges_are_the_space_bounds():
    # the window is exactly [min, max] of the space, so every member is
    # enumerated and no declared inverse is needed
    swap = MapDescription(clauses=(Table(((F(0), F(1)), (F(1), F(0)), (F(2), F(2)))),))
    report = check_bijection(swap, points(0, 1, 2), Window(F(0), F(2)))
    assert report.passed
    assert "finite space: image compared with the full point set" in report.notes


# -------------------------------------------------------------------
# Report texts: one minimal case per report branch
# -------------------------------------------------------------------


def _table(*pairs) -> Table:
    return Table(tuple((F(x), F(y)) for x, y in pairs))


def _maps(*clauses, inverse=None) -> MapDescription:
    return MapDescription(clauses=clauses, inverse=inverse)


_Z = SubspaceDescription(components=(ArithmeticProgression(F(0), F(1), "both"),))
_NATURALS = SubspaceDescription(components=(ArithmeticProgression(F(0), F(1), "right"),))
_OPEN_01 = Interval.open(F(0), F(1))
_OPEN_23 = Interval.open(F(2), F(3))
_UNIT = SubspaceDescription(components=(IntervalList((_OPEN_01,)),))
_APART = SubspaceDescription(components=(IntervalList((_OPEN_01, _OPEN_23)),))
_STEP = affine(full_line(), 1, 1)
_TAIL = SubspaceDescription(components=(GapSequence(F(0), right=TelescopingGaps(F(0))),))

_REPORT_CASES = {
    "endomorphism-member-image": (
        check_endomorphism, points(0, 1, 2), _maps(_table((0, 0), (1, 1), (2, 3))), W, 10_000,
        "[FAIL] endomorphism on window [-10,10]\n"
        "  witness: image leaves the space (2 -> 3)",
    ),
    "endomorphism-flat-piece": (
        check_endomorphism, _UNIT, _maps(affine(full_line(), 0, 5)), W, 10_000,
        "[FAIL] endomorphism on window [-10,10]\n"
        "  witness: flat piece lands outside the space (1/4 -> 5)",
    ),
    "endomorphism-piece-image": (
        check_endomorphism, _UNIT, _maps(affine(full_line(), 1, F(1, 2))), W, 10_000,
        "[FAIL] endomorphism on window [-10,10]\n"
        "  witness: piece image leaves the space (1/2 -> 1)",
    ),
    "nonexpansive-slope": (
        check_nonexpansive, _UNIT, _maps(affine(full_line(), -2, 0)), W, 10_000,
        "[FAIL] nonexpansive on window [-10,10]\n"
        "  witness: piece slope -2 exceeds 1 in size (1/4, 1/2 -> -1/2, -1)",
    ),
    "nonexpansive-member-pair": (
        check_nonexpansive, points(0, 1, 2), _maps(_table((0, 0), (1, 2), (2, 0))), W, 10_000,
        "[FAIL] nonexpansive on window [-10,10]\n"
        "  witness: pair moves apart (0, 1 -> 0, 2)",
    ),
    "nonexpansive-nudged-limits": (
        check_nonexpansive, _APART, _maps(affine(_OPEN_01, 1, 0), affine(_OPEN_23, 1, 10)), W, 10_000,
        "[FAIL] nonexpansive on window [-10,10]\n"
        "  witness: pair moves apart (1/16, 33/16 -> 1/16, 193/16)",
    ),
    "isometry-slope": (
        check_isometry, _UNIT, _maps(affine(full_line(), F(1, 2), 0)), W, 10_000,
        "[FAIL] isometry on window [-10,10]\n"
        "  witness: piece slope 1/2 is not a unit (1/4, 1/2 -> 1/8, 1/4)",
    ),
    "isometry-member-pair": (
        check_isometry, points(0, 1, 3), _maps(_table((0, 0), (1, 1), (3, 2))), W, 10_000,
        "[FAIL] isometry on window [-10,10]\n"
        "  witness: pair changes distance (0, 3 -> 0, 2)",
    ),
    "between-member-triple": (
        check_between_preservation, points(0, 1, 2), _maps(_table((0, 0), (1, 2), (2, 1))), W, 10_000,
        "[FAIL] between on window [-10,10]\n"
        "  witness: middle point leaves the image segment (0, 1, 2 -> 0, 2, 1)",
    ),
    "bijection-flat-piece": (
        check_bijection, _UNIT, _maps(affine(full_line(), 0, F(1, 2))), W, 10_000,
        "[FAIL] bijection on window [-10,10]\n"
        "  witness: flat piece collapses a stretch (1/4, 1/2 -> 1/2, 1/2)",
    ),
    "bijection-members-collide": (
        check_bijection, points(0, 1, 2), _maps(_table((0, 0), (1, 0), (2, 2))), W, 10_000,
        "[FAIL] bijection on window [-10,10]\n"
        "  witness: two members share an image (0, 1 -> 0, 0)",
    ),
    "bijection-pieces-collide": (
        check_bijection, _APART, _maps(affine(_OPEN_01, 1, 0), affine(_OPEN_23, 1, -2)), W, 10_000,
        "[FAIL] bijection on window [-10,10]\n"
        "  witness: two pieces share an image value (1/2, 5/2 -> 1/2, 1/2)",
    ),
    "bijection-point-meets-piece": (
        check_bijection,
        SubspaceDescription(components=(IntervalList((_OPEN_01,)), FinitePoints((F(5),)))),
        _maps(affine(_OPEN_01, 1, 0), _table((5, F(1, 2)))), W, 10_000,
        "[FAIL] bijection on window [-10,10]\n"
        "  witness: point image hit by a piece interior (5, 1/2 -> 1/2, 1/2)",
    ),
    "bijection-image-leaves": (
        check_bijection, points(0, 1, 2),
        _maps(_table((0, 1), (1, 2), (2, 5)), inverse=_maps(_table((0, 2), (1, 0), (2, 1)))), W, 10_000,
        "[FAIL] bijection on window [-10,10]\n"
        "  witness: image leaves the space, cannot be onto (2 -> 5)",
    ),
    "bijection-inverse-does-not-undo": (
        check_bijection, _Z, _maps(_STEP, inverse=_maps(_STEP)), W, 10_000,
        "[FAIL] bijection on window [-10,10]\n"
        "  witness: declared inverse does not undo the map (-10 -> -9)",
    ),
    "bijection-inverse-leaves": (
        check_bijection, _NATURALS, _maps(_STEP, inverse=_maps(affine(full_line(), 1, -1))), W, 10_000,
        "[FAIL] bijection on window [-10,10]\n"
        "  witness: declared inverse leaves the space (0 -> -1)",
    ),
    "bijection-map-does-not-undo": (
        check_bijection, _NATURALS,
        _maps(_STEP, inverse=_maps(_table((0, 5)), affine(Interval.open(F(0), F(10_000)), 1, -1))),
        W, 10_000,
        "[FAIL] bijection on window [-10,10]\n"
        "  witness: map does not undo the declared inverse (0 -> 5)",
    ),
    "bijection-member-missed": (
        check_bijection, points(0, 1, 2), _maps(_table((0, 0), (1, 1), (2, 5))), W, 10_000,
        "[FAIL] bijection on window [-10,10]\n"
        "  witness: member missed by the image (at 2)",
    ),
    "bijection-onto-through-the-inverse": (
        check_bijection, _Z, IDENTITY, W, 10_000,
        "[pass] bijection on window [-10,10]\n"
        "  note: onto certified through the declared inverse on window members",
    ),
    "bijection-finite-image": (
        check_bijection, points(0, 1, 2), _maps(_table((0, 1), (1, 0), (2, 2))), W, 10_000,
        "[pass] bijection on window [-10,10]\n"
        "  note: finite space: image compared with the full point set",
    ),
    "notes-subsampled": (
        check_bijection, _Z, IDENTITY, Window(F(0), F(700)), 10_000,
        "[pass] bijection on window [0,700]\n"
        "  note: more than 600 window points; pair checks subsampled\n"
        "  note: onto certified through the declared inverse on window members",
    ),
    "notes-truncated": (
        check_nonexpansive, _TAIL, _maps(affine(full_line(), 2, 0)), Window(F(-1), F(2)), 5,
        "[FAIL] nonexpansive on window [-1,2]\n"
        "  witness: pair moves apart (0, 1/2 -> 0, 1)\n"
        "  note: enumeration truncated near 1; raise the cap to tighten the check",
    ),
}


@pytest.mark.parametrize("case", list(_REPORT_CASES), ids=list(_REPORT_CASES))
def test_report_text_of_each_branch(case):
    check, space, desc, window, cap, text = _REPORT_CASES[case]
    assert check(desc, space, window, cap).render() == text


# -------------------------------------------------------------------
# Lipschitz bound
# -------------------------------------------------------------------


def test_lipschitz_bound_over_pieces_and_cross_pairs():
    space = SubspaceDescription(
        components=(PeriodicIntervals(F(1), F(1), F(0), "left-closed", "both"),)
    )
    halver = MapDescription(clauses=(affine(full_line(), F(1, 2), 0),))
    bound, _ = lipschitz_upper(halver, space, W)
    assert bound == F(1, 2)

    # Cross-fragment pair beats the per-piece slopes: pieces have slope
    # 1/2 but push the fragments apart.
    spread = MapDescription(
        clauses=(
            affine(Interval(Endpoint(F(-10_000), False), Endpoint(F(3, 2), False)), F(1, 2), 0),
            affine(Interval(Endpoint(F(3, 2), False), Endpoint(F(10_000), False)), F(1, 2), 10),
        )
    )
    bound, _ = lipschitz_upper(spread, space, W)
    assert bound > F(1)


# -------------------------------------------------------------------
# Properties
# -------------------------------------------------------------------

point_sets = st.lists(
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
    min_size=2,
    max_size=7,
    unique=True,
)


@given(point_sets)
def test_identity_is_always_a_verified_isometry(values):
    space = points(*sorted(values))
    assert check_endomorphism(IDENTITY, space, Window(F(-30), F(30))).passed
    assert check_nonexpansive(IDENTITY, space, Window(F(-30), F(30))).passed
    assert check_isometry(IDENTITY, space, Window(F(-30), F(30))).passed
    bound, _ = lipschitz_upper(IDENTITY, space, Window(F(-30), F(30)))
    assert bound <= F(1)


@given(point_sets)
def test_reflection_about_midpoint_is_an_isometry(values):
    ordered = sorted(values)
    space = points(*ordered)
    center = (F(ordered[0]) + F(ordered[-1])) / 2
    flip = MapDescription(clauses=(affine(full_line(), -1, 2 * center),))
    window = Window(F(-100), F(100))
    assert check_nonexpansive(flip, space, window).passed
    # The mirror is an endomorphism only for symmetric sets; when it is,
    # it must be an isometry.
    if check_endomorphism(flip, space, window).passed:
        assert check_isometry(flip, space, window).passed


# -------------------------------------------------------------------
# Adjacent-pair sweeps against the all-pairs loops
# -------------------------------------------------------------------

_sample_x = st.integers(-4, 4).map(F) | st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def _value_fn(draw):
    """Values from x -> slope*x + c with |slope| <= 1 (often a unit), or
    from x -> |x - pivot| + c, which keeps adjacent unit steps but turns
    around; both checks pass often, and a few entries become noise."""
    slope = draw(st.sampled_from([F(1), F(-1), F(1, 2), F(-1, 3), F(0)]))
    c = draw(st.integers(-3, 3))
    pivot = draw(st.none() | st.integers(-3, 3))
    noise = draw(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=3), max_size=2))

    def value(x, i):
        if noise and i % 3 == 0:
            return noise[i % len(noise)]
        return slope * x + c if pivot is None else abs(x - pivot) + c

    return value


@st.composite
def _sample_sets(draw):
    fn = draw(_value_fn())
    xs = draw(st.lists(_sample_x, min_size=2, max_size=9))  # repeats allowed
    members = draw(st.lists(st.booleans(), min_size=len(xs), max_size=len(xs)))
    return tuple(Sample(x, fn(x, i), m) for i, (x, m) in enumerate(zip(xs, members)))


def _all_pairs_max_ratio(samples: tuple) -> F:
    from itertools import combinations

    best = F(0)
    for a, b in combinations(samples, 2):
        if a.x != b.x:
            best = max(best, abs(a.value - b.value) / abs(a.x - b.x))
    return best


def _first_violation_by_triples(values: list):
    from itertools import combinations

    for i, j, k in combinations(range(len(values)), 3):
        if not min(values[i], values[k]) <= values[j] <= max(values[i], values[k]):
            return i, j, k
    return None


@given(_sample_sets())
def test_lipschitz_sweep_equals_the_all_pairs_maximum(samples):
    assert maps._sweep_lipschitz(samples) == _all_pairs_max_ratio(samples)


@st.composite
def _probe_values(draw):
    """Image values of probes sorted as the check sorts them: equal x and
    tied values occur, the values are often weakly monotone, and up to two
    entries may break that."""
    xs = sorted(draw(st.lists(st.integers(-3, 3), max_size=9)))
    values = sorted(draw(st.lists(st.integers(-2, 2), min_size=len(xs), max_size=len(xs))))
    if draw(st.booleans()):
        values.reverse()
    for i in draw(st.lists(st.integers(0, 8), max_size=2)):
        if i < len(values):
            values[i] = draw(st.integers(-3, 3))
    return [v for _, v in sorted({(F(x), F(v)) for x, v in zip(xs, values)})]


@given(_probe_values())
def test_between_sweep_finds_the_first_violating_triple(values):
    bad = maps._first_between_violation(values)
    assert bad == _first_violation_by_triples(values)
    monotone = values in (sorted(values), sorted(values, reverse=True))
    assert (bad is None) == monotone


@given(_sample_sets())
def test_sweeps_decide_exactly_like_all_pairs(samples):
    from itertools import combinations

    all_nonexpansive = all(
        abs(a.value - b.value) <= abs(a.x - b.x) for a, b in combinations(samples, 2)
    )
    all_isometric = all(
        abs(a.value - b.value) == abs(a.x - b.x) for a, b in combinations(samples, 2)
    )
    assert maps._sweep_nonexpansive(samples) == all_nonexpansive
    assert maps._sweep_isometry(samples) == all_isometric


@st.composite
def _mixed_spaces_and_maps(draw):
    """Points plus intervals whose open ends meet points or each other, so
    samples repeat an x and include non-member piece limits."""
    fn = draw(_value_fn())
    cuts = sorted(draw(st.lists(st.integers(-8, 8), min_size=2, max_size=5, unique=True)))
    intervals = []
    for lo, hi in zip(cuts, cuts[1:]):
        if not draw(st.booleans()):
            continue
        shared = bool(intervals) and intervals[-1].hi.value == lo and intervals[-1].hi.closed
        lo_closed = draw(st.booleans()) and not shared
        intervals.append(Interval(Endpoint(F(lo), lo_closed), Endpoint(F(hi), draw(st.booleans()))))
    candidates = draw(st.lists(_sample_x, min_size=1, max_size=5, unique=True))
    pts = sorted(x for x in candidates if not any(ivl.contains(x) for ivl in intervals))
    components = []
    clauses = []
    if pts:
        components.append(FinitePoints(tuple(pts)))
        clauses.append(Table(tuple((x, fn(x, i)) for i, x in enumerate(pts))))
    if intervals:
        components.append(IntervalList(tuple(intervals)))
        slope = draw(st.sampled_from([F(1), F(-1), F(1, 2)]))
        for i, ivl in enumerate(intervals):
            mid = (ivl.lo.value + ivl.hi.value) / 2
            clauses.append(AffinePiece(ivl, slope, fn(mid, i + 1) - slope * mid))
    if not components:
        components.append(FinitePoints((F(0), F(1))))
        clauses.append(Table(((F(0), F(0)), (F(1), F(1)))))
    return SubspaceDescription(components=tuple(components)), MapDescription(clauses=tuple(clauses))


@given(_mixed_spaces_and_maps())
def test_sweep_reports_equal_the_all_pairs_reports(case):
    from unittest import mock

    space, desc = case
    for check, sweep in (
        (check_nonexpansive, "_sweep_nonexpansive"),
        (check_isometry, "_sweep_isometry"),
    ):
        swept = check(desc, space, W)
        with mock.patch.object(maps, sweep, lambda samples: False):
            all_pairs = check(desc, space, W)
        assert swept.render() == all_pairs.render()
    swept = check_between_preservation(desc, space, W)
    with mock.patch.object(maps, "_first_between_violation", _first_violation_by_triples):
        all_triples = check_between_preservation(desc, space, W)
    assert swept.render() == all_triples.render()
    swept = lipschitz_upper(desc, space, W)
    with mock.patch.object(maps, "_sweep_lipschitz", _all_pairs_max_ratio):
        assert lipschitz_upper(desc, space, W) == swept


@given(_mixed_spaces_and_maps())
def test_checks_agree_with_brute_force_on_dense_members(case):
    """Members here are the isolated points and a grid of 1/64 steps in
    every interval. A pass must hold on all of them, and a witness that is
    not marked as limit points must be made of members that break it."""
    space, desc = case
    xs = set()
    for comp in space.components:
        if isinstance(comp, GapSequence):
            xs.update(finite_members(comp))
            continue
        for ivl in comp.intervals:
            lo, hi = ivl.lo.value, ivl.hi.value
            xs.update(x for x in (lo + (hi - lo) * F(k, 64) for k in range(65)) if ivl.contains(x))
    members = [(x, eval_map(desc, space, x)) for x in sorted(xs)]
    values = [v for _, v in members]
    monotone = values in (sorted(values), sorted(values, reverse=True))
    report = check_between_preservation(desc, space, W)
    if report.passed:
        assert monotone
    elif "(limit points)" not in report.witness.detail:
        assert _breaks_betweenness(desc, space, report.witness.points)
    expands = any(abs(v - u) > y - x for (x, u), (y, v) in zip(members, members[1:]))
    report = check_nonexpansive(desc, space, W)
    if report.passed:
        assert not expands
    elif "(limit points)" not in report.witness.detail:
        (x, y), (u, v) = report.witness.points, report.witness.images
        assert (u, v) == (eval_map(desc, space, x), eval_map(desc, space, y))
        assert abs(u - v) > abs(x - y)


# -------------------------------------------------------------------
# The first broken pair, against the pair loop
# -------------------------------------------------------------------


def _reference_pair_witness(ws, bad_slope, slope_detail, sweep, first_pair, broken, pair_detail):
    """A span slope that breaks the property, else the first ``broken``
    pair of ``combinations(ws.all_samples, 2)``, nudged onto members."""
    from itertools import combinations

    witness = maps._slope_witness(ws, bad_slope, slope_detail)
    if witness is not None or sweep(ws.all_samples):
        return witness
    pair = next((p for p in combinations(ws.all_samples, 2) if broken(*p)), None)
    return None if pair is None else maps._member_witness(pair, pair_detail, broken)


_PAIR_CHECKS = (
    (maps._sweep_nonexpansive, maps._first_pair_moving_apart, maps._moves_apart, "pair moves apart"),
    (
        maps._sweep_isometry,
        maps._first_pair_changing_distance,
        maps._changes_distance,
        "pair changes distance",
    ),
)


@st.composite
def _window_samples(draw):
    """Point samples at distinct ascending x, their values on one line
    x -> s*x + c or on the two unit lines through the first sample, with a
    few changed near the end; and limit samples at span ends, some at the
    x of a point sample, with the span's piece value."""
    fn = draw(_value_fn())
    xs = sorted(set(draw(st.lists(_sample_x, max_size=12))))
    values = [fn(x, 1) for x in xs]
    if xs and draw(st.booleans()):
        # every sample keeps its distance to the first one, on either side:
        # the first pair that changes a distance starts at a later sample
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(xs), max_size=len(xs)))
        values = [values[0] + s * (x - xs[0]) for s, x in zip(signs, xs)]
    for i in draw(st.lists(st.integers(0, 3), max_size=2)):  # counted from the end
        if i < len(values):
            values[-1 - i] = draw(st.fractions(min_value=-4, max_value=4, max_denominator=2))
    limits = []
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        lo = draw(st.sampled_from(xs) | _sample_x) if xs else draw(_sample_x)
        hi = lo + draw(st.fractions(min_value=F(1, 2), max_value=3, max_denominator=2))
        piece = affine(Interval.open(lo, hi), draw(st.sampled_from([1, -1, 2, F(1, 2)])), draw(st.integers(-2, 2)))
        span = maps.PieceSpan(piece, lo, hi)
        x = lo if draw(st.booleans()) else hi
        limits.append(Sample(x, piece.apply(x), False, span))
    points_ = tuple(Sample(x, v, True) for x, v in zip(xs, values))
    return maps.WindowSamples(None, points_, tuple(limits), ())


@given(_window_samples())
def test_pair_witness_is_the_first_broken_pair_of_the_pair_loop(ws):
    for sweep, first_pair, broken, detail in _PAIR_CHECKS:
        args = (ws, lambda slope: False, "", sweep, first_pair, broken, detail)
        assert maps._pair_witness(*args) == _reference_pair_witness(*args)


def _relocate_last(n: int):
    """0, 1, ..., n - 1 with the last member sent to 0 and the rest fixed:
    the first pair that moves apart is (n // 2, n - 1)."""
    space = SubspaceDescription(components=(ArithmeticProgression(F(0), F(1), "right"),))
    last = F(n - 1)
    desc = MapDescription(
        clauses=(
            Table(((last, F(0)),)),
            affine(Interval(Endpoint(NEG_INF, False), Endpoint(last, False)), 1, 0),
            affine(Interval(Endpoint(last, False), Endpoint(POS_INF, False)), 1, 0),
        )
    )
    return space, desc, Window(F(0), last)


def test_a_late_witness_costs_a_linear_number_of_pair_tests(monkeypatch):
    n = 130
    space, desc, window = _relocate_last(n)
    calls = []
    moves_apart = maps._moves_apart

    def counted(a, b):
        calls.append(None)
        return moves_apart(a, b)

    monkeypatch.setattr(maps, "_moves_apart", counted)
    report = check_nonexpansive(desc, space, window)
    assert report.witness.render() == f"pair moves apart ({n // 2}, {n - 1} -> {n // 2}, 0)"
    assert len(calls) < 4 * n
