"""The window index and the side reader, against the code they replace.

A materialization lists every gap-sequence side by the index range of
its partial sums in the window (a side with a recip atom is first walked
out of the window), decides membership inside its window and outside its
truncation zones, and answers index shifts by stepping along its sorted
points. Membership and adjacency on gap-sequence sides read a side the
same way. Each is compared here with a reference kept below:
``walked_side_points``, the per-step walk of a side;
``reference_side_member``, ``reference_next_above`` and
``reference_successor``, membership and the successor search with their
own explicit, closed-sum and walked branches; and ``reference_predecessor``,
the successor search on the mirror image ``mirrored(space)``, whose
exhausted walk is reworded as the predecessor search at x. Errors are
compared by type and text. Lookups in a materialization bisect float keys
first (``_locate``), which is compared with plain ``bisect_left`` on
values whose floats tie or overflow. Progressions and finite point sets,
now gap sequences, are compared with the code that answered for them as
component kinds of their own. Map evaluation by clause runs is compared
with ``reference_eval``, the per-member clause ladder it replaced, and
the round trips of the bijection check with ``reference_round_trip``,
their sample-by-sample loop. The endomorphism and bijection checks read
their images on demand and stop at their first witness; they are
compared with the eager checks they replaced, which evaluate every
sample first (``reference_collect_samples``). Index shifts along a materialization are
read as run evaluation reads them (``indexed_shift``) and compared with
the successor search.
"""

import bisect
from array import array
from fractions import Fraction as F
from itertools import combinations
from math import inf
from typing import Optional

import pytest
from hypothesis import assume, example, given, strategies as st

from plasti.errors import (
    AmbiguousPiece,
    MapError,
    NoAdjacentPoint,
    NoPieceApplies,
    NotDiscrete,
    PlastiError,
    RuleDivergence,
)
from plasti import maps
from plasti.maps import (
    AffinePiece,
    IndexShift,
    MapDescription,
    Sample,
    Table,
    WindowSamples,
    _Images,
    _eval_member,
    _first_escape,
    _round_trip,
    _shift_images,
    check_bijection,
    check_endomorphism,
    collect_samples,
    full_line,
)
from plasti.parser import parse_map, parse_space
from plasti.scalar import NEG_INF, POS_INF, format_scalar
from plasti.space import (
    AffineGaps,
    AlternatingGaps,
    BoundInfo,
    Bounds,
    DEFAULT_CAP,
    DEFAULT_WINDOW,
    ArithmeticProgression,
    Endpoint,
    ConstantGaps,
    ExplicitGaps,
    FinitePoints,
    GapSequence,
    HalfLine,
    Interval,
    IntervalList,
    PeriodicIntervals,
    ReciprocalGaps,
    SequenceView,
    SubspaceDescription,
    TelescopingGaps,
    Window,
    _float_key,
    _locate,
    _materialize_points,
    _max_n_with_sum_below,
    component_bounds,
    component_contains,
    contains,
    materialize,
    predecessor,
    sequence_view,
    successor,
)


def walked_side_points(comp: GapSequence, window: Window, cap: int) -> tuple:
    """(points, truncated_near, truncation_zones) of a gap sequence by the
    per-step walk, every side stepped gap by gap; points ascending."""
    lo, hi = window.lo, window.hi
    points, truncated, zones = [], [], []
    if lo <= comp.anchor <= hi:
        points.append(comp.anchor)

    def walk(program, sign):
        if program is None:
            return
        edge = hi if sign > 0 else lo
        pos = comp.anchor
        if program.finite:
            for g in program.values:
                pos = pos + sign * g
                if lo <= pos <= hi:
                    points.append(pos)
            return
        convergent = program.converges
        limit = comp.anchor + sign * program.total if convergent else None
        if convergent and sign > 0 and limit <= lo:
            return
        if convergent and sign < 0 and limit >= hi:
            return
        for n in range(1, cap + 1):
            pos = pos + sign * program.gap(n)
            if sign > 0 and pos > hi:
                return
            if sign < 0 and pos < lo:
                return
            if lo <= pos <= hi:
                points.append(pos)
        if convergent:
            truncated.append(limit)
            zones.append(Interval.open(limit, pos) if sign < 0 else Interval.open(pos, limit))
            return
        raise RuleDivergence(
            f"gap rule {program} did not reach the edge {format_scalar(edge)} in {cap} steps"
        )

    walk(comp.right, +1)
    walk(comp.left, -1)
    return tuple(sorted(points)), tuple(truncated), tuple(zones)


def reference_side_member(anchor, program, sign, x, cap) -> bool:
    """Is x a non-anchor member of the given side?"""
    if program is None:
        return False
    pos = anchor
    if program.finite:
        for g in program.values:
            pos = pos + sign * g
            if pos == x:
                return True
        return False
    offset = sign * (x - anchor)
    if offset <= 0 or offset >= program.total:
        return False
    if program.closed_sums:
        n = _max_n_with_sum_below(program, offset, strict=False)
        return n >= 1 and program.partial(n) == offset
    for n in range(1, cap + 1):
        pos = pos + sign * program.gap(n)
        if pos == x:
            return True
        if sign > 0 and pos > x:
            return False
        if sign < 0 and pos < x:
            return False
    raise RuleDivergence(f"membership test for {format_scalar(x)} exceeded {cap} steps")


def reference_component_contains(comp, x, cap) -> bool:
    if not isinstance(comp, GapSequence):
        return component_contains(comp, x, cap)
    if x == comp.anchor:
        return True
    if x > comp.anchor:
        return reference_side_member(comp.anchor, comp.right, +1, x, cap)
    return reference_side_member(comp.anchor, comp.left, -1, x, cap)


def reference_contains(space, x, cap) -> bool:
    return any(reference_component_contains(c, x, cap) for c in space.components)


class Blocked(Exception):
    def __init__(self, value):
        self.value = value


def reference_next_above(comp, x, cap):
    """(candidate, blocking_inf): smallest member > x if attained, and the
    infimum of members > x when that infimum is not attained (else None)."""
    if isinstance(comp, (PeriodicIntervals, IntervalList, HalfLine)):
        raise NotDiscrete("adjacency is only defined on discrete spaces")
    cands = []
    if comp.anchor > x:
        cands.append(comp.anchor)

    def side(program, sign):
        if program is None:
            return
        pos = comp.anchor
        if program.finite:
            for g in program.values:
                pos = pos + sign * g
                if pos > x:
                    cands.append(pos)
            return
        if program.converges:
            limit = comp.anchor + sign * program.total
            if sign < 0 and limit >= x:
                raise Blocked(limit)
            if sign > 0 and limit <= x:
                return
        if program.closed_sums:
            if sign > 0:
                n = _max_n_with_sum_below(program, x - comp.anchor, strict=False) + 1
                cands.append(comp.anchor + program.partial(n))
            else:
                n = _max_n_with_sum_below(program, comp.anchor - x, strict=True)
                if n >= 1:
                    cands.append(comp.anchor - program.partial(n))
            return
        prev = None
        for n in range(1, cap + 1):
            pos = pos + sign * program.gap(n)
            if sign > 0:
                if pos > x:
                    cands.append(pos)
                    return
            else:
                if pos <= x:
                    if prev is not None:
                        cands.append(prev)
                    return
                prev = pos
        raise RuleDivergence(f"successor search for {format_scalar(x)} exceeded {cap} steps")

    blocking = None
    try:
        side(comp.right, +1)
    except Blocked as b:
        blocking = b.value
    try:
        side(comp.left, -1)
    except Blocked as b:
        blocking = b.value if blocking is None else min(blocking, b.value)
    return (min(cands) if cands else None), blocking


def reference_successor(space, x, cap):
    best = None
    blockers = []
    for comp in space.components:
        cand, blocking = reference_next_above(comp, x, cap)
        if cand is not None and (best is None or cand < best):
            best = cand
        if blocking is not None:
            blockers.append(blocking)
    for b in blockers:
        if best is None or b < best:
            return None
    return best


def mirrored(space):
    """The mirror image x -> -x of a space of gap sequences."""
    return SubspaceDescription(
        tuple(GapSequence(-c.anchor, left=c.right, right=c.left) for c in space.components)
    )


def reference_predecessor(space, x, cap):
    try:
        s = reference_successor(mirrored(space), -x, cap)
    except RuleDivergence as err:
        # the mirrored walk names the successor search at -x
        if str(err) != f"successor search for {format_scalar(-x)} exceeded {cap} steps":
            raise
        raise RuleDivergence(
            f"predecessor search for {format_scalar(x)} exceeded {cap} steps"
        ) from None
    return None if s is None else -s


def outcome(fn, *args):
    """A call's value, or the type and text of the plasti error it raised."""
    try:
        return ("value", fn(*args))
    except PlastiError as err:
        return (type(err).__name__, str(err))


positive = st.fractions(min_value=F(1, 5), max_value=3, max_denominator=6)
offsets = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def closed_sum_atoms(draw):
    kind = draw(st.sampled_from(["const", "affine0", "affine", "recipdiff"]))
    if kind == "const":
        return ConstantGaps(draw(positive))
    if kind == "affine0":
        return AffineGaps(F(0), draw(positive))
    if kind == "affine":
        slope = draw(positive)
        offset = draw(st.fractions(min_value=-2, max_value=2, max_denominator=4))
        return AffineGaps(slope, max(offset, F(1, 4) - slope))  # positive at n = 1
    return TelescopingGaps(draw(st.fractions(min_value=F(-4, 5), max_value=4, max_denominator=7)))


def closed_sum_rules():
    alt = st.tuples(closed_sum_atoms(), closed_sum_atoms()).map(AlternatingGaps)
    return closed_sum_atoms() | alt


def recip_rules():
    shifts = st.fractions(min_value=F(-1, 2), max_value=2, max_denominator=3)
    return shifts.map(ReciprocalGaps)


@st.composite
def any_rules(draw):
    kind = draw(st.sampled_from(["closed", "recip", "alt", "explicit"]))
    if kind == "closed":
        return draw(closed_sum_atoms())
    if kind == "recip":
        return draw(recip_rules())
    if kind == "alt":  # closed sums, or walked when an atom is recip
        atoms = closed_sum_atoms() | recip_rules()
        return AlternatingGaps((draw(atoms), draw(atoms)))
    return ExplicitGaps(tuple(draw(st.lists(positive, min_size=1, max_size=4))))


@st.composite
def windows_near(draw, anchor):
    lo = anchor + draw(offsets)
    return Window(lo, lo + draw(st.fractions(min_value=F(1, 6), max_value=8, max_denominator=6)))


@st.composite
def side_cases(draw):
    anchor = draw(offsets)
    left = draw(st.none() | any_rules())
    right = draw(any_rules()) if left is None else draw(st.none() | any_rules())
    window, cap = draw(windows_near(anchor)), draw(st.integers(1, 40))
    return GapSequence(anchor, left=left, right=right), window, cap


CONST_1 = GapSequence(F(0), right=ConstantGaps(F(1)))
TAIL = GapSequence(F(1, 2), left=TelescopingGaps(F(3)))  # 1/4 + 1/(n+4) down to 1/4
WITH_TAIL = SubspaceDescription((ArithmeticProgression(F(0), F(1), "right"), TAIL))
TWO_SIDED = SubspaceDescription(
    (GapSequence(F(0), left=TelescopingGaps(F(0)), right=ConstantGaps(F(1, 2))),)
)


# more steps than any drawn divergent side takes to leave its window
WALK_LIMIT = 10**4


def listed_side_points(comp: GapSequence, window: Window, cap: int) -> tuple:
    """walked_side_points with the cap read as the materialization reads
    it: a convergent side is still cut after cap steps, and a side with a
    recip atom must still leave the window within cap steps, but any other
    divergent rule side is walked out of the window, however far, and
    refused only when more than cap of its members lie in the window. An
    explicit side is listed whole."""
    points, truncated, zones = [], [], []
    for name in ("right", "left"):
        program = getattr(comp, name)
        if program is None:
            continue
        walked = not program.finite and not program.closed_sums
        walk_cap = cap if program.converges or walked else WALK_LIMIT
        one_side = GapSequence(comp.anchor, **{name: program})
        side, cut, zone = walked_side_points(one_side, window, walk_cap)
        members = [p for p in side if p != comp.anchor]
        if not program.finite and len(members) > cap:
            raise RuleDivergence(f"gap rule {program} puts more than {cap} points in {window}")
        points += members
        truncated += cut
        zones += zone
    if window.contains(comp.anchor):
        points.append(comp.anchor)
    return tuple(sorted(points)), tuple(truncated), tuple(zones)


@given(side_cases())
@example((CONST_1, Window(F(-1), F(5)), 5))  # five members in the window, as many as the cap
@example((CONST_1, Window(F(-1), F(5)), 6))  # one more step leaves the window
@example((CONST_1, Window(F(2), F(5)), 2))  # four members in the window, more than the cap
@example((TAIL, Window(F(0), F(10)), 30))  # truncated at the limit 1/4
@example((TAIL, Window(F(1, 4), F(1, 3)), 30))  # the limit is the window edge
# the limit 1 is the near window edge: nothing to list
@example((GapSequence(F(0), right=TelescopingGaps(F(0))), Window(F(1), F(2)), 5))
@example((TAIL, Window(F(1, 3), F(1)), 8))  # the walk leaves at the lower edge
@example((TAIL, Window(F(1, 3), F(1)), 9))  # the cap hits at the lower edge
@example((GapSequence(F(0), right=TelescopingGaps(F(1, 2))), Window(F(1, 2), F(1)), 20))
@example((GapSequence(F(0), left=AffineGaps(F(1, 2), F(-1, 4))), Window(F(-7), F(-1)), 40))
# S(3) = 11/6 is the first partial sum of recip(n+0) past 3/2: 3 steps, not 2
@example((GapSequence(F(0), right=ReciprocalGaps(F(0))), Window(F(-1), F(3, 2)), 3))
@example((GapSequence(F(0), right=ReciprocalGaps(F(0))), Window(F(-1), F(3, 2)), 2))
# an explicit side of 5 members, all in the window, under a cap of 2
@example((GapSequence(F(1), left=ExplicitGaps((F(1, 2),) * 5)), Window(F(-3), F(1)), 2))
def test_sides_match_the_walk(case):
    comp, window, cap = case
    assert outcome(_materialize_points, comp, window, cap) == outcome(
        listed_side_points, comp, window, cap
    )


@pytest.mark.parametrize(
    "window, cap, expected",
    [
        (Window(F(-1), F(5)), 5, ("value", (tuple(F(k) for k in range(6)), (), ()))),
        (
            Window(F(2), F(5)),
            2,
            ("RuleDivergence", "gap rule const(1) puts more than 2 points in [2,5]"),
        ),
    ],
)
def test_the_cap_bounds_the_members_a_side_lists_in_the_window(window, cap, expected):
    # the walk needs 6 and 5 steps from the anchor; the window holds 5 and 4 members
    assert outcome(_materialize_points, CONST_1, window, cap) == expected


FAR_SIDES = [
    GapSequence(F(10**5), left=ConstantGaps(F(1))),
    GapSequence(F(-(10**5)), right=AffineGaps(F(1, 10**5), F(1, 2))),
    GapSequence(F(10**5), left=AlternatingGaps((ConstantGaps(F(1)), AffineGaps(F(0), F(2))))),
]


@pytest.mark.parametrize("comp", FAR_SIDES, ids=["const", "affine", "alt"])
def test_a_side_anchored_far_from_the_window_is_listed(comp):
    # each side takes more than DEFAULT_CAP steps to reach [-10,10], which
    # holds a few dozen of its members
    mat = materialize(SubspaceDescription((comp,)), DEFAULT_WINDOW, DEFAULT_CAP)
    assert 0 < len(mat.points) < 50
    walked = walked_side_points(comp, DEFAULT_WINDOW, 2 * 10**5)
    assert (mat.points, mat.truncated_near, mat.truncation_zones) == walked


def test_a_far_window_is_reached_without_walking_to_it():
    # S(n) = n(n+1)/2 reaches 10^12 near n = 1.4 million, a walk of as
    # many steps; the window holds the partial sums with n from 1414214
    rule = AffineGaps(F(1), F(0))
    window = Window(F(10**12), F(10**12 + 3 * 10**6))
    points, truncated, zones = _materialize_points(GapSequence(F(0), right=rule), window, 10**7)
    assert points == (rule.partial(1414214), rule.partial(1414215))
    assert not truncated and not zones


# -------------------------------------------------------------------
# Membership and index shifts on whole spaces
# -------------------------------------------------------------------


@st.composite
def discrete_spaces(draw):
    """A gap sequence or a progression, with a few isolated points that no
    other component holds, on a window near its anchor and a small cap."""
    anchor = draw(offsets)
    if draw(st.booleans()):
        left = draw(st.none() | any_rules())
        right = draw(any_rules()) if left is None else draw(st.none() | any_rules())
        base = GapSequence(anchor, left=left, right=right)
    else:
        direction = draw(st.sampled_from(["left", "right", "both"]))
        base = ArithmeticProgression(anchor, draw(positive), direction)
    window = draw(windows_near(anchor))
    cap = draw(st.integers(1, 60))
    components = [base]
    near_window = st.fractions(min_value=-7, max_value=15, max_denominator=5).map(
        lambda t: anchor + t
    )
    extra = sorted(set(draw(st.lists(near_window, max_size=3))))
    try:
        extra = [p for p in extra if not component_contains(base, p)]
    except PlastiError:
        extra = []
    if extra:
        components.append(FinitePoints(tuple(extra)))
    return SubspaceDescription(tuple(components)), window, cap


def materialized(space, window, cap):
    try:
        return materialize(space, window, cap)
    except PlastiError:
        return None  # nothing to index: divergence, overlap or an empty window


def probes(mat):
    """Members, their midpoints, zone insides, the window edges and
    values just outside the window."""
    xs = list(mat.points)
    xs += [(a + b) / 2 for a, b in zip(mat.points, mat.points[1:])]
    for z in mat.truncation_zones:
        xs += [z.lo.value + (z.hi.value - z.lo.value) / k for k in (2, 3)]
    w = mat.window
    xs += [w.lo, w.hi, w.lo - F(1, 7), w.hi + F(1, 7)]
    for f in mat.fragments:
        lo, hi = f.interval.lo.value, f.interval.hi.value
        xs += [lo, hi, (lo + hi) / 2]
    return xs


@given(discrete_spaces())
@example((WITH_TAIL, Window(F(0), F(10)), 20))
def test_materialized_membership_matches_contains(case):
    space, window, cap = case
    mat = materialized(space, window, cap)
    if mat is None:
        return
    for x in probes(mat):
        known = mat.member(x)
        in_zone = any(z.contains(x) for z in mat.truncation_zones)
        if window.contains(x) and not in_zone:
            assert known is not None
        if known is not None:
            assert known == contains(space, x, cap)
        for i, comp in enumerate(space.components):
            known = indexed_member(mat, x, i)
            if known is not None:
                assert known == component_contains(comp, x, cap)


def test_materialized_membership_on_interval_spaces():
    # 1 closes the first interval and opens the second: both are looked at
    ivls = (Interval.right_closed(F(0), F(1)), Interval.open(F(1), F(2)), Interval.point(F(3)))
    space = SubspaceDescription((IntervalList(ivls), FinitePoints((F(5, 2), F(7)))))
    mat = materialize(space, Window(F(-1), F(4)))
    for x in (F(-1), F(0), F(1, 2), F(1), F(3, 2), F(2), F(9, 4), F(5, 2), F(3), F(4), F(7)):
        expected = None if x == 7 else contains(space, x)
        assert mat.member(x) == expected
    assert indexed_member(mat, F(5, 2), 1) is True and indexed_member(mat, F(1, 2), 0) is None


CLIMB = SubspaceDescription((GapSequence(F(0), right=TelescopingGaps(F(0))),))  # up to 1
LONG = SubspaceDescription((GapSequence(F(0), right=ExplicitGaps((F(1),) * 8)),))
ALT_FAR = GapSequence(F(0), right=AlternatingGaps((ConstantGaps(F(1)), AffineGaps(F(1), F(0)))))
WALKED_TWO = SubspaceDescription((GapSequence(F(0), right=ReciprocalGaps(F(0))),))
window_offsets = st.lists(st.fractions(min_value=-4, max_value=12, max_denominator=6), max_size=4)


@given(discrete_spaces(), window_offsets)
# a left side falls to 1/4: no smallest member above 0 or 1/4
@example((SubspaceDescription((TAIL,)), Window(F(0), F(1)), 20), [F(0), F(1, 4), F(3, 8)])
# a right side climbs to 1: no largest member below 1 or 2
@example((CLIMB, Window(F(0), F(2)), 20), [F(1), F(2), F(3, 4)])
# an explicit side of 8 members under a cap of 3
@example((LONG, Window(F(-1), F(9)), 3), [F(9), F(9, 2), F(10), F(11)])
# S(2000) = 501500 on alt(1, n): far beyond the cap of 5
@example(
    (SubspaceDescription((ALT_FAR,)), Window(F(501499), F(501503)), 5),
    [F(1), F(2), F(5, 2), F(1003)],
)
# recip(n+0) under a cap of 2: 3/2 = S(2) is a member and 1 its
# predecessor, but the successor needs S(3), a third step
@example((WALKED_TWO, Window(F(0), F(3)), 2), [F(1), F(3, 2)])
def test_membership_and_adjacency_match_the_references(case, offsets):
    space, window, cap = case
    mat = materialized(space, window, cap)
    xs = [window.lo + t for t in offsets] + ([] if mat is None else probes(mat)[::3])
    for x in xs:
        assert outcome(contains, space, x, cap) == outcome(reference_contains, space, x, cap)
        for comp in space.components:
            assert outcome(component_contains, comp, x, cap) == outcome(
                reference_component_contains, comp, x, cap
            )
        assert outcome(successor, space, x, cap) == outcome(reference_successor, space, x, cap)
        assert outcome(predecessor, space, x, cap) == outcome(reference_predecessor, space, x, cap)


def test_an_exhausted_predecessor_walk_names_its_own_search():
    # recip has no closed partial sums, so the left side is walked; three
    # steps do not reach -5
    space = SubspaceDescription((GapSequence(F(0), left=ReciprocalGaps(F(0))),))
    assert outcome(predecessor, space, F(-5), 3) == (
        "RuleDivergence",
        "predecessor search for -5 exceeded 3 steps",
    )


def indexed_member(mat, x, component):
    """Whether x is a point of a discrete component, read from
    ``Materialization.indices`` as run evaluation reads it; None where the
    materialization is not exact or the component is an interval kind."""
    if mat.member(x) is None or mat.component_points[component] is None:
        return None
    return mat.indices(component, (x,), float_keys((x,)))[0] >= 0


def indexed_shift(mat, component, x, steps):
    """The member ``steps`` places from x along the scope's points, as run
    evaluation finds it (``_shift_images``); None where it walks instead."""
    points = mat.scope_points(component)
    if points is None:
        return None
    at = mat.indices(component, (x,), float_keys((x,)))
    return _shift_images(points, at, steps, mat.blocked(component, steps))(0)


def shift_maps(space, steps, restriction=None):
    scopes = ["*", *range(len(space.components))]
    return [IndexShift(c, k, restriction) for c in scopes for k in steps]


@given(discrete_spaces())
@example((WITH_TAIL, Window(F(0), F(10)), 20))
@example((SubspaceDescription((TAIL, FinitePoints((F(1, 8), F(3, 4))))), Window(F(0), F(1)), 12))
@example((TWO_SIDED, Window(F(-1), F(2)), 6))
def test_indexed_shifts_match_successor_and_predecessor(case):
    space, window, cap = case
    mat = materialized(space, window, cap)
    if mat is None:
        return
    middle = Interval.open(window.lo + (window.hi - window.lo) / 3, window.hi)
    clauses = shift_maps(space, (-3, -2, -1, 1, 2, 3)) + shift_maps(space, (1, -2), middle)
    for clause in clauses:
        desc = MapDescription(clauses=(clause,))
        for x in mat.points:
            assert outcome(_eval_member, desc, space, x, cap, mat) == outcome(
                _eval_member, desc, space, x, cap
            )


def test_a_shift_across_a_truncation_zone_falls_back():
    # the tail piles up at 1/4 and is cut after 20 points: from 0 the next
    # materialized point lies beyond the unenumerated stretch, and there is
    # no smallest member above 0
    space = WITH_TAIL
    mat = materialize(space, Window(F(0), F(10)), 20)
    (zone,) = mat.truncation_zones
    assert mat.points[1] == zone.hi.value
    assert indexed_shift(mat, None, F(0), 1) is None
    assert indexed_shift(mat, None, mat.points[1], -1) is None
    assert indexed_shift(mat, None, mat.points[1], 1) == mat.points[2]
    assert indexed_shift(mat, 1, mat.points[1], 1) == mat.points[2]
    assert indexed_shift(mat, 1, F(1, 2), 1) is None  # leaves the tuple: 1/2 is the tail's last point
    desc = MapDescription(clauses=(IndexShift("*", 1),))
    assert outcome(_eval_member, desc, space, F(0), 20, mat)[0] == "NoAdjacentPoint"


def test_shifts_on_interval_scopes_still_raise_not_discrete():
    space = SubspaceDescription(
        (FinitePoints((F(0), F(1))), IntervalList((Interval.open(F(2), F(3)),)))
    )
    mat = materialize(space, Window(F(-1), F(4)))
    assert indexed_shift(mat, None, F(0), 1) is None and indexed_shift(mat, 1, F(0), 1) is None
    assert indexed_shift(mat, 0, F(0), 1) == F(1)
    desc = MapDescription(clauses=(IndexShift("*", 1),))
    with pytest.raises(NotDiscrete):
        _eval_member(desc, space, F(0), 100, mat)


# -------------------------------------------------------------------
# Map evaluation against the per-member clause ladder
# -------------------------------------------------------------------


def reference_eval(desc, space, x, cap, mat):
    """The per-member ladder: every clause is tested at the member x in
    clause order, then the one claiming clause is applied. The window
    materialization, when given, answers membership where it is exact, and
    an index shift that stays in the scope's points and passes no
    truncation zone."""

    def scope(clause):
        if clause.component == "*":
            return None
        if not 0 <= clause.component < len(space.components):
            raise MapError(
                f"index shift names component {clause.component}, space has {len(space.components)}"
            )
        return clause.component

    def member(component):
        if mat is not None and mat.member(x) is not None:
            if component is None:
                return mat.member(x)
            if mat.component_points[component] is not None:
                return x in mat.component_points[component]
        if component is None:
            return contains(space, x, cap)
        return component_contains(space.components[component], x, cap)

    def applies(clause):
        if isinstance(clause, Table):
            return any(k == x for k, _ in clause.entries)
        if isinstance(clause, AffinePiece):
            return clause.domain.contains(x)
        if clause.restriction is not None and not clause.restriction.contains(x):
            return False
        return member(scope(clause))

    applying = [c for c in desc.clauses if applies(c)]
    if not applying:
        raise NoPieceApplies(f"no clause claims {format_scalar(x)}")
    if len(applying) > 1:
        raise AmbiguousPiece(f"{len(applying)} clauses claim {format_scalar(x)}")
    (clause,) = applying
    if isinstance(clause, Table):
        return clause.lookup(x)
    if isinstance(clause, AffinePiece):
        return clause.apply(x)
    component = scope(clause)
    points = None if mat is None else mat.scope_points(component)
    if points is not None and x in points and 0 <= points.index(x) + clause.steps < len(points):
        target = points[points.index(x) + clause.steps]
        lo, hi = sorted((x, target))
        if not any(z.lo.value < hi and lo < z.hi.value for z in mat.truncation_zones):
            return target
    walked = space if component is None else SubspaceDescription((space.components[component],))
    step = successor if clause.steps > 0 else predecessor
    for _ in range(abs(clause.steps)):
        nxt = step(walked, x, cap)
        if nxt is None:
            raise NoAdjacentPoint(f"no member adjacent to {format_scalar(x)} in the shift direction")
        x = nxt
    return x


def members_near(space, mat, cap) -> list:
    """Ascending members to evaluate at: the window's points and closed
    fragment ends, and the nearest members beyond each window edge."""
    xs = set(mat.points)
    for f in mat.fragments:
        xs.update(e.value for e in (f.interval.lo, f.interval.hi) if e.closed)
    for step, edge in ((successor, mat.window.hi), (predecessor, mat.window.lo)):
        try:
            beyond = step(space, edge, cap)
        except PlastiError:
            continue
        if beyond is not None:
            xs.add(beyond)
    return sorted(xs)


@st.composite
def maps_near(draw, xs, components):
    """A map of one to three clauses whose ends, keys and restrictions fall
    on the members xs, between them or at infinity, and whose table values
    are often members: covers that hold, and covers with zero or two claims."""
    mids = [(a + b) / 2 for a, b in zip(xs, xs[1:])]
    cut = st.sampled_from(xs + mids)
    small = st.fractions(min_value=-4, max_value=4, max_denominator=4)

    def end(infinity):
        if draw(st.integers(0, 4)) == 0:
            return Endpoint(infinity, False)
        return Endpoint(draw(cut), draw(st.booleans()))

    def interval():
        lo, hi = end(NEG_INF), end(POS_INF)
        if hi.value < lo.value:
            lo, hi = Endpoint(hi.value, lo.closed), Endpoint(lo.value, hi.closed)
        if lo.value == hi.value:
            lo, hi = Endpoint(lo.value, True), Endpoint(hi.value, True)
        return Interval(lo, hi)

    clauses = []
    for kind in draw(st.lists(st.sampled_from(["table", "affine", "shift"]), min_size=1, max_size=3)):
        if kind == "table":
            keys = draw(st.lists(cut, min_size=1, max_size=3, unique=True))
            clauses.append(Table(tuple((k, draw(st.sampled_from(xs) | small)) for k in keys)))
        elif kind == "affine":
            clauses.append(AffinePiece(interval(), draw(small), draw(small)))
        else:
            component = draw(st.sampled_from(["*", *range(components + 1)]))
            restriction = interval() if draw(st.booleans()) else None
            clauses.append(IndexShift(component, draw(st.integers(-3, 3)), restriction))
    return MapDescription(clauses=tuple(clauses))


@st.composite
def eval_cases(draw):
    """A discrete space, sometimes with an interval part, its members near
    the window, and a map near them."""
    space, window, cap = draw(discrete_spaces())
    if draw(st.booleans()):
        lo = window.hi - draw(st.fractions(min_value=0, max_value=2, max_denominator=3))
        piece = Interval(Endpoint(lo, draw(st.booleans())), Endpoint(lo + 1, draw(st.booleans())))
        space = SubspaceDescription(space.components + (IntervalList((piece,)),))
    mat = materialized(space, window, cap)
    assume(mat is not None)
    xs = members_near(space, mat, cap)
    assume(xs)
    return space, mat, cap, xs, draw(maps_near(xs, len(space.components)))


SHIFTS_AND_A_TABLE = MapDescription(
    clauses=(
        IndexShift(1, 2, Interval.open(F(0), F(1))),  # the tail, across its zone
        IndexShift(0, -1, Interval.left_closed(F(1), POS_INF)),
        Table(((F(0), F(7)),)),
    )
)


# the integers, and a walked side from 1/3 that passes 2 in three steps
RECIP_BESIDE = SubspaceDescription(
    (ArithmeticProgression(F(0), F(1), "right"), GapSequence(F(1, 3), right=ReciprocalGaps(F(0))))
)


def eval_case(space, window, cap, desc):
    mat = materialize(space, window, cap)
    return space, mat, cap, members_near(space, mat, cap), desc


@given(eval_cases())
@example(eval_case(WITH_TAIL, Window(F(0), F(10)), 12, SHIFTS_AND_A_TABLE))
@example(
    eval_case(
        TWO_SIDED,
        Window(F(-1), F(2)),
        6,
        MapDescription(
            clauses=(IndexShift("*", 3), AffinePiece(Interval.closed(F(1), F(2)), F(1), F(0)))
        ),
    )
)
# points whose float keys tie with 1/4's, in two components
@example(
    eval_case(
        SubspaceDescription(
            (
                FinitePoints(tuple(F(1, 4) + F(1, 10**k) for k in (20, 19, 18))),
                FinitePoints((F(1, 4), F(1, 4) + F(1, 10**21), F(1))),
            )
        ),
        Window(F(0), F(2)),
        10,
        MapDescription(
            clauses=(
                IndexShift(0, 1, Interval.open(F(1, 4), F(1, 2))),
                IndexShift("*", -2, Interval.closed(F(0), F(1, 4))),
                IndexShift(1, -1, Interval.closed(F(1, 2), F(2))),
            )
        ),
    )
)
# the shift that names a missing component comes first, so its error wins
# over the scope test at 100, outside the window, which walks past the cap
@example(
    (
        RECIP_BESIDE,
        materialize(RECIP_BESIDE, Window(F(0), F(2)), 3),
        3,
        [F(0), F(1), F(100)],
        MapDescription(clauses=(IndexShift(7, 1), IndexShift(1, -1))),
    )
)
def test_evaluation_matches_the_clause_ladder(case):
    space, mat, cap, xs, desc = case
    for m in (mat, None):
        expected = [outcome(reference_eval, desc, space, x, cap, m) for x in xs]
        assert [outcome(_eval_member, desc, space, x, cap, m) for x in xs] == expected
        images = _Images(desc, space, xs, cap, m)
        assert [as_outcome(images[i]) for i in range(len(xs))] == expected
        # asked for in descending order, and each twice
        order = [i for i in reversed(range(len(xs))) for _ in (0, 1)]
        images = _Images(desc, space, xs, cap, m)
        assert [as_outcome(images[i]) for i in order] == [expected[i] for i in order]


def reference_member(space, x, cap, mat) -> bool:
    known = mat.member(x)
    return contains(space, x, cap) if known is None else known


def reference_round_trip(ws, back, space, cap):
    """Sample by sample: the image must be a member, and ``back`` must undo it."""
    for s in ws.point_samples:
        if not reference_member(space, s.value, cap, ws.materialization):
            return "leaves", s.x
        if reference_eval(back, space, s.value, cap, ws.materialization) != s.x:
            return "undo", s.x
    return None


def reference_first_escape(desc, space, xs, cap, mat):
    """Every image evaluated first, in x order, raising the first error;
    then the first image that is not a member, tested in x order."""
    images = [reference_eval(desc, space, x, cap, mat) for x in xs]
    return next((i for i, y in enumerate(images) if not reference_member(space, y, cap, mat)), None)


@given(eval_cases(), st.data())
def test_round_trips_and_escapes_match_the_sample_loop(case, data):
    space, mat, cap, xs, desc = case
    evaluated = _Images(desc, space, xs, cap, mat)
    images = [(x, evaluated[i]) for i, x in enumerate(xs)]
    images = [(x, y) for x, y in images if not isinstance(y, PlastiError)]
    assume(images)
    back = data.draw(maps_near(sorted(set(xs) | {y for _, y in images}), len(space.components)))
    ws = WindowSamples(mat, tuple(Sample(x, y, True) for x, y in images), (), ())
    witness = outcome(_round_trip, ws, back, space, cap, "leaves", "undo")
    if witness[0] == "value" and witness[1] is not None:
        witness = ("value", (witness[1].detail, witness[1].points[0]))
    assert witness == outcome(reference_round_trip, ws, back, space, cap)
    assert outcome(_first_escape, space, _Images(desc, space, xs, cap, mat), cap, mat) == outcome(
        reference_first_escape, desc, space, xs, cap, mat
    )


def test_a_round_trip_walks_no_further_than_its_first_failing_sample(monkeypatch):
    # x -> x + 100 on the integers, with a declared inverse that steps back
    # only 99: every image lies past the window, so each inverse image is a
    # walk of 99 predecessor steps, and the first sample already fails
    integers = GapSequence(F(0), left=ConstantGaps(F(1)), right=ConstantGaps(F(1)))
    space = SubspaceDescription((integers,))
    forward = MapDescription(clauses=(AffinePiece(full_line(), F(1), F(100)),))
    back = MapDescription(clauses=(IndexShift("*", -99),))
    ws = collect_samples(forward, space, Window(F(0), F(10)), 200)
    assert len(ws.point_samples) == 11
    steps = []
    monkeypatch.setattr(maps, "predecessor", lambda *a: steps.append(a) or predecessor(*a))
    witness = _round_trip(ws, back, space, 200, "leaves", "undo")
    assert (witness.points, witness.detail) == ((F(0),), "undo")
    assert len(steps) == 99


def test_a_round_trip_tests_membership_only_up_to_its_first_failing_sample(monkeypatch):
    # the same map as a bijection check: 0 -> 100 is a member, and stepping
    # back 99 from it gives 1, not 0. One scope test for the inverse's
    # shift and one for the image; the other ten images are never reached
    space = parse_space("arith: anchor=0 step=1 dir=both\n")
    forward = parse_map(
        "piece: dom=(-inf,+inf) slope=1 icpt=100\ninverse: idxshift: comp=0 k=-99\n"
    )
    calls = []
    monkeypatch.setattr(maps, "contains", lambda *a: calls.append(a) or contains(*a))
    report = check_bijection(forward, space, Window(F(0), F(10)))
    assert report.witness.render() == "declared inverse does not undo the map (0 -> 100)"
    assert len(calls) <= 2


def as_outcome(image):
    """An image, or a plasti error, in the form ``outcome`` gives."""
    if isinstance(image, PlastiError):
        return (type(image).__name__, str(image))
    return ("value", image)



# -------------------------------------------------------------------
# Window checks against the eager checks
# -------------------------------------------------------------------
#
# The window checks read one core per map and window, whose images are
# evaluated on demand. The eager code they replace stays here as the
# reference: ``reference_collect_samples`` evaluates every sample before
# any check runs, ``reference_escape`` then tests the images in sample
# order, and ``reference_eager_round_trip`` tests every image for
# membership before it evaluates the way back.


def reference_collect_samples(desc, space, window, cap):
    mat = materialize(space, window, cap)
    pts = list(mat.points)
    subsampled = False
    if len(pts) > maps.MAX_PAIR_SAMPLES:
        stride = -(-len(pts) // maps.MAX_PAIR_SAMPLES)
        kept = pts[::stride]
        if kept[-1] != pts[-1]:
            kept.append(pts[-1])
        pts = kept
        subsampled = True
    extra_xs = set()
    for clause in desc.clauses:
        if isinstance(clause, Table):
            for k, _ in clause.entries:
                if window.contains(k) and maps._member(space, k, cap, mat):
                    extra_xs.add(k)
    spans, limit_samples = [], []
    for frag in mat.fragments:
        ivl = frag.interval
        frag_spans = []
        for piece in (c for c in desc.clauses if isinstance(c, AffinePiece)):
            lo = max(maps._clip(piece.domain.lo.value, ivl.lo.value, ivl.hi.value), ivl.lo.value)
            hi = min(maps._clip(piece.domain.hi.value, ivl.lo.value, ivl.hi.value), ivl.hi.value)
            if lo < hi:
                frag_spans.append(maps.PieceSpan(piece, lo, hi))
        frag_spans.sort(key=lambda s: (s.lo, s.hi))
        for a, b in combinations(frag_spans, 2):
            if max(a.lo, b.lo) < min(a.hi, b.hi):
                mid = (max(a.lo, b.lo) + min(a.hi, b.hi)) / 2
                raise AmbiguousPiece(f"two pieces claim the stretch around {format_scalar(mid)}")
        cursor = ivl.lo.value
        for s in frag_spans:
            if s.lo > cursor:
                raise NoPieceApplies(
                    f"no clause claims members between {format_scalar(cursor)} and {format_scalar(s.lo)}"
                )
            cursor = max(cursor, s.hi)
        if cursor < ivl.hi.value:
            raise NoPieceApplies(
                f"no clause claims members between {format_scalar(cursor)} and {format_scalar(ivl.hi.value)}"
            )
        cuts = {ivl.lo.value, ivl.hi.value}
        for s in frag_spans:
            cuts.update((s.lo, s.hi))
        for x in sorted(cuts):
            if ivl.contains(x):
                extra_xs.add(x)
            for s in frag_spans:
                if x in (s.lo, s.hi):
                    limit_samples.append(Sample(x, s.piece.apply(x), False, s))
        spans.extend(frag_spans)
    extra_xs = sorted(x for x in extra_xs if x not in pts)
    xs = sorted(pts + extra_xs)
    evaluated = _Images(desc, space, xs, cap, mat)
    images = [evaluated[i] for i in range(len(xs))]
    for image in images:
        if isinstance(image, PlastiError):
            raise image
    point_samples = tuple(Sample(x, y, True) for x, y in zip(xs, images))
    true_at = {s.x: s.value for s in point_samples}
    limit_samples = [s for s in limit_samples if s.x not in true_at or s.value != true_at[s.x]]
    return WindowSamples(mat, point_samples, tuple(limit_samples), tuple(spans), subsampled)


def reference_escape(space, ws, cap):
    """The first sample image outside the space, every image tested in turn, then the spans."""
    mat = ws.materialization
    i, error = maps._first_outside(space, [s.value for s in ws.point_samples], cap, mat)
    if error is not None:
        raise error
    if i < len(ws.point_samples):
        s = ws.point_samples[i]
        return maps.Witness((s.x,), (s.value,), "image leaves the space")
    for span in ws.spans:
        va, vb = span.piece.apply(span.lo), span.piece.apply(span.hi)
        image_lo, image_hi = min(va, vb), max(va, vb)
        if image_lo == image_hi and not maps._member(space, image_lo, cap, mat):
            q, _ = span.inner_pair()
            return maps.Witness((q,), (image_lo,), "flat piece lands outside the space")
        y = maps._value_outside(space, image_lo, image_hi, cap)
        if y is not None:
            bad = (y - span.piece.intercept) / span.piece.slope
            return maps.Witness((bad,), (y,), "piece image leaves the space")
    return None


def reference_eager_round_trip(ws, back, space, cap, leaves, undo):
    """Every image tested for membership first, then ``back`` on those before the first failure."""
    mat = ws.materialization
    samples = ws.point_samples
    stop, failure = maps._first_outside(space, [s.value for s in samples], cap, mat)
    ys = sorted({s.value for s in samples[:stop]})
    rank = [ys.index(s.value) for s in samples[:stop]]
    images = _Images(back, space, ys, cap, mat)
    for s, r in zip(samples, rank):
        image = images[r]
        if isinstance(image, PlastiError):
            raise image
        if image != s.x:
            return maps.Witness((s.x,), (s.value,), undo)
    if failure is not None:
        raise failure
    return None if stop == len(samples) else maps.Witness((samples[stop].x,), (samples[stop].value,), leaves)


def reference_endomorphism(desc, space, window, cap):
    ws = reference_collect_samples(desc, space, window, cap)
    return maps._report("endomorphism", window, ws, reference_escape(space, ws, cap))


def reference_bijection(desc, space, window, cap):
    """The bijection check through its declared inverse, on the eager samples."""
    ws = reference_collect_samples(desc, space, window, cap)
    witness = maps._collision(ws)
    if witness is not None:
        return maps._report("bijection", window, ws, witness)
    inv = desc.inverse
    inv_ws = reference_collect_samples(inv, space, window, cap)
    leaves, undo = "image leaves the space, cannot be onto", "declared inverse does not undo the map"
    witness = reference_eager_round_trip(ws, inv, space, cap, leaves, undo)
    if witness is None:
        leaves, undo = "declared inverse leaves the space", "map does not undo the declared inverse"
        witness = reference_eager_round_trip(inv_ws, desc, space, cap, leaves, undo)
    onto = "onto certified through the declared inverse on window members"
    return maps._report("bijection", window, ws, witness, onto)


ZONED = (WITH_TAIL, Window(F(0), F(10)), 12)  # the tail is cut after 12 points above 1/4


@st.composite
def window_check_cases(draw):
    """A discrete space, or the integers with a tail cut short of its
    limit, and a map with a declared inverse, both near its members:
    tables, pieces and shifts, with covers that hold and covers that break."""
    space, window, cap = draw(discrete_spaces() | st.just(ZONED))
    mat = materialized(space, window, cap)
    assume(mat is not None)
    xs = members_near(space, mat, cap)
    forward = draw(maps_near(xs, len(space.components)))
    inverse = draw(maps_near(xs, len(space.components)))
    return space, window, cap, MapDescription(forward.clauses, inverse)


NATURALS = SubspaceDescription((ArithmeticProgression(F(0), F(1), "right"),))
TO_TEN = SubspaceDescription((FinitePoints(tuple(F(k) for k in range(11))),))
IDENTITY = MapDescription(clauses=(AffinePiece(full_line(), F(1), F(0)),))


def with_inverse(*clauses, inverse=IDENTITY):
    return MapDescription(clauses=clauses, inverse=inverse)


@given(window_check_cases())
# 0 -> 1/2 leaves the space, and the walk up from 10, the last member, finds none
@example(
    (
        TO_TEN,
        Window(F(0), F(10)),
        20,
        with_inverse(
            AffinePiece(Interval.left_closed(F(0), F(10)), F(1), F(1, 2)),
            IndexShift("*", 1, Interval.point(F(10))),
        ),
    )
)
# the second block: testing 100 walks past the cap, and 1/2, which the
# materialization refuses at once, comes after it
@example(
    (
        WALKED_TWO,
        Window(F(0), F(3, 2)),
        3,
        with_inverse(Table(((F(0), F(0)), (F(1), F(100)), (F(3, 2), F(1, 2))))),
    )
)
# testing 100 walks past the cap, but no clause claims the later 3/2
@example(
    (
        WALKED_TWO,
        Window(F(0), F(3, 2)),
        3,
        with_inverse(Table(((F(0), F(100)), (F(1), F(0))))),
    )
)
# only the last member leaves, and the inverse undoes the rest
@example(
    (
        NATURALS,
        Window(F(0), F(10)),
        20,
        with_inverse(
            Table(((F(10), F(1, 2)),)),
            AffinePiece(Interval(Endpoint(NEG_INF, False), Endpoint(F(10), False)), F(1), F(0)),
        ),
    )
)
# 702 points, every other one sampled and the last: a shift reads each
# sample's index among all the points
@example(
    (
        NATURALS,
        Window(F(0), F(701)),
        1000,
        with_inverse(
            IndexShift("*", 1),
            inverse=MapDescription(
                clauses=(IndexShift("*", -1, Interval.left_closed(F(1), POS_INF)), Table(((F(0), F(702)),)))
            ),
        ),
    )
)
# 0 -> -1 leaves the space, and 13/50, a tail member in the zone, is
# claimed by the table and by the tail's shift, tested there on demand
@example(
    (
        *ZONED,
        with_inverse(
            Table(((F(0), F(-1)), (F(13, 50), F(13, 50)))),
            AffinePiece(Interval.left_closed(F(1), POS_INF), F(1), F(0)),
            IndexShift(1, -1),
        ),
    )
)
# one index down the tail: from the lowest listed tail point the shift
# is blocked by the zone and walks; the inverse shifts back up
@example(
    (
        *ZONED,
        with_inverse(
            Table(((F(0), F(1, 2)),)),
            AffinePiece(Interval.left_closed(F(1), POS_INF), F(1), F(-1)),
            IndexShift(1, -1),
            inverse=MapDescription(
                clauses=(
                    Table(((F(1, 2), F(0)), (F(0), F(1)))),
                    AffinePiece(Interval.open(F(1, 2), POS_INF), F(1), F(1)),
                    IndexShift(1, 1, Interval.open(F(1, 4), F(1, 2))),
                )
            ),
        ),
    )
)
def test_window_checks_match_the_eager_checks(case):
    space, window, cap, desc = case
    assert outcome(check_endomorphism, desc, space, window, cap) == outcome(
        reference_endomorphism, desc, space, window, cap
    )
    assert outcome(collect_samples, desc, space, window, cap) == outcome(
        reference_collect_samples, desc, space, window, cap
    )
    assert outcome(check_bijection, desc, space, window, cap) == outcome(
        reference_bijection, desc, space, window, cap
    )


# -------------------------------------------------------------------
# Float keys: bisect the floats, compare exactly only a tied run
# -------------------------------------------------------------------

QUARTER_TIES = [F(1, 4) + F(1, 10**k) for k in (20, 19, 18)]  # ascending
tie_values = st.one_of(
    # float(1/4 + 1/n) is float(1/4) for every such n
    st.integers(10**17, 10**20).map(lambda n: F(1, 4) + F(1, n)),
    # 10**-30 apart
    st.tuples(st.sampled_from((F(0), F(-3, 7), F(1, 4), F(10**6))), st.integers(-9, 9)).map(
        lambda ck: ck[0] + F(ck[1], 10**30)
    ),
    # past the float range, as ints and as Fractions: the keys clamp to ±inf
    st.tuples(st.sampled_from((10**400, -(10**400))), st.integers(-3, 3)).map(sum),
    st.tuples(st.sampled_from((10**400, -(10**400))), st.integers(-3, 3)).map(
        lambda bk: F(bk[0] + bk[1], 3)
    ),
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=8),
)


def float_keys(points) -> array:
    return array("d", map(_float_key, points))


def test_the_cluster_values_tie_as_floats():
    assert {_float_key(x) for x in QUARTER_TIES} == {0.25}
    assert _float_key(F(1, 4) - F(1, 10**30)) == _float_key(F(1, 4) + F(1, 10**30))
    assert _float_key(10**400) == _float_key(F(10**400, 3)) == inf
    assert _float_key(-(10**400)) == -inf


@given(st.lists(tie_values, max_size=40, unique=True), st.lists(tie_values, max_size=8))
@example(QUARTER_TIES, [])  # a member at the bottom of a tied run
@example([-(10**400), F(-(10**400) + 1, 3), 0, F(10**400, 3), 10**400], [F(10**400 + 1, 3)])
def test_locate_is_bisect_left(values, others):
    points = sorted(values)
    keys = float_keys(points)
    for x in points + others:
        assert _locate(points, keys, x) == bisect.bisect_left(points, x)


def reference_shift(space, x, steps, cap):
    step = reference_successor if steps > 0 else reference_predecessor
    for _ in range(abs(steps)):
        x = step(space, x, cap)
        if x is None:
            return None
    return x


@given(
    st.lists(tie_values.map(F), min_size=1, max_size=30, unique=True),
    st.lists(tie_values.map(F), max_size=6, unique=True),
    st.integers(-3, 3),
)
@example(QUARTER_TIES, [F(1, 4)], 1)
@example(QUARTER_TIES[1:], [QUARTER_TIES[0], F(1, 4) + F(1, 10**17)], -1)
def test_member_and_shift_on_float_ties_match_the_references(cluster, extra, steps):
    """FinitePoints clusters whose floats tie, wholly inside the window:
    the materialization answers every lookup, and a shift that leaves the
    tuple has no member to reach."""
    cap = 10
    extra = sorted(set(extra) - set(cluster))
    components = [FinitePoints(tuple(sorted(cluster)))]
    if extra:
        components.append(FinitePoints(tuple(extra)))
    space = SubspaceDescription(tuple(components))
    everything = cluster + extra
    mat = materialize(space, Window(min(everything) - 1, max(everything) + 1), cap)
    probes = everything + [F(1, 4), F(1, 4) + F(1, 10**21), F(10**400 + 2, 3)]
    for x in filter(mat.window.contains, probes):
        assert mat.member(x) == reference_contains(space, x, cap)
        for i, comp in enumerate(space.components):
            assert indexed_member(mat, x, i) == reference_component_contains(comp, x, cap)
    for x in everything:
        assert indexed_shift(mat, None, x, steps) == reference_shift(space, x, steps, cap)
        i = 0 if x in cluster else 1
        scope = SubspaceDescription((space.components[i],))
        assert indexed_shift(mat, i, x, steps) == reference_shift(scope, x, steps, cap)


@pytest.mark.parametrize(
    "sets, at",
    [
        ([(F(0), F(1)), (F(1), F(2))], "1"),
        # the shared point sits in a run of points whose float keys tie
        ([(F(0), QUARTER_TIES[1]), (F(1, 4), *QUARTER_TIES)], format_scalar(QUARTER_TIES[1])),
    ],
)
def test_components_that_share_a_point_are_refused(sets, at):
    space = SubspaceDescription(tuple(FinitePoints(pts) for pts in sets))
    with pytest.raises(PlastiError) as err:
        materialize(space, Window(F(-1), F(3)))
    assert str(err.value) == f"components overlap at point {at}"


# -------------------------------------------------------------------
# Progressions against their own arithmetic
# -------------------------------------------------------------------
#
# A progression is a gap sequence with const(step) sides. The arithmetic
# that once answered for it as a component kind of its own stays here as
# the reference: the closed-form range of k with a + k*s in the window,
# k-integrality for membership, and floor + 1 for the next member.


def progression_points(anchor, step, direction, window, cap) -> tuple:
    """The members a + k*s in the window; each side (k > 0, k < 0) may hold at most cap."""
    k_lo = -((anchor - window.lo) / step).__floor__()  # smallest k with a + k s >= lo
    k_hi = ((window.hi - anchor) / step).__floor__()  # largest k with a + k s <= hi
    if direction == "right":
        k_lo = max(k_lo, 0)
    if direction == "left":
        k_hi = min(k_hi, 0)
    for count in (k_hi - max(k_lo, 1) + 1, min(k_hi, -1) - k_lo + 1):
        if count > cap:
            raise RuleDivergence(
                f"gap rule const({format_scalar(step)}) puts more than {cap} points in {window}"
            )
    return tuple(anchor + k * step for k in range(k_lo, k_hi + 1))


def progression_contains(anchor, step, direction, x) -> bool:
    k = (x - anchor) / step
    return k.denominator == 1 and not (
        direction == "right" and k < 0 or direction == "left" and k > 0
    )


def progression_next(anchor, step, direction, x, toward):
    """The nearest member beyond x, upward (toward 1) or downward (-1)."""
    k = (toward * (x - anchor) / step).__floor__() + 1  # steps from the anchor, toward
    if direction == ("right" if toward > 0 else "left"):
        k = max(k, 0)
    elif direction != "both" and k > 0:
        return None
    return anchor + toward * k * step


far_anchors = st.sampled_from([0, 10**6, -(10**6), 10**30, -(10**30)]).flatmap(
    lambda base: offsets.map(lambda t: base + t)
)


@given(
    far_anchors,
    positive,
    st.sampled_from(["left", "right", "both"]),
    windows_near(F(0)),
    st.integers(1, 60),
)
@example(F(10**6), F(1), "left", Window(F(-10), F(10)), 20)  # the window holds 21 members
@example(F(10**6), F(1), "left", Window(F(-10), F(10)), 21)
@example(F(-(10**30)), F(1, 3), "right", Window(F(-1), F(5)), 18)
@example(F(0), F(1), "both", Window(F(-5), F(5)), 5)  # 11 members, 5 on each side
def test_progressions_match_their_arithmetic(anchor, step, direction, window, cap):
    comp = ArithmeticProgression(anchor, step, direction)
    expected = outcome(progression_points, anchor, step, direction, window, cap)
    if expected[0] == "value":
        expected = ("value", (expected[1], (), ()))
    assert outcome(_materialize_points, comp, window, cap) == expected
    space = SubspaceDescription((comp,))
    xs = [window.lo, window.hi, (window.lo + window.hi) / 2, anchor, anchor + step / 2]
    xs += [anchor + k * step for k in (-2, -1, 1, 2)]
    for x in xs:
        assert component_contains(comp, x, cap) == progression_contains(anchor, step, direction, x)
        assert successor(space, x, cap) == progression_next(anchor, step, direction, x, 1)
        assert predecessor(space, x, cap) == progression_next(anchor, step, direction, x, -1)


# -------------------------------------------------------------------
# Finite point sets against their bisect branches
# -------------------------------------------------------------------
#
# A finite point set is a gap sequence anchored at its least point with an
# explicit right side, or the bare anchor. The bisect branches that once
# answered for it as a component kind of its own stay here as the
# reference: the window filter for materialization, bisect_left for
# membership, bisect_right and bisect_left for the next member up and
# down, the first and last points for the bounds, and the concatenation of
# sets whose hulls do not meet for the sequence view.


def finite_points_in(points, window) -> tuple:
    return tuple(p for p in points if window.lo <= p <= window.hi)


def finite_contains(points, x) -> bool:
    i = bisect.bisect_left(points, x)
    return i < len(points) and points[i] == x


def finite_next(points, x, toward):
    """The nearest point beyond x, upward (toward 1) or downward (-1)."""
    if toward > 0:
        i = bisect.bisect_right(points, x)
        return points[i] if i < len(points) else None
    i = bisect.bisect_left(points, x)
    return points[i - 1] if i else None


def finite_bounds(points) -> Bounds:
    return Bounds(BoundInfo(True, points[0], True), BoundInfo(True, points[-1], True))


def finite_view(sets) -> Optional[SequenceView]:
    ordered = sorted(sets, key=lambda points: points[0])
    if any(b[0] <= a[-1] for a, b in zip(ordered, ordered[1:])):
        return None  # interleaved hulls
    return SequenceView(tuple(p for points in ordered for p in points), None, None)


@st.composite
def finite_sets(draw):
    """One or two disjoint sets of values whose floats may tie or overflow,
    a window whose edges may fall on members or between them, and a cap."""
    values = sorted(set(draw(st.lists(tie_values, min_size=1, max_size=12))))
    first = draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values)))
    sets = [[v for v, f in zip(values, first) if f == side] for side in (True, False)]
    edge = st.sampled_from(values) | tie_values
    lo, hi = sorted((draw(edge), draw(edge)))
    assume(lo < hi)
    return [s for s in sets if s], Window(F(lo), F(hi)), draw(st.integers(1, 4))


@given(finite_sets())
@example(([[F(1, 4)]], Window(F(0), F(1)), 1))  # a single point
@example(([QUARTER_TIES], Window(QUARTER_TIES[0], QUARTER_TIES[1]), 1))  # the window cuts a tie
@example(([QUARTER_TIES[::2], QUARTER_TIES[1:2]], Window(F(0), F(1)), 2))  # interleaved sets
@example(([[-(10**400), 0], [10**400]], Window(F(-1), F(10**400)), 1))
def test_finite_sets_match_their_bisect_branches(case):
    sets, window, cap = case
    components = tuple(FinitePoints(tuple(points)) for points in sets)
    space = SubspaceDescription(components)
    for comp, points in zip(components, sets):
        assert _materialize_points(comp, window, cap) == (finite_points_in(points, window), (), ())
        assert component_bounds(comp) == finite_bounds(points)
    assert sequence_view(space) == finite_view(sets)
    members = sorted(p for points in sets for p in points)
    xs = members + [F(a + b) / 2 for a, b in zip(members, members[1:])]
    xs += [window.lo, window.hi, members[0] - 1, members[-1] + 1]
    for x in xs:
        assert contains(space, x, cap) == any(finite_contains(points, x) for points in sets)
        ups = [y for y in (finite_next(points, x, 1) for points in sets) if y is not None]
        downs = [y for y in (finite_next(points, x, -1) for points in sets) if y is not None]
        assert successor(space, x, cap) == min(ups, default=None)
        assert predecessor(space, x, cap) == max(downs, default=None)
