"""Space descriptions: exact topology, materialization, spectra, balls,
hulls and metadata validation.

Frozen expected values were computed by hand from the defining formulas
(partial sums of gap rules, interval arithmetic) rather than read back
from the implementation.
"""

from fractions import Fraction as F
from math import isqrt

import pytest
from hypothesis import example, given, strategies as st

from plasti.errors import (
    NotDiscrete,
    SpaceError,
    WindowTooSmall,
)
from plasti.space import (
    AffineGaps,
    AlternatingGaps,
    ArithmeticProgression,
    BoundDecl,
    ConstantGaps,
    Endpoint,
    ExplicitGaps,
    INFINITE,
    FinitePoints,
    GapSequence,
    HalfLine,
    Interval,
    IntervalList,
    PeriodicIntervals,
    ReciprocalGaps,
    SubspaceDescription,
    TelescopingGaps,
    Window,
    _poly_mul,
    _poly_nonneg_all,
    _poly_shift,
    _poly_sub,
    accumulation_points,
    ball_census,
    contains,
    gap_spectrum,
    hull,
    is_bounded,
    materialize,
    predecessor,
    successor,
    validate_metadata,
)
from plasti.scalar import NEG_INF, POS_INF, Infinity

W = Window(F(-10), F(10))


def points(*vals) -> SubspaceDescription:
    return SubspaceDescription(components=(FinitePoints(tuple(F(v) for v in vals)),))


# -------------------------------------------------------------------
# Endpoint and interval topology
# -------------------------------------------------------------------


def test_infinite_endpoint_must_be_open():
    with pytest.raises(SpaceError):
        Endpoint(POS_INF, True)


def test_interval_order_and_degenerate_rules():
    with pytest.raises(SpaceError):
        Interval(Endpoint(F(1), True), Endpoint(F(0), True))
    with pytest.raises(SpaceError):
        Interval.open(F(1), F(1))
    assert Interval.point(F(1)).degenerate


@pytest.mark.parametrize(
    "ivl,inside,outside",
    [
        (Interval.open(F(0), F(1)), F(1, 2), F(0)),
        (Interval.closed(F(0), F(1)), F(0), F(2)),
        (Interval.left_closed(F(0), F(1)), F(0), F(1)),
        (Interval.right_closed(F(0), F(1)), F(1), F(0)),
    ],
)
def test_interval_contains_respects_topology(ivl, inside, outside):
    assert ivl.contains(inside)
    assert not ivl.contains(outside)


# -------------------------------------------------------------------
# Component validation
# -------------------------------------------------------------------


def test_component_constructor_rejections():
    with pytest.raises(SpaceError):
        FinitePoints((F(1), F(0)))
    with pytest.raises(SpaceError):
        ArithmeticProgression(F(0), F(0), "both")
    with pytest.raises(SpaceError):
        IntervalList((Interval.closed(F(0), F(2)), Interval.closed(F(1), F(3))))
    with pytest.raises(SpaceError):
        HalfLine(Endpoint(POS_INF, False), "right")


def test_zero_gap_periodic_needs_open_topology():
    # Shared endpoints are excluded only by open pieces; anything else
    # would make consecutive intervals overlap in a point.
    PeriodicIntervals(F(1), F(0), F(0), "open", "both")
    for topo in ("closed", "left-closed", "right-closed"):
        with pytest.raises(SpaceError):
            PeriodicIntervals(F(1), F(0), F(0), topo, "both")


def test_bound_declaration_shape():
    with pytest.raises(SpaceError):
        BoundDecl("attained")
    with pytest.raises(SpaceError):
        BoundDecl("unbounded", F(0))


# -------------------------------------------------------------------
# Materialization
# -------------------------------------------------------------------


def test_materialize_arithmetic_progressions():
    both = SubspaceDescription(components=(ArithmeticProgression(F(0), F(1), "both"),))
    mat = materialize(both, Window(F(-3), F(3)))
    assert mat.points == tuple(F(k) for k in range(-3, 4))

    right = SubspaceDescription(components=(ArithmeticProgression(F(0), F(1), "right"),))
    assert materialize(right, Window(F(-3), F(3))).points == tuple(F(k) for k in range(0, 4))


def test_materialize_clips_interval_fragments():
    space = SubspaceDescription(
        components=(PeriodicIntervals(F(1), F(1), F(0), "left-closed", "both"),)
    )
    mat = materialize(space, Window(F(0), F(5)))
    assert [str(f.interval) for f in mat.fragments] == ["[0,1)", "[2,3)", "[4,5)"]
    assert not mat.fragments[0].lo_artificial
    mat2 = materialize(space, Window(F(1, 2), F(5)))
    assert str(mat2.fragments[0].interval) == "[1/2,1)"
    assert mat2.fragments[0].lo_artificial


@pytest.mark.parametrize(
    "intervals, point, inside",
    [
        ((Interval.open(F(0), F(1)),), F(1, 2), "(0,1)"),
        ((Interval.open(F(0), F(1)),), F(1), None),  # an open end
        ((Interval.open(F(0), F(1)), Interval.left_closed(F(1), F(2))), F(1), "[1,2)"),
        ((Interval.open(F(0), F(1)), Interval.open(F(1), F(2))), F(1), None),
        ((Interval.closed(F(-3), F(-2)), Interval.open(F(2), F(3))), F(5, 2), "(2,3)"),
        ((Interval.closed(F(-3), F(-2)),), F(-2), "[-3,-2]"),  # a closed end
    ],
)
def test_materialize_refuses_a_point_inside_a_fragment(intervals, point, inside):
    space = SubspaceDescription((IntervalList(intervals), FinitePoints((F(-4), point))))
    if inside is None:
        assert point in materialize(space, Window(F(-5), F(5))).points
        return
    with pytest.raises(SpaceError) as err:
        materialize(space, Window(F(-5), F(5)))
    assert str(err.value) == f"point {point} lies inside fragment {inside}"


def test_materialize_truncates_near_accumulation():
    # Gaps 1/((n+3)(n+4)) walking left from 1/2 pile up at 1/4.
    space = SubspaceDescription(
        components=(GapSequence(F(1, 2), left=TelescopingGaps(F(3))),),
        accumulation=(F(1, 4),),
    )
    mat = materialize(space, Window(F(0), F(1)), cap=50)
    assert mat.truncated
    assert mat.truncated_near == (F(1, 4),)
    # The first few members count down: 1/2, 1/2 - 1/20 = 9/20, ...
    assert mat.points[-1] == F(1, 2)
    assert mat.points[-2] == F(9, 20)


def test_telescoping_members_are_exact():
    space = SubspaceDescription(
        components=(GapSequence(F(1, 2), left=TelescopingGaps(F(3))),),
        accumulation=(F(1, 4),),
    )
    # Partial sums telescope: the k-th member left of the anchor sits at
    # 1/4 + 1/(k+4).
    for k in range(1, 30):
        assert contains(space, F(1, 4) + F(1, k + 4))
    assert not contains(space, F(1, 4))
    assert not contains(space, F(1, 4) + F(2, 11))  # between 1/6 and 1/5 steps


def test_successor_predecessor_walk_the_sequence():
    space = SubspaceDescription(
        components=(
            ArithmeticProgression(F(0), F(1), "right"),
            GapSequence(F(1, 2), left=TelescopingGaps(F(3))),
        ),
        accumulation=(F(1, 4),),
    )
    assert successor(space, F(1, 2)) == F(1)
    assert predecessor(space, F(1)) == F(1, 2)
    assert predecessor(space, F(1, 2)) == F(9, 20)
    assert successor(space, F(9, 20)) == F(1, 2)


# -------------------------------------------------------------------
# Gap spectrum
# -------------------------------------------------------------------


def test_spectrum_of_unit_grid_is_single_entry():
    space = SubspaceDescription(components=(ArithmeticProgression(F(0), F(1), "both"),))
    spec = gap_spectrum(space)
    assert spec.complete and spec.exactness == "exact"
    assert len(spec.entries) == 1
    gap, count = spec.entries[0]
    assert gap == F(1) and count == INFINITE


def test_spectrum_two_progressions():
    space = SubspaceDescription(
        components=(
            ArithmeticProgression(F(0), F(1), "left"),
            ArithmeticProgression(F(2), F(2), "right"),
        ),
    )
    spec = gap_spectrum(space)
    assert [g for g, _ in spec.entries] == [F(1), F(2)]


def test_spectrum_rejects_interval_spaces():
    space = SubspaceDescription(components=(HalfLine(Endpoint(F(0), True), "right"),))
    with pytest.raises(NotDiscrete):
        gap_spectrum(space)


def test_spectrum_alternating_has_no_extremes():
    # Huge gaps grow linearly outward, tiny gaps shrink reciprocally, so
    # neither a least nor a greatest adjacent distance exists.
    space = SubspaceDescription(
        components=(
            GapSequence(
                F(0),
                left=AlternatingGaps((ReciprocalGaps(F(1)), AffineGaps(F(1), F(1)))),
                right=AlternatingGaps((AffineGaps(F(1), F(0)), ReciprocalGaps(F(1)))),
            ),
        ),
    )
    spec = gap_spectrum(space)
    assert spec.min_entry is None and spec.max_entry is None


def test_spectrum_explicit_side_min_multiplicity():
    space = SubspaceDescription(
        components=(GapSequence(F(0), right=ExplicitGaps((F(3), F(1), F(1)))),),
    )
    spec = gap_spectrum(space)
    assert dict(spec.entries) == {F(1): 2, F(3): 1}
    assert spec.min_entry == (F(1), 2)


# -------------------------------------------------------------------
# Ball census
# -------------------------------------------------------------------


def test_ball_census_counts_open_ball():
    space = points(0, 1, 2, 5)
    assert ball_census(space, F(1), F(2), W) == 3  # 0, 1, 2; 5 is out, 3 not a member
    assert ball_census(space, F(1), F(1), W) == 1  # open ball excludes 0 and 2


def test_ball_census_guards():
    space = points(0, 1)
    with pytest.raises(WindowTooSmall):
        ball_census(space, F(9), F(2), W)  # closed span leaves the window
    with pytest.raises(SpaceError):
        ball_census(space, F(0), F(0), W)
    interval_space = SubspaceDescription(
        components=(PeriodicIntervals(F(1), F(1), F(0), "open", "both"),)
    )
    with pytest.raises(NotDiscrete):
        ball_census(interval_space, F(1, 2), F(1, 4), W)


def test_ball_census_refuses_truncated_tails():
    space = SubspaceDescription(
        components=(GapSequence(F(1, 2), left=TelescopingGaps(F(3))),),
        accumulation=(F(1, 4),),
    )
    with pytest.raises(WindowTooSmall):
        ball_census(space, F(1, 4), F(1, 10), Window(F(0), F(1)), cap=30)
    # Away from the pile-up the count is exact even with a small cap.
    assert ball_census(space, F(1, 2), F(1, 30), Window(F(0), F(1)), cap=30) == 1


# -------------------------------------------------------------------
# Bounds and hull
# -------------------------------------------------------------------


def test_is_bounded_attainment():
    b = is_bounded(points(0, 1, 3))
    assert b.below.attained and b.above.attained
    assert (b.below.value, b.above.value) == (F(0), F(3))

    ray = SubspaceDescription(components=(ArithmeticProgression(F(0), F(1), "right"),))
    rb = is_bounded(ray)
    assert rb.below.bounded and not rb.above.bounded

    open_interval = SubspaceDescription(
        components=(IntervalList((Interval.open(F(0), F(1)),)),)
    )
    ob = is_bounded(open_interval)
    assert ob.below.bounded and not ob.below.attained


def test_hull_frozen_cases():
    assert str(hull(points(0, 1, 3))) == "[0,3]"
    two_open = SubspaceDescription(
        components=(IntervalList((Interval.open(F(0), F(1)), Interval.open(F(2), F(3)))),)
    )
    assert str(hull(two_open)) == "(0,3)"
    ray = SubspaceDescription(components=(ArithmeticProgression(F(0), F(1), "right"),))
    assert str(hull(ray)) == "[0,+inf)"


def test_hull_is_idempotent():
    for space in (
        points(0, 1, 3),
        SubspaceDescription(
            components=(IntervalList((Interval.open(F(0), F(1)), Interval.open(F(2), F(3)))),)
        ),
    ):
        h = hull(space)
        wrapped = SubspaceDescription(components=(IntervalList((h,)),))
        assert hull(wrapped) == h


def test_accumulation_points_from_convergent_rule():
    space = SubspaceDescription(
        components=(GapSequence(F(1, 2), left=TelescopingGaps(F(3))),),
    )
    assert accumulation_points(space) == (F(1, 4),)


# -------------------------------------------------------------------
# Metadata validation
# -------------------------------------------------------------------


def test_metadata_validation_passes_on_true_declarations():
    space = SubspaceDescription(
        components=(GapSequence(F(1, 2), left=TelescopingGaps(F(3))),),
        accumulation=(F(1, 4),),
        bound_above=BoundDecl("attained", F(1, 2)),
    )
    report = validate_metadata(space, Window(F(0), F(1)))
    assert report.passed


def test_metadata_validation_refutes_wrong_accumulation():
    space = SubspaceDescription(
        components=(ArithmeticProgression(F(0), F(1), "both"),),
        accumulation=(F(0),),
    )
    report = validate_metadata(space, W)
    assert not report.passed


def test_metadata_validation_refutes_wrong_bound():
    space = SubspaceDescription(
        components=(FinitePoints((F(0), F(1))),),
        bound_above=BoundDecl("attained", F(5)),
    )
    assert not validate_metadata(space, W).passed


# -------------------------------------------------------------------
# Properties
# -------------------------------------------------------------------

scalars = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@given(st.lists(scalars, min_size=1, max_size=8, unique=True))
def test_finite_points_members_are_contained(values):
    space = points(*sorted(values))
    for v in values:
        assert contains(space, F(v))
    span = hull(space)
    for v in values:
        assert span.contains(F(v))


@given(st.lists(scalars, min_size=2, max_size=8, unique=True))
def test_materialized_points_sorted_unique(values):
    space = points(*sorted(values))
    mat = materialize(space, Window(F(-50), F(50)))
    assert list(mat.points) == sorted(set(mat.points))
    assert set(mat.points) == {F(v) for v in values}


@given(
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.fractions(min_value=1, max_value=4, max_denominator=6),
)
def test_progression_gap_spectrum_is_the_step(anchor, step):
    space = SubspaceDescription(
        components=(ArithmeticProgression(anchor, step, "both"),)
    )
    spec = gap_spectrum(space)
    assert [g for g, _ in spec.entries] == [step]


# -------------------------------------------------------------------
# Gap-rule facts against the isinstance ladders they replaced
# -------------------------------------------------------------------
#
# The free functions below answered each fact with one isinstance branch
# per rule class; the rule classes now answer for themselves. They stay
# here, unchanged in substance, as the reference the methods must match.


def program_is_finite(p):
    return isinstance(p, ExplicitGaps)


def program_converges(p):
    if isinstance(p, TelescopingGaps):
        return True
    if isinstance(p, AlternatingGaps):
        return all(isinstance(a, TelescopingGaps) for a in p.atoms)
    return False


def program_total(p):
    if isinstance(p, TelescopingGaps):
        return p.total
    if isinstance(p, AlternatingGaps):
        return sum((a.total for a in p.atoms), F(0))
    raise SpaceError(f"{p} does not converge")


def _atom_partial(p, n):
    if isinstance(p, ConstantGaps):
        return p.value * n
    if isinstance(p, AffineGaps):
        return p.slope * F(n * (n + 1), 2) + p.offset * n
    if isinstance(p, TelescopingGaps):
        return 1 / (p.shift + 1) - 1 / (n + p.shift + 1)
    return None


def program_partial(p, n):
    if n == 0:
        return F(0)
    if isinstance(p, AlternatingGaps):
        full, extra = divmod(n, len(p.atoms))
        total = F(0)
        for j, atom in enumerate(p.atoms):
            part = _atom_partial(atom, full + 1 if j < extra else full)
            if part is None:
                return None
            total += part
        return total
    return _atom_partial(p, n)


def _inverse_partial_floor(p, offset):
    if isinstance(p, ConstantGaps):
        return offset // p.value
    if isinstance(p, AffineGaps):
        if p.slope == 0:
            return offset // p.offset
        a, b, c = p.slope, p.slope + 2 * p.offset, 2 * offset
        scale = a.denominator * b.denominator * c.denominator
        a, b, c = int(a * scale), int(b * scale), int(c * scale)
        return (isqrt(b * b + 4 * a * c) - b) // (2 * a)
    if isinstance(p, TelescopingGaps):
        return (1 / (p.total - offset) - p.shift - 1).__floor__()
    return None


def _atom_inf(p):
    if isinstance(p, ConstantGaps):
        return p.value, True, INFINITE
    if isinstance(p, AffineGaps):
        if p.slope == 0:
            return p.offset, True, INFINITE
        return p.gap(1), True, 1
    return F(0), False, 0


def _atom_sup(p):
    if isinstance(p, ConstantGaps):
        return p.value, True, INFINITE
    if isinstance(p, AffineGaps):
        if p.slope == 0:
            return p.offset, True, INFINITE
        return POS_INF, False, 0
    return p.gap(1), True, 1


def _atom_count_of(p, v):
    if v <= 0:
        return 0
    if isinstance(p, ConstantGaps):
        return INFINITE if v == p.value else 0
    if isinstance(p, AffineGaps):
        if p.slope == 0:
            return INFINITE if v == p.offset else 0
        n = (v - p.offset) / p.slope
        return 1 if n.denominator == 1 and n >= 1 else 0
    if isinstance(p, ReciprocalGaps):
        n = 1 / v - p.shift
        return 1 if n.denominator == 1 and n >= 1 else 0
    target = 1 / v  # telescoping: solve k(k+1) = 1/v with k = n + shift
    if target.denominator != 1:
        return 0
    t = target.numerator
    k = (isqrt(4 * t + 1) - 1) // 2
    for cand in (k, k + 1):
        if cand * (cand + 1) == t:
            n = F(cand) - p.shift
            if n.denominator == 1 and n >= 1:
                return 1
    return 0


def _add(a, b):
    return INFINITE if INFINITE in (a, b) else a + b


def program_count_of(p, v):
    if isinstance(p, AlternatingGaps):
        total = 0
        for atom in p.atoms:
            total = _add(total, _atom_count_of(atom, v))
        return total
    return _atom_count_of(p, v)


def _program_extremum(p, bound, pick):
    atoms = p.atoms if isinstance(p, AlternatingGaps) else (p,)
    bounds = [bound(a) for a in atoms]
    if any(isinstance(v, Infinity) for v, _, _ in bounds):
        return None
    best = pick(v for v, _, _ in bounds)
    if any(v == best and not att for v, att, _ in bounds):
        return None
    mult = 0
    for v, _, m in bounds:
        if v == best:
            mult = _add(mult, m)
    return best, mult


def program_min(p):
    return _program_extremum(p, _atom_inf, min)


def program_max(p):
    return _program_extremum(p, _atom_sup, max)


def _atom_rational(p):
    if isinstance(p, ConstantGaps):
        return (p.value,), (F(1),)
    if isinstance(p, AffineGaps):
        return (p.offset, p.slope), (F(1),)
    if isinstance(p, ReciprocalGaps):
        return (F(1),), (p.shift, F(1))
    s = p.shift
    return (F(1),), (s * (s + 1), 2 * s + 1, F(1))


def _forall_le(f, fs, g, gs):
    fn, fd = (_poly_shift(c, fs) for c in _atom_rational(f))
    gn, gd = (_poly_shift(c, gs) for c in _atom_rational(g))
    return _poly_nonneg_all(_poly_sub(_poly_mul(gn, fd), _poly_mul(fn, gd)))


def program_monotone(p):
    if isinstance(p, ConstantGaps) or (isinstance(p, AffineGaps) and p.slope == 0):
        return {"nondecreasing": True, "nonincreasing": True, "strict": False}
    if isinstance(p, AffineGaps):
        return {"nondecreasing": True, "nonincreasing": False, "strict": True}
    if isinstance(p, (ReciprocalGaps, TelescopingGaps)):
        return {"nondecreasing": False, "nonincreasing": True, "strict": True}
    atoms = p.atoms
    pairs = [(atoms[j], 0, atoms[j + 1], 0) for j in range(len(atoms) - 1)]
    pairs.append((atoms[-1], 0, atoms[0], 1))
    up = [_forall_le(f, fs, g, gs) for f, fs, g, gs in pairs]
    down = [_forall_le(g, gs, f, fs) for f, fs, g, gs in pairs]
    nondec, noninc = all(ok for ok, _ in up), all(ok for ok, _ in down)
    strict = (
        (nondec and any(st for _, st in up))
        or (noninc and any(st for _, st in down))
        or (not nondec and not noninc)
    )
    return {"nondecreasing": nondec, "nonincreasing": noninc, "strict": strict}


def finite_support(t):
    if isinstance(t, ConstantGaps):
        return {t.value}
    if isinstance(t, AffineGaps) and t.slope == 0:
        return {t.offset}
    if isinstance(t, AlternatingGaps):
        vals = set()
        for a in t.atoms:
            sup = finite_support(a)
            if sup is None:
                return None
            vals |= sup
        return vals
    return None


def _gap_indices(program, value):
    """Indices n with gap(n) == value, for rules with finitely many hits
    (the copy of the telescoping solve that the classifier carried)."""

    def atom_index(p):
        if isinstance(p, ConstantGaps):
            return None
        if isinstance(p, AffineGaps):
            if p.slope == 0:
                return None
            n = (value - p.offset) / p.slope
            return int(n) if n.denominator == 1 and n >= 1 else None
        if isinstance(p, ReciprocalGaps):
            if value <= 0:
                return None
            n = 1 / value - p.shift
            return int(n) if n.denominator == 1 and n >= 1 else None
        if value <= 0:
            return None
        target = 1 / value
        if target.denominator != 1:
            return None
        t = target.numerator
        k = (isqrt(4 * t + 1) - 1) // 2
        for cand in (k, k + 1):
            if cand * (cand + 1) == t:
                n = F(cand) - p.shift
                if n.denominator == 1 and n >= 1:
                    return int(n)
        return None

    if isinstance(program, AlternatingGaps):
        k = len(program.atoms)
        out = []
        for j, atom in enumerate(program.atoms):
            n = atom_index(atom)
            if n is not None:
                out.append((n - 1) * k + j + 1)
        return tuple(sorted(out))
    n = atom_index(program)
    return (n,) if n is not None else ()


_coef = st.fractions(min_value=F(1, 12), max_value=F(9), max_denominator=12)
_shift = st.fractions(min_value=F(-11, 12), max_value=F(6), max_denominator=12) | st.integers(0, 5).map(F)
_atoms = st.one_of(
    st.builds(ConstantGaps, _coef),
    st.builds(lambda b: AffineGaps(F(0), b), _coef),
    st.builds(lambda a, t: AffineGaps(a, t - a), _coef, _coef),  # offset of either sign
    st.builds(ReciprocalGaps, _shift),
    st.builds(TelescopingGaps, _shift),
)
_programs = st.one_of(
    _atoms,
    st.lists(_atoms, min_size=2, max_size=3).map(lambda atoms: AlternatingGaps(tuple(atoms))),
    st.lists(_coef, min_size=1, max_size=6).map(lambda vs: ExplicitGaps(tuple(vs))),
)


@st.composite
def _program_and_value(draw):
    p = draw(_programs)
    limit = len(p.values) if isinstance(p, ExplicitGaps) else 40
    n = draw(st.integers(1, limit))
    gap = p.values[n - 1] if isinstance(p, ExplicitGaps) else p.gap(n)
    kind = draw(st.sampled_from(["hit", "near", "free", "nonpositive"]))
    if kind == "hit":
        value = gap
    elif kind == "near":
        value = gap + F(1, 7 * 10**6)
    elif kind == "free":
        value = draw(_coef)
    else:
        value = draw(st.sampled_from([F(0), -gap]))
    return p, n, value


@given(_program_and_value())
def test_rule_methods_agree_with_the_isinstance_ladders(case):
    p, n, value = case
    assert p.finite == program_is_finite(p)
    if p.finite:  # an explicit side states only its total; it is unfolded into points
        assert p.total == sum(p.values, F(0))
        return
    assert p.partial(n) == program_partial(p, n)
    assert p.count_of(value) == program_count_of(p, value)
    assert p.minimum() == program_min(p)
    assert p.maximum() == program_max(p)
    assert p.monotone() == program_monotone(p)
    if p.count_of(value) != INFINITE:  # the classifier's solve covers finitely many hits
        assert p.indices_of(value) == _gap_indices(p, value)
    assert p.converges == program_converges(p)
    assert p.total == (program_total(p) if p.converges else POS_INF)
    assert p.closed_sums == (program_partial(p, 1) is not None)
    assert p.support == finite_support(p)
    if not isinstance(p, AlternatingGaps):
        assert p.rational == _atom_rational(p)
        # each atom states its trend; the Sturm sign test of gap(m) <= gap(m+1) agrees
        assert p.monotone()["nondecreasing"] == _forall_le(p, 0, p, 1)[0]
        offset = p.partial(n)
        if offset is not None:
            assert p.partial_floor(offset) == _inverse_partial_floor(p, offset) == n
            assert p.partial_floor(offset - p.gap(n) / 2) == _inverse_partial_floor(p, offset - p.gap(n) / 2)


# -------------------------------------------------------------------
# Gap-index inversion: closed forms against the bisection they replaced
# -------------------------------------------------------------------


def _bisection_max_n(p, offset, strict):
    """The doubling-and-bisection search, kept as the reference. It drops
    the old 2**62 runaway guard so that it can reach offsets near 10**30."""

    def ok(n):
        s = program_partial(p, n)
        return s < offset if strict else s <= offset

    if not ok(1):
        return 0
    hi = 2
    while ok(hi):
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


_positive = st.fractions(min_value=F(1, 97), max_value=F(40), max_denominator=97)
_closed_programs = st.one_of(
    st.builds(ConstantGaps, _positive),
    st.builds(lambda b: AffineGaps(F(0), b), _positive),
    # slope > 0 and an offset term of either sign with slope + offset > 0
    st.builds(lambda a, t: AffineGaps(a, t - a), _positive, _positive),
    st.builds(
        TelescopingGaps,
        st.fractions(min_value=F(-96, 97), max_value=F(30), max_denominator=97),
    ),
)


@st.composite
def _inversion_cases(draw):
    p = draw(_closed_programs)
    kind = draw(st.sampled_from(["nonpositive", "partial", "between", "huge"]))
    if kind == "nonpositive":
        offset = draw(st.fractions(max_value=F(0), max_denominator=97))
    elif kind == "partial":
        offset = program_partial(p, draw(st.integers(1, 10**6)))
    elif isinstance(p, TelescopingGaps):  # offsets must stay below the limit
        gap = draw(st.fractions(min_value=F(1, 10**30), max_value=F(1), max_denominator=10**31))
        if kind == "huge":
            gap = F(1, 10**30 + draw(st.integers(0, 10**6)))
        offset = p.total - min(gap, p.total / 2)
    elif kind == "between":
        offset = draw(st.fractions(min_value=F(1, 10**6), max_value=F(10**6), max_denominator=10**6))
    else:
        offset = 10**30 + draw(st.fractions(min_value=F(-1), max_value=F(1), max_denominator=97))
    return p, offset, draw(st.booleans())


@given(_inversion_cases())
def test_closed_form_inversion_matches_bisection(case):
    import plasti.space as space_module

    p, offset, strict = case
    calls = []
    rule = type(p)
    partial = rule.partial

    def counting_partial(self, n):
        calls.append(n)
        return partial(self, n)

    rule.partial = counting_partial
    try:
        got = space_module._max_n_with_sum_below(p, offset, strict)
    finally:
        rule.partial = partial
    assert got == _bisection_max_n(p, offset, strict)
    # one exact partial sum settles the closed form, however large the
    # offset or the answer is
    assert len(calls) <= 1


@pytest.mark.parametrize("x", [F(10**19), F(10**30)])
def test_alt_side_answers_far_out_like_its_atom(x):
    # alt(const(1),const(1)) has the gaps of const(1): the same unit grid
    unit = ConstantGaps(F(1))
    alt = SubspaceDescription((GapSequence(F(0), right=AlternatingGaps((unit, unit))),))
    grid = SubspaceDescription((GapSequence(F(0), right=unit),))
    for y in (x, x + F(1, 2)):
        assert contains(alt, y) == contains(grid, y)
        assert successor(alt, y) == successor(grid, y)


# -------------------------------------------------------------------
# Gap-monotonicity sign test against an integer scan
# -------------------------------------------------------------------


def _poly_nonneg_by_scan(coeffs: tuple) -> tuple:
    """Every integer up to past the Cauchy root bound, then the leading sign."""
    from plasti.space import _poly_eval

    trimmed = list(coeffs)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    if not trimmed:
        return True, False
    lead = trimmed[-1]
    bound = 1 + max(abs(c / lead) for c in trimmed)
    strict = False
    for m in range(1, int(bound) + 2):
        v = _poly_eval(tuple(trimmed), m)
        if v < 0:
            return False, strict
        strict = strict or v > 0
    return lead > 0, strict or lead > 0


_root = st.integers(-20, 60).map(F) | st.fractions(min_value=-20, max_value=60, max_denominator=4)


@st.composite
def _cubic_or_lower(draw):
    """Degree <= 3: coefficients up to 10**3 in size, or a product of
    rational roots, repeated roots included, so that double roots touch
    integers and negative stretches sit between integers."""
    from plasti.space import _poly_mul

    if draw(st.booleans()):
        return tuple(draw(st.lists(st.integers(-1000, 1000).map(F), min_size=1, max_size=4)))
    lead = draw(st.sampled_from([F(1), F(-1), F(3, 2), F(-7)]))
    roots = draw(st.lists(_root, min_size=1, max_size=3))
    if draw(st.booleans()):
        roots = roots[:1] * 2 + roots[2:]  # a double root
    poly = (lead,)
    for r in roots:
        poly = _poly_mul(poly, (-r, F(1)))
    return poly + (F(0),) * draw(st.integers(0, 1))  # a zero lead coefficient


@given(_cubic_or_lower())
@example((F(3), F(-4), F(1)))  # (m-1)(m-3): a root at 1, negative at 2
@example((F(651, 4), F(-26), F(1)))  # (m-21/2)(m-31/2): negative between roots
@example((F(-36), F(48), F(-13), F(1)))  # (m-1)(m-6)**2: zero at 1 and 6, else positive
def test_root_isolation_signs_agree_with_the_integer_scan(coeffs):
    from plasti.space import _poly_nonneg_all

    ok, strict = _poly_nonneg_all(coeffs)
    want_ok, want_strict = _poly_nonneg_by_scan(coeffs)
    assert ok == want_ok
    if ok:  # callers read strict only for nonnegative polynomials
        assert strict == want_strict
