"""The plasticity rule ladder: one test per rule, plus the trace contract,
the metadata gate, witness verification and the falsification family.

Every not-plastic verdict must come with a machine-verified witness, and
every plastic verdict must survive its falsification probes; those two
facts are the module's soundness story and are asserted here directly.
"""

from fractions import Fraction as F
from heapq import nsmallest
from itertools import accumulate

import pytest
from hypothesis import example, given, strategies as st

from plasti.classify import (
    NOT_PLASTIC,
    PLASTIC,
    UNKNOWN,
    MAX_REFLECTION_CENTERS,
    _full_monotonicity,
    _widest_pairs,
    classify,
    falsification_family,
    run_falsifications,
    verify_witness,
)
from plasti.errors import MetadataUnvalidated
from plasti.maps import eval_map
from plasti.space import (
    AffineGaps,
    AlternatingGaps,
    ArithmeticProgression,
    BoundDecl,
    ConstantGaps,
    Endpoint,
    FinitePoints,
    GapSequence,
    HalfLine,
    PeriodicIntervals,
    ReciprocalGaps,
    SequenceView,
    SubspaceDescription,
    TelescopingGaps,
    Window,
)

W = Window(F(-10), F(10))


def classify_checked(space, window=W):
    """Classify and run the full witness verification when one is produced."""
    verdict = classify(space, window)
    if verdict.witness is not None:
        assert verify_witness(space, verdict.witness, window).valid
    return verdict


# -------------------------------------------------------------------
# The ladder, rule by rule
# -------------------------------------------------------------------


def test_rule_bounded_space_is_plastic():
    space = SubspaceDescription(components=(FinitePoints((F(0), F(1), F(5))),))
    verdict = classify_checked(space)
    assert (verdict.outcome, verdict.rule) == (PLASTIC, "R0")


def test_rule_monotone_growing_gaps_shifts_toward_small_side():
    # Unit gaps on the left, doubled gaps on the right: the full adjacent
    # gap sequence never decreases and takes a strict step at the junction.
    # Shifting every point one index toward the small gaps contracts.
    space = SubspaceDescription(
        components=(
            ArithmeticProgression(F(0), F(1), "left"),
            ArithmeticProgression(F(2), F(2), "right"),
        ),
    )
    verdict = classify_checked(space)
    assert (verdict.outcome, verdict.rule) == (NOT_PLASTIC, "R1")
    shift = verdict.witness.clauses[0]
    assert eval_map(verdict.witness, space, F(2)) == F(0)
    assert shift.steps == -1


def test_rule_monotone_decreasing_gaps_shifts_the_other_way():
    space = SubspaceDescription(
        components=(
            ArithmeticProgression(F(-2), F(2), "left"),
            ArithmeticProgression(F(0), F(1), "right"),
        ),
    )
    verdict = classify_checked(space)
    assert (verdict.outcome, verdict.rule) == (NOT_PLASTIC, "R1")
    assert verdict.witness.clauses[0].steps == 1


def test_one_sided_growing_gaps_are_not_a_shift_instance():
    # Gaps 1, 2, 3, ... grow without bound but the sequence is bounded
    # below, so the shift has nowhere to send the minimum; the one-sided
    # rule applies instead and the space is plastic.
    space = SubspaceDescription(
        components=(GapSequence(F(0), right=AffineGaps(F(1), F(0))),),
    )
    verdict = classify_checked(space)
    assert (verdict.outcome, verdict.rule) == (PLASTIC, "R2")


def reference_full_monotonicity(view):
    """Monotonicity of the full gap sequence with each boundary between
    the tails and the middle gaps written out as its own case."""
    nondec = noninc = True
    strict = False
    middle = list(view.middle_gaps)

    def fold(mono):
        nonlocal nondec, noninc, strict
        nondec &= mono["nondecreasing"]
        noninc &= mono["nonincreasing"]
        strict |= mono["strict"]

    def compare(a, b):
        fold({"nondecreasing": a <= b, "nonincreasing": a >= b, "strict": a != b})

    left = view.left.monotone()  # read reversed: its trend flips
    fold({"nondecreasing": left["nonincreasing"], "nonincreasing": left["nondecreasing"],
          "strict": left["strict"]})
    for a, b in zip(middle, middle[1:]):
        compare(a, b)
    compare(view.left.gap(1), middle[0] if middle else view.right.gap(1))
    if middle:
        compare(middle[-1], view.right.gap(1))
    fold(view.right.monotone())
    return {"nondecreasing": nondec, "nonincreasing": noninc, "strict": strict}


tail_gaps = st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4)
tail_rules = st.one_of(
    tail_gaps.map(ConstantGaps),
    st.tuples(tail_gaps, tail_gaps).map(lambda so: AffineGaps(so[0], so[1])),
    st.sampled_from([F(0), F(1, 2), F(2)]).map(ReciprocalGaps),
    st.tuples(tail_gaps, tail_gaps).map(
        lambda ab: AlternatingGaps((ConstantGaps(ab[0]), ConstantGaps(ab[1])))
    ),
)


@given(tail_rules, st.lists(st.sampled_from([F(1, 4), F(1, 2), F(1), F(2), F(3)]), max_size=4),
       tail_rules)
@example(ConstantGaps(F(1)), [], AffineGaps(F(1), F(0)))  # the tails meet without a middle
@example(ReciprocalGaps(F(0)), [F(1, 2)], AffineGaps(F(1), F(0)))
def test_full_monotonicity_matches_the_boundary_cases(left, middle, right):
    view = SequenceView(tuple(accumulate([F(0)] + middle)), left, right)
    assert _full_monotonicity(view) == reference_full_monotonicity(view)


def test_rule_one_sided_no_accumulation_identity_only():
    # Interleaved shrinking and fixed gaps, unbounded above only; the
    # divergent side keeps every non-expansive bijection pinned.
    space = SubspaceDescription(
        components=(GapSequence(F(0), right=AlternatingGaps((ReciprocalGaps(F(0)), AffineGaps(F(0), F(2))))),),
    )
    verdict = classify_checked(space)
    assert (verdict.outcome, verdict.rule) == (PLASTIC, "R2")
    assert verdict.rigidity == "identity-only"


def test_rule_rare_extremal_gap_pins_endpoints():
    # The unit grid with one stretched gap: 3 occurs once, every other
    # adjacent gap is 1, so the stretched pair can only stay or mirror.
    space = SubspaceDescription(
        components=(
            ArithmeticProgression(F(0), F(1), "left"),
            ArithmeticProgression(F(3), F(1), "right"),
        ),
    )
    verdict = classify_checked(space)
    assert (verdict.outcome, verdict.rule) == (PLASTIC, "R3")
    assert verdict.rigidity == "identity-or-reflection"
    assert len(verdict.trace) >= 4


def test_rare_extremal_gap_names_its_pairs_deep_in_the_tails():
    # The smallest gap 1 sits at stream indices 1 and 2 of both affine
    # interleaves; the largest gap 1 of the reciprocal ones, which have no
    # closed partial sums, at indices 1 and 2 on the left and 2 on the right.
    one = AffineGaps(F(1), F(0))
    recip0, recip1 = ReciprocalGaps(F(0)), ReciprocalGaps(F(1))
    for left, right, pairs in (
        ((one, one), (AffineGaps(F(2), F(-1)), one), "(-2, -1); (-1, 0); (0, 1); (1, 2)"),
        ((recip0, recip0), (recip1, recip0), "(-2, -1); (-1, 0); (1/2, 3/2)"),
    ):
        space = SubspaceDescription(
            components=(GapSequence(F(0), left=AlternatingGaps(left), right=AlternatingGaps(right)),)
        )
        verdict = classify_checked(space)
        assert (verdict.outcome, verdict.rule) == (PLASTIC, "R3")
        assert verdict.trace[-1].detail == f"extremal pairs: {pairs}"


def test_rare_extremal_gap_cost_does_not_grow_with_the_coefficients():
    # Deciding the alternating gap stream's monotonicity once scanned every
    # integer up to the coefficients' size.
    import time

    def alternating(c):
        program = AlternatingGaps((AffineGaps(F(1), F(0)), ConstantGaps(F(c))))
        return SubspaceDescription(components=(GapSequence(F(0), left=program, right=program),))

    small = classify_checked(alternating(10**3))
    assert (small.outcome, small.rule) == (PLASTIC, "R3")
    for c in (10**6, 10**9):
        start = time.perf_counter()
        verdict = classify_checked(alternating(c))
        assert time.perf_counter() - start < 1
        assert (verdict.outcome, verdict.rule) == (small.outcome, small.rule)


def test_rule_half_line_not_plastic():
    space = SubspaceDescription(
        components=(FinitePoints((F(-1),)), HalfLine(Endpoint(F(0), False), "right")),
    )
    verdict = classify_checked(space)
    assert (verdict.outcome, verdict.rule) == (NOT_PLASTIC, "R5")


def test_rule_periodic_open_and_closed_plastic():
    for topo in ("open", "closed"):
        space = SubspaceDescription(
            components=(PeriodicIntervals(F(1), F(1), F(0), topo, "both"),)
        )
        verdict = classify_checked(space)
        assert (verdict.outcome, verdict.rule) == (PLASTIC, "R6"), topo


def test_rule_periodic_half_open_glue_witness():
    for topo in ("left-closed", "right-closed"):
        space = SubspaceDescription(
            components=(PeriodicIntervals(F(1), F(1), F(0), topo, "both"),)
        )
        verdict = classify_checked(space)
        assert (verdict.outcome, verdict.rule) == (NOT_PLASTIC, "R6"), topo
        assert verdict.witness is not None


def test_rule_periodic_mixed_two_components():
    space = SubspaceDescription(
        components=(
            PeriodicIntervals(F(1), F(1), F(0), "closed", "left"),
            PeriodicIntervals(F(1), F(1), F(2), "right-closed", "right"),
        ),
    )
    verdict = classify_checked(space)
    assert (verdict.outcome, verdict.rule) == (NOT_PLASTIC, "R6")


def test_rule_equal_gaps_whole_line_grid():
    space = SubspaceDescription(components=(ArithmeticProgression(F(0), F(1), "both"),))
    verdict = classify_checked(space)
    assert (verdict.outcome, verdict.rule) == (PLASTIC, "R7")


def test_line_minus_grid_is_plastic():
    space = SubspaceDescription(
        components=(PeriodicIntervals(F(1), F(0), F(0), "open", "both"),)
    )
    verdict = classify_checked(space)
    assert (verdict.outcome, verdict.rule) == (PLASTIC, "R6")


# -------------------------------------------------------------------
# Trace and unknown handling
# -------------------------------------------------------------------


def test_trace_records_skipped_rules_in_order():
    space = SubspaceDescription(components=(ArithmeticProgression(F(0), F(1), "both"),))
    verdict = classify(space, W)
    rules = [step.rule for step in verdict.trace]
    assert rules == ["R0", "R1", "R2", "R3", "R5", "R6", "R7"]
    assert [s.matched for s in verdict.trace] == [False] * 6 + [True]


def test_unknown_runs_falsifications():
    # Accumulating tail: no ladder rule applies, so the classifier says so
    # and reports every probe it tried.
    space = SubspaceDescription(
        components=(
            ArithmeticProgression(F(0), F(1), "right"),
            GapSequence(F(1, 2), left=TelescopingGaps(F(3))),
        ),
        accumulation=(F(1, 4),),
        bound_below=BoundDecl("attained", F(0)),
    )
    verdict = classify(space, Window(F(0), F(10)))
    assert verdict.outcome == UNKNOWN
    assert verdict.rule is None
    assert verdict.falsifications
    assert all(not a.survived for a in verdict.falsifications)


def test_falsification_family_names_its_candidates():
    space = SubspaceDescription(components=(ArithmeticProgression(F(0), F(1), "both"),))
    attempts = run_falsifications(space, W)
    names = {a.name for a in attempts}
    assert any(n.startswith("shift") for n in names)
    assert any(n.startswith("reflect@") for n in names)
    shifts = [a for a in attempts if a.name.startswith("shift")]
    assert all(a.outcome == "isometry" for a in shifts)


def test_reflection_centres_are_the_widest_gaps_then_the_leftmost():
    # gaps of 1 on 0..15, then gaps of 2 up to 21: the three width-2 gaps
    # come first, and the tie among the width-1 gaps goes to the leftmost
    points = tuple(F(k) for k in range(16)) + (F(17), F(19), F(21))
    space = SubspaceDescription(components=(FinitePoints(points),))
    names = [n for n, _ in falsification_family(space, Window(F(0), F(21)), 100)]
    reflections = [n for n in names if n.startswith("reflect@")]
    assert len(reflections) == MAX_REFLECTION_CENTERS == 12
    assert reflections == [f"reflect@{2 * k + 1}/2" for k in range(9)] + [
        "reflect@16",
        "reflect@18",
        "reflect@20",
    ]


def reference_widest(points, k):
    """The ranking _widest_pairs replaces: every gap subtracted in Fractions."""
    return nsmallest(k, zip(points, points[1:]), key=lambda ab: (ab[0] - ab[1], ab[0]))


gap_values = st.one_of(
    st.sampled_from((F(1), F(2), F(1, 3))),  # tied widths
    st.integers(-3, 3).map(lambda k: 1 + F(k, 10**30)),  # distinct widths whose floats tie
    st.just(F(10**400)),  # a width past the float range
    st.fractions(min_value=F(1, 7), max_value=3, max_denominator=7),
)


@given(
    st.sampled_from((F(0), F(2**53), F(-(10**20), 3), F(10**400), F(-(10**400)))),
    st.lists(gap_values, max_size=30),
    st.integers(1, 14),
)
# the rounded endpoints give widths 0 and 2 to exact widths 9/10 and 4/5
@example(F(2**53), [F(9, 10), F(4, 5)], 1)
@example(F(0), [F(1)] * 20, MAX_REFLECTION_CENTERS)  # every width ties at the cut
@example(F(0), [1 + F(1, 10**30), F(1), 1 - F(1, 10**30), F(1, 2)], 2)
def test_widest_pairs_match_the_fraction_ranking(base, gaps, k):
    points = tuple(accumulate(gaps, initial=base))
    assert _widest_pairs(points, k) == reference_widest(points, k)


def test_glue_probe_dies_on_open_intervals():
    space = SubspaceDescription(
        components=(PeriodicIntervals(F(1), F(0), F(0), "open", "both"),)
    )
    attempts = run_falsifications(space, W)
    glue = [a for a in attempts if a.name.startswith("glue@")]
    assert glue and not glue[0].survived
    assert "1/2" in glue[0].outcome


def test_glue_probe_dies_on_closed_intervals():
    space = SubspaceDescription(
        components=(PeriodicIntervals(F(1), F(1), F(0), "closed", "both"),)
    )
    attempts = run_falsifications(space, W)
    glue = [a for a in attempts if a.name.startswith("glue@")]
    assert glue and not glue[0].survived
    assert "share an image" in glue[0].outcome


# -------------------------------------------------------------------
# Metadata gate
# -------------------------------------------------------------------


def test_classify_refuses_contradicted_metadata():
    space = SubspaceDescription(
        components=(ArithmeticProgression(F(0), F(1), "both"),),
        accumulation=(F(0),),
    )
    with pytest.raises(MetadataUnvalidated):
        classify(space, W)


def test_classify_accepts_validated_metadata():
    space = SubspaceDescription(
        components=(ArithmeticProgression(F(0), F(1), "both"),),
        accumulation=(),
        bound_below=BoundDecl("unbounded"),
        bound_above=BoundDecl("unbounded"),
    )
    assert classify(space, W).outcome == PLASTIC


# -------------------------------------------------------------------
# Witness verification is a real check
# -------------------------------------------------------------------


def test_verify_witness_rejects_an_isometry():
    from plasti.maps import AffinePiece, MapDescription, full_line

    space = SubspaceDescription(components=(ArithmeticProgression(F(0), F(1), "both"),))
    identity = MapDescription(
        clauses=(AffinePiece(full_line(), F(1), F(0)),),
        inverse=MapDescription(clauses=(AffinePiece(full_line(), F(1), F(0)),)),
    )
    result = verify_witness(space, identity, W)
    assert not result.valid  # an isometry certifies nothing
    assert [r.check for r in result.reports] == [
        "endomorphism",
        "nonexpansive",
        "bijection",
        "isometry",
    ]
