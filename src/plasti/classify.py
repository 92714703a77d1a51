"""Plasticity classifier: decide from the symbolic description, or fall
back to window falsification attempts.

A space is plastic when every non-expansive bijection of it onto itself
is an isometry. The classifier walks a fixed ladder of structural rules;
the first match decides. Each rule carries its justification in the
trace. When nothing matches, the verdict is unknown and a family of
candidate counterexample maps is tried on the window; survivors are
reported as window-consistent candidates, never as proof.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from heapq import nlargest, nsmallest
from itertools import compress
from typing import Optional

from .errors import MetadataUnvalidated, PlastiError
from .frozen import frozen
from .maps import (
    AffinePiece,
    IndexShift,
    MapDescription,
    affine_image,
    check_bijection,
    check_endomorphism,
    check_isometry,
    check_nonexpansive,
    derive_inverse,
    full_line,
)
from .scalar import NEG_INF, POS_INF, Scalar, format_scalar
from .space import (
    BOTH,
    DEFAULT_CAP,
    DEFAULT_WINDOW,
    INFINITE,
    LEFT,
    RIGHT,
    Endpoint,
    HalfLine,
    Interval,
    PeriodicIntervals,
    SequenceView,
    SubspaceDescription,
    Window,
    accumulation_points,
    float_ratio,
    gap_spectrum,
    is_bounded,
    materialize,
    sequence_view,
    validate_metadata,
)

PLASTIC, NOT_PLASTIC, UNKNOWN = "plastic", "not-plastic", "unknown"

MAX_REFLECTION_CENTERS = 12
SHIFT_RANGE = 5


@frozen
class ClassifierStep:
    rule: str
    summary: str
    matched: bool
    detail: str


@frozen
class FalsificationAttempt:
    name: str
    candidate: MapDescription
    outcome: str  # "window-consistent counterexample" | "isometry" | "ruled out: ..."

    @property
    def survived(self) -> bool:
        return self.outcome == "window-consistent counterexample"


@frozen
class Verdict:
    outcome: str
    rule: Optional[str]
    reason: str
    witness: Optional[MapDescription] = None
    rigidity: Optional[str] = None  # "identity-only" | "identity-or-reflection"
    trace: tuple = ()
    falsifications: tuple = ()

    def render(self) -> str:
        lines = [f"verdict: {self.outcome}" + (f" ({self.rule})" if self.rule else "")]
        lines.append(f"  reason: {self.reason}")
        if self.rigidity:
            lines.append(f"  rigidity: {self.rigidity}")
        if self.witness is not None:
            lines.append("  witness: a non-expansive bijection that is not an isometry")
        for step in self.trace:
            mark = "*" if step.matched else " "
            lines.append(f"  [{mark}] {step.rule} {step.summary}: {step.detail}")
        for att in self.falsifications:
            lines.append(f"  try {att.name}: {att.outcome}")
        return "\n".join(lines)


# ===================================================================
# Full-sequence monotonicity (for the index-shift rule)
# ===================================================================


def _full_monotonicity(view: SequenceView) -> dict:
    """Monotonicity of the complete adjacent-gap sequence left to right,
    for a view with both tails.

    The left tail contributes its gaps reversed, so the full sequence is
    nondecreasing exactly when that tail is nonincreasing in its own index.
    Around the middle points, the tails' first gaps are compared with the
    middle gaps as one list.
    """
    gaps = [view.left.gap(1), *view.middle_gaps, view.right.gap(1)]
    pairs = list(zip(gaps, gaps[1:]))
    left, right = view.left.monotone(), view.right.monotone()
    return {
        "nondecreasing": left["nonincreasing"]
        and right["nondecreasing"]
        and all(a <= b for a, b in pairs),
        "nonincreasing": left["nondecreasing"]
        and right["nonincreasing"]
        and all(a >= b for a, b in pairs),
        "strict": left["strict"] or right["strict"] or any(a != b for a, b in pairs),
    }


# ===================================================================
# Witness constructions
# ===================================================================


def _shift_map(k: int) -> MapDescription:
    return MapDescription(
        clauses=(IndexShift("*", k),),
        inverse=MapDescription(clauses=(IndexShift("*", -k),)),
    )


def _reflection_map(center: Scalar) -> MapDescription:
    piece = AffinePiece(full_line(), Fraction(-1), 2 * center)
    return MapDescription(clauses=(piece,), inverse=MapDescription(clauses=(piece,)))


def _half_contraction(anchor: Scalar, half: Interval, rest: Interval) -> MapDescription:
    """Contract the half-line part toward its endpoint, fix the rest."""
    fwd = (
        AffinePiece(half, Fraction(1, 2), anchor / 2),
        AffinePiece(rest, Fraction(1), Fraction(0)),
    )
    bwd = (
        AffinePiece(_send(half, Fraction(1, 2), anchor / 2), Fraction(2), -anchor),
        AffinePiece(rest, Fraction(1), Fraction(0)),
    )
    return MapDescription(clauses=fwd, inverse=MapDescription(clauses=bwd))


def _send(ivl: Interval, slope: Scalar, icpt: Scalar) -> Interval:
    return affine_image(AffinePiece(ivl, slope, icpt))


def half_line_witness(comp: HalfLine) -> MapDescription:
    """x -> (x + a)/2 on the half-line, identity elsewhere."""
    a = comp.endpoint.value
    if comp.direction == RIGHT:
        half = comp.as_interval()
        rest = Interval(Endpoint(NEG_INF, False), Endpoint(a, not comp.endpoint.closed))
    else:
        half = comp.as_interval()
        rest = Interval(Endpoint(a, not comp.endpoint.closed), Endpoint(POS_INF, False))
    return _half_contraction(a, half, rest)


def glue_witness(
    comp: PeriodicIntervals, boundary: Optional[Scalar] = None
) -> MapDescription:
    """Fold the two intervals nearest the junction onto the nearest one
    and slide the remaining intervals one period toward it.

    On a half-open pattern the two half-interval images tile the target
    exactly, so the map is a non-expansive bijection that halves distances
    inside the glued block. On all-open patterns the images miss the
    midpoint and on all-closed ones they double it; the window checks
    catch both, which is why this map doubles as a falsification probe.

    ``boundary`` is where the identity region for the rest of the space
    begins; it defaults to the middle of the first gap.
    """
    P, L, G = comp.period, comp.length, comp.gap
    half = Fraction(1, 2)
    if comp.direction == LEFT:
        i0, i1 = comp.interval_at(0), comp.interval_at(-1)
        a0 = i0.lo.value
        # i0 folds onto its upper half, i1 onto the lower half.
        g1 = AffinePiece(i0, half, a0 / 2 + L / 2)
        g2 = AffinePiece(i1, half, a0 / 2 + P / 2)
        slid = Interval(Endpoint(NEG_INF, False), Endpoint(i1.lo.value - G / 2, False))
        slide = AffinePiece(slid, Fraction(1), P)
        if boundary is None:
            boundary = i0.hi.value + G / 2
        rest = Interval(Endpoint(boundary, False), Endpoint(POS_INF, False))
    else:
        i0, i1 = comp.interval_at(0), comp.interval_at(1)
        a0 = i0.lo.value
        g1 = AffinePiece(i0, half, a0 / 2)
        g2 = AffinePiece(i1, half, a0 / 2 + (L - P) / 2)
        slid = Interval(Endpoint(i1.hi.value + G / 2, False), Endpoint(POS_INF, False))
        slide = AffinePiece(slid, Fraction(1), -P)
        if boundary is None:
            boundary = a0 - G / 2
        rest = Interval(Endpoint(NEG_INF, False), Endpoint(boundary, False))
    fwd = (g1, g2, slide, AffinePiece(rest, Fraction(1), Fraction(0)))
    bwd = (
        AffinePiece(_send(i0, g1.slope, g1.intercept), Fraction(2), -2 * g1.intercept),
        AffinePiece(_send(i1, g2.slope, g2.intercept), Fraction(2), -2 * g2.intercept),
        AffinePiece(_send(slid, slide.slope, slide.intercept), Fraction(1), -slide.intercept),
        AffinePiece(rest, Fraction(1), Fraction(0)),
    )
    return MapDescription(clauses=fwd, inverse=MapDescription(clauses=bwd))


# ===================================================================
# The rule ladder
# ===================================================================


@frozen
class _Match:
    outcome: str
    reason: str
    witness: Optional[MapDescription] = None
    rigidity: Optional[str] = None
    detail: str = ""


def _rule_bounded(space, ctx) -> Optional[_Match]:
    b = ctx["bounds"]
    if b.bounded:
        return _Match(
            PLASTIC,
            "the space is bounded, hence totally bounded in the line, and "
            "totally bounded spaces admit no non-expansive non-isometric bijection",
            detail=f"hull spans [{format_scalar(b.below.value)}, {format_scalar(b.above.value)}]",
        )
    return None


def _rule_monotone_gaps(space, ctx) -> Optional[_Match]:
    view = ctx["view"]
    if view is None or view.left is None or view.right is None:
        return None
    mono = _full_monotonicity(view)
    if not mono["strict"]:
        return None
    if mono["nondecreasing"]:
        witness, direction = _shift_map(-1), "toward the small gaps on the left"
    elif mono["nonincreasing"]:
        witness, direction = _shift_map(+1), "toward the small gaps on the right"
    else:
        return None
    return _Match(
        NOT_PLASTIC,
        "gaps grow monotonically across an unbounded sequence; shifting every "
        f"point one index {direction} is a non-expansive bijection that "
        "strictly shrinks some pair",
        witness=witness,
        detail="adjacent gaps are monotone with a strict step",
    )


def _rule_one_sided(space, ctx) -> Optional[_Match]:
    if not space.discrete or ctx["accumulation"]:
        return None
    b = ctx["bounds"]
    if b.below.bounded == b.above.bounded:
        return None
    side = "below" if b.below.bounded else "above"
    return _Match(
        PLASTIC,
        "a discrete set without accumulation points, unbounded on one side "
        "only, attains its extremum; walking from that extremum forces every "
        "non-expansive bijection to fix each point in turn",
        rigidity="identity-only",
        detail=f"bounded {side}, no accumulation points",
    )


def _rule_rare_extremal_gap(space, ctx) -> Optional[_Match]:
    view = ctx["view"]
    if view is None:
        return None
    spectrum = ctx["spectrum"]
    if spectrum is None:
        return None
    chosen = None
    for entry, kind in ((spectrum.min_entry, "smallest"), (spectrum.max_entry, "largest")):
        if entry is not None and entry[1] != INFINITE:
            chosen = (entry, kind)
            break
    if chosen is None:
        return None
    (value, mult), kind = chosen
    pairs = _extremal_pairs(view, value)
    pair_text = "; ".join(f"({format_scalar(a)}, {format_scalar(b)})" for a, b in pairs)
    return _Match(
        PLASTIC,
        f"the {kind} adjacent gap {format_scalar(value)} occurs only "
        f"{mult} time(s); the {2 * mult} endpoints of those gaps can only be "
        "permuted among themselves, which pins every non-expansive bijection "
        "down to the identity or one global reflection",
        rigidity="identity-or-reflection",
        detail=f"extremal pairs: {pair_text}" if pair_text else "extremal pairs lie deep in a tail",
    )


def _extremal_pairs(view: SequenceView, value: Scalar) -> tuple:
    pairs = []
    pts = view.points
    for a, b in zip(pts, pts[1:]):
        if b - a == value:
            pairs.append((a, b))
    for program, base, sign in ((view.left, pts[0], -1), (view.right, pts[-1], +1)):
        if program is None:
            continue
        for n in program.indices_of(value):
            hi_sum = program.partial(n)
            if hi_sum is None and n <= 1000:  # no closed form: walk the side
                hi_sum = sum((program.gap(i) for i in range(1, n + 1)), Fraction(0))
            if hi_sum is None:
                continue
            lo_sum = hi_sum - value
            if sign > 0:
                pairs.append((base + lo_sum, base + hi_sum))
            else:
                pairs.append((base - hi_sum, base - lo_sum))
    pairs.sort()
    return tuple(pairs)


def _rule_half_line(space, ctx) -> Optional[_Match]:
    for comp in space.components:
        if isinstance(comp, HalfLine):
            return _Match(
                NOT_PLASTIC,
                "the space contains a half-line; contracting it toward its "
                "endpoint while fixing everything else is a non-expansive "
                "bijection that halves distances inside the half-line",
                witness=half_line_witness(comp),
                detail=f"half-line at {comp.endpoint.value} going {comp.direction}",
            )
    return None


def _rule_periodic(space, ctx) -> Optional[_Match]:
    comps = space.components
    periodic = [c for c in comps if isinstance(c, PeriodicIntervals)]
    if not periodic or len(periodic) != len(comps):
        return None
    if len(comps) == 1 and comps[0].direction == BOTH:
        comp = comps[0]
        if comp.topology in ("open", "closed"):
            return _Match(
                PLASTIC,
                "a two-way periodic union of intervals with matching endpoint "
                "topology only admits bijections that respect the period "
                "structure, and those are translations and reflections",
                detail=f"topology {comp.topology}, period {format_scalar(comp.period)}",
            )
        return _Match(
            NOT_PLASTIC,
            "half-open periodic intervals glue: folding two adjacent "
            "intervals onto one and shifting the rest back is a "
            "non-expansive bijection that halves distances in the fold",
            witness=glue_witness(comp),
            detail=f"topology {comp.topology} lets the two half-images tile one interval exactly",
        )
    if len(comps) == 2:
        dirs = {c.direction for c in comps}
        if dirs == {LEFT, RIGHT}:
            half_open = [
                c for c in comps if c.topology in ("left-closed", "right-closed")
            ]
            half_open.sort(key=lambda c: c.direction != RIGHT)
            if half_open:
                target = half_open[0]
                other = next(c for c in comps if c is not target)
                if target.direction == RIGHT:
                    gap_to_other = target.interval_at(0).lo.value - other.interval_at(0).hi.value
                else:
                    gap_to_other = other.interval_at(0).lo.value - target.interval_at(0).hi.value
                if gap_to_other <= 0:
                    return None
                edge = target.interval_at(0)
                boundary = (
                    edge.lo.value - gap_to_other / 2
                    if target.direction == RIGHT
                    else edge.hi.value + gap_to_other / 2
                )
                return _Match(
                    NOT_PLASTIC,
                    "one side of the space is a half-open periodic tail; gluing "
                    "its first two intervals and shifting the rest toward the "
                    "junction is a non-expansive bijection, with the other side fixed",
                    witness=glue_witness(target, boundary),
                    detail=f"gluing the {target.direction}-going tail at {format_scalar(target.anchor)}",
                )
    return None


def _rule_equal_gaps(space, ctx) -> Optional[_Match]:
    spectrum = ctx["spectrum"]
    if spectrum is None or not spectrum.complete:
        return None
    if len(spectrum.entries) != 1:
        return None
    g = spectrum.entries[0][0]
    return _Match(
        PLASTIC,
        "every adjacent gap equals "
        f"{format_scalar(g)}; the space is an arithmetic progression and its "
        "non-expansive bijections are exactly its isometries",
        detail=f"single-entry gap spectrum ({format_scalar(g)})",
    )


# R4 (growing interval unions) matched no representable space and is gone;
# the other ids keep their numbers for JSON consumers.
_RULES = (
    ("R0", "bounded space", _rule_bounded),
    ("R1", "monotone growing gaps", _rule_monotone_gaps),
    ("R2", "one-sided unbounded, no accumulation", _rule_one_sided),
    ("R3", "rare extremal gap", _rule_rare_extremal_gap),
    ("R5", "half-line present", _rule_half_line),
    ("R6", "periodic interval unions", _rule_periodic),
    ("R7", "all gaps equal", _rule_equal_gaps),
)


# ===================================================================
# Falsification family
# ===================================================================


def _failure_reason(report) -> str:
    if report.witness is not None:
        return f"ruled out: {report.witness.render()}"
    extra = f" ({'; '.join(report.notes)})" if report.notes else ""
    return f"ruled out: failed {report.check}{extra}"


def _candidate_outcomes(
    space: SubspaceDescription, candidates, window: Window, cap: int
) -> tuple:
    attempts = []
    for name, cand in candidates:
        try:
            for check in (check_endomorphism, check_nonexpansive, check_bijection):
                report = check(cand, space, window, cap)
                if not report.passed:
                    attempts.append(FalsificationAttempt(name, cand, _failure_reason(report)))
                    break
            else:
                iso = check_isometry(cand, space, window, cap)
                outcome = "isometry" if iso.passed else "window-consistent counterexample"
                attempts.append(FalsificationAttempt(name, cand, outcome))
        except PlastiError as err:
            attempts.append(FalsificationAttempt(name, cand, f"ruled out: {err}"))
    return tuple(attempts)


def _gap_width(a: Scalar, b: Scalar) -> float:
    """b - a rounded once to a float, from its exact integer ratio."""
    ad, bd = a.denominator, b.denominator
    return float_ratio(b.numerator * ad - a.numerator * bd, ad * bd)


def _widest_pairs(points: tuple, k: int) -> list:
    """The k adjacent pairs of the ascending ``points`` with the widest
    gaps, ties to the lower pair, widest first: exactly
    ``nsmallest(k, pairs, key=lambda ab: (ab[0] - ab[1], ab[0]))``.

    Each gap's width is rounded once to a float from its exact integer
    ratio. That rounding is monotone, so a pair whose float lies below the
    k-th largest float has k pairs strictly wider than it and is not among
    the k widest; only the pairs at or above that float are ranked in
    Fractions. Subtracting the rounded endpoints would not do:
    float(b) - float(a) is not monotone in b - a.
    """
    after = points[1:]
    pairs = zip(points, after)
    if len(after) > k:
        widths = array("d", map(_gap_width, points, after))
        cut = nlargest(k, widths)[-1]
        pairs = compress(pairs, (w >= cut for w in widths))
    return nsmallest(k, pairs, key=lambda ab: (ab[0] - ab[1], ab[0]))


def falsification_family(
    space: SubspaceDescription, window: Window, cap: int
) -> tuple:
    """Named candidate maps the unknown branch tries on the window."""
    candidates = []
    if space.discrete:
        for k in range(-SHIFT_RANGE, SHIFT_RANGE + 1):
            if k != 0:
                candidates.append((f"shift{k:+d}", _shift_map(k)))
    try:
        mat = materialize(space, window, cap)
    except PlastiError:
        mat = None
    if mat is not None:
        # Reflect about midpoints of the widest adjacent gaps; those are the
        # plausible symmetry axes. Adjacent pairs have distinct midpoints.
        widest = _widest_pairs(mat.points, MAX_REFLECTION_CENTERS)
        for c in sorted((a + b) / 2 for a, b in widest):
            candidates.append((f"reflect@{format_scalar(c)}", _reflection_map(c)))
    b = is_bounded(space)
    for info in (b.below, b.above):
        if info.bounded and info.attained:
            v = info.value
            piece = AffinePiece(full_line(), Fraction(1, 2), v / 2)
            candidates.append(
                (
                    f"halfcontract@{format_scalar(v)}",
                    MapDescription(clauses=(piece,), inverse=derive_inverse(MapDescription((piece,)))),
                )
            )
    for comp in space.components:
        if isinstance(comp, PeriodicIntervals):
            candidates.append((f"glue@{format_scalar(comp.anchor)}", glue_witness(comp)))
    return tuple(candidates)


# ===================================================================
# Entry points
# ===================================================================


def run_falsifications(
    space: SubspaceDescription,
    window: Window = DEFAULT_WINDOW,
    cap: int = DEFAULT_CAP,
) -> tuple:
    """Try the whole falsification family on the window and report each
    attempt's fate. Useful on spaces believed plastic: every candidate
    should be ruled out or an isometry."""
    return _candidate_outcomes(space, falsification_family(space, window, cap), window, cap)


def classify(
    space: SubspaceDescription,
    window: Window = DEFAULT_WINDOW,
    cap: int = DEFAULT_CAP,
) -> Verdict:
    """Walk the rule ladder; first match wins. Declared metadata is
    validated first and a contradiction aborts the classification."""
    report = validate_metadata(space, window, cap)
    if not report.passed:
        failing = next(c for c in report.checks if not c.passed)
        raise MetadataUnvalidated(
            f"declared metadata failed validation ({failing.declaration}: {failing.evidence})"
        )
    ctx = {
        "bounds": is_bounded(space),
        "accumulation": accumulation_points(space),
        "view": sequence_view(space),
    }
    ctx["spectrum"] = gap_spectrum(space, None, cap) if ctx["view"] is not None else None
    trace = []
    for rule_id, summary, fn in _RULES:
        match = fn(space, ctx)
        if match is None:
            trace.append(ClassifierStep(rule_id, summary, False, "no match"))
            continue
        trace.append(ClassifierStep(rule_id, summary, True, match.detail or match.reason))
        return Verdict(
            outcome=match.outcome,
            rule=rule_id,
            reason=match.reason,
            witness=match.witness,
            rigidity=match.rigidity,
            trace=tuple(trace),
        )
    attempts = run_falsifications(space, window, cap)
    survivors = [a for a in attempts if a.survived]
    reason = (
        "no structural rule matched; "
        + (
            f"{len(survivors)} falsification candidate(s) look like counterexamples "
            "on the window, but a window cannot prove non-plasticity"
            if survivors
            else "every falsification candidate was ruled out on the window"
        )
    )
    return Verdict(
        outcome=UNKNOWN,
        rule=None,
        reason=reason,
        trace=tuple(trace),
        falsifications=attempts,
    )


@frozen
class WitnessVerification:
    valid: bool
    reports: tuple

    def render(self) -> str:
        head = "witness verification: " + ("VALID" if self.valid else "INVALID")
        return "\n".join([head] + [r.render() for r in self.reports])


def verify_witness(
    space: SubspaceDescription,
    witness: MapDescription,
    window: Window = DEFAULT_WINDOW,
    cap: int = DEFAULT_CAP,
) -> WitnessVerification:
    """A valid witness is a non-expansive bijective self-map that fails the
    isometry check on the window."""
    endo = check_endomorphism(witness, space, window, cap)
    nonexp = check_nonexpansive(witness, space, window, cap)
    bij = check_bijection(witness, space, window, cap)
    iso = check_isometry(witness, space, window, cap)
    valid = endo.passed and nonexp.passed and bij.passed and not iso.passed
    return WitnessVerification(valid=valid, reports=(endo, nonexp, bij, iso))
