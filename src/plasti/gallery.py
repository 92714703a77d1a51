"""A curated set of worked instances: spaces with companion maps and the
outcomes the toolkit is expected to reproduce on them.

Each entry bundles a space description, zero or more maps (with declared
inverses so the bijection check has its certificate), and named
expectations. ``verify_entry`` runs every expectation and reports each
one; a clean build passes them all. The entries double as end-to-end
regression instances and as showcases for how the modules combine.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Callable, Optional

from .classify import (
    NOT_PLASTIC,
    PLASTIC,
    UNKNOWN,
    Verdict,
    WitnessVerification,
    classify,
    run_falsifications,
    verify_witness,
)
from .errors import UnknownGalleryId
from .frozen import frozen
from .maps import (
    AffinePiece,
    IndexShift,
    MapDescription,
    Table,
    check_between_preservation,
    check_bijection,
    check_endomorphism,
    check_isometry,
    check_nonexpansive,
    eval_map,
    full_line,
    lipschitz_upper,
    orbit,
)
from .oracle import plastic_bruteforce
from .scalar import NEG_INF, POS_INF, Scalar, format_scalar
from .space import (
    ATTAINED,
    BOTH,
    CLOSED,
    LEFT,
    LEFT_CLOSED,
    OPEN,
    RIGHT,
    RIGHT_CLOSED,
    UNBOUNDED,
    AffineGaps,
    AlternatingGaps,
    ArithmeticProgression,
    BoundDecl,
    Endpoint,
    FinitePoints,
    GapSequence,
    HalfLine,
    Interval,
    PeriodicIntervals,
    ReciprocalGaps,
    SubspaceDescription,
    TelescopingGaps,
    Window,
    ball_census,
    gap_spectrum,
    materialize,
)

F = Fraction


@frozen
class Expectation:
    name: str
    run: Callable  # (entry) -> (passed: bool, detail: str)


@frozen
class GalleryEntry:
    id: str
    summary: str
    space: SubspaceDescription
    maps: tuple  # (name, MapDescription) pairs
    window: Window
    expectations: tuple

    def map_named(self, name: str) -> MapDescription:
        for n, m in self.maps:
            if n == name:
                return m
        raise UnknownGalleryId(f"entry {self.id} has no map named {name!r}")


@frozen
class ExpectationResult:
    name: str
    passed: bool
    detail: str

    def render(self) -> str:
        return f"[{'pass' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


@frozen
class EntryReport:
    entry_id: str
    results: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def render(self) -> str:
        lines = [f"gallery {self.entry_id}: {'all expectations hold' if self.passed else 'FAILURES'}"]
        lines.extend("  " + r.render() for r in self.results)
        return "\n".join(lines)


def verify_entry(entry: GalleryEntry) -> EntryReport:
    results = []
    try:
        for exp in entry.expectations:
            try:
                passed, detail = exp.run(entry)
            except Exception as err:  # surface, never hide, a broken expectation
                passed, detail = False, f"raised {type(err).__name__}: {err}"
            results.append(ExpectationResult(exp.name, passed, detail))
    finally:
        _facts.cache_clear()  # each verification computes its facts afresh
    return EntryReport(entry.id, tuple(results))


class _Facts:
    """The classifier facts that several expectations of one entry ask
    for, each computed on first use."""

    def __init__(self, entry: GalleryEntry):
        self.entry = entry

    @cached_property
    def verdict(self) -> Verdict:
        e = self.entry
        return classify(e.space, e.window)

    @cached_property
    def witness_check(self) -> WitnessVerification:
        e = self.entry
        return verify_witness(e.space, self.verdict.witness, e.window)

    @cached_property
    def falsifications(self) -> tuple:
        # an unknown verdict already ran the family on the same window
        if self.verdict.outcome == UNKNOWN:
            return self.verdict.falsifications
        e = self.entry
        return run_falsifications(e.space, e.window)


@lru_cache(maxsize=1)
def _facts(entry: GalleryEntry) -> _Facts:
    return _Facts(entry)


# ===================================================================
# Small expectation builders
# ===================================================================


def _check(map_name: str, check_fn, want_pass: bool, label: str) -> Expectation:
    def run(entry):
        report = check_fn(entry.map_named(map_name), entry.space, entry.window)
        ok = report.passed == want_pass
        detail = report.render().splitlines()[0]
        if report.witness is not None and not report.passed:
            detail += f" ({report.witness.render()})"
        return ok, detail

    verb = "passes" if want_pass else "fails"
    return Expectation(f"{map_name} {verb} {label}", run)


def _classified(outcome: str, rule: Optional[str]) -> Expectation:
    def run(entry):
        verdict = _facts(entry).verdict
        ok = verdict.outcome == outcome and (rule is None or verdict.rule == rule)
        return ok, f"verdict {verdict.outcome}" + (f" via {verdict.rule}" if verdict.rule else "")

    want = outcome + (f" ({rule})" if rule else "")
    return Expectation(f"classifier says {want}", run)


def _classifier_witness_valid() -> Expectation:
    def run(entry):
        facts = _facts(entry)
        if facts.verdict.witness is None:
            return False, "no witness produced"
        wv = facts.witness_check
        return wv.valid, "witness map is a verified non-expansive non-isometric bijection" if wv.valid else "witness failed verification"

    return Expectation("classifier witness verifies", run)


def _no_surviving_falsification() -> Expectation:
    def run(entry):
        attempts = _facts(entry).falsifications
        survivors = [a.name for a in attempts if a.survived]
        if survivors:
            return False, f"candidates survived: {', '.join(survivors)}"
        return True, f"all {len(attempts)} candidates ruled out or isometries"

    return Expectation("falsification family finds no counterexample", run)


def _value(map_name: str, x: Scalar, want: Scalar, note: str) -> Expectation:
    def run(entry):
        got = eval_map(entry.map_named(map_name), entry.space, x)
        return got == want, f"{format_scalar(x)} -> {format_scalar(got)}"

    return Expectation(note, run)


# ===================================================================
# Entries
# ===================================================================


def _example1() -> GalleryEntry:
    """Nonnegative integers plus a tail sliding down to an unattained
    accumulation value: the map relocates the minimum into the pile."""
    q_anchor = F(1, 2)  # largest tail member (shift 3 puts the next at 9/20)
    space = SubspaceDescription(
        components=(
            ArithmeticProgression(F(0), F(1), RIGHT),
            GapSequence(q_anchor, left=TelescopingGaps(F(3))),
        ),
        accumulation=(F(1, 4),),
        bound_below=BoundDecl(ATTAINED, F(0)),
        bound_above=BoundDecl(UNBOUNDED),
    )
    phi = MapDescription(
        clauses=(
            Table(((F(0), F(1, 2)),)),
            AffinePiece(Interval(Endpoint(F(1), True), Endpoint(POS_INF, False)), F(1), F(-1)),
            IndexShift(1, -1),
        ),
        inverse=MapDescription(
            clauses=(
                Table(((F(1, 2), F(0)), (F(0), F(1)))),
                AffinePiece(Interval(Endpoint(F(1, 2), False), Endpoint(POS_INF, False)), F(1), F(1)),
                IndexShift(1, 1, restriction=Interval(Endpoint(F(1, 4), False), Endpoint(F(1, 2), False))),
            )
        ),
    )

    def q(n: int) -> Fraction:
        return F(1, 4) + F(1, n)

    def case_inequalities(entry):
        # Every value below is a multiple of 1/S, so the integers S*value
        # keep sums and order exactly and the checks build no Fraction.
        S = 4 * lcm(*range(1, 52))
        inv = [0] + [S // k for k in range(1, 52)]  # inv[k] = S/k
        quarter = inv[4]
        failures = []
        for a in range(1, 11):  # integers >= 1 map by a - 1, pure translation
            if abs(a * S - 3 * inv[2]) >= a * S:
                failures.append(f"minimum case at a={a}")
        for a in range(1, 11):
            for n in range(4, 51):
                lhs = abs(a * S - 5 * quarter - inv[n + 1])
                rhs = abs(a * S - quarter - inv[n])
                if lhs >= rhs:
                    failures.append(f"integer-tail case at a={a}, n={n}")
        for n in range(4, 51):
            if abs(quarter - inv[n + 1]) >= quarter + inv[n]:
                failures.append(f"minimum-tail case at n={n}")
        for n in range(4, 51):
            for m in range(n + 1, 51):
                if inv[n + 1] - inv[m + 1] >= inv[n] - inv[m]:
                    failures.append(f"tail pair case at n={n}, m={m}")
        if failures:
            return False, "; ".join(failures[:3])
        return True, "all strict inequalities hold for n, m in 4..50 and a in 1..10"

    def orbit_spot(entry):
        got = orbit(entry.map_named("relocate"), entry.space, F(2), 4)
        want = (F(2), F(1), F(0), F(1, 2), F(9, 20))
        return got == want, " -> ".join(format_scalar(v) for v in got)

    def tail_images(entry):
        phi_ = entry.map_named("relocate")
        bad = []
        for n in range(4, 51):
            got = eval_map(phi_, entry.space, q(n))
            if got != q(n + 1):
                bad.append(n)
        return not bad, "each tail member moves one step toward the accumulation value"

    return GalleryEntry(
        id="example1",
        summary="accumulation tail lets a non-expansive bijection move the minimum",
        space=space,
        maps=(("relocate", phi),),
        window=Window(F(0), F(10)),
        expectations=(
            _check("relocate", check_endomorphism, True, "the endomorphism check"),
            _check("relocate", check_nonexpansive, True, "the non-expansiveness check"),
            _check("relocate", check_bijection, True, "the bijection check"),
            _check("relocate", check_isometry, False, "the isometry check"),
            _value("relocate", F(0), F(1, 2), "the minimum is not fixed"),
            Expectation("the five pair-case inequalities hold exactly", case_inequalities),
            Expectation("orbit of 2 descends into the tail", orbit_spot),
            Expectation("tail members shift one index down", tail_images),
            _classified(UNKNOWN, None),
        ),
    )


def _example2() -> GalleryEntry:
    """Even negatives glued to the nonnegative integers; the junction map
    is non-expansive yet scrambles the order of images."""
    space = SubspaceDescription(
        components=(
            ArithmeticProgression(F(0), F(1), RIGHT),
            ArithmeticProgression(F(-2), F(2), LEFT),
        ),
        accumulation=(),
        bound_below=BoundDecl(UNBOUNDED),
        bound_above=BoundDecl(UNBOUNDED),
    )
    phi = MapDescription(
        clauses=(
            AffinePiece(Interval(Endpoint(NEG_INF, False), Endpoint(F(-4), True)), F(1), F(6)),
            AffinePiece(Interval(Endpoint(F(-2), True), Endpoint(POS_INF, False)), F(1), F(3)),
        ),
        inverse=MapDescription(
            clauses=(
                AffinePiece(Interval(Endpoint(NEG_INF, False), Endpoint(F(0), True)), F(1), F(-6)),
                Table(((F(1), F(-2)), (F(2), F(-4)))),
                AffinePiece(Interval(Endpoint(F(3), True), Endpoint(POS_INF, False)), F(1), F(-3)),
            )
        ),
    )

    def triple(entry):
        phi_ = entry.map_named("junction")
        imgs = tuple(eval_map(phi_, entry.space, x) for x in (F(-4), F(-2), F(0)))
        ordered = imgs[0] < imgs[1] < imgs[2]
        return imgs == (F(2), F(1), F(3)) and not ordered, (
            f"images of (-4, -2, 0) are ({', '.join(format_scalar(v) for v in imgs)})"
        )

    def boundary_pair(entry):
        phi_ = entry.map_named("junction")
        a, b = eval_map(phi_, entry.space, F(-2)), eval_map(phi_, entry.space, F(-4))
        return abs(a - b) == F(1), f"distance 2 becomes {format_scalar(abs(a - b))}"

    return GalleryEntry(
        id="example2",
        summary="a non-expansive bijection that does not preserve betweenness",
        space=space,
        maps=(("junction", phi),),
        window=Window(F(-20), F(20)),
        expectations=(
            _check("junction", check_endomorphism, True, "the endomorphism check"),
            _check("junction", check_nonexpansive, True, "the non-expansiveness check"),
            _check("junction", check_bijection, True, "the bijection check"),
            _check("junction", check_isometry, False, "the isometry check"),
            _check("junction", check_between_preservation, False, "the betweenness check"),
            Expectation("the scrambled triple is (-4, -2, 0)", triple),
            Expectation("the junction pair contracts from 2 to 1", boundary_pair),
            _classified(NOT_PLASTIC, "R1"),
            _classifier_witness_valid(),
        ),
    )


def _example310() -> GalleryEntry:
    """Alternating huge and tiny gaps growing outward; the gap spectrum
    has neither a smallest nor a largest value, yet ball counts pin the
    central pair, so only the identity and the mirror survive."""
    space = SubspaceDescription(
        components=(
            GapSequence(
                F(0),
                left=AlternatingGaps((ReciprocalGaps(F(1)), AffineGaps(F(1), F(1)))),
                right=AlternatingGaps((AffineGaps(F(1), F(0)), ReciprocalGaps(F(1)))),
            ),
        ),
        accumulation=(),
    )

    def spectrum_open_ended(entry):
        spectrum = gap_spectrum(entry.space)
        ok = spectrum.min_entry is None and spectrum.max_entry is None
        return ok, "no smallest and no largest adjacent gap (both ends open)"

    def census_refutation(entry):
        # Sending the central unit pair onto the 1/3 gap starting at 7/2
        # would need the ball of radius 2 there to hold at least as many
        # members as the ball at 0; it holds fewer.
        big = ball_census(entry.space, F(0), F(2), entry.window)
        small = ball_census(entry.space, F(7, 2), F(2), entry.window)
        return (big, small) == (4, 2) and big > small, (
            f"census(0, 2) = {big} exceeds census(7/2, 2) = {small}; the relocation is impossible"
        )

    def mirror_is_isometry(entry):
        attempts = _facts(entry).falsifications
        mirror = [a for a in attempts if a.name == "reflect@1/2"]
        if not mirror:
            return False, "mirror candidate not generated"
        return mirror[0].outcome == "isometry", f"reflect@1/2 -> {mirror[0].outcome}"

    return GalleryEntry(
        id="example310",
        summary="plastic by ball counting, invisible to the spectrum rules",
        space=space,
        maps=(),
        window=Window(F(-10), F(10)),
        expectations=(
            Expectation("gap spectrum has no extremes", spectrum_open_ended),
            Expectation("ball census refutes moving the central pair", census_refutation),
            Expectation("the mirror about 1/2 is an isometry", mirror_is_isometry),
            _classified(UNKNOWN, None),
            _no_surviving_falsification(),
        ),
    )


def _prop31() -> GalleryEntry:
    """Gaps never shrink left to right and grow somewhere, so shifting
    every point one step toward the small gaps contracts strictly."""
    space = SubspaceDescription(
        components=(
            ArithmeticProgression(F(0), F(1), LEFT),
            ArithmeticProgression(F(2), F(2), RIGHT),
        ),
        accumulation=(),
    )

    def spectrum(entry):
        spec = gap_spectrum(entry.space)
        values = sorted(v for v, _ in spec.entries)
        return spec.complete and values == [F(1), F(2)], (
            "adjacent gaps are exactly {1, 2}, both of infinite multiplicity"
        )

    return GalleryEntry(
        id="prop31",
        summary="monotone growing gaps admit the index shift",
        space=space,
        maps=(),
        window=Window(F(-10), F(10)),
        expectations=(
            _classified(NOT_PLASTIC, "R1"),
            _classifier_witness_valid(),
            Expectation("two-value gap spectrum", spectrum),
        ),
    )


def _prop313() -> GalleryEntry:
    """A half-line can always be folded toward its endpoint."""
    space = SubspaceDescription(
        components=(
            FinitePoints((F(-1),)),
            HalfLine(Endpoint(F(0), False), RIGHT),
        ),
    )

    def lipschitz_is_one(entry):
        verdict = _facts(entry).verdict
        bound, _ = lipschitz_upper(verdict.witness, entry.space, entry.window)
        return bound == F(1), f"witness Lipschitz bound {format_scalar(bound)}"

    return GalleryEntry(
        id="prop313",
        summary="an unbounded ray is never plastic",
        space=space,
        maps=(),
        window=Window(F(-10), F(10)),
        expectations=(
            _classified(NOT_PLASTIC, "R5"),
            _classifier_witness_valid(),
            Expectation("the fold has Lipschitz bound exactly 1", lipschitz_is_one),
        ),
    )


def _prop314_open() -> GalleryEntry:
    space = SubspaceDescription(
        components=(PeriodicIntervals(F(1), F(1), F(0), OPEN, BOTH),),
    )
    return GalleryEntry(
        id="prop314-open",
        summary="equal open intervals with equal spacing are plastic",
        space=space,
        maps=(),
        window=Window(F(-10), F(10)),
        expectations=(
            _classified(PLASTIC, "R6"),
            _no_surviving_falsification(),
        ),
    )


def _rem316_halfopen() -> GalleryEntry:
    """Half-open intervals tile under a half-slope fold; the glued map is
    the standard witness."""
    space = SubspaceDescription(
        components=(PeriodicIntervals(F(1), F(1), F(0), LEFT_CLOSED, BOTH),),
    )

    def glue_map(entry):
        ok = _facts(entry).witness_check.valid
        return ok, "fold passes endomorphism, non-expansiveness, bijection; fails isometry"

    return GalleryEntry(
        id="rem316-halfopen",
        summary="half-open intervals glue into a non-isometric bijection",
        space=space,
        maps=(),
        window=Window(F(-10), F(10)),
        expectations=(
            _classified(NOT_PLASTIC, "R6"),
            _classifier_witness_valid(),
            Expectation("the glue map's full check ledger", glue_map),
        ),
    )


def _rem317_mixed() -> GalleryEntry:
    space = SubspaceDescription(
        components=(
            PeriodicIntervals(F(1), F(1), F(0), CLOSED, LEFT),
            PeriodicIntervals(F(1), F(1), F(2), RIGHT_CLOSED, RIGHT),
        ),
    )
    return GalleryEntry(
        id="rem317-mixed",
        summary="closed intervals one way, half-open the other: still glueable",
        space=space,
        maps=(),
        window=Window(F(-10), F(10)),
        expectations=(
            _classified(NOT_PLASTIC, "R6"),
            _classifier_witness_valid(),
        ),
    )


def _integers() -> GalleryEntry:
    space = SubspaceDescription(
        components=(ArithmeticProgression(F(0), F(1), BOTH),),
        accumulation=(),
        bound_below=BoundDecl(UNBOUNDED),
        bound_above=BoundDecl(UNBOUNDED),
    )

    def window_oracle(entry):
        pts = materialize(entry.space, Window(F(-3), F(3))).points
        verdict = plastic_bruteforce(pts)
        return verdict.plastic and verdict.bijections == 2, (
            f"the {len(pts)}-point window slice admits exactly "
            f"{verdict.bijections} non-expansive bijections (identity and flip)"
        )

    return GalleryEntry(
        id="integers",
        summary="the unit grid on the whole line is plastic",
        space=space,
        maps=(),
        window=Window(F(-10), F(10)),
        expectations=(
            _classified(PLASTIC, "R7"),
            _no_surviving_falsification(),
            Expectation("finite window slices are plastic with two bijections", window_oracle),
        ),
    )


def _r_minus_z() -> GalleryEntry:
    space = SubspaceDescription(
        components=(PeriodicIntervals(F(1), F(0), F(0), OPEN, BOTH),),
    )

    def glue_ruled_out(entry):
        attempts = _facts(entry).falsifications
        glue = [a for a in attempts if a.name.startswith("glue@")]
        if not glue:
            return False, "glue candidate not generated"
        ok = not glue[0].survived and "1/2" in glue[0].outcome
        return ok, f"{glue[0].name} -> {glue[0].outcome}"

    return GalleryEntry(
        id="r-minus-z",
        summary="the line minus the unit grid is plastic",
        space=space,
        maps=(),
        window=Window(F(-10), F(10)),
        expectations=(
            _classified(PLASTIC, "R6"),
            Expectation("the fold dies on the missed midpoint", glue_ruled_out),
            _no_surviving_falsification(),
        ),
    )


def _unit_interval_grid() -> GalleryEntry:
    """A bounded grid: runnable stand-in for the unit interval, where the
    only non-expansive bijections are the identity and the flip."""
    pts = tuple(F(k, 6) for k in range(7))
    space = SubspaceDescription(
        components=(FinitePoints(pts),),
        accumulation=(),
        bound_below=BoundDecl(ATTAINED, F(0)),
        bound_above=BoundDecl(ATTAINED, F(1)),
    )
    identity = MapDescription(
        clauses=(AffinePiece(full_line(), F(1), F(0)),),
        inverse=MapDescription(clauses=(AffinePiece(full_line(), F(1), F(0)),)),
    )
    flip_piece = AffinePiece(full_line(), F(-1), F(1))
    flip = MapDescription(clauses=(flip_piece,), inverse=MapDescription(clauses=(flip_piece,)))

    def oracle_two(entry):
        verdict = plastic_bruteforce(pts)
        return verdict.plastic and verdict.bijections == 2, (
            f"{verdict.bijections} non-expansive bijections, all isometries"
        )

    return GalleryEntry(
        id="unit-interval-grid",
        summary="a bounded grid is plastic; identity and flip are its only candidates",
        space=space,
        maps=(("identity", identity), ("flip", flip)),
        window=Window(F(-1), F(2)),
        expectations=(
            _classified(PLASTIC, "R0"),
            Expectation("oracle finds exactly the identity and the flip", oracle_two),
            _check("identity", check_isometry, True, "the isometry check"),
            _check("flip", check_isometry, True, "the isometry check"),
            _check("flip", check_bijection, True, "the bijection check"),
        ),
    )


_BUILDERS = (
    _example1,
    _example2,
    _example310,
    _prop31,
    _prop313,
    _prop314_open,
    _rem316_halfopen,
    _rem317_mixed,
    _integers,
    _r_minus_z,
    _unit_interval_grid,
)

_ENTRIES = {e.id: e for e in (b() for b in _BUILDERS)}

GALLERY_IDS = tuple(_ENTRIES)


def gallery_entry(entry_id: str) -> GalleryEntry:
    try:
        return _ENTRIES[entry_id]
    except KeyError:
        known = ", ".join(GALLERY_IDS)
        raise UnknownGalleryId(f"no gallery entry {entry_id!r} (known: {known})") from None


def gallery_map(name: str) -> MapDescription:
    """The map a ``gallery: <id>[:<map>]`` line names: the entry's map of
    that name, or its only map when the name is left out."""
    entry_id, _, map_name = name.partition(":")
    entry = gallery_entry(entry_id)
    if map_name:
        return entry.map_named(map_name)
    if len(entry.maps) == 1:
        return entry.maps[0][1]
    raise UnknownGalleryId(
        f"entry {entry_id!r} needs a map name, one of: {', '.join(n for n, _ in entry.maps)}"
    )

