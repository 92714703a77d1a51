"""Self-maps of a subspace and exact window checks.

A map is an unordered set of clauses (finite tables, affine pieces on
intervals, index shifts along a component). Exactly one clause must apply
to each member it is evaluated at; zero or two applying clauses are
errors, so map descriptions stay order-independent.

Checks run on a window materialization. For affine pieces the pair checks
are exact, not sampled: on a box of piece domains the expansion defect
|f(p)-f(q)| - |p-q| is convex, so its maximum sits at endpoint pairs, and
within a piece the slope bound decides. Across samples, |x-z| = |x-y| +
|y-z| for x < y < z lets one sweep over neighbours in sorted order decide
every pair and every triple.

Each check names only its first witness, or None, testing in a fixed
order; ``_report`` is the one place that turns it into a ``CheckReport``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import merge
from itertools import combinations
from typing import Optional, Union

from .errors import (
    AmbiguousPiece,
    InverseMissing,
    MapError,
    NoAdjacentPoint,
    NoPieceApplies,
    OutsideDomain,
)
from .scalar import NEG_INF, POS_INF, Infinity, Scalar, format_scalar
from .space import (
    DEFAULT_CAP,
    DEFAULT_WINDOW,
    Endpoint,
    Interval,
    Materialization,
    SubspaceDescription,
    Window,
    component_contains,
    contains,
    in_sorted,
    intervals_near,
    is_bounded,
    materialize,
    predecessor,
    successor,
)

ALL_COMPONENTS = "*"

MAX_PAIR_SAMPLES = 600


# ===================================================================
# Clauses
# ===================================================================


@dataclass(frozen=True)
class Table:
    """Finite relocation table; applies exactly to the listed arguments."""

    entries: tuple  # ((x, y), ...)

    def __post_init__(self):
        keys = [x for x, _ in self.entries]
        if len(set(keys)) != len(keys):
            raise MapError("table lists an argument twice")

    def lookup(self, x: Scalar) -> Scalar:
        for k, v in self.entries:
            if k == x:
                return v
        raise MapError(f"{format_scalar(x)} not in table")


@dataclass(frozen=True)
class AffinePiece:
    """x -> slope*x + intercept on an interval domain."""

    domain: Interval
    slope: Scalar
    intercept: Scalar

    def apply(self, x: Scalar) -> Scalar:
        return self.slope * x + self.intercept


@dataclass(frozen=True)
class IndexShift:
    """Move k steps along the adjacency order of one component (or the
    whole space for component "*"). An optional interval restriction
    narrows which members it claims."""

    component: Union[int, str]
    steps: int
    restriction: Optional[Interval] = None

    def __post_init__(self):
        if self.component != ALL_COMPONENTS and not isinstance(self.component, int):
            raise MapError("index shift component must be an index or '*'")


Clause = Union[Table, AffinePiece, IndexShift]


@dataclass(frozen=True)
class MapDescription:
    clauses: tuple
    inverse: Optional["MapDescription"] = None

    def __post_init__(self):
        if not self.clauses:
            raise MapError("a map needs at least one clause")


def full_line() -> Interval:
    return Interval(Endpoint(NEG_INF, False), Endpoint(POS_INF, False))


# ===================================================================
# Evaluation
# ===================================================================


def _member(
    space: SubspaceDescription,
    x: Scalar,
    cap: int,
    mat: Optional[Materialization],
    component: Optional[int] = None,
) -> bool:
    """Membership of x in the space, or in one component: the window
    materialization answers where it is exact, ``contains`` elsewhere."""
    known = None if mat is None else mat.member(x, component)
    if known is not None:
        return known
    if component is None:
        return contains(space, x, cap)
    return component_contains(space.components[component], x, cap)


def _shift_scope(clause: IndexShift, space: SubspaceDescription) -> Optional[int]:
    """The component index an index shift walks, or None for the whole space."""
    if clause.component == ALL_COMPONENTS:
        return None
    if not 0 <= clause.component < len(space.components):
        raise MapError(
            f"index shift names component {clause.component}, space has {len(space.components)}"
        )
    return clause.component


def _clause_applies(
    clause: Clause, space: SubspaceDescription, x: Scalar, cap: int, mat: Optional[Materialization]
) -> bool:
    if isinstance(clause, Table):
        return any(k == x for k, _ in clause.entries)
    if isinstance(clause, AffinePiece):
        return clause.domain.contains(x)
    if isinstance(clause, IndexShift):
        if clause.restriction is not None and not clause.restriction.contains(x):
            return False
        return _member(space, x, cap, mat, _shift_scope(clause, space))
    raise MapError(f"unknown clause {clause!r}")


def _apply_clause(
    clause: Clause, space: SubspaceDescription, x: Scalar, cap: int, mat: Optional[Materialization]
) -> Scalar:
    if isinstance(clause, Table):
        return clause.lookup(x)
    if isinstance(clause, AffinePiece):
        return clause.apply(x)
    if isinstance(clause, IndexShift):
        component = _shift_scope(clause, space)
        if mat is not None:
            target = mat.shift(component, x, clause.steps)
            if target is not None:
                return target
        if component is None:
            scope = space
        else:
            scope = SubspaceDescription((space.components[component],))
        pos = x
        step = successor if clause.steps > 0 else predecessor
        for _ in range(abs(clause.steps)):
            nxt = step(scope, pos, cap)
            if nxt is None:
                raise NoAdjacentPoint(
                    f"no member adjacent to {format_scalar(pos)} in the shift direction"
                )
            pos = nxt
        return pos
    raise MapError(f"unknown clause {clause!r}")


def _claiming_clause(
    desc: MapDescription, space, x: Scalar, cap: int, mat: Optional[Materialization]
) -> Clause:
    applying = [c for c in desc.clauses if _clause_applies(c, space, x, cap, mat)]
    if not applying:
        raise NoPieceApplies(f"no clause claims {format_scalar(x)}")
    if len(applying) > 1:
        raise AmbiguousPiece(f"{len(applying)} clauses claim {format_scalar(x)}")
    return applying[0]


def eval_map(
    desc: MapDescription, space: SubspaceDescription, x: Scalar, cap: int = DEFAULT_CAP
) -> Scalar:
    """Evaluate the map at a member. Exactly one clause must claim x."""
    if not contains(space, x, cap):
        raise OutsideDomain(f"{format_scalar(x)} is not a member of the space")
    return _eval_member(desc, space, x, cap)


def _eval_member(
    desc: MapDescription,
    space: SubspaceDescription,
    x: Scalar,
    cap: int,
    mat: Optional[Materialization] = None,
) -> Scalar:
    """eval_map at an x already known to be a member;
    a window materialization, when given, answers index facts it decides."""
    return _apply_clause(_claiming_clause(desc, space, x, cap, mat), space, x, cap, mat)


def orbit(
    desc: MapDescription,
    space: SubspaceDescription,
    start: Scalar,
    steps: int,
    cap: int = DEFAULT_CAP,
) -> tuple:
    """start, f(start), f(f(start)), ... for the given number of steps."""
    out = [start]
    x = start
    for _ in range(steps):
        x = eval_map(desc, space, x, cap)
        out.append(x)
    return tuple(out)


def derive_inverse(desc: MapDescription) -> MapDescription:
    """Mechanical inverse for table and affine clauses.

    Index shifts invert by negating the step count but their restriction
    would need the shifted image; those inverses are declared by hand.
    """
    clauses = []
    for c in desc.clauses:
        if isinstance(c, Table):
            values = [v for _, v in c.entries]
            if len(set(values)) != len(values):
                raise MapError("table is not injective; no inverse")
            clauses.append(Table(tuple((v, k) for k, v in c.entries)))
        elif isinstance(c, AffinePiece):
            if c.slope == 0:
                raise MapError("flat piece is not injective; no inverse")
            clauses.append(
                AffinePiece(affine_image(c), Fraction(1) / c.slope, -c.intercept / c.slope)
            )
        else:
            raise MapError("cannot mechanically invert an index shift")
    return MapDescription(clauses=tuple(clauses), inverse=desc)


def affine_image(piece: AffinePiece) -> Interval:
    """The exact image interval of a piece over its whole domain."""

    def send(e: Endpoint) -> Endpoint:
        if isinstance(e.value, Infinity):
            sign = 1 if (e.value.sign > 0) == (piece.slope > 0) else -1
            return Endpoint(POS_INF if sign > 0 else NEG_INF, False)
        return Endpoint(piece.apply(e.value), e.closed)

    lo, hi = send(piece.domain.lo), send(piece.domain.hi)
    return Interval(lo, hi) if piece.slope > 0 else Interval(hi, lo)


# ===================================================================
# Window samples
# ===================================================================


@dataclass(frozen=True)
class Sample:
    """A point with an image value.

    ``member`` samples are space members carrying their true image.
    Non-member samples extend an affine piece to an endpoint the space
    does not contain (open or window-clipped); they carry the one-sided
    limit value, which is what exact pair bounds need, and the ``span``
    whose end they stand for.
    """

    x: Scalar
    value: Scalar
    member: bool
    span: Optional[PieceSpan] = None


@dataclass(frozen=True)
class PieceSpan:
    """Positive-length intersection of an affine piece with a fragment."""

    piece: AffinePiece
    lo: Scalar
    hi: Scalar

    @property
    def width(self) -> Scalar:
        return self.hi - self.lo

    def inner_pair(self) -> tuple:
        """Two interior members, re-checkable by plain evaluation."""
        return self.lo + self.width / 4, self.lo + self.width / 2


@dataclass(frozen=True)
class WindowSamples:
    materialization: Materialization
    point_samples: tuple  # members: isolated points, table keys, span cut points
    limit_samples: tuple  # non-member piece limits at span endpoints
    spans: tuple
    subsampled: bool = False

    @property
    def all_samples(self) -> tuple:
        return self.point_samples + self.limit_samples


def _clip(value, lo: Scalar, hi: Scalar) -> Scalar:
    if isinstance(value, Infinity):
        return lo if value.sign < 0 else hi
    return min(max(value, lo), hi)


# One map's checks run back to back (the bijection check adds its
# inverse), so two entries cover them. The bound keeps memory flat: each
# entry pins a materialization and one exact image per window member.
@lru_cache(maxsize=2)
def collect_samples(
    desc: MapDescription,
    space: SubspaceDescription,
    window: Window,
    cap: int = DEFAULT_CAP,
) -> WindowSamples:
    """Materialize the window and pin down everything the checks need.

    Raises NoPieceApplies / AmbiguousPiece when the clause cover is broken
    anywhere on the window (a stretch or single member with zero or two
    claiming clauses), mirroring what evaluation would do there.
    """
    mat = materialize(space, window, cap)
    pts = list(mat.points)
    subsampled = False
    if len(pts) > MAX_PAIR_SAMPLES:
        stride = -(-len(pts) // MAX_PAIR_SAMPLES)
        kept = pts[::stride]
        if kept[-1] != pts[-1]:
            kept.append(pts[-1])
        pts = kept
        subsampled = True
    extra_xs = set()  # members besides the materialized points: table keys, cut points
    for clause in desc.clauses:
        if isinstance(clause, Table):
            for k, _ in clause.entries:
                if window.contains(k) and _member(space, k, cap, mat):
                    extra_xs.add(k)

    spans = []
    limit_samples = []
    for frag in mat.fragments:
        ivl = frag.interval
        frag_spans = []
        for piece in (c for c in desc.clauses if isinstance(c, AffinePiece)):
            lo = max(_clip(piece.domain.lo.value, ivl.lo.value, ivl.hi.value), ivl.lo.value)
            hi = min(_clip(piece.domain.hi.value, ivl.lo.value, ivl.hi.value), ivl.hi.value)
            if lo >= hi:
                continue
            frag_spans.append(PieceSpan(piece, lo, hi))
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
        # Cut points: fragment ends and span boundaries. Members among them
        # get their true image; open or clipped ends get piece limits.
        cuts = {ivl.lo.value, ivl.hi.value}
        for s in frag_spans:
            cuts.update((s.lo, s.hi))
        for x in sorted(cuts):
            if ivl.contains(x):
                extra_xs.add(x)  # fragments are subsets of the space
            for s in frag_spans:
                if x in (s.lo, s.hi):
                    limit_samples.append(Sample(x, s.piece.apply(x), False, s))
        spans.extend(frag_spans)

    # materialized points, table keys that are members and fragment points
    # are all members, so they skip eval_map's membership test
    extra_xs = sorted(x for x in extra_xs if not in_sorted(pts, x))
    point_samples = tuple(
        Sample(x, _eval_member(desc, space, x, cap, mat), True) for x in merge(pts, extra_xs)
    )
    # A member cut point whose true image equals the piece limit makes the
    # duplicate limit sample redundant; keep limits only when they differ.
    if limit_samples:
        true_at = {s.x: s.value for s in point_samples}
        limit_samples = [s for s in limit_samples if s.x not in true_at or s.value != true_at[s.x]]
    return WindowSamples(
        materialization=mat,
        point_samples=point_samples,
        limit_samples=tuple(limit_samples),
        spans=tuple(spans),
        subsampled=subsampled,
    )


# ===================================================================
# Check reports
# ===================================================================


@dataclass(frozen=True)
class Witness:
    points: tuple
    images: tuple
    detail: str

    def render(self) -> str:
        xs = ", ".join(format_scalar(p) for p in self.points)
        if not self.images:
            return f"{self.detail} (at {xs})"
        ys = ", ".join(format_scalar(v) for v in self.images)
        return f"{self.detail} ({xs} -> {ys})"


@dataclass(frozen=True)
class CheckReport:
    check: str
    passed: bool
    scope: str
    witness: Optional[Witness] = None
    notes: tuple = ()

    def render(self) -> str:
        lines = [f"[{'pass' if self.passed else 'FAIL'}] {self.check} on {self.scope}"]
        if self.witness is not None:
            lines.append(f"  witness: {self.witness.render()}")
        for n in self.notes:
            lines.append(f"  note: {n}")
        return "\n".join(lines)


def _base_notes(ws: WindowSamples) -> list:
    notes = []
    if ws.materialization.truncated:
        vals = ", ".join(format_scalar(t) for t in ws.materialization.truncated_near)
        notes.append(f"enumeration truncated near {vals}; raise the cap to tighten the check")
    if ws.subsampled:
        notes.append(f"more than {MAX_PAIR_SAMPLES} window points; pair checks subsampled")
    return notes


def _report(
    check: str, window: Window, ws: WindowSamples, witness: Optional[Witness], passed_note: str = ""
) -> CheckReport:
    """A failure at the check's first witness, else a pass that notes ``passed_note``."""
    notes = _base_notes(ws)
    if witness is None and passed_note:
        notes.append(passed_note)
    return CheckReport(check, witness is None, f"window {window}", witness, tuple(notes))


# ===================================================================
# Checks
# ===================================================================


def check_endomorphism(
    desc: MapDescription,
    space: SubspaceDescription,
    window: Window = DEFAULT_WINDOW,
    cap: int = DEFAULT_CAP,
) -> CheckReport:
    """Do all window members land back in the space?

    Points are checked directly. An affine piece maps each fragment stretch
    onto an interval, whose interior must lie in the space; a value of it
    outside the space, pulled back through the piece, is the witness.
    """
    ws = collect_samples(desc, space, window, cap)
    return _report("endomorphism", window, ws, _escape(space, ws, cap))


def _escape(space: SubspaceDescription, ws: WindowSamples, cap: int) -> Optional[Witness]:
    """The first image of a window member that leaves the space."""
    mat = ws.materialization
    for s in ws.point_samples:
        if not _member(space, s.value, cap, mat):
            return Witness((s.x,), (s.value,), "image leaves the space")
    for span in ws.spans:
        va, vb = span.piece.apply(span.lo), span.piece.apply(span.hi)
        image_lo, image_hi = min(va, vb), max(va, vb)
        if image_lo == image_hi and not _member(space, image_lo, cap, mat):
            q, _ = span.inner_pair()
            return Witness((q,), (image_lo,), "flat piece lands outside the space")
        y = _value_outside(space, image_lo, image_hi, cap)  # None for a flat piece
        if y is not None:
            bad = (y - span.piece.intercept) / span.piece.slope
            return Witness((bad,), (y,), "piece image leaves the space")
    return None


def _value_outside(
    space: SubspaceDescription, lo: Scalar, hi: Scalar, cap: int
) -> Optional[Scalar]:
    """A value of the open stretch (lo, hi) that is not a member, or None
    when the members cover it.

    Sweeps the interval pieces of the space upward from lo. The first
    value they leave uncovered is a piece end or a stretch between pieces;
    a discrete member there moves the sweep on.
    """
    y = lo
    while y < hi:
        pieces = [ivl for comp in space.components for ivl in intervals_near(comp, y)]
        if y > lo and not any(ivl.contains(y) for ivl in pieces) and not contains(space, y, cap):
            return y
        ahead = [ivl.hi.value for ivl in pieces if ivl.lo.value <= y < ivl.hi.value]
        if ahead:
            y = max(ahead)  # covered up to there
            continue
        end = min([ivl.lo.value for ivl in pieces if y < ivl.lo.value < hi], default=hi)
        found = _value_between_points(space, y, end, cap)
        if found is not None:
            return found
        y = end
    return None


def _value_between_points(
    space: SubspaceDescription, lo: Scalar, hi: Scalar, cap: int
) -> Optional[Scalar]:
    """A non-member of the open stretch (lo, hi), which no interval piece
    meets: its middle, or else the middle of two adjacent members in it."""
    mid = (lo + hi) / 2
    if not contains(space, mid, cap):
        return mid
    mat = materialize(space, Window(lo, hi), cap)
    known = [lo, *(p for p in mat.points if lo < p < hi), hi]
    for a, b in zip(known, known[1:]):
        if not any(z.lo.value < b and a < z.hi.value for z in mat.truncation_zones):
            return (a + b) / 2
    return None


def _moves_apart(a: Sample, b: Sample) -> bool:
    return abs(a.value - b.value) > abs(a.x - b.x)


def _changes_distance(a: Sample, b: Sample) -> bool:
    return abs(a.value - b.value) != abs(a.x - b.x)


def _inward(s: Sample, k: int) -> Sample:
    """A limit sample moved 1/k of its span's width into the span, where
    the members are; a member sample as it is."""
    if s.member:
        return s
    span = s.span
    x = s.x + span.width / k if s.x == span.lo else s.x - span.width / k
    return Sample(x, span.piece.apply(x), True)


def _member_witness(samples: tuple, detail: str, broken) -> Witness:
    """A witness made of true members where one is near: limit samples are
    nudged into their own spans while the samples stay ``broken``."""
    if not all(s.member for s in samples):
        for k in (16, 64, 256, 1024):
            nudged = tuple(_inward(s, k) for s in samples)
            if len({s.x for s in nudged}) == len(nudged) and broken(*nudged):
                samples = nudged
                break
        else:
            detail += " (limit points)"
    return Witness(tuple(s.x for s in samples), tuple(s.value for s in samples), detail)


def _slope_witness(ws: WindowSamples, bad_slope, detail: str) -> Optional[Witness]:
    """The inner pair of the first span with a ``bad_slope``; ``detail`` may say ``{slope}``."""
    for span in ws.spans:
        if bad_slope(span.piece.slope):
            q, m = span.inner_pair()
            detail = detail.format(slope=format_scalar(span.piece.slope))
            return Witness((q, m), (span.piece.apply(q), span.piece.apply(m)), detail)
    return None


def _pair_witness(
    ws: WindowSamples, bad_slope, slope_detail: str, sweep, broken, pair_detail: str
) -> Optional[Witness]:
    """A span slope that breaks a pair property, else the first ``broken``
    sample pair in pair order, nudged onto members, when the ``sweep`` finds one."""
    witness = _slope_witness(ws, bad_slope, slope_detail)
    if witness is not None or sweep(ws.all_samples):
        return witness
    # the sweep decides; the pair loop finds the first witness in pair order
    pair = next((p for p in combinations(ws.all_samples, 2) if broken(*p)), None)
    return None if pair is None else _member_witness(pair, pair_detail, broken)


def check_nonexpansive(
    desc: MapDescription,
    space: SubspaceDescription,
    window: Window = DEFAULT_WINDOW,
    cap: int = DEFAULT_CAP,
) -> CheckReport:
    """No pair of window members moves apart.

    Within a piece the slope bound |slope| <= 1 is necessary and
    sufficient; across pieces, fragments and isolated points the defect is
    convex on each box, so endpoint and cut samples decide exactly.
    """
    ws = collect_samples(desc, space, window, cap)
    witness = _pair_witness(
        ws,
        lambda slope: abs(slope) > 1,
        "piece slope {slope} exceeds 1 in size",
        _sweep_nonexpansive,
        _moves_apart,
        "pair moves apart",
    )
    return _report("nonexpansive", window, ws, witness)


def _adjacent_pairs(samples: tuple):
    ordered = sorted(samples, key=lambda s: s.x)
    return zip(ordered, ordered[1:])


def _sweep_nonexpansive(samples: tuple) -> bool:
    """Whether no pair of samples moves apart.

    For x <= y <= z on the line |x-z| = |x-y| + |y-z|, so by the triangle
    inequality a pair moves apart only if some pair adjacent in x order
    does: the adjacent pairs decide all pairs exactly.
    """
    return not any(_moves_apart(a, b) for a, b in _adjacent_pairs(samples))


def _sweep_isometry(samples: tuple) -> bool:
    """Whether every pair of samples keeps its distance.

    That holds exactly when the values follow x -> sign*x + c: every
    adjacent step in x order keeps its length, the steps share one
    orientation, and a repeated x carries one value.
    """
    orientation = 0
    for a, b in _adjacent_pairs(samples):
        dx, dv = b.x - a.x, b.value - a.value
        if abs(dv) != dx:
            return False
        if dx:
            sign = 1 if dv > 0 else -1
            if orientation and sign != orientation:
                return False
            orientation = sign
    return True


def _sweep_lipschitz(samples: tuple) -> Fraction:
    """The largest ratio |a.value - b.value| / |a.x - b.x| over sample
    pairs with a.x != b.x, or 0 when there is none.

    For x < y < z on the line |x-z| = |x-y| + |y-z|, so a ratio across y
    never exceeds the larger of the two ratios through y: comparing the
    smallest and largest value at each x with those at the next distinct x
    decides all pairs exactly.
    """
    ranges: dict = {}  # x -> (smallest value, largest value) at x
    for s in samples:
        lo, hi = ranges.get(s.x, (s.value, s.value))
        ranges[s.x] = (min(lo, s.value), max(hi, s.value))
    xs = sorted(ranges)
    best = Fraction(0)
    for x0, x1 in zip(xs, xs[1:]):
        (lo0, hi0), (lo1, hi1) = ranges[x0], ranges[x1]
        best = max(best, max(hi1 - lo0, hi0 - lo1) / (x1 - x0))
    return best


def lipschitz_upper(
    desc: MapDescription,
    space: SubspaceDescription,
    window: Window = DEFAULT_WINDOW,
    cap: int = DEFAULT_CAP,
) -> tuple:
    """(bound, notes): the exact largest expansion ratio over the window,
    the larger of the span slopes and the sample ratios."""
    ws = collect_samples(desc, space, window, cap)
    best = Fraction(0)
    for span in ws.spans:
        best = max(best, abs(span.piece.slope))
    return max(best, _sweep_lipschitz(ws.all_samples)), tuple(_base_notes(ws))


def check_bijection(
    desc: MapDescription,
    space: SubspaceDescription,
    window: Window = DEFAULT_WINDOW,
    cap: int = DEFAULT_CAP,
) -> CheckReport:
    """Injectivity from window evidence; surjectivity through the declared
    inverse (round trips both ways on window members).

    Without a declared inverse surjectivity has no finite certificate on an
    infinite description, so InverseMissing is raised unless the space is
    finite and fully enumerated, where the image can be compared directly.
    """
    ws = collect_samples(desc, space, window, cap)
    witness = _collision(ws)
    if witness is not None:
        return _report("bijection", window, ws, witness)
    if desc.inverse is not None:
        inv = desc.inverse
        # Validating the inverse's clause cover matters even when the
        # forward side sampled no members (pure interval spaces): a member
        # no inverse clause claims is a member the image misses.
        inv_ws = collect_samples(inv, space, window, cap)
        witness = _round_trip(
            ws,
            inv,
            space,
            cap,
            "image leaves the space, cannot be onto",
            "declared inverse does not undo the map",
        ) or _round_trip(
            inv_ws,
            desc,
            space,
            cap,
            "declared inverse leaves the space",
            "map does not undo the declared inverse",
        )
        onto = "onto certified through the declared inverse on window members"
        return _report("bijection", window, ws, witness, onto)
    if not _fully_finite(space, ws):
        raise InverseMissing("surjectivity on an infinite description needs a declared inverse")
    # injective on the members: the image misses a member iff it differs from them
    image = {s.value for s in ws.point_samples}
    missing = next((s.x for s in ws.point_samples if s.x not in image), None)
    witness = None if missing is None else Witness((missing,), (), "member missed by the image")
    onto = "finite space: image compared with the full point set"
    return _report("bijection", window, ws, witness, onto)


def _collision(ws: WindowSamples) -> Optional[Witness]:
    """The first witness of two window members with one image."""
    witness = _slope_witness(ws, lambda slope: slope == 0, "flat piece collapses a stretch")
    if witness is not None:
        return witness
    seen: dict = {}
    for s in ws.point_samples:
        if s.value in seen and seen[s.value] != s.x:
            return Witness((seen[s.value], s.x), (s.value, s.value), "two members share an image")
        seen[s.value] = s.x
    for a, b in combinations(ws.spans, 2):
        y = _image_overlap(a, b)
        if y is not None:
            xa = (y - a.piece.intercept) / a.piece.slope
            xb = (y - b.piece.intercept) / b.piece.slope
            if xa != xb:
                return Witness((xa, xb), (y, y), "two pieces share an image value")
    for s in ws.point_samples:
        for span in ws.spans:
            va, vb = span.piece.apply(span.lo), span.piece.apply(span.hi)
            if min(va, vb) < s.value < max(va, vb):
                x = (s.value - span.piece.intercept) / span.piece.slope
                if span.lo < x < span.hi and x != s.x:
                    return Witness((s.x, x), (s.value, s.value), "point image hit by a piece interior")
    return None


def _round_trip(
    ws: WindowSamples,
    back: MapDescription,
    space: SubspaceDescription,
    cap: int,
    leaves: str,
    undo: str,
) -> Optional[Witness]:
    """The first point sample whose image ``leaves`` the space or is not undone by ``back``."""
    mat = ws.materialization
    for s in ws.point_samples:
        if not _member(space, s.value, cap, mat):
            return Witness((s.x,), (s.value,), leaves)
        if _eval_member(back, space, s.value, cap, mat) != s.x:
            return Witness((s.x,), (s.value,), undo)
    return None


def _image_overlap(a: PieceSpan, b: PieceSpan) -> Optional[Scalar]:
    """An interior value both span images reach, or None."""
    a_vals = (a.piece.apply(a.lo), a.piece.apply(a.hi))
    b_vals = (b.piece.apply(b.lo), b.piece.apply(b.hi))
    lo = max(min(a_vals), min(b_vals))
    hi = min(max(a_vals), max(b_vals))
    if lo < hi:
        return (lo + hi) / 2
    return None


def _fully_finite(space: SubspaceDescription, ws: WindowSamples) -> bool:
    if ws.materialization.truncated or ws.subsampled or ws.materialization.fragments:
        return False
    b = is_bounded(space)
    if not (b.below.bounded and b.above.bounded):
        return False
    return (
        b.below.value >= ws.materialization.window.lo
        and b.above.value <= ws.materialization.window.hi
    )


def check_isometry(
    desc: MapDescription,
    space: SubspaceDescription,
    window: Window = DEFAULT_WINDOW,
    cap: int = DEFAULT_CAP,
) -> CheckReport:
    """Every window pair keeps its distance exactly."""
    ws = collect_samples(desc, space, window, cap)
    witness = _pair_witness(
        ws,
        lambda slope: abs(slope) != 1,
        "piece slope {slope} is not a unit",
        _sweep_isometry,
        _changes_distance,
        "pair changes distance",
    )
    return _report("isometry", window, ws, witness)


def check_between_preservation(
    desc: MapDescription,
    space: SubspaceDescription,
    window: Window = DEFAULT_WINDOW,
    cap: int = DEFAULT_CAP,
) -> CheckReport:
    """Whenever z lies between x and y, the image of z lies between the
    images of x and y.

    Probes are the window's samples in x order: members and the piece
    limits at span ends, where at one x the limit closing a span comes
    before the member and the limit opening a span after it. The map is
    affine on a span, so its members' images lie between the two end
    limits, and one sweep for weak monotonicity over the probe values
    decides every triple of members."""
    ws = collect_samples(desc, space, window, cap)
    probes = sorted(
        ws.all_samples, key=lambda s: (s.x, 1 if s.member else 0 if s.x == s.span.hi else 2)
    )
    bad = _first_between_violation([s.value for s in probes])
    witness = None
    if bad is not None:
        witness = _member_witness(
            tuple(probes[i] for i in bad), "middle point leaves the image segment", _breaks_between
        )
    return _report("between", window, ws, witness)


def _breaks_between(a: Sample, b: Sample, c: Sample) -> bool:
    return a.x < b.x < c.x and not min(a.value, c.value) <= b.value <= max(a.value, c.value)


def _first_between_violation(values: list) -> Optional[tuple]:
    """The lexicographically first (i, j, k), i < j < k, whose middle value
    lies outside [min(v_i, v_k), max(v_i, v_k)], or None.

    There is none exactly when the values are weakly monotone, and if there
    is one, one starts at i = 0. Were there none starting at 0, let v_j be
    the first value that differs from v_0, say v_j > v_0: every later value
    is at least v_j, so also above v_0, so at least its predecessors, and
    the values would never decrease. Suffix minima and maxima then give the
    first j, and a scan after it the first k.
    """
    n = len(values)
    if n < 3:
        return None
    lows, highs = list(values), list(values)  # minima and maxima of values[i:], i >= 2
    for i in range(n - 2, 1, -1):
        lows[i] = min(lows[i], lows[i + 1])
        highs[i] = max(highs[i], highs[i + 1])
    first = values[0]
    for j in range(1, n - 1):
        v = values[j]
        if v > first and lows[j + 1] < v:
            return 0, j, next(k for k in range(j + 1, n) if values[k] < v)
        if v < first and highs[j + 1] > v:
            return 0, j, next(k for k in range(j + 1, n) if values[k] > v)
    return None
