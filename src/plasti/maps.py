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

A map is evaluated by runs (``_Images``). Each clause claims the sorted
members it covers as index runs, found by bisecting float keys, so a
member with zero or two claims shows at once. An index shift steps along
the materialized points by index arithmetic; only a target beyond them
is walked to member by member. ``eval_map`` is the same code on one
member, so the two cannot disagree.

The checks of one map on one window read one core (``_WindowCore``):
the materialization, the sample members with their float keys and
indices read from it, the clause claims, and the images. An image is
evaluated when a check first asks for it and kept. What a check pays for
therefore follows what it reads. The pair, bijection, betweenness and
Lipschitz checks read every sample (``collect_samples``), and each image
is evaluated once per core. The endomorphism check reads the samples in
x order and stops at its first escape, evaluating past it only the
members that could still raise. The round trips of the bijection check
evaluate the inverse only up to their first failing sample.

Each check names only its first witness, or None, testing in a fixed
order; ``_report`` is the one place that turns it into a ``CheckReport``.
The first pair that moves apart, or changes its distance, is found in
linear time, and it is the pair a loop over all pairs finds first. For
point samples x_i < x_j, |v_j - v_i| > x_j - x_i holds exactly when
v - x rises or v + x falls from i to j, and |v_j - v_i| = x_j - x_i
exactly when one of the two stays equal. Running extrema of v - x and
v + x therefore name the first row a sample moves apart from, and a pair
that changes its distance starts at one of the first two samples.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Optional, Union

from .errors import (
    AmbiguousPiece,
    InverseMissing,
    MapError,
    NoAdjacentPoint,
    NoPieceApplies,
    OutsideDomain,
    PlastiError,
)
from .frozen import frozen
from .scalar import NEG_INF, POS_INF, Infinity, Scalar, format_scalar
from .space import (
    DEFAULT_CAP,
    DEFAULT_WINDOW,
    Endpoint,
    Interval,
    Materialization,
    SubspaceDescription,
    Window,
    _float_key,
    _locate,
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


@frozen
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


@frozen
class AffinePiece:
    """x -> slope*x + intercept on an interval domain."""

    domain: Interval
    slope: Scalar
    intercept: Scalar

    def apply(self, x: Scalar) -> Scalar:
        return self.slope * x + self.intercept


@frozen
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


@frozen
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


def _member(space: SubspaceDescription, x: Scalar, cap: int, mat: Optional[Materialization]) -> bool:
    """Membership of x in the space: the window materialization answers
    where it is exact, ``contains`` elsewhere."""
    known = None if mat is None else mat.member(x)
    return contains(space, x, cap) if known is None else known


def _shift_scope(clause: IndexShift, space: SubspaceDescription) -> Optional[int]:
    """The component index an index shift walks, or None for the whole space."""
    if clause.component == ALL_COMPONENTS:
        return None
    if not 0 <= clause.component < len(space.components):
        raise MapError(
            f"index shift names component {clause.component}, space has {len(space.components)}"
        )
    return clause.component


def _walk(scope: SubspaceDescription, x: Scalar, steps: int, cap: int) -> Scalar:
    """The member ``steps`` places from x in the adjacency order of
    ``scope``, one ``successor`` or ``predecessor`` query per step."""
    step = successor if steps > 0 else predecessor
    for _ in range(abs(steps)):
        nxt = step(scope, x, cap)
        if nxt is None:
            raise NoAdjacentPoint(f"no member adjacent to {format_scalar(x)} in the shift direction")
        x = nxt
    return x


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
    image = _Images(desc, space, (x,), cap, mat)[0]
    if isinstance(image, PlastiError):
        raise image
    return image


def _affine_images(piece: AffinePiece, xs):
    """The image of xs[i] under ``piece``, as a function of i, with the
    values of ``piece.apply``. Unit slopes, the isometric pieces, skip the
    Fraction product, and they are most of the images evaluated: over one
    pass of perfbench seed 5, 75% on ``windows`` (66% slope 1, 9% slope
    -1) and 93% on ``gallery`` (91% slope -1, the reflection candidates).
    A copy with ``slope * xs[i] + icpt`` alone ran ``windows`` at 683
    jobs/s against 747 here (median of 6 alternating 6 s pairs, slower in
    all 6) and ``gallery`` at 59.9 against 63.1 (4 pairs, slower in all
    4), on a shared 2-vCPU Linux VM under Python 3.11.7."""
    slope, icpt = piece.slope, piece.intercept
    if slope == 1:
        return xs.__getitem__ if icpt == 0 else lambda i: xs[i] + icpt
    if slope == -1:
        return lambda i: icpt - xs[i]
    return lambda i: slope * xs[i] + icpt


def _shift_images(points: Optional[tuple], at: array, steps: int, blocked: list):
    """The member ``steps`` places along ``points`` from member i, found at
    index ``at[i]`` there, as a function of i; None where that is not
    decided: i is not a point, the target leaves ``points``, or a shift
    from there is ``blocked``, as ``Materialization.blocked`` gives."""

    def image(i):
        a = at[i]
        if a < 0 or not 0 <= a + steps < len(points) or any(lo <= a < hi for lo, hi in blocked):
            return None
        return points[a + steps]

    return image


_UNKNOWN = object()  # an image not evaluated yet


def _claims(desc, space, xs, cap, mat, keys, at) -> tuple:
    """(owner, clauses, counts, errors, deferred) for the strictly
    ascending members ``xs``: the first clause that claims each member, or
    -1; per clause, the members it claims, the image of one as a function
    of its index (None: walk to it) and the scope and steps of a walk; the
    number of clauses that claim a member, where more than one; the first
    error testing a clause raised at a member, with the place of that
    clause among the others; and the shift clauses whose scope is still to
    be tested at a member.

    Each clause finds the members it claims as index runs of ``xs``: table
    keys and the ends of affine domains and shift restrictions are located
    by float keys. Inside the window and outside its truncation zones the
    materialization decides a shift's scope, by a lookup in the scope's
    points. Elsewhere ``contains`` decides it, member by member, and only
    when that member's image is asked for (``_Images``).

    ``keys``, the float keys of xs, and ``at``, the index of each in the
    materialization's ``points`` (-1 where it is not one), are computed
    where the caller passes None.
    """
    n = len(xs)
    if keys is None:
        keys = array("d", map(_float_key, xs))

    def index(value, past: bool) -> int:
        """How many of xs lie below ``value``, or at or below it when ``past``."""
        i = _locate(xs, keys, value)
        return i + 1 if past and i < n and xs[i] == value else i

    def run(ivl: Interval) -> range:
        lo = 0 if isinstance(ivl.lo.value, Infinity) else index(ivl.lo.value, not ivl.lo.closed)
        hi = n if isinstance(ivl.hi.value, Infinity) else index(ivl.hi.value, ivl.hi.closed)
        return range(lo, max(lo, hi))

    exact = bytearray(n)  # where the materialization decides membership
    if mat is not None:
        inside = run(Interval.closed(mat.window.lo, mat.window.hi))
        exact[inside.start : inside.stop] = b"\1" * len(inside)
        for zone in mat.truncation_zones:
            cut = run(zone)
            exact[cut.start : cut.stop] = bytes(len(cut))

    owner = [-1] * n  # the first clause that claims each member
    counts: dict = {}  # member -> number of clauses that claim it, where more than one
    errors: dict = {}  # member -> (place, error): the first error raised testing a clause there
    deferred: dict = {}  # member -> the shift clauses whose scope is tested there on demand
    # per clause: the members it claims, the image of one (None: walk to
    # it), and the scope and steps of a walk
    clauses: list = []

    def claim(members, image, walk=None) -> None:
        c = len(clauses)
        for i in members:
            if owner[i] < 0:
                owner[i] = c
            else:
                counts[i] = counts.get(i, 1) + 1
        clauses.append((members, image, walk))

    for clause in desc.clauses:
        if isinstance(clause, Table):
            table = {}
            for k, v in clause.entries:
                i = index(k, False)
                if i < n and xs[i] == k:
                    table[i] = v
            claim(sorted(table), table.__getitem__)
        elif isinstance(clause, AffinePiece):
            claim(run(clause.domain), _affine_images(clause, xs))
        elif isinstance(clause, IndexShift):
            members = range(n) if clause.restriction is None else run(clause.restriction)
            try:
                scope = _shift_scope(clause, space)
            except MapError as err:
                for i in members:  # its place: the clauses before it and any after it
                    errors.setdefault(i, (len(clauses), err))
                continue
            walked = space if scope is None else SubspaceDescription((space.components[scope],))
            points = None if mat is None else mat.scope_points(scope)
            found, blocked = array("q", [-1]) * n, []  # each member's index in the scope's points
            if points is not None:
                if at is not None and points is mat.points:
                    found = at
                else:
                    span = slice(members.start, members.stop)
                    found[span] = mat.indices(scope, xs[span], keys[span])
                blocked = mat.blocked(scope, clause.steps)
            mine = array("q")
            for i in members:
                if exact[i] and (scope is None or points is not None):
                    if scope is None or found[i] >= 0:  # a member, or a point of the component
                        mine.append(i)
                else:
                    deferred.setdefault(i, []).append(len(clauses))
            claim(mine, _shift_images(points, found, clause.steps, blocked), (walked, clause.steps))
        else:
            raise MapError(f"unknown clause {clause!r}")
    return owner, clauses, counts, errors, deferred


class _Images:
    """The image of each of the strictly ascending members ``xs`` under a
    map, or the plasti error that evaluating the map at that member alone
    raises: ``images[i]``, evaluated when first asked for and kept.

    The clauses claim the members by runs (``_claims``). A member where
    testing a clause raises gets the first such error in clause order, and
    one that no clause or two clauses claim gets the error for that. Affine
    runs are mapped by ``_affine_images``, and a shift steps along the
    scope's points by index arithmetic; only a target that leaves them, or
    lies past a truncation zone, is walked to by ``successor`` or
    ``predecessor``. So only a claim error or a walk makes an image an
    error, and a caller that stops at its first failure makes no walk, and
    no scope test outside the window, for a member it did not ask for.
    """

    __slots__ = ("xs", "cap", "owner", "clauses", "images", "_counts", "_errors", "_deferred")

    def __init__(self, desc, space, xs, cap, mat=None, keys=None, at=None):
        self.xs, self.cap, self.images = xs, cap, [_UNKNOWN] * len(xs)
        claimed = _claims(desc, space, xs, cap, mat, keys, at)
        self.owner, self.clauses, self._counts, self._errors, self._deferred = claimed
        owner = self.owner
        unclaimed = [i for i in range(len(xs)) if owner[i] < 0] if -1 in owner else []
        for i in {*self._errors, *self._counts, *unclaimed} - self._deferred.keys():
            self._settle(i, ())

    def _settle(self, i: int, tests) -> None:
        """Fix which clause claims member i, after the scope tests
        ``tests`` (clause indices, ascending) deferred to now; its image is
        an error when a test raises first, or when no clause or two claim it."""
        first, count = self.owner[i], self._counts.get(i, int(self.owner[i] >= 0))
        place, error = self._errors.get(i, (len(self.clauses), None))
        for c in tests:
            if c >= place:  # the clause that raised comes first
                break
            try:
                inside = contains(self.clauses[c][2][0], self.xs[i], self.cap)
            except PlastiError as err:
                error = err
                break
            if inside:
                first, count = c if first < 0 else first, count + 1
        if error is None and count == 1:
            self.owner[i] = first
            return
        if error is None and count:
            error = AmbiguousPiece(f"{count} clauses claim {format_scalar(self.xs[i])}")
        elif error is None:
            error = NoPieceApplies(f"no clause claims {format_scalar(self.xs[i])}")
        self.owner[i], self.images[i] = -1, error

    def __getitem__(self, i: int):
        y = self.images[i]
        if y is _UNKNOWN:
            tests = self._deferred.pop(i, None)
            if tests is not None:
                self._settle(i, tests)
                if self.owner[i] < 0:
                    return self.images[i]
            _, image, walk = self.clauses[self.owner[i]]
            y = image(i)
            if y is None:
                scope, steps = walk
                try:
                    y = _walk(scope, self.xs[i], steps, self.cap)
                except PlastiError as err:
                    y = err
            self.images[i] = y
        return y

    def values(self, start: int, stop: int) -> list:
        """The images of xs[start:stop], or the first error, in x order, among them raised."""
        out = [self[i] for i in range(start, stop)]
        for y in out:
            if isinstance(y, PlastiError):
                raise y
        return out

    def first_error(self, start: int) -> Optional[PlastiError]:
        """The first error among the images of xs[start:], in x order, or
        None. Only the images that can be errors are evaluated: claim
        errors, those with a scope test still to make, and those of
        shifts, which may walk."""
        owner, clauses, deferred = self.owner, self.clauses, self._deferred
        for i in range(start, len(owner)):
            c = owner[i]
            if c < 0 or clauses[c][2] is not None or i in deferred:
                y = self[i]
                if isinstance(y, PlastiError):
                    return y
        return None


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


@frozen
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


@frozen
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


@frozen
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


@frozen
class _WindowCore:
    """One map on one window, as every check reads it: the
    materialization, the sample members ``xs`` with their images (an
    ``_Images``), the piece spans, and the limit samples at span ends."""

    materialization: Materialization
    xs: tuple
    images: _Images
    spans: tuple
    limits: tuple
    subsampled: bool


# One map's checks run back to back (the bijection check adds its
# inverse), so two entries cover them, here and in collect_samples. The
# bound keeps memory flat: each entry pins a materialization, and the
# images of one map on at most MAX_PAIR_SAMPLES of its points plus its
# cut points, as far as the checks have asked for them.
@lru_cache(maxsize=2)
def _window_core(
    desc: MapDescription, space: SubspaceDescription, window: Window, cap: int
) -> _WindowCore:
    """Materialize the window, choose the sample members and claim them.

    The sample members are the materialization's points, every
    ``stride``-th of them past ``MAX_PAIR_SAMPLES`` and the last, then the
    table keys and fragment cut points that are members. A slice of the
    points already has its float keys in the materialization, and its
    positions there are the slice indices, so those are read, not looked
    up. Raises NoPieceApplies / AmbiguousPiece when the pieces leave a
    stretch of a fragment unclaimed or claim it twice; images are left to
    the checks.
    """
    mat = materialize(space, window, cap)
    pts, keys = mat.points, mat._point_keys(None)
    at = range(len(pts))
    subsampled = len(pts) > MAX_PAIR_SAMPLES
    if subsampled:
        stride = -(-len(pts) // MAX_PAIR_SAMPLES)
        last = [len(pts) - 1] if (len(pts) - 1) % stride else []
        at = [*range(0, len(pts), stride), *last]
        pts, keys = [pts[i] for i in at], array("d", [keys[i] for i in at])
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
    xs, at = list(pts), array("q", at)
    extra_xs = sorted(x for x in extra_xs if not in_sorted(pts, x))
    if extra_xs:
        extra_keys = array("d", map(_float_key, extra_xs))
        places = [_locate(pts, keys, x) + k for k, x in enumerate(extra_xs)]
        keys = array("d", keys)  # a copy: the materialization's keys stay as they are
        for place, x, fx, a in zip(places, extra_xs, extra_keys, mat.indices(None, extra_xs, extra_keys)):
            xs.insert(place, x)
            keys.insert(place, fx)
            at.insert(place, a)
    xs = tuple(xs)
    images = _Images(desc, space, xs, cap, mat, keys, at)
    return _WindowCore(mat, xs, images, tuple(spans), tuple(limit_samples), subsampled)


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
    claiming clauses), mirroring what evaluation would do there. This is
    the core completed: every image evaluated, or the first error among
    them, in x order, raised.
    """
    core = _window_core(desc, space, window, cap)
    images = core.images.values(0, len(core.xs))
    point_samples = tuple(Sample(x, y, True) for x, y in zip(core.xs, images))
    limit_samples = core.limits
    # A member cut point whose true image equals the piece limit makes the
    # duplicate limit sample redundant; keep limits only when they differ.
    if limit_samples:
        true_at = {s.x: s.value for s in point_samples}
        limit_samples = [s for s in limit_samples if s.x not in true_at or s.value != true_at[s.x]]
    return WindowSamples(
        materialization=core.materialization,
        point_samples=point_samples,
        limit_samples=tuple(limit_samples),
        spans=core.spans,
        subsampled=core.subsampled,
    )


# ===================================================================
# Check reports
# ===================================================================


@frozen
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


@frozen
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

    Points are checked directly, in x order, and the check stops at the
    first image that leaves the space. An affine piece maps each fragment
    stretch onto an interval, whose interior must lie in the space; a
    value of it outside the space, pulled back through the piece, is the
    witness. An image the map cannot evaluate is an error wherever it is
    in the window, so it wins over any witness.
    """
    core = _window_core(desc, space, window, cap)
    return _report("endomorphism", window, core, _escape(space, core, cap))


def _escape(space: SubspaceDescription, core: _WindowCore, cap: int) -> Optional[Witness]:
    """The first image of a window member that leaves the space."""
    mat = core.materialization
    i = _first_escape(space, core.images, cap, mat)
    if i is not None:
        return Witness((core.xs[i],), (core.images[i],), "image leaves the space")
    for span in core.spans:
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


def _first_escape(
    space: SubspaceDescription, images: _Images, cap: int, mat: Materialization
) -> Optional[int]:
    """The first member, in x order, whose image is not a member of the
    space, or None; it raises the first error evaluating an image raises,
    else the first error testing one raises.

    Images are evaluated and tested for membership in blocks that start at
    one member and double. At the first failure only the later members
    whose evaluation can still raise are evaluated (``first_error``), so
    an error there wins as if every image had been evaluated first. When
    every image is a member, each was evaluated and tested once."""
    for start, stop in _blocks(len(images.xs)):
        values = images.values(start, stop)
        i, error = _first_outside(space, values, cap, mat)
        if i < len(values):
            error = images.first_error(stop) or error
            if error is not None:
                raise error
            return start + i
    return None


def _blocks(n: int):
    """The (start, stop) of consecutive blocks of range(n) that start at
    one index and double, so a scan that stops at index i has read fewer
    than 2i + 2 indices, in about log2(i) blocks."""
    start, size = 0, 1
    while start < n:
        yield start, min(start + size, n)
        start, size = start + size, 2 * size


def _first_outside(space: SubspaceDescription, values: list, cap: int, mat: Materialization) -> tuple:
    """(i, error): the first of ``values``, in order, that is not a member
    of the space, and the error testing it raised, if any; (len(values),
    None) when all are members. The materialization decides the values
    where it is exact, all at once; ``contains`` tests the others in turn."""
    for i, (v, inside) in enumerate(zip(values, mat.members(values))):
        if inside is None:
            try:
                inside = contains(space, v, cap)
            except PlastiError as err:
                return i, err
        if not inside:
            return i, None
    return len(values), None


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
        # components, and the periods of a family, are disjoint: at most one piece runs on from y
        ahead = next((ivl.hi.value for ivl in pieces if ivl.lo.value <= y < ivl.hi.value), None)
        if ahead is not None:
            y = ahead  # covered up to there
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
    ws: WindowSamples, bad_slope, slope_detail: str, sweep, first_pair, broken, pair_detail: str
) -> Optional[Witness]:
    """A span slope that breaks a pair property, else the first ``broken``
    sample pair in pair order, nudged onto members, when the ``sweep`` finds one."""
    witness = _slope_witness(ws, bad_slope, slope_detail)
    if witness is not None or sweep(ws.all_samples):
        return witness
    pair = _first_broken_pair(ws.point_samples, ws.limit_samples, first_pair, broken)
    return None if pair is None else _member_witness(pair, pair_detail, broken)


def _first_broken_pair(points: tuple, limits: tuple, first_pair, broken) -> Optional[tuple]:
    """The first ``broken`` pair of ``combinations(points + limits, 2)``.

    ``first_pair(points)`` names the first broken pair of point samples as
    indices (i, j), or None. A row before i can break only with a limit
    sample, and pairs of limit samples come last; those are tested directly.
    """
    pair = first_pair(points)
    for p in points[: len(points) if pair is None else pair[0]]:
        for q in limits:
            if broken(p, q):
                return p, q
    if pair is not None:
        return points[pair[0]], points[pair[1]]
    return next((pair for pair in combinations(limits, 2) if broken(*pair)), None)


def _first_pair_moving_apart(points: tuple) -> Optional[tuple]:
    """(i, j): the first pair of point samples, in pair order, that moves
    apart, else None.

    Point samples have distinct ascending x. For x_i < x_j,
    |v_j - v_i| > x_j - x_i exactly when v - x rises from i to j or v + x
    falls. Going up j, the running minimum of v - x only falls and the
    running maximum of v + x only rises, so bisecting them gives the first
    row that j moves apart from. Only rows before the best pair so far are
    searched, and a pair in the first row ends the scan.
    """
    best, lows, highs = None, [], []  # running minima of v - x, maxima of v + x
    for j, s in enumerate(points):
        rise, fall = s.value - s.x, s.value + s.x
        k = j if best is None else best[0]
        if k and (lows[k - 1] < rise or highs[k - 1] > fall):
            i = bisect_left(range(k), True, key=lambda i: lows[i] < rise or highs[i] > fall)
            best = (i, j)
            if i == 0:
                break
        lows.append(min(lows[-1], rise) if lows else rise)
        highs.append(max(highs[-1], fall) if highs else fall)
    return best


def _first_pair_changing_distance(points: tuple) -> Optional[tuple]:
    """(i, j): the first pair of point samples, in pair order, that changes
    its distance, else None.

    It starts at the first or the second sample. For x_i < x_j,
    |v_j - v_i| = x_j - x_i exactly when v - x or v + x is the same at j as
    at i. The first two samples keep their distance, so they share one of
    the two, say v - x = c. A sample that keeps its distance to both has
    v - x = c, or else v + x equal to the value at both of them, which
    would put them at one x. So if every sample kept its distance to the
    first two, all would lie on v = x + c, and no pair would change.
    """
    n = len(points)
    return next(
        ((i, j) for i in range(min(n, 2)) for j in range(i + 1, n) if _changes_distance(points[i], points[j])),
        None,
    )


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
        _first_pair_moving_apart,
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
                # the piece is affine, so x lies strictly inside the span
                x = (s.value - span.piece.intercept) / span.piece.slope
                if x != s.x:
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
    """The first point sample whose image ``leaves`` the space or is not undone by ``back``.

    ``back`` claims the distinct images by runs, ascending. The samples
    are then read in blocks that start at one sample and double: a block's
    images are tested for membership up to the first that fails
    (``_first_outside``), and each sample before it is taken back in
    order. So no image past the block of the first failing sample is
    tested, and ``back`` is evaluated, walks and scope tests outside the
    window included, at no image past that sample."""
    mat = ws.materialization
    samples = ws.point_samples
    values = [s.value for s in samples]
    keys = array("d", map(_float_key, values))
    ys, rank = [], array("q", bytes(8 * len(values)))  # the distinct images ascending; each one's place
    for i in sorted(range(len(values)), key=lambda i: (keys[i], values[i])):
        if not ys or values[i] != ys[-1]:
            ys.append(values[i])
        rank[i] = len(ys) - 1
    images = _Images(back, space, ys, cap, mat)
    for lo, hi in _blocks(len(samples)):
        stop, failure = _first_outside(space, values[lo:hi], cap, mat)
        for i in range(lo, lo + stop):
            image = images[rank[i]]
            if isinstance(image, PlastiError):
                raise image
            if image != samples[i].x:
                return Witness((samples[i].x,), (values[i],), undo)
        if failure is not None:
            raise failure
        if lo + stop < hi:
            return Witness((samples[lo + stop].x,), (values[lo + stop],), leaves)
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
        _first_pair_changing_distance,
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
