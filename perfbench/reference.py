"""Exact reference answers computed without plasti.

The benchmark checks every verdict plasti gives against an answer from
this module. Nothing here imports plasti: members are enumerated from the
benchmark's own space models, maps are evaluated by the benchmark's own
clause models, and window truths come from adjacent-pair sweeps. The
sweeps rest on one fact about the line: for x < y < z,
|x - z| = |x - y| + |y - z|, so over a sorted finite member list the
largest expansion ratio sits at an adjacent pair, an isometry keeps every
adjacent distance with one orientation, and betweenness holds exactly
when the image sequence is weakly monotone.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import ceil, floor

F = Fraction


def fmt(x: Fraction) -> str:
    """Exact rational in the CLI grammar: ``p`` or ``p/q``."""
    x = F(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ===================================================================
# Discrete spaces
# ===================================================================


class Arith:
    def __init__(self, anchor, step, direction):
        self.anchor, self.step, self.direction = F(anchor), F(step), direction

    def text(self) -> str:
        return f"arith: anchor={fmt(self.anchor)} step={fmt(self.step)} dir={self.direction}"

    def _k_range(self, lo, hi):
        kmin = ceil((F(lo) - self.anchor) / self.step)
        kmax = floor((F(hi) - self.anchor) / self.step)
        if self.direction == "right":
            kmin = max(kmin, 0)
        if self.direction == "left":
            kmax = min(kmax, 0)
        return kmin, kmax

    def members(self, lo, hi) -> list:
        kmin, kmax = self._k_range(lo, hi)
        return [self.anchor + k * self.step for k in range(kmin, kmax + 1)]

    def members_among(self, values) -> set:
        out = set()
        for v in values:
            k = (v - self.anchor) / self.step
            if k.denominator == 1 and not (self.direction == "right" and k < 0) \
                    and not (self.direction == "left" and k > 0):
                out.add(v)
        return out


class Points:
    def __init__(self, values):
        self.values = sorted(set(F(v) for v in values))

    def text(self) -> str:
        return "points: " + " ".join(fmt(v) for v in self.values)

    def members(self, lo, hi) -> list:
        return self.values[bisect_left(self.values, lo) : bisect_right(self.values, hi)]

    def members_among(self, values) -> set:
        return set(values) & set(self.values)


class Rule:
    """One gap rule: gap(n) for n >= 1, walking outward from the anchor."""

    def __init__(self, kind, *params):
        self.kind, self.params = kind, tuple(params)

    def text(self) -> str:
        p = self.params
        if self.kind == "const":
            return f"const({fmt(p[0])})"
        if self.kind == "affine":
            return f"affine({fmt(p[0])}n+{fmt(p[1])})"
        if self.kind == "recip":
            return f"recip(n+{fmt(p[0])})"
        if self.kind == "recipdiff":
            return f"recipdiff(n+{fmt(p[0])})"
        if self.kind == "explicit":
            return "explicit(" + ",".join(fmt(v) for v in p) + ")"
        return "alt(" + ",".join(a.text() for a in p) + ")"

    def gap(self, n: int) -> Fraction:
        p = self.params
        if self.kind == "const":
            return F(p[0])
        if self.kind == "affine":
            return p[0] * n + p[1]
        if self.kind == "recip":
            return F(1) / (n + p[0])
        if self.kind == "recipdiff":
            k = n + p[0]
            return F(1) / (k * (k + 1))
        if self.kind == "explicit":
            return F(p[n - 1])
        k = len(p)
        return p[(n - 1) % k].gap(1 + (n - 1) // k)

    def length(self):
        """Number of gaps on the side, or None when it never ends."""
        return len(self.params) if self.kind == "explicit" else None

    def total(self):
        """Limit of the partial sums when finite (recipdiff only)."""
        return F(1) / (self.params[0] + 1) if self.kind == "recipdiff" else None

    def is_partial_sum(self, d) -> bool:
        """recipdiff only: is d = 1/(s+1) - 1/(n+s+1) for some n >= 1?"""
        if d >= self.total():
            return False
        n = 1 / (self.total() - d) - self.params[0] - 1
        return n.denominator == 1 and n >= 1

    def partial_sums(self, reach) -> list:
        """Every partial sum g(1) + ... + g(n) that is <= reach."""
        reach = F(reach)
        if self.kind == "recipdiff":
            # sum telescopes to 1/(s+1) - 1/(n+s+1)
            if reach >= self.total():
                raise ValueError("window reaches the accumulation value")
            s = self.params[0]
            n_max = floor(1 / (self.total() - reach) - s - 1)
            return [self.total() - F(1) / (n + s + 1) for n in range(1, n_max + 1)]
        out, acc, n = [], F(0), 1
        limit = self.length()
        # walking outward; every rule but recipdiff diverges, so this ends
        while limit is None or n <= limit:
            acc += self.gap(n)
            if acc > reach:
                break
            out.append(acc)
            n += 1
        return out


class GapSeq:
    def __init__(self, anchor, left=None, right=None):
        self.anchor, self.left, self.right = F(anchor), left, right

    def text(self) -> str:
        parts = [f"gapseq: anchor={fmt(self.anchor)}"]
        if self.left is not None:
            parts.append(f"left={self.left.text()}")
        if self.right is not None:
            parts.append(f"right={self.right.text()}")
        return " ".join(parts)

    def members(self, lo, hi) -> list:
        lo, hi = F(lo), F(hi)
        out = []
        if self.left is not None and lo < self.anchor:
            out.extend(self.anchor - s for s in self.left.partial_sums(self.anchor - lo))
        if lo <= self.anchor <= hi:
            out.append(self.anchor)
        if self.right is not None and hi > self.anchor:
            out.extend(self.anchor + s for s in self.right.partial_sums(hi - self.anchor))
        return sorted(x for x in out if lo <= x <= hi)

    def members_among(self, values) -> set:
        out = {v for v in values if v == self.anchor}
        for rule, sign in ((self.left, -1), (self.right, 1)):
            reach = {v: sign * (v - self.anchor) for v in values if sign * (v - self.anchor) > 0}
            if rule is None or not reach:
                continue
            if rule.kind == "recipdiff":
                out.update(v for v, d in reach.items() if rule.is_partial_sum(d))
            else:
                sums = set(rule.partial_sums(max(reach.values())))
                out.update(v for v, d in reach.items() if d in sums)
        return out


class DiscreteSpace:
    """A union of disjoint discrete components, with optional meta lines."""

    def __init__(self, components, meta=()):
        self.components, self.meta = list(components), list(meta)

    def text(self) -> str:
        lines = [c.text() for c in self.components] + [f"meta: {m}" for m in self.meta]
        return "\n".join(lines) + "\n"

    def members(self, lo, hi) -> list:
        out = []
        for c in self.components:
            out.extend(c.members(lo, hi))
        return sorted(out)

    def member_set(self, values) -> set:
        """The given values that are members."""
        values = set(values)
        out = set()
        for c in self.components:
            out |= c.members_among(values)
        return out


# ===================================================================
# Interval spaces
# ===================================================================


class Ivl:
    """Bounded or unbounded interval; ``None`` ends are infinite."""

    def __init__(self, lo, lo_closed, hi, hi_closed):
        self.lo = None if lo is None else F(lo)
        self.hi = None if hi is None else F(hi)
        self.lo_closed, self.hi_closed = lo_closed, hi_closed

    def text(self) -> str:
        lo = "-inf" if self.lo is None else fmt(self.lo)
        hi = "+inf" if self.hi is None else fmt(self.hi)
        return f"{'[' if self.lo_closed else '('}{lo},{hi}{']' if self.hi_closed else ')'}"

    def contains(self, x) -> bool:
        above = self.lo is None or x > self.lo or (self.lo_closed and x == self.lo)
        below = self.hi is None or x < self.hi or (self.hi_closed and x == self.hi)
        return above and below

    def covers(self, other: "Ivl") -> bool:
        """other is a subset of self, endpoint topology included."""
        if self.lo is not None:
            if other.lo is None or other.lo < self.lo:
                return False
            if other.lo == self.lo and other.lo_closed and not self.lo_closed:
                return False
        if self.hi is not None:
            if other.hi is None or other.hi > self.hi:
                return False
            if other.hi == self.hi and other.hi_closed and not self.hi_closed:
                return False
        return True

    def clip(self, lo, hi):
        """Intersection with the closed window [lo, hi], or None if empty."""
        lo, hi = F(lo), F(hi)
        a, a_c = (lo, True) if self.lo is None or self.lo < lo else (self.lo, self.lo_closed)
        b, b_c = (hi, True) if self.hi is None or self.hi > hi else (self.hi, self.hi_closed)
        if a > b or (a == b and not (a_c and b_c)):
            return None
        return Ivl(a, a_c, b, b_c)


_TOPO = {"open": (False, False), "closed": (True, True),
         "left-closed": (True, False), "right-closed": (False, True)}


class Periodic:
    def __init__(self, length, gap, anchor, topo, direction):
        self.length, self.gap, self.anchor = F(length), F(gap), F(anchor)
        self.topo, self.direction = topo, direction

    @property
    def period(self):
        return self.length + self.gap

    def text(self) -> str:
        return (f"periodic: len={fmt(self.length)} gap={fmt(self.gap)} anchor={fmt(self.anchor)} "
                f"topo={self.topo} dir={self.direction}")

    def _allowed(self, k: int) -> bool:
        return not ((self.direction == "right" and k < 0) or (self.direction == "left" and k > 0))

    def interval(self, k: int) -> Ivl:
        lo = self.anchor + k * self.period
        lc, hc = _TOPO[self.topo]
        return Ivl(lo, lc, lo + self.length, hc)

    def intervals_near(self, lo, hi) -> list:
        kmin = floor((F(lo) - self.anchor) / self.period) - 1
        kmax = floor((F(hi) - self.anchor) / self.period) + 1
        return [self.interval(k) for k in range(kmin, kmax + 1) if self._allowed(k)]


class IntervalUnion:
    def __init__(self, intervals):
        self.intervals = list(intervals)

    def text(self) -> str:
        return "\n".join(f"interval: {i.text()}" for i in self.intervals)

    def intervals_near(self, lo, hi) -> list:
        return list(self.intervals)


class HalfLine:
    """The ray from ``endpoint`` to +inf."""

    def __init__(self, endpoint, closed):
        self.endpoint, self.closed = F(endpoint), closed

    def as_ivl(self) -> Ivl:
        return Ivl(self.endpoint, self.closed, None, False)

    def text(self) -> str:
        return f"halfline: {self.as_ivl().text()}"

    def intervals_near(self, lo, hi) -> list:
        return [self.as_ivl()]


class IntervalSpace:
    """Interval components plus optional isolated points."""

    def __init__(self, components, points=()):
        self.components, self.points = list(components), sorted(F(p) for p in points)

    def text(self) -> str:
        lines = [c.text() for c in self.components]
        if self.points:
            lines.insert(0, Points(self.points).text())
        return "\n".join(lines) + "\n"

    def _near(self, lo, hi) -> list:
        out = []
        for c in self.components:
            out.extend(c.intervals_near(lo, hi))
        return out

    def is_member(self, x) -> bool:
        return x in self.points or any(i.contains(x) for i in self._near(x, x))

    def covers(self, piece: Ivl) -> bool:
        if piece.lo == piece.hi:
            return self.is_member(piece.lo)
        return any(i.covers(piece) for i in self._near(piece.lo, piece.hi))

    def fragments(self, lo, hi) -> list:
        """Window parts: clipped intervals and isolated points."""
        out = [f for f in (i.clip(lo, hi) for i in self._near(lo, hi)) if f is not None]
        out.extend(Ivl(p, True, p, True) for p in self.points if lo <= p <= hi)
        return out


def affine_image(piece: Ivl, slope, icpt) -> Ivl:
    a, b = slope * piece.lo + icpt, slope * piece.hi + icpt
    if slope > 0:
        return Ivl(a, piece.lo_closed, b, piece.hi_closed)
    if slope < 0:
        return Ivl(b, piece.hi_closed, a, piece.lo_closed)
    return Ivl(icpt, True, icpt, True)


def interval_truth(check: str, space: IntervalSpace, fmap: "Map", lo, hi):
    """Window truth for a map made of one affine piece on the whole line."""
    (m, b) = fmap.global_affine()
    frags = space.fragments(lo, hi)

    def endo(slope, icpt):
        return all(space.covers(affine_image(f, slope, icpt)) for f in frags)

    if check == "endo":
        return endo(m, b)
    if check == "nonexpansive":
        return abs(m) <= 1
    if check == "isometry":
        return abs(m) == 1
    if check == "between":
        return True
    if check == "lipschitz":
        return fmt(abs(m))
    if check == "bijection":
        mi, bi = fmap.inverse.global_affine()
        exact_inverse = m != 0 and mi == 1 / m and bi == -b / m
        return exact_inverse and endo(m, b) and endo(mi, bi)
    raise ValueError(check)


# ===================================================================
# Maps
# ===================================================================


class Piece:
    def __init__(self, dom: Ivl, slope, icpt):
        self.dom, self.slope, self.icpt = dom, F(slope), F(icpt)

    def text(self) -> str:
        return f"piece: dom={self.dom.text()} slope={fmt(self.slope)} icpt={fmt(self.icpt)}"

    def claims(self, x, ctx) -> bool:
        return self.dom.contains(x)

    def apply(self, x, ctx):
        return self.slope * x + self.icpt


class Table:
    def __init__(self, entries):
        self.entries = [(F(a), F(b)) for a, b in entries]

    def text(self) -> str:
        return "table: " + " ".join(f"{fmt(a)}->{fmt(b)}" for a, b in self.entries)

    def claims(self, x, ctx) -> bool:
        return any(a == x for a, _ in self.entries)

    def apply(self, x, ctx):
        return next(b for a, b in self.entries if a == x)


class Shift:
    """Move k members along the whole space (``idxshift: comp=*``)."""

    def __init__(self, k: int):
        self.k = k

    def text(self) -> str:
        return f"idxshift: comp=* k={self.k}"

    def claims(self, x, ctx) -> bool:
        return True

    def apply(self, x, ctx):
        return ctx.walk(x, self.k)


class Map:
    def __init__(self, clauses, inverse=None):
        self.clauses, self.inverse = list(clauses), inverse

    def text(self) -> str:
        lines = [c.text() for c in self.clauses]
        if self.inverse is not None:
            lines.extend("inverse: " + c.text() for c in self.inverse.clauses)
        return "\n".join(lines) + "\n"

    def __call__(self, x, ctx=None):
        claiming = [c for c in self.clauses if c.claims(x, ctx)]
        if len(claiming) != 1:
            raise ValueError(f"{len(claiming)} clauses claim {fmt(x)}")
        return claiming[0].apply(x, ctx)

    def global_affine(self) -> tuple:
        (piece,) = self.clauses
        assert piece.dom.lo is None and piece.dom.hi is None
        return piece.slope, piece.icpt

    @property
    def shifts(self) -> int:
        return max((abs(c.k) for c in self.clauses if isinstance(c, Shift)), default=0)


def line() -> Ivl:
    return Ivl(None, False, None, False)


def affine(slope, icpt) -> Piece:
    return Piece(line(), slope, icpt)


def identity_except(points: dict) -> list:
    """Identity pieces on the line minus the given points, which are
    claimed by degenerate pieces sending x to points[x]."""
    keys = sorted(points)
    clauses, lo, lo_closed = [], None, False
    for k in keys:
        clauses.append(Piece(Ivl(lo, lo_closed, k, False), 1, 0))
        clauses.append(Piece(Ivl(k, True, k, True), 0, points[k]))
        lo = k
    clauses.append(Piece(Ivl(lo, False, None, False), 1, 0))
    return clauses


def table_except(points: dict) -> list:
    """Same relocation as ``identity_except``, written as a table."""
    keys = sorted(points)
    clauses, lo = [Table(sorted(points.items()))], None
    for k in keys:
        clauses.append(Piece(Ivl(lo, False, k, False), 1, 0))
        lo = k
    clauses.append(Piece(Ivl(lo, False, None, False), 1, 0))
    return clauses


# ===================================================================
# Discrete window truth: adjacent sweeps over enumerated members
# ===================================================================


def discrete_truth(check: str, space: DiscreteSpace, fmap: Map, lo, hi):
    """The check's exact answer over every window member."""
    xs = space.members(lo, hi)
    ctx = None
    if fmap.shifts or (fmap.inverse is not None and fmap.inverse.shifts):
        pad = fmap.shifts + (fmap.inverse.shifts if fmap.inverse else 0) + 1
        ctx = _padded_members(space, xs, pad)
    fx = [fmap(x, ctx) for x in xs]
    steps = [(fx[i + 1] - fx[i], xs[i + 1] - xs[i]) for i in range(len(xs) - 1)]
    if check == "endo":
        members = space.member_set(fx)
        return all(v in members for v in fx)
    if check == "nonexpansive":
        return all(abs(df) <= dx for df, dx in steps)
    if check == "isometry":
        return all(abs(df) == dx for df, dx in steps) and (
            all(df > 0 for df, _ in steps) or all(df < 0 for df, _ in steps)
        )
    if check == "between":
        return all(df >= 0 for df, _ in steps) or all(df <= 0 for df, _ in steps)
    if check == "lipschitz":
        return fmt(max((abs(df) / dx for df, dx in steps), default=F(0)))
    if check == "bijection":
        if len(set(fx)) != len(fx):
            return False
        inv = fmap.inverse
        if inv is None:  # finite space fully inside the window
            return sorted(fx) == xs
        gy = [inv(y, ctx) for y in xs]
        members = space.member_set(fx + gy)
        forward = all(v in members and inv(v, ctx) == x for x, v in zip(xs, fx))
        backward = all(u in members and fmap(u, ctx) == y for y, u in zip(xs, gy))
        return forward and backward
    raise ValueError(check)


class _Order:
    """Members in sorted order, for walking k steps along the space."""

    def __init__(self, members: list):
        self.members = members
        self.position = {x: i for i, x in enumerate(members)}

    def walk(self, x, k: int):
        return self.members[self.position[x] + k]


def _padded_members(space: DiscreteSpace, xs: list, pad: int) -> _Order:
    """Window members plus at least ``pad`` neighbours beyond each end.

    Each side grows on its own, so a side of slowly diverging gaps is
    never walked further than the padding needs."""
    lo, hi = xs[0], xs[-1]
    step = (hi - lo) / len(xs)
    below, reach = [], step
    while len(below) < pad:
        below = [x for x in space.members(lo - reach, lo) if x < lo]
        reach *= 2
    above, reach = [], step
    while len(above) < pad:
        above = [x for x in space.members(hi, hi + reach) if x > hi]
        reach *= 2
    return _Order(below + xs + above)


# ===================================================================
# Finite sets and distance tables
# ===================================================================


def isometry_count(points) -> int:
    """Self-isometries of a finite set of the line: the identity, plus the
    mirror when the set is symmetric about its midpoint."""
    pts = sorted(F(p) for p in points)
    mirrored = sorted(pts[0] + pts[-1] - p for p in pts)
    return 2 if len(pts) > 1 and mirrored == pts else 1


def shortest_paths(n: int, weight: dict, sources) -> dict:
    """Dijkstra from each source over a complete graph given by ``weight``
    (keys are index pairs i < j). Returns {(s, t): distance}."""
    out = {}
    for s in sources:
        dist = {s: F(0)}
        done = set()
        heap = [(F(0), s)]
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v in range(n):
                if v == u or v in done:
                    continue
                nd = d + weight[(min(u, v), max(u, v))]
                if v not in dist or nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        for t, d in dist.items():
            out[(s, t)] = d
    return out
