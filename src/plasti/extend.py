"""Finite models of metric extensions: add labeled outer points to a
finite sample of the line, then either close a proposed distance table
into an honest metric (detecting where it shrinks the original
distances) or extend through a basepoint hub so the original distances
survive untouched.

The closure and the axiom check run on the table scaled to integers by L,
the common denominator of its entries. Every closure entry and every
triangle side is a sum of entries, and multiplying by L > 0 keeps sums,
signs and order, so each int comparison decides exactly what the Fraction
comparison would. Closed entries convert back, as Fraction(v, L), once at
the end; report text is formatted from the original entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import add
from typing import Optional

from .errors import CapExceeded, InvalidMatrix, OuterMetricInvalid
from .scalar import Scalar, format_scalar

MAX_POINTS = 32

INNER, OUTER = "inner", "outer"


@dataclass(frozen=True)
class FiniteSpace:
    """Labeled sample of the line; distances are the absolute differences."""

    labels: tuple
    positions: tuple

    def __post_init__(self):
        if len(self.labels) != len(self.positions):
            raise InvalidMatrix("labels and positions must align")
        if not self.labels:
            raise InvalidMatrix("a finite space needs at least one point")
        if len(set(self.labels)) != len(self.labels):
            raise InvalidMatrix("duplicate labels")
        if len(set(self.positions)) != len(self.positions):
            raise InvalidMatrix("duplicate positions")

    def position(self, label: str) -> Scalar:
        return self.positions[self.labels.index(label)]

    def distance(self, a: str, b: str) -> Scalar:
        return abs(self.position(a) - self.position(b))


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric distance table over labeled points.

    Symmetry, a zero diagonal and strict off-diagonal positivity are
    enforced here; the triangle inequality is not, because proposed
    tables are allowed to violate it (that is what the closure is for).
    """

    labels: tuple
    kinds: tuple
    entries: tuple

    def __post_init__(self):
        n = len(self.labels)
        if n == 0:
            raise InvalidMatrix("empty matrix")
        if n > MAX_POINTS:
            raise CapExceeded(f"{n} points exceeds the limit of {MAX_POINTS}")
        if len(set(self.labels)) != n:
            raise InvalidMatrix("duplicate labels")
        if len(self.kinds) != n or any(k not in (INNER, OUTER) for k in self.kinds):
            raise InvalidMatrix("each label needs an inner/outer tag")
        if len(self.entries) != n or any(len(row) != n for row in self.entries):
            raise InvalidMatrix("entries must form a square matrix over the labels")
        for i in range(n):
            if self.entries[i][i] != 0:
                raise InvalidMatrix(f"nonzero diagonal at {self.labels[i]}")
            for j in range(i + 1, n):
                if self.entries[i][j] != self.entries[j][i]:
                    raise InvalidMatrix(
                        f"asymmetric pair ({self.labels[i]}, {self.labels[j]})"
                    )
                if self.entries[i][j] <= 0:
                    raise InvalidMatrix(
                        f"non-positive distance for ({self.labels[i]}, {self.labels[j]})"
                    )

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InvalidMatrix(f"unknown label {label!r}") from None

    def value(self, a: str, b: str) -> Scalar:
        return self.entries[self.index(a)][self.index(b)]

    def render(self) -> str:
        width = max(len(l) for l in self.labels) + 1
        head = " " * width + " ".join(f"{l:>8s}" for l in self.labels)
        rows = [head]
        for i, l in enumerate(self.labels):
            cells = " ".join(f"{format_scalar(v):>8s}" for v in self.entries[i])
            rows.append(f"{l:<{width}s}{cells}")
        return "\n".join(rows)


def matrix_from_pairs(labels, kinds, pairs) -> DistanceMatrix:
    """Build a DistanceMatrix from {frozenset({a, b}): value} style pairs."""
    n = len(labels)
    idx = {l: i for i, l in enumerate(labels)}
    grid = [[Fraction(0)] * n for _ in range(n)]
    for (a, b), v in pairs.items():
        i, j = idx[a], idx[b]
        grid[i][j] = grid[j][i] = v
    missing = [
        (labels[i], labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if grid[i][j] == 0
    ]
    if missing:
        raise InvalidMatrix(f"missing distance for {missing[0]}")
    return DistanceMatrix(tuple(labels), tuple(kinds), tuple(tuple(r) for r in grid))


@dataclass(frozen=True)
class AugmentedSpace:
    """An inner line sample plus outer points with a proposed distance table.

    The proposed table must reproduce the inner distances exactly; the
    outer rows are free, and may break the triangle inequality.
    """

    inner: FiniteSpace
    outer: tuple
    proposed: DistanceMatrix
    basepoint: Optional[str] = None

    def __post_init__(self):
        want = set(self.inner.labels) | set(self.outer)
        if set(self.proposed.labels) != want:
            raise InvalidMatrix("proposed matrix labels must cover inner and outer points")
        if len(want) != len(self.inner.labels) + len(self.outer):
            raise InvalidMatrix("inner and outer labels overlap")
        for a, b, i, j, expect in _inner_pairs(self.inner, self.proposed):
            got = self.proposed.entries[i][j]
            if got != expect:
                raise InvalidMatrix(
                    f"proposed distance for inner pair ({a}, {b}) is "
                    f"{format_scalar(got)}, the line gives {format_scalar(expect)}"
                )
        if self.basepoint is not None and self.basepoint not in self.inner.labels:
            raise InvalidMatrix(f"basepoint {self.basepoint!r} is not an inner label")


def _inner_pairs(inner: FiniteSpace, m: DistanceMatrix):
    """(a, b, i, j, line distance) for every inner pair in ``combinations``
    order, with i and j the indices of a and b in ``m``. Each label is
    looked up once; the first inner label ``m`` lacks raises."""
    if len(inner.labels) < 2:
        return
    at = [m.index(l) for l in inner.labels]
    for (a, p, i), (b, q, j) in combinations(zip(inner.labels, inner.positions, at), 2):
        yield a, b, i, j, abs(p - q)


def _scaled(entries: tuple) -> tuple:
    """(int rows, L): the entries times L, their common denominator."""
    scale = lcm(*(v.denominator for row in entries for v in row))
    return [[v.numerator * (scale // v.denominator) for v in row] for row in entries], scale


# ===================================================================
# Path-infimum closure
# ===================================================================


@dataclass(frozen=True)
class Shrinkage:
    pair: tuple
    original: Scalar
    closed: Scalar
    chain: tuple

    def render(self) -> str:
        path = " - ".join(self.chain)
        return (
            f"({self.pair[0]}, {self.pair[1]}): {format_scalar(self.original)} "
            f"shrinks to {format_scalar(self.closed)} via {path}"
        )


@dataclass(frozen=True)
class ClosureResult:
    matrix: DistanceMatrix
    shrinkage: tuple

    @property
    def is_extension(self) -> bool:
        return not self.shrinkage

    def render(self) -> str:
        lines = [self.matrix.render()]
        if self.shrinkage:
            lines.append("shrunken inner pairs:")
            lines.extend("  " + s.render() for s in self.shrinkage)
        else:
            lines.append("no inner pair shrinks; the closure is a true extension")
        return "\n".join(lines)


def path_infimum_metric(aug: AugmentedSpace) -> ClosureResult:
    """All-pairs shortest-path closure of the proposed table.

    Chains through outer points can undercut a direct entry; on a finite
    set the infimum over chains is attained by a simple path, so the
    closure models it exactly. Inner pairs that end up strictly shorter
    than their line distance are reported with a witnessing chain.
    """
    m = aug.proposed
    n = len(m.labels)
    dist, scale = _scaled(m.entries)
    nxt = [list(range(n)) for _ in range(n)]
    for k in range(n):
        row_k = dist[k]
        for i in range(n):
            row_i = dist[i]
            nxt_i = nxt[i]
            dik = row_i[k]
            for j in range(n):
                alt = dik + row_k[j]
                if alt < row_i[j]:
                    row_i[j] = alt
                    nxt_i[j] = nxt_i[k]
    closed = tuple(tuple(Fraction(v, scale) for v in row) for row in dist)

    def chain(i: int, j: int) -> tuple:
        path = [i]
        while path[-1] != j:
            path.append(nxt[path[-1]][j])
        return tuple(m.labels[p] for p in path)

    shrunk = []
    for a, b, i, j, original in _inner_pairs(aug.inner, m):
        if closed[i][j] < original:
            shrunk.append(Shrinkage((a, b), original, closed[i][j], chain(i, j)))
    return ClosureResult(
        matrix=DistanceMatrix(m.labels, m.kinds, closed), shrinkage=tuple(shrunk)
    )


# ===================================================================
# Railway extension
# ===================================================================


def discrete_metric(labels, kinds=None) -> DistanceMatrix:
    """All distances one; the default hub metric for the outer points."""
    n = len(labels)
    entries = tuple(
        tuple(Fraction(0) if i == j else Fraction(1) for j in range(n)) for i in range(n)
    )
    if kinds is None:
        kinds = tuple(OUTER for _ in labels)
    return DistanceMatrix(tuple(labels), tuple(kinds), entries)


def railway_extension(
    aug: AugmentedSpace, outer_metric: Optional[DistanceMatrix] = None
) -> DistanceMatrix:
    """Extend the inner distances through a basepoint hub.

    Inner pairs keep their line distance; pairs inside the outer set (with
    the basepoint adjoined) use the given hub metric; a mixed pair routes
    through the basepoint: d(x, p) = d(x, x0) + hub(x0, p). The result
    always restricts to the inner distances, which the closure cannot
    promise.
    """
    if aug.basepoint is None:
        raise InvalidMatrix("the railway extension needs a basepoint")
    x0 = aug.basepoint
    hub_labels = set(aug.outer) | {x0}
    if outer_metric is None:
        kinds = tuple(INNER if l == x0 else OUTER for l in sorted(hub_labels))
        outer_metric = discrete_metric(tuple(sorted(hub_labels)), kinds)
    if set(outer_metric.labels) != hub_labels:
        raise OuterMetricInvalid(
            "hub metric must be defined on the outer points plus the basepoint"
        )
    axioms = check_metric_axioms(outer_metric)
    if not axioms.passed:
        raise OuterMetricInvalid(
            f"hub metric violates the axioms: {axioms.violations[0].render()}"
        )

    labels = aug.inner.labels + tuple(aug.outer)
    kinds = tuple(INNER for _ in aug.inner.labels) + tuple(OUTER for _ in aug.outer)
    is_outer = {l: (l in aug.outer) for l in labels}
    position = dict(zip(aug.inner.labels, aug.inner.positions))
    hub = {l: dict(zip(outer_metric.labels, row))
           for l, row in zip(outer_metric.labels, outer_metric.entries)}

    def d(a: str, b: str) -> Scalar:
        if a == b:
            return Fraction(0)
        if not is_outer[a] and not is_outer[b]:
            return abs(position[a] - position[b])
        if is_outer[a] and is_outer[b]:
            return hub[a][b]
        x, p = (a, b) if is_outer[b] else (b, a)
        return abs(position[x] - position[x0]) + hub[x0][p]

    entries = tuple(tuple(d(a, b) for b in labels) for a in labels)
    return DistanceMatrix(labels, kinds, entries)


# ===================================================================
# Axiom and restriction reports
# ===================================================================


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str
    labels: tuple
    detail: str

    def render(self) -> str:
        return f"{self.axiom} fails at ({', '.join(self.labels)}): {self.detail}"


@dataclass(frozen=True)
class AxiomReport:
    passed: bool
    violations: tuple

    def render(self) -> str:
        if self.passed:
            return "metric axioms: pass"
        return "\n".join(["metric axioms: FAIL"] + ["  " + v.render() for v in self.violations])


def check_metric_axioms(m: DistanceMatrix) -> AxiomReport:
    """Verify non-degeneracy, positivity, symmetry and every triangle."""
    bad = []
    n = len(m.labels)
    rows, _ = _scaled(m.entries)
    for i in range(n):
        if rows[i][i] != 0:
            bad.append(
                AxiomViolation(
                    "non-degeneracy",
                    (m.labels[i],),
                    f"self-distance {format_scalar(m.entries[i][i])}",
                )
            )
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                bad.append(
                    AxiomViolation(
                        "symmetry",
                        (m.labels[i], m.labels[j]),
                        f"{format_scalar(m.entries[i][j])} vs {format_scalar(m.entries[j][i])}",
                    )
                )
            if rows[i][j] <= 0:
                bad.append(
                    AxiomViolation(
                        "positivity",
                        (m.labels[i], m.labels[j]),
                        format_scalar(m.entries[i][j]),
                    )
                )
    cols = [list(col) for col in zip(*rows)]
    for i in range(n):
        row_i = rows[i]
        for j in range(i + 1, n):
            lhs, col_j = row_i[j], cols[j]
            # the minimum over every k is at most the one over k not in (i, j)
            if lhs <= min(map(add, row_i, col_j)):
                continue
            for k in range(n):
                if k in (i, j):
                    continue
                if lhs > row_i[k] + col_j[k]:
                    bad.append(
                        AxiomViolation(
                            "triangle",
                            (m.labels[i], m.labels[k], m.labels[j]),
                            f"{format_scalar(m.entries[i][j])} > {format_scalar(m.entries[i][k])} "
                            f"+ {format_scalar(m.entries[k][j])}",
                        )
                    )
    return AxiomReport(passed=not bad, violations=tuple(bad))


@dataclass(frozen=True)
class RestrictionReport:
    passed: bool
    mismatches: tuple

    def render(self) -> str:
        if self.passed:
            return "restriction to the inner sample: intact"
        lines = ["restriction to the inner sample: CHANGED"]
        for a, b, want, got in self.mismatches:
            lines.append(
                f"  ({a}, {b}): line distance {format_scalar(want)}, matrix has {format_scalar(got)}"
            )
        return "\n".join(lines)


def check_restriction(m: DistanceMatrix, inner: FiniteSpace) -> RestrictionReport:
    """Pass iff the matrix reproduces the inner line distances exactly."""
    bad = []
    for a, b, i, j, want in _inner_pairs(inner, m):
        got = m.entries[i][j]
        if got != want:
            bad.append((a, b, want, got))
    return RestrictionReport(passed=not bad, mismatches=tuple(bad))
