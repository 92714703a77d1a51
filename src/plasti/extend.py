"""Finite models of metric extensions: add labeled outer points to a
finite sample of the line, then either close a proposed distance table
into an honest metric (detecting where it shrinks the original
distances) or extend through a basepoint hub so the original distances
survive untouched.

Each DistanceMatrix holds one integer table, made once with the matrix:
its entries times L, the common denominator of the entries (a table that
the closure or the railway construction derives keeps the scale it was
computed on). That one table serves every step after parsing: the
zero-diagonal, symmetry and positivity checks of every matrix made
(proposed, hub, closed and railway), both kernels, the axiom and the
restriction reports, and the printed cells, each ``p/q`` taken from
(v, L) with one gcd. Inner positions join it on M, a common multiple of
L and their denominators: a position times M is an int, and an entry
times M/L is the same distance on M.

Every closure entry and every triangle side is a sum of entries, a
railway entry is a line distance plus a hub entry, and a line distance
is a difference of positions. Multiplying by a scale > 0 keeps sums,
differences, signs and order, so each int comparison decides exactly
what the Fraction comparison would, and v/L is the entry itself.
Fractions are built only where the API or the text needs them: the
public ``entries``, the values of a Shrinkage or a restriction mismatch,
and the text of an error or an axiom violation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import add
from typing import Optional

from .errors import CapExceeded, InvalidMatrix, OuterMetricInvalid
from .frozen import frozen
from .scalar import Scalar, format_scalar

MAX_POINTS = 32

INNER, OUTER = "inner", "outer"


@frozen
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


class DistanceMatrix:
    """Symmetric distance table over labeled points.

    The table is held as ints: ``rows[i][j]`` is the distance times
    ``scale``. Symmetry, a zero diagonal and strict off-diagonal
    positivity are enforced on them when the matrix is made; the triangle
    inequality is not, because proposed tables are allowed to violate it
    (that is what the closure is for). ``entries``, the distances as
    Fractions, is built on first use for a matrix made from ints.
    """

    __slots__ = ("labels", "kinds", "rows", "scale", "_entries")

    def __init__(self, labels: tuple, kinds: tuple, entries: tuple):
        _check_shape(labels, kinds, entries)
        scale = lcm(*(v.denominator for row in entries for v in row))
        rows = tuple(tuple(v.numerator * (scale // v.denominator) for v in row) for row in entries)
        _fill(self, labels, kinds, rows, scale, entries)

    @classmethod
    def scaled(cls, labels: tuple, kinds: tuple, rows: tuple, scale: int) -> "DistanceMatrix":
        """The matrix with entries ``rows[i][j] / scale``, checked like one made from entries."""
        _check_shape(labels, kinds, rows)
        m = cls.__new__(cls)
        _fill(m, labels, kinds, rows, scale, None)
        return m

    @property
    def entries(self) -> tuple:
        if self._entries is None:
            s = self.scale
            self._entries = tuple(tuple(Fraction(v, s) for v in row) for row in self.rows)
        return self._entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, DistanceMatrix):
            return NotImplemented
        return (self.labels, self.kinds, self.entries) == (other.labels, other.kinds, other.entries)

    def __hash__(self) -> int:
        return hash((self.labels, self.kinds, self.entries))

    def __repr__(self) -> str:
        return f"DistanceMatrix(labels={self.labels!r}, kinds={self.kinds!r}, entries={self.entries!r})"

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InvalidMatrix(f"unknown label {label!r}") from None

    def value(self, a: str, b: str) -> Scalar:
        return self.entries[self.index(a)][self.index(b)]

    def cells(self) -> list:
        """Each entry printed as ``format_scalar`` prints it, row by row."""
        s = self.scale
        return [[_ratio(v, s) for v in row] for row in self.rows]

    def render(self) -> str:
        width = max(len(l) for l in self.labels) + 1
        head = " " * width + " ".join(f"{l:>8s}" for l in self.labels)
        rows = [head]
        for l, cells in zip(self.labels, self.cells()):
            rows.append(f"{l:<{width}s}" + " ".join(f"{c:>8s}" for c in cells))
        return "\n".join(rows)


def _check_shape(labels: tuple, kinds: tuple, table: tuple) -> None:
    n = len(labels)
    if n == 0:
        raise InvalidMatrix("empty matrix")
    if n > MAX_POINTS:
        raise CapExceeded(f"{n} points exceeds the limit of {MAX_POINTS}")
    if len(set(labels)) != n:
        raise InvalidMatrix("duplicate labels")
    if len(kinds) != n or any(k not in (INNER, OUTER) for k in kinds):
        raise InvalidMatrix("each label needs an inner/outer tag")
    if len(table) != n or any(len(row) != n for row in table):
        raise InvalidMatrix("entries must form a square matrix over the labels")


def _fill(m: DistanceMatrix, labels, kinds, rows, scale: int, entries) -> None:
    """Check the int table's diagonal, symmetry and positivity, then set
    the matrix's fields."""
    n = len(labels)
    for i, row in enumerate(rows):
        if row[i]:
            raise InvalidMatrix(f"nonzero diagonal at {labels[i]}")
        for j in range(i + 1, n):
            if row[j] != rows[j][i]:
                raise InvalidMatrix(f"asymmetric pair ({labels[i]}, {labels[j]})")
            if row[j] <= 0:
                raise InvalidMatrix(f"non-positive distance for ({labels[i]}, {labels[j]})")
    m.labels, m.kinds, m.rows, m.scale, m._entries = labels, kinds, rows, scale, entries


def _ratio(v: int, scale: int) -> str:
    """v/scale as ``format_scalar`` prints the Fraction: one gcd."""
    g = gcd(v, scale)
    return str(v // g) if g == scale else f"{v // g}/{scale // g}"


def matrix_from_pairs(labels, kinds, pairs) -> DistanceMatrix:
    """Build a DistanceMatrix from {frozenset({a, b}): value} style pairs."""
    n = len(labels)
    idx = {l: i for i, l in enumerate(labels)}
    scale = lcm(*(v.denominator for v in pairs.values()))
    grid = [[0] * n for _ in range(n)]
    for (a, b), v in pairs.items():
        i, j = idx[a], idx[b]
        grid[i][j] = grid[j][i] = v.numerator * (scale // v.denominator)
    missing = [
        (labels[i], labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if grid[i][j] == 0
    ]
    if missing:
        raise InvalidMatrix(f"missing distance for {missing[0]}")
    return DistanceMatrix.scaled(tuple(labels), tuple(kinds), tuple(map(tuple, grid)), scale)


@frozen
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
        for a, b, line, got in _line_mismatches(self.inner, self.proposed):
            raise InvalidMatrix(
                f"proposed distance for inner pair ({a}, {b}) is "
                f"{format_scalar(got)}, the line gives {format_scalar(line)}"
            )
        if self.basepoint is not None and self.basepoint not in self.inner.labels:
            raise InvalidMatrix(f"basepoint {self.basepoint!r} is not an inner label")


def _on_scale(positions: tuple, scale: int) -> tuple:
    """(ints, M): the positions times M, the lcm of ``scale`` and their denominators."""
    common = lcm(scale, *(p.denominator for p in positions))
    return [p.numerator * (common // p.denominator) for p in positions], common


def _inner_at(inner: FiniteSpace, m: DistanceMatrix) -> list:
    """(label, index in ``m``) of each inner label; the first one ``m``
    lacks raises."""
    return [(l, m.index(l)) for l in inner.labels]


def _line_mismatches(inner: FiniteSpace, m: DistanceMatrix):
    """(a, b, line distance, entry) for each inner pair, in
    ``combinations`` order, whose entry in ``m`` is not its line distance.
    Each label is looked up once, and none for a single inner label."""
    if len(inner.labels) < 2:
        return
    at = _inner_at(inner, m)
    pos, common = _on_scale(inner.positions, m.scale)
    lift, rows = common // m.scale, m.rows
    for ((a, i), p), ((b, j), q) in combinations(zip(at, pos), 2):
        line = abs(p - q)
        if rows[i][j] * lift != line:
            yield a, b, Fraction(line, common), Fraction(rows[i][j], m.scale)


# ===================================================================
# Path-infimum closure
# ===================================================================


@frozen
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


@frozen
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
    dist = [list(row) for row in m.rows]
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

    def chain(i: int, j: int) -> tuple:
        path = [i]
        while path[-1] != j:
            path.append(nxt[path[-1]][j])
        return tuple(m.labels[p] for p in path)

    # the proposed entry of an inner pair is its line distance
    shrunk = []
    for (a, i), (b, j) in combinations(_inner_at(aug.inner, m), 2):
        if dist[i][j] < m.rows[i][j]:
            shrunk.append(
                Shrinkage(
                    (a, b), Fraction(m.rows[i][j], m.scale), Fraction(dist[i][j], m.scale), chain(i, j)
                )
            )
    closed = DistanceMatrix.scaled(m.labels, m.kinds, tuple(map(tuple, dist)), m.scale)
    return ClosureResult(matrix=closed, shrinkage=tuple(shrunk))


# ===================================================================
# Railway extension
# ===================================================================


def discrete_metric(labels, kinds=None) -> DistanceMatrix:
    """All distances one; the default hub metric for the outer points."""
    n = len(labels)
    rows = tuple(tuple(int(i != j) for j in range(n)) for i in range(n))
    if kinds is None:
        kinds = tuple(OUTER for _ in labels)
    return DistanceMatrix.scaled(tuple(labels), tuple(kinds), rows, 1)


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
    # positions and hub entries on one scale M: hub entries times M/H
    ints, scale = _on_scale(aug.inner.positions, outer_metric.scale)
    position = dict(zip(aug.inner.labels, ints))
    lift = scale // outer_metric.scale
    hub = {l: dict(zip(outer_metric.labels, row))
           for l, row in zip(outer_metric.labels, outer_metric.rows)}

    def d(a: str, b: str) -> int:
        if a == b:
            return 0
        if not is_outer[a] and not is_outer[b]:
            return abs(position[a] - position[b])
        if is_outer[a] and is_outer[b]:
            return hub[a][b] * lift
        x, p = (a, b) if is_outer[b] else (b, a)
        return abs(position[x] - position[x0]) + hub[x0][p] * lift

    rows = tuple(tuple(d(a, b) for b in labels) for a in labels)
    return DistanceMatrix.scaled(labels, kinds, rows, scale)


# ===================================================================
# Axiom and restriction reports
# ===================================================================


@frozen
class AxiomViolation:
    axiom: str
    labels: tuple
    detail: str

    def render(self) -> str:
        return f"{self.axiom} fails at ({', '.join(self.labels)}): {self.detail}"


@frozen
class AxiomReport:
    passed: bool
    violations: tuple

    def render(self) -> str:
        if self.passed:
            return "metric axioms: pass"
        return "\n".join(["metric axioms: FAIL"] + ["  " + v.render() for v in self.violations])


def check_metric_axioms(m: DistanceMatrix) -> AxiomReport:
    """Verify every triangle. Non-degeneracy, positivity and symmetry hold
    already: every DistanceMatrix is checked for them when it is made."""
    bad = []
    n = len(m.labels)
    rows, scale = m.rows, m.scale
    for i in range(n):
        row_i = rows[i]
        for j in range(i + 1, n):
            # the table is symmetric, so row j is column j
            lhs, col_j = row_i[j], rows[j]
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
                            f"{_ratio(lhs, scale)} > {_ratio(row_i[k], scale)} "
                            f"+ {_ratio(col_j[k], scale)}",
                        )
                    )
    return AxiomReport(passed=not bad, violations=tuple(bad))


@frozen
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
    bad = tuple(_line_mismatches(inner, m))
    return RestrictionReport(passed=not bad, mismatches=bad)
