"""Exhaustive ground truth on small finite point sets.

Everything here enumerates maps outright, so results are exact and serve
as the reference the symbolic machinery is tested against. Point counts
are capped: bijection search backtracks over permutations, the
expansion-witness search over all self-maps prunes on the first
contracted pair (a would-be witness must contract nothing).

Both searches place point indices and compare cells of one int table,
|p_i - p_j| * L with L the common denominator of the points. Every test
in them compares two distances, and multiplying both by L > 0 keeps their
order, so the table decides exactly what Fraction arithmetic would. Index
tuples become tuples of the input points only at the leaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Iterator, Optional, Sequence

from .errors import CapExceeded
from .scalar import Scalar

BIJECTION_CAP = 8
BIJECTION_HARD_CAP = 10
SELFMAP_CAP = 6
SELFMAP_HARD_CAP = 7


def _check_points(points: Sequence[Scalar], cap: int, hard: int, what: str) -> tuple:
    pts = tuple(points)
    if len(pts) < 2:
        raise CapExceeded(f"{what} needs at least two points")
    if any(a >= b for a, b in zip(pts, pts[1:])):
        raise CapExceeded(f"{what} needs strictly increasing points")
    limit = min(cap, hard)
    if len(pts) > limit:
        raise CapExceeded(
            f"{what} on {len(pts)} points exceeds the cap of {limit} (hard limit {hard})"
        )
    return pts


def _distances(pts: tuple) -> list:
    """Rows of the int table |p_i - p_j| * L, L the common denominator."""
    scale = lcm(*(p.denominator for p in pts))
    ints = [p.numerator * (scale // p.denominator) for p in pts]
    return [[abs(a - b) for b in ints] for a in ints]


def _bijections(d: list) -> list:
    """Index tuples s, i -> s[i], of the non-expansive bijections of the
    table ``d``, in the order the backtracking search places them."""
    n = len(d)
    out = []
    image = [0] * n
    used = [False] * n

    def place(i: int):
        if i == n:
            out.append(tuple(image))
            return
        row_i = d[i]
        for j in range(n):
            if used[j]:
                continue
            row_j = d[j]
            for k in range(i):
                if row_j[image[k]] > row_i[k]:
                    break
            else:
                used[j] = True
                image[i] = j
                place(i + 1)
                used[j] = False

    place(0)
    return out


def nonexpansive_bijections(
    points: Sequence[Scalar], cap: int = BIJECTION_CAP
) -> tuple:
    """All bijective non-expansive self-maps, as image tuples aligned with
    the sorted input points."""
    pts = _check_points(points, cap, BIJECTION_HARD_CAP, "bijection search")
    return tuple(tuple(pts[j] for j in s) for s in _bijections(_distances(pts)))


def _is_isometry(d: list, s: tuple) -> bool:
    return all([d[a][b] for b in s] == d[i] for i, a in enumerate(s))


@dataclass(frozen=True)
class PlasticVerdict:
    points: tuple
    bijections: int
    isometries: int
    plastic: bool
    witness: Optional[tuple] = None  # a non-expansive bijection that is not an isometry

    def render(self) -> str:
        head = (
            f"{len(self.points)} points: {self.bijections} non-expansive bijections, "
            f"{self.isometries} isometries -> {'plastic' if self.plastic else 'NOT plastic'}"
        )
        if self.witness is not None:
            head += f"\n  witness images: {self.witness}"
        return head


def plastic_bruteforce(points: Sequence[Scalar], cap: int = BIJECTION_CAP) -> PlasticVerdict:
    """Is every non-expansive bijection an isometry? Enumerated exactly."""
    pts = _check_points(points, cap, BIJECTION_HARD_CAP, "bijection search")
    d = _distances(pts)
    maps = _bijections(d)
    bent = [s for s in maps if not _is_isometry(d, s)]
    return PlasticVerdict(
        points=pts,
        bijections=len(maps),
        isometries=len(maps) - len(bent),
        plastic=not bent,
        witness=tuple(pts[j] for j in bent[0]) if bent else None,
    )


def _noncontracting_maps(d: list) -> Iterator[tuple]:
    """All self-maps of the table ``d`` that contract no pair, as index
    tuples with an expansion flag.

    Yields (image, expanded). Pruning: a prefix that already contracts a
    pair can never become a witness, so the branch dies immediately.
    """
    n = len(d)
    image = [0] * n

    def place(i: int, expanded: bool):
        if i == n:
            yield tuple(image), expanded
            return
        row_i = d[i]
        for j in range(n):
            row_j = d[j]
            grew = expanded
            for k in range(i):
                d_new = row_j[image[k]]
                d_old = row_i[k]
                if d_new < d_old:
                    break
                if d_new > d_old:
                    grew = True
            else:
                image[i] = j
                yield from place(i + 1, grew)

    yield from place(0, False)


@dataclass(frozen=True)
class StrongPlasticVerdict:
    points: tuple
    noncontracting: int
    strongly_plastic: bool
    witness: Optional[tuple] = None  # a map expanding a pair and contracting none

    @property
    def total_selfmaps(self) -> int:
        """Size of the covered search space (branches pruned on a
        contracted pair are contraction-free-map free by construction)."""
        return len(self.points) ** len(self.points)

    def render(self) -> str:
        head = (
            f"{len(self.points)} points: searched all {self.total_selfmaps} self-maps, "
            f"{self.noncontracting} never contract -> "
            f"{'strongly plastic' if self.strongly_plastic else 'NOT strongly plastic'}"
        )
        if self.witness is not None:
            head += f"\n  witness images: {self.witness}"
        return head


def strongly_plastic_bruteforce(
    points: Sequence[Scalar], cap: int = SELFMAP_CAP
) -> StrongPlasticVerdict:
    """Does every self-map that expands a pair also contract one?

    Searches all self-maps (not just bijections); a counterexample is a
    map that expands somewhere yet contracts nowhere.
    """
    pts = _check_points(points, cap, SELFMAP_HARD_CAP, "self-map search")
    count = 0
    witness = None
    for image, expanded in _noncontracting_maps(_distances(pts)):
        count += 1
        if expanded and witness is None:
            witness = tuple(pts[j] for j in image)
    return StrongPlasticVerdict(
        points=pts,
        noncontracting=count,
        strongly_plastic=witness is None,
        witness=witness,
    )
