"""Exact answers on small finite point sets, by theorem.

Every finite subset of the line is plastic and strongly plastic. A
bijection f of an n-point set permutes its pairs, so the sum of |f(x) - f(y)|
over all pairs equals the sum of |x - y|. If f is non-expansive, no term
of the first sum exceeds its partner in the second, so equal sums force
every distance to stay the same: f is an isometry. A self-map that
contracts no pair is injective (a pair with one image is contracted to 0),
hence a bijection, and the same sums show that it expands no pair either.

An isometry of x_0 < ... < x_{n-1} onto itself keeps the diameter pair
{x_0, x_{n-1}}. Fixing x_0 makes it the identity; swapping the ends makes
it the reflection x -> x_0 + x_{n-1} - x, which maps the set onto itself
exactly when the gap sequence reads the same in both directions. So the
non-expansive bijections, the isometries and the non-contracting self-maps
are all the identity plus, for a palindromic gap sequence, the reflection.
The verdicts cover all n! bijections and all n^n self-maps, and cost O(n)
exact comparisons. Point counts stay capped as input limits.
"""

from __future__ import annotations

from typing import Sequence

from .errors import CapExceeded
from .frozen import frozen
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


def _isometries(pts: tuple) -> tuple:
    """The isometries of the sorted points onto themselves, as image tuples:
    the identity, then the reflection when the gaps are a palindrome."""
    gaps = [b - a for a, b in zip(pts, pts[1:])]
    return (pts, pts[::-1]) if gaps == gaps[::-1] else (pts,)


def nonexpansive_bijections(
    points: Sequence[Scalar], cap: int = BIJECTION_CAP
) -> tuple:
    """All bijective non-expansive self-maps, as image tuples aligned with
    the sorted input points."""
    return _isometries(_check_points(points, cap, BIJECTION_HARD_CAP, "bijection search"))


@frozen
class PlasticVerdict:
    points: tuple
    bijections: int
    isometries: int

    @property
    def plastic(self) -> bool:
        return True  # every non-expansive bijection is an isometry

    def render(self) -> str:
        return (
            f"{len(self.points)} points: {self.bijections} non-expansive bijections, "
            f"{self.isometries} isometries -> plastic"
        )


def plastic_bruteforce(points: Sequence[Scalar], cap: int = BIJECTION_CAP) -> PlasticVerdict:
    """Is every non-expansive bijection an isometry? Yes; counts them."""
    pts = _check_points(points, cap, BIJECTION_HARD_CAP, "bijection search")
    count = len(_isometries(pts))
    return PlasticVerdict(points=pts, bijections=count, isometries=count)


@frozen
class StrongPlasticVerdict:
    points: tuple
    noncontracting: int

    @property
    def strongly_plastic(self) -> bool:
        return True  # a map that contracts no pair expands none

    @property
    def total_selfmaps(self) -> int:
        """Number of self-maps the verdict covers: all of them."""
        return len(self.points) ** len(self.points)

    def render(self) -> str:
        return (
            f"{len(self.points)} points: searched all {self.total_selfmaps} self-maps, "
            f"{self.noncontracting} never contract -> strongly plastic"
        )


def strongly_plastic_bruteforce(
    points: Sequence[Scalar], cap: int = SELFMAP_CAP
) -> StrongPlasticVerdict:
    """Does every self-map that expands a pair also contract one? Yes;
    counts the self-maps that contract no pair."""
    pts = _check_points(points, cap, SELFMAP_HARD_CAP, "self-map search")
    return StrongPlasticVerdict(points=pts, noncontracting=len(_isometries(pts)))
