"""The finite oracles on small point sets.

Finite subsets of the line are always plastic and strongly plastic, and
the oracles answer by that theorem: the non-expansive bijections and the
self-maps that contract no pair are exactly the identity, plus the full
reflection when the gap sequence is palindromic. What is worth testing is
that the counts are exactly right and the caps hold. Exhaustive Fraction
searches below are the reference for the closed form.
"""

import math
from fractions import Fraction as F
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from plasti.errors import CapExceeded
from plasti.oracle import (
    PlasticVerdict,
    StrongPlasticVerdict,
    nonexpansive_bijections,
    plastic_bruteforce,
    strongly_plastic_bruteforce,
)


def test_asymmetric_set_admits_identity_only():
    # Gaps 1 and 1 + 2**-60 round to the same float but differ exactly.
    for pts in ((F(0), F(1), F(3)), (F(0), F(1), 2 + F(1, 2**60))):
        verdict = plastic_bruteforce(pts)
        assert verdict.plastic
        assert verdict.bijections == 1
        assert verdict.isometries == 1
        assert strongly_plastic_bruteforce(pts).noncontracting == 1


@pytest.mark.parametrize("n", range(2, 9))
def test_equally_spaced_grid_admits_identity_and_flip(n):
    verdict = plastic_bruteforce(tuple(F(k) for k in range(n)))
    assert verdict.plastic
    assert verdict.bijections == 2
    assert verdict.isometries == 2


def test_palindromic_gaps_admit_the_reflection():
    # Gaps (1, 3, 1) read the same in both directions.
    verdict = plastic_bruteforce((F(0), F(1), F(4), F(5)))
    assert verdict.bijections == 2


def test_enumeration_lists_actual_permutations():
    maps = nonexpansive_bijections((F(0), F(1), F(2)))
    assert maps == ((F(0), F(1), F(2)), (F(2), F(1), F(0)))  # the identity first


def test_bijection_cap_is_enforced():
    eleven = tuple(F(k) for k in range(11))
    with pytest.raises(CapExceeded):
        nonexpansive_bijections(eleven)
    ten = tuple(F(k) for k in range(10))
    with pytest.raises(CapExceeded):
        nonexpansive_bijections(ten)  # above the default, below the hard limit
    assert len(nonexpansive_bijections(ten, cap=10)) == 2


@pytest.mark.parametrize(
    "pts",
    [
        (F(0), F(1)),
        (F(0), F(1), F(2)),
        (F(0), F(1), F(3)),
        (F(0), F(1), F(2), F(4)),
    ],
)
def test_strong_plasticity_small_sets(pts):
    verdict = strongly_plastic_bruteforce(pts)
    assert verdict.strongly_plastic
    assert verdict.total_selfmaps == len(pts) ** len(pts)


def test_strong_selfmap_cap():
    with pytest.raises(CapExceeded):
        strongly_plastic_bruteforce(tuple(F(k) for k in range(8)))
    verdict = strongly_plastic_bruteforce(tuple(F(k) for k in range(7)), cap=7)
    assert verdict.strongly_plastic


def test_oracle_rejects_unsorted_or_duplicate_points():
    with pytest.raises(CapExceeded):
        plastic_bruteforce((F(0), F(0), F(1)))
    with pytest.raises(CapExceeded):
        plastic_bruteforce((F(1), F(0)))


# -------------------------------------------------------------------
# Properties
# -------------------------------------------------------------------

finite_sets = st.lists(
    st.fractions(min_value=-100, max_value=100, max_denominator=10),
    min_size=2,
    max_size=6,
    unique=True,
)


@given(finite_sets)
def test_every_finite_set_is_plastic(values):
    verdict = plastic_bruteforce(tuple(sorted(values)))
    assert verdict.plastic
    assert verdict.bijections == verdict.isometries


@given(finite_sets)
@settings(max_examples=30)
def test_every_finite_set_is_strongly_plastic(values):
    verdict = strongly_plastic_bruteforce(tuple(sorted(values)))
    assert verdict.strongly_plastic


@given(finite_sets, st.fractions(min_value=-20, max_value=20, max_denominator=5))
def test_bijection_count_is_translation_invariant(values, shift):
    base = tuple(sorted(values))
    moved = tuple(v + shift for v in base)
    assert plastic_bruteforce(base).bijections == plastic_bruteforce(moved).bijections


@given(finite_sets)
def test_bijection_count_is_mirror_invariant(values):
    base = tuple(sorted(values))
    mirrored = tuple(sorted(-v for v in base))
    assert plastic_bruteforce(base).bijections == plastic_bruteforce(mirrored).bijections


# -------------------------------------------------------------------
# The closed form against exhaustive Fraction searches
# -------------------------------------------------------------------


def reference_bijections(pts: tuple) -> tuple:
    """Every non-expansive bijection, by backtracking over permutations;
    a branch dies on the first pair its prefix expands."""
    n = len(pts)
    out = []
    image = [None] * n
    used = [False] * n

    def place(i: int):
        if i == n:
            out.append(tuple(image))
            return
        for j in range(n):
            if used[j]:
                continue
            q = pts[j]
            if all(abs(q - image[k]) <= abs(pts[i] - pts[k]) for k in range(i)):
                used[j] = True
                image[i] = q
                place(i + 1)
                used[j] = False
        image[i] = None

    place(0)
    return tuple(out)


def reference_is_isometry(pts: tuple, image: tuple) -> bool:
    n = len(pts)
    return all(
        abs(image[i] - image[j]) == abs(pts[i] - pts[j]) for i in range(n) for j in range(i + 1, n)
    )


def reference_plastic(pts: tuple) -> tuple:
    """The verdict by search, and a non-expansive bijection that is not an
    isometry (None when there is none)."""
    maps = reference_bijections(pts)
    isometries = sum(1 for image in maps if reference_is_isometry(pts, image))
    witness = next((image for image in maps if not reference_is_isometry(pts, image)), None)
    return PlasticVerdict(points=pts, bijections=len(maps), isometries=isometries), witness


def reference_strong(pts: tuple) -> tuple:
    """The verdict by a search over all self-maps, pruned on the first
    contracted pair, and a map that expands a pair and contracts none
    (None when there is none)."""
    n = len(pts)
    image = [None] * n

    def place(i: int, expanded: bool):
        if i == n:
            yield tuple(image), expanded
            return
        for q in pts:
            grew = expanded
            ok = True
            for k in range(i):
                d_new = abs(q - image[k])
                d_old = abs(pts[i] - pts[k])
                if d_new < d_old:
                    ok = False
                    break
                if d_new > d_old:
                    grew = True
            if ok:
                image[i] = q
                yield from place(i + 1, grew)
        image[i] = None

    count = 0
    witness = None
    for found, expanded in place(0, False):
        count += 1
        if expanded and witness is None:
            witness = found
    return StrongPlasticVerdict(points=pts, noncontracting=count), witness


# Small denominators mix into common denominators up to lcm(1..60); the
# primes make the common denominator huge.
denominators = st.one_of(
    st.integers(min_value=1, max_value=60), st.sampled_from((10_007, 1_000_003, 2**61 - 1))
)


@st.composite
def mixed_fractions(draw, lo, hi):
    den = draw(denominators)
    return F(draw(st.integers(min_value=math.ceil(lo * den), max_value=hi * den)), den)


@st.composite
def point_sets(draw, max_size):
    """Sorted points from a start at or below zero; the gap sequence is a
    palindrome half the time, so the reflection is a bijection too."""
    n = draw(st.integers(min_value=2, max_value=max_size))
    start = draw(mixed_fractions(-50, 0))
    gap = mixed_fractions(F(1, 60), 10)
    if draw(st.booleans()):
        half = draw(st.lists(gap, min_size=(n - 1) // 2, max_size=(n - 1) // 2))
        gaps = half + ([draw(gap)] if (n - 1) % 2 else []) + half[::-1]
    else:
        gaps = draw(st.lists(gap, min_size=n - 1, max_size=n - 1))
    return tuple(accumulate(gaps, initial=start))


@given(point_sets(8))
@settings(max_examples=100)
def test_bijection_search_equals_the_fraction_search(pts):
    assert nonexpansive_bijections(pts) == reference_bijections(pts)
    verdict, witness = reference_plastic(pts)
    assert witness is None
    assert plastic_bruteforce(pts) == verdict


@given(point_sets(6))
@settings(max_examples=50)
def test_selfmap_search_equals_the_fraction_search(pts):
    verdict, witness = reference_strong(pts)
    assert witness is None
    assert strongly_plastic_bruteforce(pts) == verdict
