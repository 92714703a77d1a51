"""Acceptance gate: ten criteria, one test and one pass/fail line each.

Each test re-derives its expected values independently of the module it
exercises (full enumerations, hand-computed constants, committed bytes)
so a pass certifies behaviour, not self-agreement.
"""

import itertools
from fractions import Fraction as F
from pathlib import Path

from plasti.classify import classify, run_falsifications, verify_witness
from plasti.extend import (
    INNER,
    OUTER,
    AugmentedSpace,
    DistanceMatrix,
    FiniteSpace,
    check_metric_axioms,
    check_restriction,
    matrix_from_pairs,
    path_infimum_metric,
    railway_extension,
)
from plasti.gallery import GALLERY_IDS, gallery_entry, verify_entry
from plasti.maps import (
    MapDescription,
    Table,
    check_bijection,
    check_nonexpansive,
    eval_map,
)
from plasti.oracle import (
    nonexpansive_bijections,
    plastic_bruteforce,
    strongly_plastic_bruteforce,
)
from plasti.parser import parse_map, parse_space
from plasti.plot import build_plot, render_svg
from plasti.space import (
    DEFAULT_CAP,
    ArithmeticProgression,
    FinitePoints,
    GapSequence,
    AffineGaps,
    Interval,
    IntervalList,
    SubspaceDescription,
    Window,
    accumulation_points,
    ball_census,
    hull,
    materialize,
)


GOLDEN = Path(__file__).parent / "golden"
TEN = Window(F(-10), F(10))


def table_map(points, images) -> MapDescription:
    return MapDescription(clauses=(Table(tuple(zip(points, images))),))


def test_ac01_relocated_minimum_example_verifies():
    report = verify_entry(gallery_entry("example1"))
    failures = [r.render() for r in report.results if not r.passed]
    assert report.passed, "\n".join(failures)


def test_ac02_two_halfline_junction_example_verifies():
    report = verify_entry(gallery_entry("example2"))
    failures = [r.render() for r in report.results if not r.passed]
    assert report.passed, "\n".join(failures)


def test_ac03_random_finite_sets_are_plastic(rng):
    def draw_set():
        n = rng.randint(2, 7)
        values = set()
        while len(values) < n:
            v = F(rng.randint(-800, 800), rng.randint(1, 8))
            if abs(v) <= 100:
                values.add(v)
        return tuple(sorted(values))

    for _ in range(200):
        verdict = plastic_bruteforce(draw_set())
        assert verdict.plastic, f"not plastic on {verdict.points}"

    for n in range(2, 9):
        grid = plastic_bruteforce(tuple(F(k) for k in range(n)))
        assert grid.bijections == 2, f"grid n={n} gave {grid.bijections}"

    assert plastic_bruteforce((F(0), F(1), F(3))).bijections == 1


def test_ac04_strong_plasticity_by_full_enumeration():
    for pts in ((F(0), F(1)), (F(0), F(1), F(2)), (F(0), F(1), F(3)), (F(0), F(1), F(2), F(4))):
        verdict = strongly_plastic_bruteforce(pts)
        assert verdict.strongly_plastic
        n = len(pts)
        assert verdict.total_selfmaps == n**n
        # Independent unpruned sweep over all n^n self-maps.
        total = 0
        for choice in itertools.product(range(n), repeat=n):
            total += 1
            image = [pts[j] for j in choice]
            pairs = [
                (abs(image[i] - image[j]), abs(pts[i] - pts[j]))
                for i in range(n)
                for j in range(i + 1, n)
            ]
            expands = any(img > orig for img, orig in pairs)
            contracts = any(img < orig for img, orig in pairs)
            assert not (expands and not contracts), f"counterexample {image} on {pts}"
        assert total == n**n


def test_ac05_classifier_soundness_on_the_gallery():
    for entry_id in ("prop31", "prop313", "rem316-halfopen", "rem317-mixed"):
        space = gallery_entry(entry_id).space
        verdict = classify(space, TEN)
        assert verdict.outcome == "not-plastic", entry_id
        bundle = verify_witness(space, verdict.witness, TEN)
        endo, nonexp, bij, iso = bundle.reports
        assert endo.passed and nonexp.passed and bij.passed, entry_id
        assert not iso.passed, entry_id
        assert bundle.valid, entry_id

    positives = [gallery_entry(i).space for i in ("integers", "r-minus-z", "prop314-open")]
    positives.append(
        SubspaceDescription(components=(ArithmeticProgression(F(0), F(1), "right"),))
    )
    for space in positives:
        attempts = run_falsifications(space, TEN)
        assert attempts
        survivors = [a.name for a in attempts if a.survived]
        assert not survivors, survivors


def test_ac06_nonexpansive_maps_never_shrink_ball_counts(rng):
    qualified = []
    for entry_id in GALLERY_IDS:
        entry = gallery_entry(entry_id)
        if not entry.space.discrete:
            continue  # ball counts are only exact over countable members
        for name, _ in entry.maps:
            desc = entry.map_named(name)
            if not check_nonexpansive(desc, entry.space, entry.window, DEFAULT_CAP).passed:
                continue
            if not check_bijection(desc, entry.space, entry.window, DEFAULT_CAP).passed:
                continue
            qualified.append((entry, desc, f"{entry_id}:{name}"))
    assert qualified, "no verified non-expansive injective gallery map found"

    radii = (F(1, 4), F(1, 2), F(3, 4), F(1), F(3, 2), F(2))
    for entry, desc, label in qualified:
        window = entry.window
        members = materialize(entry.space, entry.window, DEFAULT_CAP).points
        accum = accumulation_points(entry.space)

        def span_ok(center, radius):
            if not (window.lo <= center - radius and center + radius <= window.hi):
                return False
            return all(abs(center - a) > radius for a in accum)

        # Every (member, radius) pair whose two closed ball spans stay
        # inside the window and clear of accumulation pileups.
        pool = []
        for center in members:
            usable = [r for r in radii if span_ok(center, r)]
            if not usable:
                continue
            image_center = eval_map(desc, entry.space, center, DEFAULT_CAP)
            pool.extend(
                (center, image_center, r) for r in usable if span_ok(image_center, r)
            )
        assert pool, f"{label}: no census-safe pair exists"

        counted = {}

        def census(center, radius):
            key = (center, radius)
            if key not in counted:
                counted[key] = ball_census(entry.space, center, radius, window, DEFAULT_CAP)
            return counted[key]

        for _ in range(50):
            center, image_center, radius = pool[rng.randrange(len(pool))]
            before = census(center, radius)
            after = census(image_center, radius)
            assert before <= after, (
                f"{label}: census({center}, {radius}) = {before} "
                f"> census({image_center}, {radius}) = {after}"
            )


def test_ac07_extension_suite(rng):
    # The bridge instance: chain through the outer point shrinks 0-10 to 2.
    inner = FiniteSpace(("0", "10"), (F(0), F(10)))
    proposed = matrix_from_pairs(
        ("0", "10", "p"),
        (INNER, INNER, OUTER),
        {("0", "10"): F(10), ("0", "p"): F(1), ("10", "p"): F(1)},
    )
    bridge = AugmentedSpace(inner=inner, outer=("p",), proposed=proposed, basepoint="0")
    result = path_infimum_metric(bridge)
    assert result.matrix.value("0", "10") == F(2)
    (shrink,) = result.shrinkage
    assert shrink.chain == ("0", "p", "10")

    def reclose(matrix):
        anchor = matrix.labels[0]
        rewrapped = AugmentedSpace(
            inner=FiniteSpace((anchor,), (F(0),)),
            outer=tuple(l for l in matrix.labels if l != anchor),
            proposed=DistanceMatrix(matrix.labels, matrix.kinds, matrix.entries),
        )
        return path_infimum_metric(rewrapped).matrix

    assert reclose(result.matrix).entries == result.matrix.entries

    for trial in range(20):
        n_inner = rng.randint(1, 6)
        n_outer = rng.randint(1, 12 - n_inner)
        positions = set()
        while len(positions) < n_inner:
            positions.add(F(rng.randint(-40, 40), rng.randint(1, 4)))
        inner_labels = tuple(f"i{k}" for k in range(n_inner))
        outer_labels = tuple(f"o{k}" for k in range(n_outer))
        inner = FiniteSpace(inner_labels, tuple(sorted(positions)))
        labels = inner_labels + outer_labels
        kinds = (INNER,) * n_inner + (OUTER,) * n_outer
        pairs = {}
        for i, a in enumerate(labels):
            for b in labels[i + 1 :]:
                if a in inner_labels and b in inner_labels:
                    pairs[(a, b)] = inner.distance(a, b)
                else:
                    pairs[(a, b)] = F(rng.randint(1, 120), rng.randint(1, 4))
        aug = AugmentedSpace(
            inner=inner, outer=outer_labels, proposed=matrix_from_pairs(labels, kinds, pairs),
            basepoint=inner_labels[0],
        )
        extended = railway_extension(aug)
        assert check_metric_axioms(extended).passed, f"trial {trial}"
        assert check_restriction(extended, inner).passed, f"trial {trial}"
        closed = path_infimum_metric(aug).matrix
        assert reclose(closed).entries == closed.entries, f"trial {trial}"


def test_ac08_hull_frozen_cases_and_membership(rng):
    three = SubspaceDescription(components=(FinitePoints((F(0), F(1), F(3))),))
    assert str(hull(three)) == "[0,3]"

    two_open = SubspaceDescription(
        components=(
            IntervalList((Interval.open(F(0), F(1)), Interval.open(F(2), F(3)))),
        )
    )
    assert str(hull(two_open)) == "(0,3)"

    naturals = SubspaceDescription(
        components=(ArithmeticProgression(F(0), F(1), "right"),)
    )
    assert str(hull(naturals)) == "[0,+inf)"

    def draw_space():
        kind = rng.randrange(4)
        if kind == 0:
            values = set()
            while len(values) < rng.randint(1, 6):
                values.add(F(rng.randint(-50, 50), rng.randint(1, 4)))
            return SubspaceDescription(components=(FinitePoints(tuple(sorted(values))),))
        if kind == 1:
            direction = ("left", "right", "both")[rng.randrange(3)]
            return SubspaceDescription(
                components=(
                    ArithmeticProgression(
                        F(rng.randint(-8, 8)), F(rng.randint(1, 6), 2), direction
                    ),
                )
            )
        if kind == 2:
            slope = F(rng.randint(0, 2))
            offset = F(rng.randint(1, 4), 2)
            return SubspaceDescription(
                components=(
                    GapSequence(F(rng.randint(-5, 5)), right=AffineGaps(slope, offset)),
                )
            )
        lo = F(rng.randint(-20, 10), 2)
        hi = lo + F(rng.randint(1, 12), 2)
        styles = (Interval.open, Interval.closed, Interval.left_closed, Interval.right_closed)
        return SubspaceDescription(
            components=(IntervalList((styles[rng.randrange(4)](lo, hi),)),)
        )

    wide = Window(F(-120), F(120))
    for _ in range(100):
        space = draw_space()
        envelope = hull(space)
        mat = materialize(space, wide)
        for p in mat.points:
            assert envelope.contains(p), f"{p} outside {envelope}"
        for fragment in mat.fragments:
            iv = fragment.interval
            mid = (iv.lo.value + iv.hi.value) / 2
            assert envelope.contains(mid)
            if iv.lo.closed:
                assert envelope.contains(iv.lo.value)
            if iv.hi.closed:
                assert envelope.contains(iv.hi.value)


def test_ac09_plots_match_committed_goldens_and_flag_the_glue_jump():
    integers = parse_space(
        "arith: anchor=0 step=1 dir=both\n"
        "meta: bounded-below=unbounded\n"
        "meta: bounded-above=unbounded\n"
    )
    identity = parse_map("piece: dom=(-inf,+inf) slope=1 icpt=0\n")
    fig1 = render_svg(build_plot(integers, Window(F(-3), F(3)), identity))
    assert fig1 == (GOLDEN / "fig1.svg").read_text()

    entry = gallery_entry("rem316-halfopen")
    verdict = classify(entry.space, TEN)
    data = build_plot(entry.space, TEN, verdict.witness)
    fig3 = render_svg(data)
    assert fig3 == (GOLDEN / "fig3.svg").read_text()

    # The glued-tile graph must show a structural discontinuity: adjacent
    # segments whose image gap exceeds what the left slope carries.
    assert data.jumps
    jump = data.jumps[0]
    assert jump.image_gap > jump.carried
    assert (jump.left.x_hi, jump.right.x_lo) == (F(3), F(4))


def test_ac10_oracle_and_map_checker_agree_on_permutations():
    catalog = (
        (F(0), F(1)),
        (F(0), F(1), F(3)),
        (F(0), F(1), F(2)),
        (F(0), F(1), F(4), F(5)),
        (F(0), F(2), F(3), F(7), F(9)),
        (F(0), F(1), F(2), F(3), F(4), F(5)),
        (F(0), F(1), F(3), F(6), F(10), F(12)),
    )
    for pts in catalog:
        space = SubspaceDescription(components=(FinitePoints(pts),))
        window = Window(min(pts) - 1, max(pts) + 1)
        emitted = set(nonexpansive_bijections(pts))
        for perm in itertools.permutations(pts):
            desc = table_map(pts, perm)
            passed = check_nonexpansive(desc, space, window).passed
            assert passed == (perm in emitted), f"{perm} on {pts}"
