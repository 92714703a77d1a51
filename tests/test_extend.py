"""Distance-table extension: path closure and the basepoint construction.

The closure models the infimum over finite chains exactly (shortest path
on the proposed table); the basepoint form routes every inner-outer
distance through one hub. Expected numbers were computed by hand from
those two definitions. Validation, both kernels and both reports run on
one int table per matrix; the Fraction loops they replaced are kept below
as their reference, error texts included.
"""

import math
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from plasti.errors import CapExceeded, InvalidMatrix, OuterMetricInvalid, ParseError, PlastiError
from plasti.extend import (
    INNER,
    OUTER,
    AugmentedSpace,
    AxiomReport,
    AxiomViolation,
    DistanceMatrix,
    FiniteSpace,
    RestrictionReport,
    Shrinkage,
    check_metric_axioms,
    check_restriction,
    discrete_metric,
    matrix_from_pairs,
    path_infimum_metric,
    railway_extension,
)
from plasti.parser import parse_matrix
from plasti.scalar import format_scalar


def bridge_instance() -> AugmentedSpace:
    """Inner pair {0, 10} with an outer point one unit from each."""
    inner = FiniteSpace(("a", "b"), (F(0), F(10)))
    proposed = matrix_from_pairs(
        ("a", "b", "p"),
        (INNER, INNER, OUTER),
        {("a", "b"): F(10), ("a", "p"): F(1), ("b", "p"): F(1)},
    )
    return AugmentedSpace(inner=inner, outer=("p",), proposed=proposed, basepoint="a")


def no_shortcut_instance() -> AugmentedSpace:
    inner = FiniteSpace(("a", "b"), (F(0), F(1)))
    proposed = matrix_from_pairs(
        ("a", "b", "p"),
        (INNER, INNER, OUTER),
        {("a", "b"): F(1), ("a", "p"): F(5), ("b", "p"): F(5)},
    )
    return AugmentedSpace(inner=inner, outer=("p",), proposed=proposed, basepoint="a")


# -------------------------------------------------------------------
# Construction validation
# -------------------------------------------------------------------


def test_matrix_shape_rules():
    with pytest.raises(InvalidMatrix):
        DistanceMatrix(("a", "b"), (INNER, INNER), ((F(0), F(1)), (F(2), F(0))))
    with pytest.raises(InvalidMatrix):
        DistanceMatrix(("a", "b"), (INNER, INNER), ((F(1), F(1)), (F(1), F(0))))
    with pytest.raises(InvalidMatrix):
        DistanceMatrix(("a", "b"), (INNER, INNER), ((F(0), F(0)), (F(0), F(0))))


def test_proposed_must_match_inner_distances():
    inner = FiniteSpace(("a", "b"), (F(0), F(10)))
    proposed = matrix_from_pairs(
        ("a", "b", "p"),
        (INNER, INNER, OUTER),
        {("a", "b"): F(3), ("a", "p"): F(1), ("b", "p"): F(1)},
    )
    with pytest.raises(InvalidMatrix):
        AugmentedSpace(inner=inner, outer=("p",), proposed=proposed)


def test_basepoint_must_be_inner():
    inst = bridge_instance()
    with pytest.raises(InvalidMatrix):
        AugmentedSpace(inner=inst.inner, outer=inst.outer, proposed=inst.proposed, basepoint="p")


# -------------------------------------------------------------------
# Path closure
# -------------------------------------------------------------------


def test_bridge_shrinks_the_inner_pair():
    result = path_infimum_metric(bridge_instance())
    assert result.matrix.value("a", "b") == F(2)
    assert not result.is_extension
    (shrink,) = result.shrinkage
    assert shrink.pair == ("a", "b")
    assert (shrink.original, shrink.closed) == (F(10), F(2))
    assert shrink.chain == ("a", "p", "b")


def test_no_shortcut_leaves_the_table_alone():
    result = path_infimum_metric(no_shortcut_instance())
    assert result.is_extension
    assert result.matrix.value("a", "b") == F(1)
    assert result.matrix.value("a", "p") == F(5)
    assert check_restriction(result.matrix, no_shortcut_instance().inner).passed


def test_closure_output_satisfies_the_triangle():
    for inst in (bridge_instance(), no_shortcut_instance()):
        closed = path_infimum_metric(inst).matrix
        assert check_metric_axioms(closed).passed


def test_closure_is_idempotent():
    inst = bridge_instance()
    once = path_infimum_metric(inst).matrix
    # Re-close with a single-point inner space so no inner pair can block
    # the comparison: the table must come back unchanged.
    rewrapped = AugmentedSpace(
        inner=FiniteSpace(("a",), (F(0),)),
        outer=tuple(l for l in once.labels if l != "a"),
        proposed=DistanceMatrix(once.labels, once.kinds, once.entries),
    )
    twice = path_infimum_metric(rewrapped).matrix
    assert twice.entries == once.entries


def test_closure_never_increases_entries():
    inst = bridge_instance()
    closed = path_infimum_metric(inst).matrix
    for a in closed.labels:
        for b in closed.labels:
            assert closed.value(a, b) <= inst.proposed.value(a, b)


# -------------------------------------------------------------------
# Basepoint extension
# -------------------------------------------------------------------


def test_railway_three_cases():
    inner = FiniteSpace(("x", "y"), (F(0), F(1)))
    proposed = matrix_from_pairs(
        ("x", "y", "p"),
        (INNER, INNER, OUTER),
        {("x", "y"): F(1), ("x", "p"): F(5), ("y", "p"): F(5)},
    )
    aug = AugmentedSpace(inner=inner, outer=("p",), proposed=proposed, basepoint="x")
    hub = matrix_from_pairs(("x", "p"), (INNER, OUTER), {("x", "p"): F(5)})
    out = railway_extension(aug, hub)
    assert out.value("x", "y") == F(1)  # inner pairs keep the line distance
    assert out.value("x", "p") == F(5)  # hub pairs copy the outer metric
    assert out.value("y", "p") == F(6)  # inner-outer routes through the hub


def test_railway_default_hub_is_discrete():
    inst = bridge_instance()
    out = railway_extension(inst)
    assert out.value("a", "p") == F(1)
    assert out.value("b", "p") == F(11)
    assert check_metric_axioms(out).passed
    assert check_restriction(out, inst.inner).passed


def test_railway_two_outer_points():
    inner = FiniteSpace(("x", "y"), (F(0), F(1)))
    proposed = matrix_from_pairs(
        ("x", "y", "p", "q"),
        (INNER, INNER, OUTER, OUTER),
        {
            ("x", "y"): F(1),
            ("x", "p"): F(2),
            ("x", "q"): F(2),
            ("y", "p"): F(2),
            ("y", "q"): F(2),
            ("p", "q"): F(2),
        },
    )
    aug = AugmentedSpace(inner=inner, outer=("p", "q"), proposed=proposed, basepoint="x")
    out = railway_extension(aug)
    assert out.value("p", "q") == F(1)  # discrete hub metric
    assert out.value("y", "p") == F(1) + F(1)


def test_railway_requires_a_basepoint():
    inst = bridge_instance()
    bare = AugmentedSpace(inner=inst.inner, outer=inst.outer, proposed=inst.proposed)
    with pytest.raises(InvalidMatrix):
        railway_extension(bare)


def test_railway_rejects_a_broken_hub_metric():
    inst = bridge_instance()
    bad = DistanceMatrix(
        ("a", "p", "z"),
        (INNER, OUTER, OUTER),
        (
            (F(0), F(10), F(1)),
            (F(10), F(0), F(1)),
            (F(1), F(1), F(0)),
        ),
    )
    with pytest.raises(OuterMetricInvalid):
        railway_extension(inst, bad)
    wrong_labels = discrete_metric(("a", "q"))
    with pytest.raises(OuterMetricInvalid):
        railway_extension(inst, wrong_labels)


# -------------------------------------------------------------------
# Axiom and restriction reports
# -------------------------------------------------------------------


def test_axiom_report_names_the_bad_triple():
    m = matrix_from_pairs(
        ("a", "b", "c"),
        (OUTER, OUTER, OUTER),
        {("a", "b"): F(5), ("b", "c"): F(1), ("a", "c"): F(10)},
    )
    report = check_metric_axioms(m)
    assert not report.passed
    (violation,) = report.violations
    assert violation.axiom == "triangle"
    assert set(violation.labels) == {"a", "b", "c"}


def test_restriction_report_lists_changed_pairs():
    inst = bridge_instance()
    closed = path_infimum_metric(inst).matrix
    report = check_restriction(closed, inst.inner)
    assert not report.passed
    ((a, b, want, got),) = report.mismatches
    assert (a, b) == ("a", "b")
    assert (want, got) == (F(10), F(2))


# -------------------------------------------------------------------
# Properties
# -------------------------------------------------------------------


@st.composite
def random_augmented(draw):
    n_inner = draw(st.integers(min_value=1, max_value=4))
    n_outer = draw(st.integers(min_value=1, max_value=3))
    positions = draw(
        st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=8),
            min_size=n_inner,
            max_size=n_inner,
            unique=True,
        )
    )
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
                pairs[(a, b)] = draw(
                    st.fractions(min_value=F(1, 4), max_value=30, max_denominator=8)
                )
    proposed = matrix_from_pairs(labels, kinds, pairs)
    return AugmentedSpace(inner=inner, outer=outer_labels, proposed=proposed, basepoint=inner_labels[0])


@given(random_augmented())
def test_closure_triangle_and_monotonicity(aug):
    result = path_infimum_metric(aug)
    closed = result.matrix
    assert check_metric_axioms(closed).passed
    for a in closed.labels:
        for b in closed.labels:
            assert closed.value(a, b) <= aug.proposed.value(a, b)
    # Shrinkage reports agree with the entry comparison on inner pairs.
    shrunk = {s.pair for s in result.shrinkage}
    for i, a in enumerate(aug.inner.labels):
        for b in aug.inner.labels[i + 1 :]:
            changed = closed.value(a, b) < aug.inner.distance(a, b)
            assert ((a, b) in shrunk) == changed


@given(random_augmented())
def test_railway_output_is_always_a_metric_extension(aug):
    out = railway_extension(aug)
    assert check_metric_axioms(out).passed
    assert check_restriction(out, aug.inner).passed


# -------------------------------------------------------------------
# The scaled-int kernels against the Fraction loops they replace
# -------------------------------------------------------------------


def reference_closure(aug: AugmentedSpace) -> tuple:
    """Closed entries and shrinkage from the Fraction Floyd–Warshall and
    shrink loop that ``path_infimum_metric`` used before its int rows."""
    m = aug.proposed
    n = len(m.labels)
    dist = [list(row) for row in m.entries]
    nxt = [[j for j in range(n)] for _ in range(n)]
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            for j in range(n):
                alt = dik + dist[k][j]
                if alt < dist[i][j]:
                    dist[i][j] = alt
                    nxt[i][j] = nxt[i][k]

    def chain(i: int, j: int) -> tuple:
        path = [i]
        while path[-1] != j:
            path.append(nxt[path[-1]][j])
        return tuple(m.labels[p] for p in path)

    shrunk = []
    for a, b in combinations(aug.inner.labels, 2):
        i, j = m.index(a), m.index(b)
        original = aug.inner.distance(a, b)
        if dist[i][j] < original:
            shrunk.append(Shrinkage((a, b), original, dist[i][j], chain(i, j)))
    return tuple(tuple(r) for r in dist), tuple(shrunk)


def reference_axioms(m: DistanceMatrix) -> AxiomReport:
    """The Fraction loop ``check_metric_axioms`` used before its int rows."""
    bad = []
    n = len(m.labels)
    for i in range(n):
        if m.entries[i][i] != 0:
            bad.append(
                AxiomViolation(
                    "non-degeneracy", (m.labels[i],), f"self-distance {format_scalar(m.entries[i][i])}"
                )
            )
        for j in range(i + 1, n):
            if m.entries[i][j] != m.entries[j][i]:
                bad.append(
                    AxiomViolation(
                        "symmetry",
                        (m.labels[i], m.labels[j]),
                        f"{format_scalar(m.entries[i][j])} vs {format_scalar(m.entries[j][i])}",
                    )
                )
            if m.entries[i][j] <= 0:
                bad.append(
                    AxiomViolation(
                        "positivity", (m.labels[i], m.labels[j]), format_scalar(m.entries[i][j])
                    )
                )
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if k in (i, j):
                    continue
                lhs = m.entries[i][j]
                rhs = m.entries[i][k] + m.entries[k][j]
                if lhs > rhs:
                    bad.append(
                        AxiomViolation(
                            "triangle",
                            (m.labels[i], m.labels[k], m.labels[j]),
                            f"{format_scalar(lhs)} > {format_scalar(m.entries[i][k])} "
                            f"+ {format_scalar(m.entries[k][j])}",
                        )
                    )
    return AxiomReport(passed=not bad, violations=tuple(bad))


# Small denominators mix into common denominators up to lcm(1..60); the
# primes make L huge and every scaled entry a big int.
denominators = st.one_of(
    st.integers(min_value=1, max_value=60), st.sampled_from((10_007, 1_000_003, 2**61 - 1))
)


@st.composite
def mixed_fractions(draw, lo, hi):
    den = draw(denominators)
    return F(draw(st.integers(min_value=math.ceil(lo * den), max_value=hi * den)), den)


@st.composite
def augmented(draw, positions, outer_entries):
    """Inner labels at the drawn positions, outer labels with the drawn
    entries; inner pairs get their line distance."""
    pos = sorted(set(draw(positions)))
    n_outer = draw(st.integers(min_value=1, max_value=4))
    inner = FiniteSpace(tuple(f"i{k}" for k in range(len(pos))), tuple(pos))
    outer = tuple(f"o{k}" for k in range(n_outer))
    labels = inner.labels + outer
    pairs = {}
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            if b in inner.labels:
                pairs[(a, b)] = inner.distance(a, b)
            else:
                pairs[(a, b)] = draw(outer_entries)
    kinds = (INNER,) * len(pos) + (OUTER,) * n_outer
    proposed = matrix_from_pairs(labels, kinds, pairs)
    # shuffle the rows so inner and outer labels interleave in the table
    order = draw(st.permutations(range(len(labels))))
    proposed = DistanceMatrix(
        tuple(labels[i] for i in order),
        tuple(kinds[i] for i in order),
        tuple(tuple(proposed.entries[i][j] for j in order) for i in order),
    )
    return AugmentedSpace(inner=inner, outer=outer, proposed=proposed)


mixed_augmented = augmented(
    st.lists(mixed_fractions(-20, 20), min_size=1, max_size=5),
    mixed_fractions(F(1, 60), 30),
)
# Inner points at least 8 apart and outer entries 1 to 3: most inner pairs
# shrink, through several chains of the same length.
tied_augmented = augmented(
    st.lists(st.integers(min_value=0, max_value=6).map(lambda k: F(8 * k)), min_size=2, max_size=5),
    st.integers(min_value=1, max_value=3).map(F),
)


@st.composite
def hub_tables(draw):
    """A hub label h with short spokes; the other entries are drawn freely
    and often exceed the two spokes that join their ends, so triangles
    break."""
    n = draw(st.integers(min_value=3, max_value=7))
    labels = ("h",) + tuple(f"x{k}" for k in range(1, n))
    pairs = {}
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            pairs[(a, b)] = draw(mixed_fractions(F(1, 60), 3 if a == "h" else 10))
    return matrix_from_pairs(labels, (OUTER,) * n, pairs)


@given(st.one_of(mixed_augmented, tied_augmented))
@settings(max_examples=150)
def test_closure_equals_the_fraction_loop(aug):
    result = path_infimum_metric(aug)
    entries, shrinkage = reference_closure(aug)
    assert result.matrix.entries == entries
    assert result.shrinkage == shrinkage
    assert check_metric_axioms(result.matrix) == reference_axioms(result.matrix)


@given(st.one_of(hub_tables(), mixed_augmented.map(lambda aug: aug.proposed)))
@settings(max_examples=150)
def test_axiom_report_equals_the_fraction_loop(m):
    report = check_metric_axioms(m)
    assert report == reference_axioms(m)
    assert report.render() == reference_axioms(m).render()


# -------------------------------------------------------------------
# Validation, the railway and the restriction report against the
# Fraction code they replace
# -------------------------------------------------------------------


def reference_validate(labels: tuple, kinds: tuple, entries: tuple) -> None:
    """The Fraction checks a DistanceMatrix ran before its int table."""
    n = len(labels)
    if n == 0:
        raise InvalidMatrix("empty matrix")
    if n > 32:
        raise CapExceeded(f"{n} points exceeds the limit of 32")
    if len(set(labels)) != n:
        raise InvalidMatrix("duplicate labels")
    if len(kinds) != n or any(k not in (INNER, OUTER) for k in kinds):
        raise InvalidMatrix("each label needs an inner/outer tag")
    if len(entries) != n or any(len(row) != n for row in entries):
        raise InvalidMatrix("entries must form a square matrix over the labels")
    for i in range(n):
        if entries[i][i] != 0:
            raise InvalidMatrix(f"nonzero diagonal at {labels[i]}")
        for j in range(i + 1, n):
            if entries[i][j] != entries[j][i]:
                raise InvalidMatrix(f"asymmetric pair ({labels[i]}, {labels[j]})")
            if entries[i][j] <= 0:
                raise InvalidMatrix(f"non-positive distance for ({labels[i]}, {labels[j]})")


def reference_matrix_from_pairs(labels, kinds, pairs) -> tuple:
    """The entries ``matrix_from_pairs`` built as Fractions, validated."""
    n = len(labels)
    idx = {l: i for i, l in enumerate(labels)}
    grid = [[F(0)] * n for _ in range(n)]
    for (a, b), v in pairs.items():
        grid[idx[a]][idx[b]] = grid[idx[b]][idx[a]] = v
    missing = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n) if grid[i][j] == 0]
    if missing:
        raise InvalidMatrix(f"missing distance for {missing[0]}")
    entries = tuple(tuple(r) for r in grid)
    reference_validate(tuple(labels), tuple(kinds), entries)
    return entries


def reference_line_mismatches(inner: FiniteSpace, labels: tuple, entries: tuple) -> tuple:
    """(a, b, line distance, entry) for each inner pair whose entry differs."""
    return tuple(
        (a, b, inner.distance(a, b), entries[labels.index(a)][labels.index(b)])
        for a, b in combinations(inner.labels, 2)
        if entries[labels.index(a)][labels.index(b)] != inner.distance(a, b)
    )


def reference_inner_check(inner: FiniteSpace, labels: tuple, entries: tuple) -> None:
    """The Fraction inner-pair check of ``AugmentedSpace``."""
    for a, b, want, got in reference_line_mismatches(inner, labels, entries):
        raise InvalidMatrix(
            f"proposed distance for inner pair ({a}, {b}) is "
            f"{format_scalar(got)}, the line gives {format_scalar(want)}"
        )


def reference_railway(aug: AugmentedSpace, hub: DistanceMatrix) -> tuple:
    """The railway entries built with Fraction arithmetic, after the hub
    metric passes the Fraction axiom loop."""
    axioms = reference_axioms(hub)
    if not axioms.passed:
        raise OuterMetricInvalid(f"hub metric violates the axioms: {axioms.violations[0].render()}")
    x0 = aug.basepoint
    position = dict(zip(aug.inner.labels, aug.inner.positions))
    h = {a: dict(zip(hub.labels, row)) for a, row in zip(hub.labels, hub.entries)}

    def d(a, b):
        if a == b:
            return F(0)
        if a in position and b in position:
            return abs(position[a] - position[b])
        if a not in position and b not in position:
            return h[a][b]
        x, p = (a, b) if b not in position else (b, a)
        return abs(position[x] - position[x0]) + h[x0][p]

    labels = aug.inner.labels + aug.outer
    return tuple(tuple(d(a, b) for b in labels) for a in labels)


def outcome(make):
    """(error class, text) when ``make()`` raises, else ("ok", its value)."""
    try:
        return "ok", make()
    except PlastiError as err:
        return type(err).__name__, str(err)


# Positions on denominators that share no prime with the entries', so M,
# the common multiple of L and theirs, exceeds L.
position_dens = st.sampled_from((7, 11, 13, 49, 2**61 - 1))
entry_dens = st.sampled_from((1, 2, 3, 4, 5, 6, 10, 12, 10_007))


@st.composite
def fractions_on(draw, dens, lo, hi):
    den = draw(dens)
    return F(draw(st.integers(min_value=math.ceil(lo * den), max_value=hi * den)), den)


@st.composite
def faulty_tables(draw):
    """Labels, kinds and symmetric positive entries on mixed denominators,
    with at most one planted fault: a nonzero diagonal, an asymmetric pair
    or a non-positive pair."""
    n = draw(st.integers(min_value=1, max_value=7))
    labels = tuple(f"l{k}" for k in range(n))
    kinds = tuple(draw(st.sampled_from((INNER, OUTER))) for _ in labels)
    grid = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            grid[i][j] = grid[j][i] = draw(fractions_on(entry_dens, F(1, 12), 20))
    fault = draw(st.sampled_from(("none", "diagonal", "asymmetric", "non-positive")))
    i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2)))
    if fault == "diagonal":
        grid[i][i] = draw(fractions_on(entry_dens, -3, 3))
    elif i < j and fault == "asymmetric":
        grid[j][i] = draw(fractions_on(entry_dens, -3, 20))
    elif i < j and fault == "non-positive":
        grid[i][j] = grid[j][i] = draw(fractions_on(entry_dens, -3, 0))
    return labels, kinds, tuple(tuple(r) for r in grid)


@given(faulty_tables())
@settings(max_examples=200)
def test_matrix_validation_equals_the_fraction_checks(table):
    labels, kinds, entries = table
    want = outcome(lambda: reference_validate(labels, kinds, entries))
    got = outcome(lambda: DistanceMatrix(labels, kinds, entries))
    assert got[0] == want[0] and (got[0] == "ok" or got[1] == want[1])
    if got[0] == "ok":
        m = got[1]
        assert m.entries == entries
        assert all(F(v, m.scale) == e for row, erow in zip(m.rows, entries) for v, e in zip(row, erow))
        assert m.cells() == [[format_scalar(e) for e in row] for row in entries]
        # the same table made from ints
        assert DistanceMatrix.scaled(labels, kinds, m.rows, m.scale) == m


def test_each_validation_text_is_the_fraction_one():
    two = ("a", "b")
    for entries, text in (
        (((F(1, 3), F(1)), (F(1), F(0))), "nonzero diagonal at a"),
        (((F(0), F(1, 2)), (F(2, 4) + F(1, 7), F(0))), "asymmetric pair (a, b)"),
        (((F(0), F(-1, 5)), (F(-1, 5), F(0))), "non-positive distance for (a, b)"),
    ):
        with pytest.raises(InvalidMatrix) as err:
            DistanceMatrix(two, (INNER, OUTER), entries)
        assert str(err.value) == text
        with pytest.raises(InvalidMatrix) as ref:
            reference_validate(two, (INNER, OUTER), entries)
        assert str(ref.value) == text


@st.composite
def lifted_tables(draw, faults=True):
    """The text of a table file whose inner positions sit on denominators
    foreign to the outer entries, its parts, and, with ``faults``, at most
    one planted fault: a wrong inner entry, a zero entry (read as missing)
    or a negative one.
    """
    positions = sorted(set(draw(st.lists(fractions_on(position_dens, -20, 20), min_size=1, max_size=5))))
    n_outer = draw(st.integers(min_value=1, max_value=4))
    inner = FiniteSpace(tuple(f"i{k}" for k in range(len(positions))), tuple(positions))
    outer = tuple(f"o{k}" for k in range(n_outer))
    order = draw(st.permutations(inner.labels + outer))
    # the parser lists inner labels in file order
    listed = tuple(l for l in order if l in inner.labels)
    inner = FiniteSpace(listed, tuple(inner.position(l) for l in listed))
    pairs = {}
    for u, a in enumerate(order):
        for b in order[u + 1 :]:
            if a in inner.labels and b in inner.labels:
                pairs[(a, b)] = inner.distance(a, b)
            else:
                pairs[(a, b)] = draw(fractions_on(entry_dens, F(1, 12), 30))
    keys = sorted(pairs)
    fault = draw(st.sampled_from(("none", "inner", "zero", "negative"))) if faults else "none"
    key = keys[draw(st.integers(0, len(keys) - 1))] if keys else None
    if key is not None and fault == "inner":
        inner_keys = [k for k in keys if k[0] in inner.labels and k[1] in inner.labels]
        if inner_keys:
            k = inner_keys[draw(st.integers(0, len(inner_keys) - 1))]
            pairs[k] += draw(st.sampled_from((F(1, 7), F(-1, 14), F(1, 2), F(1))))
    elif key is not None and fault == "zero":
        pairs[key] = F(0)
    elif key is not None and fault == "negative":
        pairs[key] = -draw(fractions_on(entry_dens, F(1, 12), 5))
    basepoint = draw(st.sampled_from(inner.labels))
    head = "labels: " + " ".join(
        f"{l}=inner({format_scalar(inner.position(l))})" if l in inner.labels else f"{l}=outer" for l in order
    )
    rows = ["row: " + " ".join(format_scalar(pairs[(a, b)]) for b in order[u + 1 :]) for u, a in enumerate(order[:-1])]
    text = "\n".join([head, f"x0: {basepoint}"] + rows) + "\n"
    kinds = tuple(INNER if l in inner.labels else OUTER for l in order)
    return text, inner, outer, order, kinds, pairs, basepoint


def reference_parse(inner, order, kinds, pairs) -> tuple:
    """The entries the Fraction path accepted, or the error it raised."""
    entries = reference_matrix_from_pairs(order, kinds, pairs)
    reference_inner_check(inner, tuple(order), entries)
    return entries


@given(lifted_tables())
@settings(max_examples=200)
def test_parse_matrix_validates_like_the_fraction_path(case):
    text, inner, outer, order, kinds, pairs, basepoint = case
    want = outcome(lambda: reference_parse(inner, order, kinds, pairs))
    got = outcome(lambda: parse_matrix(text))
    if want[0] == "ok":
        assert got[0] == "ok"
        assert got[1].proposed.entries == want[1]
        assert got[1].proposed.labels == tuple(order)
    else:
        # the parser reports a table error on the labels line
        assert got == (ParseError.__name__, f"line 1, column 1: {want[1]}")


@st.composite
def hubs_for(draw, aug: AugmentedSpace):
    """A hub metric on the outer labels plus the basepoint: often the
    discrete one, else drawn entries that may break a triangle."""
    labels = tuple(sorted(set(aug.outer) | {aug.basepoint}))
    if draw(st.booleans()):
        return None
    pairs = {
        (a, b): draw(fractions_on(entry_dens, F(1, 12), 4))
        for i, a in enumerate(labels)
        for b in labels[i + 1 :]
    }
    return matrix_from_pairs(labels, tuple(INNER if l == aug.basepoint else OUTER for l in labels), pairs)


@given(st.data())
@settings(max_examples=200)
def test_railway_and_restriction_equal_the_fraction_code(data):
    text, inner, outer, order, kinds, pairs, basepoint = data.draw(lifted_tables(faults=False))
    aug = parse_matrix(text)
    hub = data.draw(hubs_for(aug))
    reference_hub = hub if hub is not None else discrete_metric(
        tuple(sorted(set(aug.outer) | {basepoint})),
        tuple(INNER if l == basepoint else OUTER for l in sorted(set(aug.outer) | {basepoint})),
    )
    want = outcome(lambda: reference_railway(aug, reference_hub))
    got = outcome(lambda: railway_extension(aug, hub))
    assert got[0] == want[0]
    if want[0] != "ok":
        assert got[1] == want[1]
        return
    out = got[1]
    assert out.entries == want[1]
    assert out.cells() == [[format_scalar(v) for v in row] for row in want[1]]
    assert check_metric_axioms(out) == reference_axioms(out)
    # the restriction report on the railway output, the closure and the
    # proposed table itself, whose scale differs from the positions'
    closed = path_infimum_metric(aug).matrix
    for m in (out, closed, aug.proposed):
        report = check_restriction(m, aug.inner)
        mismatches = reference_line_mismatches(aug.inner, m.labels, m.entries)
        reference = RestrictionReport(passed=not mismatches, mismatches=mismatches)
        assert report == reference
        assert report.render() == reference.render()
