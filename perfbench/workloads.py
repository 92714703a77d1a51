"""Seeded job lists for the three workloads, each with its reference answer.

``build(workload, seed, directory)`` writes every input file a job reads
into ``directory``, writes the job list to ``jobs.json`` there, and returns
it. The same seed writes the same bytes. A job is one plasti CLI call:

    {"id": ..., "argv": [...], "expect": {...}, "defect": null | "stride" | "triples" | "spans"}

``expect`` holds the answer the benchmark computed itself (see
``reference``). ``defect`` is set only on the jobs planted in
``_planted_defects`` to reach one of three sampling gaps in plasti's
window checks: pair checks keep every k-th member past 600 ("stride"),
the betweenness check stops after 20,000 triples ("triples"), and on
interval spaces the bijection check round-trips only cut points
("spans"). ``verdict(job, rc, out, err)`` compares one call's result with
its expectation; ``known_defect`` tells whether a wrong one is the false
pass such a job was planted for.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from reference import (
    F,
    Arith,
    DiscreteSpace,
    GapSeq,
    HalfLine,
    IntervalSpace,
    IntervalUnion,
    Ivl,
    Map,
    Periodic,
    Points,
    Rule,
    Shift,
    affine,
    discrete_truth,
    fmt,
    identity_except,
    interval_truth,
    isometry_count,
    shortest_paths,
    table_except,
)

WORKLOADS = ("gallery", "windows", "finite")
CHECKS = ("endo", "nonexpansive", "bijection", "isometry", "between", "lipschitz")
PAIR_SAMPLE_CAP = 600  # plasti checks every k-th member past this many
TRIPLE_CAP = 20_000  # plasti's betweenness check stops after this many triples

HERE = Path(__file__).resolve().parent


def build(workload: str, seed: int, directory: Path) -> list:
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    files = _Files(directory)
    jobs = {"gallery": _gallery, "windows": _windows, "finite": _finite}[workload](rng, files)
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job["id"] = f"{workload[0]}{i:03d}-{job['id']}"
    (directory / "jobs.json").write_text(json.dumps(jobs, indent=1, sort_keys=True) + "\n")
    return jobs


class _Files:
    def __init__(self, directory: Path):
        self.directory, self.count = directory, 0

    def write(self, suffix: str, text: str) -> str:
        self.count += 1
        name = f"in{self.count:04d}.{suffix}"
        (self.directory / name).write_text(text)
        return name


def _job(tag, argv, expect, defect=None) -> dict:
    return {"id": tag, "argv": argv + ["--json"], "expect": expect, "defect": defect}


# ===================================================================
# gallery: every curated entry, verified through the CLI
# ===================================================================


def _gallery(rng, files) -> list:
    expected = json.loads((HERE / "gallery_expectations.json").read_text())
    return [
        _job(entry, ["gallery", entry, "--verify"], {"kind": "gallery", "names": names})
        for entry, names in sorted(expected.items())
    ]


# ===================================================================
# windows: map checks and classification on generated descriptions
# ===================================================================


def _rat(rng, lo, hi, dens=(1, 2, 3, 4)) -> Fraction:
    den = rng.choice(dens)
    return F(rng.randint(lo * den, hi * den), den)


class _Discrete:
    """A discrete space plus what the map constructors need to know about it."""

    def __init__(self, kind, space, center=None, finite=False):
        self.kind, self.space, self.center, self.finite = kind, space, center, finite

    def pool(self, n: int) -> list:
        """At least n consecutive members, away from any accumulation value."""
        comp = self.space.components
        if self.finite:
            return self.space.members(-(10**9), 10**9)
        if self.kind == "gap-recipdiff":
            seq, m = comp[0], n // 2
            right = seq.right.partial_sums(seq.right.total() - 1 / (m + seq.right.params[0] + 1))
            left = [seq.anchor - k * seq.left.params[0] for k in range(n - m, 0, -1)]
            return left + [seq.anchor] + [seq.anchor + s for s in right]
        origin, reach = comp[0].anchor, F(4)
        while True:
            out = self.space.members(origin - reach, origin + reach)
            if len(out) >= n + 4:
                return out
            reach *= 2


def _discrete_space(rng, kind: str, n: int) -> _Discrete:
    a = _rat(rng, -20, 20)
    if kind in ("grid-both", "grid-right"):
        step = rng.choice([F(1), F(2), F(1, 2), F(3, 4), F(5, 3)])
        direction = "both" if kind == "grid-both" else "right"
        center = a + rng.randint(-4, 4) * step / 2 if direction == "both" else None
        return _Discrete(kind, DiscreteSpace([Arith(a, step, direction)]), center)
    if kind == "junction":
        small = rng.choice([F(1), F(1, 2), F(2, 3)])
        big = small * rng.choice([2, 3, F(3, 2)])
        join = rng.choice([small, big, (small + big) / 2])
        return _Discrete(kind, DiscreteSpace([Arith(a, small, "left"), Arith(a + join, big, "right")]))
    if kind == "points":
        if rng.random() < 0.5:
            half = sorted(rng.sample(range(1, 4 * n), n // 2))
            values = [a - h for h in half] + [a + h for h in half] + ([a] if n % 2 else [])
            return _Discrete(kind, DiscreteSpace([Points(values)]), a, finite=True)
        values = sorted(rng.sample(range(0, 6 * n), n))
        return _Discrete(kind, DiscreteSpace([Points([a + F(v, 2) for v in values])]), finite=True)
    if kind == "gap-const-affine":
        c = _rat(rng, 1, 3)
        rule = Rule("affine", _rat(rng, 1, 2, (1, 2)), _rat(rng, 0, 2))
        return _Discrete(kind, DiscreteSpace([GapSeq(a, Rule("const", c), rule)]))
    if kind == "gap-alt":
        coeff = rng.choice([10, 30, 100, 300, 1000, 3000, 10000])
        rule = Rule("alt", Rule("affine", F(1), F(0)), Rule("const", F(coeff)))
        return _Discrete(kind, DiscreteSpace([GapSeq(a, rule, rule)]), a)
    if kind == "gap-explicit":
        left = Rule("explicit", *[_rat(rng, 1, 3) for _ in range(n // 2)])
        right = Rule("explicit", *[_rat(rng, 1, 3) for _ in range(n - n // 2 - 1)])
        return _Discrete(kind, DiscreteSpace([GapSeq(a, left, right)]), finite=True)
    if kind == "gap-recip":
        s = rng.randint(0, 3)
        rule = Rule("recip", F(s))
        return _Discrete(kind, DiscreteSpace([GapSeq(a, rule, rule)]), a)
    if kind == "gap-recipdiff":
        left = Rule("const", _rat(rng, 1, 2))
        right = Rule("recipdiff", F(rng.randint(1, 5)))
        return _Discrete(kind, DiscreteSpace([GapSeq(a, left, right)]))
    raise ValueError(kind)


# Map families on discrete spaces. Each family gives a Map whose
# clauses cover the whole line, so every member has exactly one clause.
GLOBAL_MAPS = ("identity", "translate", "reflect", "scale2", "half", "flat", "wrong-inverse")
LOCAL_MAPS = ("swap-table", "swap-point", "reloc-table", "reloc-point")


def _translate(t):
    return Map([affine(1, t)], Map([affine(1, -t)]))


def _discrete_map(rng, family: str, d: _Discrete, xs: list) -> Map:
    ident = Map([affine(1, 0)])
    i = rng.randrange(1, len(xs) - 2) if len(xs) > 3 else 0
    if family == "identity":
        return Map([affine(1, 0)], ident)
    if family == "translate":
        return _translate(xs[i + 1] - xs[i])
    if family == "wrong-inverse":
        t = xs[i + 1] - xs[i]
        return Map([affine(1, t)], Map([affine(1, t)]))
    if family == "reflect":
        c = d.center if d.center is not None else (xs[i] + xs[i + 1]) / 2
        return Map([affine(-1, 2 * c)], Map([affine(-1, 2 * c)]))
    if family == "scale2":
        c = xs[i]
        return Map([affine(2, -c)], Map([affine(F(1, 2), c / 2)]))
    if family == "half":
        c = xs[i]
        return Map([affine(F(1, 2), c / 2)], Map([affine(2, -c)]))
    if family == "flat":
        return Map([affine(0, xs[i])], ident)
    if family == "shift":
        k = rng.choice([-1, 1])
        return Map([Shift(k)], Map([Shift(-k)]))
    if family in ("swap-table", "swap-point"):
        u, v = xs[i], xs[i + 1]
        build = table_except if family == "swap-table" else identity_except
        return Map(build({u: v, v: u}), Map(build({u: v, v: u})))
    if family in ("reloc-table", "reloc-point"):
        j = rng.choice([k for k in range(len(xs)) if k != i])
        build = table_except if family == "reloc-table" else identity_except
        return Map(build({xs[i]: xs[j]}), ident)
    if family == "permute":  # finite spaces only: no inverse, the image is compared
        picked = sorted(rng.sample(range(len(xs)), 3))
        images = [xs[picked[1]], xs[picked[2]], xs[picked[0]]]
        return Map(table_except(dict(zip((xs[p] for p in picked), images))))
    raise ValueError(family)


def _window_text(lo, hi) -> str:
    return f"--window={fmt(lo)}..{fmt(hi)}"


def _check_job(files, tag, d_or_space, fmap, check, lo, hi, truth, defect=None):
    space = d_or_space.space if isinstance(d_or_space, _Discrete) else d_or_space
    argv = ["check", "--space", files.write("sp", space.text()), "--map", files.write("mp", fmap.text()),
            "--which", check, _window_text(lo, hi)]
    if check == "lipschitz":
        expect = {"kind": "lipschitz", "bound": truth}
    else:
        expect = {"kind": "check", "which": check, "passed": truth}
    return _job(tag, argv, expect, defect)


def _discrete_job(rng, files, kind, check, family, n, tag):
    d = _discrete_space(rng, kind, n)
    pool = d.pool(n)
    if d.finite:
        xs = pool
        lo, hi = xs[0] - 1, xs[-1] + 1
    else:
        start = rng.randrange(0, len(pool) - n + 1)
        xs = pool[start : start + n]
        lo, hi = xs[0], xs[-1]
    fmap = _discrete_map(rng, family, d, xs)
    truth = discrete_truth(check, d.space, fmap, lo, hi)
    return _check_job(files, f"{tag}-{kind}-{family}-{check}", d, fmap, check, lo, hi, truth)


def _maps_for(kind: str, check: str, local_ok: bool) -> list:
    fams = list(GLOBAL_MAPS) + (list(LOCAL_MAPS) if local_ok else [])
    if kind in TWO_WAY_KINDS:  # every member has neighbours on both sides
        fams.append("shift")
    if kind == "points" and check == "bijection":
        fams.append("permute")
    if kind == "gap-recip":  # harmonic sums: keep images near the window
        fams.remove("scale2")
    if check != "bijection":
        fams.remove("wrong-inverse")
    return fams


DISCRETE_KINDS = ("grid-both", "grid-right", "junction", "points", "gap-const-affine",
                  "gap-alt", "gap-explicit", "gap-recip", "gap-recipdiff")
MEDIUM_KINDS = ("grid-both", "grid-right", "junction", "gap-const-affine", "gap-alt")
TWO_WAY_KINDS = ("grid-both", "junction", "gap-const-affine", "gap-alt", "gap-recip")


def _windows(rng, files) -> list:
    jobs = []
    # Small windows (up to 48 members): every map family, exact everywhere.
    for kind in DISCRETE_KINDS * 2:
        for check in CHECKS:
            n = rng.randint(8, 48) if kind != "gap-recip" else rng.randint(8, 30)
            family = rng.choice(_maps_for(kind, check, local_ok=True))
            jobs.append(_discrete_job(rng, files, kind, check, family, n, "small"))
    # Medium windows (60-300 members): below the pair cap; local changes
    # stay out of betweenness jobs, whose triples are capped at this size.
    # Size and map family are fixed per slot, so every seed does about the
    # same work here.
    sizes = [60, 90, 130, 190, 260, 300]
    for rot, kind in enumerate(MEDIUM_KINDS):
        for k, (check, n) in enumerate(zip(CHECKS, sizes[rot:] + sizes[:rot])):
            families = _maps_for(kind, check, local_ok=check != "between")
            family = families[(5 * rot + 3 * k) % len(families)]
            jobs.append(_discrete_job(rng, files, kind, check, family, n, "medium"))
    # Large windows (650-3000 members, past the pair cap): maps whose every
    # pair behaves alike, so the sampled pairs decide correctly.
    large = (("nonexpansive", "identity", 800), ("isometry", "reflect", 1200),
             ("lipschitz", "half", 2000), ("endo", "scale2", 2800), ("bijection", "translate", 1600),
             ("between", "translate", 1000), ("nonexpansive", "scale2", 700), ("isometry", "flat", 3000))
    for check, family, size in large:
        n = size + rng.randint(-size // 20, size // 20)
        jobs.append(_discrete_job(rng, files, "grid-both", check, family, n, "large"))
    jobs += _planted_defects(rng, files)
    jobs += _interval_jobs(rng, files)
    jobs += _classify_jobs(rng, files)
    return jobs


def _planted_defects(rng, files) -> list:
    """Known false passes from plasti's window sampling, kept visible on purpose.

    The first five are the reproductions written in the project roadmap
    (a relocation 1 -> 6 on the nonnegative integers; a swap 250 <-> 251),
    with the two windows that do catch them as controls. The seeded ones
    hide a local change at a member the 600-member stride skips, or behind
    the first 20,000 triples.
    """
    jobs = []
    naturals = DiscreteSpace([Arith(0, 1, "right")])
    nat = _Discrete("grid-right", naturals)
    bump = Map(identity_except({F(1): F(6)}), Map([affine(1, 0)]))
    swap = Map(table_except({F(250): F(251), F(251): F(250)}), Map(table_except({F(250): F(251), F(251): F(250)})))
    for tag, fmap, check, lo, hi, defect in (
        ("roadmap-bump", bump, "nonexpansive", 0, 1000, "stride"),
        ("roadmap-bump", bump, "isometry", 0, 1000, "stride"),
        ("roadmap-bump-control", bump, "nonexpansive", 0, 500, None),
        ("roadmap-swap", swap, "between", 0, 299, "triples"),
        ("roadmap-swap-control", swap, "between", 200, 299, None),
    ):
        truth = discrete_truth(check, naturals, fmap, lo, hi)
        jobs.append(_check_job(files, f"{tag}-{check}", nat, fmap, check, lo, hi, truth, defect))
    d = _discrete_space(rng, "grid-both", 0)
    n = rng.randint(700, 2400)
    xs = d.pool(n)[:n]
    stride = -(-n // PAIR_SAMPLE_CAP)
    i = rng.choice([k for k in range(2, n - 2) if k % stride])
    fmap = Map(identity_except({xs[i]: xs[i + rng.choice([2, 3])]}), Map([affine(1, 0)]))
    truth = discrete_truth("bijection", d.space, fmap, xs[0], xs[-1])
    jobs.append(_check_job(files, "stride-reloc-bijection", d, fmap, "bijection", xs[0], xs[-1], truth, "stride"))
    d = _discrete_space(rng, "grid-both", 0)
    n = rng.randint(240, 580)
    xs = d.pool(n)[:n]
    i = _first_uncapped_index(n) + rng.randint(1, 10)
    fmap = Map(table_except({xs[i]: xs[i + 1], xs[i + 1]: xs[i]}), Map([affine(1, 0)]))
    truth = discrete_truth("between", d.space, fmap, xs[0], xs[-1])
    jobs.append(_check_job(files, "triples-swap-between", d, fmap, "between", xs[0], xs[-1], truth, "triples"))
    # Open intervals with the window edges in gaps give the bijection check
    # no member to round-trip, so a stretch or squeeze of every interval
    # is certified onto.
    comp = Periodic(rng.choice([F(1), F(2)]), rng.choice([F(1), F(2)]), _rat(rng, -5, 5), "open", "both")
    space = IntervalSpace([comp])
    k = rng.randint(2, 5)
    lo, hi = comp.anchor - k * comp.period - comp.gap / 2, comp.anchor + k * comp.period - comp.gap / 2
    c = comp.anchor + comp.length / 2
    for family in ("double", "half"):
        fmap = _interval_map(rng, family, [c], comp.period)
        truth = interval_truth("bijection", space, fmap, lo, hi)
        jobs.append(_check_job(files, f"spans-{family}-bijection", space, fmap, "bijection", lo, hi, truth, "spans"))
    return jobs


def _first_uncapped_index(n: int) -> int:
    """Smallest i such that no triple (x0, xi, xj) is among the first
    TRIPLE_CAP triples in lexicographic order."""
    before = 0
    for i in range(1, n):
        if before >= TRIPLE_CAP:
            return i
        before += n - 1 - i
    raise ValueError("window too small to hide a triple")


# --- interval spaces ------------------------------------------------


def _interval_space(rng, kind: str):
    """(space, members to centre maps on, the period or None)."""
    if kind.startswith("periodic"):
        topo = kind.split(":")[1]
        length = rng.choice([F(1), F(2), F(1, 2), F(3)])
        gap = rng.choice([F(1), F(1, 2), F(2)]) if topo != "open" or rng.random() < 0.7 else F(0)
        anchor = _rat(rng, -5, 5)
        direction = "right" if kind.endswith(":right") else "both"
        comp = Periodic(length, gap, anchor, topo, direction)
        centers = [anchor + k * comp.period + length / 2 for k in range(0, 3)]
        return IntervalSpace([comp]), centers, comp.period
    if kind == "union":
        ivls, x = [], _rat(rng, -6, 0)
        for _ in range(rng.randint(2, 4)):
            width = _rat(rng, 1, 3)
            lc, hc = rng.random() < 0.5, rng.random() < 0.5
            ivls.append(Ivl(x, lc, x + width, hc))
            x += width + _rat(rng, 1, 2)
        return IntervalSpace([IntervalUnion(ivls)]), [(i.lo + i.hi) / 2 for i in ivls], None
    if kind == "halfline":
        e = _rat(rng, -3, 3)
        points = sorted({e - _rat(rng, 1, 6) for _ in range(3)})
        return IntervalSpace([HalfLine(e, rng.random() < 0.5)], points), [e + 1, e + 2], None
    raise ValueError(kind)


INTERVAL_KINDS = ("periodic:open", "periodic:closed", "periodic:left-closed",
                  "periodic:right-closed", "periodic:closed:right", "union", "halfline")
INTERVAL_MAPS = ("translate", "reflect", "half", "double", "flat")


def _interval_map(rng, family, centers, period) -> Map:
    c = rng.choice(centers)
    t = period * rng.choice([-2, -1, 1, 2]) if period is not None else _rat(rng, -2, 2) or F(1)
    if family == "translate":
        return _translate(t)
    if family == "reflect":
        axis = c if period is None or rng.random() < 0.5 else c + period / 2
        return Map([affine(-1, 2 * axis)], Map([affine(-1, 2 * axis)]))
    if family == "half":
        return Map([affine(F(1, 2), c / 2)], Map([affine(2, -c)]))
    if family == "double":
        return Map([affine(2, -c)], Map([affine(F(1, 2), c / 2)]))
    if family == "flat":
        return Map([affine(0, c)], Map([affine(1, 0)]))
    raise ValueError(family)


def _interval_jobs(rng, files) -> list:
    jobs = []
    for kind in INTERVAL_KINDS:
        for check in CHECKS:
            space, centers, period = _interval_space(rng, kind)
            # A map that is not onto can pass the bijection check on intervals
            # (its sampling gap, planted above); regular bijection jobs use
            # maps whose verdict every cut point already decides.
            if check != "bijection":
                family = rng.choice(INTERVAL_MAPS)
            elif kind.count(":") == 1:  # a two-way periodic family
                family = rng.choice(("translate", "reflect", "flat"))
            else:
                family = "flat"
            fmap = _interval_map(rng, family, centers, period)
            lo = min(centers) - _rat(rng, 2, 6)
            hi = max(centers) + _rat(rng, 2, 6)
            truth = interval_truth(check, space, fmap, lo, hi)
            jobs.append(_check_job(files, f"ivl-{kind}-{family}-{check}", space, fmap, check, lo, hi, truth))
    return jobs


# --- classification -------------------------------------------------


def _classify_jobs(rng, files) -> list:
    """Families whose rung on the ladder is fixed by their construction."""
    jobs = []

    def add(tag, space_text, outcome, rule, witness=False, window=None, cap=None):
        argv = ["classify", "--space", files.write("sp", space_text)]
        argv.append(_window_text(*(window or (a - 10, a + 10))))
        if cap is not None:
            argv += ["--cap", str(cap)]
        jobs.append(_job(f"classify-{tag}", argv, {"kind": "classify", "outcome": outcome,
                                                   "rule": rule, "witness_valid": witness or None}))

    for _ in range(2):
        a = _rat(rng, -10, 10)
        step = rng.choice([F(1), F(1, 2), F(3, 2)])
        add("finite", Points(sorted({a + _rat(rng, 0, 12) for _ in range(8)})).text() + "\n",
            "plastic", "R0", window=(a - 1, a + 13))
        add("union", IntervalUnion([Ivl(a, True, a + 1, False), Ivl(a + 2, False, a + 4, True)]).text() + "\n",
            "plastic", "R0")
        add("grid-both", DiscreteSpace([Arith(a, step, "both")]).text(), "plastic", "R7")
        direction = rng.choice(["left", "right"])
        add(f"grid-{direction}", DiscreteSpace([Arith(a, step, direction)]).text(), "plastic", "R2")
        bound = "bounded-below=attained" if direction == "right" else "bounded-above=attained"
        add("meta-consistent", DiscreteSpace([Arith(a, step, direction)],
                                             ["accum=none", f"{bound}({fmt(a)})"]).text(), "plastic", "R2")
        jobs.append(_job("classify-meta-contradicted", ["classify", "--space", files.write(
            "sp", DiscreteSpace([Arith(a, step, direction)], [f"{bound}({fmt(a + step)})"]).text())],
            {"kind": "error", "rc": 2, "stderr": "declared metadata failed validation"}))
        small = rng.choice([F(1), F(1, 2)])
        add("junction", DiscreteSpace([Arith(a, small, "left"), Arith(a + 2 * small, 2 * small, "right")]).text(),
            "not-plastic", "R1", witness=True)
        c = _rat(rng, 1, 2)
        add("gap-const-affine", DiscreteSpace([GapSeq(a, Rule("const", c), Rule("affine", F(1), c))]).text(),
            "not-plastic", "R1", witness=True)
        add("gap-explicit", DiscreteSpace([GapSeq(a, Rule("explicit", 1, 2, 3), Rule("explicit", 2, 1))]).text(),
            "plastic", "R0")
        add("gap-explicit-const", DiscreteSpace([GapSeq(a, Rule("explicit", 1, 2, 3), Rule("const", 2))]).text(),
            "plastic", "R2")
        s1 = rng.randint(0, 2)
        recip = DiscreteSpace([GapSeq(a, Rule("recip", F(s1)), Rule("recip", F(s1 + rng.randint(1, 3))))])
        add("gap-recip", recip.text(), "plastic", "R3", window=(a - 2, a + 2))
        for topo in ("open", "closed"):
            add(f"periodic-{topo}", Periodic(1, rng.choice([1, 2]), a, topo, "both").text() + "\n",
                "plastic", "R6")
        for topo in ("left-closed", "right-closed"):
            add(f"periodic-{topo}", Periodic(rng.choice([1, 2]), 1, a, topo, "both").text() + "\n",
                "not-plastic", "R6", witness=True)
        add("periodic-mixed", Periodic(1, 1, a, "closed", "left").text() + "\n"
            + Periodic(1, 1, a + 2, "right-closed", "right").text() + "\n", "not-plastic", "R6", witness=True)
        add("periodic-one-way", Periodic(1, 1, a, "open", "right").text() + "\n", "unknown", None)
        add("halfline", IntervalSpace([HalfLine(a, False)], [a - 1]).text(),
            "not-plastic", "R5", witness=True)
    # Coefficient sizes on a log grid: the rare-extremal-gap rung's cost
    # grows with them.
    for coeff in (10, 40, 160, 630, 2500, 10000):
        coeff = coeff + rng.randint(0, coeff // 10)
        rule = Rule("alt", Rule("affine", F(1), F(0)), Rule("const", F(coeff)))
        a = _rat(rng, -5, 5)
        add(f"gap-alt-{coeff}", DiscreteSpace([GapSeq(a, rule, rule)]).text(), "plastic", "R3")
    # An accumulating tail: no rung applies and the falsification family
    # runs on a capped enumeration.
    q = rng.randint(0, 2) + rng.choice([F(1, 3), F(1, 2), F(2, 3), F(3, 4)])  # no integer in the tail
    tail = DiscreteSpace([Arith(0, 1, "right"), GapSeq(q, left=Rule("recipdiff", F(3)))], [f"accum={fmt(q - F(1, 4))}"])
    add("accumulating-tail", tail.text(), "unknown", None, window=(0, q + 1), cap=8)
    return jobs


# ===================================================================
# finite: brute-force oracles and distance-table extensions
# ===================================================================


def _point_set(rng, n: int, shape: str) -> list:
    if shape == "equal":
        a = rng.randint(-5, 5)
        return [F(a + k) for k in range(n)]
    if shape == "clustered":
        centers = rng.sample(range(0, 200, 20), 2 if n < 7 else 3)
        pts = set()
        while len(pts) < n:
            pts.add(F(rng.choice(centers) * 2 + rng.randint(0, 5), 2))
        return sorted(pts)
    if shape == "symmetric":
        half = rng.sample(range(1, 40), n // 2)
        pts = [F(h) for h in half] + [F(-h) for h in half] + ([F(0)] if n % 2 else [])
        return sorted(p + 7 for p in pts)
    return sorted(F(v, 3) for v in rng.sample(range(-60, 60), n))


def _points_arg(pts: list, shape: str) -> str:
    if shape == "equal" and all(p.denominator == 1 for p in pts):
        return f"--points={fmt(pts[0])}..{fmt(pts[-1])}"
    return "--points=" + ",".join(fmt(p) for p in pts)


def _table(rng, n_labels: int, railway: bool):
    """Labels, file text and proposed weights for an extension table.

    Inner points sit on the line; each planted outer point offers a chain
    between two inner points shorter than their line distance. Every other
    entry involving an outer point is longer than the inner diameter, so
    the planted chains alone decide which inner pairs shrink.
    """
    n_inner = rng.randint(n_labels // 2, n_labels - 4)
    positions = sorted(rng.sample(range(0, 6 * n_inner), n_inner))
    labels = [f"i{k}" for k in range(n_inner)] + [f"p{k}" for k in range(n_labels - n_inner)]
    far = 2 * (positions[-1] - positions[0]) + 10
    weight = {}
    for u in range(n_labels):
        for v in range(u + 1, n_labels):
            if v < n_inner:
                weight[(u, v)] = F(abs(positions[u] - positions[v]))
            else:
                weight[(u, v)] = F(far + rng.randint(0, 5))
    for p in range(n_inner, n_labels):
        if rng.random() < 0.7:
            a, b = sorted(rng.sample(range(n_inner), 2))
            length = positions[b] - positions[a]
            short = F(rng.randint(1, max(1, 2 * length - 1)), 2)  # strictly below the line distance
            cut = F(rng.randint(1, 9), 10) * short
            weight[(a, p)], weight[(b, p)] = cut, short - cut
    lines = ["labels: " + " ".join(
        f"{name}=inner({positions[k]})" if k < n_inner else f"{name}=outer" for k, name in enumerate(labels))]
    x0 = rng.randrange(n_inner)
    if railway:
        lines.append(f"x0: i{x0}")
    for u in range(n_labels - 1):
        lines.append("row: " + " ".join(fmt(weight[(u, v)]) for v in range(u + 1, n_labels)))
    return labels, positions, weight, x0, "\n".join(lines) + "\n"


def _finite(rng, files) -> list:
    jobs = []
    shapes = ("generic", "equal", "clustered", "symmetric")
    for n in (6, 7, 8):
        for shape in shapes:
            for _ in range(11):
                pts = _point_set(rng, n, shape)
                count = isometry_count(pts)
                jobs.append(_job(f"oracle-{shape}-{n}", ["oracle", _points_arg(pts, shape)],
                                 {"kind": "oracle", "points": [fmt(p) for p in pts],
                                  "bijections": count, "isometries": count, "plastic": True}))
    for n in (5, 6):
        for shape in shapes:
            for _ in range(8):
                pts = _point_set(rng, n, shape)
                jobs.append(_job(f"strong-{shape}-{n}", ["oracle", _points_arg(pts, shape), "--strong"],
                                 {"kind": "strong", "points": [fmt(p) for p in pts], "selfmaps": n ** n,
                                  "noncontracting": isometry_count(pts), "strongly_plastic": True}))
    for n_labels in (16, 18, 20, 22, 24, 26, 28, 30, 32):
        for mode in ("paths", "paths", "railway"):
            labels, positions, weight, x0, text = _table(rng, n_labels, mode == "railway")
            n_inner = len(positions)
            argv = ["extend", files.write("dm", text)] + (["--mode", "railway"] if mode == "railway" else [])
            expect = {"kind": mode, "labels": labels,
                      "weights": {f"{u},{v}": fmt(w) for (u, v), w in sorted(weight.items())}}
            if mode == "paths":
                dist = shortest_paths(n_labels, weight, range(n_inner))
                expect["shrunk"] = {
                    f"i{u},i{v}": fmt(dist[(u, v)])
                    for u in range(n_inner) for v in range(u + 1, n_inner)
                    if dist[(u, v)] < positions[v] - positions[u]
                }
            else:
                expect["rows"] = _railway_rows(labels, positions, x0)
            jobs.append(_job(f"extend-{mode}-{n_labels}", argv, expect))
    return jobs


def _railway_rows(labels, positions, x0: int) -> list:
    n_inner = len(positions)

    def d(u, v):
        if u == v:
            return F(0)
        if u < n_inner and v < n_inner:
            return F(abs(positions[u] - positions[v]))
        if u >= n_inner and v >= n_inner:
            return F(1)
        x = min(u, v)
        return F(abs(positions[x] - positions[x0])) + 1

    return [[fmt(d(u, v)) for v in range(len(labels))] for u in range(len(labels))]


# ===================================================================
# Verdicts
# ===================================================================


def verdict(job: dict, rc: int, out: str, err: str):
    """None when the call gave the reference answer, else the reason."""
    want = job["expect"]
    kind = want["kind"]
    if kind == "error":
        if rc != want["rc"] or want["stderr"] not in err or len(err.strip().splitlines()) != 1:
            return f"wanted exit {want['rc']} with '{want['stderr']}', got exit {rc}: {err.strip()[:120]}"
        return None
    want_rc = 1 if kind == "check" and not want["passed"] else 0
    if rc != want_rc:
        return f"exit {rc}, wanted {want_rc}: {err.strip()[:120]}"
    try:
        got = json.loads(out)
    except ValueError:
        return "output is not JSON"
    return _CHECKERS[kind](want, got)


def known_defect(job: dict, rc: int, out: str) -> bool:
    """Whether a call on a planted job gave the false pass it was planted
    for: exit 0 and ``passed`` where the truth is fail."""
    want = job["expect"]
    if job["defect"] is None or want["kind"] != "check" or want["passed"] or rc != 0:
        return False
    try:
        return json.loads(out)["passed"] is True
    except (ValueError, KeyError, TypeError):
        return False


def _check_gallery(want, got):
    names = [e["name"] for e in got["expectations"]]
    if names != want["names"]:
        return f"expectations {names} differ from the benchmark's list"
    failed = [e["name"] for e in got["expectations"] if not e["passed"]]
    return f"expectations failed: {failed}" if failed or not got["passed"] else None


def _check_check(want, got):
    if got["which"] != want["which"] or got["passed"] != want["passed"]:
        return f"{got['which']} said {'pass' if got['passed'] else 'fail'}, truth is {'pass' if want['passed'] else 'fail'}"
    return None


def _check_lipschitz(want, got):
    return None if got["bound"] == want["bound"] else f"bound {got['bound']}, truth is {want['bound']}"


def _check_classify(want, got):
    if (got["outcome"], got["rule"]) != (want["outcome"], want["rule"]):
        return f"verdict {got['outcome']} ({got['rule']}), wanted {want['outcome']} ({want['rule']})"
    if want["witness_valid"] and not (got["witness_verification"] or {}).get("valid"):
        return "witness missing or not verified"
    return None


def _check_oracle(want, got):
    for key in ("points", "bijections", "isometries", "plastic"):
        if got[key] != want[key]:
            return f"{key} is {got[key]}, wanted {want[key]}"
    return None


def _check_strong(want, got):
    for key in ("points", "selfmaps", "noncontracting", "strongly_plastic"):
        if got[key] != want[key]:
            return f"{key} is {got[key]}, wanted {want[key]}"
    return None


def _check_paths(want, got):
    if not got["axioms_pass"]:
        return "closure is not a metric"
    shrunk = {f"{s['pair'][0]},{s['pair'][1]}": s for s in got["shrinkage"]}
    if {k: s["closed"] for k, s in shrunk.items()} != want["shrunk"]:
        return "shrunk pairs differ from the planted chains"
    if got["restriction_pass"] == bool(want["shrunk"]):
        return "restriction verdict disagrees with the shrinkage"
    index = {name: k for k, name in enumerate(want["labels"])}
    for key, s in shrunk.items():
        chain = [index[name] for name in s["chain"]]
        length = sum(F(want["weights"][f"{min(u, v)},{max(u, v)}"]) for u, v in zip(chain, chain[1:]))
        if s["chain"][0] + "," + s["chain"][-1] != key or fmt(length) != s["closed"]:
            return f"chain for {key} does not add up to {s['closed']}"
    return None


def _check_railway(want, got):
    if not (got["axioms_pass"] and got["restriction_pass"]):
        return "railway extension is not a metric extension"
    if got["matrix"]["labels"] != want["labels"] or got["matrix"]["rows"] != want["rows"]:
        return "railway distances differ from the hub construction"
    return None


_CHECKERS = {
    "gallery": _check_gallery,
    "check": _check_check,
    "lipschitz": _check_lipschitz,
    "classify": _check_classify,
    "oracle": _check_oracle,
    "strong": _check_strong,
    "paths": _check_paths,
    "railway": _check_railway,
}
