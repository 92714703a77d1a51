"""Exact symbolic subspaces of the real line.

A subspace is a disjoint union of catalog components: gap-rule
sequences, periodic interval unions, explicit interval lists, and
half-lines. A gap sequence is the one discrete kind. An arithmetic
progression (``arith:`` in a space file) is shorthand for a gap sequence
with ``const(step)`` sides, and a finite point set (``points:``) for one
anchored at its least point with an explicit right side, or for the bare
anchor when it has one point. Everything is exact rational arithmetic;
infinite components are handled symbolically and materialized on finite
windows. Checks on infinite descriptions are certificates for the window,
never proofs.
"""

from __future__ import annotations

import bisect
import operator
from array import array
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from math import comb, floor, inf, isqrt
from typing import Optional, Union

from .errors import (
    EmptyWindow,
    NotDiscrete,
    RuleDivergence,
    SpaceError,
    WindowTooSmall,
)
from .frozen import frozen
from .scalar import (
    NEG_INF,
    POS_INF,
    ExtendedScalar,
    Infinity,
    Scalar,
    format_scalar,
    is_finite,
)

DEFAULT_CAP = 10_000

ZERO = Fraction(0)
ONE = Fraction(1)


# The multiplicity of a gap realized by unboundedly many pairs.
INFINITE = inf

Multiplicity = Union[int, float]  # a count, or INFINITE


# ===================================================================
# Endpoints, intervals, windows
# ===================================================================


@frozen
class Endpoint:
    value: ExtendedScalar
    closed: bool

    def __post_init__(self):
        if isinstance(self.value, Infinity) and self.closed:
            raise SpaceError("infinite endpoints must be open")

    def __str__(self):
        return f"{format_scalar(self.value)}{'#' if self.closed else ''}"


@frozen
class Interval:
    """An interval of the line with exact endpoint topology."""

    lo: Endpoint
    hi: Endpoint

    def __post_init__(self):
        if self.lo.value > self.hi.value:
            raise SpaceError(f"interval endpoints out of order: {self}")
        if self.lo.value == self.hi.value and not (self.lo.closed and self.hi.closed):
            raise SpaceError("degenerate interval needs both endpoints closed")

    @staticmethod
    def open(lo: Scalar, hi: Scalar) -> "Interval":
        return Interval(Endpoint(lo, False), Endpoint(hi, False))

    @staticmethod
    def closed(lo: Scalar, hi: Scalar) -> "Interval":
        return Interval(Endpoint(lo, True), Endpoint(hi, True))

    @staticmethod
    def left_closed(lo: Scalar, hi: Scalar) -> "Interval":
        return Interval(Endpoint(lo, True), Endpoint(hi, False))

    @staticmethod
    def right_closed(lo: Scalar, hi: Scalar) -> "Interval":
        return Interval(Endpoint(lo, False), Endpoint(hi, True))

    @staticmethod
    def point(x: Scalar) -> "Interval":
        return Interval(Endpoint(x, True), Endpoint(x, True))

    @property
    def degenerate(self) -> bool:
        return self.lo.value == self.hi.value

    @property
    def bounded(self) -> bool:
        return is_finite(self.lo.value) and is_finite(self.hi.value)

    def contains(self, x: Scalar) -> bool:
        if isinstance(self.lo.value, Infinity):
            above = True
        else:
            above = x > self.lo.value or (self.lo.closed and x == self.lo.value)
        if isinstance(self.hi.value, Infinity):
            below = True
        else:
            below = x < self.hi.value or (self.hi.closed and x == self.hi.value)
        return above and below

    def overlaps(self, other: "Interval") -> bool:
        """Nonempty set intersection (exact, topology-aware)."""
        lo_v = max(self.lo.value, other.lo.value)
        hi_v = min(self.hi.value, other.hi.value)
        if lo_v < hi_v:
            return True
        if lo_v > hi_v:
            return False
        # Touching at one value: both sides must include it.
        def _includes(ivl: Interval, x) -> bool:
            if not is_finite(x):
                return False
            return ivl.contains(x)

        return _includes(self, lo_v) and _includes(other, lo_v)

    def __str__(self):
        lo_b = "[" if self.lo.closed else "("
        hi_b = "]" if self.hi.closed else ")"
        return f"{lo_b}{format_scalar(self.lo.value)},{format_scalar(self.hi.value)}{hi_b}"


@frozen
class Window:
    lo: Scalar
    hi: Scalar

    def __post_init__(self):
        if self.lo >= self.hi:
            raise SpaceError(f"window needs lo < hi, got [{self.lo}, {self.hi}]")

    def contains(self, x: Scalar) -> bool:
        return self.lo <= x <= self.hi

    def __str__(self):
        return f"[{format_scalar(self.lo)},{format_scalar(self.hi)}]"


DEFAULT_WINDOW = Window(Fraction(-10), Fraction(10))


# ===================================================================
# Gap programs (the closed rule catalog for GapSequence sides)
# ===================================================================
#
# A gap program produces the successive gaps g(1), g(2), ... between
# consecutive points walking outward from the anchor. Atomic rules come
# from a fixed catalog so that divergence, monotonicity and spectrum
# extrema stay decidable; `alt` interleaves atoms cyclically and
# `explicit` gives a finite side.
#
# Each rule class answers for itself: partial sums and their inverse,
# the indices and count of a gap value, the extremal gaps with their
# attainment and multiplicity, monotonicity, convergence and total, and
# finiteness. An atom's gap stream is monotone; the atom states its
# direction (`trend`) and `_Atom` derives what follows from it. `alt`
# combines the answers of its atoms. An `explicit` side answers for its
# prefix sums as a closed-sum rule does and is unfolded into points
# wherever gap facts are asked, so it states only its finiteness, prefix
# sums and total.


def _as_index(n: Scalar) -> tuple:
    """(n,) when n is an index n >= 1, else ()."""
    return (int(n),) if n.denominator == 1 and n >= 1 else ()


def _attained_extremum(bounds: list, pick) -> Optional[tuple]:
    """(value, multiplicity) of the extreme of (bound, multiplicity) pairs,
    or None when a pair reaching it does not attain it (multiplicity 0)."""
    best = pick(v for v, _ in bounds)
    mult: Multiplicity = 0
    for v, m in bounds:
        if v == best:
            if not m:
                return None
            mult += m
    return best, mult


class _Atom:
    """Facts of an atomic rule that follow from its monotone gap stream.

    ``trend`` is 1 when the gaps grow without bound, -1 when they shrink
    to 0, and 0 when they are constant.
    """

    finite = False
    converges = False
    total = POS_INF  # a divergent side's gaps sum to infinity
    closed_sums = True

    def monotone(self) -> dict:
        return {
            "nondecreasing": self.trend >= 0,
            "nonincreasing": self.trend <= 0,
            "strict": self.trend != 0,
        }

    @property
    def inf(self) -> tuple:
        """(infimum, multiplicity), with multiplicity 0 when not attained."""
        if self.trend < 0:
            return ZERO, 0
        return self.gap(1), (1 if self.trend else INFINITE)

    @property
    def sup(self) -> tuple:
        """(supremum, multiplicity), with multiplicity 0 when not attained."""
        if self.trend > 0:
            return POS_INF, 0
        return self.gap(1), (1 if self.trend else INFINITE)

    def minimum(self) -> Optional[tuple]:
        """(value, multiplicity) of the attained minimum gap, or None."""
        return _attained_extremum([self.inf], min)

    def maximum(self) -> Optional[tuple]:
        """(value, multiplicity) of the attained maximum gap, or None."""
        return _attained_extremum([self.sup], max)

    def count_of(self, v: Scalar) -> Multiplicity:
        """How many indices n >= 1 have gap(n) == v exactly."""
        if not self.indices_of(v):
            return 0
        return INFINITE if self.trend == 0 else 1

    @property
    def support(self) -> Optional[frozenset]:
        """The distinct gap values when there are finitely many, else None."""
        return frozenset((self.gap(1),)) if self.trend == 0 else None


@frozen
class ConstantGaps(_Atom):
    value: Scalar

    trend = 0

    def __post_init__(self):
        if self.value <= 0:
            raise SpaceError("constant gap must be positive")

    def gap(self, n: int) -> Scalar:
        return self.value

    def partial(self, n: int) -> Scalar:
        return self.value * n

    def partial_floor(self, offset: Scalar) -> int:
        return offset // self.value

    def side_points(self, anchor: Scalar, sign: int, first: int, last: int) -> list:
        """anchor + sign*S(n) for first <= n <= last, in integer arithmetic."""
        a, b = anchor.numerator, anchor.denominator
        p, q = self.value.numerator, self.value.denominator
        base, step, den = a * q, sign * p * b, b * q
        return [Fraction(base + step * n, den) for n in range(first, last + 1)]

    def indices_of(self, v: Scalar) -> tuple:
        """The indices with gap v; a constant stream lists only the first."""
        return (1,) if v == self.value else ()

    @property
    def rational(self) -> tuple:
        return (self.value,), (ONE,)

    def __str__(self):
        return f"const({format_scalar(self.value)})"


@frozen
class AffineGaps(_Atom):
    """gap(n) = slope*n + offset, strictly positive for every n >= 1."""

    slope: Scalar
    offset: Scalar

    def __post_init__(self):
        if self.slope < 0:
            raise SpaceError("affine gap rule needs nonnegative slope")
        if self.slope + self.offset <= 0:
            raise SpaceError("affine gap rule nonpositive at n=1")

    @property
    def trend(self) -> int:
        return 1 if self.slope else 0

    def gap(self, n: int) -> Scalar:
        return self.slope * n + self.offset

    def partial(self, n: int) -> Scalar:
        """S(n) in integer arithmetic, as in ``side_points``."""
        sp, sq = self.slope.numerator, self.slope.denominator
        op, oq = self.offset.numerator, self.offset.denominator
        return Fraction(sp * oq * n * (n + 1) + 2 * op * sq * n, 2 * sq * oq)

    def partial_floor(self, offset: Scalar) -> int:
        if self.slope == 0:
            return offset // self.offset
        # 2*S(n) = slope*n^2 + (slope + 2*self.offset)*n; cleared of
        # denominators, S(n) <= offset reads a n^2 + b n - c <= 0 with
        # a, c > 0, that is 2an + b <= sqrt(b^2 + 4ac) for n >= 0. The left
        # side is an integer, so isqrt decides it exactly.
        a, b, c = self.slope, self.slope + 2 * self.offset, 2 * offset
        scale = a.denominator * b.denominator * c.denominator
        a, b, c = int(a * scale), int(b * scale), int(c * scale)
        return (isqrt(b * b + 4 * a * c) - b) // (2 * a)

    def side_points(self, anchor: Scalar, sign: int, first: int, last: int) -> list:
        """anchor + sign*S(n) for first <= n <= last, in integer arithmetic:
        S(n) = (sp*oq*n(n+1) + 2*op*sq*n) / (2*sq*oq) for slope sp/sq and
        offset op/oq."""
        a, b = anchor.numerator, anchor.denominator
        sp, sq = self.slope.numerator, self.slope.denominator
        op, oq = self.offset.numerator, self.offset.denominator
        den = 2 * sq * oq
        base, quad, lin = a * den, sign * b * sp * oq, sign * b * 2 * op * sq
        return [
            Fraction(base + quad * n * (n + 1) + lin * n, b * den) for n in range(first, last + 1)
        ]

    def indices_of(self, v: Scalar) -> tuple:
        """The indices with gap v; a constant stream lists only the first."""
        if self.slope == 0:
            return (1,) if v == self.offset else ()
        return _as_index((v - self.offset) / self.slope)

    @property
    def rational(self) -> tuple:
        return (self.offset, self.slope), (ONE,)

    def __str__(self):
        return f"affine({format_scalar(self.slope)}n+{format_scalar(self.offset)})"


@frozen
class ReciprocalGaps(_Atom):
    """gap(n) = 1/(n + shift); decreasing, divergent partial sums."""

    shift: Scalar

    trend = -1
    closed_sums = False  # harmonic partial sums: sides are walked

    def __post_init__(self):
        if self.shift + 1 <= 0:
            raise SpaceError("reciprocal gap rule needs shift > -1")

    def gap(self, n: int) -> Scalar:
        return ONE / (n + self.shift)

    def partial(self, n: int) -> None:
        return None

    def indices_of(self, v: Scalar) -> tuple:
        return _as_index(ONE / v - self.shift) if v > 0 else ()

    @property
    def rational(self) -> tuple:
        return (ONE,), (self.shift, ONE)

    def __str__(self):
        return f"recip(n+{format_scalar(self.shift)})"


@frozen
class TelescopingGaps(_Atom):
    """gap(n) = 1/((n+shift)(n+shift+1)); partial sums telescope to 1/(shift+1).

    The one convergent catalog form: a side built on it accumulates at
    anchor ± 1/(shift+1), and that value is exact.
    """

    shift: Scalar

    trend = -1
    converges = True

    def __post_init__(self):
        if self.shift + 1 <= 0:
            raise SpaceError("telescoping gap rule needs shift > -1")

    def gap(self, n: int) -> Scalar:
        k = n + self.shift
        return ONE / (k * (k + 1))

    @property
    def total(self) -> Scalar:
        return ONE / (self.shift + 1)

    def partial(self, n: int) -> Scalar:
        return self.total - ONE / (n + self.shift + 1)

    def partial_floor(self, offset: Scalar) -> int:
        # S(n) = 1/(s+1) - 1/(n+s+1), so with R = 1/(s+1) - offset > 0,
        # S(n) <= offset iff n <= 1/R - s - 1
        rest = self.total - offset
        if rest <= 0:
            raise SpaceError(f"offset {format_scalar(offset)} reaches the limit of {self}")
        return (ONE / rest - self.shift - 1).__floor__()

    def side_points(self, anchor: Scalar, sign: int, first: int, last: int) -> list:
        """anchor + sign*S(n) for first <= n <= last, in integer arithmetic:
        the point is limit - sign*sd/e with e = n*sd + sn + sd for the limit
        anchor + sign/(s+1) and shift s = sn/sd."""
        limit = anchor + sign * self.total
        ln, ld = limit.numerator, limit.denominator
        sn, sd = self.shift.numerator, self.shift.denominator
        c = sign * sd * ld
        start, stop = first * sd + sn + sd, last * sd + sn + sd
        return [Fraction(ln * e - c, ld * e) for e in range(start, stop + 1, sd)]

    def indices_of(self, v: Scalar) -> tuple:
        # k(k+1) = 1/v with k = n + shift > 0; isqrt finds the one candidate
        if v <= 0 or (ONE / v).denominator != 1:
            return ()
        t = (ONE / v).numerator
        k = (isqrt(4 * t + 1) - 1) // 2
        return _as_index(k - self.shift) if k * (k + 1) == t else ()

    @property
    def rational(self) -> tuple:
        s = self.shift
        return (ONE,), (s * (s + 1), 2 * s + 1, ONE)

    def __str__(self):
        return f"recipdiff(n+{format_scalar(self.shift)})"


@frozen
class AlternatingGaps:
    """Cyclic interleave: gap(n) = atoms[(n-1) % k].gap(1 + (n-1)//k)."""

    atoms: tuple

    finite = False

    def __post_init__(self):
        if len(self.atoms) < 2:
            raise SpaceError("alt needs at least two atoms")
        for atom in self.atoms:
            if not isinstance(atom, _Atom):
                raise SpaceError("alt atoms must be atomic catalog rules")

    def gap(self, n: int) -> Scalar:
        k = len(self.atoms)
        return self.atoms[(n - 1) % k].gap(1 + (n - 1) // k)

    @property
    def converges(self) -> bool:
        return all(a.converges for a in self.atoms)

    @property
    def total(self):
        return sum((a.total for a in self.atoms), ZERO) if self.converges else POS_INF

    @property
    def closed_sums(self) -> bool:
        return all(a.closed_sums for a in self.atoms)

    def partial(self, n: int) -> Optional[Scalar]:
        full, extra = divmod(n, len(self.atoms))
        parts = [a.partial(full + 1 if j < extra else full) for j, a in enumerate(self.atoms)]
        return None if None in parts else sum(parts, ZERO)

    def partial_floor(self, offset: Scalar) -> int:
        """The largest n >= 0 with S(n) <= offset, by doubling and bisection;
        the offset must lie below the total."""
        if offset >= self.total:
            raise SpaceError(f"offset {format_scalar(offset)} reaches the limit of {self}")
        if self.partial(1) > offset:
            return 0
        hi = 2
        while self.partial(hi) <= offset:
            hi *= 2
        lo = hi // 2  # S(lo) <= offset < S(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.partial(mid) <= offset:
                lo = mid
            else:
                hi = mid
        return lo

    def side_points(self, anchor: Scalar, sign: int, first: int, last: int) -> list:
        """anchor + sign*S(n) for first <= n <= last, stepping on from S(first - 1)."""
        pos = anchor + sign * self.partial(first - 1)
        step = operator.add if sign > 0 else operator.sub
        out = []
        for n in range(first, last + 1):
            pos = step(pos, self.gap(n))
            out.append(pos)
        return out

    def indices_of(self, v: Scalar) -> tuple:
        k = len(self.atoms)
        return tuple(
            sorted((n - 1) * k + j + 1 for j, a in enumerate(self.atoms) for n in a.indices_of(v))
        )

    def count_of(self, v: Scalar) -> Multiplicity:
        return sum(a.count_of(v) for a in self.atoms)

    def minimum(self) -> Optional[tuple]:
        return _attained_extremum([a.inf for a in self.atoms], min)

    def maximum(self) -> Optional[tuple]:
        return _attained_extremum([a.sup for a in self.atoms], max)

    def monotone(self) -> dict:
        """Exact monotonicity across the cycle: each adjacent stream
        position compares two atoms, decided by a polynomial sign test."""
        atoms = self.atoms
        pairs = [(atoms[j], 0, atoms[j + 1], 0) for j in range(len(atoms) - 1)]
        pairs.append((atoms[-1], 0, atoms[0], 1))  # wrap to the next cycle
        nondec, strict_up = True, False
        for f, fs, g, gs in pairs:
            ok, strict = _forall_le(f, fs, g, gs)
            nondec = nondec and ok
            strict_up = strict_up or strict
        noninc, strict_dn = True, False
        for f, fs, g, gs in pairs:
            ok, strict = _forall_le(g, gs, f, fs)
            noninc = noninc and ok
            strict_dn = strict_dn or strict
        strict = (nondec and strict_up) or (noninc and strict_dn) or (not nondec and not noninc)
        return {"nondecreasing": nondec, "nonincreasing": noninc, "strict": strict}

    @property
    def support(self) -> Optional[frozenset]:
        supports = [a.support for a in self.atoms]
        return None if None in supports else frozenset().union(*supports)

    def __str__(self):
        return "alt(" + ",".join(str(a) for a in self.atoms) + ")"


@frozen
class ExplicitGaps:
    """A finite side given by its gap list; the side ends after the list."""

    values: tuple

    finite = True
    converges = False
    closed_sums = True

    def __post_init__(self):
        if not self.values:
            raise SpaceError("explicit gap list must be nonempty")
        for v in self.values:
            if v <= 0:
                raise SpaceError("gaps must be positive")

    @cached_property
    def sums(self) -> tuple:
        """The partial sums S(1), ..., S(len), computed on first use."""
        return tuple(accumulate(self.values))

    @cached_property
    def sum_keys(self) -> array:
        """The float keys of ``sums``, for ``_locate``."""
        return array("d", map(_float_key, self.sums))

    @property
    def total(self) -> Scalar:
        return self.sums[-1]

    def partial(self, n: int) -> Scalar:
        """S(n), for 1 <= n <= len(values)."""
        return self.sums[n - 1]

    def partial_floor(self, offset: Scalar) -> int:
        """The largest n with S(n) <= offset; len(values) at or past the total."""
        n = _locate(self.sums, self.sum_keys, offset)
        return n + (n < len(self.sums) and self.sums[n] == offset)

    def side_points(self, anchor: Scalar, sign: int, first: int, last: int) -> list:
        """anchor + sign*S(n) for first <= n <= last, as far as the list goes."""
        step = operator.add if sign > 0 else operator.sub
        return [step(anchor, s) for s in self.sums[first - 1 : last]]

    def __str__(self):
        return "explicit(" + ",".join(format_scalar(v) for v in self.values) + ")"


GapProgram = Union[
    ConstantGaps, AffineGaps, ReciprocalGaps, TelescopingGaps, AlternatingGaps, ExplicitGaps
]


def _max_n_with_sum_below(p: GapProgram, offset: Scalar, strict: bool) -> int:
    """Largest n >= 0 with S(n) < offset (strict) or S(n) <= offset.

    Partial sums S are strictly increasing from S(0) = 0, so an offset
    <= 0 gives 0; the caller must rule out the convergent case where every
    n qualifies (total at or below the offset). ``partial_floor`` answers
    the non-strict question: in closed form for ``const``, ``affine`` and
    ``recipdiff``, whose cost does not grow with the size of the offset,
    and by bisecting the list of an explicit side, which stops at its
    length. The strict answer is one less when S hits the offset exactly,
    which one partial sum settles. A rule without closed sums reaches this
    function as the explicit side that ``_walk`` lists.
    """
    if offset <= 0:
        return 0
    n = p.partial_floor(offset)
    return n - 1 if strict and n and p.partial(n) == offset else n


# --- exact monotonicity of an interleave ----------------------------
#
# Every atom's gap is a rational function of the cycle index with positive
# denominator, so "g(n) <= g(n+1) for all n" across an interleave reduces
# to polynomials being nonnegative on all integers m >= 1, decided by
# isolating their real roots with a Sturm sequence (Sturm's theorem, see
# Basu, Pollack and Roy, Algorithms in Real Algebraic Geometry).


def _poly_shift(coeffs: tuple, s: int) -> tuple:
    """Coefficients of P(m + s)."""
    out = [ZERO] * len(coeffs)
    for i, c in enumerate(coeffs):
        for j in range(i + 1):
            out[j] += c * comb(i, j) * (Fraction(s) ** (i - j))
    return tuple(out)


def _poly_mul(a: tuple, b: tuple) -> tuple:
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def _poly_sub(a: tuple, b: tuple) -> tuple:
    n = max(len(a), len(b))
    out = [ZERO] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return tuple(out)


def _poly_eval(coeffs, m: Scalar) -> Fraction:
    acc = ZERO
    for c in reversed(coeffs):
        acc = acc * m + c
    return acc


def _poly_trim(coeffs) -> list:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_divmod(a: list, b: list) -> tuple:
    """(quotient, remainder) of trimmed a by trimmed nonzero b."""
    rem = list(a)
    quot = [ZERO] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        k = len(rem) - len(b)
        c = rem[-1] / b[-1]
        quot[k] = c
        for i, bc in enumerate(b):
            rem[i + k] -= c * bc
        rem = _poly_trim(rem[:-1])  # the leading term cancelled
    return quot, rem


def _sturm_chain(p: list) -> list:
    """P, P', then negated remainders; the last entry is gcd(P, P')."""
    chain = [p, [i * c for i, c in enumerate(p)][1:]]
    while chain[-1]:
        chain.append([-c for c in _poly_divmod(chain[-2], chain[-1])[1]])
    return chain[:-1]


def _sign_changes(chain: list, x: Fraction) -> int:
    signs = [v > 0 for v in (_poly_eval(c, x) for c in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _poly_nonneg_all(coeffs: tuple) -> tuple:
    """(nonneg for all integers m >= 1, strictly positive somewhere).

    ``strict`` is exact whenever the first answer is True; callers read it
    only then. If P(m) < 0 at an integer m >= 1, then either P has no root
    in [1, m) and P(1) < 0, or the largest such root r is followed by the
    integer floor(r) + 1 <= m, where P has the sign it has at m. So it
    suffices to evaluate P at 1 and just after each real root, and the
    roots lie in intervals narrower than 1 that bisection of (0, Cauchy
    bound] finds, counting roots with the Sturm sequence. The cost grows
    with the number of digits of the coefficients, not with their size.
    """
    p = _poly_trim(coeffs)
    if not p:
        return True, False
    if p[-1] < 0:
        return False, False  # eventually negative beyond all roots
    chain = _sturm_chain(p)
    if len(chain[-1]) > 1:  # repeated roots: count those of the square-free part
        chain = _sturm_chain(_poly_divmod(p, chain[-1])[0])
    # Sturm: the number of distinct roots in (lo, hi] is V(lo) - V(hi)
    bound = 1 + max((abs(c / p[-1]) for c in p[:-1]), default=ZERO)
    candidates = {1}
    todo = [(ZERO, _sign_changes(chain, ZERO), bound, _sign_changes(chain, bound))]
    while todo:
        lo, v_lo, hi, v_hi = todo.pop()
        if v_lo == v_hi:
            continue
        if hi - lo < 1:
            candidates.update(range(floor(lo) + 1, floor(hi) + 2))
            continue
        mid = (lo + hi) / 2
        v_mid = _sign_changes(chain, mid)
        todo += [(lo, v_lo, mid, v_mid), (mid, v_mid, hi, v_hi)]
    # with a positive leading coefficient P is positive for large m
    return all(_poly_eval(p, m) >= 0 for m in candidates), True


def _forall_le(f, fs: int, g, gs: int) -> tuple:
    """(f.gap(m+fs) <= g.gap(m+gs) for all m >= 1, strict somewhere)."""
    fn, fd = f.rational
    gn, gd = g.rational
    fn, fd = _poly_shift(fn, fs), _poly_shift(fd, fs)
    gn, gd = _poly_shift(gn, gs), _poly_shift(gd, gs)
    # want gn/gd - fn/fd >= 0 with both denominators positive on m >= 1
    diff = _poly_sub(_poly_mul(gn, fd), _poly_mul(fn, gd))
    return _poly_nonneg_all(diff)


# ===================================================================
# Components
# ===================================================================

LEFT, RIGHT, BOTH = "left", "right", "both"
_DIRECTIONS = (LEFT, RIGHT, BOTH)

OPEN, CLOSED, LEFT_CLOSED, RIGHT_CLOSED = "open", "closed", "left-closed", "right-closed"
_TOPOLOGIES = (OPEN, CLOSED, LEFT_CLOSED, RIGHT_CLOSED)


@frozen
class GapSequence:
    """Anchor point with gap-rule sides walking left and/or right; with no
    side it is the anchor alone."""

    anchor: Scalar
    left: Optional[GapProgram] = None
    right: Optional[GapProgram] = None


def FinitePoints(points: tuple) -> GapSequence:
    """The finite set of the strictly increasing ``points``: a gap sequence
    anchored at the first whose explicit right side lists the gaps, or the
    bare anchor for a single point."""
    if not points:
        raise SpaceError("FinitePoints must be nonempty")
    gaps = tuple(b - a for a, b in zip(points, points[1:]))
    if any(g <= 0 for g in gaps):
        raise SpaceError("FinitePoints must be strictly increasing")
    return GapSequence(points[0], right=ExplicitGaps(gaps) if gaps else None)


def ArithmeticProgression(anchor: Scalar, step: Scalar, direction: str) -> GapSequence:
    """The members anchor + k*step for k >= 0 (right), k <= 0 (left) or
    every integer k (both): a gap sequence with ``const(step)`` sides."""
    if step <= 0:
        raise SpaceError("progression step must be positive")
    if direction not in _DIRECTIONS:
        raise SpaceError(f"bad direction {direction!r}")
    side = ConstantGaps(step)
    return GapSequence(
        anchor, left=None if direction == RIGHT else side, right=None if direction == LEFT else side
    )


@frozen
class PeriodicIntervals:
    length: Scalar
    gap: Scalar
    anchor: Scalar
    topology: str
    direction: str

    def __post_init__(self):
        if self.length <= 0:
            raise SpaceError("periodic intervals need positive length")
        if self.gap < 0 or (self.gap == 0 and self.topology != OPEN):
            # Zero gap means consecutive intervals share an endpoint; only
            # open intervals exclude it, keeping the pieces disjoint.
            raise SpaceError("interval gap must be positive (zero only for open intervals)")
        if self.topology not in _TOPOLOGIES:
            raise SpaceError(f"bad topology {self.topology!r}")
        if self.direction not in _DIRECTIONS:
            raise SpaceError(f"bad direction {self.direction!r}")

    @property
    def period(self) -> Scalar:
        return self.length + self.gap

    def interval_at(self, k: int) -> Interval:
        lo = self.anchor + k * self.period
        hi = lo + self.length
        lo_closed = self.topology in (CLOSED, LEFT_CLOSED)
        hi_closed = self.topology in (CLOSED, RIGHT_CLOSED)
        return Interval(Endpoint(lo, lo_closed), Endpoint(hi, hi_closed))


@frozen
class IntervalList:
    intervals: tuple

    def __post_init__(self):
        if not self.intervals:
            raise SpaceError("IntervalList must be nonempty")
        for ivl in self.intervals:
            if not ivl.bounded:
                raise SpaceError("IntervalList entries must be bounded (use HalfLine)")
        for a, b in zip(self.intervals, self.intervals[1:]):
            if not (a.hi.value < b.lo.value or (a.hi.value == b.lo.value and not (a.hi.closed and b.lo.closed))):
                raise SpaceError("IntervalList entries must be sorted and disjoint")


@frozen
class HalfLine:
    endpoint: Endpoint
    direction: str  # the direction the line extends: left -> (-inf, e), right -> (e, +inf)

    def __post_init__(self):
        if not is_finite(self.endpoint.value):
            raise SpaceError("half-line endpoint must be finite")
        if self.direction not in (LEFT, RIGHT):
            raise SpaceError("half-line direction must be left or right")

    def as_interval(self) -> Interval:
        if self.direction == RIGHT:
            return Interval(self.endpoint, Endpoint(POS_INF, False))
        return Interval(Endpoint(NEG_INF, False), self.endpoint)


Component = Union[GapSequence, PeriodicIntervals, IntervalList, HalfLine]

_INTERVAL_KINDS = (PeriodicIntervals, IntervalList, HalfLine)


# --- declared metadata ----------------------------------------------

ATTAINED, UNATTAINED, UNBOUNDED = "attained", "unattained", "unbounded"


@frozen
class BoundDecl:
    kind: str  # attained | unattained | unbounded
    value: Optional[Scalar] = None

    def __post_init__(self):
        if self.kind not in (ATTAINED, UNATTAINED, UNBOUNDED):
            raise SpaceError(f"bad bound declaration {self.kind!r}")
        if self.kind == UNBOUNDED and self.value is not None:
            raise SpaceError("unbounded declaration carries no value")
        if self.kind != UNBOUNDED and self.value is None:
            raise SpaceError(f"{self.kind} declaration needs a value")


@frozen
class SubspaceDescription:
    components: tuple
    accumulation: Optional[tuple] = None  # None = undeclared; () = declared none
    bound_below: Optional[BoundDecl] = None
    bound_above: Optional[BoundDecl] = None

    def __post_init__(self):
        if not self.components:
            raise SpaceError("a subspace needs at least one component")

    @property
    def discrete(self) -> bool:
        return all(isinstance(c, GapSequence) for c in self.components)


# ===================================================================
# Per-component symbolic facts
# ===================================================================


@frozen
class BoundInfo:
    bounded: bool
    value: Optional[Scalar] = None
    attained: Optional[bool] = None


@frozen
class Bounds:
    below: BoundInfo
    above: BoundInfo

    @property
    def bounded(self) -> bool:
        return self.below.bounded and self.above.bounded


def _side_bound(anchor: Scalar, program: Optional[GapProgram], sign: int) -> BoundInfo:
    """The bound of a gap sequence on one side of its anchor: the anchor
    when there is no side, the last member of a finite side, the limit of a
    convergent side, which no member attains, or none for a divergent side."""
    if program is None:
        return BoundInfo(True, anchor, True)
    if program.finite or program.converges:
        return BoundInfo(True, anchor + sign * program.total, program.finite)
    return BoundInfo(False)


def component_bounds(comp: Component) -> Bounds:
    if isinstance(comp, GapSequence):
        return Bounds(
            _side_bound(comp.anchor, comp.left, -1), _side_bound(comp.anchor, comp.right, 1)
        )
    if isinstance(comp, PeriodicIntervals):
        first = comp.interval_at(0)
        below = (
            BoundInfo(True, first.lo.value, first.lo.closed)
            if comp.direction == RIGHT
            else BoundInfo(False)
        )
        above = (
            BoundInfo(True, first.hi.value, first.hi.closed)
            if comp.direction == LEFT
            else BoundInfo(False)
        )
        return Bounds(below, above)
    if isinstance(comp, IntervalList):
        lo = comp.intervals[0].lo
        hi = comp.intervals[-1].hi
        return Bounds(BoundInfo(True, lo.value, lo.closed), BoundInfo(True, hi.value, hi.closed))
    if isinstance(comp, HalfLine):
        if comp.direction == RIGHT:
            return Bounds(BoundInfo(True, comp.endpoint.value, comp.endpoint.closed), BoundInfo(False))
        return Bounds(BoundInfo(False), BoundInfo(True, comp.endpoint.value, comp.endpoint.closed))
    raise SpaceError(f"unknown component {comp!r}")


def component_accumulation(comp: Component) -> tuple:
    """Exact accumulation points contributed by one component: the limits of
    its convergent gap-sequence sides, the only side bounds not attained."""
    if not isinstance(comp, GapSequence):
        return ()
    b = component_bounds(comp)
    return tuple(side.value for side in (b.below, b.above) if side.bounded and not side.attained)


def is_bounded(space: SubspaceDescription) -> Bounds:
    """Exact boundedness with attainment, decided from the symbolic description."""
    infos = [component_bounds(c) for c in space.components]
    if any(not b.below.bounded for b in infos):
        below = BoundInfo(False)
    else:
        lo = min(b.below.value for b in infos)
        attained = any(b.below.value == lo and b.below.attained for b in infos)
        below = BoundInfo(True, lo, attained)
    if any(not b.above.bounded for b in infos):
        above = BoundInfo(False)
    else:
        hi = max(b.above.value for b in infos)
        attained = any(b.above.value == hi and b.above.attained for b in infos)
        above = BoundInfo(True, hi, attained)
    return Bounds(below, above)


def accumulation_points(space: SubspaceDescription) -> tuple:
    """Exact accumulation points (decidable: only telescoping sides create them)."""
    acc = []
    for comp in space.components:
        acc.extend(component_accumulation(comp))
    return tuple(sorted(set(acc)))


def hull(space: SubspaceDescription) -> Interval:
    """The points lying metrically between two members: the spanned interval.

    Endpoints are closed exactly when the extremum is attained; infinite
    sides are open.
    """
    b = is_bounded(space)
    if b.below.bounded:
        lo = Endpoint(b.below.value, bool(b.below.attained))
    else:
        lo = Endpoint(NEG_INF, False)
    if b.above.bounded:
        hi = Endpoint(b.above.value, bool(b.above.attained))
    else:
        hi = Endpoint(POS_INF, False)
    if (
        b.below.bounded
        and b.above.bounded
        and b.below.value == b.above.value
    ):
        return Interval.point(b.below.value)
    return Interval(lo, hi)


# ===================================================================
# Gap-sequence sides
# ===================================================================


# Every side is read through ``_max_n_with_sum_below``, ``partial`` and
# ``side_points``: a closed-sum rule in closed form at any distance from
# its anchor, an explicit side from its list. A rule without closed sums
# (``recip``, or an ``alt`` with a ``recip`` atom) is first walked out to
# the offset asked about, and read as the explicit side that lists it.


def _walk(program: GapProgram, bound: Scalar, strict: bool, cap: int) -> Optional[ExplicitGaps]:
    """The explicit side listing a rule's gaps out to the first partial
    sum past the bound (at or past it, when strict), or None when ``cap``
    steps do not get there. The walk's running sums are handed over as the
    side's ``sums``."""
    past = operator.ge if strict else operator.gt
    gaps, sums, total = [], [], ZERO
    for n in range(1, cap + 1):
        gap = program.gap(n)
        total += gap
        gaps.append(gap)
        sums.append(total)
        if past(total, bound):
            side = ExplicitGaps(tuple(gaps))
            object.__setattr__(side, "sums", tuple(sums))
            return side
    return None


# ===================================================================
# Membership
# ===================================================================


def _side_member(anchor: Scalar, program: Optional[GapProgram], sign: int, x: Scalar, cap: int) -> bool:
    """Is x a non-anchor member of the given side? The last partial sum at
    or below x's offset from the anchor must equal it."""
    if program is None:
        return False
    offset = x - anchor if sign > 0 else anchor - x
    if program.converges and offset >= program.total:
        return False  # at or beyond the limit
    if not program.closed_sums:
        program = _walk(program, offset, True, cap)
        if program is None:
            raise RuleDivergence(f"membership test for {format_scalar(x)} exceeded {cap} steps")
    n = _max_n_with_sum_below(program, offset, False)
    return n > 0 and program.partial(n) == offset


def component_contains(comp: Component, x: Scalar, cap: int = DEFAULT_CAP) -> bool:
    if isinstance(comp, GapSequence):
        if x == comp.anchor:
            return True
        if x > comp.anchor:
            return _side_member(comp.anchor, comp.right, +1, x, cap)
        return _side_member(comp.anchor, comp.left, -1, x, cap)
    if isinstance(comp, _INTERVAL_KINDS):
        return any(ivl.contains(x) for ivl in intervals_near(comp, x))
    raise SpaceError(f"unknown component {comp!r}")


def intervals_near(comp: Component, x: Scalar) -> tuple:
    """The intervals of a component that can hold x, or a stretch starting
    at x: of a periodic family, those of the period holding x and of its
    two neighbours within the direction; none of a discrete component."""
    if isinstance(comp, PeriodicIntervals):
        k = ((x - comp.anchor) / comp.period).__floor__()
        return tuple(
            comp.interval_at(kk)
            for kk in (k - 1, k, k + 1)
            if not (comp.direction == RIGHT and kk < 0 or comp.direction == LEFT and kk > 0)
        )
    if isinstance(comp, IntervalList):
        return comp.intervals
    if isinstance(comp, HalfLine):
        return (comp.as_interval(),)
    return ()


def contains(space: SubspaceDescription, x: Scalar, cap: int = DEFAULT_CAP) -> bool:
    """Exact membership test."""
    return any(component_contains(c, x, cap) for c in space.components)


# ===================================================================
# Materialization
# ===================================================================


@frozen
class Fragment:
    """A clipped interval piece of the space inside a window.

    Artificial flags mark clip points created by the window edge; checks
    must never treat those as real endpoints of the space.
    """

    interval: Interval
    lo_artificial: bool = False
    hi_artificial: bool = False


def in_sorted(values, x) -> bool:
    """Whether x is an entry of the ascending sequence ``values``."""
    i = bisect.bisect_left(values, x)
    return i < len(values) and values[i] == x


def float_ratio(n: int, d: int) -> float:
    """n / d for d > 0, rounded once to a float, or an infinity of its sign
    past the float range. CPython divides ints with correct rounding, so
    the result is monotone in the exact ratio: n/d <= m/e gives
    float_ratio(n, d) <= float_ratio(m, e)."""
    try:
        return n / d
    except OverflowError:
        return inf if n > 0 else -inf


def _float_key(x: Scalar) -> float:
    """The monotone float key of an int or Fraction (see ``float_ratio``)."""
    return float_ratio(x.numerator, x.denominator)


def _locate(points, keys, x) -> int:
    """bisect_left(points, x) for ascending ``points`` whose float keys are
    ``keys``. The key is monotone, so an entry whose key is below x's is
    below x and one whose key is above is above: only the run of entries
    whose keys tie with x's is compared exactly."""
    fx = _float_key(x)
    return bisect.bisect_left(points, x, bisect.bisect_left(keys, fx), bisect.bisect_right(keys, fx))


@frozen
class Materialization:
    """The points and clipped fragments of a space inside a window.

    ``component_points`` holds, per component of the description and in
    its order, the sorted points of a discrete component and None for an
    interval kind. Inside the window and outside every truncation zone the
    materialization is exact: a value there is a member exactly when it is
    a point or lies in a fragment, and two neighbours in a component's
    points, or in ``points`` when no component is an interval kind, are
    adjacent members when no zone lies between them. ``member`` and
    ``members`` answer membership from it there and None elsewhere;
    ``indices`` and ``blocked`` give index shifts along the points.

    Lookups find x in a sorted point tuple by a shadow ``array('d')`` of
    the points' float keys (``_float_key``): ``materialize`` stores the
    keys of ``points`` and of each component's points, one float per point.
    The key is monotone, so bisecting the floats
    brackets x's place exactly and only points whose floats equal x's are
    compared as Fractions: lookups give the index plain bisection gives.
    The window edges and the zone ends have keys too, and decide where the
    materialization is exact the same way.
    """

    window: Window
    points: tuple  # sorted Scalars
    fragments: tuple  # sorted Fragments
    component_points: tuple  # per component: sorted Scalars, or None
    truncated_near: tuple = ()  # accumulation values where the cap hit
    truncation_zones: tuple = ()  # open intervals the enumeration left uncovered
    # float keys per point tuple: None for ``points``, else the component
    # index; a leading underscore keeps it out of ==, hash and repr
    _float_keys: Optional[dict] = None

    def __post_init__(self):
        if self._float_keys is None:
            object.__setattr__(self, "_float_keys", {})

    @property
    def truncated(self) -> bool:
        return bool(self.truncated_near)

    @property
    def empty(self) -> bool:
        return not self.points and not self.fragments

    @cached_property
    def _edge_keys(self) -> tuple:
        """The float keys of the window edges, and each zone with the keys of its ends."""
        zones = tuple((_float_key(z.lo.value), _float_key(z.hi.value), z) for z in self.truncation_zones)
        return _float_key(self.window.lo), _float_key(self.window.hi), zones

    def _exact_at(self, x: Scalar, fx: float) -> bool:
        """Whether x, whose float key is fx, lies in the window and in no
        zone. Fractions are compared only where fx ties with an edge key."""
        lo, hi, zones = self._edge_keys
        if fx < lo or fx > hi or fx == lo and x < self.window.lo or fx == hi and x > self.window.hi:
            return False
        return not any(
            zlo <= fx <= zhi and (fx != zlo or x > z.lo.value) and (fx != zhi or x < z.hi.value)
            for zlo, zhi, z in zones
        )

    def _point_keys(self, component: Optional[int]) -> array:
        """The float keys of a discrete component's points, or of ``points`` for None."""
        keys = self._float_keys.get(component)
        if keys is None:
            points = self.points if component is None else self.component_points[component]
            keys = self._float_keys[component] = array("d", map(_float_key, points))
        return keys

    def scope_points(self, component: Optional[int]) -> Optional[tuple]:
        """The sorted points an index shift steps along: a discrete
        component's, or every point for None; None where the scope has an
        interval kind, so adjacency is undefined."""
        if component is None:
            return None if None in self.component_points else self.points
        return self.component_points[component]

    def indices(self, component: Optional[int], xs, keys) -> array:
        """The index of each of ``xs``, whose float keys are ``keys``, in
        the sorted points of a discrete component, or in ``points`` for
        None; -1 where it is not one."""
        points = self.points if component is None else self.component_points[component]
        pkeys, out = self._point_keys(component), array("q")
        for x, fx in zip(xs, keys):
            j = bisect.bisect_left(pkeys, fx)
            tied = bisect.bisect_right(pkeys, fx, j)  # points[j:tied] share x's key
            if tied - j > 1:
                j = bisect.bisect_left(points, x, j, tied)
            out.append(j if j < tied and (points[j] is x or points[j] == x) else -1)
        return out

    def blocked(self, component: Optional[int], steps: int) -> list:
        """The index ranges [lo, hi) of the scope's points from which a
        shift by ``steps`` would meet a truncation zone on its way."""
        points, keys = self.scope_points(component), self._point_keys(component)
        out = []
        for z in self.truncation_zones:
            u = _locate(points, keys, z.lo.value)
            u += u < len(points) and points[u] == z.lo.value  # points at or below the zone
            v = _locate(points, keys, z.hi.value)  # points below the zone's end
            out.append((u - steps, v) if steps >= 0 else (u, v - steps))
        return out

    def member(self, x: Scalar) -> Optional[bool]:
        """Whether x is a member of the space; None when the
        materialization does not decide it."""
        return self.members((x,))[0]

    def members(self, xs) -> list:
        """``member`` in the whole space for each of ``xs``."""
        keys = array("d", map(_float_key, xs))
        return [
            None if not self._exact_at(x, fx) else i >= 0 or self._in_fragment(x)
            for x, fx, i in zip(xs, keys, self.indices(None, xs, keys))
        ]

    def _in_fragment(self, x: Scalar) -> bool:
        i = bisect.bisect_right(self.fragments, x, key=lambda f: f.interval.lo.value)
        # fragments are disjoint, but one with an open end at x may follow
        # one with a closed end there
        return any(f.interval.contains(x) for f in self.fragments[max(i - 2, 0) : i])


def _materialize_points(comp: GapSequence, window: Window, cap: int) -> tuple:
    """(points, truncated_near, truncation_zones) for a gap sequence, with
    the points ascending.

    Each side is listed by the index range of its members in the window.
    A rule side lists at most ``cap`` of them: a divergent side with more
    is refused, and a convergent side whose ``cap``-th member lies in the
    window is cut there, leaving the stretch to its limit uncovered. A
    walked side must also leave the window within ``cap`` steps. An
    explicit side is listed whole.
    """
    lo, hi = window.lo, window.hi
    truncated = []
    zones = []

    def side(program: Optional[GapProgram], sign: int) -> list:
        """The side's window points, outward."""
        if program is None:
            return []
        near, far = (lo, hi) if sign > 0 else (hi, lo)
        bound = sign * (far - comp.anchor)
        listed = program
        if program.converges:
            limit = comp.anchor + sign * program.total
            if sign * (limit - near) <= 0:
                return []  # the whole side lies short of the window
            reach = program.partial(cap)
            if reach <= bound:  # the cap-th member does not pass the far edge
                bound = reach
                truncated.append(limit)
                pos = comp.anchor + sign * reach
                zones.append(Interval.open(limit, pos) if sign < 0 else Interval.open(pos, limit))
        elif not program.closed_sums:
            listed = _walk(program, bound, False, cap)
            if listed is None:
                raise RuleDivergence(
                    f"gap rule {program} did not reach the edge {format_scalar(far)} in {cap} steps"
                )
        # members first..last lie in the window
        last = _max_n_with_sum_below(listed, bound, False)
        first = _max_n_with_sum_below(listed, sign * (near - comp.anchor), True) + 1
        if not listed.finite and last - first >= cap:
            raise RuleDivergence(f"gap rule {program} puts more than {cap} points in {window}")
        return listed.side_points(comp.anchor, sign, first, last)

    right = side(comp.right, +1)
    left = side(comp.left, -1)
    left.reverse()
    if lo <= comp.anchor <= hi:
        left.append(comp.anchor)
    return tuple(left + right), tuple(truncated), tuple(zones)


def _clip_interval(ivl: Interval, window: Window) -> Optional[Fragment]:
    lo_e, hi_e = ivl.lo, ivl.hi
    lo_art = hi_art = False
    if isinstance(lo_e.value, Infinity) or lo_e.value < window.lo:
        lo_e = Endpoint(window.lo, True)
        lo_art = True
    if isinstance(hi_e.value, Infinity) or hi_e.value > window.hi:
        hi_e = Endpoint(window.hi, True)
        hi_art = True
    if lo_e.value > hi_e.value:
        return None
    if lo_e.value == hi_e.value and not (lo_e.closed and hi_e.closed):
        return None
    return Fragment(Interval(lo_e, hi_e), lo_art, hi_art)


def _materialize_fragments(comp: Component, window: Window, cap: int) -> list:
    if isinstance(comp, PeriodicIntervals):
        p = comp.period
        k_lo = -((comp.anchor - window.lo) / p).__floor__() - 1
        k_hi = ((window.hi - comp.anchor) / p).__floor__() + 1
        if comp.direction == RIGHT:
            k_lo = max(k_lo, 0)
        if comp.direction == LEFT:
            k_hi = min(k_hi, 0)
        if k_hi - k_lo + 1 > cap:
            raise RuleDivergence(f"period {format_scalar(p)} puts more than {cap} intervals in {window}")
        out = []
        for k in range(k_lo, k_hi + 1):
            frag = _clip_interval(comp.interval_at(k), window)
            if frag is not None:
                out.append(frag)
        return out
    if isinstance(comp, IntervalList):
        out = []
        for ivl in comp.intervals:
            frag = _clip_interval(ivl, window)
            if frag is not None:
                out.append(frag)
        return out
    if isinstance(comp, HalfLine):
        frag = _clip_interval(comp.as_interval(), window)
        return [frag] if frag is not None else []
    raise SpaceError(f"not an interval component: {comp!r}")


# A check, its map's samples and the classifier's probes ask for the same
# window in turn. A few entries serve them; more would only pin large point
# tuples in memory for the rest of the process.
@lru_cache(maxsize=4)
def materialize(space: SubspaceDescription, window: Window, cap: int = DEFAULT_CAP) -> Materialization:
    """Exactly the points and clipped interval fragments of A inside the window.

    Raises EmptyWindow when nothing intersects, RuleDivergence when a
    divergent gap rule cannot reach the window edge within the cap.
    Convergent rules whose accumulation point lies inside the window are
    truncated at the cap and flagged in ``truncated_near``.
    """
    points: list = []
    fragments: list = []
    truncated: list = []
    zones: list = []
    per_component: list = []
    sources = []  # the components that supply points
    listed = {}  # gap sequence -> where its points start in ``points``
    for c, comp in enumerate(space.components):
        if isinstance(comp, GapSequence):
            pts, trunc, zs = _materialize_points(comp, window, cap)
            per_component.append(pts)
            listed[c] = len(points)
            points.extend(pts)
            truncated.extend(trunc)
            zones.extend(zs)
            sources.append(c)
        else:
            per_component.append(None)
            frags = _materialize_fragments(comp, window, cap)
            for frag in frags:
                if frag.interval.degenerate:
                    points.append(frag.interval.lo.value)
                    sources.append(None)
                else:
                    fragments.append(frag)
    if len(sources) == 1 and sources[0] is not None:
        # one gap sequence lists every point, already ascending
        points = per_component[sources[0]]
        keys = array("d", map(_float_key, points))
        float_keys = {None: keys, sources[0]: keys}
    else:
        # by float key; Fractions are compared only in a run of tied keys,
        # which holds any two equal points
        unsorted = list(map(_float_key, points))
        order = sorted(range(len(points)), key=unsorted.__getitem__)
        points = [points[i] for i in order]
        keys = array("d", [unsorted[i] for i in order])
        start = 0
        for i in range(1, len(points) + 1):
            if i < len(points) and keys[i] == keys[start]:
                continue
            if i - start > 1:
                run = points[start:i] = sorted(points[start:i])
                for a, b in zip(run, run[1:]):
                    if a == b:
                        raise SpaceError(f"components overlap at point {format_scalar(a)}")
            start = i
        float_keys = {None: keys}
        for c, at in listed.items():  # a gap sequence's points keep their keys
            float_keys[c] = array("d", unsorted[at : at + len(per_component[c])])
    fragments.sort(key=lambda f: (f.interval.lo.value, f.interval.hi.value))
    for a, b in zip(fragments, fragments[1:]):
        if a.interval.overlaps(b.interval):
            raise SpaceError(f"components overlap on {a.interval} and {b.interval}")
    # one merge: the fragments are disjoint and sorted, so only the first
    # one that ends at or after p, and one that starts where it ends, can hold p
    i = 0
    for p in points:
        while i < len(fragments) and fragments[i].interval.hi.value < p:
            i += 1
        for f in fragments[i : i + 2]:
            if f.interval.contains(p):
                raise SpaceError(f"point {format_scalar(p)} lies inside fragment {f.interval}")
    result = Materialization(
        window=window,
        points=tuple(points),
        fragments=tuple(fragments),
        component_points=tuple(per_component),
        truncated_near=tuple(sorted(set(truncated))),
        truncation_zones=tuple(sorted(zones, key=lambda z: z.lo.value)),
        _float_keys=float_keys,
    )
    if result.empty:
        raise EmptyWindow(f"no part of the space lies in {window}")
    return result


# ===================================================================
# Adjacency (successor / predecessor of a member)
# ===================================================================


def _component_next(comp: Component, x: Scalar, cap: int, toward: int):
    """(candidate, blocking) for one component, looking from x upward
    (``toward`` 1) or downward (-1): the nearest member beyond x if
    attained, and the limit that the members beyond x approach when there
    is no nearest one (else None)."""
    if isinstance(comp, _INTERVAL_KINDS):
        raise NotDiscrete("adjacency is only defined on discrete spaces")
    nearer = operator.lt if toward > 0 else operator.gt
    best = comp.anchor if nearer(x, comp.anchor) else None
    blocking = None
    for program, sign in ((comp.right, 1), (comp.left, -1))[::toward]:
        if program is None:
            continue
        offset = x - comp.anchor if sign > 0 else comp.anchor - x
        outward = sign == toward  # looking away from the anchor
        if program.converges and offset >= program.total:
            if not outward:
                # every member of the side lies beyond x, crowding to its limit
                blocking = comp.anchor + sign * program.total
            continue
        if not program.closed_sums:
            program = _walk(program, offset, not outward, cap)
            if program is None:
                search = "successor" if toward > 0 else "predecessor"
                raise RuleDivergence(f"{search} search for {format_scalar(x)} exceeded {cap} steps")
        # the n-th member from the anchor is anchor + sign*S(n)
        n = _max_n_with_sum_below(program, offset, not outward) + outward
        if not n or program.finite and n > len(program.sums):
            continue
        gap_sum = program.partial(n)
        cand = comp.anchor + gap_sum if sign > 0 else comp.anchor - gap_sum
        if best is None or nearer(cand, best):
            best = cand
    return best, blocking


def _next_member(space: SubspaceDescription, x: Scalar, cap: int, toward: int) -> Optional[Scalar]:
    """The member nearest to x beyond it, upward or downward; None when
    there is none or members crowd toward x without a nearest one."""
    nearer = operator.lt if toward > 0 else operator.gt
    best = None
    blockers = []
    for comp in space.components:
        cand, blocking = _component_next(comp, x, cap, toward)
        if cand is not None and (best is None or nearer(cand, best)):
            best = cand
        if blocking is not None:
            blockers.append(blocking)
    for b in blockers:
        if best is None or nearer(b, best):
            return None  # members crowd to b: none is nearest to x
    return best


def successor(space: SubspaceDescription, x: Scalar, cap: int = DEFAULT_CAP) -> Optional[Scalar]:
    """The smallest member strictly above x, or None when no such minimum exists."""
    return _next_member(space, x, cap, 1)


def predecessor(space: SubspaceDescription, x: Scalar, cap: int = DEFAULT_CAP) -> Optional[Scalar]:
    """The largest member strictly below x, or None when no such maximum exists."""
    return _next_member(space, x, cap, -1)


# ===================================================================
# Gap spectrum
# ===================================================================


@frozen
class GapSpectrum:
    """The distances between adjacent members, with multiplicities.

    ``entries`` is the full list when ``complete`` is true; otherwise it
    lists only the attained extremal gaps and min_entry/max_entry say
    whether an extremum exists at all (None = no minimum / no maximum).
    Windowed spectra have exactness="window-lower-bound": their counts are
    lower bounds for the true multiplicities.
    """

    entries: tuple  # ((gap, multiplicity), ...) strictly increasing in gap
    exactness: str  # "exact" | "window-lower-bound"
    complete: bool
    min_entry: Optional[tuple] = None
    max_entry: Optional[tuple] = None

    def __post_init__(self):
        gaps = [g for g, _ in self.entries]
        if any(a >= b for a, b in zip(gaps, gaps[1:])):
            raise SpaceError("spectrum gaps must be strictly increasing")


@frozen
class SequenceView:
    """A discrete space flattened to one doubly-indexed point sequence.

    ``points`` are the finitely many explicitly placed members (component
    anchors, finite parts, junction neighbours), ascending. ``left`` and
    ``right`` are the infinite tail rules hanging off points[0] downward
    and points[-1] upward (None = the space ends there).
    """

    points: tuple
    left: Optional[GapProgram]
    right: Optional[GapProgram]

    @property
    def middle_gaps(self) -> tuple:
        return tuple(b - a for a, b in zip(self.points, self.points[1:]))


def sequence_view(space: SubspaceDescription) -> Optional[SequenceView]:
    """Flatten a discrete, separated, accumulation-free space to a sequence.

    Returns None when the space has interval parts, accumulation points, or
    components whose hulls interleave (no global adjacent-gap structure that
    the symbolic analysis can certify).
    """
    if not space.discrete:
        return None
    if accumulation_points(space):
        return None
    ordered = sorted(space.components, key=lambda c: _hull_key(c))
    left_tail: Optional[GapProgram] = None
    right_tail: Optional[GapProgram] = None
    points: list = []
    last_sup = None
    for idx, comp in enumerate(ordered):
        b = component_bounds(comp)
        first = idx == 0
        last = idx == len(ordered) - 1
        if not b.below.bounded:
            if not first:
                return None
        if not b.above.bounded:
            if not last:
                return None
        if last_sup is not None and b.below.bounded and b.below.value <= last_sup:
            return None  # interleaved or touching components
        if b.above.bounded:
            last_sup = b.above.value

        # explicit sides unfold into points, rule sides become tails
        points.append(comp.anchor)
        for program, sign in ((comp.left, -1), (comp.right, 1)):
            if program is not None and program.finite:
                points.extend(comp.anchor + sign * s for s in program.sums)
        if comp.left is not None and not comp.left.finite:
            if not first:
                return None
            left_tail = comp.left
        if comp.right is not None and not comp.right.finite:
            if not last:
                return None
            right_tail = comp.right
    points.sort()
    if any(a >= b for a, b in zip(points, points[1:])):
        return None
    return SequenceView(tuple(points), left_tail, right_tail)


def _hull_key(comp: Component):
    b = component_bounds(comp)
    lo = b.below.value if b.below.bounded else NEG_INF
    if isinstance(lo, Infinity):
        return (-1, ZERO)
    return (0, lo)


def _symbolic_spectrum(space: SubspaceDescription) -> Optional[GapSpectrum]:
    view = sequence_view(space)
    if view is None:
        return None
    middle = list(view.middle_gaps)
    tails = [t for t in (view.left, view.right) if t is not None]

    def count_of(v: Scalar) -> Multiplicity:
        return sum(1 for g in middle if g == v) + sum(t.count_of(v) for t in tails)

    # Each extreme over the middle gaps and the tails' attained extremes; a
    # tail whose gaps only approach their bound leaves none.
    extremes = []
    for pick, name in ((min, "minimum"), (max, "maximum")):
        attained = [getattr(t, name)() for t in tails]
        candidates = middle + [m[0] for m in attained if m is not None]
        if None in attained or not candidates:
            extremes.append(None)
        else:
            best = pick(candidates)
            extremes.append((best, count_of(best)))
    min_entry, max_entry = extremes

    # Complete enumeration is possible when every tail repeats finitely many
    # distinct gaps (constant atoms only).
    supports = [t.support for t in tails]
    if all(s is not None for s in supports):
        values = set(middle)
        for s in supports:
            values |= s
        entries = tuple((v, count_of(v)) for v in sorted(values))
        return GapSpectrum(entries, "exact", True, min_entry, max_entry)
    entries = []
    if min_entry is not None:
        entries.append(min_entry)
    if max_entry is not None and (not entries or max_entry[0] != entries[0][0]):
        entries.append(max_entry)
    return GapSpectrum(tuple(sorted(entries)), "exact", False, min_entry, max_entry)


def gap_spectrum(
    space: SubspaceDescription,
    window: Optional[Window] = None,
    cap: int = DEFAULT_CAP,
) -> GapSpectrum:
    """Adjacent-gap distances with multiplicities.

    With no window: the exact symbolic spectrum when the space flattens to a
    sequence view, else the windowed fallback on the default window. With a
    window: gaps realized by adjacent materialized pairs, exactness flagged
    as a lower bound (pairs straddling an enumeration truncation are
    dropped: they are cap artifacts, not adjacencies).
    """
    if not space.discrete:
        raise NotDiscrete("gap spectrum needs a space without interval parts")
    if window is None:
        spectrum = _symbolic_spectrum(space)
        if spectrum is not None:
            return spectrum
        window = DEFAULT_WINDOW
    mat = materialize(space, window, cap)
    counts: dict = {}
    for a, b in zip(mat.points, mat.points[1:]):
        if any(a < t < b for t in mat.truncated_near):
            continue
        if a < b and any(z.overlaps(Interval.open(a, b)) for z in mat.truncation_zones):
            continue
        counts[b - a] = counts.get(b - a, 0) + 1
    entries = tuple(sorted(counts.items()))
    min_entry = entries[0] if entries else None
    max_entry = entries[-1] if entries else None
    return GapSpectrum(entries, "window-lower-bound", True, min_entry, max_entry)


# ===================================================================
# Ball census
# ===================================================================


def ball_census(
    space: SubspaceDescription,
    center: Scalar,
    radius: Scalar,
    window: Window,
    cap: int = DEFAULT_CAP,
) -> int:
    """Number of members strictly within ``radius`` of ``center`` (open ball).

    The closed ball span must fit inside the window and must not contain a
    truncated accumulation tail, otherwise the count would not be exact and
    WindowTooSmall is raised.
    """
    if radius <= 0:
        raise SpaceError("ball radius must be positive")
    if center - radius < window.lo or center + radius > window.hi:
        raise WindowTooSmall(f"ball around {format_scalar(center)} leaves {window}")
    mat = materialize(space, window, cap)
    lo, hi = center - radius, center + radius
    ball = Interval.open(lo, hi)
    for f in mat.fragments:
        if f.interval.overlaps(ball):
            raise NotDiscrete("open ball meets an interval fragment; the census is infinite")
    for t in mat.truncated_near:
        if lo <= t <= hi:
            # points pile up against t; if any of that tail is inside, the count is wrong
            raise WindowTooSmall(
                f"ball touches accumulation point {format_scalar(t)}; census would be truncated"
            )
    for zone in mat.truncation_zones:
        if zone.overlaps(ball):
            raise WindowTooSmall(
                f"ball overlaps the unenumerated stretch {zone}; raise the cap for an exact census"
            )
    return sum(1 for p in mat.points if abs(p - center) < radius)


# ===================================================================
# Metadata validation
# ===================================================================


@frozen
class MetaCheck:
    declaration: str
    passed: bool
    evidence: str
    witness: Optional[tuple] = None


@frozen
class MetadataReport:
    window: Window
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [f"metadata validation on {self.window}"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"  [{status}] {c.declaration}: {c.evidence}")
        if not self.checks:
            lines.append("  (no declarations)")
        return "\n".join(lines)


def validate_metadata(
    space: SubspaceDescription, window: Window = DEFAULT_WINDOW, cap: int = DEFAULT_CAP
) -> MetadataReport:
    """Check declared metadata against window evidence and symbolic facts."""
    checks = []
    mat = materialize(space, window, cap)
    sym_acc = accumulation_points(space)
    if space.accumulation is not None:
        if space.accumulation == ():
            # Declared: no accumulation points anywhere.
            if sym_acc:
                checks.append(
                    MetaCheck(
                        "no-accumulation",
                        False,
                        f"description accumulates at {format_scalar(sym_acc[0])}",
                        witness=(sym_acc[0],),
                    )
                )
            else:
                gaps = [b - a for a, b in zip(mat.points, mat.points[1:])]
                if gaps:
                    bound = min(gaps)
                    checks.append(
                        MetaCheck(
                            "no-accumulation",
                            True,
                            f"adjacent gaps on the window are >= {format_scalar(bound)}",
                        )
                    )
                else:
                    checks.append(MetaCheck("no-accumulation", True, "fewer than two points on the window"))
        else:
            for a in space.accumulation:
                if a in sym_acc:
                    checks.append(
                        MetaCheck(
                            f"accumulation at {format_scalar(a)}",
                            True,
                            "a convergent gap rule approaches the declared value (gap infimum 0)",
                        )
                    )
                else:
                    near = [p for p in mat.points if p != a]
                    witness = min(near, key=lambda p: abs(p - a)) if near else None
                    checks.append(
                        MetaCheck(
                            f"accumulation at {format_scalar(a)}",
                            False,
                            "no component accumulates there",
                            witness=(witness,) if witness is not None else None,
                        )
                    )
    bounds = is_bounded(space)

    def check_bound(decl: Optional[BoundDecl], info: BoundInfo, side: str):
        if decl is None:
            return
        name = f"bounded-{side}={decl.kind}" + (
            f"({format_scalar(decl.value)})" if decl.value is not None else ""
        )
        if decl.kind == UNBOUNDED:
            ok = not info.bounded
            ev = "description is unbounded on that side" if ok else (
                f"description is bounded by {format_scalar(info.value)}"
            )
        elif decl.kind == ATTAINED:
            ok = info.bounded and info.attained and info.value == decl.value
            ev = (
                "extremum matches and is attained"
                if ok
                else f"actual bound: {_bound_text(info)}"
            )
        else:
            ok = info.bounded and not info.attained and info.value == decl.value
            ev = (
                "extremum matches and is not attained"
                if ok
                else f"actual bound: {_bound_text(info)}"
            )
        checks.append(MetaCheck(name, ok, ev))

    check_bound(space.bound_below, bounds.below, "below")
    check_bound(space.bound_above, bounds.above, "above")
    return MetadataReport(window=window, checks=tuple(checks))


def _bound_text(info: BoundInfo) -> str:
    if not info.bounded:
        return "unbounded"
    word = "attained" if info.attained else "unattained"
    return f"{format_scalar(info.value)} ({word})"
