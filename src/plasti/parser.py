"""Line-oriented description files for spaces, maps and distance tables.

One directive per line, ``#`` starts a comment, blank lines are skipped.
Errors carry the offending line and column. The map grammar is symmetric:
``render_map`` prints any description in exactly the syntax ``parse_map``
accepts, which is how classification witnesses are reported.
"""

from __future__ import annotations

from typing import Optional

from .errors import ParseError, PlastiError
from .extend import INNER, OUTER, AugmentedSpace, FiniteSpace, matrix_from_pairs
from .gallery import gallery_map
from .maps import AffinePiece, IndexShift, MapDescription, Table
from .scalar import format_scalar, parse_extended, parse_scalar
from .space import (
    ATTAINED,
    UNATTAINED,
    UNBOUNDED,
    AffineGaps,
    AlternatingGaps,
    ArithmeticProgression,
    BoundDecl,
    ConstantGaps,
    Endpoint,
    ExplicitGaps,
    FinitePoints,
    GapSequence,
    HalfLine,
    Interval,
    IntervalList,
    PeriodicIntervals,
    ReciprocalGaps,
    SubspaceDescription,
    TelescopingGaps,
    is_finite,
)


def _lines(text: str):
    """Yield (line_number, stripped_body) for every directive line."""
    for num, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield num, body


def _split_directive(body: str, line: int) -> tuple:
    head, sep, rest = body.partition(":")
    if not sep or not head.strip() or " " in head.strip():
        raise ParseError("expected 'directive: arguments'", line, 1)
    return head.strip(), rest.strip()


def _fields(rest: str, line: int) -> dict:
    """Parse ``key=value`` tokens; duplicate keys are rejected."""
    out = {}
    for token in rest.split():
        key, sep, value = token.partition("=")
        if not sep or not key or not value:
            raise ParseError(f"expected key=value, got {token!r}", line, _col(rest, token))
        if key in out:
            raise ParseError(f"duplicate field {key!r}", line, _col(rest, token))
        out[key] = value
    return out


def _col(haystack: str, needle: str) -> int:
    pos = haystack.find(needle)
    return pos + 1 if pos >= 0 else 1


def _scalar(token: str, line: int, context: str) -> object:
    try:
        return parse_scalar(token)
    except ValueError as err:
        raise ParseError(f"{context}: {err}", line, 1) from None


def _need(fields: dict, key: str, line: int, directive: str) -> str:
    try:
        return fields.pop(key)
    except KeyError:
        raise ParseError(f"{directive} needs {key}=", line, 1) from None


def _no_extras(fields: dict, line: int, directive: str) -> None:
    if fields:
        extra = ", ".join(sorted(fields))
        raise ParseError(f"unknown field(s) for {directive}: {extra}", line, 1)


# ===================================================================
# Intervals
# ===================================================================


def parse_interval(token: str, line: int = 0) -> Interval:
    """``[0,1)`` style with exact endpoint topology; ``+inf``/``-inf`` ends."""
    body = token.strip()
    if len(body) < 5 or body[0] not in "([" or body[-1] not in ")]":
        raise ParseError(f"bad interval {token!r} (want e.g. [0,1) )", line, 1)
    inner = body[1:-1]
    if inner.count(",") != 1:
        raise ParseError(f"bad interval {token!r} (exactly one comma)", line, 1)
    lo_text, hi_text = inner.split(",")
    try:
        lo = parse_extended(lo_text)
        hi = parse_extended(hi_text)
    except ValueError as err:
        raise ParseError(f"bad interval endpoint: {err}", line, 1) from None
    try:
        return Interval(Endpoint(lo, body[0] == "["), Endpoint(hi, body[-1] == "]"))
    except PlastiError as err:
        raise ParseError(str(err), line, 1) from None


# ===================================================================
# Gap rules
# ===================================================================


def _rule_body(token: str, name: str, line: int) -> str:
    if not token.endswith(")"):
        raise ParseError(f"unterminated {name}(...) rule", line, 1)
    return token[len(name) + 1 : -1]


def parse_gap_rule(token: str, line: int = 0):
    """One catalog rule in its printed form.

    ``const(2)`` | ``affine(1n+0)`` | ``recip(n+0)`` | ``recipdiff(n+3)``
    | ``alt(rule,rule,...)`` | ``explicit(1,2,3)``
    """
    body = token.strip()
    try:
        if body.startswith("const("):
            return ConstantGaps(_scalar(_rule_body(body, "const", line), line, "const rule"))
        if body.startswith("affine("):
            inner = _rule_body(body, "affine", line)
            slope_text, sep, offset_text = inner.partition("n+")
            if not sep:
                raise ParseError(f"affine rule wants affine(SLOPEn+OFFSET), got {token!r}", line, 1)
            return AffineGaps(
                _scalar(slope_text, line, "affine slope"),
                _scalar(offset_text, line, "affine offset"),
            )
        if body.startswith("recip("):
            inner = _rule_body(body, "recip", line)
            if not inner.startswith("n+"):
                raise ParseError(f"recip rule wants recip(n+SHIFT), got {token!r}", line, 1)
            return ReciprocalGaps(_scalar(inner[2:], line, "recip shift"))
        if body.startswith("recipdiff("):
            inner = _rule_body(body, "recipdiff", line)
            if not inner.startswith("n+"):
                raise ParseError(f"recipdiff rule wants recipdiff(n+SHIFT), got {token!r}", line, 1)
            return TelescopingGaps(_scalar(inner[2:], line, "recipdiff shift"))
        if body.startswith("alt("):
            atoms = _rule_body(body, "alt", line)
            parts = _split_atoms(atoms, line)
            return AlternatingGaps(tuple(parse_gap_rule(p, line) for p in parts))
        if body.startswith("explicit("):
            inner = _rule_body(body, "explicit", line)
            return ExplicitGaps(tuple(_scalar(v, line, "explicit gap") for v in inner.split(",")))
    except PlastiError:
        raise
    except Exception as err:  # constructor rejections become parse errors here
        raise ParseError(str(err), line, 1) from None
    raise ParseError(f"unknown gap rule {token!r}", line, 1)


def _split_atoms(text: str, line: int) -> list:
    """Split alt-rule atoms on commas outside parentheses."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    if any(not p.strip() for p in parts):
        raise ParseError("empty atom in alt(...)", line, 1)
    return [p.strip() for p in parts]


# ===================================================================
# Space files
# ===================================================================


def parse_space(text: str) -> SubspaceDescription:
    """Assemble a space from ``points:``, ``interval:``, ``arith:``,
    ``gapseq:``, ``periodic:``, ``halfline:`` and ``meta:`` directives."""
    components = []
    intervals = []
    interval_line = 0
    accumulation: Optional[list] = None
    bound_below = bound_above = None

    for line, body in _lines(text):
        directive, rest = _split_directive(body, line)
        try:
            if directive == "points":
                values = sorted(_scalar(t, line, "point") for t in rest.split())
                components.append(FinitePoints(tuple(values)))
            elif directive == "interval":
                intervals.append(parse_interval(rest, line))
                interval_line = line
            elif directive == "arith":
                f = _fields(rest, line)
                components.append(
                    ArithmeticProgression(
                        _scalar(_need(f, "anchor", line, "arith"), line, "anchor"),
                        _scalar(_need(f, "step", line, "arith"), line, "step"),
                        _need(f, "dir", line, "arith"),
                    )
                )
                _no_extras(f, line, "arith")
            elif directive == "gapseq":
                f = _fields(rest, line)
                anchor = _scalar(_need(f, "anchor", line, "gapseq"), line, "anchor")
                left = parse_gap_rule(f.pop("left"), line) if "left" in f else None
                right = parse_gap_rule(f.pop("right"), line) if "right" in f else None
                _no_extras(f, line, "gapseq")
                if left is None and right is None:
                    raise ParseError("GapSequence needs at least one side", line, 1)
                components.append(GapSequence(anchor, left=left, right=right))
            elif directive == "periodic":
                f = _fields(rest, line)
                components.append(
                    PeriodicIntervals(
                        _scalar(_need(f, "len", line, "periodic"), line, "len"),
                        _scalar(_need(f, "gap", line, "periodic"), line, "gap"),
                        _scalar(_need(f, "anchor", line, "periodic"), line, "anchor"),
                        _need(f, "topo", line, "periodic"),
                        _need(f, "dir", line, "periodic"),
                    )
                )
                _no_extras(f, line, "periodic")
            elif directive == "halfline":
                components.append(_parse_halfline(rest, line))
            elif directive == "meta":
                accumulation, bound_below, bound_above = _parse_meta(
                    rest, line, accumulation, bound_below, bound_above
                )
            else:
                raise ParseError(f"unknown space directive {directive!r}", line, 1)
        except ParseError:
            raise
        except PlastiError as err:
            raise ParseError(str(err), line, 1) from None

    if intervals:
        try:
            components.append(IntervalList(tuple(sorted(intervals, key=lambda i: (i.lo.value, i.hi.value)))))
        except PlastiError as err:
            raise ParseError(str(err), interval_line, 1) from None
    if not components:
        raise ParseError("space file has no component directive", 1, 1)
    try:
        return SubspaceDescription(
            components=tuple(components),
            accumulation=tuple(accumulation) if accumulation is not None else None,
            bound_below=bound_below,
            bound_above=bound_above,
        )
    except PlastiError as err:
        raise ParseError(str(err), 1, 1) from None


def _parse_halfline(rest: str, line: int) -> HalfLine:
    ivl = parse_interval(rest, line)
    lo_finite, hi_finite = is_finite(ivl.lo.value), is_finite(ivl.hi.value)
    if lo_finite == hi_finite:
        raise ParseError("halfline wants exactly one infinite endpoint", line, 1)
    if lo_finite:
        return HalfLine(ivl.lo, "right")
    return HalfLine(ivl.hi, "left")


def _parse_meta(rest: str, line: int, accumulation, bound_below, bound_above):
    key, sep, value = rest.partition("=")
    key, value = key.strip(), value.strip()
    if not sep or not value:
        raise ParseError("meta wants key=value", line, 1)
    if key == "accum":
        if accumulation is None:
            accumulation = []
        if value != "none":
            accumulation.append(_scalar(value, line, "accumulation value"))
        elif accumulation:
            raise ParseError("accum=none conflicts with declared values", line, 1)
        return accumulation, bound_below, bound_above
    if key in ("bounded-below", "bounded-above"):
        decl = _parse_bound(value, line)
        if key == "bounded-below":
            if bound_below is not None:
                raise ParseError("bounded-below declared twice", line, 1)
            return accumulation, decl, bound_above
        if bound_above is not None:
            raise ParseError("bounded-above declared twice", line, 1)
        return accumulation, bound_below, decl
    raise ParseError(f"unknown meta key {key!r}", line, 1)


def _parse_bound(value: str, line: int) -> BoundDecl:
    if value == "unbounded":
        return BoundDecl(UNBOUNDED)
    for kind in (ATTAINED, UNATTAINED):
        prefix = kind + "("
        if value.startswith(prefix) and value.endswith(")"):
            return BoundDecl(kind, _scalar(value[len(prefix) : -1], line, "bound value"))
    raise ParseError(
        f"bad bound {value!r} (want attained(v), unattained(v) or unbounded)", line, 1
    )


# ===================================================================
# Map files
# ===================================================================


def parse_map(text: str) -> MapDescription:
    """Assemble a map from ``table:``, ``piece:``, ``idxshift:``,
    ``gallery:`` and ``inverse:`` directives. A ``gallery: <id>[:<map>]``
    line is resolved here to the gallery map it names."""
    clauses = []
    inverse_clauses = []
    reference = None

    for line, body in _lines(text):
        directive, rest = _split_directive(body, line)
        if directive == "inverse":
            inverse_clauses.append(_parse_map_clause(rest, line))
        elif directive == "gallery":
            if reference is not None:
                raise ParseError("gallery declared twice", line, 1)
            if not rest or " " in rest:
                raise ParseError("gallery wants a single identifier", line, 1)
            reference = rest
        else:
            clauses.append(_parse_map_clause(body, line))

    if reference is not None:
        if clauses or inverse_clauses:
            raise ParseError("a gallery reference stands alone (it carries its own inverse)", 1, 1)
        return gallery_map(reference)
    if not clauses:
        raise ParseError("map file has no clause directive", 1, 1)
    inverse = MapDescription(clauses=tuple(inverse_clauses)) if inverse_clauses else None
    return MapDescription(clauses=tuple(clauses), inverse=inverse)


def _parse_map_clause(body: str, line: int):
    directive, rest = _split_directive(body, line)
    try:
        if directive == "table":
            entries = []
            for token in rest.split():
                src, sep, dst = token.partition("->")
                if not sep:
                    raise ParseError(f"table entry wants X->Y, got {token!r}", line, _col(rest, token))
                entries.append((_scalar(src, line, "table key"), _scalar(dst, line, "table value")))
            return Table(tuple(entries))
        if directive == "piece":
            f = _fields(rest, line)
            piece = AffinePiece(
                parse_interval(_need(f, "dom", line, "piece"), line),
                _scalar(_need(f, "slope", line, "piece"), line, "slope"),
                _scalar(_need(f, "icpt", line, "piece"), line, "icpt"),
            )
            _no_extras(f, line, "piece")
            return piece
        if directive == "idxshift":
            f = _fields(rest, line)
            comp_text = _need(f, "comp", line, "idxshift")
            if comp_text == "*":
                comp = "*"
            else:
                try:
                    comp = int(comp_text)
                except ValueError:
                    raise ParseError(f"comp wants an index or *, got {comp_text!r}", line, 1) from None
            k_text = _need(f, "k", line, "idxshift")
            try:
                k = int(k_text)
            except ValueError:
                raise ParseError(f"k wants an integer, got {k_text!r}", line, 1) from None
            restriction = parse_interval(f.pop("dom"), line) if "dom" in f else None
            _no_extras(f, line, "idxshift")
            return IndexShift(comp, k, restriction)
        raise ParseError(f"unknown map directive {directive!r}", line, 1)
    except ParseError:
        raise
    except PlastiError as err:
        raise ParseError(str(err), line, 1) from None


def render_map(desc: MapDescription) -> str:
    """Print a description in the exact grammar ``parse_map`` reads."""
    lines = [_render_clause(c) for c in desc.clauses]
    if desc.inverse is not None:
        lines.extend("inverse: " + _render_clause(c) for c in desc.inverse.clauses)
    return "\n".join(lines) + "\n"


def _render_clause(clause) -> str:
    if isinstance(clause, Table):
        body = " ".join(f"{format_scalar(k)}->{format_scalar(v)}" for k, v in clause.entries)
        return f"table: {body}"
    if isinstance(clause, AffinePiece):
        return (
            f"piece: dom={clause.domain} slope={format_scalar(clause.slope)} "
            f"icpt={format_scalar(clause.intercept)}"
        )
    if isinstance(clause, IndexShift):
        body = f"idxshift: comp={clause.component} k={clause.steps}"
        if clause.restriction is not None:
            body += f" dom={clause.restriction}"
        return body
    raise TypeError(f"unprintable clause {type(clause).__name__}")


# ===================================================================
# Distance-table files
# ===================================================================


def parse_matrix(text: str) -> AugmentedSpace:
    """Assemble an augmented sample from a ``labels:`` header, optional
    ``x0:`` basepoint and ``row:`` upper-triangle entries.

    Row i lists the distances from label i to every later label, so a
    table over n labels takes n-1 rows.
    """
    labels: list = []
    kinds: list = []
    positions: dict = {}
    rows: list = []
    basepoint = None
    labels_line = 0

    for line, body in _lines(text):
        directive, rest = _split_directive(body, line)
        if directive == "labels":
            if labels:
                raise ParseError("labels declared twice", line, 1)
            labels_line = line
            for token in rest.split():
                name, sep, kind_text = token.partition("=")
                if not sep or not name:
                    raise ParseError(
                        f"label wants NAME=inner(pos) or NAME=outer, got {token!r}",
                        line,
                        _col(rest, token),
                    )
                if name in positions or (name in labels and kind_text == "outer"):
                    raise ParseError(f"duplicate label {name!r}", line, _col(rest, token))
                if kind_text == "outer":
                    labels.append(name)
                    kinds.append(OUTER)
                elif kind_text.startswith("inner(") and kind_text.endswith(")"):
                    labels.append(name)
                    kinds.append(INNER)
                    positions[name] = _scalar(kind_text[6:-1], line, f"position of {name}")
                else:
                    raise ParseError(
                        f"label kind wants inner(pos) or outer, got {kind_text!r}",
                        line,
                        _col(rest, token),
                    )
        elif directive == "x0":
            if basepoint is not None:
                raise ParseError("x0 declared twice", line, 1)
            if not rest or " " in rest:
                raise ParseError("x0 wants a single label", line, 1)
            basepoint = rest
        elif directive == "row":
            rows.append((line, [_scalar(t, line, "distance") for t in rest.split()]))
        else:
            raise ParseError(f"unknown matrix directive {directive!r}", line, 1)

    if not labels:
        raise ParseError("matrix file has no labels: header", 1, 1)
    n = len(labels)
    if len(rows) != n - 1:
        raise ParseError(
            f"expected {n - 1} row(s) for {n} labels, got {len(rows)}", labels_line, 1
        )
    pairs = {}
    for i, (line, values) in enumerate(rows):
        want = n - 1 - i
        if len(values) != want:
            raise ParseError(
                f"row for {labels[i]!r} wants {want} value(s), got {len(values)}", line, 1
            )
        for j, v in enumerate(values, start=i + 1):
            pairs[(labels[i], labels[j])] = v

    inner_labels = tuple(l for l, k in zip(labels, kinds) if k == INNER)
    outer_labels = tuple(l for l, k in zip(labels, kinds) if k == OUTER)
    try:
        matrix = matrix_from_pairs(tuple(labels), tuple(kinds), pairs)
        inner = FiniteSpace(inner_labels, tuple(positions[l] for l in inner_labels))
        return AugmentedSpace(
            inner=inner, outer=outer_labels, proposed=matrix, basepoint=basepoint
        )
    except ParseError:
        raise
    except PlastiError as err:
        raise ParseError(str(err), labels_line, 1) from None
