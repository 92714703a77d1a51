"""Command-line front end.

Subcommands mirror the library modules: ``check`` runs one windowed map
check, ``classify`` runs the rule ladder, ``oracle`` answers the finite
plasticity questions, ``plot`` emits an SVG figure, ``gallery`` replays
curated instances, ``extend`` closes or extends a distance table.

Exit codes are uniform: 0 for a pass (or a completed report), 1 for a
failed check or expectation, 2 for usage, parse or limit errors.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Optional

from .classify import classify, verify_witness
from .errors import CapExceeded, ParseError, PlastiError, SpaceError
from .extend import check_metric_axioms, check_restriction, path_infimum_metric, railway_extension
from .gallery import GALLERY_IDS, gallery_entry, verify_entry
from .maps import (
    check_between_preservation,
    check_bijection,
    check_endomorphism,
    check_isometry,
    check_nonexpansive,
    lipschitz_upper,
)
from .oracle import (
    BIJECTION_CAP,
    BIJECTION_HARD_CAP,
    SELFMAP_CAP,
    SELFMAP_HARD_CAP,
    plastic_bruteforce,
    strongly_plastic_bruteforce,
)
from .parser import parse_map, parse_matrix, parse_space, render_map
from .plot import build_plot, render_svg
from .scalar import format_scalar, parse_scalar
from .space import DEFAULT_CAP, DEFAULT_WINDOW, Window, materialize

PASS, FAIL, ERROR = 0, 1, 2

_CHECKS = {
    "endo": check_endomorphism,
    "nonexpansive": check_nonexpansive,
    "bijection": check_bijection,
    "isometry": check_isometry,
    "between": check_between_preservation,
}


def _parse_window(text: str) -> Window:
    lo_text, sep, hi_text = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"window wants LO..HI, got {text!r}")
    try:
        return Window(parse_scalar(lo_text), parse_scalar(hi_text))
    except (ValueError, PlastiError) as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _parse_cap(text: str) -> int:
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if cap < 1:
        raise argparse.ArgumentTypeError(f"cap must be at least 1, got {cap}")
    return cap


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise PlastiError(f"cannot read {path}: {err.strerror}") from None
    except UnicodeDecodeError as err:
        raise PlastiError(f"cannot read {path}: byte {err.start} is not UTF-8") from None


def _json(value, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, for
    dicts with str keys, lists, tuples, strs, ints, bools and None; any
    other value raises TypeError. Given an ``indent``, ``json.dumps``
    leaves its C encoder for the pure-Python one, so this indents by hand
    and sends only the strings through the C escaper, a list of strings
    in one ``map``."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    join = ("," + inner).join
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = join([encode_basestring_ascii(key) + ": " + _json(value[key], inner) for key in sorted(value)])
        return "{" + inner + body + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        try:
            body = join(map(encode_basestring_ascii, value))
        except TypeError:  # not all strings
            body = join([_json(item, inner) for item in value])
        return "[" + inner + body + newline + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(args, payload: Callable[[], dict], text: Callable[[], str]) -> None:
    """Print the report in the mode asked for; only that mode's builder runs."""
    if args.json:
        print(_json(payload()))
    else:
        print(text())


def _witness_payload(witness) -> Optional[dict]:
    if witness is None:
        return None
    return {
        "points": [format_scalar(p) for p in witness.points],
        "images": [format_scalar(v) for v in witness.images],
        "detail": witness.detail,
    }


def _report_payload(report) -> dict:
    return {
        "check": report.check,
        "passed": report.passed,
        "scope": report.scope,
        "witness": _witness_payload(report.witness),
        "notes": list(report.notes),
    }


# ===================================================================
# Subcommands
# ===================================================================


def _cmd_check(args) -> int:
    space = parse_space(_read(args.space))
    desc = parse_map(_read(args.map))
    if args.which == "lipschitz":
        bound, notes = lipschitz_upper(desc, space, args.window, args.cap)
        _emit(
            args,
            lambda: {"command": "check", "which": "lipschitz", "bound": format_scalar(bound),
                     "notes": list(notes), "window": str(args.window)},
            lambda: f"lipschitz bound {format_scalar(bound)} on window {args.window}"
            + "".join(f"\n  note: {n}" for n in notes),
        )
        return PASS
    report = _CHECKS[args.which](desc, space, args.window, args.cap)
    _emit(
        args,
        lambda: {"command": "check", "which": args.which, **_report_payload(report)},
        report.render,
    )
    return PASS if report.passed else FAIL


def _cmd_classify(args) -> int:
    space = parse_space(_read(args.space))
    verdict = classify(space, args.window, args.cap)
    grammar = verification = None
    if verdict.witness is not None:
        grammar = render_map(verdict.witness)
        verification = verify_witness(space, verdict.witness, args.window, args.cap)

    def payload() -> dict:
        return {
            "command": "classify",
            "outcome": verdict.outcome,
            "rule": verdict.rule,
            "reason": verdict.reason,
            "rigidity": verdict.rigidity,
            "window": str(args.window),
            "trace": [
                {"rule": s.rule, "summary": s.summary, "matched": s.matched, "detail": s.detail}
                for s in verdict.trace
            ],
            "falsifications": [
                {"name": a.name, "outcome": a.outcome} for a in verdict.falsifications
            ],
            "witness": grammar,
            "witness_verification": None if verification is None else {
                "valid": verification.valid,
                "reports": [_report_payload(r) for r in verification.reports],
            },
        }

    def text() -> str:
        lines = [verdict.render()]
        if verification is not None:
            lines.append("witness map:")
            lines.extend("  " + l for l in grammar.strip().splitlines())
            lines.append(verification.render())
        return "\n".join(lines)

    _emit(args, payload, text)
    return PASS


def _parse_points(text: str, limit: int) -> tuple:
    """The --points list. A LO..HI range wider than ``limit``, the oracle's
    hard cap, is refused before it is built."""
    values = []
    for token in text.split(","):
        token = token.strip()
        if ".." in token:
            lo_text, _, hi_text = token.partition("..")
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError:
                raise ParseError(f"--points range {token!r} needs integer ends") from None
            if hi - lo + 1 > limit:
                raise CapExceeded(
                    f"--points range {token} has {hi - lo + 1} points, more than the hard limit of {limit}"
                )
            values.extend(Fraction(k) for k in range(lo, hi + 1))
        elif token:
            try:
                values.append(parse_scalar(token))
            except ValueError as exc:
                raise ParseError(f"--points: {exc}") from None
    return tuple(sorted(set(values)))


def _cmd_oracle(args) -> int:
    if args.points:
        # an explicit list is bounded by the oracle's hard cap alone
        cap = SELFMAP_HARD_CAP if args.strong else BIJECTION_HARD_CAP
        points = _parse_points(args.points, cap)
    else:
        mat = materialize(parse_space(_read(args.space)), args.window, args.cap)
        if mat.fragments or mat.truncated:
            reason = ("it has interval parts there" if mat.fragments else
                      "it accumulates at " + ", ".join(map(format_scalar, mat.truncated_near)))
            raise SpaceError(f"the space is not a finite set in window {args.window}: {reason}")
        points = mat.points
        cap = SELFMAP_CAP if args.strong else BIJECTION_CAP
    if args.strong:
        verdict = strongly_plastic_bruteforce(points, cap)
        counts = {
            "selfmaps": verdict.total_selfmaps,
            "noncontracting": verdict.noncontracting,
            "strongly_plastic": verdict.strongly_plastic,
        }
    else:
        verdict = plastic_bruteforce(points, cap)
        counts = {
            "bijections": verdict.bijections,
            "isometries": verdict.isometries,
            "plastic": verdict.plastic,
        }
    _emit(
        args,
        lambda: {"command": "oracle", "strong": args.strong,
                 "points": [format_scalar(p) for p in points], **counts},
        verdict.render,
    )
    return PASS


def _cmd_plot(args) -> int:
    space = parse_space(_read(args.space))
    desc = parse_map(_read(args.map)) if args.map else None
    data = build_plot(space, args.window, desc, args.cap)
    svg = render_svg(data)
    if args.out:
        try:
            Path(args.out).write_text(svg)
        except OSError as err:
            raise PlastiError(f"cannot write {args.out}: {err.strerror}") from None
    else:
        sys.stdout.write(svg)
    for jump in data.jumps:
        print(jump.render(), file=sys.stderr)
    return PASS


def _cmd_gallery(args) -> int:
    if args.id == "list":
        _emit(
            args,
            lambda: {"command": "gallery", "ids": list(GALLERY_IDS)},
            lambda: "\n".join(f"{eid}: {gallery_entry(eid).summary}" for eid in GALLERY_IDS),
        )
        return PASS
    entry = gallery_entry(args.id)
    if not args.verify:
        _emit(
            args,
            lambda: {"command": "gallery", "id": entry.id, "summary": entry.summary,
                     "maps": [n for n, _ in entry.maps], "window": str(entry.window)},
            lambda: f"{entry.id}: {entry.summary}\nmaps: "
            + (", ".join(n for n, _ in entry.maps) if entry.maps else "(none)"),
        )
        return PASS
    report = verify_entry(entry)
    _emit(
        args,
        lambda: {
            "command": "gallery",
            "id": entry.id,
            "passed": report.passed,
            "expectations": [
                {"name": r.name, "passed": r.passed, "detail": r.detail} for r in report.results
            ],
        },
        report.render,
    )
    return PASS if report.passed else FAIL


def _matrix_payload(matrix) -> dict:
    return {
        "labels": list(matrix.labels),
        "kinds": list(matrix.kinds),
        "rows": matrix.cells(),
    }


def _cmd_extend(args) -> int:
    aug = parse_matrix(_read(args.matrix))
    if args.mode == "paths":
        result = path_infimum_metric(aug)
        matrix = result.matrix
        shrinkage = list(result.shrinkage)
    else:
        matrix = railway_extension(aug)
        shrinkage = []
    axioms = check_metric_axioms(matrix)
    restriction = check_restriction(matrix, aug.inner)
    _emit(
        args,
        lambda: {
            "command": "extend",
            "mode": args.mode,
            "matrix": _matrix_payload(matrix),
            "axioms_pass": axioms.passed,
            "restriction_pass": restriction.passed,
            "shrinkage": [
                {"pair": list(s.pair), "original": format_scalar(s.original),
                 "closed": format_scalar(s.closed), "chain": list(s.chain)}
                for s in shrinkage
            ],
        },
        lambda: "\n".join(
            [matrix.render(), axioms.render(), restriction.render()]
            + [s.render() for s in shrinkage]
        ),
    )
    return PASS


# ===================================================================
# Argument wiring
# ===================================================================


def _one_line(message: str) -> str:
    """The message with its line breaks escaped: an error is one line."""
    return message.replace("\r", "\\r").replace("\n", "\\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; keep message short
        self.exit(ERROR, f"{self.prog}: {_one_line(message)}\n")


@functools.cache  # one tree per process, built on the first main() call
def _build_parser() -> _Parser:
    # a literal, not __doc__, which python -OO strips
    top = _Parser(prog="plasti", description="Command-line front end.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, report=True):
        p.add_argument("--window", type=_parse_window, default=DEFAULT_WINDOW,
                       help="verification window LO..HI (default -10..10)")
        p.add_argument("--cap", type=_parse_cap, default=DEFAULT_CAP,
                       help="enumeration cap (at least 1): the members a rule side lists "
                            "in the window, the steps of a walked side, the members listed "
                            "toward an accumulation value, the intervals of a periodic "
                            "family in the window")
        if report:
            p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("check", help="run one windowed map check")
    p.add_argument("--space", required=True, help="space description file")
    p.add_argument("--map", required=True, help="map description file")
    p.add_argument("--which", required=True, choices=sorted(_CHECKS) + ["lipschitz"])
    common(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("classify", help="run the plasticity rule ladder")
    p.add_argument("--space", required=True)
    common(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("oracle", help="count the non-expansive bijections of a finite set")
    p.add_argument("--points", help="comma list of scalars; A..B expands integer ranges")
    p.add_argument("--space", help="space file; its window slice must be a finite set")
    p.add_argument("--strong", action="store_true",
                   help="count the self-maps that contract no pair instead")
    common(p)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("plot", help="emit an SVG figure")
    p.add_argument("--space", required=True)
    p.add_argument("--map", help="map description file (omit for the product alone)")
    p.add_argument("--out", help="output path (default: standard output)")
    common(p, report=False)  # the output is SVG
    p.set_defaults(fn=_cmd_plot)

    p = sub.add_parser("gallery", help="show or verify a curated instance")
    p.add_argument("id", help="entry id, or 'list'")
    p.add_argument("--verify", action="store_true", help="run the entry's expectations")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.set_defaults(fn=_cmd_gallery)

    p = sub.add_parser("extend", help="close or extend a distance table")
    p.add_argument("matrix", help="distance table file")
    p.add_argument("--mode", choices=("paths", "railway"), default="paths")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.set_defaults(fn=_cmd_extend)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as leave:  # argparse exits; keep main() a plain function
        return leave.code if isinstance(leave.code, int) else ERROR
    if args.command == "oracle" and bool(args.points) == bool(args.space):
        print("plasti oracle: exactly one of --points or --space", file=sys.stderr)
        return ERROR
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed reader shows here, while it can be caught
    except PlastiError as err:
        print(f"plasti {args.command}: {_one_line(str(err))}", file=sys.stderr)
        return ERROR
    except BrokenPipeError:
        # The reader closed stdout early (e.g. `plasti gallery list | head -1`).
        # Point stdout at devnull so the flush at exit cannot fail again, as
        # the "Note on SIGPIPE" in the signal module's documentation advises.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return FAIL
    return code


if __name__ == "__main__":
    sys.exit(main())
