"""Spans around plasti's layer functions, recorded from outside the package.

``Tracer.install`` replaces each listed function with a wrapper wherever
plasti holds a reference to it: module globals, the CLI's check table and
the closures the gallery builds at import time. A wrapper records one span
(name, parent, start, end) per call in flat arrays, plus counts read from
the call's arguments and return value. Nothing is written while jobs run;
``layer_metrics`` turns the spans into per-function call counts and self
times (span length minus the time its child spans cover) at the end.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# module -> functions wrapped in it. The order is the report order.
LAYERS = {
    "space": ("materialize", "contains", "successor", "predecessor", "gap_spectrum",
              "validate_metadata", "ball_census", "sequence_view"),
    "maps": ("collect_samples", "eval_map", "check_endomorphism", "check_nonexpansive",
             "check_bijection", "check_isometry", "check_between_preservation", "lipschitz_upper"),
    "classify": ("classify", "run_falsifications", "verify_witness"),
    "oracle": ("plastic_bruteforce", "strongly_plastic_bruteforce"),
    "extend": ("path_infimum_metric", "railway_extension", "check_metric_axioms",
               "check_restriction"),
    "parser": ("parse_space", "parse_map", "parse_matrix"),
    "gallery": ("verify_entry",),
    "cli": ("main",),
}

# Functions whose distinct argument tuples are counted for repeat_share.
REPEATS = ("space.materialize", "maps.collect_samples", "maps.eval_map")


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


class Tracer:
    def __init__(self):
        self.names: list = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open = [-1]
        self.counts = defaultdict(int)  # "<name>.<stat>" -> total read from calls
        self.errors = defaultdict(int)  # module -> exceptions first raised there
        self._seen = {name: set() for name in REPEATS}

    # --- installation -------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for module, functions in LAYERS.items():
            mod = importlib.import_module(f"plasti.{module}")
            for fn_name in functions:
                fn = getattr(mod, fn_name, None)
                if fn is not None:
                    wrappers[fn] = self._wrap(module, fn_name, fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "plasti" or mod_name.startswith("plasti."):
                for attr, value in list(vars(mod).items()):
                    if _wrapper_for(value, wrappers) is not None:
                        setattr(mod, attr, wrappers[value])
                    elif isinstance(value, dict):  # e.g. the CLI's check table
                        for key, item in list(value.items()):
                            if _wrapper_for(item, wrappers) is not None:
                                value[key] = wrappers[item]
        gallery = sys.modules.get("plasti.gallery")
        for entry in getattr(gallery, "_ENTRIES", {}).values():
            for exp in entry.expectations:
                _patch_closure(exp.run, wrappers)

    def _wrap(self, module: str, fn_name: str, fn):
        name = f"{module}.{fn_name}"
        index = len(self.names)
        self.names.append(name)
        observe = _OBSERVERS.get(name)
        seen = self._seen.get(name)
        signature = inspect.signature(fn) if seen is not None else None
        tracer = self

        def wrapper(*args, **kwargs):
            if seen is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                seen.add(hash(tuple(bound.arguments.values())))
            span = len(tracer.span_start)
            tracer.span_name.append(index)
            tracer.span_parent.append(tracer._open[-1])
            tracer.span_end.append(0.0)
            tracer._open.append(span)
            tracer.span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.span_end[span] = perf_counter()
                tracer._open.pop()
                if not getattr(exc, "_perfbench_counted", False):
                    tracer.errors[module] += 1
                    try:
                        exc._perfbench_counted = True
                    except AttributeError:
                        pass
                raise
            tracer.span_end[span] = perf_counter()
            tracer._open.pop()
            if observe is not None:
                observe(tracer.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # --- report -------------------------------------------------------

    def layer_metrics(self) -> dict:
        n = len(self.span_start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.span_name[i]
            calls[k] += 1
            self_s[k] += self.span_end[i] - self.span_start[i] - child[i]
        out = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.self_s"] = self_s[k]
        by_name = dict(zip(self.names, calls))
        for name, seen in self._seen.items():
            calls_made = by_name.get(name, 0)
            out[f"{name}.repeat_share"] = 1.0 - len(seen) / calls_made if calls_made else 0.0
        c = self.counts
        out["space.materialize.points"] = c["space.materialize.points"]
        out["maps.collect_samples.samples"] = c["maps.collect_samples.samples"]
        out["maps.collect_samples.subsampled_share"] = _ratio(
            c["maps.collect_samples.subsampled"], by_name.get("maps.collect_samples", 0))
        out["maps.check_between_preservation.capped_share"] = _ratio(
            c["maps.check_between_preservation.capped"],
            by_name.get("maps.check_between_preservation", 0))
        out["classify.run_falsifications.candidates"] = c["classify.run_falsifications.candidates"]
        out["oracle.maps_found"] = c["oracle.maps_found"]
        out["gallery.verify_entry.expectations"] = c["gallery.verify_entry.expectations"]
        for module in LAYERS:
            out[f"{module}.errors"] = self.errors[module]
        return out

    def write_spans(self, path) -> None:
        """One line per span: name, parent span index, start, end."""
        with open(path, "w") as fh:
            fh.write("span\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t{self.span_parent[i]}\t"
                         f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n")


def _wrapper_for(value, wrappers: dict):
    if not callable(value):
        return None
    try:
        return wrappers.get(value)
    except TypeError:  # unhashable callable
        return None


def _patch_closure(fn, wrappers: dict) -> None:
    for cell in getattr(fn, "__closure__", None) or ():
        try:
            value = cell.cell_contents
        except ValueError:  # empty cell
            continue
        if _wrapper_for(value, wrappers) is not None:
            cell.cell_contents = wrappers[value]


# --- counts read from return values ----------------------------------


def _materialize(counts, args, kwargs, result):
    counts["space.materialize.points"] += len(result.points)


def _collect_samples(counts, args, kwargs, result):
    counts["maps.collect_samples.samples"] += len(result.point_samples) + len(result.limit_samples)
    counts["maps.collect_samples.subsampled"] += bool(getattr(result, "subsampled", False))


def _between(counts, args, kwargs, result):
    counts["maps.check_between_preservation.capped"] += any("capped" in n for n in result.notes)


def _falsifications(counts, args, kwargs, result):
    counts["classify.run_falsifications.candidates"] += len(result)


def _plastic(counts, args, kwargs, result):
    counts["oracle.maps_found"] += result.bijections


def _strong(counts, args, kwargs, result):
    counts["oracle.maps_found"] += result.noncontracting


def _verify_entry(counts, args, kwargs, result):
    counts["gallery.verify_entry.expectations"] += len(result.results)


_OBSERVERS = {
    "space.materialize": _materialize,
    "maps.collect_samples": _collect_samples,
    "maps.check_between_preservation": _between,
    "classify.run_falsifications": _falsifications,
    "oracle.plastic_bruteforce": _plastic,
    "oracle.strongly_plastic_bruteforce": _strong,
    "gallery.verify_entry": _verify_entry,
}


def metric_names() -> list:
    """Every per-layer metric ``layer_metrics`` reports, in report order."""
    names = []
    for module, functions in LAYERS.items():
        for fn in functions:
            names += [f"{module}.{fn}.calls", f"{module}.{fn}.self_s"]
    names += [f"{n}.repeat_share" for n in REPEATS]
    names += ["space.materialize.points", "maps.collect_samples.samples",
              "maps.collect_samples.subsampled_share",
              "maps.check_between_preservation.capped_share",
              "classify.run_falsifications.candidates", "oracle.maps_found",
              "gallery.verify_entry.expectations"]
    names += [f"{module}.errors" for module in LAYERS]
    return names
