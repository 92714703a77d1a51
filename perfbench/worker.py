"""A slice of a job list in a fresh process: one job at a time.

Usage: python3 worker.py SRC_DIR JOBS_JSON TRACE OUT_JSON SLICE_S

Runs from the directory that holds the job inputs. It first times its own
``import plasti``, before any other module of the benchmark loads, as in
a fresh interpreter; that is one ``setup_s`` sample. Then it runs the
jobs in order until all are done or SLICE_S seconds have been spent in
them (``inf`` runs them all). Each job is one in-process
``plasti.cli.main(argv)`` call with stdout and stderr captured; its time
runs from the call to the returned exit code. Verdicts are checked
between jobs, outside the timed region. The result file lists every job
run with its time, any wrong verdict and whether that verdict is a known
defect (``workloads.known_defect``), the import time, the peak RSS, and
with TRACE=1 the per-layer counts; the spans go to ``spans.tsv``.
"""

from __future__ import annotations

import sys
from time import perf_counter

sys.path.insert(0, sys.argv[1])
_import_start = perf_counter()
import plasti  # noqa: E402

IMPORT_S = perf_counter() - _import_start

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import plasti.cli as cli  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import known_defect, verdict  # noqa: E402


def _run_job(job: dict) -> tuple:
    """(seconds, wrong verdict or None, whether it is a known defect)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(list(job["argv"]))
            elapsed = perf_counter() - start
        except Exception:  # a traceback is a failed job, never the end of the run
            elapsed = perf_counter() - start
            return elapsed, "traceback: " + traceback.format_exc().strip().splitlines()[-1], False
    try:
        wrong = verdict(job, rc, out.getvalue(), err.getvalue())
    except (KeyError, TypeError, ValueError) as exc:  # output lacks a field the check reads
        return elapsed, f"unexpected output: {type(exc).__name__}: {exc}", False
    return elapsed, wrong, wrong is not None and known_defect(job, rc, out.getvalue())


def main(argv: list) -> int:
    src, jobs_path, trace, out_path, slice_s = argv
    if not Path(plasti.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"worker: plasti imported from {plasti.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    runs, spent = [], 0.0
    for job in json.loads(Path(jobs_path).read_text()):
        if spent >= float(slice_s):
            break
        elapsed, wrong, known = _run_job(job)
        spent += elapsed
        runs.append({"id": job["id"], "seconds": elapsed, "wrong": wrong, "known": known})
    result = {"runs": runs, "import_s": IMPORT_S,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans("spans.tsv")
        result["spans"] = len(tracer.span_start)
    Path(out_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
