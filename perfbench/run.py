"""plasti time-to-verdict benchmark.

Usage, from the root of a plasti checkout:

    python3 perfbench/run.py --workload {gallery,windows,finite} --seed N \\
        --seconds S --trace {0,1}

The benchmark imports plasti from ``src/`` of the current directory; it
needs nothing else. It writes the seeded job inputs under
``.bench_work/<workload>-<seed>/`` and drives plasti as a closed loop with
one client: one job at a time, each an in-process
``plasti.cli.main([..., "--json"])`` call. Every verdict is checked
against the benchmark's own reference answer.

With ``--trace 0`` it repeats whole passes over the jobs, each in a new
order, until ``--seconds`` have been spent in plasti. A pass is cut into
slices of about a second, each run by a fresh worker process, so no
state carries from one call of a job to the next. Each job's time is the
median of its calls, and ``jobs_per_s`` is the number of jobs over the
sum of those medians. Every job is called equally often, so
``job_p95_ms`` is taken over all calls. ``setup_s`` is the median of the
workers' own times to ``import plasti`` in their fresh interpreters.

With ``--trace 1`` it runs one pass untraced and one pass traced, each in
a fresh process. It reports per-layer calls, self times and counts from
the traced pass, plus the tracing overhead. Spans are written to
``spans.tsv`` in the work directory.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``attempted`` and ``failed``
count calls. A call fails when it raised a traceback, exited with an
unexpected code, or gave a wrong verdict. The one exception is the false
``pass`` that a job planted at one of the three sampling gaps of plasti's
window checks was planted to draw (see ``workloads.known_defect``). That
is a known defect: it is listed by job id and counted against
``correct_share``, but not in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import metric_names  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

DEADLINE_S = 170  # a run must end within 180 s
# Seconds of plasti time per worker. On a shared host the speed swings
# over a few seconds, so a fresh worker, and with it an import-time
# sample, every second spreads the setup_s samples across the whole run.
SLICE_S = 1.0


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _time_left(started: float) -> float:
    left = DEADLINE_S - (perf_counter() - started)
    if left <= 0:
        raise TimeoutError("out of time")
    return left


def _run_worker(src: Path, work: Path, jobs: list, trace: bool, started: float, slice_s: float) -> dict:
    """Jobs from the start of ``jobs`` until ``slice_s`` seconds are spent, in a fresh process."""
    (work / "pass.json").write_text(json.dumps(jobs))
    out = work / ("traced.json" if trace else "untraced.json")
    done = subprocess.run(
        [sys.executable, "-I", str(HERE / "worker.py"), str(src), "pass.json", "1" if trace else "0", out.name,
         str(slice_s)],
        cwd=work, capture_output=True, text=True, timeout=_time_left(started),
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}: {done.stderr.strip()[-400:]}")
    return json.loads(out.read_text())


class Tally:
    """Every call's time and verdict, grouped by job."""

    def __init__(self, jobs: list):
        self.times = {j["id"]: [] for j in jobs}
        self.wrong = {}  # job id -> first wrong verdict
        self.failed_jobs = set()  # jobs with a wrong verdict that is not a known defect
        self.defect = {j["id"]: j["defect"] for j in jobs}
        self.calls = self.failed_calls = 0
        self.spent = 0.0
        self.peak_rss_kb = 0
        self.import_s = []

    def add(self, result: dict) -> None:
        for r in result["runs"]:
            self.times[r["id"]].append(r["seconds"])
            self.spent += r["seconds"]
            self.calls += 1
            if r["wrong"]:
                self.wrong.setdefault(r["id"], r["wrong"])
                if not r["known"]:
                    self.failed_calls += 1
                    self.failed_jobs.add(r["id"])
        self.peak_rss_kb = max(self.peak_rss_kb, result["peak_rss_kb"])
        self.import_s.append(result["import_s"])

    def medians(self) -> list:
        return [statistics.median(t) for t in self.times.values()]

    def report(self, workload: str) -> None:
        """Human-readable lines ahead of the JSON line."""
        for job, reason in self.wrong.items():
            kind = "FAILED" if job in self.failed_jobs else f"known defect ({self.defect[job]})"
            print(f"{kind}: {job}: {reason}")
        known = len(self.wrong) - len(self.failed_jobs)
        counts = sorted(len(t) for t in self.times.values())
        print(f"workload {workload}: {len(self.times)} jobs, {self.calls} calls "
              f"({counts[0]}-{counts[-1]} per job), {self.failed_calls} failed calls, "
              f"{known} jobs with known-defect verdicts, {self.spent:.3f} s in plasti")


def _measure(src: Path, work: Path, jobs: list, seconds: float, started: float) -> Tally:
    """Whole passes over ``jobs`` until ``seconds`` have been spent in plasti.

    Each pass runs in a new order, so the first, cold call of a process
    does not fall on the same job every time. A pass is cut into slices of
    about SLICE_S seconds, each in a fresh worker, so no state carries from
    one call of a job to the next.
    """
    tally = Tally(jobs)
    order = list(jobs)
    while tally.calls == 0 or tally.spent < seconds:
        random.Random(tally.calls).shuffle(order)
        todo = order
        while todo:
            result = _run_worker(src, work, todo, False, started, SLICE_S)
            tally.add(result)
            todo = todo[len(result["runs"]):]
    return tally


def _percentile(values: list, q: int) -> float:
    """Nearest rank: the smallest value with q% of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def _end_to_end(tally: Tally) -> dict:
    medians = tally.medians()
    # Every job has the same number of calls (whole passes), so the
    # percentiles over all calls keep the stated mix. They are steadier
    # than percentiles over the per-job medians, whose tail is sparse.
    calls = [t * 1000 for times in tally.times.values() for t in times]
    p95 = _percentile(calls, 95)
    # The median call is reported here but not gated: on the gallery's 11
    # jobs it flips between entries of similar cost from run to run.
    print(f"samples: {len(calls)} calls of {len(medians)} jobs ({sum(1 for v in calls if v > p95)} calls above p95), "
          f"median call {statistics.median(calls):.3f} ms, {len(tally.import_s)} imports for setup_s")
    right = sum(1 for job in tally.times if job not in tally.wrong)
    return {
        "jobs_per_s": {"value": len(medians) / sum(medians), "unit": "1/s"},
        "job_p95_ms": {"value": p95, "unit": "ms"},
        "correct_share": {"value": right / len(medians), "unit": "share"},
        "setup_s": {"value": statistics.median(tally.import_s), "unit": "s"},
        "peak_rss_mb": {"value": tally.peak_rss_kb / 1024, "unit": "MB"},
    }


def _per_layer(traced: dict, untraced: dict) -> dict:
    layers = traced["layers"]
    traced_s = sum(r["seconds"] for r in traced["runs"])
    untraced_s = sum(r["seconds"] for r in untraced["runs"])
    print(f"trace: {traced['spans']} spans; traced pass {traced_s:.3f} s, untraced pass {untraced_s:.3f} s")
    metrics = {}
    for name in metric_names():
        stat = name.rsplit(".", 1)[1]
        unit = "s" if stat == "self_s" else "share" if stat.endswith("share") else "count"
        metrics[name] = {"value": layers.get(name, 0), "unit": unit}
    metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
    metrics["trace.untraced_s"] = {"value": untraced_s, "unit": "s"}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    started = perf_counter()
    root = Path.cwd()
    src = root / "src"
    if not (src / "plasti" / "__init__.py").is_file():
        return _fail(f"no plasti sources at {src}; run from the root of a plasti checkout")
    work = root / ".bench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    jobs = build(args.workload, args.seed, work)
    try:
        if args.trace == "1":
            untraced = _run_worker(src, work, jobs, False, started, math.inf)
            traced = _run_worker(src, work, jobs, True, started, math.inf)
            tally = Tally(jobs)
            tally.add(traced)
            metrics = _per_layer(traced, untraced)
        else:
            tally = _measure(src, work, jobs, args.seconds, started)
            metrics = _end_to_end(tally)
    except (RuntimeError, TimeoutError, subprocess.SubprocessError, ValueError) as err:
        return _fail(str(err))
    tally.report(args.workload)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": tally.failed_calls == 0,
        "attempted": tally.calls,
        "failed": tally.failed_calls,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
