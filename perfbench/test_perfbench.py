"""The benchmark's own tests: a tiny seeded pass of each kind.

Run from the root of a plasti checkout:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, build, known_defect  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tempdir() -> tempfile.TemporaryDirectory:
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=ROOT / ".bench_work")


def _work(directory: Path, jobs: list, trace: bool) -> dict:
    return run._run_worker(ROOT / "src", directory, jobs, trace, run.perf_counter(), float("inf"))


class BenchmarkTests(unittest.TestCase):
    def _result(self, trace: str) -> dict:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "finite", "--seed", "3",
             "--seconds", "0", "--trace", trace],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=170)
        return json.loads(done.stdout.strip().splitlines()[-1])

    def test_every_metric_is_emitted_with_its_unit(self):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            result = self._result(trace)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(got, want)

    def test_gallery_trace_reaches_the_captured_checks(self):
        with _tempdir() as tmp:
            jobs = [j for j in build("gallery", 1, Path(tmp)) if j["id"].endswith("-example2")]
            layers = _work(Path(tmp), jobs, trace=True)["layers"]
        for check in ("endomorphism", "nonexpansive", "bijection", "isometry", "between_preservation"):
            self.assertGreater(layers[f"maps.check_{check}.calls"], 0, check)

    def test_a_wrong_expected_answer_counts_as_failed(self):
        with _tempdir() as tmp:
            jobs = [j for j in build("windows", 1, Path(tmp))
                    if j["expect"]["kind"] == "check" and j["defect"] is None][:6]
            honest, lied = run.Tally(jobs), run.Tally(jobs)
            honest.add(_work(Path(tmp), jobs, trace=False))
            jobs[0]["expect"]["passed"] = not jobs[0]["expect"]["passed"]
            lied.add(_work(Path(tmp), jobs, trace=False))
        self.assertEqual((honest.failed_calls, lied.failed_calls), (0, 1))
        share = lambda t: run._end_to_end(t)["correct_share"]["value"]  # noqa: E731
        self.assertLess(share(lied), share(honest))

    def test_only_a_planted_false_pass_is_a_known_defect(self):
        with _tempdir() as tmp:
            jobs = build("windows", 1, Path(tmp))
        planted = [j for j in jobs if j["defect"]]
        self.assertEqual(len(planted), 7)
        said_pass = json.dumps({"which": planted[0]["expect"]["which"], "passed": True})
        self.assertTrue(known_defect(planted[0], 0, said_pass))
        self.assertFalse(known_defect(planted[0], 2, ""))  # an error exit is never excused
        regular = next(j for j in jobs if not j["defect"] and j["expect"].get("passed") is False)
        self.assertFalse(known_defect(regular, 0, said_pass))

    def test_same_seed_writes_identical_inputs(self):
        for workload in WORKLOADS:
            with _tempdir() as a, _tempdir() as b:
                build(workload, 11, Path(a))
                build(workload, 11, Path(b))
                files = sorted(p.name for p in Path(a).iterdir())
                self.assertEqual(files, sorted(p.name for p in Path(b).iterdir()))
                for name in files:
                    self.assertEqual((Path(a) / name).read_bytes(), (Path(b) / name).read_bytes(), name)


if __name__ == "__main__":
    unittest.main()
