"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 -m unittest perfbench/test_perfbench.py

The first tests prove that the output checks can trip; the last one runs
the benchmark briefly and asserts that it leaves the git tree as it was.
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class ChecksTrip(unittest.TestCase):
    def test_corrupted_body_and_wrong_digest_are_failures(self):
        fails = run.Failures()
        job = ("fig1", run.DEFAULT_SEED)
        golden = (run.GOLDEN_DIR / "fig1.json").read_bytes()
        fails.attempt()
        self.assertTrue(run.check_served(fails, job, 200, "miss", ("miss",), golden, golden))
        self.assertEqual(fails.failed, 0)

        corrupted = golden.replace(b'"command"', b'"commanD"', 1)
        fails.attempt()
        self.assertFalse(run.check_served(fails, job, 200, "hit", ("hit",), corrupted, golden))

        workload, table = next(iter(json.loads(run.DIGESTS.read_text()).items()))
        seed = next(iter(table))
        fails.attempt()
        self.assertFalse(run.check_report(fails, workload, seed, b"not the report", None, "report"))

        self.assertGreater(fails.failed / fails.attempted, 0)

    def test_unplanned_outcome_and_status_are_failures(self):
        fails = run.Failures()
        job = ("fig7", 77)
        self.assertFalse(run.check_served(fails, job, 200, "miss", ("hit",), b"x", b"x"))
        self.assertFalse(run.check_served(fails, job, 500, "hit", ("hit",), b"x", b"x"))
        self.assertEqual(fails.failed, 2)


class Percentiles(unittest.TestCase):
    def test_exact_nearest_rank_with_ten_beyond(self):
        xs = list(range(1, 1001))
        self.assertEqual(run.percentile(xs, 50), 500)
        self.assertEqual(run.percentile(xs, 99), 990)
        self.assertIsNone(run.percentile(xs[:999], 99))

    def test_self_time_subtracts_covered_children(self):
        spans = run.Spans()
        root = spans.add("root", 0, 100)
        spans.add("a", 10, 40, root)
        spans.add("b", 30, 60, root)
        self.assertEqual(spans.with_self_time()[root]["self_ns"], 50)


@unittest.skipUnless((run.ROOT / ".git").exists(), "needs a git checkout")
class TreeUntouched(unittest.TestCase):
    def test_a_run_leaves_git_status_unchanged(self):
        status = ["git", "status", "--porcelain", "--ignored=no"]
        before = subprocess.run(status, cwd=run.ROOT, capture_output=True, check=True).stdout
        result = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "scaling-quick",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=run.ROOT, capture_output=True, env=dict(os.environ), check=True)
        doc = json.loads(result.stdout.decode().strip().splitlines()[-1])
        self.assertTrue(doc["correct"])
        after = subprocess.run(status, cwd=run.ROOT, capture_output=True, check=True).stdout
        self.assertEqual(before, after)


if __name__ == "__main__":
    unittest.main()
