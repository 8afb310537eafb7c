"""Tests for tools/perf_pairs.py's summarize command.

    python3 -m unittest tools.test_perf_pairs -v
"""

import io
import json
import os
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout

from tools import perf_pairs

TRAJECTORY = os.path.join(perf_pairs.ROOT, "bench", "trajectory")


def record(side, pair, value, first="parent", experiment="claim"):
    return {
        "experiment": experiment, "side": side, "workload": "solve-large", "seed": 1,
        "seconds": 30, "trace": 0, "pair": pair, "first_in_pair": first,
        "host": "host nproc 4", "revision": "revision none",
        "result": {"correct": True, "attempted": 1, "failed": 0,
                   "metrics": {"throughput_rps": {"value": value, "unit": "req/s"}}},
    }


class SummarizeTest(unittest.TestCase):
    def summarize(self, *paths):
        out, err = io.StringIO(), io.StringIO()
        args = type("Args", (), {"files": list(paths)})
        with redirect_stdout(out), redirect_stderr(err):
            code = perf_pairs.command_summarize(args)
        return code, out.getvalue(), err.getvalue()

    def write(self, lines):
        handle = tempfile.NamedTemporaryFile("w", suffix=".jsonl", delete=False)
        with handle:
            for line in lines:
                handle.write((line if isinstance(line, str) else json.dumps(line)) + "\n")
        self.addCleanup(os.unlink, handle.name)
        return handle.name

    def test_committed_claim_reads_as_quoted(self):
        code, out, _ = self.summarize(os.path.join(TRAJECTORY, "PERF_pr18.jsonl"))
        self.assertEqual(code, 0)
        claim = [line for line in out.splitlines()
                 if "  claim  solve-large  seed 1" in line and "throughput_rps" in line]
        self.assertEqual(len(claim), 1)
        self.assertIn("parent 227.1 [219.7, 234.3] -> change 400.9", claim[0])
        self.assertIn("(won 10 of 10)", claim[0])

    def test_every_committed_file_parses(self):
        files = sorted(os.path.join(TRAJECTORY, name) for name in os.listdir(TRAJECTORY)
                       if name.startswith("PERF_") and name.endswith(".jsonl"))
        self.assertTrue(files)
        self.assertEqual(self.summarize(*files)[0], 0)

    def test_counts_wins_by_the_metric_direction_and_ties_apart(self):
        path = self.write([record("parent", 0, 10.0), record("change", 0, 12.0),
                           record("change", 1, 9.0, "change"), record("parent", 1, 11.0, "change"),
                           record("parent", 2, 5.0), record("change", 2, 5.0)])
        code, out, _ = self.summarize(path)
        self.assertEqual(code, 0)
        self.assertIn("parent 10 [7.5, 10.5] -> change 9 [7, 10.5] (won 1 of 3, 1 tied)", out)

    def test_a_run_without_its_pair_fails(self):
        path = self.write([record("parent", 0, 10.0), record("change", 0, 12.0),
                           record("parent", 1, 11.0, "change")])
        code, _, err = self.summarize(path)
        self.assertEqual(code, 1)
        self.assertIn(":3: pair 1 of claim solve-large has no change run", err)

    def test_a_malformed_line_fails(self):
        broken = record("change", 0, 12.0)
        del broken["host"]
        for lines, message in (([record("parent", 0, 10.0), "{not json"], ":2: not JSON"),
                               ([record("parent", 0, 10.0), broken], ":2: missing host"),
                               ([record("parent", 0, 10.0), record("parent", 0, 11.0)],
                                ":2: a second parent run in pair 0")):
            code, _, err = self.summarize(self.write(lines))
            self.assertEqual(code, 1, message)
            self.assertIn(message, err)


if __name__ == "__main__":
    unittest.main()
