#!/usr/bin/env python3
"""Unit tests for tools/bench_report.py against copies of the committed
scale-1.0 fig6 baseline: a one-candidate change must fail the report with
or without --strict, while a 10% timing change must not."""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
BENCH_REPORT = TOOLS / "bench_report.py"
BASELINE = TOOLS.parent / "bench" / "baselines" / "scale-1.0"
FIG6 = "BENCH_fig6_db_size.json"


def first_ran_row(doc):
    return next(row for row in doc["rows"] if row.get("ran"))


class BenchReportTest(unittest.TestCase):

    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp(prefix="bench_report_test."))
        self.addCleanup(shutil.rmtree, self.tmp)
        self.doc = json.loads((BASELINE / FIG6).read_text())

    def report(self, doc, *flags):
        (self.tmp / FIG6).write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, str(BENCH_REPORT), "--baseline", str(BASELINE),
             "--current", str(self.tmp), *flags],
            capture_output=True, text=True)
        return proc.returncode, proc.stdout + proc.stderr

    def test_unchanged_copy_passes(self):
        for flags in ((), ("--strict",)):
            code, out = self.report(self.doc, *flags)
            self.assertEqual(code, 0, msg=out)
            self.assertIn("0 exact-field mismatch(es)", out)

    def test_one_candidate_changed_fails_without_strict(self):
        row = first_ran_row(self.doc)
        row["candidates"] += 1
        for flags in ((), ("--strict",)):
            code, out = self.report(self.doc, *flags)
            self.assertEqual(code, 1, msg=out)
            self.assertIn("candidates: ", out)
            self.assertIn("::error::", out)
            self.assertIn("1 exact-field mismatch(es)", out)

    def test_ten_percent_slower_seconds_only_warns(self):
        row = first_ran_row(self.doc)
        row["seconds"] *= 1.10
        for flags in ((), ("--strict",)):
            code, out = self.report(self.doc, *flags)
            self.assertEqual(code, 0, msg=out)
            self.assertNotIn("::warning::", out)

    def test_timing_beyond_threshold_fails_only_under_strict(self):
        row = first_ran_row(self.doc)
        row["seconds"] *= 1.5
        code, out = self.report(self.doc)
        self.assertEqual(code, 0, msg=out)
        self.assertIn("::warning::regression", out)
        code, out = self.report(self.doc, "--strict")
        self.assertEqual(code, 1, msg=out)


if __name__ == "__main__":
    unittest.main()
