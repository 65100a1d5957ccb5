#!/usr/bin/env python3
"""Compare a directory of BENCH_*.json results against a committed baseline.

Each BENCH document is matched to the baseline file of the same name; rows
are keyed by their string-valued fields (x, algo, backend, ...), so the
report survives row reordering and added series. A baseline row the
current run lacks is reported as a "missing row" line (not a regression,
so the exit code is unchanged). Scales must match, otherwise the pair is
skipped with a note — a baseline captured at scale=1.0 says nothing about a
scale=0.02 smoke run.

Two kinds of field are compared:
  - exact fields (candidates, frequent, passes, transactions, cells,
    redundant, exceptions) are counts that neither noise nor the thread
    count moves. Any difference from the baseline row is an error and
    makes the exit code 1, with or without --strict.
  - timings: lower-is-better metrics (seconds, seconds_mine,
    seconds_setup) regress when they grow; *_per_sec metrics regress when
    they shrink. A regression beyond --threshold is a warning; it makes
    the exit code 1 only under --strict.

Lines use GitHub ::error:: / ::warning:: markers so they surface as
annotations in the nightly job.

Usage:
  tools/bench_report.py --baseline bench/baselines/scale-1.0 --current bench-json
"""

import argparse
import json
import sys
from pathlib import Path

LOWER_IS_BETTER = ("seconds", "seconds_mine", "seconds_setup")
HIGHER_IS_BETTER_SUFFIX = "_per_sec"
EXACT_FIELDS = ("candidates", "frequent", "passes", "transactions", "cells",
                "redundant", "exceptions")


def row_key(row):
    return tuple(sorted(
        (k, v) for k, v in row.items() if isinstance(v, str)))


def metrics_of(row):
    out = {}
    for k, v in row.items():
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            continue
        if k in LOWER_IS_BETTER:
            out[k] = ("lower", float(v))
        elif k.endswith(HIGHER_IS_BETTER_SUFFIX):
            out[k] = ("higher", float(v))
    return out


def fmt_key(key):
    return "/".join(f"{v}" for _, v in key) or "(row)"


def compare_exact(name, key, base_row, row, lines):
    """Appends an error line per exact field that differs; returns the count."""
    mismatches = 0
    for field in EXACT_FIELDS:
        if field not in base_row and field not in row:
            continue
        ref, value = base_row.get(field), row.get(field)
        if ref == value:
            continue
        mismatches += 1
        lines.append(f"{name} {fmt_key(key)} {field}: {ref} -> {value}  "
                     "::error::exact field differs from the baseline")
    return mismatches


def compare_doc(name, base, cur, threshold, lines):
    """Returns (timing regressions, exact-field mismatches)."""
    regressions = mismatches = 0
    if base.get("scale") != cur.get("scale"):
        lines.append(f"{name}: scale mismatch (baseline "
                     f"{base.get('scale')} vs current {cur.get('scale')}); "
                     "skipped")
        return 0, 0
    base_rows = {row_key(r): r for r in base.get("rows", [])}
    cur_keys = {row_key(r) for r in cur.get("rows", [])}
    for key in base_rows:
        if key not in cur_keys:
            lines.append(f"{name} {fmt_key(key)}: missing row (in baseline, "
                         "not in current run)")
    for row in cur.get("rows", []):
        key = row_key(row)
        base_row = base_rows.get(key)
        if base_row is None:
            lines.append(f"{name} {fmt_key(key)}: new row (no baseline)")
            continue
        mismatches += compare_exact(name, key, base_row, row, lines)
        for metric, (direction, value) in metrics_of(row).items():
            ref = base_row.get(metric)
            if not isinstance(ref, (int, float)) or ref <= 0 or value <= 0:
                continue
            ratio = value / ref if direction == "lower" else ref / value
            marker = ""
            if ratio > threshold:
                marker = (f"  ::warning::regression x{ratio:.2f} "
                          f"(threshold x{threshold:.2f})")
                regressions += 1
            lines.append(f"{name} {fmt_key(key)} {metric}: "
                         f"{ref:.4g} -> {value:.4g}{marker}")
    return regressions, mismatches


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True,
                    help="directory of committed BENCH_*.json baselines")
    ap.add_argument("--current", required=True,
                    help="directory of freshly produced BENCH_*.json files")
    ap.add_argument("--threshold", type=float, default=1.15,
                    help="regression ratio above which a warning is "
                         "emitted (default 1.15 = 15%% worse)")
    ap.add_argument("--strict", action="store_true",
                    help="also exit 1 if a timing regression exceeded the "
                         "threshold (exact-field differences always do)")
    args = ap.parse_args()

    baseline_dir = Path(args.baseline)
    current_dir = Path(args.current)
    current_files = sorted(current_dir.rglob("BENCH_*.json"))
    if not current_files:
        print(f"no BENCH_*.json under {current_dir}", file=sys.stderr)
        return 2

    lines, regressions, mismatches = [], 0, 0
    for cur_path in current_files:
        base_path = baseline_dir / cur_path.name
        if not base_path.exists():
            lines.append(f"{cur_path.name}: no committed baseline; "
                         "add one under "
                         f"{baseline_dir} to track regressions")
            continue
        cur = json.loads(cur_path.read_text())
        base = json.loads(base_path.read_text())
        doc_regressions, doc_mismatches = compare_doc(
            cur_path.name, base, cur, args.threshold, lines)
        regressions += doc_regressions
        mismatches += doc_mismatches

    print("\n".join(lines))
    print(f"\n{regressions} regression(s) above x{args.threshold:.2f}, "
          f"{mismatches} exact-field mismatch(es)")
    if mismatches or (regressions and args.strict):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
