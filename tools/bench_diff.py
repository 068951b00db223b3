#!/usr/bin/env python3
"""Diff two idp-bench-v1 reports.

Usage: tools/bench_diff.py OLD.json NEW.json [--threshold PCT]
                                             [--fail-on-removed]

Prints a per-metric table over the metrics the two reports share,
then explicit "added" / "removed" sections for keys that appear in
only one report — a new bench dimension (say, a fresh set of pdes_*
keys) shows up as a labelled block instead of noise interleaved with
the deltas. Exits 0 always unless --threshold is given, in which
case it exits 1 when any shared metric moved by more than PCT
percent (useful as a soft CI tripwire on perf-trajectory reports);
--fail-on-removed additionally exits 1 when the new report dropped
keys the old one had.
"""

import argparse
import json
import sys


class ReportError(Exception):
    """A file that is not a well-formed idp-bench-v1 report."""


def load(path):
    """Return (bench, {name: (value, unit)}) of an idp-bench-v1 report.

    Raises ReportError unless the schema tag matches and every metric
    is exactly a {"name", "value", "unit"} triple with a numeric value.
    """
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "idp-bench-v1":
        raise ReportError(f"{path}: not an idp-bench-v1 report "
                          f"(schema={doc.get('schema')!r})")
    metrics = {}
    for m in doc.get("metrics", []):
        if (set(m) != {"name", "value", "unit"}
                or not isinstance(m["value"], (int, float))):
            raise ReportError(f"{path}: malformed metric {m!r}")
        metrics[m["name"]] = (float(m["value"]), m["unit"])
    return doc.get("bench", "?"), metrics


def fmt(v):
    if v == 0:
        return "0"
    if abs(v) >= 1e5 or abs(v) < 1e-3:
        return f"{v:.4g}"
    return f"{v:.4f}".rstrip("0").rstrip(".")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--threshold", type=float, default=None,
                    help="exit 1 if any shared metric moves more "
                         "than this many percent")
    ap.add_argument("--fail-on-removed", action="store_true",
                    help="exit 1 if the new report dropped metrics "
                         "the old one had")
    args = ap.parse_args()

    try:
        old_bench, old = load(args.old)
        new_bench, new = load(args.new)
    except ReportError as e:
        sys.exit(str(e))
    if old_bench != new_bench:
        print(f"note: comparing different benches "
              f"({old_bench!r} vs {new_bench!r})")

    shared = sorted(set(old) & set(new))
    added = sorted(set(new) - set(old))
    removed = sorted(set(old) - set(new))
    width = max((len(n) for n in shared + added + removed),
                default=4)
    print(f"{'metric':<{width}}  {'old':>12}  {'new':>12}  "
          f"{'delta':>12}  {'%':>8}")

    tripped = []
    for name in shared:
        ov, unit = old[name]
        nv, _ = new[name]
        delta = nv - ov
        if ov != 0:
            pct = delta / ov * 100.0
        else:
            pct = 0.0 if delta == 0 else float("inf")
        pct_s = f"{pct:+.1f}" if pct != float("inf") else "inf"
        print(f"{name:<{width}}  {fmt(ov):>12}  {fmt(nv):>12}  "
              f"{fmt(delta):>12}  {pct_s:>8}  {unit}")
        if args.threshold is not None and abs(pct) > args.threshold:
            tripped.append((name, pct))

    if added:
        print(f"\n{len(added)} metric(s) only in {args.new}:")
        for name in added:
            value, unit = new[name]
            print(f"  + {name:<{width}}  {fmt(value):>12}  {unit}")
    if removed:
        print(f"\n{len(removed)} metric(s) only in {args.old}:")
        for name in removed:
            value, unit = old[name]
            print(f"  - {name:<{width}}  {fmt(value):>12}  {unit}")

    failed = False
    if tripped:
        print(f"\n{len(tripped)} metric(s) moved more than "
              f"{args.threshold}%:")
        for name, pct in tripped:
            print(f"  {name}: {pct:+.1f}%")
        failed = True
    if args.fail_on_removed and removed:
        print(f"\n{len(removed)} metric(s) removed "
              f"(--fail-on-removed)")
        failed = True
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
