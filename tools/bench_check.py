#!/usr/bin/env python3
"""Check idp-bench-v1 reports against the per-bench gate table.

Usage: tools/bench_check.py REPORT.json...
       tools/bench_check.py --selftest

A report named BENCH_<bench>.json must say "bench": "<bench>", pass
tools/bench_diff.py's schema check, carry every required metric of
its row in GATES and pass every gate there. A gate reads
"LHS OP RHS"; each side is a sum of metric names and numbers. `{x}`
in a name expands over the row's axes. Gates under "scaling" run only
when the report's cpu_count (this machine's, when the report records
0) is at least 4, and print one SKIPPED line otherwise. Exits 1 if
any report fails.

--selftest checks the table itself: every committed BENCH_*.json
passes, dropping any required key or mangling the schema or bench
tag fails, and each gate flips exactly at the boundary written
literally in BOUNDARIES below.
"""

import contextlib
import io
import itertools
import json
import operator
import os
import re
import string
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_diff import ReportError, load  # noqa: E402

MIN_SCALING_CORES = 4

GATES = {
    "kernel": {
        "required": [
            "calendar_events_per_sec", "calendar_allocs_per_event",
            "drive_events_per_sec", "drive_dispatches_per_sec",
            "drive_requests_per_sec", "drive_allocs_per_event",
        ],
        "gates": [
            "calendar_allocs_per_event == 0",
            "drive_allocs_per_event == 0",
            "drive_events_per_sec > 0",
        ],
    },
    "sched": {
        "axes": {"q": (16, 64, 256)},
        "required": [
            "sptf_priced_per_dispatch_q{q}",
            "sptf_exhaustive_per_dispatch_q{q}",
            "sptf_prune_ratio_q{q}",
            "sched_dispatches_per_sec_q{q}",
            "sched_allocs_per_dispatch_q{q}",
        ],
        "gates": [
            "sched_allocs_per_dispatch_q{q} == 0",
            "sptf_prune_ratio_q64 >= 3.0",
        ],
    },
    "raid": {
        "axes": {"w": (1, 2, 4, 8)},
        "required": [
            "cpu_count", "sim_points", "points_per_sec",
            "requests_per_sec", "pdes_points_per_sec_serial",
            "pdes_points_per_sec_w{w}", "pdes_speedup_4w",
            "pdes_matches_serial", "serial_allocs_per_request",
            "pdes_allocs_per_request", "pdes_mirror_run_secs_serial",
            "pdes_mirror_run_secs_w{w}", "pdes_mirror_speedup_4w",
            "pdes_mirror_matches_serial",
        ],
        "gates": [
            # Byte parity holds on any machine, any core count.
            "pdes_matches_serial == 1",
            "pdes_mirror_matches_serial == 1",
            # The drive-local hot path allocates nothing: PDES may add
            # only its fixed per-run setup, amortized per request.
            "pdes_allocs_per_request <= serial_allocs_per_request + 0.5",
            # A serial run allocates about once per request (the
            # array's join node); the trace feed and the checker's
            # token slabs add nothing per request.
            "serial_allocs_per_request <= 1.5",
        ],
        # Scaling needs real cores, so these read the core count the
        # report recorded: it stays honest if the report travels.
        "scaling": [
            "pdes_speedup_4w >= 2.0",
            "pdes_mirror_speedup_4w >= 2.0",
        ],
    },
    "rebuild": {
        "axes": {
            "cfg": ("mirror_sa4", "mirror_conv", "raid5_conv"),
            "phase": ("healthy", "degraded", "rebuilding"),
        },
        "required": [
            "{cfg}_{phase}_mean_ms", "{cfg}_{phase}_p50_ms",
            "{cfg}_{phase}_p99_ms", "{cfg}_{phase}_power_w",
            "{cfg}_rebuilding_window_s", "{cfg}_rebuilding_chunks",
            "{cfg}_rebuilding_spare_writes",
            "mirror_sa4_pos_mean_ms", "mirror_sa4_queue_mean_ms",
            "mirror_conv_pos_mean_ms", "mirror_conv_queue_mean_ms",
            "positioning_best_gain_pct", "conservation_ok",
            "rebuild_steady_allocs", "cpu_count",
            "pdes_rebuild_matches_serial", "pdes_rebuild_steady_allocs",
        ],
        "gates": [
            # Every rebuilt chunk is exactly one spare write, and
            # foreground completions stay exactly-once.
            "conservation_ok == 1",
            "{cfg}_rebuilding_chunks == {cfg}_rebuilding_spare_writes",
            "{cfg}_rebuilding_window_s > 0",
            "rebuild_steady_allocs == 0",
            # Degraded and rebuilding phases under PDES (1/4/8 workers)
            # are byte-identical to serial and allocation-free.
            "pdes_rebuild_matches_serial == 1",
            "pdes_rebuild_steady_allocs == 0",
            # Positioning-priced replica dispatch at worst ties the
            # queue policy in at least one mirror config.
            "positioning_best_gain_pct >= 0",
        ],
    },
    "serve": {
        "required": [
            "serve_points", "serve_points_per_sec",
            "break_tenants_conventional", "break_tenants_sa4",
            "power_w_conventional", "power_w_sa4",
            "spec_armed_total", "spec_submitted_total",
            "spec_cancel_live_total", "spec_cancel_stale_total",
            "spec_suppressed_total", "kernel_stale_cancels",
            "million_tenants", "million_completions",
            "million_allocs_per_request", "million_peak_pending",
            "session_bytes", "deny_steady_allocs", "deny_extra_wakes",
        ],
        "gates": [
            # Two deny-storm runs of different lengths allocate
            # identically: the serving layer is allocation-free.
            "deny_steady_allocs == 0",
            "deny_extra_wakes > 0",
            # Whole-stack allocations stay bounded at the largest
            # tenant count (no per-session or per-wake growth).
            "million_allocs_per_request <= 16",
            # Speculative retraction accounting closes exactly.
            "spec_armed_total == spec_cancel_live_total"
            " + spec_cancel_stale_total",
            "spec_cancel_stale_total == spec_submitted_total"
            " + spec_suppressed_total",
            "kernel_stale_cancels == spec_cancel_stale_total",
            "spec_cancel_live_total > 0",
            # SA(4) provisions at least as many tenants under the p99
            # SLO as the conventional array.
            "break_tenants_conventional <= break_tenants_sa4",
        ],
    },
    "governor": {
        "axes": {
            "fam": ("square", "closed", "diurnal"),
            "rpm": (7200, 6200, 5200, 4200),
        },
        "required": [
            "governor_ok", "governor_steady_allocs",
            "best_energy_savings_pct", "cpu_count",
            "pdes_governed_matches_serial",
            "{fam}_slo_ms", "{fam}_governor_p99_ms",
            "{fam}_governor_energy_j", "{fam}_energy_savings_pct",
            "{fam}_static{rpm}_p99_ms", "{fam}_static{rpm}_energy_j",
        ],
        "gates": [
            # Iso-SLO dominance and the allocation-free control path.
            "governor_ok == 1",
            "governor_steady_allocs == 0",
            # Governed runs under PDES (controlTick horizon barriers)
            # reproduce the serial p99, energy and completions.
            "pdes_governed_matches_serial == 1",
            # The headline: >= 10% energy saved on some family.
            "best_energy_savings_pct >= 10.0",
            "{fam}_governor_p99_ms <= {fam}_slo_ms",
        ],
    },
}

OPS = {"==": operator.eq, "<=": operator.le, ">=": operator.ge,
       "<": operator.lt, ">": operator.gt}
GATE_RE = re.compile(r"(.+?)\s*(==|<=|>=|<|>)\s*(.+)")


def expand(templates, axes):
    """Each template once per combination of the axes it names."""
    out = []
    for t in templates:
        fields = list(dict.fromkeys(
            f for _, f, _, _ in string.Formatter().parse(t) if f))
        for combo in itertools.product(*(axes[f] for f in fields)):
            out.append(t.format(**dict(zip(fields, combo))))
    return out


def side(expr, values):
    """Value of one side of a gate: a sum of metric names and numbers."""
    return sum(values[t] if t[0].isalpha() else float(t)
               for t in (s.strip() for s in expr.split("+")))


def run_gate(gate, values):
    """Print the gate with both sides' values; True when it holds."""
    lhs, op, rhs = GATE_RE.fullmatch(gate).groups()
    a, b = side(lhs, values), side(rhs, values)
    ok = OPS[op](a, b)
    print(f"  {'ok  ' if ok else 'FAIL'}  {gate}  [{a:g} {op} {b:g}]")
    return ok


def check(path):
    """Check one report; return "pass", "SKIPPED" or "fail"."""
    name = os.path.basename(path)
    expected = name[len("BENCH_"):-len(".json")]
    print(f"{path}:")
    try:
        bench, metrics = load(path)
    except (OSError, ValueError, ReportError) as e:
        print(f"  FAIL  {e}")
        return "fail"
    row = GATES.get(expected)
    if row is None or bench != expected:
        print(f"  FAIL  bench {bench!r} in {name}; the table has rows "
              f"for BENCH_{{{','.join(GATES)}}}.json")
        return "fail"
    values = {k: v for k, (v, _) in metrics.items()}
    axes = row.get("axes", {})
    missing = sorted(set(expand(row["required"], axes)) - set(values))
    if missing:
        print(f"  FAIL  missing metrics: {', '.join(missing)}")
        return "fail"
    results = [run_gate(g, values) for g in expand(row["gates"], axes)]
    verdict = "pass"
    if "scaling" in row:
        cores = int(values["cpu_count"]) or (os.cpu_count() or 1)
        if cores >= MIN_SCALING_CORES:
            results += [run_gate(g, values) for g in row["scaling"]]
        else:
            print(f"  SKIPPED {'; '.join(row['scaling'])}: report "
                  f"cpu_count={cores} < {MIN_SCALING_CORES}, too few "
                  f"cores for a meaningful 4-worker scaling figure")
            verdict = "SKIPPED"
    return verdict if all(results) else "fail"


# -------------------------------------------------------------------
# Self-test
# -------------------------------------------------------------------

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (bench, metric overrides on the committed report, verdict). Bounds
# are written out here, not read from GATES, so editing a bound in the
# table fails the self-test. The committed raid report records
# cpu_count 1, so its scaling gates log a skip unless a case sets it.
BOUNDARIES = [
    ("kernel", {"calendar_allocs_per_event": 0}, "pass"),
    ("kernel", {"calendar_allocs_per_event": 0.01}, "fail"),
    ("kernel", {"drive_allocs_per_event": 0}, "pass"),
    ("kernel", {"drive_allocs_per_event": 0.01}, "fail"),
    ("kernel", {"drive_events_per_sec": 0.01}, "pass"),
    ("kernel", {"drive_events_per_sec": 0}, "fail"),
] + [
    ("sched", {f"sched_allocs_per_dispatch_q{q}": v}, verdict)
    for q in (16, 64, 256) for v, verdict in ((0, "pass"), (0.01, "fail"))
] + [
    ("sched", {"sptf_prune_ratio_q64": 3.0}, "pass"),
    ("sched", {"sptf_prune_ratio_q64": 2.99}, "fail"),
    ("raid", {"pdes_matches_serial": 1}, "SKIPPED"),
    ("raid", {"pdes_matches_serial": 0}, "fail"),
    ("raid", {"pdes_mirror_matches_serial": 1}, "SKIPPED"),
    ("raid", {"pdes_mirror_matches_serial": 0}, "fail"),
    ("raid", {"serial_allocs_per_request": 1.0,
              "pdes_allocs_per_request": 1.5}, "SKIPPED"),
    ("raid", {"serial_allocs_per_request": 1.0,
              "pdes_allocs_per_request": 1.51}, "fail"),
    ("raid", {"serial_allocs_per_request": 1.5,
              "pdes_allocs_per_request": 1.5}, "SKIPPED"),
    ("raid", {"serial_allocs_per_request": 1.51,
              "pdes_allocs_per_request": 1.5}, "fail"),
    ("raid", {"cpu_count": 4, "pdes_speedup_4w": 2.0,
              "pdes_mirror_speedup_4w": 2.0}, "pass"),
    ("raid", {"cpu_count": 4, "pdes_speedup_4w": 1.99,
              "pdes_mirror_speedup_4w": 2.0}, "fail"),
    ("raid", {"cpu_count": 4, "pdes_speedup_4w": 2.0,
              "pdes_mirror_speedup_4w": 1.99}, "fail"),
    ("raid", {"cpu_count": 3, "pdes_speedup_4w": 1.99,
              "pdes_mirror_speedup_4w": 1.99}, "SKIPPED"),
    ("rebuild", {"conservation_ok": 1}, "pass"),
    ("rebuild", {"conservation_ok": 0}, "fail"),
] + [
    ("rebuild", {f"{cfg}_rebuilding_chunks": 100,
                 f"{cfg}_rebuilding_spare_writes": writes}, verdict)
    for cfg in ("mirror_sa4", "mirror_conv", "raid5_conv")
    for writes, verdict in ((100, "pass"), (101, "fail"))
] + [
    ("rebuild", {f"{cfg}_rebuilding_window_s": v}, verdict)
    for cfg in ("mirror_sa4", "mirror_conv", "raid5_conv")
    for v, verdict in ((0.01, "pass"), (0, "fail"))
] + [
    ("rebuild", {"rebuild_steady_allocs": 0}, "pass"),
    ("rebuild", {"rebuild_steady_allocs": 0.01}, "fail"),
    ("rebuild", {"pdes_rebuild_matches_serial": 1}, "pass"),
    ("rebuild", {"pdes_rebuild_matches_serial": 0}, "fail"),
    ("rebuild", {"pdes_rebuild_steady_allocs": 0}, "pass"),
    ("rebuild", {"pdes_rebuild_steady_allocs": 0.01}, "fail"),
    ("rebuild", {"positioning_best_gain_pct": 0}, "pass"),
    ("rebuild", {"positioning_best_gain_pct": -0.01}, "fail"),
    ("serve", {"deny_steady_allocs": 0}, "pass"),
    ("serve", {"deny_steady_allocs": 0.01}, "fail"),
    ("serve", {"deny_extra_wakes": 0.01}, "pass"),
    ("serve", {"deny_extra_wakes": 0}, "fail"),
    ("serve", {"million_allocs_per_request": 16}, "pass"),
    ("serve", {"million_allocs_per_request": 16.01}, "fail"),
] + [
    # armed == live + stale, stale == submitted + suppressed,
    # kernel stale == stale, live > 0.
    ("serve", dict(zip(("spec_armed_total", "spec_cancel_live_total",
                        "spec_cancel_stale_total", "spec_submitted_total",
                        "spec_suppressed_total", "kernel_stale_cancels"),
                       counts)), verdict)
    for counts, verdict in (
        ((10, 4, 6, 5, 1, 6), "pass"),
        ((11, 4, 6, 5, 1, 6), "fail"),
        ((10, 4, 6, 5, 2, 6), "fail"),
        ((10, 4, 6, 5, 1, 7), "fail"),
        ((6.25, 0.25, 6, 5, 1, 6), "pass"),
        ((6, 0, 6, 5, 1, 6), "fail"),
    )
] + [
    ("serve", {"break_tenants_conventional": 200000,
               "break_tenants_sa4": 200000}, "pass"),
    ("serve", {"break_tenants_conventional": 200001,
               "break_tenants_sa4": 200000}, "fail"),
    ("governor", {"governor_ok": 1}, "pass"),
    ("governor", {"governor_ok": 0}, "fail"),
    ("governor", {"governor_steady_allocs": 0}, "pass"),
    ("governor", {"governor_steady_allocs": 0.01}, "fail"),
    ("governor", {"pdes_governed_matches_serial": 1}, "pass"),
    ("governor", {"pdes_governed_matches_serial": 0}, "fail"),
    ("governor", {"best_energy_savings_pct": 10.0}, "pass"),
    ("governor", {"best_energy_savings_pct": 9.99}, "fail"),
] + [
    ("governor", {f"{fam}_governor_p99_ms": p99, f"{fam}_slo_ms": 50.0},
     verdict)
    for fam in ("square", "closed", "diurnal")
    for p99, verdict in ((50.0, "pass"), (50.01, "fail"))
]


def committed(bench):
    with open(os.path.join(REPO, f"BENCH_{bench}.json")) as f:
        return json.load(f)


def with_values(doc, overrides):
    doc = json.loads(json.dumps(doc))
    by_name = {m["name"]: m for m in doc["metrics"]}
    for name, value in overrides.items():
        by_name[name]["value"] = value  # KeyError: not a report metric
    return doc


def selftest_cases():
    """Yield (label, bench, report doc, expected verdict)."""
    for bench, row in GATES.items():
        doc = committed(bench)
        yield f"committed BENCH_{bench}.json", bench, doc, (
            "SKIPPED" if "scaling" in row else "pass")
        for key in expand(row["required"], row.get("axes", {})):
            dropped = dict(doc, metrics=[m for m in doc["metrics"]
                                         if m["name"] != key])
            yield f"{bench} without {key}", bench, dropped, "fail"
        yield f"{bench} wrong schema", bench, dict(
            doc, schema="idp-bench-v0"), "fail"
        other = next(b for b in GATES if b != bench)
        yield f"{bench} labelled {other}", bench, dict(
            doc, bench=other), "fail"
    for bench, overrides, verdict in BOUNDARIES:
        yield (f"{bench} {overrides}", bench,
               with_values(committed(bench), overrides), verdict)


def selftest():
    """Run every self-test case; return the process exit code."""
    names = {f for f in os.listdir(REPO) if re.fullmatch(r"BENCH_\w+\.json", f)}
    errors = []
    if names != {f"BENCH_{b}.json" for b in GATES}:
        errors.append(f"committed reports {sorted(names)} do not match "
                      f"the table rows {sorted(GATES)}")
    for bench, row in GATES.items():
        required = set(expand(row["required"], row.get("axes", {})))
        for gate in expand(row["gates"] + row.get("scaling", []),
                           row.get("axes", {})):
            for term in re.split(r"==|<=|>=|<|>|\+", gate):
                term = term.strip()
                if term[0].isalpha() and term not in required:
                    errors.append(f"{bench}: gate {gate!r} reads "
                                  f"{term}, which is not required")
    cases = 0
    with tempfile.TemporaryDirectory() as tmp:
        for label, bench, doc, expected in selftest_cases():
            path = os.path.join(tmp, f"BENCH_{bench}.json")
            with open(path, "w") as f:
                json.dump(doc, f)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                got = check(path)
            cases += 1
            if got != expected:
                errors.append(f"{label}: expected {expected}, got {got}\n"
                              f"{out.getvalue()}")
    for e in errors:
        print(f"FAIL {e}")
    print(f"bench_check self-test: {cases} cases, {len(errors)} failed")
    return 1 if errors else 0


def main():
    args = sys.argv[1:]
    if args == ["--selftest"]:
        sys.exit(selftest())
    if not args or any(a.startswith("-") for a in args):
        sys.exit(__doc__)
    verdicts = [check(path) for path in args]
    failed = verdicts.count("fail")
    print(f"bench_check: {len(verdicts)} report(s), {failed} failed")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
