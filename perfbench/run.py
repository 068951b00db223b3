#!/usr/bin/env python3
"""The repository benchmark: build perfbench from source and run it.

Run one workload (the last line of standard output is the JSON result):

    python3 perfbench/run.py --workload fig8_sweep --seed 1 --seconds 30 \
        --trace 0

Other commands:

    python3 perfbench/run.py all --seed 1 --seconds 30 [--trace 0|1]
        every workload, one process each (peak RSS is per process)
    python3 perfbench/run.py compare OLD.json NEW.json
        compare two result files; refuses results whose provenance differs
    python3 perfbench/run.py selftest
        build and run the benchmark's own tests

Run from anywhere inside a checkout: the simulator is built from the
checkout's src/ into .bench_build/perfbench, result files go to
.bench_out/. Environment variables starting with IDP_ are removed before
the benchmark runs, so every run uses the program's defaults.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ["fig8_sweep", "mirror_pdes", "serve_diurnal"]
# Provenance keys that may differ between two compared results.
COMMIT_KEYS = {"git_commit"}


def die(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def jobs():
    return str(max(1, min(4, os.cpu_count() or 1)))


def build(target):
    """Configure (once) and build @target; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"simulator sources not found at {ROOT / 'src'}", 2)
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        step = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed", 2)
    step = ["cmake", "--build", str(BUILD_DIR), "--target", target,
            "-j", jobs()]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        die("build failed", 2)
    return BUILD_DIR / target


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("IDP_")}


def commit_id():
    """git commit when available, plus a digest of the sources built."""
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        head = git.stdout.strip() if git.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        head = "none"
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".hh", ".txt"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return f"{head} src-sha256:{h.hexdigest()[:16]}"


def run_one(workload, seed, seconds, trace, size, binary):
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--size", size, "--commit", commit_id(),
           "--result", str(OUT_DIR / f"{stem}.json")]
    if trace:
        cmd += ["--spans", str(OUT_DIR / f"spans-{stem}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=clean_env(),
                              timeout=max(170.0, 3.0 * seconds + 60.0))
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish in time")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        die(f"{workload} exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(proc.stdout)
        die(f"{workload} printed no result")
    for line in lines[:-1]:
        print(line)
    return result


def cmd_run(args):
    binary = build("perfbench")
    result = run_one(args.workload, args.seed, args.seconds, args.trace,
                     args.size, binary)
    print(json.dumps(result))


def cmd_all(args):
    binary = build("perfbench")
    rows = []
    for w in WORKLOADS:
        print(f"=== {w}")
        result = run_one(w, args.seed, args.seconds, args.trace, args.size,
                         binary)
        rows.append((w, result))
    print("=== summary")
    for w, result in rows:
        for name, m in result["metrics"].items():
            print(f"{w:14s} {name:36s} {m['value']:>18.6g} {m['unit']}")
        print(f"{w:14s} {'correct':36s} {str(result['correct']):>18s} "
              f"({result['failed']} of {result['attempted']} runs failed)")
    sys.exit(0 if all(r["correct"] for _, r in rows) else 1)


def cmd_compare(args):
    docs = []
    for path in (args.old, args.new):
        with open(path) as f:
            docs.append(json.load(f))
    old, new = docs
    po, pn = old["provenance"], new["provenance"]
    differ = sorted(k for k in set(po) | set(pn)
                    if k not in COMMIT_KEYS and po.get(k) != pn.get(k))
    if differ:
        for k in differ:
            print(f"provenance differs: {k}: {po.get(k)!r} vs {pn.get(k)!r}")
        die("refusing to compare results with different provenance")
    print(f"old {po.get('git_commit')}\nnew {pn.get('git_commit')}")
    same = old["digest_hash"] == new["digest_hash"]
    print(f"simulated outputs identical: {'yes' if same else 'no'} "
          f"({old['digest_hash']} vs {new['digest_hash']})")
    mo, mn = old["result"]["metrics"], new["result"]["metrics"]
    for name in mo:
        a, b = mo[name]["value"], mn.get(name, {}).get("value")
        if b is None:
            print(f"{name:36s} {a:>14.6g} {'(missing)':>14s}")
            continue
        delta = f"{100.0 * (b - a) / a:+.1f}%" if a else "n/a"
        print(f"{name:36s} {a:>14.6g} {b:>14.6g} {delta:>8s} "
              f"{mo[name]['unit']}")


def check_benchmark_json(binary):
    """Tiny runs of every BENCHMARK.json workload print exactly the
    metrics BENCHMARK.json lists, with its units. Returns problems."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            result = run_one(w["name"], 1, 0.05, trace, "tiny", binary)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{w['name']} trace {trace}: metrics "
                                f"{sorted(set(got) ^ set(want))} or units "
                                "differ from BENCHMARK.json")
            if not result["correct"]:
                problems.append(f"{w['name']} trace {trace}: not correct")
    return problems


def cmd_selftest(_args):
    code = subprocess.run([str(build("perfbench_tests"))],
                          env=clean_env()).returncode
    problems = check_benchmark_json(build("perfbench"))
    for p in problems:
        print(f"FAILED {p}")
    print("BENCHMARK.json check:", "FAILED" if problems else "ok")
    sys.exit(code or (1 if problems else 0))


def main():
    argv = sys.argv[1:]
    if argv and argv[0] in ("all", "compare", "selftest"):
        command, argv = argv[0], argv[1:]
    else:
        command = "run"
    p = argparse.ArgumentParser(prog="perfbench/run.py " + (
        command if command != "run" else ""))
    if command == "compare":
        p.add_argument("old")
        p.add_argument("new")
    elif command in ("run", "all"):
        if command == "run":
            p.add_argument("--workload", required=True, choices=WORKLOADS)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--seconds", type=float, required=True)
        p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                       required=command == "run")
        p.add_argument("--size", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)
    {"run": cmd_run, "all": cmd_all, "compare": cmd_compare,
     "selftest": cmd_selftest}[command](args)


if __name__ == "__main__":
    main()
