#!/usr/bin/env python3
"""CRProbe benchmark entry point.

    python3 perfbench/run.py --workload registry-cold --seed 1 --seconds 40 --trace 0

Builds perfbench/crpbench (CMake, Release) from the sources of the checkout
it sits in, runs one workload, checks every output against
perfbench/expected.json, and prints one JSON line as the last line of
stdout: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list. Workloads and metrics are described in perfbench/README.md.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build crpbench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"no CRProbe sources under {ROOT}/src")
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "crpbench", "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            sys.stderr.write(r.stdout.decode(errors="replace")[-4000:])
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return os.path.join(bdir, "crpbench")


def run_driver(binary, args, raw_path, trace_path):
    # CRP_* knobs (cache dirs, chaos, job counts, telemetry sinks) would make
    # the run depend on the caller's environment: drop them all.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CRP_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", raw_path]
    if args.trace:
        cmd += ["--trace-file", trace_path]
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, timeout=RUN_TIMEOUT_S)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace")[-4000:])
        raise RuntimeError(f"crpbench exited {r.returncode}")
    with open(raw_path) as f:
        return json.load(f)


# --- oracle ------------------------------------------------------------------------


def check_verdicts(exp, rep):
    usable = sorted(s for s, v in rep["verdicts"] if v == "usable")
    fps = sorted(s for s, v in rep["verdicts"] if v == "false-positive")
    errs = []
    if usable != sorted(exp["usable"]):
        errs.append(f"{rep['id']}: usable {usable}, expected {sorted(exp['usable'])}")
    if fps != sorted(exp["false_positive"]):
        errs.append(f"{rep['id']}: false positives {fps}, expected {sorted(exp['false_positive'])}")
    return errs


def check_report(expected, rep):
    """Errors in one registry report's funnel result (not its plan)."""
    exp = expected["targets"].get(rep["id"])
    if exp is None:
        return [f"unexpected target {rep['id']}"]
    errs = []
    server = expected["servers"].get(rep["id"])
    if server is not None:
        errs += check_verdicts(server, rep)
    if "summary" in exp and rep["summary"] != exp["summary"]:
        errs.append(f"{rep['id']}: summary {rep['summary']!r}, expected {exp['summary']!r}")
    if rep["usable"] != exp["usable"]:
        errs.append(f"{rep['id']}: {rep['usable']} usable, expected {exp['usable']}")
    return errs


def check_replay(expected, rep):
    """Errors in one registry report's exploit-plan synthesis + replay."""
    exp = expected["targets"].get(rep["id"], {})
    if not rep["has_plan"]:
        return [f"{rep['id']}: no plan"]
    errs = []
    if rep["surface"] != exp.get("plan"):
        errs.append(f"{rep['id']}: plan surface {rep['surface']}, expected {exp.get('plan')}")
    if not rep["completed"]:
        errs.append(f"{rep['id']}: replay incomplete: {rep['error']}")
    if rep["crashes"] or rep["unhandled"]:
        errs.append(f"{rep['id']}: replay crashes={rep['crashes']} unhandled={rep['unhandled']}")
    if rep["surface"] != "none" and (not rep["hijacked"] or rep["leaked"] != exp.get("leaked")):
        errs.append(f"{rep['id']}: hijacked={rep['hijacked']} leaked={rep['leaked']}")
    return errs


def by_pass(reports):
    passes = {}
    for r in reports:
        passes.setdefault(r["pass"], []).append(r)
    return passes


def oracle(expected, raw):
    """Returns (attempted, failed, errors)."""
    attempted, failed, errors = 0, 0, []

    def count(errs):
        nonlocal attempted, failed
        attempted += 1
        if errs:
            failed += 1
            errors.extend(errs)

    for p, reps in sorted(by_pass(raw["reports"]).items()):
        seen = [r["id"] for r in reps]
        for tid in sorted(set(expected["targets"]) - set(seen)):
            count([f"pass {p}: no report for {tid}"])
            count([f"pass {p}: no plan replay for {tid}"])
        for r in reps:
            count(check_report(expected, r))
            count(check_replay(expected, r))
    for j in raw["jobs"]:
        count([] if j["ok"] else [f"job {j['target']} plan={j['plan']}: {j['error']}"])
    if raw["workload"] == "serve-warm" and len(raw["jobs"]) < 100:
        count([f"only {len(raw['jobs'])} served jobs (need >= 100)"])
    if raw["counters"].get("oracle.crashes", 0) != 0:
        count([f"oracle.crashes = {raw['counters']['oracle.crashes']}"])
    return attempted, failed, errors


# --- metrics ------------------------------------------------------------------------


def quantile(values, q):
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def end_to_end(raw):
    passes = [p for p in raw["passes"] if not p["traced"]]
    total_wall = sum(p["wall_s"] for p in passes)
    if raw["workload"] == "serve-warm":
        lat_ms = [j["ms"] for j in raw["jobs"]]
    else:
        # run_all hands every report and replay (24 operations) back when it
        # returns: each operation's latency is its pass's wall time.
        lat_ms = [p["wall_s"] * 1e3 for p in passes for _ in range(24)]
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        # The first pass: later serve-warm passes also hold the jobs the
        # daemon retains, so their peak depends on how many passes ran.
        "peak_rss_mb": passes[0]["peak_rss_mb"],
        "jobs_per_s": len(lat_ms) / total_wall,
        "job_p50_ms": quantile(lat_ms, 0.5),
        "job_p90_ms": quantile(lat_ms, 0.9),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--expected", default=os.path.join(HERE, "expected.json"),
                    help="oracle file (self-tests point this at a corrupted copy)")
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        with open(args.expected) as f:
            expected = json.load(f)
        if args.workload not in [w["name"] for w in bench["workloads"]]:
            raise RuntimeError(f"unknown workload {args.workload}")
        binary = build()
        out_dir = os.path.join(build_dir(), "out")
        os.makedirs(out_dir, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        raw = run_driver(binary, args, os.path.join(out_dir, stem + ".raw.json"),
                         os.path.join(out_dir, stem + ".trace.json"))
    except (OSError, RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        log(f"error: {e}")
        return 1

    attempted, failed, errors = oracle(expected, raw)
    for e in errors[:20]:
        log(f"FAIL {e}")
    values = raw["layers"] if args.trace else end_to_end(raw)
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        log(f"error: metrics not measured: {missing}")
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
