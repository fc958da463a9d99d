#!/usr/bin/env python3
"""Self-tests of the CRProbe benchmark.

    python3 perfbench/selftest.py

Checks, each through perfbench/run.py exactly as the benchmark is invoked:
  * every workload emits every end_to_end metric (--trace 0) and every
    per_layer metric (--trace 1) of BENCHMARK.json, with its unit, and
    passes the oracle with zero failed operations;
  * a deliberately wrong expected verdict makes the run incorrect and raises
    the failed-operation count;
  * the verified registry-cold seeds all pass the oracle;
  * a tree holding only BENCHMARK.json and perfbench/ fails without a result.
Takes about three minutes (each registry-cold pass is a full cold campaign).
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
VERIFIED_SEEDS = [1, 77, 4242, 1234]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)

failures = []


def bench(workload, seed=1, trace=0, seconds=1, extra=(), root=ROOT):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra]
    r = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=900)
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if r.returncode == 0 and lines else None
    return r.returncode, result, r.stderr


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        failures.append(what)


def metrics_match(result, spec):
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    return got == want and all(isinstance(v["value"], (int, float))
                               for v in result["metrics"].values())


def main():
    for w in BENCH["workloads"]:
        for trace, spec in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
            code, res, err = bench(w["name"], trace=trace)
            tag = f"{w['name']} --trace {trace}"
            check(res is not None, f"{tag}: exits 0 with a result")
            if res is None:
                sys.stderr.write(err[-2000:])
                continue
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  f"{tag}: correct, {res['attempted']} attempted, {res['failed']} failed")
            check(metrics_match(res, spec), f"{tag}: emits every listed metric with its unit")

    # A wrong expectation must fail the run and count the failed operations.
    with open(os.path.join(HERE, "expected.json")) as f:
        wrong = json.load(f)
    wrong["servers"]["server/nginx_sim"]["usable"] = ["read"]
    scratch = os.path.join(ROOT, ".bench_build", "selftest")
    os.makedirs(scratch, exist_ok=True)
    wrong_path = os.path.join(scratch, "wrong_expected.json")
    with open(wrong_path, "w") as f:
        json.dump(wrong, f)
    code, res, _ = bench("registry-cold", extra=("--expected", wrong_path))
    check(res is not None and not res["correct"] and res["failed"] >= 1,
          "registry-cold with a wrong nginx verdict: incorrect, failed >= 1")

    for seed in VERIFIED_SEEDS:
        code, res, _ = bench("registry-cold", seed=seed)
        check(res is not None and res["correct"] and res["failed"] == 0,
              f"registry-cold seed {seed}: passes the oracle")

    # Without the repository's sources the benchmark must fail, not report.
    bare = os.path.join(scratch, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env_free = dict(os.environ)
    env_free.pop("CARGO_TARGET_DIR", None)
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "registry-cold",
                        "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare,
                       env=env_free, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=180)
    check(r.returncode != 0 and not r.stdout.strip(), "bare tree: nonzero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
