#!/usr/bin/env python3
"""Self-test of the benchmark itself (about a minute on 4 cores).

    python3 perfbench/selftest.py

Checks, from the root of a checkout, that:
  * the result line has exactly the keys correct/attempted/failed/metrics,
    and its metric names and units match BENCHMARK.json: end_to_end with
    --trace 0, per_layer with --trace 1;
  * a clean run is correct with failed == 0;
  * an invalid scenario injected into paper_sweep, and a corrupt entry
    injected into cache_replay's cache, each raise the failed count and
    make the run incorrect;
  * run.py exits non-zero without printing a result in a directory that
    holds only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check passes.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

failures = []


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def result(workload, trace, extra=()):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "1", "--seconds", "0.1",
           "--trace", str(trace)] + list(extra)
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        check(False, "%s exits 0" % " ".join(cmd[1:]))
        return None
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}

    for workload, trace in (("paper_sweep", 0), ("cache_replay", 0), ("paper_sweep", 1)):
        r = result(workload, trace)
        if r is None:
            continue
        label = "%s --trace %d" % (workload, trace)
        check(sorted(r) == ["attempted", "correct", "failed", "metrics"], label + ": result keys")
        names = [(m["name"], m["unit"]) for m in expected[trace]]
        got = [(name, v["unit"]) for name, v in r["metrics"].items()]
        check(got == names, label + ": metric names and units match BENCHMARK.json")
        check(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1, label + ": correct")

    for workload, fault in (("paper_sweep", "invalid-scenario"), ("cache_replay", "corrupt-entry")):
        r = result(workload, 0, ["--inject", fault])
        if r is not None:
            check(r["failed"] > 0 and not r["correct"],
                  "%s with an injected %s reports failures" % (workload, fault))

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper_sweep",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    check(out.returncode != 0 and "metrics" not in out.stdout,
          "run.py fails without a result when the library sources are absent")

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
