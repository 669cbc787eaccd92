#!/usr/bin/env python3
"""Compares the committed perf records with those of an earlier commit.

Run from anywhere inside the checkout:

    python3 tools/bench_compare.py [--rev REV]

For each workload in BENCHMARK.json it reads BENCH_<workload>.json from the
working tree and `git show REV:BENCH_<workload>.json` (REV defaults to
HEAD~1), and prints every end-to-end metric of BENCHMARK.json side by side.
A record is one JSON object:

    {"workload": "<name>", "seed": <n>, "seconds": <s>,
     "host": {"nproc": <cores>}, "commit": "<what was measured>",
     "result": <the last stdout line of perfbench/run.py, parsed>}

Exits 1 when a metric is worse than the earlier record by more than its
BENCHMARK.json bound in its `better` direction, or when a larger share of
operations failed. Exits 0 when no earlier record exists, and says so.
Records taken on different core counts are compared, with a warning.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def previous_record(rev, name):
    show = subprocess.run(["git", "-C", ROOT, "show", f"{rev}:{name}"],
                          capture_output=True, text=True)
    return json.loads(show.stdout) if show.returncode == 0 else None


def failed_share(result):
    return result["failed"] / max(result["attempted"], 1)


def compare(metrics, old, new):
    """Prints one workload's rows; returns the number of regressions."""
    if old["host"]["nproc"] != new["host"]["nproc"]:
        print(f"  warning: nproc {old['host']['nproc']} -> {new['host']['nproc']}; "
              "the numbers are not from comparable hosts")
    regressions = 0
    for m in metrics:
        before = old["result"]["metrics"][m["name"]]["value"]
        after = new["result"]["metrics"][m["name"]]["value"]
        change = (after - before) / before if before else 0.0
        worse = change > m["bound"] if m["better"] == "lower" else change < -m["bound"]
        regressions += worse
        print(f"  {m['name']:<18} {before:>14.6g} -> {after:<14.6g} {change:+8.1%}"
              f"  (bound {m['bound']:.0%}, {m['better']} is better)"
              + ("  WORSE" if worse else ""))
    if failed_share(new["result"]) > failed_share(old["result"]):
        print(f"  failed share {failed_share(old['result']):.3%} -> "
              f"{failed_share(new['result']):.3%}  WORSE")
        regressions += 1
    return regressions


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rev", default="HEAD~1",
                        help="the commit whose records to compare against (default HEAD~1)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    regressions = 0
    compared = 0
    for workload in (w["name"] for w in benchmark["workloads"]):
        name = f"BENCH_{workload}.json"
        with open(os.path.join(ROOT, name)) as f:
            new = json.load(f)
        old = previous_record(args.rev, name)
        print(f"{workload}: {old['commit'] if old else '(none)'} -> {new['commit']}")
        if old is None:
            print(f"  no {name} at {args.rev}; nothing to compare")
            continue
        compared += 1
        regressions += compare(benchmark["end_to_end"], old, new)
    if compared == 0:
        print(f"no earlier records at {args.rev}: nothing compared")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
