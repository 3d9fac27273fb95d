#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark's end-to-end metrics.

Runs the benchmark once per seed for each workload, from the root of the
checkout, and prints, per workload and metric, the median of the runs and
the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. The spread
is what BENCHMARK.json's bounds must cover.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1-10]
                                    [--seconds 10] [--trace 0]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default=str(bench["run_seconds"]))
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for w in args.workloads.split(","):
        values = {}
        for s in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(s),
                                      "--seconds", args.seconds, "--trace", args.trace]
            out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                sys.exit(f"{w} seed {s}: incorrect result: {res}")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {s}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())),
                  flush=True)
        print(f"{w}: {len(seeds(args.seeds))} runs, seeds {args.seeds}")
        for name, vs in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            note = "" if bound is None else f"  bound {bound}" + ("  OVER" if spread > bound else "")
            print(f"  {name:<14} median {med:<12.5g} spread {spread:.4f}{note}")


if __name__ == "__main__":
    main()
