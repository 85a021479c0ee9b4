"""Steadiness runs: many seeds per workload, interleaved, with quartiles.

    python3 bench/steady.py --seeds 0-9 --out bench/results/steady-a.json
    python3 bench/steady.py --compare bench/results/steady-a.json bench/results/steady-b.json

The first form runs bench/run.py once per (seed, workload), rotating the
workload order from seed to seed so that drift of the machine lands on all
of them, and prints per workload and end-to-end metric the median, the
quartiles (statistics.quantiles, n=4) and their distance as a share of the
median, next to the metric's bound and the same spread of the wall-time
figures on the runs' raw: line. The second form prints how far the
second set's medians moved from the first's, as a share of the first.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import BENCH, WORKLOADS, declared


def parse_seeds(text: str) -> list:
    if "-" in text:
        a, b = text.split("-")
        return list(range(int(a), int(b) + 1))
    return [int(s) for s in text.split(",")]


def bounds() -> dict:
    return {m["name"]: m for m in declared()["end_to_end"]}


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def run_set(seeds, seconds) -> dict:
    workloads = list(WORKLOADS)
    runs = {w: [] for w in workloads}
    for i, seed in enumerate(seeds):
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for w in order:
            proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                                   "--workload", w, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", "0"],
                                  stdout=subprocess.PIPE, text=True, timeout=200)
            if proc.returncode != 0:
                raise SystemExit(f"{w} seed {seed}: exit code {proc.returncode}")
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            info = {}
            for line in lines[:-1]:
                key, _, value = line.partition(": ")
                if key in ("input", "machine", "passes", "raw"):
                    info.setdefault(key, []).append(json.loads(value))
            runs[w].append({"seed": seed, **info, **result})
            print(f"{w} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    return runs


def report(runs: dict) -> dict:
    spec = bounds()
    out = {}
    print("| workload | metric | median | q1 | q3 | spread | bound | spread unscaled |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for w, rs in runs.items():
        out[w] = {}
        for name, m in spec.items():
            s = summary([r["metrics"][name]["value"] for r in rs])
            out[w][name] = s
            raw = (f"{summary([r['raw'][0][name] for r in rs])['spread']:.3f}"
                   if name in rs[0]["raw"][0] else "")
            print(f"| {w} | {name} ({m['unit']}) | {s['median']:.4g} | {s['q1']:.4g} | "
                  f"{s['q3']:.4g} | {s['spread']:.3f} | {m['bound']} | {raw} |")
        shares = {r["failed"] / r["attempted"] for r in rs}
        print(f"| {w} | failed share | {sorted(shares)} | | | | | |")
    return out


def compare(path_a: str, path_b: str) -> None:
    spec = bounds()
    with open(path_a) as f:
        a = json.load(f)["summary"]
    with open(path_b) as f:
        b = json.load(f)["summary"]
    print("| workload | metric | A: median (q1–q3) spread | B: median (q1–q3) spread "
          "| B worse by | bound |")
    print("| --- | --- | --- | --- | --- | --- |")
    for w in a:
        for name, m in spec.items():
            sa, sb = a[w][name], b[w][name]
            ma, mb = sa["median"], sb["median"]
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            print(f"| {w} | {name} ({m['unit']}) "
                  f"| {ma:.4g} ({sa['q1']:.4g}–{sa['q3']:.4g}) {sa['spread']:.3f} "
                  f"| {mb:.4g} ({sb['q1']:.4g}–{sb['q3']:.4g}) {sb['spread']:.3f} "
                  f"| {worse:+.3f} | {m['bound']} |")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2)
    args = ap.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    seconds = declared()["run_seconds"]
    runs = run_set(parse_seeds(args.seeds), seconds)
    result = {"seeds": args.seeds, "seconds": seconds, "runs": runs, "summary": report(runs)}
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
