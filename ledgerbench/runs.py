#!/usr/bin/env python3
"""Records sets of benchmark runs and compares them.

    python3 ledgerbench/runs.py record --workload fleet --seeds 1-10 --out a.jsonl
    python3 ledgerbench/runs.py spread a.jsonl
    python3 ledgerbench/runs.py compare base.jsonl new.jsonl

`record` runs ledgerbench/run.py once per seed and appends one JSON line per
run: workload, seed, host record, deterministic outputs and the result.
`spread` prints, per workload and end-to-end metric, the median, the
quartiles (statistics.quantiles, n=4) and the quartile distance as a share
of the median, against the metric's bound in BENCHMARK.json.
`compare` refuses two sets recorded on different hosts; otherwise it prints
each (workload, metric) median change against the bound, and every seed
whose deterministic outputs (quality, failed share, digests) differ.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(args):
    seconds = args.seconds or bench()["run_seconds"]
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit("run failed: workload %s seed %d" % (args.workload, seed))
        run = {"workload": args.workload, "seed": seed, "trace": args.trace, "outputs": {}}
        for line in proc.stdout.splitlines():
            head, _, rest = line.partition(" ")
            if head == "host":
                run["host"] = json.loads(rest)
            elif head == "outputs":
                name, _, obj = rest.partition(" ")
                run["outputs"][name] = json.loads(obj)
        run["result"] = json.loads(proc.stdout.splitlines()[-1])
        with open(args.out, "a") as f:
            f.write(json.dumps(run) + "\n")
        values = {k: round(v["value"], 4) for k, v in run["result"]["metrics"].items()}
        print(args.workload, seed, values if not args.trace else "traced", flush=True)


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def medians(runs):
    table = {}
    for run in runs:
        if run["trace"]:
            continue
        for name, m in run["result"]["metrics"].items():
            table.setdefault((run["workload"], name), []).append(m["value"])
    return table


def spread(args):
    bounds = {m["name"]: m["bound"] for m in bench()["end_to_end"]}
    worst = 0.0
    for (workload, name), values in sorted(medians(load(args.file)).items()):
        q1, med, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med
        flag = "" if share <= bounds[name] / 3 else ("  > bound/3" if share <= bounds[name] else "  > BOUND")
        if name != "setup_s":
            worst = max(worst, share / bounds[name])
        print("%-10s %-17s n=%2d median %14.4f  q1 %14.4f  q3 %14.4f  iqr/med %.4f  bound %.2f%s"
              % (workload, name, len(values), med, q1, q3, share, bounds[name], flag))
    print("largest spread as a share of its bound (setup_s excluded): %.2f" % worst)


def compare(args):
    base, new = load(args.base), load(args.new)
    hosts = {json.dumps(r.get("host"), sort_keys=True) for r in base + new}
    if len(hosts) != 1:
        sys.exit("refused: the runs come from different hosts:\n" + "\n".join(sorted(hosts)))
    meta = {m["name"]: m for m in bench()["end_to_end"]}
    b, n = medians(base), medians(new)
    for key in sorted(set(b) & set(n)):
        workload, name = key
        mb, mn = statistics.median(b[key]), statistics.median(n[key])
        worse = (mn - mb) / mb if meta[name]["better"] == "lower" else (mb - mn) / mb
        verdict = "WORSE than bound" if worse > meta[name]["bound"] else "ok"
        print("%-10s %-17s base %14.4f  new %14.4f  worse by %+.4f  bound %.2f  %s"
              % (workload, name, mb, mn, worse, meta[name]["bound"], verdict))
    outputs = {(r["workload"], r["seed"], r["trace"]): r["outputs"] for r in base}
    for r in new:
        key = (r["workload"], r["seed"], r["trace"])
        if key in outputs and outputs[key] != r["outputs"]:
            print("outputs differ for %s seed %d trace %d:\n  base %s\n  new  %s"
                  % (key[0], key[1], key[2], outputs[key], r["outputs"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("record")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", type=float, default=0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=record)
    p = sub.add_parser("spread")
    p.add_argument("file")
    p.set_defaults(fn=spread)
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    p.set_defaults(fn=compare)
    args = parser.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
