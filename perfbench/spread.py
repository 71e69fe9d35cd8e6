"""Run-to-run spread of the benchmark over seeds, and comparison of two sets.

    python3 perfbench/spread.py --workload certify --seeds 1-10 --out a.json
    python3 perfbench/spread.py --compare a.json b.json

For each workload and metric it prints the median over the seeds and the
spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to the
metric's bound from BENCHMARK.json. `--compare` prints how much the second
set's median is worse than the first's, as a share of the first.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bounds(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m.get("bound"), m["better"]) for m in spec["per_layer" if trace else "end_to_end"]}


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def collect(workloads, seeds, seconds, trace):
    runs = {}
    for w in workloads:
        for seed in seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise SystemExit(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            res = json.loads(lines[-1])
            runs.setdefault(w, []).append({"seed": seed, **res})
            print(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}", file=sys.stderr)
    return runs


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def report(runs, trace):
    lim = bounds(trace)
    for w, rs in runs.items():
        for name in rs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in rs]
            med, sp = spread(values) if len(values) >= 2 else (values[0], 0.0)
            bound = lim.get(name, (None, None))[0]
            flag = "" if bound is None else ("  ok" if sp <= bound / 3 else ("  WIDE" if sp > bound else "  >1/3"))
            print(f"{w:18s} {name:40s} median {med:12.6g}  spread {sp:7.2%}  bound {bound}{flag}")
        print(f"{w:18s} all correct: {all(r['correct'] for r in rs)}")


def compare(a, b, trace):
    lim = bounds(trace)
    for w in a:
        for name in a[w][0]["metrics"]:
            ma = statistics.median(r["metrics"][name]["value"] for r in a[w])
            mb = statistics.median(r["metrics"][name]["value"] for r in b[w])
            bound, better = lim.get(name, (None, "lower"))
            worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
            verdict = "" if bound is None else ("  ok" if worse <= bound else "  WORSE")
            print(f"{w:18s} {name:40s} {ma:12.6g} -> {mb:12.6g}  worse by {worse:7.2%}{verdict}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        compare(a, b, args.trace)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    runs = collect(workloads, parse_seeds(args.seeds), seconds, args.trace)
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))
    report(runs, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
