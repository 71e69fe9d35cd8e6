"""ncquad benchmark: seeded workloads, exact checks, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload complete_gf31 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table

Run from a checkout: the program is imported from `src/` next to this
directory, never from an installed copy. Each workload is a closed loop, one
client in one process: an operation starts when the previous one returns.
Passes over the workload's operation list repeat until `--seconds` is spent;
times are calibrated against the machine's speed (calibrate.py) and reported
as medians over passes. Outputs are checked after each pass, untimed. `--trace 0` prints the end-to-end metrics; `--trace 1` spends half
the time untraced and half traced and prints the per-layer metrics. The last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5


def _load_program():
    """Import ncquad from this checkout's src/ or exit 2 without a result."""
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        import ncquad  # noqa: F401
        import ncquad.cli  # noqa: F401
    except ImportError as exc:
        sys.stderr.write(f"perfbench: cannot import ncquad from {ROOT / 'src'}: {exc}\n")
        sys.exit(2)
    if not Path(ncquad.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.stderr.write(f"perfbench: ncquad was imported from {ncquad.__file__}, not from {ROOT / 'src'}\n")
        sys.exit(2)


def machine_info():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_at_start": os.getloadavg(),
    }


def measure_setup(workload, seed):
    """Median calibrated wall time of a fresh interpreter that imports ncquad
    and ncquad.cli and generates the workload's inputs, then exits. Returns
    the median and the raw samples."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = calibrate.sample()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=120, check=False)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.decode(errors='replace')[-500:]}")
        raw.append(elapsed)
        scaled.append(elapsed * calibrate.REF_NOMINAL_S / ((before + calibrate.sample()) / 2))
    return statistics.median(scaled), raw


class Pass:
    """One pass: operation windows and their raw and calibrated times,
    failures, results, and in a traced run its span range and counters."""

    __slots__ = ("windows", "times", "cal", "ref", "failures", "results", "spans", "counts")

    def __init__(self, windows, failures, results):
        self.windows = windows
        self.times = [end - start for start, end in windows]
        self.cal = None
        self.ref = None
        self.failures = failures
        self.results = results
        self.spans = (0, 0)
        self.counts = None

    @property
    def wall(self):
        return sum(self.times)

    @property
    def cal_wall(self):
        return sum(self.cal)


def run_pass(ops, tracer=None, first_op_id=0):
    """One closed-loop pass over the operations, then their checks."""
    clock = time.perf_counter
    windows, results = [], []
    span_start = len(tracer.spans) if tracer else 0
    for i, op in enumerate(ops):
        if tracer:
            tracer.open_op(first_op_id + i, op.kind)
        start = clock()
        try:
            result, err = op.run(), None
        except Exception as exc:  # a failing operation is counted, the pass goes on
            result, err = None, f"{type(exc).__name__}: {exc}"
        end = clock()
        if tracer:
            tracer.close_op()
            if op.kind == "cli" and err is None:
                tracer.counts["cli.bytes_out"] += len(result[1])
        windows.append((start, end))
        results.append((result, err))
    failures = []
    for op, (result, err) in zip(ops, results):
        if err is None:
            try:
                err = op.check(result)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        if err:
            failures.append(f"{op.label}: {err}")
    p = Pass(windows, failures, results)
    if tracer:
        p.spans = (span_start, len(tracer.spans))
    return p


def run_passes(ops, budget, tracer=None, min_passes=3):
    """Repeat passes while another typical pass still fits in the budget, and
    at least `min_passes` times, so the median has a middle. Operation times
    are calibrated against the machine's speed while they ran."""
    passes = []
    start = time.perf_counter()
    with calibrate.SpeedSampler() as sampler:
        while True:
            if tracer:
                tracer.counts.clear()
            p = run_pass(ops, tracer, first_op_id=len(passes) * len(ops))
            if tracer:
                p.counts = Counter(tracer.counts)
            passes.append(p)
            elapsed = time.perf_counter() - start
            if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > budget:
                break
    for p in passes:
        p.cal = sampler.calibrate(p.windows)
        p.ref = sampler.reference_during(p.windows[0][0], p.windows[-1][1])
    return passes


def tail(times):
    """The highest percentile with ten operations beyond it; a pass of ten or
    fewer operations has none, so its slowest operation stands in."""
    n = len(times)
    beyond = 10 if n > 10 else 0
    return sorted(times)[n - 1 - beyond], 100.0 * (n - beyond) / n


def end_to_end(passes, setup_s):
    """Calibrated medians over passes (see calibrate.py)."""
    tails = [tail(p.cal) for p in passes]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.cal_wall for p in passes), "s"),
        "op_p50_s": (statistics.median(statistics.median(p.cal) for p in passes), "s"),
        "op_tail_s": (statistics.median(t for t, _ in tails), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, {
        "op_tail_percentile": tails[0][1],
        "ops_per_pass": len(passes[0].times),
        "raw_wall_s": statistics.median(p.wall for p in passes),
    }


PER_LAYER_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "cells": "count", "rows": "count",
                   "rank": "count", "useful_ratio": "ratio", "points": "count", "bytes_out": "bytes",
                   "max_coeff_bits": "bits", "basis_elems": "count", "normal_words": "count"}


def _unit(name):
    if name.endswith("_ns"):
        return "ns"
    if name.endswith("_s"):
        return "s"
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


def code_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ncquad").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_counter_repeat(workload, seed, passes):
    """Work counters must repeat exactly between the passes of this run and
    with an earlier run of the same code and seed. Returns a status string."""
    import tracing

    per_pass = [{k: p.counts.get(k, 0) for k in tracing.WORK_COUNTERS} for p in passes]
    if any(c != per_pass[0] for c in per_pass[1:]):
        return "mismatch between passes"
    path = OUT / "counters" / f"{workload}-seed{seed}-{code_digest()}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        return "repeated" if earlier == per_pass[0] else "mismatch with an earlier run"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(per_pass[0], sort_keys=True))
    return "first run"


def traced_metrics(workload, seed, ops, seconds):
    import tracing

    untraced = run_passes(ops, seconds / 2, min_passes=1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_passes(ops, seconds / 2, tracer, min_passes=1)
    finally:
        tracer.uninstall()
    per_pass = []
    for p in traced:
        busy, self_t = tracing.span_times(tracer.spans, *p.spans)
        m = tracing.layer_metrics(busy, self_t, p.counts, p.wall)
        # span times are raw; scale them by the pass's calibration factor
        factor = p.cal_wall / p.wall
        per_pass.append(({k: v * factor if k.endswith("_s") else v for k, v in m.items()}, self_t))
    metrics = {k: statistics.median(m[k] for m, _ in per_pass) for k in per_pass[0][0]}
    metrics["trace.overhead_s"] = (statistics.median(p.cal_wall for p in traced)
                                   - statistics.median(p.cal_wall for p in untraced))
    scalars = [c for op, (r, err) in zip(ops, traced[-1].results) if err is None for c in op.scalars(r)]
    metrics.update(tracing.scalar_timings(scalars))
    status = check_counter_repeat(workload, seed, traced)
    detail = {
        "untraced_passes": len(untraced),
        "raw_self_s_by_span": {k: v for k, v in sorted(per_pass[-1][1].items())},
        "counter_repeat": status,
        "spans": len(tracer.spans),
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-spans.json").write_text(
        json.dumps({"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans})
    )
    return untraced + traced, {k: (v, _unit(k)) for k, v in metrics.items()}, detail


def run_workload(args):
    import workloads

    info = machine_info()
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    setup_s = None
    if not args.trace:
        setup_s, info["setup_samples_s"] = measure_setup(args.workload, args.seed)
    refs = workloads.cli_references(ROOT) if args.workload == "sklyanin_queries" else None
    ops = workloads.build(args.workload, args.seed, ROOT, refs)
    if args.trace:
        passes, metrics, detail = traced_metrics(args.workload, args.seed, ops, args.seconds)
        info.update(detail)
    else:
        passes = run_passes(ops, args.seconds)
        metrics, extra = end_to_end(passes, setup_s)
        info.update(extra)
    info["pass_wall_s"] = [p.wall for p in passes]
    info["pass_cal_wall_s"] = [p.cal_wall for p in passes]
    info["pass_op_s"] = [p.times for p in passes]
    info["pass_op_cal_s"] = [p.cal for p in passes]
    info["reference_s"] = [p.ref for p in passes]
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.times) for p in passes)
    info["failed_frac"] = len(failures) / attempted
    info["failures"] = failures[:20]
    correct = not failures and info.get("counter_repeat", "first run") in ("first run", "repeated")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1)
    )
    for f in failures[:20]:
        sys.stderr.write(f"FAILED {f}\n")
    if not correct and info.get("counter_repeat") not in (None, "first run", "repeated"):
        sys.stderr.write(f"work counters: {info['counter_repeat']}\n")
    for k, (v, u) in metrics.items():
        print(f"{args.workload:18s} {k:40s} {v:14.6g} {u}")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, one after the other."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(f"perfbench: workload {name} exited {proc.returncode}\n")
            return 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, m in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = m
            print(f"{name:18s} {k:40s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    _load_program()
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)} or all")
    os.chdir(ROOT)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
