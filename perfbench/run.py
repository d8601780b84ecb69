#!/usr/bin/env python3
"""Host-time benchmark of the A4 simulator.

Builds perfbench/a4perf (the simulator library plus its benchmark program) from
the repository's sources, runs one workload for a fixed host-time
budget, checks every repetition's output, and prints the metrics as
one JSON object on the last line of standard output.

    python3 perfbench/run.py --workload corun-xmem --seed 0 \
        --seconds 55 --trace 0
    python3 perfbench/run.py --self-test

--trace 0 reports the end-to-end metrics (timed repetitions only);
--trace 1 alternates timed and traced repetitions and reports the
per-layer metrics, writing the traced spans as JSON lines under
.bench_build/perfbench/. See perfbench/README.md for the metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("corun-xmem", "nic-flood", "storage-server")

# Each run must end within 180 s; the build is outside that budget.
RUN_LIMIT_S = 170.0
BUILD_LIMIT_S = 850.0

END_TO_END = {
    "point_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "sim_us_per_s": ("sim_us/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
    "pass_rate": ("fraction", "higher"),
    "model.hp_p99_us": ("sim_us", "lower"),
}

PER_LAYER = {
    "harness.parse_ms": ("ms", "lower"),
    "harness.build_ms": ("ms", "lower"),
    "harness.record_ms": ("ms", "lower"),
    "sim.warmup_s": ("s", "lower"),
    "sim.measure_s": ("s", "lower"),
    "sim.events": ("count", "lower"),
    "sim.batch_expanded": ("count", "lower"),
    "sim.ns_per_event": ("ns", "lower"),
    "cache.core_accesses": ("count", "lower"),
    "cache.mlc_misses": ("count", "lower"),
    "cache.llc_misses": ("count", "lower"),
    "cache.llc_evictions": ("count", "lower"),
    "cache.ns_per_line": ("ns", "lower"),
    "cache.dma_alloc_lines": ("count", "lower"),
    "cache.dma_update_lines": ("count", "lower"),
    "cache.dma_nonalloc_lines": ("count", "lower"),
    "cache.dma_leaked_lines": ("count", "lower"),
    "cache.migrated_inclusive": ("count", "lower"),
    "cache.dma_leak_frac": ("fraction", "lower"),
    "mem.read_lines": ("count", "lower"),
    "mem.write_lines": ("count", "lower"),
    "iodev.nic_rx_packets": ("count", "higher"),
    "iodev.nic_drops": ("count", "lower"),
    "iodev.nic_tx_packets": ("count", "higher"),
    "iodev.nvme_reads": ("count", "higher"),
    "iodev.nvme_writes": ("count", "higher"),
    "iodev.ingress_mb": ("MiB", "higher"),
    "iodev.egress_mb": ("MiB", "higher"),
    "core.a4_intervals": ("count", "lower"),
    "core.antagonists": ("count", "lower"),
    "core.ddio_off_ports": ("count", "lower"),
    "workload.ops": ("count", "higher"),
    "trace.overhead_s": ("s", "lower"),
}


class BenchError(Exception):
    pass


def build():
    """Configure (once) and build a4perf; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "a4perf"])
    deadline = time.monotonic() + BUILD_LIMIT_S
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"build timed out: {' '.join(cmd)}") from e
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return BUILD / "a4perf"


def run_a4perf(binary, args, limit_s):
    """Run a4perf; returns its stdout lines parsed as JSON objects."""
    try:
        proc = subprocess.run([str(binary)] + args, capture_output=True,
                              text=True, timeout=limit_s)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"a4perf exceeded {limit_s:.0f} s") from e
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"a4perf exited with code {proc.returncode}")
    try:
        return [json.loads(line) for line in proc.stdout.splitlines() if line]
    except json.JSONDecodeError as e:
        raise BenchError(f"a4perf printed a malformed line: {e}") from e


def metric(name, value, table):
    return {"value": value, "unit": table[name][0]}


def median(reps, key):
    return statistics.median(r[key] for r in reps)


def end_to_end(timed, done):
    failed = sum(1 for r in timed if r["fail"])
    m = {
        "point_s": median(timed, "point_s"),
        "setup_s": median(timed, "setup_s"),
        "sim_us_per_s": median(timed, "sim_us_per_s"),
        "peak_rss_mb": done["peak_rss_kib"] / 1024.0,
        "pass_rate": (len(timed) - failed) / len(timed),
        "model.hp_p99_us": median(timed, "hp_p99_us"),
    }
    return {k: metric(k, v, END_TO_END) for k, v in m.items()}


def per_layer(timed, traced):
    c = traced[0]["counts"]
    measure_ns = median(traced, "measure_s") * 1e9
    lines = (c["cache.core_accesses"] + c["cache.dma_alloc_lines"]
             + c["cache.dma_update_lines"] + c["cache.dma_nonalloc_lines"]
             + c["iodev.egress_bytes"] / 64.0)
    m = {
        "harness.parse_ms": median(traced, "parse_s") * 1e3,
        "harness.build_ms": median(traced, "build_s") * 1e3,
        "harness.record_ms": median(traced, "record_s") * 1e3,
        "sim.warmup_s": median(traced, "warmup_s"),
        "sim.measure_s": measure_ns / 1e9,
        "sim.ns_per_event": measure_ns / max(1, c["sim.events"]),
        "cache.ns_per_line": measure_ns / max(1.0, lines),
        "cache.dma_leak_frac": (c["cache.dma_leaked_lines"]
                                / max(1, c["cache.dma_alloc_lines"])),
        "iodev.ingress_mb": c["iodev.ingress_bytes"] / 2**20,
        "iodev.egress_mb": c["iodev.egress_bytes"] / 2**20,
        "trace.overhead_s": (median(traced, "point_s")
                             - median(timed, "point_s")),
    }
    for name in PER_LAYER:
        if name not in m:
            m[name] = c[name]
    return {k: metric(k, m[k], PER_LAYER) for k in PER_LAYER}


def summarize(lines, trace):
    reps = [r for r in lines if r.get("type") == "rep"]
    timed = [r for r in reps if r["mode"] == "timed"]
    traced = [r for r in reps if r["mode"] == "traced"]
    done = next((r for r in lines if r.get("type") == "done"), None)
    if not timed or done is None or (trace and not traced):
        raise BenchError("a4perf output is incomplete")
    for r in reps:
        if r["fail"]:
            print(f"FAILED {r['mode']} repetition {r['rep']}: {r['fail']}")
    pts = sorted(r["point_s"] for r in timed)
    print(f"{len(timed)} timed repetitions: point_s median "
          f"{statistics.median(pts):.4f} s, fastest {pts[0]:.4f} s, "
          f"slowest {pts[-1]:.4f} s")
    if trace:
        spans = next(r for r in lines if r.get("type") == "spans")
        print("span              count   total_s    self_s")
        for name, s in sorted(spans["self"].items()):
            print(f"{name:<16} {int(s['count']):>6} {s['total_s']:>9.4f} "
                  f"{s['self_s']:>9.4f}")
    failed = sum(1 for r in reps if r["fail"])
    metrics = per_layer(timed, traced) if trace else end_to_end(timed, done)
    return {"correct": failed == 0, "attempted": len(reps),
            "failed": failed, "metrics": metrics}


def bench(args):
    start = time.monotonic()
    binary = build()
    spans = BUILD / f"spans-{args.workload}-seed{args.seed}.jsonl"
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--trace", "--spans", str(spans)]
    # A build on an unchanged tree takes a second or two; the measured
    # run still gets its full limit after a first-time build.
    limit = max(RUN_LIMIT_S - (time.monotonic() - start), args.seconds + 60)
    lines = run_a4perf(binary, cmd, limit)
    config = next((r for r in lines if r.get("type") == "config"), None)
    if config is None:
        raise BenchError("a4perf printed no config line")
    inherited = config["env_inherited"]
    if inherited:
        print("cleared inherited knobs: "
              + ", ".join(f"{k}={v}" for k, v in sorted(inherited.items())))
    print(f"{args.workload} seed {args.seed}: windows "
          f"{config['warmup_ns'] / 1e6:g}/{config['measure_ns'] / 1e6:g} ms, "
          f"knobs in effect {json.dumps(config['env_in_effect'])}")
    return summarize(lines, args.trace)


def check_result(result, table):
    """Empty list when @result has the result shape for @table."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    metrics = result.get("metrics", {})
    if set(metrics) != set(table):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(table))}")
    for name, m in metrics.items():
        if name in table and m.get("unit") != table[name]["unit"]:
            problems.append(f"{name}: unit {m.get('unit')!r}")
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name}: value {m.get('value')!r}")
    return problems


def self_test():
    """Equivalence and seed checks in a4perf, then one short run
    per workload and trace mode whose output must parse and match the
    metric table in BENCHMARK.json (names, units, directions)."""
    binary = build()
    ok = subprocess.run([str(binary), "--self-test"]).returncode == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tables = {}
    for trace, key, ours in ((0, "end_to_end", END_TO_END),
                             (1, "per_layer", PER_LAYER)):
        tables[trace] = {m["name"]: m for m in spec[key]}
        for name, m in tables[trace].items():
            if name not in ours or (m["unit"], m["better"]) != ours[name]:
                print(f"FAIL BENCHMARK.json {key} entry {name} does not "
                      f"match run.py")
                ok = False
        for name in set(ours) - set(tables[trace]):
            print(f"FAIL run.py metric {name} missing from BENCHMARK.json")
            ok = False
    names = [w["name"] for w in spec["workloads"]]
    if not names or not set(names) <= set(WORKLOADS):
        print(f"FAIL BENCHMARK.json workloads {names}")
        ok = False
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=RUN_LIMIT_S)
            last = proc.stdout.strip().splitlines()[-1:] or [""]
            try:
                problems = check_result(json.loads(last[0]), tables[trace])
            except json.JSONDecodeError:
                problems = [f"last line is not JSON (exit {proc.returncode})"]
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}")
            what = f"{workload} --trace {trace} output"
            print(f"{'ok' if not problems else 'FAIL':<4} {what}"
                  + (": " + "; ".join(problems) if problems else ""))
            ok = ok and not problems
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            ap.error("--workload is required")
        if args.seed < 0 or not 1 <= args.seconds <= 120:
            ap.error("--seed must be >= 0 and --seconds in 1..120")
        result = bench(args)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
