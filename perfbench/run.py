"""Benchmark of the dicke4 solver: one workload, one seed, one run.

    python3 perfbench/run.py --workload trajectory-large-z --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its `src`.
The run sets up (import plus cold tables) in this interpreter and in
further fresh ones, one at a time, then repeats whole rounds of the
workload's operations until `--seconds` have passed, checks every output
against closed forms and properties, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics; `--trace 1` wraps the public
functions of every module in spans and reports the per-layer metrics.
Everything runs in one thread; BLAS is pinned to one thread.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import setup_probe

WORKLOADS = tuple(setup_probe.WARMUPS)
# Fresh interpreters per run whose set-up times give the median setup_s
# (this process counts as the first).  Fewer where one set-up takes ~4 s.
SETUP_SAMPLES = {"trajectory-large-z": 3, "readout-dense": 5, "verify-battery": 3}
OUT_DIR = setup_probe.ROOT / "perfbench" / "out"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def probe_setup(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(setup_probe.ROOT / "perfbench" / "setup_probe.py"), workload],
        cwd=setup_probe.ROOT, env=os.environ, capture_output=True, text=True,
        timeout=120, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    setup_probe.pin_blas_threads()
    tracer = None
    if args.trace:
        import tracer as tr
        tracer = tr.Tracer()
    first = setup_probe.measure_setup(args.workload,
                                      after_import=tracer.install if tracer is not None else None)
    setups = [first]
    if not args.trace:
        setups += [probe_setup(args.workload) for _ in range(SETUP_SAMPLES[args.workload] - 1)]

    import workloads as wl
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        tracer.enabled = False
        first_measured = len(tracer)
    ops = wl.ROUNDS[args.workload](args.seed, OUT_DIR)

    latencies, raw_latencies, wrong, failures = [], [], [], []
    per_op = {op.name: [] for op in ops}
    attempted = rounds = 0
    ref_before = setup_probe.reference_time()
    while rounds == 0 or sum(raw_latencies) < args.seconds:
        for op in ops:
            gc.collect()
            if tracer is not None:
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                out, error = op.run(), None
            except Exception:   # a raising operation is a failed one; keep measuring
                out, error = None, traceback.format_exc(limit=2)
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            ref_after = setup_probe.reference_time()
            attempted += 1
            raw_latencies.append(dt)
            latencies.append(dt * setup_probe.REFERENCE_S / (0.5 * (ref_before + ref_after)))
            ref_before = ref_after
            per_op[op.name].append(latencies[-1])
            verdict = wl.FAILED if error else op.check(out)
            if verdict == wl.FAILED:
                failures.append(f"{op.name}{': ' + error if error else ''}")
            elif verdict is not None:
                wrong.append(f"{op.name}: {verdict}")
        rounds += 1

    busy = sum(latencies)
    ops_per_s = (attempted - len(failures)) / busy
    if tracer is not None:
        from dicke4.symmetric_sector import sector_dimension
        metrics = tr.layer_metrics(tracer, first_measured, rounds, first["import_s"],
                                   ops_per_s, sector_dimension)
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz")
    else:
        metrics = {
            "setup_s": (statistics.median(
                x["setup_s"] * setup_probe.REFERENCE_S / x["reference_s"] for x in setups), "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "latency_s.p50": (statistics.median(latencies), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "rounds": rounds, "ops_per_round": len(ops), "setup_samples": setups,
               "raw_setup_s": statistics.median(x["setup_s"] for x in setups),
               "raw_ops_per_s": (attempted - len(failures)) / sum(raw_latencies),
               "raw_latency_s.p50": statistics.median(raw_latencies),
               "failed_ops": sorted(set(failures)), "wrong": wrong[:20],
               "op_median_s": {k: statistics.median(v) for k, v in per_op.items()},
               "result": result}
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1) + "\n")
    print(f"perfbench: {rounds} rounds of {len(ops)} ops, {len(failures)} failed, "
          f"{len(wrong)} wrong, set-up samples {[round(x['setup_s'], 3) for x in setups]}",
          file=sys.stderr)
    for line in sorted(set(failures)) + wrong[:5]:
        print(f"perfbench:   {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
