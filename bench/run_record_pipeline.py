#!/usr/bin/env python3
"""Runs the record_pipeline benchmark and distills BENCH_throughput.json.

Usage:
    python3 bench/run_record_pipeline.py [--build-dir build] [--out BENCH_throughput.json]

Every google-benchmark case runs REPETITIONS (5) times and the output
records each rate's and counter's median over them, so one noisy run does
not move a committed number.

The output file records items/s (recordable packets per second) for the
serial path and the shared-nothing sharded recorder (ingest path: record +
drain; the seal merge runs on the epoch thread in production) at 1/2/4/8
requested threads, plus the seal-time shard-merge rate (merges/s, a function
of bank size not traffic), scalar-vs-batch single-sketch update rates, the
derived speedups the acceptance gates care about:
    sharded_vs_serial_4t   >= 1.2 REQUIRED (gated here, on a multi-core
        host): four record threads must clearly beat one serial thread
    batch_vs_scalar_rs64   >= 1.2 expected
    batch_vs_scalar_kary   >= 0.97 REQUIRED (gated here): at the bench
        shape (384 KiB of int32 counters, the type the bank records;
        cache-resident) both arms hash all six stages
        through one stage-transposed table and neither prefetches; the
        batch arm only skips the per-op call and bounds the live key bytes
        once per batch. So this is a parity check — a real regression
        (prefetch staging applied to a cache-resident shape) shows up as a
        ~0.96x systematic loss and still trips it. Both arms of each
        ratio come from one benchmark that alternates them pass by pass on
        one sketch, so host noise cancels out of the ratio
and scaling_efficiency: sharded[N] / (N * sharded[1]) per thread count —
1.0 is perfect shared-nothing scaling.

The overload section covers the full OverlappedPipeline ingest path with and
without load shedding (BM_UnsheddedIngest / BM_OverloadedIngest):
    overload_vs_unshedded  >= 2.0 expected (shed ops cost one hash)
    sample_coverage        >= 1/64 (the default max_level=6 floor)
    close_stall_us         == 0 (epochs never bleed into ingest)

The million_flow section covers the TLB-stress scenario (millions of
distinct client IPs per interval): full-bank ingest rate from
BM_MillionFlowVectorized, plus the shard/alert identity result of
bench/million_flow_alerts (serial vs 1/2/4/8 shards — must be bit-identical,
gated here). The per-packet access counts come from
bench/accesses_per_packet --json.

On a single-CPU host, scaling_efficiency and sharded_vs_serial_4t are marked
informational ("informational_metrics" in the output): thread counts above 1
oversubscribe the only core, so those ratios measure scheduler behavior, not
the recorder.

All numbers come from the same binaries in the same run, on the same machine.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_common import check_release_build

SHARDED_VS_SERIAL_4T_GATE = 1.2
# google-benchmark repetitions per case; the output records their median.
REPETITIONS = 5


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--out", default="BENCH_throughput.json")
    parser.add_argument(
        "--min-time",
        default="1.0",
        help="google-benchmark --benchmark_min_time per case (seconds)",
    )
    parser.add_argument(
        "--kary-batch-gate",
        type=float,
        default=0.97,
        help="minimum batch_vs_scalar_kary speedup (default 0.97: the k-ary "
        "update_batch runs the same update() code per op as the scalar "
        "loop — this is a parity check; CI smoke runs pass a "
        "still wider tolerance for noisy runners)",
    )
    parser.add_argument(
        "--rs64-batch-gate",
        type=float,
        default=1.5,
        help="minimum batch_vs_scalar_rs64 speedup (default 1.5 — the "
        "vectorized index precomputation's bar; CI smoke runs pass 1.0 "
        "for noisy runners)",
    )
    parser.add_argument(
        "--benchmark-filter",
        default="",
        help="passed through as --benchmark_filter (CI smoke uses it to "
        "drop the full-size million-flow variant)",
    )
    parser.add_argument(
        "--million-alerts-clients",
        type=int,
        default=1 << 17,
        help="distinct clients/interval for the million_flow_alerts "
        "shard-identity run (reduced by default so the check stays fast)",
    )
    parser.add_argument(
        "--allow-non-release",
        action="store_true",
        help="run against a non-Release build anyway; output is marked "
        'non-gating ("gating": false) and all gates are skipped',
    )
    args = parser.parse_args()

    build_type, gating = check_release_build(args.build_dir,
                                             args.allow_non_release)

    binary = os.path.join(args.build_dir, "bench", "record_pipeline")
    if not os.path.exists(binary):
        print(f"error: {binary} not found — build the repo first", file=sys.stderr)
        return 1

    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        raw_path = tmp.name
    try:
        cmd = [
            binary,
            f"--benchmark_min_time={args.min_time}",
            f"--benchmark_repetitions={REPETITIONS}",
            "--benchmark_report_aggregates_only=true",
            "--benchmark_format=json",
            f"--benchmark_out={raw_path}",
            "--benchmark_out_format=json",
        ]
        if args.benchmark_filter:
            cmd.append(f"--benchmark_filter={args.benchmark_filter}")
        subprocess.run(cmd, check=True)
        with open(raw_path) as f:
            raw = json.load(f)
    finally:
        os.unlink(raw_path)

    # Shard/alert identity on the (reduced) million-flow scenario: serial vs
    # 1/2/4/8 shards. The binary
    # exits non-zero when any stream differs; we parse its JSON either way so
    # the mismatch detail lands in the output.
    alerts_binary = os.path.join(args.build_dir, "bench", "million_flow_alerts")
    million_alerts = None
    if os.path.exists(alerts_binary):
        proc = subprocess.run(
            [alerts_binary, str(args.million_alerts_clients)],
            capture_output=True,
            text=True,
        )
        try:
            million_alerts = json.loads(proc.stdout)
        except json.JSONDecodeError:
            print(f"warning: unparseable million_flow_alerts output:\n"
                  f"{proc.stdout}", file=sys.stderr)
    else:
        print(f"warning: {alerts_binary} not built — shard identity "
              "unchecked", file=sys.stderr)

    # Per-packet access counts (Sec. 5.5.2) alongside the throughput they
    # explain.
    accesses_binary = os.path.join(args.build_dir, "bench",
                                   "accesses_per_packet")
    accesses = None
    if os.path.exists(accesses_binary):
        proc = subprocess.run(
            [accesses_binary, "--json"], capture_output=True, text=True)
        try:
            accesses = json.loads(proc.stdout)
        except json.JSONDecodeError:
            print("warning: unparseable accesses_per_packet --json output",
                  file=sys.stderr)
    else:
        print(f"warning: {accesses_binary} not built — access counts "
              "omitted", file=sys.stderr)

    items = {}
    counters = {}
    for bench in raw["benchmarks"]:
        # Aggregates only: the median over the repetitions is recorded.
        if bench.get("aggregate_name") != "median":
            continue
        # Multithreaded recorder benches use UseRealTime(), which suffixes
        # the benchmark name; the rate is items per wall-clock second.
        name = bench["run_name"].removesuffix("/real_time")
        items[name] = bench.get("items_per_second")
        counters[name] = {
            k: bench[k]
            for k in ("close_stall_us", "sample_coverage", "shed_level_max",
                      "scalar_items_per_second", "batch_items_per_second")
            if k in bench
        }

    def threaded(prefix: str) -> dict:
        out = {}
        for name, rate in items.items():
            m = re.fullmatch(re.escape(prefix) + r"/(\d+)", name)
            if m:
                out[m.group(1)] = rate
        return out

    def pair(name: str, arm: str):
        return counters.get(name, {}).get(f"{arm}_items_per_second")

    result = {
        "generated_by": "bench/run_record_pipeline.py",
        "benchmark": "bench/record_pipeline.cpp",
        "gating": gating,
        "context": {
            "date": raw["context"]["date"],
            "repetitions": REPETITIONS,
            "statistic": "median",
            "num_cpus": raw["context"]["num_cpus"],
            "mhz_per_cpu": raw["context"].get("mhz_per_cpu"),
            # The CMake cache, not google-benchmark's library_build_type:
            # the cache is the ground truth check_release_build gated on.
            "build_type": build_type,
        },
        "items_per_second": {
            "serial": items.get("BM_SerialRecord"),
            "sharded": threaded("BM_ShardedRecorder"),
            "shard_merge": threaded("BM_ShardMerge"),
            # Both arms of one pass-by-pass alternating benchmark.
            "update_scalar_rs64": pair("BM_UpdatePairRS64", "scalar"),
            "update_batch_rs64": pair("BM_UpdatePairRS64", "batch"),
            "update_scalar_kary": pair("BM_UpdatePairKary", "scalar"),
            "update_batch_kary": pair("BM_UpdatePairKary", "batch"),
        },
        # Full-pipeline ingest under overload: offered packets/s sustained,
        # the per-interval shed coverage, and the close-stall backpressure
        # accrued over the whole run (must stay 0 — shedding exists so that
        # overload never reaches the epoch handoff).
        "overload": {
            "unshedded_items_per_second": items.get("BM_UnsheddedIngest"),
            "overloaded_items_per_second": items.get("BM_OverloadedIngest"),
            "unshedded": counters.get("BM_UnsheddedIngest"),
            "overloaded": counters.get("BM_OverloadedIngest"),
        },
        # TLB-stress scenario: full-bank ingest with millions of distinct
        # client IPs per interval, keyed by distinct-client count.
        "million_flow": {
            "vectorized_items_per_second": threaded("BM_MillionFlowVectorized"),
            "alerts": million_alerts,
        },
        "accesses_per_packet": accesses,
    }

    def ratio(a, b):
        return round(a / b, 3) if a and b else None

    ips = result["items_per_second"]
    result["speedup"] = {
        "sharded_vs_serial_4t": ratio(ips["sharded"].get("4"), ips["serial"]),
        "sharded_vs_serial_8t": ratio(ips["sharded"].get("8"), ips["serial"]),
        "batch_vs_scalar_rs64": ratio(
            ips["update_batch_rs64"], ips["update_scalar_rs64"]
        ),
        "batch_vs_scalar_kary": ratio(
            ips["update_batch_kary"], ips["update_scalar_kary"]
        ),
        "overload_vs_unshedded": ratio(
            result["overload"]["overloaded_items_per_second"],
            result["overload"]["unshedded_items_per_second"],
        ),
    }
    # Shared-nothing scaling: sharded[N] / (N * sharded[1]). With private
    # replicas there is no shared hot-path state, so any gap from 1.0 is
    # producer-side deal-out, memory bandwidth, or core oversubscription —
    # not coherence traffic.
    base = ips["sharded"].get("1")
    result["scaling_efficiency"] = {
        n: ratio(rate, int(n) * base) if base else None
        for n, rate in sorted(ips["sharded"].items(), key=lambda kv: int(kv[0]))
    }
    # On a single-CPU host every multi-threaded configuration timeslices one
    # core, so cross-thread ratios say nothing about the recorder. Mark them
    # informational (consumers and CI gates must skip them) rather than
    # letting a 1-core container look like a scaling regression.
    if raw["context"]["num_cpus"] == 1:
        result["informational_metrics"] = {
            "scaling_efficiency": "single-CPU host: threads timeslice one "
            "core, efficiency measures the scheduler",
            "sharded_vs_serial_4t": "single-CPU host: four record threads "
            "oversubscribe one core",
        }
        print("single-CPU host: scaling_efficiency and sharded_vs_serial_4t "
              "are informational (not gated)", file=sys.stderr)

    tmp_out = args.out + ".tmp"
    with open(tmp_out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    os.replace(tmp_out, args.out)
    print(json.dumps(result["speedup"], indent=2))
    print(f"wrote {args.out}")

    if not gating:
        print("non-Release build: gates skipped, output marked non-gating",
              file=sys.stderr)
        return 0

    failures = []
    # Multi-core ingest: four shard replicas must clearly beat one serial
    # thread. Meaningless when four threads timeslice a single CPU.
    sharded = result["speedup"]["sharded_vs_serial_4t"]
    if "sharded_vs_serial_4t" not in result.get("informational_metrics", {}):
        if sharded is None or sharded < SHARDED_VS_SERIAL_4T_GATE:
            failures.append(f"sharded_vs_serial_4t = {sharded} "
                            f"(< {SHARDED_VS_SERIAL_4T_GATE})")
    # Acceptance gate: batching must never lose to the scalar loop. The k-ary
    # shape regressed to 0.84x once (prefetch staging on a cache-resident
    # sketch); this keeps that from coming back silently.
    kary = result["speedup"]["batch_vs_scalar_kary"]
    if kary is None or kary < args.kary_batch_gate:
        failures.append(f"batch_vs_scalar_kary = {kary} "
                        f"(< {args.kary_batch_gate})")
    # The vectorized index precomputation's single-sketch bar.
    rs64 = result["speedup"]["batch_vs_scalar_rs64"]
    if rs64 is None or rs64 < args.rs64_batch_gate:
        failures.append(f"batch_vs_scalar_rs64 = {rs64} "
                        f"(< {args.rs64_batch_gate})")
    # Correctness rider: the shard/alert identity check must have run clean.
    alerts = result["million_flow"]["alerts"]
    if alerts is None or not alerts.get("all_match"):
        failures.append("million_flow_alerts: shard alert streams not "
                        "bit-identical (or check not run)")
    if failures:
        for f in failures:
            print(f"GATE FAILED: {f}", file=sys.stderr)
        return 1
    print(f"gates passed: sharded_vs_serial_4t >= "
          f"{SHARDED_VS_SERIAL_4T_GATE} (unless informational), "
          f"batch_vs_scalar_kary >= {args.kary_batch_gate}, "
          f"batch_vs_scalar_rs64 >= {args.rs64_batch_gate}, "
          "million-flow alert streams bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
