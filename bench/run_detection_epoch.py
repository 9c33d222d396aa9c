#!/usr/bin/env python3
"""Runs the detection_epoch bench and distills BENCH_detect_epoch.json.

Usage:
    python3 bench/run_detection_epoch.py [--build-dir build] [--out BENCH_detect_epoch.json]

The bench replays a fixed NU-like scenario and times the ingest-blocking
portion of each interval close under:
    fused_Nt        — fused allocation-free epoch on N task-pool threads
                      (the close blocks ingest for the whole epoch)
    budgeted_Nt     — fused epoch under a hard deterministic work budget
    overlapped_RrEe — double-buffered pipeline, R recording threads, E epoch
                      threads: the close times only the seal (drain +
                      rebind); the epoch runs in the
                      background and is reported as epoch_p50/p99_ms

The distilled JSON records p50/p99/mean close latency per configuration
(with the epoch thread count per variant), the overlapped variants'
close_stall_us backpressure counters, and the derived speedup the
acceptance gate cares about:
    speedup_close_p99.overlapped_*_vs_fused_1t >= 5.0 REQUIRED (gated here):
        the tail of the ingest-blocking close must drop at least 5x once
        the epoch moves off the ingest path
plus two determinism bits that must both be true: bit-identical alerts at
every thread count (alerts_match_across_threads) and the overlapped pipeline
reproducing the serial alert stream (overlapped_alerts_match_serial).

The bench also runs a per-backend reversal-latency ablation on an
attack-heavy variant of the scenario (reversal_ablation in the JSON):
REVERSE wall time p50/p99, keys recovered, sketch memory, and the full
detection run's event recall and precision for the reference reversible
backend and the compact invertible backend. Two more gates ride on it:
    reversal_ablation.compact_speedup_p99 >= --reversal-gate (default 5.0):
        the compact backend's direct candidate extraction must beat the
        modular-hash reversal sweep at least 5x at p99
    compact event_recall >= reversible event_recall - --recall-budget:
        the speedup may not be bought with missed heavy keys
The bench runs RUNS times and the JSON records each number's median over
the runs (a determinism bit must hold in every run), so one noisy run does
not move a committed tail. Refuses to run against a non-Release build tree
(see bench_common.py); --allow-non-release records loudly-marked
non-gating numbers instead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_common import check_release_build

# Bench runs per invocation; the output records each number's median. Odd,
# so every median is a value one run produced.
RUNS = 3


def median_of_runs(runs):
    """Per-key median of the runs' JSON trees: numbers take their median,
    booleans must hold in every run, anything else is the first run's."""
    first = runs[0]
    if isinstance(first, bool):
        return all(runs)
    if isinstance(first, (int, float)):
        return statistics.median(runs)
    if isinstance(first, dict):
        return {k: median_of_runs([r[k] for r in runs]) for k in first}
    return first


def cpu_context() -> dict:
    """CPU counts, reported honestly: the machine's total and the subset this
    process may actually run on (containers/cgroups often pin far fewer)."""
    total = os.cpu_count()
    try:
        available = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        available = total
    return {"num_cpus": total, "num_cpus_available": available}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--out", default="BENCH_detect_epoch.json")
    parser.add_argument(
        "--p99-gate",
        type=float,
        default=5.0,
        help="minimum overlapped-vs-fused close-p99 improvement (default 5.0)",
    )
    parser.add_argument(
        "--reversal-gate",
        type=float,
        default=5.0,
        help="minimum compact-vs-reversible reversal-p99 speedup on the "
        "attack-heavy scenario (default 5.0)",
    )
    parser.add_argument(
        "--recall-budget",
        type=float,
        default=0.05,
        help="largest event-recall drop the compact backend may show vs the "
        "reference on the attack-heavy scenario (default 0.05)",
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

    binary = os.path.join(args.build_dir, "bench", "detection_epoch")
    if not os.path.exists(binary):
        print(f"error: {binary} not found — build the repo first", file=sys.stderr)
        return 1

    runs = []
    for _ in range(RUNS):
        proc = subprocess.run([binary], capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print("error: detection_epoch bench failed (alert mismatch?)",
                  file=sys.stderr)
            sys.stdout.write(proc.stdout)
            return 1
        runs.append(json.loads(proc.stdout))
    raw = median_of_runs(runs)

    configs = raw["configs"]

    def ratio(baseline: str, contender: str, metric: str = "p50_ms"):
        b = configs.get(baseline, {}).get(metric)
        c = configs.get(contender, {}).get(metric)
        return round(b / c, 3) if b and c else None

    speedup_close_p99 = {
        "overlapped_1r1e_vs_fused_1t": ratio("fused_1t", "overlapped_1r1e",
                                             "p99_ms"),
        "overlapped_2r2e_vs_fused_1t": ratio("fused_1t", "overlapped_2r2e",
                                             "p99_ms"),
        "budgeted_1t_vs_fused_1t": ratio("fused_1t", "budgeted_1t", "p99_ms"),
    }

    reversal = raw.get("reversal_ablation", {})

    result = {
        "generated_by": "bench/run_detection_epoch.py",
        "benchmark": "bench/detection_epoch.cpp",
        "gating": gating,
        "context": {
            **cpu_context(),
            "simd_backend": raw.get("simd_backend"),
            "build_type": build_type,
            "runs": RUNS,
            "statistic": "median",
        },
        "alerts_match_across_threads": raw.get("alerts_match_across_threads"),
        "overlapped_alerts_match_serial": raw.get(
            "overlapped_alerts_match_serial"),
        "budget_work_rate_units_per_ms": raw.get(
            "budget_work_rate_units_per_ms"),
        "budgeted_deadline_ms": raw.get("budgeted_deadline_ms"),
        "close_latency_ms": configs,
        "close_p99_ms": {
            name: cfg.get("p99_ms") for name, cfg in configs.items()
        },
        "close_stall_us": {
            name: cfg["close_stall_us"]
            for name, cfg in configs.items()
            if "close_stall_us" in cfg
        },
        "speedup_close_p99": speedup_close_p99,
        "reversal_ablation": reversal,
    }

    tmp_out = args.out + ".tmp"
    with open(tmp_out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    os.replace(tmp_out, args.out)
    print(json.dumps({"speedup_close_p99": speedup_close_p99}, indent=2))
    print(f"wrote {args.out}")

    if not gating:
        print("non-Release build: gates skipped, output marked non-gating",
              file=sys.stderr)
        return 0

    # Acceptance gates. The overlapped close tail must improve at least
    # --p99-gate x over the fused close on the same scenario, both
    # determinism bits must hold, and the compact backend must beat the
    # reference reversal by --reversal-gate x at p99 on the attack-heavy
    # scenario without giving up more than --recall-budget of event recall.
    failures = []
    for key in ("overlapped_1r1e_vs_fused_1t", "overlapped_2r2e_vs_fused_1t"):
        r = speedup_close_p99.get(key)
        if r is None or r < args.p99_gate:
            failures.append(f"{key} = {r} (< {args.p99_gate})")
    if not result["alerts_match_across_threads"]:
        failures.append("alerts_match_across_threads is false")
    if not result["overlapped_alerts_match_serial"]:
        failures.append("overlapped_alerts_match_serial is false")
    rev_speedup = reversal.get("compact_speedup_p99")
    if rev_speedup is None or rev_speedup < args.reversal_gate:
        failures.append(
            f"reversal compact_speedup_p99 = {rev_speedup} "
            f"(< {args.reversal_gate})")
    ref_recall = reversal.get("reversible", {}).get("event_recall")
    compact_recall = reversal.get("compact", {}).get("event_recall")
    if ref_recall is None or compact_recall is None:
        failures.append("reversal ablation missing event_recall")
    elif compact_recall < ref_recall - args.recall_budget:
        failures.append(
            f"compact event_recall {compact_recall} below reference "
            f"{ref_recall} - budget {args.recall_budget}")
    if failures:
        for f_ in failures:
            print(f"GATE FAILED: {f_}", file=sys.stderr)
        return 1
    print(f"gates passed: overlapped close p99 >= {args.p99_gate}x better, "
          f"alerts deterministic, compact reversal >= {args.reversal_gate}x "
          f"at p99 with recall within {args.recall_budget}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
