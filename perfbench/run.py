#!/usr/bin/env python3
"""Packets-in -> alerts-out replay benchmark for HiFIND.

    python3 perfbench/run.py --workload nu_pcap --seed 1 --seconds 10 --trace 0

Run from the root of a source tree. The script

  1. builds perfbench/ (the library from src/ plus hifind_replay) in
     .bench_build/, Release, and refuses any other build type;
  2. generates the workload's input file from --seed (pcap or NetFlow v5,
     plus a ground-truth sidecar) in .bench_build/inputs/, outside every
     measured process, and reads it once so the timed replays find it in
     the page cache;
  3. --trace 0: starts the pipeline in a fresh process several times
     (setup_s), then replays the file closed-loop through the library's
     public pipeline for --seconds and reports the end-to-end metrics;
     --trace 1: makes the same untraced run, then one traced replay that
     composes the layers from their public calls in one thread, and reports
     the per-layer metrics;
  4. scores the alerts against the ground truth after the timed region and
     checks the outputs; a failed check prints the failure instead of
     numbers and exits non-zero.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Lines before it give the context (host,
build, thread plan) and every metric by name and unit.

Closed loop: one driver thread decodes the file and offers every packet as
fast as the pipeline takes it, like `trace_tool detect` on a stored trace.
Latency of an interval runs from the driver handing the pipeline the
boundary (the first packet of the next interval, or the close call) to the
interval's result being in the driver's hands. Every interval of every
replay is one sample of the mean and the tail; the tail is p90, or the
highest sample with ten beyond it when p90 has fewer, printed with its
percentile and the sample count. The p50 is the median over intervals of
each interval's median over the replays.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # write nothing outside .bench_build/
import ledger  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_BUILD = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_BUILD, "hifind_replay")
WORKLOADS = ("nu_pcap", "flood_nf5", "overload_pcap")
SETUP_RUNS = 15
STEP_TIMEOUT_S = 170


class CheckFailed(Exception):
    pass


def call(args, timeout=STEP_TIMEOUT_S):
    """Runs one step to completion (killed and reaped on timeout) and
    returns its stdout; its stderr goes to ours."""
    done = subprocess.run(args, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=timeout, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{os.path.basename(args[0])} {args[1]} exited "
                           f"with {done.returncode}")
    return done.stdout


def call_json(args, timeout=STEP_TIMEOUT_S):
    return json.loads(call(args, timeout).strip().splitlines()[-1])


def build():
    for needed in ("src/CMakeLists.txt", "bench/bench_common.py"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            raise RuntimeError(f"{needed} not found: run from the root of a "
                               "HiFIND source tree")
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    from bench_common import check_release_build  # noqa: E402

    if not os.path.isfile(os.path.join(CMAKE_BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        call(["cmake", "-S", HERE, "-B", CMAKE_BUILD,
              "-DCMAKE_BUILD_TYPE=Release", *generator], timeout=900)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", CMAKE_BUILD, "-j", jobs],
                   stdout=sys.stderr, stderr=sys.stderr, timeout=900,
                   check=True)
    build_type, _ = check_release_build(CMAKE_BUILD, allow_non_release=False)
    return build_type


def make_input(workload, seed):
    """Generates the workload's input once per (workload, seed); the
    directory appears only when complete. Inputs of other workloads and
    seeds are deleted first: one takes up to 300 MB, and a series of runs
    uses a new seed each time."""
    inputs = os.path.join(BUILD, "inputs")
    final = os.path.join(inputs, f"{workload}-{seed}")
    if os.path.isdir(inputs):
        for name in os.listdir(inputs):
            if name != os.path.basename(final):
                shutil.rmtree(os.path.join(inputs, name), ignore_errors=True)
    if not os.path.isfile(os.path.join(final, "meta.json")):
        staging = final + ".tmp"
        shutil.rmtree(staging, ignore_errors=True)
        os.makedirs(staging)
        call([BINARY, "gen", workload, str(seed), staging])
        shutil.rmtree(final, ignore_errors=True)
        os.rename(staging, final)
    with open(os.path.join(final, "meta.json")) as f:
        meta = json.load(f)
    name = os.path.basename(meta["input"])
    meta["input"] = os.path.join(final, name)
    meta["truth"] = os.path.join(final, "truth.txt")
    meta["dir"] = final
    with open(meta["input"], "rb") as f:  # warm the page cache
        while f.read(1 << 22):
            pass
    return meta


def measure_setup(workload):
    """Process start -> pipeline ready, median of SETUP_RUNS processes."""
    samples = []
    for _ in range(SETUP_RUNS):
        start = time.monotonic_ns()  # CLOCK_MONOTONIC, as the child's
        ready = call_json([BINARY, "setup", workload])["ready_ns"]
        samples.append((ready - start) / 1e9)
    return statistics.median(samples)


def run_untraced(workload, meta, seconds):
    alerts = os.path.join(meta["dir"], "alerts_run.txt")
    run = call_json([BINARY, "run", workload, meta["input"], str(seconds),
                     alerts])
    run["alerts_path"] = alerts
    return run


def score(workload, meta, alerts_path):
    return call_json([BINARY, "score", workload, alerts_path, meta["truth"]])


def context(build_type, run):
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        with open("/sys/kernel/mm/transparent_hugepage/enabled") as f:
            thp_host = f.read().strip()
    except OSError:
        thp_host = "unavailable"
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "build_type": build_type,
        "simd_backend": run["simd_backend"],
        "HIFIND_THP": os.environ.get("HIFIND_THP", "(unset)"),
        "HIFIND_NUMA": os.environ.get("HIFIND_NUMA", "(unset)"),
        "thp_advice_on": bool(run["thp"]),
        "numa_binding_on": bool(run["numa"]),
        "thp_host": thp_host,
        "threads": {"driver": run["threads_driver"],
                    "record": run["threads_record"],
                    "epoch": run["threads_epoch"]},
    }


def tail_of(run, key, what):
    value, pct, n = ledger.tail(run[key])
    if value is None:
        raise CheckFailed(f"{n} {what} are too few for a tail")
    print(f"{key} tail: {value:.6g} ms, p{pct:.1f} of {n} {what} "
          f"({run['replays']} replays)")
    return value


def end_to_end(run, scored, setup_s):
    alert = run["alert_ms"]
    alert_tail = tail_of(run, "alert_ms", "intervals")
    # Printed, not bounded: on the overlapped workloads it is the gap
    # between a few slow epochs and the short intervals after them, which
    # spreads past any bound from run to run. The traced run reports it as
    # pipeline.stall_ms_tail.
    tail_of(run, "stall_ms", "boundaries")
    # Most intervals of a trace close in a few ms and the rest take 100x
    # longer, so the pooled median sits in the noisy top of the fast mode;
    # each interval's median over the replays takes one slow replay out.
    alert_p50 = statistics.median(
        ledger.per_interval_medians(alert, run["replays"]))
    return {
        "pkts_per_s": (run["packets"] / statistics.median(run["wall_s"]),
                       "1/s"),
        "alert_ms_p50": (alert_p50, "ms"),
        "alert_ms_tail": (alert_tail, "ms"),
        "alert_ms_mean": (statistics.fmean(alert), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "precision": (scored["precision"], "ratio"),
        "event_recall": (scored["event_recall"], "ratio"),
        "admitted_share": (ledger.admitted_share(run["ops_offered"],
                                                 run["ops_shed"]), "ratio"),
    }


def per_layer(run, traced):
    wall = traced["wall_s"]
    layers = {name: traced[f"{name}_s"] for name in ledger.LAYERS}
    ratio = ledger.layer_sum_ratio(layers, wall)
    if not ledger.ledger_closes(ratio):
        raise CheckFailed(f"layer self-times sum to {ratio:.3f} of the "
                          "traced wall time")
    epoch_tail, epoch_pct, n = ledger.tail(traced["epoch_ms"])
    print(f"detect.epoch_ms_tail is p{epoch_pct:.1f} over {n} intervals")
    for name in ledger.LAYERS:
        print(f"  layer {name:8s} {layers[name]:9.4f} s "
              f"({layers[name] / wall:6.1%})")
    raw = traced["alerts_raw"]
    return {
        "packet.decode_ns_per_pkt": (traced["decode_ns_per_pkt"], "ns/pkt"),
        "packet.decode_skipped": (traced["decode_skipped"], "count"),
        "packet.extract_ns_per_pkt": (traced["extract_ns_per_pkt"], "ns/pkt"),
        "packet.op_ratio": (traced["op_ratio"], "ratio"),
        "detect.record_ns_per_op": (traced["record_ns_per_op"], "ns/op"),
        "detect.record_ops": (traced["record_ops"], "count"),
        "detect.bank_bytes": (traced["bank_bytes"], "B"),
        "detect.merge_ms_per_interval": (traced["merge_ms_per_interval"],
                                         "ms"),
        "detect.clear_ms_per_interval": (traced["clear_ms_per_interval"],
                                         "ms"),
        "detect.epoch_ms_p50": (statistics.median(traced["epoch_ms"]), "ms"),
        "detect.epoch_ms_tail": (epoch_tail, "ms"),
        "detect.epoch_s_total": (traced["epoch_s"], "s"),
        "detect.inference_work": (traced["inference_work"], "count"),
        "detect.truncated_intervals": (traced["truncated_intervals"],
                                       "count"),
        "detect.heavy_buckets_dropped": (traced["heavy_buckets_dropped"],
                                         "count"),
        "detect.shed_ns_per_op": (traced["shed_ns_per_op"], "ns/op"),
        "detect.shed_ops": (traced["shed_ops"], "count"),
        "detect.shed_coverage_min": (traced["shed_coverage_min"], "ratio"),
        "detect.shed_level_max": (traced["shed_level_max"], "count"),
        "detect.refine_observe_ns_per_op": (
            traced["refine_observe_ns_per_op"], "ns/op"),
        "detect.refine_ms_per_interval": (traced["refine_ms_per_interval"],
                                          "ms"),
        "detect.refine_confirmed": (traced["refine_confirmed"], "count"),
        "detect.refine_killed": (traced["refine_killed"], "count"),
        "detect.alerts_raw": (raw, "count"),
        "detect.alerts_final": (traced["alerts_final"], "count"),
        "detect.final_over_raw": (traced["alerts_final"] / raw if raw else
                                  0.0, "ratio"),
        "pipeline.stall_ms_tail": (
            tail_of(run, "stall_ms", "boundaries"), "ms"),
        "pipeline.close_stall_ms": (statistics.median(run["close_stall_ms"]),
                                    "ms"),
        "pipeline.ring_full_spins": (run["ring_full_spins"], "count"),
        "pipeline.drain_spin_yields": (run["drain_spin_yields"], "count"),
        "pipeline.shard_occupancy_max": (
            statistics.median(run["shard_occupancy_max"]), "ratio"),
        "trace.layer_sum_ratio": (ratio, "ratio"),
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (statistics.median(run["wall_s"]), "s"),
    }


def benchmark(args):
    build_type = build()
    meta = make_input(args.workload, args.seed)
    setup_s = None if args.trace else measure_setup(args.workload)
    run = run_untraced(args.workload, meta, args.seconds)
    print("context: " + json.dumps(context(build_type, run)))
    attempted = run["packets"] * run["replays"]
    scored = score(args.workload, meta, run["alerts_path"])
    failures = ledger.output_failures(meta, run, scored)
    if failures:
        raise CheckFailed("; ".join(failures))
    if not args.trace:
        return attempted, end_to_end(run, scored, setup_s)

    alerts = os.path.join(meta["dir"], "alerts_trace.txt")
    traced = call_json([BINARY, "trace", args.workload, meta["input"],
                        alerts])
    attempted += traced["packets"]
    if traced["decode_skipped"] != 0:
        raise CheckFailed(f"traced decode skipped {traced['decode_skipped']} "
                          "frames")
    with open(alerts, "rb") as a, open(run["alerts_path"], "rb") as b:
        if a.read() != b.read():
            raise CheckFailed("traced alerts differ from the untraced run's")
    return attempted, per_layer(run, traced)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        attempted, metrics = benchmark(args)
    except CheckFailed as e:
        print(f"check failed: {e}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>18.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
