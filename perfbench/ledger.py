"""Pure helpers of the replay benchmark: the summary statistics, the
output checks and the layer ledger. Kept free of I/O so test_ledger.py can
cover them without building anything."""

import math
import statistics

# A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10
# ... and stops rising here: the highest percentile with exactly ten samples
# beyond it is as noisy as ten samples whatever the run length, while a
# fixed percentile steadies as a longer run adds samples beyond it.
TAIL_PERCENTILE = 90.0

# The traced layers' self-times must add up to the traced wall time within
# this share.
LAYER_SUM_TOLERANCE = 0.05

# Layers the traced composition times, in pipeline order.
LAYERS = ("decode", "extract", "observe", "shed", "record", "merge", "clear",
          "epoch", "refine")


def tail(values, beyond=TAIL_BEYOND, percentile=TAIL_PERCENTILE):
    """The sample at `percentile`, or, when fewer than `beyond` samples lie
    above that one, the highest sample that has `beyond` samples above it;
    with the percentile it stands at. Returns (value, percentile, n); value
    and percentile are None when there are too few samples for any tail."""
    n = len(values)
    if n <= beyond:
        return None, None, n
    ordered = sorted(values)
    rank = min(math.ceil(percentile * n / 100.0) - 1, n - 1 - beyond)
    return ordered[rank], 100.0 * (rank + 1) / n, n


def per_interval_medians(values, replays):
    """Each interval's median over the replays, from samples pooled replay
    by replay (every replay contributes one sample per interval, in interval
    order)."""
    if replays < 1 or len(values) % replays:
        raise ValueError(f"{len(values)} samples do not split into "
                         f"{replays} replays")
    per_replay = len(values) // replays
    return [statistics.median(values[i::per_replay])
            for i in range(per_replay)]


def failed_share(ops_offered, ops_shed):
    """Recordable ops the load shedder dropped, as a share of those offered;
    0.0 when nothing was offered."""
    if ops_shed < 0 or ops_shed > ops_offered:
        raise ValueError(f"shed {ops_shed} of {ops_offered} offered ops")
    return ops_shed / ops_offered if ops_offered else 0.0


def admitted_share(ops_offered, ops_shed):
    """1 - failed_share: the end-to-end form, which is never 0 and so has a
    median a regression bound can be a share of."""
    return 1.0 - failed_share(ops_offered, ops_shed)


def layer_sum_ratio(layer_seconds, wall_seconds):
    """Sum of the layers' self-times over the traced wall time."""
    missing = [name for name in LAYERS if name not in layer_seconds]
    if missing:
        raise ValueError(f"layers missing from the ledger: {missing}")
    if wall_seconds <= 0:
        raise ValueError("traced wall time must be positive")
    return sum(layer_seconds[name] for name in LAYERS) / wall_seconds


def ledger_closes(ratio, tolerance=LAYER_SUM_TOLERANCE):
    return abs(ratio - 1.0) <= tolerance


def output_failures(meta, run, score):
    """Output checks on one untraced run; returns the failures (empty when
    the run is correct)."""
    failures = []
    if run["packets"] != meta["packets_expected"]:
        failures.append(f"decoded {run['packets']} packets, generator wrote "
                        f"{meta['packets_expected']}")
    if run["first_ts_us"] != meta["first_ts_us"]:
        failures.append(f"timestamp base {run['first_ts_us']} us, generator "
                        f"wrote {meta['first_ts_us']} us")
    if run["decode_skipped"] != 0:
        failures.append(f"decoder skipped {run['decode_skipped']} frames")
    if (run["intervals"] != meta["intervals"]
            or run["first_interval"] != meta["first_interval"]):
        failures.append(f"{run['intervals']} interval results from interval "
                        f"{run['first_interval']}, trace spans "
                        f"{meta['intervals']} from {meta['first_interval']}")
    if not run["identical_replays"]:
        failures.append("replays of one input produced different alerts")
    if run["final_alerts"] == 0:
        failures.append("no final alerts")
    if score["attack_events"] == 0:
        failures.append("no attack events in the window")
    if score["event_recall"] <= 0:
        failures.append("no attack event detected")
    return failures
