"""Per-layer metrics of the traced run, read off the program's telemetry.

The program's spans (``PDTLConfig(trace=True)``: master phases, per-chunk
spans, per-window ``kernel`` spans, analytics and delta spans) and counters
are combined with the benchmark's own spans around each public call.  Every
metric named in ``BENCHMARK.json`` is reported for every workload; a layer
a workload never enters reads 0.
"""

from __future__ import annotations

import statistics

#: master phase spans of one ``PDTLRunner.run``, in pipeline order
PHASES = ("stage_input", "orient", "plan", "replicate", "triangle_scan", "aggregate")
#: fused kernels whose per-tier dispatch counts are reported
KERNELS = (
    "mgt_block_scan",
    "edge_support_accumulate",
    "truss_peel_level",
    "triangle_edge_ids",
    "incidence_csr",
)
TIERS = ("numpy", "cffi")
#: numeric code of ``kernel.tier``: the tier with the most fused dispatches
#: in the traced processes+shm op, 0 when no fused kernel was dispatched
TIER_CODES = {"none": 0, "numpy": 1, "cffi": 2, "numba": 3}

MB = 1e6


def _sum(events, name: str) -> float:
    return sum(e.duration for e in events if e.name == name)


def worker_lanes(chunks) -> list[float]:
    """Busy seconds per pool worker, reconstructed from the chunk spans.

    A pool worker runs one chunk at a time, so the chunk spans (on one
    system-wide monotonic clock) are assigned greedily, in start order, to
    the lane that fell free last before the chunk started.
    """
    ends: list[float] = []
    busy: list[float] = []
    for chunk in sorted(chunks, key=lambda e: e.start):
        free = [i for i, end in enumerate(ends) if end <= chunk.start]
        if free:
            lane = max(free, key=lambda i: ends[i])
        else:
            lane = len(ends)
            ends.append(0.0)
            busy.append(0.0)
        ends[lane] = chunk.start + chunk.duration
        busy[lane] += chunk.duration
    return busy


def dominant_tier(dispatch: dict) -> str:
    totals: dict[str, float] = {}
    for key, value in dispatch.items():
        tier = key.rsplit(".", 1)[-1]
        totals[tier] = totals.get(tier, 0) + value
    return max(totals, key=totals.get) if totals else "none"


def layer_metrics(session, layer_round, traced, untraced, serial) -> dict[str, float]:
    """Per-layer metrics of one workload's traced run.

    ``layer_round`` is the traced op the layers are read from (with the
    delta stream chained on it for ``analytics_delta``); ``traced`` and
    ``untraced`` are the interleaved traced and untraced ops of the
    workload's main kind, and ``serial`` its ops on the serial backend,
    same input.
    """
    op = layer_round[0]
    telemetry = op.telemetry
    events = telemetry.events
    counters = telemetry.counters_with_rates()
    master = [e for e in events if e.track == "master" and e.cat == "phase"]
    chunks = [e for e in events if e.cat == "chunk" and e.name == "chunk"]
    windows = [e for e in events if e.cat == "kernel" and e.name == "window"]
    chunk_seconds = [e.duration for e in chunks] or [0.0]
    lanes = worker_lanes(chunks)
    blocks_read, blocks_written = op.blocks

    # dispatches in the master (measured around the op) plus in the pool
    # workers (shipped back per chunk task as ``worker.`` counters)
    dispatch = dict(op.dispatch)
    for key, value in counters.items():
        if key.startswith("worker.kernel.dispatch."):
            short = key[len("worker."):]
            dispatch[short] = dispatch.get(short, 0) + value
    for batch in layer_round[1:]:
        for key, value in batch.dispatch.items():
            dispatch[key] = dispatch.get(key, 0) + value

    untraced_median = statistics.median(o.seconds for o in untraced)
    traced_median = statistics.median(o.seconds for o in traced)
    metrics = {
        "graph.ingest_s": session.ingest_seconds,
        "graph.stage_s": _sum(master, "stage_input"),
        "extsort.sort_s": session.sort_seconds,
        "extsort.runs": session.sort_result.num_runs,
        "extsort.merge_passes": session.sort_result.merge_passes,
        "orient.wall_s": _sum(master, "orient"),
        "orient.io_mb": (
            counters.get("io.phase.orient.bytes_read", 0)
            + counters.get("io.phase.orient.bytes_written", 0)
        )
        / MB,
        "plan.wall_s": _sum(master, "plan"),
        "scheduler.chunks": counters.get("scheduler.chunks", 0),
        "scheduler.steals": counters.get("scheduler.steals", 0),
        "scheduler.retries": counters.get("scheduler.retries", 0),
        "scheduler.max_queue_depth": counters.get("scheduler.max_queue_depth", 0),
        "scan.worker_imbalance": (
            max(lanes) / statistics.mean(lanes) if lanes and sum(lanes) else 0.0
        ),
        "pdtl.unspanned_s": dict(phase_table(op))["unspanned"],
        "scan.wall_s": _sum(master, "triangle_scan"),
        "scan.chunk_p50_s": statistics.median(chunk_seconds),
        "scan.chunk_max_s": max(chunk_seconds),
        "scan.kernel_s": sum(e.duration for e in windows),
        "scan.host_s": sum(e.duration for e in chunks) - sum(e.duration for e in windows),
        "shm.attach_hit_rate": counters.get("worker.shm.attach_cache.hit_rate", 0.0),
        "parallel.speedup": statistics.median(o.seconds for o in serial) / untraced_median,
        "kernel.tier": TIER_CODES.get(dominant_tier(dispatch), 0),
        "io.blocks_read": blocks_read,
        "io.blocks_written": blocks_written,
        "blockio.fd_cache_hit_rate": counters.get("master.blockio.fd_cache.hit_rate", 0.0),
        "sink.spill_runs": counters.get("worker.sink.spill_runs", 0),
        "sink.spilled_positions": counters.get("worker.sink.spilled_positions", 0),
        "analytics.canonicalise_s": _sum(events, "canonicalise"),
        "analytics.truss_s": _sum(events, "truss"),
        "truss.rounds": sum(
            e.args_dict.get("rounds", 0) for e in events if e.name == "truss"
        ),
        "delta.normalise_s": _sum(events, "delta_normalise"),
        "delta.support_merge_s": _sum(events, "delta_support_merge"),
        "delta.replay_s": _sum(events, "delta_replay"),
        "delta.touched_edges": counters.get("delta.touched_edges", 0),
        "delta.replayed_levels": counters.get("delta.replayed_levels", 0),
        "obs.overhead_pct": 100.0 * (traced_median - untraced_median) / untraced_median,
    }
    for kernel in KERNELS:
        for tier in TIERS:
            metrics[f"kernel.dispatch.{kernel}.{tier}"] = dispatch.get(
                f"kernel.dispatch.{kernel}.{tier}", 0
            )
    return {k: float(v) for k, v in metrics.items()}


def phase_table(op) -> list[tuple[str, float]]:
    """``(span, seconds)`` rows of one traced op: the master phases, the
    analytics spans of a ``run_analytics`` call, and the rest no span
    covers.  The rows sum to the op's wall time as the client saw it."""
    events = op.telemetry.events
    master = [e for e in events if e.track == "master" and e.cat == "phase"]
    rows = [(name, _sum(master, name)) for name in PHASES]
    if op.kind == "analytics":
        rows += [(name, _sum(events, name)) for name in ("canonicalise", "truss")]
    rows.append(("unspanned", op.seconds - sum(s for _, s in rows)))
    return rows
