"""End-to-end benchmark of the PDTL reproduction, with a traced per-layer run.

Run from the repository root::

    python3 perfbench/run.py --workload count_sparse_extmem --seed 1 --seconds 12 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``count_sparse_extmem`` -- full count runs over a sparse power-law graph
  whose oriented form is ~80x the 256 KiB memory window;
* ``count_dense_rmat`` -- full count runs over RMAT-16, kernel-bound;
* ``analytics_delta`` -- ``run_analytics`` calls, each followed by a chained
  stream of 8-edge ``GraphDelta`` batches, on a ~100k-edge power-law graph.

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` prints the per-layer metrics of a separate traced run and
writes its Chrome trace and layer table.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The process that measures is a fresh child of this one, so its peak RSS
and its pool workers' are not inflated by input generation.  Everything is
written under ``.bench_out/`` in the repository root: the input cache, the
compiled-kernel cache, temporary files, results and traces.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
#: the measuring child must finish well inside the per-run limit
CHILD_TIMEOUT_S = 170



def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--measure-into", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _environment() -> None:
    """Keep every file the program writes inside the checkout, and make the
    program's sources importable; exits non-zero when they are missing."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PDTL_KERNEL_CACHE"] = str(OUT / "kernels")
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"cannot import the program from {src}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"imported repro from {repro.__file__}, not from {src}")


def source_id() -> str:
    """The git commit of the checkout, or a digest of its sources when the
    checkout is not a git repository."""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            if sha.returncode == 0:
                return "git:" + sha.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def peak_rss_mb() -> float:
    """Peak RSS of this process and of the largest reaped child, in MB.

    This process's own peak is read from ``VmHWM``: ``ru_maxrss`` would
    carry over the peak of the parent that started it across ``exec``.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    own = int(line.split()[1])
    except OSError:
        pass
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) * 1024 / 1e6


# -- the measuring child ---------------------------------------------------


def _timed_record(session, seconds: float) -> dict:
    from measure import p90, timed_run

    run = timed_run(session, seconds)
    ops = run["ops"]
    analytics = session.workload.kind == "analytics"
    main = [o for o in ops if o.kind == ("analytics" if analytics else "count") and o.ok]
    latency = [o for o in ops if o.kind == "batch" and o.ok] if analytics else main
    if not main or not latency:
        sys.exit("no op passed its oracle check; nothing to report")
    failed = sum(not o.ok for o in ops)
    samples_ms = [o.seconds * 1e3 for o in latency]
    return {
        "correct": failed == 0 and all(o.ok for o in run["warm"]),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            "edges_per_s": session.inputs.num_edges / statistics.median(o.seconds for o in main),
            "setup_s": statistics.median(run["setups"]),
            "peak_rss_mb": peak_rss_mb(),
            "io_mb": statistics.median(o.io_bytes for o in main) / 1e6,
            "batch_p50_ms": statistics.median(samples_ms),
            "batch_p90_ms": p90(samples_ms),
        },
        "error_rate": failed / len(ops),
        "samples": {"main_ops": len(main), "latency": len(samples_ms)},
        "op_seconds": [o.seconds for o in main],
        "setups_s": run["setups"],
        "steal_share": run["steal"],
        "tiers": (_tiers(ops), "not observable with tracing off"),
    }


def _traced_record(session, seconds: float, stem: str) -> dict:
    from layers import layer_metrics, phase_table
    from measure import traced_run

    run = traced_run(session, seconds)
    rounds = run["rounds"]
    everything = run["warm"] + [o for r in rounds for o in r] + run["untraced"] + run["serial"]
    failed = sum(not o.ok for o in everything)
    if failed:
        sys.exit(f"{failed} traced-run ops failed their oracle check")
    # read the layers off the traced op with the median wall time
    layer_round = sorted(rounds, key=lambda r: r[0].seconds)[len(rounds) // 2]
    op = layer_round[0]
    metrics = layer_metrics(
        session, layer_round, [r[0] for r in rounds], run["untraced"], run["serial"][:1]
    )
    op.telemetry.events.extend(session.tracer.events)
    trace = OUT / "traces" / f"{stem}.json"
    op.telemetry.write_chrome_trace(trace)
    phases = phase_table(op)
    table = [f"{'span':<24}{'seconds':>12}"]
    table += [f"{name:<24}{value:>12.4f}" for name, value in phases]
    table += [f"{'op wall':<24}{op.seconds:>12.4f}", "", f"{'metric':<44}{'value':>16}"]
    table += [f"{name:<44}{value:>16.6g}" for name, value in sorted(metrics.items())]
    trace.with_name(f"{stem}-layers.txt").write_text("\n".join(table) + "\n")
    workers = [
        key
        for key, value in op.telemetry.counters.items()
        if key.startswith("worker.kernel.dispatch.") and value
    ]
    return {
        "correct": True,
        "attempted": len(everything),
        "failed": 0,
        "metrics": metrics,
        "phases": phases,
        "steal_share": run["steal"],
        "trace": str(trace.relative_to(ROOT)),
        "tiers": (_tiers(layer_round), _tier_names(workers)),
    }


def _stop_resource_tracker() -> None:
    """Stop and reap the tracker process shared memory starts, so no process
    of this run outlives it."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _tiers(ops) -> str:
    """The kernel tiers that dispatched fused kernels in the master during
    ``ops``, from its dispatch counts."""
    return _tier_names([key for op in ops for key in op.dispatch])


def _tier_names(keys) -> str:
    tiers = sorted({key.rsplit(".", 1)[-1] for key in keys})
    return ",".join(tiers) or "none (no fused-kernel dispatch)"


def _measure(args) -> dict:
    import numpy as np

    from inputs import WORKLOADS, cache_entry, load_inputs
    from measure import Session
    from repro.core import kernel_backend
    from repro.obs import NULL_TRACER, Tracer

    workload = WORKLOADS[args.workload]
    stem = f"{workload.name}-seed{args.seed}"
    inputs = load_inputs(cache_entry(OUT, workload, args.seed))
    work = OUT / "work" / str(os.getpid())
    tracer = Tracer(track="bench") if args.trace else NULL_TRACER
    try:
        session = Session(workload, inputs, work, tracer=tracer)
        if args.trace:
            record = _traced_record(session, args.seconds, stem)
        else:
            record = _timed_record(session, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        _stop_resource_tracker()
    master, workers = record.pop("tiers")
    record["stamp"] = {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "source": source_id(),
        "kernel_tier_active": kernel_backend.active_backend(),
        "kernel_tier_master": master,
        "kernel_tier_workers": workers,
        "steal_share": record.pop("steal_share"),
    }
    return record


# -- the parent ------------------------------------------------------------


def _print_table(args, record: dict, units: dict) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in record["metrics"].items():
        print(f"  {name:<40}{value:>18.6g} {units[name]}")
    if "error_rate" in record:
        print(f"  {'error_rate':<40}{record['error_rate']:>18.6g} ratio")
        print(f"  samples {record['samples']}  setups_s {record['setups_s']}")
    print(f"  stamp {json.dumps(record['stamp'], sort_keys=True)}")


def main(argv=None) -> int:
    started = time.monotonic()
    args = _parse(argv)
    _environment()
    from inputs import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    if args.measure_into:
        record = _measure(args)
        Path(args.measure_into).write_text(json.dumps(record))
        return 0

    from inputs import ensure_inputs
    from repro.core import kernel_backend

    kernel_backend.active_backend()  # builds the compiled-kernel cache once
    entry, hit = ensure_inputs(OUT, WORKLOADS[args.workload], args.seed)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    target = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    target.unlink(missing_ok=True)
    child = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--measure-into", str(target)],
        cwd=ROOT,
        timeout=max(CHILD_TIMEOUT_S - (time.monotonic() - started), 10),
    )
    if child.returncode != 0 or not target.is_file():
        sys.exit(f"measurement failed (exit code {child.returncode})")
    record = json.loads(target.read_text())
    record["stamp"]["input_cache_hit"] = hit
    target.write_text(json.dumps(record, indent=1, sort_keys=True))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(record["metrics"]):
        differ = sorted(set(units) ^ set(record["metrics"]))
        sys.exit(f"metrics differ from BENCHMARK.json: {differ}")
    _print_table(args, record, units)
    metrics = {
        name: {"value": value, "unit": units[name]} for name, value in record["metrics"].items()
    }
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
