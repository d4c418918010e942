"""Set-up, ops and the closed loops of one measurement process.

Everything here drives the program through its public calls only:
``external_sort_edges`` and ``CSRGraph.from_edgelist`` (ingest),
``PDTLRunner.run`` (count ops), ``run_analytics`` and ``GraphDelta.apply``
(analytics ops).  One client issues one op, waits for it and checks it
against the oracle before it issues the next (a closed loop with one
client).  Every op runs on ``procs_per_node=2``, ``num_nodes=1``, the
``processes`` backend with ``shm=True``, dynamic scheduling and the ``auto``
kernel tier.
"""

from __future__ import annotations

import gc
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import CSRGraph, EdgeList, PDTLConfig, PDTLRunner, run_analytics
from repro.analytics import GraphDelta
from repro.cluster.executor import shutdown_process_pool
from repro.core import kernel_backend
from repro.externalmem.blockio import BlockDevice
from repro.externalmem.extsort import external_sort_edges, read_edge_file, write_edge_file
from repro.obs import NULL_TRACER, snapshot_process_counters

from inputs import Inputs, Workload, truss_digest

#: whole set-ups per timed run; ``setup_s`` is their median.  A count
#: set-up repeats a multi-second warm-up op, so count runs take two to keep
#: every run of every workload inside the benchmark's time budget
SETUP_REPEATS = {"count": 2, "analytics": 3}
SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "pdtl-shm"


def shm_segments() -> set[str]:
    """Names of this program's live POSIX shared-memory segments."""
    if not SHM_DIR.is_dir():
        return set()
    return {p for p in os.listdir(SHM_DIR) if p.startswith(SHM_PREFIX)}


@dataclass
class Op:
    """One attempted op: its kind, wall time and whether it passed the
    oracle.  It keeps only figures, never the op's output, so a long run
    does not hold every graph and truss it produced."""

    kind: str  # "count", "analytics" or "batch"
    seconds: float
    ok: bool
    io_bytes: int = 0
    blocks: tuple[int, int] = (0, 0)
    telemetry: object = None
    dispatch: dict = field(default_factory=dict)

    @classmethod
    def of_run(cls, kind, seconds, ok, result, dispatch) -> "Op":
        """An op backed by one PDTL run; its modelled device I/O is the
        master's set-up I/O plus every node's scan I/O."""
        stats = [result.metrics.setup_io_stats] + [n.io_stats for n in result.metrics.nodes]
        return cls(
            kind,
            seconds,
            ok,
            io_bytes=sum(s.bytes_read + s.bytes_written for s in stats),
            blocks=(sum(s.blocks_read for s in stats), sum(s.blocks_written for s in stats)),
            telemetry=result.telemetry,
            dispatch=dispatch,
        )


class Session:
    """One workload's inputs, block device and ingested graph inside the
    measuring process."""

    def __init__(self, workload: Workload, inputs: Inputs, work_dir: Path, tracer=NULL_TRACER):
        self.workload = workload
        self.inputs = inputs
        self.tracer = tracer
        self.device = BlockDevice(work_dir / "device", block_size=workload.block_size)
        write_edge_file(self.device, "raw", inputs.edges)
        self.graph: CSRGraph | None = None
        self.sort_result = None
        self.ingest_seconds = 0.0
        self.sort_seconds = 0.0

    def config(self, trace: bool = False) -> PDTLConfig:
        return PDTLConfig(
            num_nodes=1,
            procs_per_node=2,
            memory_per_proc=self.workload.memory_per_proc,
            block_size=self.workload.block_size,
            scheduling="dynamic",
            shm=True,
            trace=trace,
        )

    # -- set-up -----------------------------------------------------------

    def ingest(self) -> None:
        """Raw shuffled edge file -> external sort -> undirected CSR."""
        start = time.perf_counter()
        with self.tracer.span("external_sort_edges", cat="bench"):
            self.sort_result = external_sort_edges(
                self.device, "raw", "sorted", self.workload.memory_per_proc
            )
        sorted_edges = read_edge_file(self.device, "sorted")
        self.device.delete("sorted")
        middle = time.perf_counter()
        with self.tracer.span("from_edgelist", cat="bench"):
            self.graph = CSRGraph.from_edgelist(
                EdgeList(sorted_edges, self.inputs.num_vertices)
            )
        self.sort_seconds = middle - start
        self.ingest_seconds = time.perf_counter() - middle

    def setup(self) -> tuple[float, list[Op]]:
        """One whole set-up from a cold pool: ingest, kernel warm-up and one
        untimed warm-up op.  Returns its wall time and the warm-up ops."""
        shutdown_process_pool()
        # drop the previous set-up's graph before the pool forks again, so
        # the workers' peak RSS does not depend on when the collector ran
        self.graph = None
        gc.collect()
        start = time.perf_counter()
        self.ingest()
        with self.tracer.span("kernel_warmup", cat="bench"):
            kernel_backend.warmup()
        warm = self.run_op()
        return time.perf_counter() - start, warm

    # -- ops --------------------------------------------------------------

    def run_op(
        self, trace: bool = False, backend: str = "processes", deadline=None
    ) -> list[Op]:
        if self.workload.kind == "count":
            return [self.count_op(trace, backend)]
        return self.analytics_round(trace, backend, deadline)

    def count_op(self, trace: bool = False, backend: str = "processes") -> Op:
        runner = PDTLRunner(self.config(trace), backend=backend)
        segments = shm_segments()
        dispatch = snapshot_process_counters()
        try:
            with self.tracer.span("PDTLRunner.run", cat="bench", backend=backend):
                start = time.perf_counter()
                result = runner.run(self.graph)
                seconds = time.perf_counter() - start
        except Exception as exc:  # an op that raises is a failed op
            print(f"count op failed: {exc!r}", file=sys.stderr)
            return Op("count", 0.0, False)
        dispatch = _delta(snapshot_process_counters(), dispatch)
        ok = result.triangles == self.inputs.triangles and not (shm_segments() - segments)
        return Op.of_run("count", seconds, ok, result, dispatch)

    def analytics_round(
        self, trace: bool = False, backend: str = "processes", deadline=None
    ) -> list[Op]:
        """One ``run_analytics`` call, then the chained delta stream.

        Each op is checked against the from-scratch oracle of the state it
        produced; the stream stops early once ``deadline`` has passed.
        """
        oracles = self.inputs.oracles
        segments = shm_segments()
        dispatch = snapshot_process_counters()
        try:
            with self.tracer.span("run_analytics", cat="bench", backend=backend):
                start = time.perf_counter()
                result = run_analytics(self.graph, self.config(trace), backend=backend)
                seconds = time.perf_counter() - start
        except Exception as exc:
            print(f"run_analytics failed: {exc!r}", file=sys.stderr)
            return [Op("analytics", 0.0, False)]
        dispatch = _delta(snapshot_process_counters(), dispatch)
        ok = (
            result.triangles == self.inputs.triangles
            and truss_digest(result.edges, result.truss.trussness, result.edge_supports)
            == oracles[0]
            and not (shm_segments() - segments)
        )
        telemetry = result.pdtl.telemetry
        ops = [Op.of_run("analytics", seconds, ok, result.pdtl, dispatch)]
        if not ok:
            return ops
        graph, truss, supports = self.graph, result.truss, result.edge_supports
        for i, (ins, dels) in enumerate(self.inputs.batches):
            if deadline is not None and time.perf_counter() >= deadline:
                break
            delta = GraphDelta(insertions=ins if ins.shape[0] else None, deletions=dels)
            dispatch = snapshot_process_counters()
            try:
                with self.tracer.span("GraphDelta.apply", cat="bench", batch=i):
                    start = time.perf_counter()
                    applied = delta.apply(
                        graph, prev=truss, supports=supports, telemetry=telemetry
                    )
                    seconds = time.perf_counter() - start
            except Exception as exc:
                print(f"delta batch {i} failed: {exc!r}", file=sys.stderr)
                ops.append(Op("batch", 0.0, False))
                break
            state = truss_digest(applied.edges, applied.truss.trussness, applied.supports)
            ok = state == oracles[i + 1]
            dispatch = _delta(snapshot_process_counters(), dispatch)
            ops.append(Op("batch", seconds, ok, dispatch=dispatch))
            if not ok:
                break
            graph, truss, supports = applied.graph, applied.truss, applied.supports
        return ops


def _delta(after: dict, before: dict) -> dict:
    return {
        key: value - before.get(key, 0)
        for key, value in after.items()
        if key.startswith("kernel.dispatch.") and value - before.get(key, 0)
    }


def read_cpu_times() -> tuple[int, int] | None:
    """``(steal, total)`` jiffies of all CPUs from ``/proc/stat``."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return None
    values = [int(v) for v in fields[1:9]]
    return values[7], sum(values)


def steal_share(before, after) -> float | None:
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def p90(samples: list[float]) -> float:
    """The 90th percentile, interpolated between samples, never beyond the
    largest (a count workload has only a handful of samples)."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def timed_run(session: Session, seconds: float) -> dict:
    """Set-ups, then ops until ``seconds`` have passed; tracing off."""
    setups, warm = [], []
    for _ in range(SETUP_REPEATS[session.workload.kind]):
        elapsed, ops = session.setup()
        setups.append(elapsed)
        warm.extend(ops)
    cpu_before = read_cpu_times()
    ops: list[Op] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        ops.extend(session.run_op(deadline=deadline))
    steal = steal_share(cpu_before, read_cpu_times())
    shutdown_process_pool()
    return {"setups": setups, "warm": warm, "ops": ops, "steal": steal}


def traced_run(session: Session, seconds: float) -> dict:
    """One set-up, then traced and untraced ops interleaved for ``seconds``,
    alternating which of the pair goes first, then one op on the serial
    backend.  An analytics op chains the delta stream only when traced."""
    with session.tracer.span("setup", cat="bench"):
        _, warm = session.setup()
    cpu_before = read_cpu_times()
    rounds: list[list[Op]] = []
    untraced: list[Op] = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        for trace in (True, False) if len(rounds) % 2 else (False, True):
            if trace:
                rounds.append(session.run_op(trace=True))
            else:
                untraced.append(session.run_op(deadline=0.0)[0])
    serial = session.run_op(backend="serial", deadline=0.0)
    steal = steal_share(cpu_before, read_cpu_times())
    shutdown_process_pool()
    return {
        "warm": warm,
        "rounds": rounds,
        "untraced": untraced,
        "serial": serial,
        "steal": steal,
    }
