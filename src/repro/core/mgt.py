"""Modified Massive Graph Triangulation (Algorithm 2 of the paper).

MGT finds every triangle of an oriented graph ``G*`` by streaming the
oriented adjacency file through a memory window of ``Θ(M)`` edges:

1. read the next window of out-edges into the array ``edg``, and record in
   ``ind`` the in-window offset and degree of every vertex whose out-list
   (or part of it) sits in the window;
2. scan the whole graph vertex by vertex; for each vertex ``u`` read its
   out-list ``N(u)`` into ``nm``, compute ``N⁺(u)`` (the out-neighbours
   that have out-edges inside the window) into ``nmp``, and for every
   ``v ∈ N⁺(u)`` report a triangle ``(u, v, w)`` for every
   ``w ∈ N(u) ∩ E_v`` where ``E_v`` is ``v``'s in-window out-list.

The paper's modification relative to Hu et al.'s high-level description is
that the membership structures are *sorted arrays*, not hash sets -- the
intersection ``N(u) ∩ E_v`` is a sorted-array intersection -- which in turn
requires the adjacency file to be sorted by source and destination.  This
module implements exactly that variant, with the intersection realised as
a vectorised ``searchsorted`` over numpy arrays (or the fused loop of the
compiled tier).

On disk, step 2 reads and sweeps every scan block per window: that scan
is the I/O the paper's cost model charges.  When the graph is resident in
shared memory (:class:`~repro.core.shm.SharedGraphView`), the worker still
charges the paper's full scan block by block, but computes step 2 by
visiting only the window's in-edges: the published in-edge index lists,
for every window vertex ``v``, the adjacency positions of the entries
``(u, v)``, and those positions are visited in ascending order -- the
order of the sweep.  Triangles, listing order, pair and operation counts
and every modelled number are therefore identical on both paths.

:class:`MGTWorker` additionally supports the PDTL restriction to a
*contiguous edge range* ``[range_start, range_stop)``: only memory windows
drawn from that range are processed, so a worker finds exactly the
triangles whose pivot edge lies in its range.  Running a single worker over
the full range is the single-core MGT baseline of Figures 10/11.
"""

from __future__ import annotations

from dataclasses import dataclass
import time

import numpy as np

from repro.core import kernel_backend, kernels
from repro.core.config import PDTLConfig
from repro.core.shm import SharedGraphView
from repro.core.triangles import CountingSink, TriangleSink
from repro.errors import ConfigurationError
from repro.externalmem.iostats import IOStats
from repro.externalmem.memory import MemoryBudget
from repro.graph.binfmt import GraphFile
from repro.obs.tracer import NULL_TRACER
from repro.utils import ceil_div, prefix_sums

__all__ = ["MGTWorker", "MGTResult", "mgt_count", "window_index"]

_ITEM_BYTES = 8  # int64 adjacency entries

#: Throughput used to convert the deterministic operation count (edges
#: scanned + intersection elements examined) into a modelled CPU time when
#: ``PDTLConfig.modelled_cpu`` is set.  The absolute value only scales the
#: time axis; relative comparisons (imbalance, speedups) are unaffected.
MODELLED_CPU_OPS_PER_SECOND = 2.5e8


@dataclass
class MGTResult:
    """Outcome and resource accounting of one MGT worker run.

    ``io_stats`` are the worker's *own* analytic I/O counters (blocks it
    read/wrote under the configured block size), independent of the shared
    device counters, so per-processor breakdowns remain exact even when
    many workers share one simulated disk.  ``cpu_seconds`` is the *thread
    CPU time* spent in the in-memory triangle computation (so concurrent
    workers do not inflate each other's numbers through GIL contention),
    ``io_seconds`` the modelled device time of the worker's reads -- the two
    series plotted against each other in Figures 6-8.
    """

    triangles: int
    iterations: int
    cpu_seconds: float
    io_seconds: float
    io_stats: IOStats
    intersections: int
    edges_processed: int
    range_start: int
    range_stop: int
    peak_memory_bytes: int
    cpu_operations: int = 0


class MGTWorker:
    """One MGT execution over a contiguous range of oriented edge positions.

    Parameters
    ----------
    oriented:
        the on-disk oriented graph (``directed`` must be True and adjacency
        sorted -- both are guaranteed by :func:`repro.core.orientation.orient_graph`),
        or a zero-copy :class:`~repro.core.shm.SharedGraphView` of one --
        both expose the same read API and feed the same analytic accounting.
    config:
        supplies the per-processor memory budget ``M``, the block size ``B``
        and the window fill fraction ``c``.
    range_start, range_stop:
        the half-open edge-position range this worker is responsible for;
        defaults to the whole file (single-core MGT).
    tracer:
        optional :class:`repro.obs.tracer.Tracer`; when given (and enabled)
        the worker records one ``kernel``-category span per memory window.
        Instrumentation only -- no accounted quantity depends on it.
    """

    def __init__(
        self,
        oriented: GraphFile,
        config: PDTLConfig,
        range_start: int = 0,
        range_stop: int | None = None,
        tracer=None,
    ) -> None:
        if not oriented.directed:
            raise ConfigurationError("MGTWorker requires an oriented graph file")
        self.graph = oriented
        self.config = config
        # apply the kernel-tier knob here rather than in the runner: worker
        # processes construct their MGTWorker from the pickled config, so
        # this is the one seam every execution backend passes through
        kernel_backend.ensure(config.kernel_backend)
        self.range_start = int(range_start)
        self.range_stop = int(range_stop if range_stop is not None else oriented.num_edges)
        if not 0 <= self.range_start <= self.range_stop <= oriented.num_edges:
            raise ConfigurationError(
                f"invalid edge range [{self.range_start}, {self.range_stop}) for a "
                f"graph with {oriented.num_edges} oriented edges"
            )
        self.budget = MemoryBudget(config.memory_per_proc)
        self.io_stats = IOStats(block_size=config.block_size)
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._window_edges = config.window_edges
        # Small-degree assumption (footnote 1): every oriented out-list must
        # fit inside one memory window, otherwise a vertex's list could span
        # more than two windows and the CPU analysis breaks down.
        if oriented.max_degree > self._window_edges:
            raise ConfigurationError(
                f"graph violates the small-degree assumption: d*_max="
                f"{oriented.max_degree} exceeds the window capacity of "
                f"{self._window_edges} edges; increase memory_per_proc"
            )

    # -- I/O accounting helpers --------------------------------------------------------

    def _charge_read(self, num_items: int, sequential: bool = True) -> None:
        if num_items <= 0:
            return
        nbytes = num_items * _ITEM_BYTES
        blocks = ceil_div(nbytes, self.config.block_size)
        self.io_stats.record_read(blocks, nbytes, sequential)
        self.io_stats.add_device_time(
            self.graph.device.model.transfer_time(nbytes, sequential)
        )

    def _scan_plan(self, offsets: np.ndarray) -> tuple[list, tuple]:
        """The full-graph scan of every window, derived once per run.

        The scan reads the graph in blocks of vertices (batched to keep it
        sequential) and those blocks are the same in every window.  Returns
        the non-empty blocks as ``(first_vertex, stop_vertex, first_edge,
        num_edges)`` and the modelled charge of reading them, one read per
        block, as :meth:`IOStats.record_reads` arguments.
        """
        n = self.graph.num_vertices
        step = max(self.config.block_items // 2, 1024)
        starts = np.arange(0, n, step, dtype=np.int64)
        stops = np.minimum(starts + step, n)
        first_edges = offsets[starts]
        counts = offsets[stops] - first_edges
        keep = counts > 0
        blocks = list(
            zip(
                starts[keep].tolist(),
                stops[keep].tolist(),
                first_edges[keep].tolist(),
                counts[keep].tolist(),
            )
        )
        nbytes = [count * _ITEM_BYTES for *_, count in blocks]
        model = self.graph.device.model
        charge = (
            sum(ceil_div(b, self.config.block_size) for b in nbytes),
            sum(nbytes),
            [model.transfer_time(b, True) for b in nbytes],
        )
        return blocks, charge

    # -- the algorithm ---------------------------------------------------------------

    def run(self, sink: TriangleSink | None = None) -> MGTResult:
        """Execute modified MGT over this worker's edge range.

        Returns an :class:`MGTResult`; reported triangles go to ``sink``
        (a fresh :class:`CountingSink` when omitted).
        """
        sink = sink if sink is not None else CountingSink()
        cpu_seconds = 0.0
        intersections = 0
        iterations = 0
        # Deterministic operation count: edges loaded/scanned plus gathered
        # intersection elements.  Unlike the measured thread time it is a pure
        # function of the input, so it backs the ``modelled_cpu`` mode.
        cpu_operations = 0

        # The degree file is scanned once to build the vertex offsets used to
        # address the adjacency file.  In the paper's implementation the
        # degree file is streamed alongside the adjacency file during each
        # scan, so it does not count against the per-processor budget M;
        # this implementation caches it for simplicity but, to keep the
        # memory accounting aligned with the paper's (edg + ind + nm + nmp),
        # does not charge it to the budget either.  A shared-memory graph
        # view publishes the offsets once per run; the worker still charges
        # the same modelled degree scan, it just skips the host-side work.
        offsets = getattr(self.graph, "cached_offsets", None)
        if offsets is None:
            offsets = prefix_sums(self.graph.read_degrees())
        self._charge_read(self.graph.num_vertices, sequential=True)

        # scratch arrays nm / nmp are bounded by d*_max (paper section IV-A1)
        dmax = max(self.graph.max_degree, 1)
        self.budget.allocate("nm", dmax * _ITEM_BYTES)
        self.budget.allocate("nmp", dmax * _ITEM_BYTES)

        window_start = self.range_start
        edges_processed = 0
        scan_blocks, scan_charge = self._scan_plan(offsets)

        # A shared-memory graph view holds the whole adjacency in memory and
        # publishes the scan invariants (per-entry sources, sorted packed
        # keys, in-edge index), so each window's full-graph scan runs as ONE
        # block over the zero-copy adjacency that visits only the entries
        # pointing into the window, instead of a per-block loop of reads.
        # The modelled reads of the paper's full scan are charged either way.
        resident = isinstance(self.graph, SharedGraphView)

        # hot loop: only build window spans when tracing is actually on, so
        # the disabled path costs one attribute load per run, not per window
        traced = self._tracer.enabled

        while window_start < self.range_stop:
            window_stop = min(window_start + self._window_edges, self.range_stop)
            iterations += 1
            edges_processed += window_stop - window_start
            cpu_operations += window_stop - window_start
            window_span = (
                self._tracer.span(
                    "window",
                    cat="kernel",
                    window=iterations - 1,
                    start=window_start,
                    stop=window_stop,
                )
                if traced
                else None
            )

            # ---- load the window: edg + ind -------------------------------------
            edg = self.graph.read_adjacency_range(
                window_start, window_stop - window_start
            )
            self._charge_read(window_stop - window_start, sequential=True)
            self.budget.allocate("edg", edg.nbytes)

            t0 = time.thread_time()
            vlow, vhigh, win_offsets, win_degrees = window_index(
                offsets, window_start, window_stop
            )
            self.budget.allocate("ind", win_offsets.nbytes + win_degrees.nbytes)
            cpu_seconds += time.thread_time() - t0

            # ---- scan the whole graph vertex by vertex ----------------------------
            self.io_stats.record_reads(*scan_charge, sequential=True)
            window_pairs = 0
            if resident:
                t0 = time.thread_time()
                window_pairs, block_ops = self._process_block(
                    sink,
                    self.graph.read_adjacency_range(0, self.graph.num_edges),
                    offsets,
                    first_vertex=0,
                    edg=edg,
                    vlow=vlow,
                    vhigh=vhigh,
                    win_offsets=win_offsets,
                    win_degrees=win_degrees,
                    entry_sources=self.graph.scan_sources,
                    block_keys=self.graph.scan_keys,
                    in_offsets=self.graph.in_offsets,
                    in_positions=self.graph.in_positions,
                )
                cpu_operations += block_ops
                cpu_seconds += time.thread_time() - t0
            else:
                for v, hi, first_edge, num_edges in scan_blocks:
                    block_adj = self.graph.read_adjacency_range(first_edge, num_edges)
                    t0 = time.thread_time()
                    pairs, block_ops = self._process_block(
                        sink,
                        block_adj,
                        offsets[v : hi + 1] - first_edge,
                        first_vertex=v,
                        edg=edg,
                        vlow=vlow,
                        vhigh=vhigh,
                        win_offsets=win_offsets,
                        win_degrees=win_degrees,
                    )
                    window_pairs += pairs
                    cpu_operations += block_ops
                    cpu_seconds += time.thread_time() - t0
            intersections += window_pairs

            self.budget.release("edg")
            self.budget.release("ind")
            if window_span is not None:
                window_span.end(pairs=window_pairs)
            window_start = window_stop

        peak = self.budget.peak_usage
        self.budget.release_all()
        if self.config.modelled_cpu:
            cpu_seconds = cpu_operations / MODELLED_CPU_OPS_PER_SECOND
        return MGTResult(
            triangles=sink.count,
            iterations=iterations,
            cpu_seconds=cpu_seconds,
            io_seconds=self.io_stats.device_seconds,
            io_stats=self.io_stats.snapshot(),
            intersections=intersections,
            edges_processed=edges_processed,
            range_start=self.range_start,
            range_stop=self.range_stop,
            peak_memory_bytes=peak,
            cpu_operations=cpu_operations,
        )


    def _process_block(
        self,
        sink: TriangleSink,
        block_adj: np.ndarray,
        block_offsets: np.ndarray,
        first_vertex: int,
        edg: np.ndarray,
        vlow: int,
        vhigh: int,
        win_offsets: np.ndarray,
        win_degrees: np.ndarray,
        **resident,
    ) -> tuple[int, int]:
        """Run the MGT inner loop for one scanned block of cone vertices.

        The loop body of Algorithm 2 -- build ``N⁺(u)`` and intersect
        ``N(u) ∩ E_v`` for every ``v ∈ N⁺(u)`` -- is evaluated for *all* cone
        vertices of the block at once by the ``mgt_block_scan`` kernel: the
        fused loop of the compiled tier, or its numpy twin
        (``kernels.NUMPY_IMPLS["mgt_block_scan"]``: candidate mask, one
        segment gather of the ``E_v`` lists, one packed-key binary search).
        ``resident`` carries a shared-memory view's published scan
        invariants (``entry_sources``, ``block_keys``, ``in_offsets``,
        ``in_positions``) when the block is its whole adjacency; the kernel
        then visits only the window vertices' in-edges, in sweep order.

        Returns ``(pairs, operations)``: the number of (cone, out-neighbour)
        pairs intersected -- the Σ|N⁺(u)| term of the CPU analysis -- and the
        deterministic operation count (block entries scanned plus gathered
        ``E_v`` elements) that backs the modelled CPU time.  Both are the
        same whether the block was swept or visited through the index.
        """
        if block_adj.shape[0] == 0:
            return 0, 0
        scan = kernel_backend.fused("mgt_block_scan") or kernels.NUMPY_IMPLS[
            "mgt_block_scan"
        ]
        count_only = type(sink) is CountingSink
        num_pairs, total, hits, cones, pivots_v, pivots_w = scan(
            block_adj,
            block_offsets,
            edg,
            vlow,
            vhigh,
            win_offsets,
            win_degrees,
            not count_only,
            **resident,
        )
        if hits:
            if count_only:
                sink.count += hits
            else:
                sink.add_triples(cones + np.int64(first_vertex), pivots_v, pivots_w)
        return num_pairs, int(block_adj.shape[0]) + total


def window_index(
    offsets: np.ndarray, window_start: int, window_stop: int
) -> tuple[int, int, np.ndarray, np.ndarray]:
    """The ``ind`` array of one memory window ``[window_start, window_stop)``.

    Returns ``(vlow, vhigh, win_offsets, win_degrees)``: the vertices
    ``[vlow, vhigh]`` whose out-lists overlap the window, and per vertex the
    offset of its in-window out-list into ``edg`` and its in-window degree
    (0 for a vertex with no entry inside; the boundary vertices' lists are
    truncated to the window).
    """
    vlow = int(np.searchsorted(offsets, window_start, side="right")) - 1
    vhigh = int(np.searchsorted(offsets, window_stop, side="left")) - 1
    vhigh = max(vhigh, vlow)
    vs = np.arange(vlow, vhigh + 1, dtype=np.int64)
    starts = np.maximum(offsets[vs], window_start)
    stops = np.minimum(offsets[vs + 1], window_stop)
    win_degrees = np.maximum(stops - starts, 0).astype(np.int64)
    win_offsets = (starts - window_start).astype(np.int64)
    return vlow, vhigh, win_offsets, win_degrees


def mgt_count(
    oriented: GraphFile,
    config: PDTLConfig | None = None,
    sink: TriangleSink | None = None,
) -> MGTResult:
    """Run single-core MGT over a whole oriented on-disk graph.

    This is the baseline the paper compares PDTL against in Figures 10/11;
    it is literally PDTL with ``N = P = 1``.
    """
    config = config if config is not None else PDTLConfig()
    worker = MGTWorker(oriented, config)
    return worker.run(sink)
