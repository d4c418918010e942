"""Preprocessing scaling: serial master pipeline vs the pool fan-out.

The master-side preprocessing is degree orientation followed by
external-sort run formation.  This benchmark times both pipelines on the
*tracked backend_scaling workload* (the sparse power-law graph of
``test_perf_backends``):

* **serial** -- threaded orientation (``parallel=True``: raw chunk reads
  on a thread pool, the master charging the identical accounting) and
  ``formation="serial"`` run formation (block-layer window reads +
  ``lexsort`` per window);
* **parallel** -- the same threaded orientation and
  ``formation="parallel"`` run formation (raw window reads + packed radix
  sort in persistent pool workers).

Orientation runs the same code in both pipelines, so it is timed once and
counted in both; the speedup is the pool run formation's.  Bit-identity
is asserted unconditionally -- sorted output bytes and the master IOStats
counters must match between the two pipelines before any time is
reported.  The ``>= PREPROCESS_MIN_SPEEDUP``
floor on the combined orientation + run-formation phase is asserted in
full mode only (quick mode / CI smoke keeps the equivalence checks).
Results land in the ``preprocess_parallel`` section of ``BENCH_pdtl.json``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import PREPROCESS_MIN_SPEEDUP, QUICK, REPEATS

from repro.core.orientation import orient_graph
from repro.externalmem.blockio import BlockDevice
from repro.externalmem.extsort import external_sort_edges, write_edge_file
from repro.graph.binfmt import write_graph
from repro.graph.csr import CSRGraph
from repro.graph.generators import power_law_degree_graph

_SORT_MEMORY = 512 * 1024  # the master's sort budget, not the per-proc M
_BLOCK = 4096
_WORKERS = 4


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    """The tracked backend_scaling graph, staged on a block device, plus
    its shuffled bidirectional edge file (the paper's unsorted input)."""
    n = 12000 if QUICK else 40000
    graph = CSRGraph.from_edgelist(
        power_law_degree_graph(n, exponent=2.3, min_degree=2, max_degree=60, seed=7)
    )
    device = BlockDevice(tmp_path_factory.mktemp("preprocess") / "disk", block_size=_BLOCK)
    gf = write_graph(device, "g", graph)
    edges = np.stack([graph.edge_sources(), graph.indices], axis=1)
    rng = np.random.default_rng(7)
    edges = edges[rng.permutation(edges.shape[0])]
    write_edge_file(device, "edges.bin", edges)
    return graph, device, gf


def _orient(gf):
    return orient_graph(gf, num_workers=_WORKERS, parallel=True, output_name="oriented")


def _best_wall(fn):
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _file_bytes(device, name):
    return device.path(name).read_bytes()


def test_preprocess_parallel(workload, perf_report):
    graph, device, gf = workload

    # -- orientation: threaded, shared by both pipelines ---------------------
    _orient(gf)  # warm the page cache outside the timed region
    orient_wall, orientation = _best_wall(lambda: _orient(gf))
    assert orientation.num_edges == graph.num_undirected_edges

    # -- external sort: serial vs pool run formation -------------------------
    def sort_with(formation):
        baseline = device.stats.snapshot()
        result = external_sort_edges(
            device,
            "edges.bin",
            f"sorted_{formation}.bin",
            memory_bytes=_SORT_MEMORY,
            formation=formation,
            formation_workers=_WORKERS,
        )
        return result, device.stats.delta(baseline)

    sort_with("parallel")  # warm
    best_serial_sort = best_parallel_sort = float("inf")
    for _ in range(REPEATS):
        sort_serial, stats_serial = sort_with("serial")
        best_serial_sort = min(best_serial_sort, sort_serial.formation_seconds)
        sort_parallel, stats_parallel = sort_with("parallel")
        best_parallel_sort = min(best_parallel_sort, sort_parallel.formation_seconds)
    assert _file_bytes(device, "sorted_serial.bin") == _file_bytes(
        device, "sorted_parallel.bin"
    )
    assert sort_serial.num_runs == sort_parallel.num_runs > 1
    serial_dict = stats_serial.as_dict()
    parallel_dict = stats_parallel.as_dict()
    serial_dict.pop("device_seconds"), parallel_dict.pop("device_seconds")
    assert serial_dict == parallel_dict  # counters exact; float base differs

    # -- the tracked phase: orientation + run formation ----------------------
    serial_phase = orient_wall + best_serial_sort
    parallel_phase = orient_wall + best_parallel_sort
    speedup = serial_phase / parallel_phase
    entries = gf.num_edges
    perf_report.record(
        "preprocess_parallel",
        graph_vertices=graph.num_vertices,
        graph_edges=graph.num_undirected_edges,
        adjacency_entries=entries,
        sort_memory_bytes=_SORT_MEMORY,
        num_runs=sort_serial.num_runs,
        workers=_WORKERS,
        orient_wall_s=orient_wall,
        formation_serial_wall_s=best_serial_sort,
        formation_parallel_wall_s=best_parallel_sort,
        merge_wall_s=sort_parallel.merge_seconds,
        preprocess_serial_wall_s=serial_phase,
        preprocess_parallel_wall_s=parallel_phase,
        preprocess_edges_per_s=entries / parallel_phase,
        preprocess_speedup=speedup,
    )
    if not QUICK:
        assert speedup >= PREPROCESS_MIN_SPEEDUP, (
            f"parallel preprocessing speedup {speedup:.2f}x over the serial "
            f"master path is below the {PREPROCESS_MIN_SPEEDUP}x floor"
        )
