"""Workload inputs: generation from the seed, oracles, and the on-disk cache.

Inputs are generated once per ``(workload, seed)`` and cached under the
benchmark's untracked output directory, so repeated runs on one seed do not
pay generation again and generation is never part of a timed region or of
``setup_s``.  A cache entry holds:

* ``edges.npy`` -- the undirected edge set, each edge once, shuffled: the
  raw edge file the benchmark ingests through ``external_sort_edges``;
* ``meta.json`` -- vertex/edge counts and the count oracle;
* ``stream.npz`` (``analytics_delta`` only) -- the pre-drawn chained delta
  batches; ``meta.json`` then also holds a digest of the from-scratch truss
  decomposition of every state of the stream, which each op is checked
  against.

Oracles are computed on a CSR built here with plain numpy, independently of
the ingest path under test (``CSRGraph.from_edgelist``).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: delta batches per stream; they alternate deletion-only and mixed
STREAM_BATCHES = 32
#: edges per delta batch (a mixed batch splits them between insert and delete)
BATCH_EDGES = 8
#: generator seed of the tracked analytics graph (``benchmarks/perf``)
TRACKED_GRAPH_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "count" or "analytics"
    memory_per_proc: int
    block_size: int


WORKLOADS = {
    "count_sparse_extmem": Workload("count_sparse_extmem", "count", 256 << 10, 4096),
    "count_dense_rmat": Workload("count_dense_rmat", "count", 1 << 20, 4096),
    "analytics_delta": Workload("analytics_delta", "analytics", 256 << 10, 4096),
}


def _generate(name: str, seed: int):
    from repro.graph.generators import power_law_degree_graph, rmat

    if name == "count_sparse_extmem":
        return power_law_degree_graph(
            400_000, exponent=2.3, min_degree=2, max_degree=200, seed=seed
        )
    if name == "count_dense_rmat":
        return rmat(16, edge_factor=16, seed=seed)
    # the tracked ~100k-edge graph of the perf harness, whatever the seed:
    # its triangle count moves by a third from one generator seed to the
    # next, which would swamp the delta path in the spread across seeds;
    # the workload seed draws the edge order and the delta stream instead
    return power_law_degree_graph(
        13_000, exponent=2.1, min_degree=4, max_degree=300, seed=TRACKED_GRAPH_SEED
    )


def canonical_edge_set(edges: np.ndarray) -> np.ndarray:
    """Each undirected edge once as ``(min, max)``, self-loops dropped, sorted."""
    low = np.minimum(edges[:, 0], edges[:, 1])
    high = np.maximum(edges[:, 0], edges[:, 1])
    keep = low != high
    pairs = np.stack([low[keep], high[keep]], axis=1).astype(np.int64)
    return np.unique(pairs, axis=0)


def oracle_csr(canonical: np.ndarray, num_vertices: int):
    """Bidirectional CSR of a canonical edge set, built with plain numpy."""
    from repro.graph.csr import CSRGraph

    both = np.concatenate([canonical, canonical[:, ::-1]])
    order = np.lexsort((both[:, 1], both[:, 0]))
    both = both[order]
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(both[:, 0], minlength=num_vertices), out=indptr[1:])
    return CSRGraph(indptr, both[:, 1].copy(), directed=False)


def _draw_stream(canonical: np.ndarray, n: int, rng: np.random.Generator):
    """Chained batches: each is valid against the state the previous left.

    Even batches delete ``BATCH_EDGES`` present edges; odd batches delete
    half that many and insert as many absent edges.  Returns the batches as
    ``(insertions, deletions)`` pairs and the canonical edge set of every
    state, the base graph first.
    """
    keys = canonical[:, 0] * n + canonical[:, 1]
    states = [canonical]
    batches = []
    for b in range(STREAM_BATCHES):
        n_del = BATCH_EDGES if b % 2 == 0 else BATCH_EDGES // 2
        n_ins = BATCH_EDGES - n_del
        dels = keys[rng.choice(keys.shape[0], size=n_del, replace=False)]
        ins: list[int] = []
        present = set(keys.tolist())
        while len(ins) < n_ins:
            u, v = sorted(rng.integers(0, n, size=2).tolist())
            key = u * n + v
            if u != v and key not in present:
                present.add(key)
                ins.append(key)
        ins_keys = np.array(sorted(ins), dtype=np.int64)
        keys = np.union1d(np.setdiff1d(keys, dels), ins_keys)
        batches.append((_pairs(ins_keys, n), _pairs(np.sort(dels), n)))
        states.append(_pairs(keys, n))
    return batches, states


def _pairs(keys: np.ndarray, n: int) -> np.ndarray:
    return np.stack([keys // n, keys % n], axis=1)


def truss_digest(edges, trussness, supports) -> str:
    """Digest of one truss state: canonical edges, trussness and supports.
    Each analytics op's output is compared with its state's digest."""
    digest = hashlib.sha256()
    for array in (edges, trussness, supports):
        digest.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
    return digest.hexdigest()


def _build(workload: Workload, seed: int, target: Path) -> None:
    from repro.analytics import truss_decomposition
    from repro.baselines.inmemory import forward_count

    generated = _generate(workload.name, seed)
    n = int(generated.num_vertices)
    canonical = canonical_edge_set(np.asarray(generated.edges))
    rng = np.random.default_rng([seed, 0xBE7C])
    np.save(target / "edges.npy", canonical[rng.permutation(canonical.shape[0])])
    meta = {"num_vertices": n, "num_edges": int(canonical.shape[0])}
    if workload.kind == "count":
        meta["triangles"] = int(forward_count(oracle_csr(canonical, n)))
    else:
        batches, states = _draw_stream(canonical, n, rng)
        arrays = {}
        for i, (ins, dels) in enumerate(batches):
            arrays[f"ins{i}"] = ins
            arrays[f"del{i}"] = dels
        np.savez(target / "stream.npz", **arrays)
        truss = [truss_decomposition(oracle_csr(state, n)) for state in states]
        meta["triangles"] = int(truss[0].support.sum()) // 3
        meta["stream_digests"] = [
            truss_digest(t.edges, t.trussness, t.support) for t in truss
        ]
    (target / "meta.json").write_text(json.dumps(meta, sort_keys=True))


def cache_entry(out_dir: Path, workload: Workload, seed: int) -> Path:
    """Cache directory of one input.  It is keyed by this file's contents
    too, so a change to generation or oracles never reuses a stale entry."""
    digest = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:10]
    return out_dir / "inputs" / f"{workload.name}-seed{seed}-{digest}"


def ensure_inputs(out_dir: Path, workload: Workload, seed: int) -> tuple[Path, bool]:
    """Path of the cached inputs for ``(workload, seed)``; builds on a miss.

    Returns ``(path, hit)``.  An entry is complete once ``meta.json`` is in
    place; it is built in a private directory and renamed, so an
    interrupted build never leaves a half-written entry behind.
    """
    entry = cache_entry(out_dir, workload, seed)
    if (entry / "meta.json").is_file():
        return entry, True
    staging = entry.with_name(f"{entry.name}.partial-{os.getpid()}")
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    try:
        _build(workload, seed, staging)
        shutil.rmtree(entry, ignore_errors=True)
        staging.rename(entry)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return entry, False


@dataclass
class Inputs:
    """A loaded cache entry."""

    edges: np.ndarray
    num_vertices: int
    triangles: int
    #: analytics_delta only: ``(insertions, deletions)`` per batch
    batches: list | None = None
    #: analytics_delta only: the truss digest of every state of the stream
    oracles: list | None = None

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])


def load_inputs(entry: Path) -> Inputs:
    meta = json.loads((entry / "meta.json").read_text())
    inputs = Inputs(
        edges=np.load(entry / "edges.npy"),
        num_vertices=meta["num_vertices"],
        triangles=meta["triangles"],
    )
    stream = entry / "stream.npz"
    if stream.is_file():
        with np.load(stream) as data:
            inputs.batches = [
                (data[f"ins{i}"], data[f"del{i}"]) for i in range(STREAM_BATCHES)
            ]
        inputs.oracles = meta["stream_digests"]
    return inputs
