"""Property tests: the MGT block kernel on both tiers, swept and indexed.

``mgt_block_scan`` evaluates the inner loop of Algorithm 2 for one block of
cone vertices.  A disk-resident worker sweeps each scan block; a worker on
a shared-memory graph scans the whole adjacency as one block through the
published in-edge index, visiting only the entries that point into the
memory window.  Both modes, on the numpy twin and on the compiled tier,
must return exactly what a one-entry-at-a-time sweep of the block returns:
the same pair and gathered-element counts, the same triangles, in the same
order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.core import kernel_backend, kernels
from repro.core.mgt import window_index
from repro.core.orientation import orient_csr
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList

SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_CFFI_OK, _CFFI_DETAIL = kernel_backend.backend_available("cffi")


def _registry(tier: str) -> dict:
    if tier == "numpy":
        return kernels.NUMPY_IMPLS
    from repro.core import kernels_cffi

    return kernels_cffi.build_registry()


TIER_PARAMS = pytest.mark.parametrize(
    "tier",
    [
        "numpy",
        pytest.param(
            "cffi",
            marks=pytest.mark.skipif(
                not _CFFI_OK, reason=f"cffi kernel tier unavailable: {_CFFI_DETAIL}"
            ),
        ),
    ],
)


@st.composite
def oriented_graphs(draw, max_vertices: int = 24, max_edges: int = 120):
    """Degree-oriented random graphs, sparse to near-complete."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    max_possible = n * (n - 1) // 2
    m = draw(st.integers(min_value=0, max_value=min(max_edges, max_possible)))
    if m == 0:
        return orient_csr(CSRGraph.empty(n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    chosen = rng.choice(iu.shape[0], size=m, replace=False)
    edges = np.stack([iu[chosen], iv[chosen]], axis=1)
    return orient_csr(CSRGraph.from_edgelist(EdgeList(edges, n)))


def _window(data, indptr: np.ndarray, indices: np.ndarray):
    """A random memory window ``[start, stop)`` of the adjacency -- possibly
    empty, usually cutting the out-lists of its boundary vertices -- as the
    ``(edg, vlow, vhigh, win_offsets, win_degrees)`` a worker builds."""
    num_edges = int(indices.shape[0])
    start = data.draw(st.integers(min_value=0, max_value=num_edges - 1))
    stop = data.draw(st.integers(min_value=start, max_value=num_edges))
    vlow, vhigh, win_offsets, win_degrees = window_index(indptr, start, stop)
    return indices[start:stop], vlow, vhigh, win_offsets, win_degrees


def _mgt_block_scan_reference(
    block_adj, block_offsets, edg, vlow, vhigh, win_offsets, win_degrees
):
    """The MGT inner loop swept one adjacency entry at a time."""
    pairs = 0
    total = 0
    cones, vs_out, ws_out = [], [], []
    for bu in range(block_offsets.shape[0] - 1):
        nu = block_adj[block_offsets[bu] : block_offsets[bu + 1]]
        for v in nu:
            if v < vlow or v > vhigh:
                continue
            d = int(win_degrees[v - vlow])
            if d <= 0:
                continue
            pairs += 1
            total += d
            ev = edg[win_offsets[v - vlow] : win_offsets[v - vlow] + d]
            for w in ev[np.isin(ev, nu)]:
                cones.append(bu)
                vs_out.append(int(v))
                ws_out.append(int(w))
    return pairs, total, cones, vs_out, ws_out


def _assert_matches(scan, args, resident, reference):
    pairs, total, cones, vs_ref, ws_ref = reference
    listed = scan(*args, True, *resident)
    assert tuple(listed[:3]) == (pairs, total, len(cones))
    np.testing.assert_array_equal(listed[3], np.asarray(cones, dtype=np.int64))
    np.testing.assert_array_equal(listed[4], np.asarray(vs_ref, dtype=np.int64))
    np.testing.assert_array_equal(listed[5], np.asarray(ws_ref, dtype=np.int64))
    counted = scan(*args, False, *resident)
    assert tuple(counted[:3]) == (pairs, total, len(cones))


@TIER_PARAMS
@given(oriented=oriented_graphs(), data=st.data())
@settings(**SETTINGS)
def test_block_sweep_matches_reference(tier, oriented, data):
    """Sweep mode over an arbitrary block of cone vertices."""
    indptr, indices = oriented.indptr, oriented.indices
    assume(indices.shape[0] > 0)
    n = oriented.num_vertices
    blo = data.draw(st.integers(min_value=0, max_value=n))
    bhi = data.draw(st.integers(min_value=blo, max_value=n))
    block_adj = indices[indptr[blo] : indptr[bhi]].copy()
    block_offsets = (indptr[blo : bhi + 1] - indptr[blo]).astype(np.int64)
    edg, vlow, vhigh, win_offsets, win_degrees = _window(data, indptr, indices)
    args = (block_adj, block_offsets, edg, vlow, vhigh, win_offsets, win_degrees)
    _assert_matches(
        _registry(tier)["mgt_block_scan"], args, (), _mgt_block_scan_reference(*args)
    )


@TIER_PARAMS
@given(oriented=oriented_graphs(), data=st.data())
@settings(**SETTINGS)
def test_index_scan_matches_full_sweep(tier, oriented, data):
    """Index mode over the whole adjacency equals the full sweep: same
    pairs, gathered elements and triangles, listed in sweep order."""
    indptr, indices = oriented.indptr, oriented.indices
    assume(indices.shape[0] > 0)
    n = oriented.num_vertices
    edg, vlow, vhigh, win_offsets, win_degrees = _window(data, indptr, indices)
    args = (indices, indptr, edg, vlow, vhigh, win_offsets, win_degrees)
    registry = _registry(tier)
    sources = kernels.window_sources(indptr, 0, n)
    in_offsets, in_positions = registry["in_edge_index"](indices, n)
    resident = (
        sources,
        kernels.packed_keys(sources, indices, n),
        in_offsets,
        in_positions,
    )
    _assert_matches(
        registry["mgt_block_scan"],
        args,
        resident,
        _mgt_block_scan_reference(*args),
    )


@TIER_PARAMS
@given(oriented=oriented_graphs(max_vertices=40, max_edges=300))
@settings(**SETTINGS)
def test_in_edge_index_is_the_stable_argsort(tier, oriented):
    indices = oriented.indices
    n = oriented.num_vertices
    in_offsets, in_positions = _registry(tier)["in_edge_index"](indices, n)
    expected_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(indices, minlength=n), out=expected_offsets[1:])
    np.testing.assert_array_equal(in_offsets, expected_offsets)
    np.testing.assert_array_equal(in_positions, np.argsort(indices, kind="stable"))
    assert in_positions.dtype == np.int64


@TIER_PARAMS
def test_in_edge_index_rejects_entries_outside_the_vertex_range(tier):
    in_edge_index = _registry(tier)["in_edge_index"]
    with pytest.raises(ValueError):
        in_edge_index(np.array([0, 3], dtype=np.int64), 3)
