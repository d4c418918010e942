"""Property tests: the numpy kernel tier against brute-force definitions.

The numpy tier is the oracle every compiled kernel is judged against
(``kernels.NUMPY_IMPLS`` and the numpy paths of the fused entry points), so
it is itself checked here -- on any host, with or without a C toolchain --
against plain-Python definitions of each primitive, over the adversarial
input families of the compiled suite: empty arrays, single elements,
duplicate-heavy values, negative ids and small random graphs.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analytics.truss import _incidence_csr
from repro.core import kernels
from repro.core.orientation import orient_csr
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_values = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.integers(min_value=-3, max_value=3),
)


def _sorted_arrays(max_size: int = 60):
    return st.lists(_values, min_size=0, max_size=max_size).map(
        lambda xs: np.sort(np.asarray(xs, dtype=np.int64))
    )


def _plain_arrays(max_size: int = 60):
    return st.lists(_values, min_size=0, max_size=max_size).map(
        lambda xs: np.asarray(xs, dtype=np.int64)
    )


@st.composite
def random_graphs(draw, max_vertices: int = 24, max_edges: int = 90):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    max_possible = n * (n - 1) // 2
    m = draw(st.integers(min_value=0, max_value=min(max_edges, max_possible)))
    if m == 0:
        return CSRGraph.empty(n)
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    chosen = rng.choice(iu.shape[0], size=m, replace=False)
    edges = np.stack([iu[chosen], iv[chosen]], axis=1)
    return CSRGraph.from_edgelist(EdgeList(edges, n))


def _edge_batch(graph: CSRGraph, data) -> tuple[np.ndarray, np.ndarray]:
    """An arbitrary vertex-pair batch: edges, non-edges and ``u == v``."""
    n = graph.num_vertices
    ne = data.draw(st.integers(min_value=0, max_value=12))
    seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, n, size=ne, dtype=np.int64),
        rng.integers(0, n, size=ne, dtype=np.int64),
    )


def _adjacency(indptr: np.ndarray, indices: np.ndarray, u: int) -> list[int]:
    return indices[indptr[u] : indptr[u + 1]].tolist()


# -- array primitives ---------------------------------------------------------


@given(haystack=_sorted_arrays(), queries=_plain_arrays())
@settings(**SETTINGS)
def test_sorted_membership_is_set_membership(haystack, queries):
    members = set(haystack.tolist())
    got = kernels.NUMPY_IMPLS["sorted_membership"](haystack, queries)
    assert got.dtype == bool
    assert got.tolist() == [q in members for q in queries.tolist()]


@given(a=_sorted_arrays(), b=_sorted_arrays())
@settings(**SETTINGS)
def test_merge_positions_is_the_stable_merge(a, b):
    # stable: on ties every element of ``a`` precedes every element of ``b``
    tagged = sorted(
        [(x, 0, i) for i, x in enumerate(a.tolist())]
        + [(x, 1, i) for i, x in enumerate(b.tolist())]
    )
    want_a = [0] * a.shape[0]
    want_b = [0] * b.shape[0]
    for position, (_, side, i) in enumerate(tagged):
        (want_a if side == 0 else want_b)[i] = position
    got_a, got_b = kernels.NUMPY_IMPLS["merge_positions"](a, b)
    assert np.asarray(got_a).tolist() == want_a
    assert np.asarray(got_b).tolist() == want_b


@given(a=_sorted_arrays(), b=_sorted_arrays())
@settings(**SETTINGS)
def test_intersect_sorted_keeps_b_elements_found_in_a(a, b):
    members = set(a.tolist())
    got = kernels.NUMPY_IMPLS["intersect_sorted"](a, b)
    assert got.tolist() == [x for x in b.tolist() if x in members]


@given(
    data=_plain_arrays(max_size=40),
    spans=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=12),
)
@settings(**SETTINGS)
def test_segment_gather_concatenates_segments(data, spans):
    size = data.shape[0]
    starts = [min(s, size) for s, _ in spans]
    lengths = [min(length, size - s) for s, (_, length) in zip(starts, spans)]
    values, owners = kernels.segment_gather(
        data, np.asarray(starts, dtype=np.int64), np.asarray(lengths, dtype=np.int64)
    )
    want_values, want_owners = [], []
    for owner, (s, length) in enumerate(zip(starts, lengths)):
        want_values.extend(data[s : s + length].tolist())
        want_owners.extend([owner] * length)
    assert values.tolist() == want_values
    assert owners.tolist() == want_owners


@given(
    n=st.integers(min_value=1, max_value=kernels.MAX_PACKABLE_VERTICES),
    pairs=st.lists(
        st.tuples(st.integers(0, 2**62), st.integers(0, 2**62)), max_size=30
    ),
)
@settings(**SETTINGS)
def test_packed_keys_round_trip_in_pair_order(n, pairs):
    pairs = sorted({(s % n, d % n) for s, d in pairs})
    sources = np.asarray([s for s, _ in pairs], dtype=np.int64)
    destinations = np.asarray([d for _, d in pairs], dtype=np.int64)
    keys = kernels.packed_keys(sources, destinations, n)
    assert keys.tolist() == [s * n + d for s, d in pairs]
    assert np.all(np.diff(keys) > 0)  # sorted pairs give strictly sorted keys
    np.testing.assert_array_equal(keys // n, sources)
    np.testing.assert_array_equal(keys % n, destinations)


# -- graph primitives ---------------------------------------------------------


@given(graph=random_graphs(), data=st.data())
@settings(**SETTINGS)
def test_triangle_range_enumerates_every_cone_triangle(graph, data):
    oriented = orient_csr(graph)
    indptr, indices = oriented.indptr, oriented.indices
    n = oriented.num_vertices
    lo = data.draw(st.integers(min_value=0, max_value=n))
    hi = data.draw(st.integers(min_value=lo, max_value=n))
    # MGT's nested loop: entry (u, v) in storage order, then w over N+(v)
    want, operations = [], 0
    for u in range(lo, hi):
        out_u = _adjacency(indptr, indices, u)
        operations += len(out_u)
        for v in out_u:
            out_v = _adjacency(indptr, indices, v)
            operations += len(out_v)
            want.extend((u, v, w) for w in out_v if w in out_u)
    cones, vs, ws, ops = kernels.NUMPY_IMPLS["triangle_range"](
        indptr, indices, lo, hi, True
    )
    assert list(zip(cones.tolist(), vs.tolist(), ws.tolist())) == want
    assert ops == operations
    assert kernels.NUMPY_IMPLS["triangle_range"](indptr, indices, lo, hi, False) == (
        len(want),
        operations,
    )


@given(graph=random_graphs(), batch_entries=st.integers(min_value=1, max_value=64))
@settings(**SETTINGS)
def test_count_cone_range_counts_triangles_at_any_batching(graph, batch_entries):
    n = graph.num_vertices
    adjacency = [set(_adjacency(graph.indptr, graph.indices, u)) for u in range(n)]
    want = sum(
        1
        for u in range(n)
        for v in adjacency[u]
        if v > u
        for w in adjacency[v]
        if w > v and w in adjacency[u]
    )
    oriented = orient_csr(graph)
    got = kernels.NUMPY_IMPLS["count_cone_range"](
        oriented.indptr, oriented.indices, 0, n, batch_entries
    )
    assert got == want


@given(graph=random_graphs(), data=st.data())
@settings(**SETTINGS)
def test_edge_intersections_count_common_neighbours(graph, data):
    us, vs = _edge_batch(graph, data)
    indptr, indices = graph.indptr, graph.indices
    want = [
        len(set(_adjacency(indptr, indices, u)) & set(_adjacency(indptr, indices, v)))
        for u, v in zip(us.tolist(), vs.tolist())
    ]
    per_edge = kernels.NUMPY_IMPLS["edge_intersections"](
        indptr, indices, us, vs, None, True
    )
    assert np.asarray(per_edge).tolist() == want
    total = kernels.NUMPY_IMPLS["edge_intersections"](
        indptr, indices, us, vs, None, False
    )
    assert total == sum(want)


@given(graph=random_graphs(), data=st.data())
@settings(**SETTINGS)
def test_edge_common_neighbors_owner_major_ascending(graph, data):
    us, vs = _edge_batch(graph, data)
    indptr, indices = graph.indptr, graph.indices
    want_owners, want_ws = [], []
    for owner, (u, v) in enumerate(zip(us.tolist(), vs.tolist())):
        out_u = set(_adjacency(indptr, indices, u))
        for w in _adjacency(indptr, indices, v):
            if w in out_u:
                want_owners.append(owner)
                want_ws.append(w)
    owners, ws = kernels.NUMPY_IMPLS["edge_common_neighbors"](indptr, indices, us, vs)
    assert owners.tolist() == want_owners
    assert ws.tolist() == want_ws


# -- fused-kernel numpy paths -------------------------------------------------


@given(
    m=st.integers(min_value=1, max_value=30),
    rows=st.integers(min_value=0, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(**SETTINGS)
def test_incidence_csr_lists_each_edges_triangles_in_order(m, rows, seed):
    # any (T, 3) id table: duplicates within and across rows included
    tri_edges = np.random.default_rng(seed).integers(0, m, size=(rows, 3))
    inc_ptr, inc_triangles = _incidence_csr(tri_edges.reshape(-1), m)
    assert inc_ptr.dtype == np.int64 and inc_triangles.dtype == np.int64
    for e in range(m):
        want = [t for t in range(rows) for slot in range(3) if tri_edges[t, slot] == e]
        assert inc_triangles[inc_ptr[e] : inc_ptr[e + 1]].tolist() == want
    assert inc_ptr[-1] == 3 * rows
