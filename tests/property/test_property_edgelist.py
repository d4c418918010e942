"""Property tests: edge-list normalisation through packed keys.

``EdgeList.deduplicated``/``symmetrized``/``canonical_undirected``/
``is_symmetric`` sort and deduplicate rows with
:func:`repro.core.kernels.unique_pairs` -- one 1-D sort of packed
``(source, destination)`` keys -- instead of the row-wise
``np.unique(axis=0)``.  Both must agree on every input: duplicates,
self-loops, empty lists, vertex universes far larger than the ids used,
ids at the packing boundary, and universes past it (where the helper
falls back to the row-wise unique).
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.kernels import MAX_PACKABLE_VERTICES, unique_pairs
from repro.graph.edgelist import EdgeList

SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def edge_lists(draw):
    """Duplicate-heavy rows (self-loops included) over a vertex universe that
    may dwarf the ids used, reach the packing boundary, or exceed it."""
    used = draw(st.integers(min_value=1, max_value=12))
    universe = draw(
        st.sampled_from(
            [
                used,
                used + draw(st.integers(min_value=0, max_value=2**31)),
                MAX_PACKABLE_VERTICES,
                MAX_PACKABLE_VERTICES + 1,
            ]
        )
    )
    low = draw(st.sampled_from([0, universe - used]))  # small or top ids
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=used - 1),
                st.integers(min_value=0, max_value=used - 1),
            ),
            min_size=0,
            max_size=40,
        )
    )
    edges = np.asarray(rows, dtype=np.int64).reshape(-1, 2) + np.int64(low)
    return EdgeList(edges, universe)


def _rowwise_unique(rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, 2)
    if rows.shape[0] == 0:
        return rows
    return np.unique(rows, axis=0)


@given(edge_list=edge_lists())
@settings(**SETTINGS)
def test_unique_pairs_is_rowwise_unique(edge_list):
    got = unique_pairs(edge_list.edges, edge_list.num_vertices)
    np.testing.assert_array_equal(got, _rowwise_unique(edge_list.edges))
    assert got.dtype == np.int64 and got.shape[1] == 2


@given(edge_list=edge_lists())
@settings(**SETTINGS)
def test_normalisations_match_rowwise_definitions(edge_list):
    edges = edge_list.edges
    no_loops = edges[edges[:, 0] != edges[:, 1]]

    np.testing.assert_array_equal(
        edge_list.deduplicated().edges, _rowwise_unique(edges)
    )
    np.testing.assert_array_equal(
        edge_list.symmetrized().edges,
        _rowwise_unique(np.vstack([no_loops, no_loops[:, ::-1]])),
    )
    lo = np.minimum(no_loops[:, 0], no_loops[:, 1])
    hi = np.maximum(no_loops[:, 0], no_loops[:, 1])
    np.testing.assert_array_equal(
        edge_list.canonical_undirected().edges,
        _rowwise_unique(np.stack([lo, hi], axis=1)),
    )
    forward = _rowwise_unique(edges)
    assert edge_list.is_symmetric() == bool(
        np.array_equal(forward, _rowwise_unique(forward[:, ::-1]))
    )
    assert edge_list.symmetrized().is_symmetric()
    for result in (edge_list.deduplicated(), edge_list.symmetrized()):
        assert result.num_vertices == edge_list.num_vertices
