"""Backend-equivalence matrix for the parallel preprocessing pipeline.

The parallel preprocessing -- orientation chunks filtered on threads,
external-sort run formation fanned over the persistent process pool --
must be *bit-identical* to the serial path in every observable the
simulation produces:

* the oriented graph's on-disk bytes (degree, adjacency and meta files);
* the external sort's output file and its intermediate run files;
* the master device's IOStats (block counts, sequential/random split,
  call counts, bytes);
* the modelled setup seconds of a full PDTL run,

and this must hold on every execution backend (serial / threads /
processes / processes+shm), including under failure, straggler and
host-jitter injection.  These tests assert all of it -- nothing here is
assumed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.cost_model import estimate_setup_cost
from repro.baselines.inmemory import forward_count
from repro.core.config import PDTLConfig
from repro.core.orientation import orient_graph
from repro.core.pdtl import PDTLRunner
from repro.core.shm import shm_available
from repro.externalmem.blockio import BlockDevice
from repro.externalmem.extsort import (
    external_sort_edges,
    read_edge_file,
    write_edge_file,
)
from repro.graph.binfmt import write_graph
from repro.graph.csr import CSRGraph
from repro.graph.generators import power_law_degree_graph, rmat

pytestmark = pytest.mark.skipif(
    not shm_available()[0],
    reason=f"POSIX shared memory unavailable: {shm_available()[1]}",
)

BACKENDS = ("serial", "threads", "processes")


@pytest.fixture(scope="module")
def graph() -> CSRGraph:
    return CSRGraph.from_edgelist(rmat(8, edge_factor=8, seed=3))


@pytest.fixture(scope="module")
def skewed_graph() -> CSRGraph:
    return CSRGraph.from_edgelist(
        power_law_degree_graph(800, exponent=2.2, min_degree=2, max_degree=60, seed=5)
    )


def _file_bytes(device: BlockDevice, name: str) -> bytes:
    path = device.path(name)
    return path.read_bytes() if path.exists() else b""


class TestOrientationBitIdentity:
    """Oriented file bytes + accounting across every orientation executor.

    Each path runs on its own *fresh* device (zero counters), exactly like
    the fresh cluster a real run builds -- that makes the whole IOStats
    dict, device seconds included, comparable bit for bit.
    """

    def _orient_on_fresh_device(
        self, tmp_path, graph, label, num_workers, parallel=True
    ):
        device = BlockDevice(tmp_path / f"disk_{label}", block_size=512)
        gf = write_graph(device, "g", graph)
        staged = device.stats.snapshot()
        result = orient_graph(
            gf,
            num_workers=num_workers,
            parallel=parallel,
            output_name="oriented",
        )
        return device, result, staged, device.stats.snapshot()

    def test_oriented_bytes_identical(self, tmp_path, graph):
        reference_device, *_ = self._orient_on_fresh_device(
            tmp_path, graph, "ref", num_workers=1, parallel=False
        )
        reference = {
            suffix: _file_bytes(reference_device, f"oriented{suffix}")
            for suffix in (".deg", ".adj", ".meta")
        }
        assert reference[".adj"], "reference orientation produced no adjacency"
        variants = {
            "threads": dict(num_workers=4, parallel=True),
        }
        for label, kwargs in variants.items():
            device, *_ = self._orient_on_fresh_device(tmp_path, graph, label, **kwargs)
            for suffix in (".deg", ".adj", ".meta"):
                assert (
                    _file_bytes(device, f"oriented{suffix}") == reference[suffix]
                ), (label, suffix)

    def test_accounting_bit_identical_across_executors(self, tmp_path, graph):
        """With an identical work decomposition (4 chunks), the sequential
        and threaded executors charge bit-identical accounting -- whole
        IOStats dict, modelled device seconds included."""
        runs = {
            "sequential": self._orient_on_fresh_device(
                tmp_path, graph, "acc_seq", num_workers=4, parallel=False
            ),
            "threads": self._orient_on_fresh_device(
                tmp_path, graph, "acc_thr", num_workers=4, parallel=True
            ),
        }
        _, ref_result, ref_staged, ref_total = runs["sequential"]
        for label, (_, result, staged, total) in runs.items():
            assert staged.as_dict() == ref_staged.as_dict(), label
            assert total.as_dict() == ref_total.as_dict(), label
            assert result.modelled_io_seconds == ref_result.modelled_io_seconds, label
            np.testing.assert_array_equal(result.out_degrees, ref_result.out_degrees)
            np.testing.assert_array_equal(result.in_degrees, ref_result.in_degrees)

    def test_serial_reference_reads_same_bytes(self, tmp_path, graph):
        """The single-window serial reference moves the same bytes; only the
        read-call count differs (1 window vs 4)."""
        _, _, staged_1, total_1 = self._orient_on_fresh_device(
            tmp_path, graph, "one", num_workers=1, parallel=False
        )
        _, _, staged_4, total_4 = self._orient_on_fresh_device(
            tmp_path, graph, "four", num_workers=4, parallel=True
        )
        one = total_1.delta(staged_1)
        four = total_4.delta(staged_4)
        assert one.bytes_read == four.bytes_read
        assert one.bytes_written == four.bytes_written
        assert one.blocks_written == four.blocks_written
        assert one.read_calls < four.read_calls


class TestExtsortFormationBitIdentity:
    """Run files, output file and accounting: serial vs pool formation."""

    @pytest.fixture(scope="class")
    def edges(self) -> np.ndarray:
        rng = np.random.default_rng(11)
        return rng.integers(0, 900, size=(30000, 2)).astype(np.int64)

    def _sort(self, tmp_path, edges, formation, merge_impl="vectorized"):
        device = BlockDevice(tmp_path / f"disk_{formation}_{merge_impl}", block_size=512)
        write_edge_file(device, "in.bin", edges)
        baseline = device.stats.snapshot()
        result = external_sort_edges(
            device,
            "in.bin",
            "out.bin",
            memory_bytes=32 * 1024,
            formation=formation,
            merge_impl=merge_impl,
        )
        return device, result, device.stats.delta(baseline)

    def test_output_and_stats_identical(self, tmp_path, edges):
        dev_s, res_s, stats_s = self._sort(tmp_path, edges, "serial")
        dev_p, res_p, stats_p = self._sort(tmp_path, edges, "parallel")
        assert res_s.num_runs == res_p.num_runs > 1
        assert res_s.merge_passes == res_p.merge_passes
        assert (res_s.formation_impl, res_p.formation_impl) == ("serial", "parallel")
        assert _file_bytes(dev_s, "out.bin") == _file_bytes(dev_p, "out.bin")
        assert stats_s.as_dict() == stats_p.as_dict()

    def test_worker_runs_byte_identical_to_serial_runs(self, tmp_path, edges):
        """Every intermediate run file the pool workers write matches the
        serial pass's run for the same window, byte for byte."""
        from repro.externalmem.extsort import form_runs_parallel

        dev_s = BlockDevice(tmp_path / "runs_serial", block_size=512)
        dev_p = BlockDevice(tmp_path / "runs_parallel", block_size=512)
        for dev in (dev_s, dev_p):
            write_edge_file(dev, "in.bin", edges)
        memory_edges = (32 * 1024) // 16
        # serial windows via the reference lexsort
        serial_runs = []
        offset = 0
        while offset < edges.shape[0]:
            count = min(memory_edges, edges.shape[0] - offset)
            window = edges[offset : offset + count]
            order = np.lexsort((window[:, 1], window[:, 0]))
            serial_runs.append(window[order])
            offset += count
        run_names, max_src, max_dst, min_value = form_runs_parallel(
            dev_p, "in.bin", edges.shape[0], memory_edges, "_extsort"
        )
        assert len(run_names) == len(serial_runs)
        assert max_src == int(edges[:, 0].max())
        assert max_dst == int(edges[:, 1].max())
        assert min_value == min(int(edges.min()), 0)
        for name, expected in zip(run_names, serial_runs):
            np.testing.assert_array_equal(read_edge_file(dev_p, name), expected)

    def test_merge_impls_agree_on_worker_runs(self, tmp_path, edges):
        dev_v, _, stats_v = self._sort(tmp_path, edges, "parallel", "vectorized")
        dev_h, _, stats_h = self._sort(tmp_path, edges, "parallel", "heapq")
        assert _file_bytes(dev_v, "out.bin") == _file_bytes(dev_h, "out.bin")
        assert stats_v.as_dict() == stats_h.as_dict()


class TestRunMatrixEquivalence:
    """Full PDTL runs: the preprocessing accounting on every backend."""

    def _config(self, **overrides) -> PDTLConfig:
        base = dict(
            num_nodes=2,
            procs_per_node=2,
            memory_per_proc=8192,
            block_size=512,
            modelled_cpu=True,
        )
        base.update(overrides)
        return PDTLConfig(**base)

    def _assert_equivalent(self, reference, result, label):
        assert result.triangles == reference.triangles, label
        assert result.calc_seconds == reference.calc_seconds, label
        assert result.total_io_seconds == reference.total_io_seconds, label
        assert result.total_cpu_seconds == reference.total_cpu_seconds, label
        assert result.modelled_setup_seconds == reference.modelled_setup_seconds, label
        assert (
            result.metrics.setup_io_stats.as_dict()
            == reference.metrics.setup_io_stats.as_dict()
        ), label

    def test_backend_matrix(self, graph):
        expected = forward_count(graph)
        reference = PDTLRunner(self._config(), backend="serial").run(graph)
        assert reference.triangles == expected
        assert reference.modelled_setup_seconds > 0.0
        for backend in BACKENDS:
            for shm in (False, True):
                result = PDTLRunner(self._config(shm=shm), backend=backend).run(graph)
                label = f"{backend}/shm={shm}"
                assert result.shm_used == shm, label
                self._assert_equivalent(reference, result, label)

    def test_under_failure_straggler_and_jitter(self, skewed_graph):
        expected = forward_count(skewed_graph)
        injections = dict(
            scheduling="dynamic",
            failure_spec={0: 1, 2: 0},
            straggler_spec={1: 10.0},
            host_jitter_seconds=0.002,
        )
        reference = PDTLRunner(self._config(**injections), backend="serial").run(
            skewed_graph
        )
        assert reference.triangles == expected
        assert reference.metrics.total_chunks_retried >= 1
        for backend in BACKENDS:
            result = PDTLRunner(
                self._config(shm=True, **injections),
                backend=backend,
            ).run(skewed_graph)
            self._assert_equivalent(reference, result, backend)

    def test_setup_stats_within_scan_envelope(self, graph):
        config = self._config()
        result = PDTLRunner(config, backend="serial").run(graph)
        estimate = estimate_setup_cost(graph, config)
        measured = result.metrics.setup_io_stats.total_blocks
        assert estimate.total_blocks > 0
        # the envelope ignores meta files and block-boundary rounding; the
        # measured counters must sit within a small constant of it
        assert 0.5 * estimate.total_blocks <= measured <= 2.0 * estimate.total_blocks

    def test_edge_support_sink_unaffected(self, skewed_graph):
        """The derived-analytics input (edge supports) is backend-
        independent too."""
        config = self._config(count_only=False, sink="edge-support")
        reference = PDTLRunner(config, backend="serial").run(skewed_graph)
        result = PDTLRunner(config, backend="processes").run(skewed_graph)
        np.testing.assert_array_equal(result.edge_supports, reference.edge_supports)
        np.testing.assert_array_equal(result.oriented_edges, reference.oriented_edges)
