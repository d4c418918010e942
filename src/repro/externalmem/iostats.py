"""I/O statistics counters and the Aggarwal–Vitter cost formulas.

Two distinct things live here on purpose:

* :class:`IOStats` counts what a :class:`~repro.externalmem.blockio.BlockDevice`
  *actually did* (block reads/writes, sequential vs. random, bytes moved,
  modelled device time);
* :func:`scan_io_cost` / :func:`sort_io_cost` compute what the theory says
  an access pattern *should* cost, so benchmarks can compare measured
  counters against the Theorem IV.2 / IV.3 predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

__all__ = ["IOStats", "scan_io_cost", "sort_io_cost"]


@dataclass
class IOStats:
    """Mutable block-I/O counters attached to a block device or file.

    ``sequential_reads`` counts block reads whose block id directly follows
    the previously read block of the same file (the cheap case in the
    external-memory model); everything else is a ``random_read``.  The same
    split applies to writes.  ``device_seconds`` accumulates the modelled
    transfer time when the owning device has a bandwidth/latency model
    attached; it is what the Figure 6-8 I/O-vs-CPU breakdowns report.
    """

    block_size: int = 4096
    blocks_read: int = 0
    blocks_written: int = 0
    sequential_reads: int = 0
    random_reads: int = 0
    sequential_writes: int = 0
    random_writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    read_calls: int = 0
    write_calls: int = 0
    device_seconds: float = 0.0

    @property
    def total_blocks(self) -> int:
        return self.blocks_read + self.blocks_written

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written

    def record_read(self, blocks: int, nbytes: int, sequential: bool) -> None:
        self.blocks_read += blocks
        self.bytes_read += nbytes
        self.read_calls += 1
        if sequential:
            self.sequential_reads += blocks
        else:
            self.random_reads += blocks

    def record_reads(
        self, blocks: int, nbytes: int, seconds: list[float], sequential: bool
    ) -> None:
        """Record ``len(seconds)`` reads totalling ``blocks`` blocks and
        ``nbytes`` bytes, whose modelled transfer times are ``seconds``.

        The counters end exactly as after one :meth:`record_read` plus
        :meth:`add_device_time` per read: the times are added one by one, in
        order, so ``device_seconds`` rounds identically.
        """
        self.blocks_read += blocks
        self.bytes_read += nbytes
        self.read_calls += len(seconds)
        if sequential:
            self.sequential_reads += blocks
        else:
            self.random_reads += blocks
        total = self.device_seconds
        for step in seconds:
            total += step
        self.device_seconds = total

    def record_write(self, blocks: int, nbytes: int, sequential: bool) -> None:
        self.blocks_written += blocks
        self.bytes_written += nbytes
        self.write_calls += 1
        if sequential:
            self.sequential_writes += blocks
        else:
            self.random_writes += blocks

    def add_device_time(self, seconds: float) -> None:
        self.device_seconds += float(seconds)

    def merge(self, other: "IOStats") -> None:
        """Accumulate another counter set into this one (block size kept)."""
        for name in _COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def reset(self) -> None:
        block_size = self.block_size
        self.__init__(block_size=block_size)  # type: ignore[misc]

    def snapshot(self) -> "IOStats":
        """Return an independent copy of the current counters."""
        copy = IOStats(block_size=self.block_size)
        copy.merge(self)
        return copy

    def delta(self, baseline: "IOStats") -> "IOStats":
        """Counters accumulated since ``baseline`` (an earlier snapshot).

        Used to isolate one phase of a run -- e.g. the master's
        preprocessing I/O -- so tests can assert that two execution
        strategies charged exactly the same accounting for that phase.
        """
        diff = IOStats(block_size=self.block_size)
        for name in _COUNTER_FIELDS:
            setattr(diff, name, getattr(self, name) - getattr(baseline, name))
        return diff

    def as_dict(self) -> dict[str, float]:
        # kept explicit (stable key order documented by the tests); merge()
        # and delta() iterate _COUNTER_FIELDS so a new counter cannot be
        # silently dropped from either
        return {
            "block_size": self.block_size,
            "blocks_read": self.blocks_read,
            "blocks_written": self.blocks_written,
            "sequential_reads": self.sequential_reads,
            "random_reads": self.random_reads,
            "sequential_writes": self.sequential_writes,
            "random_writes": self.random_writes,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "read_calls": self.read_calls,
            "write_calls": self.write_calls,
            "device_seconds": self.device_seconds,
        }


#: Every IOStats field except the block size is an additive counter;
#: merge() and delta() iterate this so new counters join them automatically.
_COUNTER_FIELDS = tuple(f.name for f in fields(IOStats) if f.name != "block_size")


def scan_io_cost(num_elements: int, block_size_elements: int) -> int:
    """``scan(N) = ⌈N / B⌉`` block I/Os for reading N elements sequentially."""
    if block_size_elements <= 0:
        raise ValueError("block size must be positive")
    if num_elements <= 0:
        return 0
    return -(-num_elements // block_size_elements)


def sort_io_cost(
    num_elements: int, memory_elements: int, block_size_elements: int
) -> int:
    """``sort(N) = Θ((N/B) log_{M/B}(N/B))`` block I/Os for external merge sort.

    Returns the ceiling of the formula with the logarithm clamped to at
    least 1 (a single merge pass), which matches the behaviour of the
    concrete :func:`~repro.externalmem.extsort.external_sort_edges`
    implementation when the data fits in memory.
    """
    if block_size_elements <= 0 or memory_elements <= 0:
        raise ValueError("block size and memory must be positive")
    if num_elements <= 0:
        return 0
    n_over_b = num_elements / block_size_elements
    m_over_b = max(memory_elements / block_size_elements, 2.0)
    passes = max(math.log(max(n_over_b, 2.0), m_over_b), 1.0)
    return int(math.ceil(n_over_b * passes))
