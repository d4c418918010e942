"""Kernel-tier selection: route the hot primitives to compiled loops.

:mod:`repro.core.kernels` evaluates every hot path with batched numpy.
That tier is always available, but each primitive is still 3-5 full-array
passes with materialised intermediates (packed keys, segment gathers,
boolean masks).  This module manages the one optional *compiled* tier,
which fuses each chain into one allocation-free loop:

* ``cffi`` -- :mod:`repro.core.kernels_cffi`, the loops as C compiled once
  into a cached extension module (available wherever cffi and a C compiler
  are);
* ``numpy`` -- no registry at all; the public functions fall through to
  their ``_*_numpy`` bodies.  It is the oracle the compiled tier is
  checked against.

Selection
---------

The requested backend comes from, in priority order, an explicit
:func:`activate`/:func:`ensure` call (``PDTLConfig.kernel_backend`` routes
through :func:`ensure`), the ``KERNEL_BACKEND`` environment variable, and
the default ``"auto"``.  ``auto`` resolves silently to cffi when it is
available and to numpy otherwise.  Explicitly requesting an unavailable
backend degrades to numpy with a :class:`RuntimeWarning` rather than
failing: the compiled tier is an accelerator, never a correctness
dependency.

Availability is *per function*: :func:`activate` warms every registered
kernel on a miniature graph and checks it against its numpy twin
(:data:`repro.core.kernels.NUMPY_IMPLS`); a kernel that fails to build,
crashes, or disagrees is dropped from the registry with a
:class:`RuntimeWarning` while the rest of the tier stays active.  Dispatch
happens inside :mod:`repro.core.kernels` (primitives) and via
:func:`fused` (the multi-pass entry points of the MGT worker, the
edge-support sink and the truss peeler), so a dropped kernel simply means
that one call site falls back to numpy.

Every implementation is bit-identical to the numpy tier by contract:
triangle counts, listing order, edge supports, IOStats and the modelled
operation counts do not change when the backend does.  The
backend-equivalence matrix in ``tests/cluster/test_backend_equivalence.py``
enforces this across all four execution backends.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

from repro.core import kernels
from repro.errors import ConfigurationError
from repro.obs.logconfig import fallback_message

__all__ = [
    "BACKEND_NAMES",
    "COMPILED_BACKENDS",
    "activate",
    "active_backend",
    "backend_available",
    "compiled_available",
    "dispatch_counts",
    "ensure",
    "fused",
    "initialize_default",
    "reset_dispatch_counts",
    "use",
    "warmup",
]

#: Accepted values for ``KERNEL_BACKEND`` / ``PDTLConfig.kernel_backend``.
BACKEND_NAMES = ("auto", "numpy", "cffi")

#: The backends that actually compile.
COMPILED_BACKENDS = ("cffi",)

#: Registry names of the fused multi-pass entry points (everything else in
#: a backend registry is a primitive dispatched inside ``kernels``).
FUSED_KERNELS = (
    "mgt_block_scan",
    "edge_support_accumulate",
    "truss_peel_level",
    "triangle_edge_ids",
    "incidence_csr",
)

# resolved state: what was asked for and what we ended up with
_requested: str | None = None
_resolved: str | None = None

# probe/registry caches so re-activation (the use() context manager, worker
# processes re-ensuring) costs a dict lookup, not a recompile
_probe_cache: dict[str, tuple[bool, str]] = {}
_registry_cache: dict[str, dict[str, Callable]] = {}
_warned: set[str] = set()

# per-process fused-dispatch counts, keyed "<kernel>.<backend>"; plain int
# increments (observability only, harvested by repro.obs.metrics)
_dispatch_counts: dict[str, int] = {}


def dispatch_counts() -> dict[str, int]:
    """Copy of this process's fused-kernel dispatch counts.

    Keys are ``"<kernel>.<backend>"`` (``"mgt_block_scan.cffi"``,
    ``"edge_support_accumulate.numpy"``); a :func:`fused` call that found no
    compiled implementation counts as a numpy dispatch, since that is the
    path the caller takes.
    """
    return dict(_dispatch_counts)


def reset_dispatch_counts() -> None:
    _dispatch_counts.clear()


def _warn(key: str, message: str) -> None:
    if key in _warned:
        return
    _warned.add(key)
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def _load_backend(name: str) -> dict[str, Callable]:
    """Import + build the registry for a compiled backend (may raise)."""
    if name == "cffi":
        from repro.core import kernels_cffi

        return kernels_cffi.build_registry()
    raise ConfigurationError(f"unknown compiled kernel backend {name!r}")


def backend_available(name: str) -> tuple[bool, str]:
    """Probe one backend: ``(available, detail)``.

    ``detail`` is the reason when unavailable (missing module, compiler
    failure, ...) and empty when available.  Probing a compiled backend
    builds and warms its registry, so a ``True`` answer means "ready to
    dispatch", not merely "importable"; results are cached per process.
    """
    if name == "numpy":
        return True, ""
    if name not in COMPILED_BACKENDS:
        return False, f"unknown backend {name!r}"
    cached = _probe_cache.get(name)
    if cached is not None:
        return cached
    try:
        registry = dict(_load_backend(name))
        dropped = _warm_registry(name, registry, warn=False)
        if not registry:
            raise RuntimeError(
                "every kernel failed warmup: " + "; ".join(dropped or ("empty registry",))
            )
        _registry_cache[name] = registry
        result = (True, "")
    except Exception as exc:  # noqa: BLE001 - availability probe must not raise
        result = (False, f"{type(exc).__name__}: {exc}")
    _probe_cache[name] = result
    return result


def compiled_available() -> tuple[bool, str]:
    """``(available, detail)`` for the compiled tier on this machine.

    ``detail`` is the backend name (``"cffi"``) when available, and the
    unavailability reason otherwise -- shaped for ``pytest.mark.skipif``
    skip-with-reason, like ``shm_available()``.
    """
    ok, detail = backend_available("cffi")
    return (True, "cffi") if ok else (False, f"cffi: {detail}")


def _warmup_cases() -> dict[str, tuple | list[tuple]]:
    """Miniature inputs exercising every registered kernel once (a list
    runs a kernel once per mode).

    The graph is the oriented triangle-plus-tail 0->{1,2}, 1->2, 3->{} --
    small enough that compiling dominates, complete enough that every
    branch (hits, misses, empty lists) runs.
    """
    indptr = np.array([0, 2, 3, 3, 3], dtype=np.int64)
    indices = np.array([1, 2, 2], dtype=np.int64)
    a = np.array([-3, 0, 2, 2, 5], dtype=np.int64)
    b = np.array([-3, 1, 2, 6], dtype=np.int64)
    # MGT window covering vertices [0, 3): E_v lists concatenated + offsets
    edg = indices.copy()
    win_offsets = indptr[:4].copy()
    win_degrees = np.array([2, 1, 0], dtype=np.int64)
    block_offsets = np.array([0, 2, 3], dtype=np.int64)
    block_adj = np.array([1, 2, 2], dtype=np.int64)
    # edge-support sink over the 3 oriented edges (keys for n=4)
    edge_keys = np.array([0 * 4 + 1, 0 * 4 + 2, 1 * 4 + 2], dtype=np.int64)
    support = np.zeros(3, dtype=np.int64)
    us = np.array([0], dtype=np.int64)
    vs = np.array([1], dtype=np.int64)
    ws = np.array([2], dtype=np.int64)
    # one-triangle truss peel at k=2
    alive = np.ones(3, dtype=bool)
    tri_alive = np.ones(1, dtype=bool)
    tri_edges = np.array([[0, 1, 2]], dtype=np.int64)
    inc_ptr = np.array([0, 1, 2, 3], dtype=np.int64)
    inc_triangles = np.zeros(3, dtype=np.int64)
    return {
        "sorted_membership": (a, b),
        "merge_positions": (a, b),
        "intersect_sorted": (a, b),
        "triangle_range": (indptr, indices, 0, 4, True),
        "count_cone_range": (indptr, indices, 0, 4),
        "edge_intersections": (indptr, indices, us, vs, True),
        "edge_common_neighbors": (indptr, indices, us, vs),
        "mgt_block_scan": [
            (block_adj, block_offsets, edg, 0, 2, win_offsets, win_degrees, True),
            # the resident mode: the whole graph as one block, scanned
            # through its in-edge index (0 <- {}, 1 <- {0}, 2 <- {0, 1})
            (
                indices,
                indptr,
                edg,
                0,
                2,
                win_offsets,
                win_degrees,
                True,
                np.array([0, 0, 1], dtype=np.int64),
                np.array([1, 2, 6], dtype=np.int64),
                np.array([0, 0, 1, 3, 3], dtype=np.int64),
                np.array([0, 1, 2], dtype=np.int64),
            ),
        ],
        "in_edge_index": (indices, 4),
        "edge_support_accumulate": (edge_keys, us, vs, ws, 4, support),
        "truss_peel_level": (
            3,
            alive,
            np.ones(3, dtype=np.int64),
            np.zeros(3, dtype=np.int64),
            inc_ptr,
            inc_triangles,
            tri_edges.reshape(-1),
            tri_alive,
        ),
        "triangle_edge_ids": (
            indptr,
            indices,
            edge_keys,
            np.searchsorted(edge_keys, np.arange(5, dtype=np.int64) * 4),
            4,
            0,
            4,
        ),
        "incidence_csr": (tri_edges.reshape(-1), 3),
    }


def _check_warm_result(name: str, args: tuple, got) -> None:
    """Compare a primitive's warmup output against its numpy twin."""
    twin = kernels.NUMPY_IMPLS.get(name)
    if twin is None:
        return  # the other fused kernels are checked by the equivalence suites
    if name == "edge_intersections":
        indptr, indices, us, vs, per_edge = args
        want = twin(indptr, indices, us, vs, None, per_edge)
    else:
        want = twin(*args)
    if not isinstance(want, tuple):
        want, got = (want,), (got,)
    for w, g in zip(want, got):
        if not np.array_equal(np.asarray(w), np.asarray(g)):
            raise RuntimeError(f"kernel {name!r} disagrees with numpy on warmup input")


def _warm_registry(
    backend: str, registry: dict[str, Callable], warn: bool = True
) -> list[str]:
    """Run every registered kernel once; drop (and report) the ones that fail.

    This is both warmup (build outside any timed or modelled region)
    and the partial-availability mechanism: a kernel that raises or
    disagrees with its numpy twin on the miniature input is removed so its
    call sites fall back to numpy, while the rest of the tier stays on.
    """
    dropped: list[str] = []
    cases = _warmup_cases()
    for name in list(registry):
        case = cases.get(name)
        if case is None:
            continue
        try:
            for args in case if isinstance(case, list) else [case]:
                # fresh copies: warmup kernels mutate their output arrays
                args = tuple(
                    np.copy(x) if isinstance(x, np.ndarray) else x for x in args
                )
                got = registry[name](*args)
                _check_warm_result(name, args, got)
        except Exception as exc:  # noqa: BLE001 - degrade per function
            del registry[name]
            dropped.append(f"{name}: {type(exc).__name__}: {exc}")
            if warn:
                _warn(
                    f"drop:{backend}:{name}",
                    f"kernel backend {backend!r}: dropping kernel {name!r} "
                    f"after failed warmup ({type(exc).__name__}: {exc}); "
                    f"its callers use the numpy path",
                )
    return dropped


def activate(name: str) -> str:
    """Select the kernel tier; returns the backend actually in effect.

    ``auto`` picks cffi when available and numpy otherwise, silently; an
    explicit ``cffi`` that is unavailable falls back to ``numpy`` with a
    :class:`RuntimeWarning` (once per process).
    """
    global _requested, _resolved
    name = str(name).lower()
    if name not in BACKEND_NAMES:
        raise ConfigurationError(
            f"kernel_backend must be one of {BACKEND_NAMES}, got {name!r}"
        )
    resolved = name
    if name == "auto":
        resolved = "cffi" if backend_available("cffi")[0] else "numpy"
    elif name in COMPILED_BACKENDS:
        ok, detail = backend_available(name)
        if not ok:
            _warn(
                f"fallback:{name}",
                fallback_message(
                    f"kernel backend {name!r}",
                    f"it is unavailable ({detail})",
                    "the numpy tier",
                ),
            )
            resolved = "numpy"
    registry = _registry_cache.get(resolved, {}) if resolved != "numpy" else {}
    kernels._ACTIVE_IMPLS.clear()
    kernels._ACTIVE_IMPLS.update(registry)
    kernels._BACKEND_READY = True
    _requested = name
    _resolved = resolved
    return resolved


def initialize_default() -> str:
    """Resolve the backend from ``KERNEL_BACKEND`` (default ``auto``) once.

    Called lazily from the first kernel dispatch; later explicit
    :func:`activate`/:func:`ensure` calls override it.
    """
    if _resolved is not None and kernels._BACKEND_READY:
        return _resolved
    requested = os.environ.get("KERNEL_BACKEND", "auto").strip().lower() or "auto"
    if requested not in BACKEND_NAMES:
        _warn(
            f"env:{requested}",
            f"ignoring KERNEL_BACKEND={requested!r}: must be one of "
            f"{BACKEND_NAMES}; using 'auto'",
        )
        requested = "auto"
    return activate(requested)


def ensure(name: str) -> str:
    """Make the process's kernel tier match a config knob.

    ``auto`` defers to :func:`initialize_default` (the environment wins, and
    an already-active tier is kept); an explicit backend re-activates only
    when the current request differs.  Worker processes call this from
    ``MGTWorker.__init__`` so a pickled config reproduces the driver's tier.
    """
    name = str(name).lower()
    if name not in BACKEND_NAMES:
        raise ConfigurationError(
            f"kernel_backend must be one of {BACKEND_NAMES}, got {name!r}"
        )
    if name == "auto":
        return initialize_default()
    if name != _requested or not kernels._BACKEND_READY:
        return activate(name)
    return _resolved or "numpy"


def active_backend() -> str:
    """The tier currently in effect (resolving the default on first call)."""
    return initialize_default()


def fused(name: str):
    """The active fused entry point ``name``, or ``None`` for the numpy path."""
    if not kernels._BACKEND_READY:
        initialize_default()
    impl = kernels._ACTIVE_IMPLS.get(name)
    key = f"{name}.{_resolved if impl is not None else 'numpy'}"
    _dispatch_counts[key] = _dispatch_counts.get(key, 0) + 1
    return impl


def warmup() -> tuple[str, ...]:
    """Run every active compiled kernel once; returns the warmed names.

    Activation already warms the registry, so this is cheap and mainly
    useful to make warm state explicit before a timed region (the perf
    benchmarks call it between ``use(...)`` and the first measurement).
    """
    backend = active_backend()
    if backend == "numpy":
        return ()
    registry = kernels._ACTIVE_IMPLS
    _warm_registry(backend, registry)
    return tuple(sorted(registry))


@contextmanager
def use(name: str) -> Iterator[str]:
    """Temporarily switch the kernel tier (tests and benchmarks).

    Restores the previous request on exit; registries are cached, so the
    switch never recompiles.
    """
    global _requested, _resolved
    prev = _requested
    try:
        yield activate(name)
    finally:
        if prev is None:
            # nothing was ever requested explicitly: return to lazy default
            kernels._ACTIVE_IMPLS.clear()
            kernels._BACKEND_READY = False
            _requested = None
            _resolved = None
        else:
            activate(prev)
