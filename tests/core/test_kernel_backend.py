"""Unit tests for the compiled-kernel dispatch layer.

The contract under test: selection (env var, config knob, explicit
activation), graceful degradation (unavailable backend -> numpy with a
RuntimeWarning; a single failing kernel -> dropped from the registry while
the rest of the tier stays on), probe caching, and the warm-up hygiene
guarantee that a compiled kernel's first and second calls return identical
results (building must affect wall clock only, never values).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core import kernel_backend, kernels
from repro.core.config import PDTLConfig
from repro.errors import ConfigurationError

_COMPILED_OK, _COMPILED_DETAIL = kernel_backend.compiled_available()


@pytest.fixture(autouse=True)
def restore_dispatch_state():
    """Snapshot and restore every module-level knob the tests poke."""
    saved = (
        kernel_backend._requested,
        kernel_backend._resolved,
        dict(kernel_backend._probe_cache),
        dict(kernel_backend._registry_cache),
        set(kernel_backend._warned),
        dict(kernels._ACTIVE_IMPLS),
        kernels._BACKEND_READY,
    )
    yield
    (
        kernel_backend._requested,
        kernel_backend._resolved,
        probe,
        registry,
        warned,
        impls,
        ready,
    ) = saved
    kernel_backend._probe_cache.clear()
    kernel_backend._probe_cache.update(probe)
    kernel_backend._registry_cache.clear()
    kernel_backend._registry_cache.update(registry)
    kernel_backend._warned.clear()
    kernel_backend._warned.update(warned)
    kernels._ACTIVE_IMPLS.clear()
    kernels._ACTIVE_IMPLS.update(impls)
    kernels._BACKEND_READY = ready


class TestSelection:
    def test_numpy_always_available(self):
        assert kernel_backend.backend_available("numpy") == (True, "")

    def test_unknown_backend_probe(self):
        ok, detail = kernel_backend.backend_available("fortran")
        assert not ok and "fortran" in detail

    def test_compiled_tier_is_the_cffi_probe(self):
        assert kernel_backend.BACKEND_NAMES == ("auto", "numpy", "cffi")
        assert kernel_backend.COMPILED_BACKENDS == ("cffi",)
        ok, detail = kernel_backend.backend_available("cffi")
        assert kernel_backend.compiled_available() == (
            (True, "cffi") if ok else (False, f"cffi: {detail}")
        )
        ok, detail = kernel_backend.backend_available("numba")
        assert not ok and "numba" in detail

    def test_activate_numpy_clears_registry(self):
        assert kernel_backend.activate("numpy") == "numpy"
        assert kernels._ACTIVE_IMPLS == {}
        assert kernel_backend.active_backend() == "numpy"
        assert kernel_backend.fused("mgt_block_scan") is None

    def test_activate_rejects_unknown_name(self):
        with pytest.raises(ConfigurationError):
            kernel_backend.activate("cython")
        with pytest.raises(ConfigurationError):
            kernel_backend.ensure("cython")

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv("KERNEL_BACKEND", "numpy")
        kernels._BACKEND_READY = False
        kernel_backend._requested = None
        kernel_backend._resolved = None
        assert kernel_backend.initialize_default() == "numpy"

    def test_invalid_env_var_warns_and_uses_auto(self, monkeypatch):
        auto = "cffi" if kernel_backend.backend_available("cffi")[0] else "numpy"
        # "numba" is not a kernel tier: it is as unknown as any other value
        for value in ("turbo", "numba"):
            monkeypatch.setenv("KERNEL_BACKEND", value)
            kernels._BACKEND_READY = False
            kernel_backend._requested = None
            kernel_backend._resolved = None
            kernel_backend._warned.discard(f"env:{value}")
            with pytest.warns(RuntimeWarning, match="ignoring KERNEL_BACKEND"):
                resolved = kernel_backend.initialize_default()
            assert resolved == auto, value
            assert kernel_backend._requested == "auto", value

    def test_config_knob_validation(self):
        with pytest.raises(ConfigurationError, match="kernel_backend"):
            PDTLConfig(kernel_backend="cython")
        with pytest.raises(ConfigurationError, match="kernel_backend"):
            PDTLConfig(kernel_backend="numba")
        assert PDTLConfig(kernel_backend="NumPy").kernel_backend == "numpy"
        assert PDTLConfig().kernel_backend == "auto"

    def test_use_restores_previous_tier(self):
        before_request = kernel_backend._requested
        with kernel_backend.use("numpy") as active:
            assert active == "numpy"
            assert kernel_backend.active_backend() == "numpy"
        assert kernel_backend._requested == before_request


class TestGracefulFallback:
    def test_unavailable_backend_falls_back_with_warning(self, monkeypatch):
        def broken(name):
            raise ImportError(f"no module for {name}")

        monkeypatch.setattr(kernel_backend, "_load_backend", broken)
        kernel_backend._probe_cache.clear()
        kernel_backend._registry_cache.clear()
        kernel_backend._warned.discard("fallback:cffi")
        with pytest.warns(RuntimeWarning, match="falling back to the numpy tier"):
            assert kernel_backend.activate("cffi") == "numpy"
        assert kernels._ACTIVE_IMPLS == {}

    def test_auto_degrades_to_numpy_silently(self, monkeypatch):
        def broken(name):
            raise ImportError("nothing compiled here")

        monkeypatch.setattr(kernel_backend, "_load_backend", broken)
        kernel_backend._probe_cache.clear()
        kernel_backend._registry_cache.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernel_backend.activate("auto") == "numpy"

    def test_probe_failure_is_cached(self, monkeypatch):
        calls = []

        def broken(name):
            calls.append(name)
            raise RuntimeError("boom")

        monkeypatch.setattr(kernel_backend, "_load_backend", broken)
        kernel_backend._probe_cache.clear()
        kernel_backend._registry_cache.clear()
        assert not kernel_backend.backend_available("cffi")[0]
        assert not kernel_backend.backend_available("cffi")[0]
        assert calls == ["cffi"]

    def test_compiled_available_reports_reasons(self, monkeypatch):
        def broken(name):
            raise ImportError(f"{name} missing")

        monkeypatch.setattr(kernel_backend, "_load_backend", broken)
        kernel_backend._probe_cache.clear()
        kernel_backend._registry_cache.clear()
        ok, detail = kernel_backend.compiled_available()
        assert not ok
        for name in kernel_backend.COMPILED_BACKENDS:
            assert name in detail


class TestPartialAvailability:
    def _registry_with_one_broken_kernel(self):
        registry = {
            # a correct implementation: the numpy twin itself
            "sorted_membership": kernels.NUMPY_IMPLS["sorted_membership"],
            # a kernel that cannot even run once
            "count_cone_range": lambda *args: (_ for _ in ()).throw(
                RuntimeError("build exploded")
            ),
        }
        return registry

    def test_failing_kernel_is_dropped_others_stay(self, monkeypatch):
        monkeypatch.setattr(
            kernel_backend,
            "_load_backend",
            lambda name: self._registry_with_one_broken_kernel(),
        )
        kernel_backend._probe_cache.clear()
        kernel_backend._registry_cache.clear()
        assert kernel_backend.activate("cffi") == "cffi"
        assert "sorted_membership" in kernels._ACTIVE_IMPLS
        assert "count_cone_range" not in kernels._ACTIVE_IMPLS
        # dispatch for the dropped kernel silently uses the numpy body
        indptr = np.array([0, 2, 3, 3], dtype=np.int64)
        indices = np.array([1, 2, 2], dtype=np.int64)
        assert kernels.count_cone_range(indptr, indices) == 1

    def test_disagreeing_kernel_is_dropped(self, monkeypatch):
        def wrong_membership(haystack, queries):
            return np.ones(np.asarray(queries).shape[0], dtype=bool)

        monkeypatch.setattr(
            kernel_backend,
            "_load_backend",
            lambda name: {"sorted_membership": wrong_membership},
        )
        kernel_backend._probe_cache.clear()
        kernel_backend._registry_cache.clear()
        ok, detail = kernel_backend.backend_available("cffi")
        assert not ok  # its only kernel disagreed with the numpy twin
        assert "disagrees" in detail


@pytest.mark.skipif(not _COMPILED_OK, reason=f"no compiled backend: {_COMPILED_DETAIL}")
class TestCompiledTier:
    def test_activation_installs_fused_kernels(self):
        backend = kernel_backend.activate(_COMPILED_DETAIL)
        assert backend == _COMPILED_DETAIL
        for name in kernel_backend.FUSED_KERNELS:
            assert callable(kernel_backend.fused(name)), name

    def test_warmup_reports_kernel_names(self):
        kernel_backend.activate(_COMPILED_DETAIL)
        warmed = kernel_backend.warmup()
        assert "sorted_membership" in warmed
        assert "mgt_block_scan" in warmed

    def test_first_and_second_calls_identical(self):
        """Compilation must never leak into values: a freshly activated
        kernel's first call (which may build it) and its second call return
        bit-identical results."""
        kernel_backend._registry_cache.pop(_COMPILED_DETAIL, None)
        kernel_backend._probe_cache.pop(_COMPILED_DETAIL, None)
        kernel_backend.activate(_COMPILED_DETAIL)
        rng = np.random.default_rng(11)
        haystack = np.unique(rng.integers(-50, 400, size=300))
        queries = np.sort(rng.integers(-50, 400, size=500))
        first = kernels.sorted_membership(haystack, queries)
        second = kernels.sorted_membership(haystack, queries)
        np.testing.assert_array_equal(first, second)

        indptr = np.array([0, 3, 5, 6, 6], dtype=np.int64)
        indices = np.array([1, 2, 3, 2, 3, 3], dtype=np.int64)
        first = kernels.triangle_range(indptr, indices, 0, 4, want_triples=True)
        second = kernels.triangle_range(indptr, indices, 0, 4, want_triples=True)
        for f, s in zip(first, second):
            np.testing.assert_array_equal(np.asarray(f), np.asarray(s))

    def test_use_context_switches_and_restores(self):
        kernel_backend.activate("numpy")
        assert kernels._ACTIVE_IMPLS == {}
        with kernel_backend.use(_COMPILED_DETAIL) as active:
            assert active == _COMPILED_DETAIL
            assert kernels._ACTIVE_IMPLS
        assert kernel_backend.active_backend() == "numpy"
        assert kernels._ACTIVE_IMPLS == {}
