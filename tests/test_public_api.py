"""Tests for the package's public API surface."""

import importlib

import pytest

import repro


class TestTopLevel:
    def test_version(self):
        # Single-sourced from repro._version (the store's provenance records
        # and the CLI's --version read the same constant).
        from repro._version import __version__

        assert repro.__version__ == __version__
        parts = repro.__version__.split(".")
        assert len(parts) == 3 and all(part.isdigit() for part in parts)

    def test_store_provenance_uses_same_version(self):
        from repro.store.store import _library_version

        assert _library_version() == repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_exception_hierarchy(self):
        for name in (
            "DomainError",
            "WorkloadError",
            "PrivacyViolationError",
            "StochasticityError",
            "FactorizationError",
            "OptimizationError",
            "ProtocolError",
            "DataError",
            "StoreError",
            "ServiceError",
        ):
            exception = getattr(repro, name)
            assert issubclass(exception, repro.ReproError)

    @pytest.mark.parametrize(
        "module",
        [
            "repro.analysis",
            "repro.data",
            "repro.domains",
            "repro.experiments",
            "repro.linalg",
            "repro.mechanisms",
            "repro.optimization",
            "repro.postprocess",
            "repro.protocol",
            "repro.service",
            "repro.store",
            "repro.workloads",
        ],
    )
    def test_subpackage_all_exports_resolve(self, module):
        loaded = importlib.import_module(module)
        for name in getattr(loaded, "__all__", []):
            assert hasattr(loaded, name), f"{module}.{name}"

    def test_docstring_quickstart_runs(self):
        import numpy as np

        from repro import OptimizedMechanism, OptimizerConfig, workloads
        from repro.protocol import ProtocolSession

        w = workloads.prefix(8)
        mech = OptimizedMechanism(OptimizerConfig(num_iterations=30, seed=0))
        strategy = mech.strategy_for(w, epsilon=1.0)
        x = np.full(8, 10.0)
        result = ProtocolSession(strategy, w).run(x, seed=0)
        assert result.workload_estimates.shape == (8,)
