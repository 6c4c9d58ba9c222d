"""Package-level tests: public exports, version, packaging metadata,
exception hierarchy."""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro import errors, service
from repro.service import multiproc, replication


class TestPublicApi:
    def test_version_is_exposed(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_exports_resolve(self):
        for module in (repro, service, multiproc, replication):
            for name in module.__all__:
                assert hasattr(module, name), (
                    f"{module.__name__}.__all__ lists missing attribute {name}"
                )

    def test_headline_classes_are_exported(self):
        assert repro.HABF.algorithm_name == "HABF"
        assert repro.FastHABF.algorithm_name == "f-HABF"
        assert len(repro.GLOBAL_HASH_FAMILY) == 22

    def test_pyproject_metadata_matches_package(self):
        """setup.py defers all metadata to pyproject.toml; keep them honest."""
        try:
            import tomllib
        except ImportError:  # Python < 3.11
            pytest.skip("tomllib unavailable")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        metadata = tomllib.loads(pyproject.read_text())
        assert metadata["project"]["name"] == "habf-repro"
        assert metadata["project"]["version"] == repro.__version__
        assert any(
            dep.startswith("numpy") for dep in metadata["project"]["dependencies"]
        ), "numpy is a real dependency of the learned baselines and the batch engine"
        assert metadata["tool"]["pytest"]["ini_options"]["testpaths"] == [
            "tests",
            "benchmarks",
        ]

    def test_quickstart_snippet_from_readme(self):
        """The README quickstart must keep working verbatim (smaller sizes)."""
        positives = [f"user:{i}" for i in range(200)]
        negatives = [f"visitor:{i}" for i in range(200)]
        costs = {key: 1.0 + (hash(key) % 100) for key in negatives}
        habf = repro.HABF.build(
            positives,
            negatives,
            costs,
            params=repro.HABFParams(total_bits=2_000, k=3, delta=0.25, cell_hash_bits=4),
        )
        assert all(key in habf for key in positives)
        assert habf.construction_stats is not None


class TestExceptionHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for exc in (
            errors.ConfigurationError,
            errors.CapacityError,
            errors.ConstructionError,
            errors.UnknownHashError,
            errors.DatasetError,
        ):
            assert issubclass(exc, errors.ReproError)

    def test_configuration_error_is_a_value_error(self):
        assert issubclass(errors.ConfigurationError, ValueError)
        assert issubclass(errors.DatasetError, ValueError)

    def test_runtime_errors(self):
        assert issubclass(errors.CapacityError, RuntimeError)
        assert issubclass(errors.ConstructionError, RuntimeError)

    def test_single_except_clause_catches_everything(self):
        with pytest.raises(errors.ReproError):
            raise errors.UnknownHashError("nope")
