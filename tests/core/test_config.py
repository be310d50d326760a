"""Nova configuration validation."""

import pytest

from repro.core.config import (
    EMBEDDING_SMACOF,
    FALLBACK_SPREAD,
    MEDIAN_GRADIENT,
    NovaConfig,
)


class TestDefaults:
    def test_paper_defaults(self):
        config = NovaConfig()
        assert config.sigma == 0.4
        assert config.dimensions == 2
        assert config.embedding == "vivaldi"
        assert config.median_solver == "weiszfeld"

    def test_alternatives_accepted(self):
        config = NovaConfig(
            embedding=EMBEDDING_SMACOF,
            median_solver=MEDIAN_GRADIENT,
            fallback=FALLBACK_SPREAD,
            sigma=0.9,
        )
        assert config.fallback == FALLBACK_SPREAD


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dimensions": 0},
            {"embedding": "umap"},
            {"median_solver": "simplex"},
            {"sigma": 1.5},
            {"sigma": -0.1},
            {"bandwidth_threshold": 0.0},
            {"min_available_capacity": -1.0},
            {"fallback": "panic"},
            {"max_candidate_expansions": -1},
        ],
    )
    def test_invalid_values(self, kwargs):
        with pytest.raises(ValueError):
            NovaConfig(**kwargs)

    def test_sigma_none_requires_bandwidth(self):
        with pytest.raises(ValueError):
            NovaConfig(sigma=None, bandwidth_threshold=None)
        config = NovaConfig(sigma=None, bandwidth_threshold=100.0)
        assert config.bandwidth_threshold == 100.0


class TestRetainedPackingFields:
    """Phase III packs serially; the two old knobs accept only that."""

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_serial_values_accepted(self, backend):
        config = NovaConfig(packing_workers=1, execution_backend=backend)
        assert config.packing_workers == 1
        assert config.execution_backend == backend

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"packing_workers": 2},
            {"packing_workers": 0},
            {"packing_workers": "auto"},
            {"execution_backend": "process"},
            {"execution_backend": "gpu"},
        ],
    )
    def test_parallel_values_rejected(self, kwargs):
        with pytest.raises(ValueError, match="parallel packing was removed"):
            NovaConfig(**kwargs)
