"""Configuration of the Nova optimizer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.common.units import check_fraction, check_non_negative, check_positive
from repro.core.execution import BACKEND_SERIAL, BACKENDS
from repro.ncs.vivaldi import VivaldiConfig

EMBEDDING_VIVALDI = "vivaldi"
EMBEDDING_CLASSICAL_MDS = "classical_mds"
EMBEDDING_SMACOF = "smacof"

MEDIAN_WEISZFELD = "weiszfeld"
MEDIAN_GRADIENT = "gradient"
MEDIAN_MINIMAX = "minimax"

FALLBACK_SPREAD = "spread"
FALLBACK_EXPAND = "expand"


@dataclass
class NovaConfig:
    """All tuning knobs of the Nova approach.

    Defaults follow the paper's experimental setup: sigma = 0.4, Vivaldi
    embeddings in two dimensions, Weiszfeld for the geometric median, and
    candidate expansion as overload fallback.
    """

    dimensions: int = 2
    embedding: str = EMBEDDING_VIVALDI
    vivaldi: VivaldiConfig = field(default_factory=VivaldiConfig)
    median_solver: str = MEDIAN_WEISZFELD
    # Phase II batching: missing virtual positions are solved as one
    # masked (R, A, d) batch, chunked to median_batch_size problems so
    # paper-scale runs bound their peak memory. Batches smaller than
    # median_batch_min fall back to the scalar solvers (per-call numpy
    # overhead only pays off past a handful of problems); batch size 0
    # disables batching entirely.
    median_batch_size: int = 4096
    median_batch_min: int = 8
    sigma: Optional[float] = 0.4
    bandwidth_threshold: Optional[float] = None
    min_available_capacity: float = 0.0
    knn_backend: Optional[str] = None
    exact_knn_limit: int = 200_000
    # Below this many nodes, Phase III's batched host queries stay fully
    # exact; above it they may stop at the first k qualifying nodes found
    # in best-first order (near-exact, skips the minimality proof).
    exact_proof_limit: int = 2000
    fallback: str = FALLBACK_EXPAND
    max_candidate_expansions: int = 16
    # Phase III packs serially. These two fields remain only so callers
    # that still pass them keep working: packing_workers must be 1 and
    # execution_backend "serial" or "thread" (both run the same pass).
    packing_workers: int = 1
    execution_backend: str = BACKEND_SERIAL
    # Shared cursor cache: virtual positions are quantized onto a
    # packing_bucket_grid^d spatial grid (per axis, over the cost-space
    # extent) and demands onto power-of-two levels; one over-fetched
    # capacity-filtered ring per (cell, level) is shared by every replica
    # in the bucket. packing_ring_start_k seeds the over-fetch (doubled
    # until the nearest qualifying host is provably covered).
    packing_bucket_grid: int = 32
    packing_ring_start_k: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dimensions < 1:
            raise ValueError("dimensions must be >= 1")
        if self.embedding not in (
            EMBEDDING_VIVALDI,
            EMBEDDING_CLASSICAL_MDS,
            EMBEDDING_SMACOF,
        ):
            raise ValueError(f"unknown embedding method {self.embedding!r}")
        if self.median_solver not in (MEDIAN_WEISZFELD, MEDIAN_GRADIENT, MEDIAN_MINIMAX):
            raise ValueError(f"unknown median solver {self.median_solver!r}")
        if self.median_batch_size < 0:
            raise ValueError("median_batch_size must be >= 0 (0 disables batching)")
        if self.median_batch_min < 1:
            raise ValueError("median_batch_min must be >= 1")
        if self.sigma is not None:
            check_fraction("sigma", self.sigma)
        if self.bandwidth_threshold is not None:
            check_positive("bandwidth_threshold", self.bandwidth_threshold)
        check_non_negative("min_available_capacity", self.min_available_capacity)
        if self.fallback not in (FALLBACK_SPREAD, FALLBACK_EXPAND):
            raise ValueError(f"unknown fallback strategy {self.fallback!r}")
        if self.max_candidate_expansions < 0:
            raise ValueError("max_candidate_expansions must be >= 0")
        if self.packing_workers != 1:
            raise ValueError(
                f"packing_workers={self.packing_workers!r} is not supported: "
                "parallel packing was removed, Phase III always packs serially "
                "(packing_workers must be 1)"
            )
        if self.execution_backend not in BACKENDS:
            raise ValueError(
                f"execution_backend={self.execution_backend!r} is not supported: "
                "parallel packing was removed, Phase III always packs serially "
                f"(expected one of {', '.join(BACKENDS)})"
            )
        if self.packing_bucket_grid < 1:
            raise ValueError("packing_bucket_grid must be >= 1")
        if self.packing_ring_start_k < 1:
            raise ValueError("packing_ring_start_k must be >= 1")
        if self.exact_proof_limit < 0:
            raise ValueError("exact_proof_limit must be >= 0")
        if self.sigma is None and self.bandwidth_threshold is None:
            raise ValueError(
                "either sigma must be fixed or bandwidth_threshold must be set "
                "so sigma can be derived (Eq. 8)"
            )
