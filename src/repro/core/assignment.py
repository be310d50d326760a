"""Phase III: physical replica assignment (compatibility facade).

Maps each join pair replica onto physical nodes: partition its input
streams (Eq. 7), then walk the partition grid cell by cell, placing each
sub-join on the nearest node (by cost-space k-NN around the replica's
virtual position) with enough available capacity. When no node can host a
cell, Nova spreads the remainder evenly over the nearest candidates,
accepting overload (Section 3.4).

The actual machinery — the partition-aware host index and the shared
threshold-bucketed cursor cache — lives in :mod:`repro.core.packing`; sessions hold a long-lived
:class:`~repro.core.packing.PackingEngine` so neighbourhood rings are
reused across replicas. This module keeps the historical one-shot entry
point: :func:`place_replica` spins up a throwaway engine per call, which
preserves the old signature for tests and external callers at the cost
of the cross-replica cache.
"""

from __future__ import annotations

from typing import MutableMapping

import numpy as np

from repro.core.config import NovaConfig
from repro.core.cost_space import CostSpace
from repro.core.packing import AssignmentOutcome, PackingEngine
from repro.query.expansion import JoinPairReplica

__all__ = ["AssignmentOutcome", "place_replica"]


def place_replica(
    replica: JoinPairReplica,
    virtual_position: np.ndarray,
    cost_space: CostSpace,
    available: MutableMapping[str, float],
    config: NovaConfig,
) -> AssignmentOutcome:
    """Partition and physically place one join pair replica.

    Mutates ``available`` to account for consumed (marginal) capacity.
    Never raises on overload: the spread fallback guarantees a placement,
    flagged through ``overload_accepted``.
    """
    engine = PackingEngine(cost_space, config)
    return engine.place_replica(replica, virtual_position, available)
