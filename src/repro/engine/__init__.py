"""Columnar batch round-engine for million-node protocol simulation.

The reference simulator (:mod:`repro.distributed`) executes one Python
object per node and one object per message — the right shape for
developing and validating protocols, and the wrong shape for running
them at :math:`n \\approx 10^6`.  This package is the scale path: the
same synchronous-round semantics (§1.1 of the paper), executed over flat
per-vertex arrays and the CSR buffers of
:class:`~repro.graphs.graph.Graph`:

* :mod:`~repro.engine.primitives` — ``gather_min/max/sum/any`` neighbour
  reductions, sparse ``scatter_min``, masked fills; numpy-accelerated
  with a bit-identical pure-Python fallback (``REPRO_KERNEL=py``);
* :mod:`~repro.engine.core` — :class:`BatchEngine`: rounds, halt mask,
  :class:`~repro.distributed.metrics.NetworkStats` accounting, CONGEST
  ``word_budget`` enforcement and optional tracing;
* :mod:`~repro.engine.protocols` — batch ports of flood, BFS tree,
  convergecast and leader election;
* :mod:`~repro.engine.broadcast` — the shifted-value flood epoch shared
  by the decomposition protocols, run behind the ``backend="batch"``
  parameter of the distributed EN / LS / MPX drivers by
  :class:`~repro.distributed.execution.BatchPhases`.

Everything here is pinned bit-identical to the reference simulator by
the equivalence suite in ``tests/engine`` — outputs, round counts,
message totals, violation rounds and trace events alike.
"""

from ._backend import backend_name, numpy_enabled
from .broadcast import LiveTopology, ShiftedFlood, announce_round
from .core import BatchEngine
from .primitives import (
    gather_any,
    gather_max,
    gather_min,
    gather_sum,
    live_degrees,
    masked_fill,
    scatter_min,
)
from .protocols import (
    BatchBFSTree,
    BatchConvergecastSum,
    BatchFlood,
    BatchLeaderElection,
    BatchProtocol,
    BFSTreeResult,
    ConvergecastResult,
    FloodResult,
    LeaderElectionResult,
    bfs_tree,
    convergecast_sum,
    flood,
    leader_election,
)

__all__ = [
    "BatchBFSTree",
    "BatchConvergecastSum",
    "BatchEngine",
    "BatchFlood",
    "BatchLeaderElection",
    "BatchProtocol",
    "BFSTreeResult",
    "ConvergecastResult",
    "FloodResult",
    "LeaderElectionResult",
    "LiveTopology",
    "ShiftedFlood",
    "announce_round",
    "backend_name",
    "bfs_tree",
    "convergecast_sum",
    "flood",
    "gather_any",
    "gather_max",
    "gather_min",
    "gather_sum",
    "leader_election",
    "live_degrees",
    "masked_fill",
    "numpy_enabled",
    "scatter_min",
]
