"""High-level simulated collective operations (the public API)."""

from repro.collectives.api import (
    BACKENDS,
    ROOTED_OPS,
    SCHEDULE_OPS,
    all_broadcast,
    allgather,
    allreduce,
    alltoall_personalized,
    broadcast,
    check_delivery,
    collective_program,
    collective_schedule,
    default_algorithm,
    gather,
    reduce,
    scatter,
)
from repro.collectives.result import AllreduceResult, CollectiveResult

__all__ = [
    "BACKENDS",
    "ROOTED_OPS",
    "SCHEDULE_OPS",
    "all_broadcast",
    "allgather",
    "allreduce",
    "alltoall_personalized",
    "broadcast",
    "check_delivery",
    "collective_program",
    "collective_schedule",
    "default_algorithm",
    "gather",
    "reduce",
    "scatter",
    "AllreduceResult",
    "CollectiveResult",
]
