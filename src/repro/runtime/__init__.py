"""repro.runtime — a concurrent message-passing runtime for the
paper's distributed routing rules.

Where :mod:`repro.sim` generates a schedule centrally and replays it,
this package *executes* the algorithms the way the paper states them:
every hypercube node is an actor that derives its own transmissions
from its address and the operation parameters alone
(:mod:`~repro.runtime.rules`) and submits them to a shared kernel
enforcing port-model capacity and link serialization
(:mod:`~repro.runtime.channels`, :mod:`~repro.runtime.actors`).
Messages between actors run in FIFO order, and the virtual clock,
which has the event engine's exact timing semantics
(:mod:`~repro.runtime.clock`), advances only when that FIFO is empty.  The differential harness
(:mod:`~repro.runtime.validate`) proves runtime executions identical
to engine replays across the whole parameter grid, and
:mod:`~repro.runtime.trace` streams per-packet events to JSONL or
Chrome ``trace_event`` timelines.
"""

from repro.runtime.actors import (
    Kernel,
    NodeActor,
    RuntimeResult,
    RUNTIME_FAULT_MODES,
    VirtualCluster,
    run_collective,
)
from repro.runtime.rules import (
    ClusterProgram,
    NodeProgram,
    PlannedSend,
    RUNTIME_BROADCAST_ALGORITHMS,
    RUNTIME_SCATTER_ALGORITHMS,
    build_cluster_program,
)
from repro.runtime.trace import RuntimeTrace, TraceEvent
from repro.runtime.validate import (
    GridReport,
    differential_check,
    differential_grid,
)

__all__ = [
    "Kernel",
    "NodeActor",
    "RuntimeResult",
    "RUNTIME_FAULT_MODES",
    "VirtualCluster",
    "run_collective",
    "ClusterProgram",
    "NodeProgram",
    "PlannedSend",
    "RUNTIME_BROADCAST_ALGORITHMS",
    "RUNTIME_SCATTER_ALGORITHMS",
    "build_cluster_program",
    "RuntimeTrace",
    "TraceEvent",
    "GridReport",
    "differential_check",
    "differential_grid",
]
