"""repro.runtime — the paper's distributed routing rules, run locally.

Where :mod:`repro.sim` generates a schedule centrally and replays it,
this package derives the algorithms the way the paper states them:
every hypercube node computes its own transmissions from its address
and the operation parameters alone (:mod:`~repro.runtime.rules`), each
send carrying a locally computed priority key.
:func:`~repro.runtime.execute.run_program` sorts every node's sends by
key into one program and runs it on the vectorized event engine, which
gates sends on their payload, serializes links and enforces the port
model; the runtime adds receive-timeout repair on top
(:mod:`~repro.runtime.execute`).  The differential harness
(:mod:`~repro.runtime.validate`) proves runtime executions identical
to engine replays of the central schedules across the whole parameter
grid, and :mod:`~repro.runtime.trace` streams per-packet events to
JSONL or Chrome ``trace_event`` timelines.
"""

from repro.runtime.execute import (
    RuntimeResult,
    RUNTIME_FAULT_MODES,
    run_collective,
    run_program,
)
from repro.runtime.rules import (
    ClusterProgram,
    NodeProgram,
    PlannedSend,
    RUNTIME_BROADCAST_ALGORITHMS,
    RUNTIME_SCATTER_ALGORITHMS,
    SendRound,
    build_cluster_program,
)
from repro.runtime.trace import RuntimeTrace, TraceEvent
from repro.runtime.validate import (
    GridReport,
    differential_check,
    differential_grid,
)

__all__ = [
    "RuntimeResult",
    "RUNTIME_FAULT_MODES",
    "run_collective",
    "run_program",
    "ClusterProgram",
    "NodeProgram",
    "PlannedSend",
    "RUNTIME_BROADCAST_ALGORITHMS",
    "RUNTIME_SCATTER_ALGORITHMS",
    "SendRound",
    "build_cluster_program",
    "RuntimeTrace",
    "TraceEvent",
    "GridReport",
    "differential_check",
    "differential_grid",
]
