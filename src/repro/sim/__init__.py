"""Packet-switched hypercube machine simulation.

Two engines over one schedule representation:

* :func:`repro.sim.run_synchronous` — lock-step cycles with port-model
  validation (the paper's analytical step counts);
* :func:`repro.sim.run_async` — event-driven timing with start-ups,
  hardware packet splitting and cross-port overlap (the paper's iPSC
  measurements).

The event engine is the vectorized array core
(:func:`repro.sim.run_async_vectorized`, of which ``run_async`` is the
public name): it compiles the schedule to flat NumPy tables via
:func:`repro.sim.lower_schedule`.  It is the only event engine; the
tests pin it bit for bit to a naive oracle,
:func:`repro.sim._engine_reference.run_async_reference`.
"""

from repro.sim.faults import (
    DegradedResult,
    FaultError,
    FaultEvent,
    FaultPlan,
    TransferLog,
)
from repro.sim.lowering import LoweredSchedule, lower_schedule
from repro.sim.machine import IPSC_D7, UNIT_COST, ZERO_STARTUP, MachineParams
from repro.sim.multi import JobEntry, MergedProgram, merge_programs, untag_holdings
from repro.sim.ports import PortModel
from repro.sim.result import AsyncResult
from repro.sim.schedule import Chunk, Schedule, Transfer, merge_schedules
from repro.sim.synchronous import SyncResult, check_round_constraints, run_synchronous
from repro.sim.trace import LinkStats
from repro.sim.vectorized import run_async_vectorized

run_async = run_async_vectorized

__all__ = [
    "AsyncResult",
    "run_async",
    "run_async_vectorized",
    "LoweredSchedule",
    "lower_schedule",
    "DegradedResult",
    "FaultError",
    "FaultEvent",
    "FaultPlan",
    "TransferLog",
    "JobEntry",
    "MergedProgram",
    "merge_programs",
    "untag_holdings",
    "IPSC_D7",
    "UNIT_COST",
    "ZERO_STARTUP",
    "MachineParams",
    "PortModel",
    "Chunk",
    "Schedule",
    "Transfer",
    "merge_schedules",
    "SyncResult",
    "check_round_constraints",
    "run_synchronous",
    "LinkStats",
]
