"""repro — reproduction of Ho & Johnsson (ICPP 1986).

Distributed routing algorithms for broadcasting and personalized
communication in Boolean ``n``-cube (hypercube) multiprocessors:
spanning binomial trees (SBT), multiple spanning binomial trees (MSBT),
balanced spanning trees (BST), the TCBT and Hamiltonian-path baselines,
a packet-switched cube simulator with the paper's three port models,
and the closed-form communication-complexity models of Tables 1–6.

Quick start::

    from repro import Hypercube, broadcast, PortModel

    cube = Hypercube(5)
    result = broadcast(cube, source=0, algorithm="msbt",
                       message_elems=4096, packet_elems=256,
                       port_model=PortModel.ONE_PORT_FULL)
    print(result.cycles, result.time)
"""

from repro._version import __version__
from repro.topology import (
    DirectedEdge,
    Hypercube,
    Topology,
    Torus,
    resolve_topology,
)
from repro.trees import (
    BalancedSpanningTree,
    HamiltonianPathTree,
    MSBTGraph,
    SpanningBinomialTree,
    SpanningTree,
    TwoRootedCompleteBinaryTree,
)

__all__ = [
    "__version__",
    "DirectedEdge",
    "Hypercube",
    "Torus",
    "Topology",
    "resolve_topology",
    "SpanningTree",
    "SpanningBinomialTree",
    "MSBTGraph",
    "BalancedSpanningTree",
    "TwoRootedCompleteBinaryTree",
    "HamiltonianPathTree",
    # extended below once the sim/routing layers import cleanly
]


def _extend_api() -> None:
    """Populate the top-level API from the higher layers."""
    from repro.analysis import models  # noqa: F401
    from repro.cache import cache_stats, clear_caches
    from repro.collectives.api import (
        all_broadcast,
        allgather,
        allreduce,
        alltoall_personalized,
        broadcast,
        default_algorithm,
        gather,
        reduce,
        scatter,
    )
    from repro.sim.faults import DegradedResult, FaultError, FaultPlan
    from repro.sim.machine import IPSC_D7, MachineParams
    from repro.sim.ports import PortModel

    globals().update(
        broadcast=broadcast,
        scatter=scatter,
        gather=gather,
        reduce=reduce,
        allgather=allgather,
        allreduce=allreduce,
        all_broadcast=all_broadcast,
        alltoall_personalized=alltoall_personalized,
        default_algorithm=default_algorithm,
        MachineParams=MachineParams,
        IPSC_D7=IPSC_D7,
        PortModel=PortModel,
        DegradedResult=DegradedResult,
        FaultError=FaultError,
        FaultPlan=FaultPlan,
        cache_stats=cache_stats,
        clear_caches=clear_caches,
    )
    __all__.extend(
        [
            "broadcast",
            "scatter",
            "gather",
            "reduce",
            "allgather",
            "allreduce",
            "all_broadcast",
            "alltoall_personalized",
            "default_algorithm",
            "MachineParams",
            "IPSC_D7",
            "PortModel",
            "DegradedResult",
            "FaultError",
            "FaultPlan",
            "cache_stats",
            "clear_caches",
        ]
    )


try:
    _extend_api()
except ModuleNotFoundError:  # pragma: no cover - only during partial builds
    pass
del _extend_api
