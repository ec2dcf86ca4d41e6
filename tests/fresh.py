"""The uncached builders behind the two memos, for cached-against-fresh tests.

``repro.cache`` has no on/off switch.  A test that compares what a
memo serves with a fresh build calls the builder behind it:
:func:`fresh_program` in place of
:func:`~repro.collectives.api.collective_program`, and
:func:`fresh_broadcast` in place of the runtime's source-0 broadcast
memo (``runtime.cluster_programs``).  :func:`uncached` serves a whole
public call from both.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import pytest

import repro.collectives.api as api
import repro.runtime.rules as rules
from repro.collectives.api import collective_schedule
from repro.sim.lowering import lower_schedule
from repro.sim.ports import PortModel


def fresh_program(
    cube,
    op,
    algorithm=None,
    source=0,
    message_elems=1,
    packet_elems=None,
    port_model=PortModel.ONE_PORT_FULL,
    subtree_order="depth_first",
    built=None,
):
    """The call's schedule built afresh and lowered, with no verdict."""
    sched, initial = built or collective_schedule(
        cube, op, algorithm, source, message_elems, packet_elems,
        port_model, subtree_order,
    )
    return sched, initial, lower_schedule(cube, sched, initial)


def fresh_broadcast(
    cube, algorithm, source, message_elems, packet_elems, port_model, order,
):
    """A runtime broadcast's program derived directly at ``source``.

    It is built by hand, so a run derives and lowers its first round
    from its programs
    (:meth:`~repro.runtime.rules.ClusterProgram.first_round`) and holds
    no delivery verdict."""
    if algorithm == "sbt":
        programs = rules._sbt_broadcast(
            cube, source, message_elems, packet_elems, port_model, order
        )
    else:
        programs = rules._msbt_broadcast(
            cube, source, message_elems, packet_elems, port_model
        )
    return rules.ClusterProgram(
        programs=programs,
        chunk_sizes=rules._bcast_sizes(message_elems, packet_elems),
        op="broadcast",
        algorithm=algorithm,
        source=source,
        port_model=port_model,
    )


@contextmanager
def uncached() -> Iterator[None]:
    """Inside the block, every public collective call and runtime
    broadcast is built afresh at its own source, touching no memo."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(api, "collective_program", fresh_program)
        patch.setattr(rules, "_broadcast", fresh_broadcast)
        yield
