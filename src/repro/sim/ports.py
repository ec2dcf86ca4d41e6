"""The paper's three port (communication capability) models.

Every complexity row of Tables 1–4 and 6 is parameterized by one of:

* ``ONE_PORT_HALF`` — "one send *or* receive": a node performs at most
  one communication action per cycle (the most restrictive model).
* ``ONE_PORT_FULL`` — "one send *and* receive": a node may send one
  packet and receive one packet concurrently (the effective model of
  the Intel iPSC, §3).
* ``ALL_PORT`` — concurrent communication on all ``n`` ports in both
  directions (the model under which MSBT/BST reach their lower bounds).
"""

from __future__ import annotations

from enum import Enum

__all__ = ["PortModel"]


class PortModel(Enum):
    """Per-node concurrency constraint on communication actions."""

    ONE_PORT_HALF = "1-send-or-receive"
    ONE_PORT_FULL = "1-send-and-receive"
    ALL_PORT = "all-ports"

    @property
    def half_duplex(self) -> bool:
        """True when a send and a receive may not overlap at one node."""
        return self is PortModel.ONE_PORT_HALF

    def describe(self) -> str:
        """The paper's wording for this model."""
        return {
            PortModel.ONE_PORT_HALF: "one send or one receive at a time",
            PortModel.ONE_PORT_FULL: "one send and one receive concurrently",
            PortModel.ALL_PORT: "concurrent communication on all ports",
        }[self]
