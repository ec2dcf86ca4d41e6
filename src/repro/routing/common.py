"""Shared helpers for the schedule generators."""

from __future__ import annotations

from math import ceil, isfinite
from numbers import Integral, Real

from repro.sim.schedule import Chunk

__all__ = [
    "broadcast_chunks",
    "is_whole",
    "scatter_chunks",
    "validate_message_args",
    "BCAST",
    "MSG",
]

#: chunk-id tags (see repro.sim.schedule docstring for conventions)
BCAST = "b"
MSG = "m"


def is_whole(value: object) -> bool:
    """True for an integer, or a finite real with no fractional part.

    ``bool`` is not a size: ``True`` is rejected, not read as 1.
    """
    if isinstance(value, bool):
        return False
    if isinstance(value, Integral):
        return True
    return isinstance(value, Real) and isfinite(value) and value == int(value)


def validate_message_args(message_elems: int, packet_elems: int | None = None) -> None:
    """Common argument validation for all generators.

    Sizes count elements: NaN, infinite and fractional sizes raise
    instead of being rounded into a plausible packet count.  The
    rootless generators, which send one message per packet, pass no
    ``packet_elems``.
    """
    sizes = [("message", message_elems)]
    if packet_elems is not None:
        sizes.append(("packet", packet_elems))
    for what, size in sizes:
        if not is_whole(size):
            raise ValueError(
                f"{what} size must be a whole number of elements, got {size!r}"
            )
        if size < 1:
            raise ValueError(f"{what} size must be >= 1 element, got {size}")


def broadcast_chunks(message_elems: int, packet_elems: int) -> dict[Chunk, int]:
    """Split a broadcast message into packets ``("b", p)``.

    ``ceil(M / B)`` chunks of ``B`` elements each, except a possibly
    smaller final one.
    """
    validate_message_args(message_elems, packet_elems)
    n_packets = ceil(message_elems / packet_elems)
    sizes: dict[Chunk, int] = {}
    left = message_elems
    for p in range(n_packets):
        sizes[(BCAST, p)] = min(packet_elems, left)
        left -= packet_elems
    return sizes


def scatter_chunks(
    destinations: list[int],
    message_elems: int,
    packet_elems: int,
) -> dict[Chunk, int]:
    """Split per-destination messages into pieces ``("m", dest, p)``.

    Each destination's ``M`` elements are cut into pieces of at most
    ``B`` elements so any piece fits in one packet; pieces for several
    destinations may later be bundled into one packet by the
    generators (subject to the same ``B`` bound).
    """
    validate_message_args(message_elems, packet_elems)
    per_dest = ceil(message_elems / packet_elems)
    sizes: dict[Chunk, int] = {}
    for d in destinations:
        left = message_elems
        for p in range(per_dest):
            sizes[(MSG, d, p)] = min(packet_elems, left)
            left -= packet_elems
    return sizes
