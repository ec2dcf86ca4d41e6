"""Machine (communication cost) parameters.

The paper's cost model: sending one packet of ``b`` elements over a
link takes ``tau + b * t_c`` — a fixed start-up plus a transfer time
proportional to the packet size.  Hardware additionally imposes an
*internal* maximum packet size (1 KB on the Intel iPSC): a user-level
send of ``b`` elements is split into ``ceil(b / internal)`` hardware
packets, each paying the start-up.

The iPSC also exhibits a ~20 % overlap between communication actions on
*different* ports of the same node (§5.2 explains the measured BST
advantage on one-port hardware through exactly this overlap); the
asynchronous engine models it through :attr:`MachineParams.overlap`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import ceil, isfinite
from numbers import Real

__all__ = ["MachineParams", "IPSC_D7", "UNIT_COST", "ZERO_STARTUP"]


@dataclass(frozen=True)
class MachineParams:
    """Communication cost parameters of a simulated cube machine.

    Attributes:
        tau: start-up time per (internal) packet, in seconds.
        t_c: transfer time per element, in seconds.
        internal_packet_elems: hardware maximum packet size in elements;
            ``None`` means unbounded (pure model of the paper's
            analysis, where ``B`` is the only packet-size limit).
        overlap: fraction (0..1) of a communication action that may
            overlap with the node's next action *on a different port*
            under the one-port models.  0 reproduces the strict
            analytical model; 0.2 reproduces the iPSC's measured
            behaviour.
        name: human-readable label for reports.
    """

    tau: float = 1.0
    t_c: float = 1.0
    internal_packet_elems: int | None = None
    overlap: float = 0.0
    name: str = "generic"

    def __post_init__(self) -> None:
        for what, value in (("start-up", self.tau), ("transfer", self.t_c)):
            if isinstance(value, bool) or not (isfinite(value) and value >= 0):
                raise ValueError(
                    f"{what} time must be finite and non-negative, got {value!r}"
                )
        ipe = self.internal_packet_elems
        if ipe is not None and not (
            isinstance(ipe, Real)
            and not isinstance(ipe, bool)
            and isfinite(ipe)
            and ipe == int(ipe)
            and ipe >= 1
        ):
            raise ValueError(
                f"internal packet size must be a whole number >= 1 of elements, got {ipe!r}"
            )
        if not 0.0 <= self.overlap < 1.0:
            raise ValueError(f"overlap must be in [0, 1), got {self.overlap}")

    def send_cost(self, elems: int) -> float:
        """Time to push ``elems`` elements over one link.

        ``ceil(elems / internal) * tau + elems * t_c`` — one start-up
        per hardware packet plus the proportional transfer time.  A
        zero-element send still pays one start-up (a header packet).
        """
        if elems < 0:
            raise ValueError(f"cannot send a negative number of elements ({elems})")
        if self.internal_packet_elems is None:
            packets = 1
        else:
            packets = max(1, ceil(elems / self.internal_packet_elems))
        return packets * self.tau + elems * self.t_c

    def with_overlap(self, overlap: float) -> "MachineParams":
        """A copy of these parameters with a different overlap factor."""
        return replace(self, overlap=overlap)

    @classmethod
    def from_bandwidth(
        cls,
        startup_us: float,
        bandwidth_mb_per_s: float,
        internal_packet_bytes: int | None = None,
        overlap: float = 0.0,
        name: str = "custom",
    ) -> "MachineParams":
        """Build parameters from datasheet-style numbers.

        Args:
            startup_us: per-packet start-up in microseconds.
            bandwidth_mb_per_s: link bandwidth in MB/s (elements are
                bytes: ``t_c = 1 / bandwidth``).
            internal_packet_bytes: hardware maximum packet, if any.
            overlap: cross-port overlap fraction.
            name: label for reports.

        >>> m = MachineParams.from_bandwidth(1000.0, 0.4, 1024)
        >>> round(m.tau, 6), round(m.t_c * 1e6, 2)
        (0.001, 2.5)
        """
        if startup_us <= 0 or bandwidth_mb_per_s <= 0:
            raise ValueError("start-up and bandwidth must be positive")
        return cls(
            tau=startup_us * 1e-6,
            t_c=1.0 / (bandwidth_mb_per_s * 1e6),
            internal_packet_elems=internal_packet_bytes,
            overlap=overlap,
            name=name,
        )

    def ideal(self) -> "MachineParams":
        """A copy with no hardware packet limit and no overlap (pure model)."""
        return replace(self, internal_packet_elems=None, overlap=0.0)


#: Intel iPSC/d7 calibration used for the paper's §5 experiments:
#: ≈1 ms per-packet start-up, ≈2.5 µs per byte (elements are bytes),
#: 1 KB internal packets, ≈20 % overlap between actions on distinct
#: ports (the effect §5.2 credits for the BST's measured advantage).
IPSC_D7 = MachineParams(
    tau=1.0e-3,
    t_c=2.5e-6,
    internal_packet_elems=1024,
    overlap=0.20,
    name="Intel iPSC/d7",
)

#: Unit costs (tau = t_c = 1): handy for tests, where predicted times
#: become small integers.
UNIT_COST = MachineParams(tau=1.0, t_c=1.0, name="unit")

#: Pure bandwidth model (no start-ups) for transfer-time-only checks.
ZERO_STARTUP = MachineParams(tau=0.0, t_c=1.0, name="zero-startup")
