"""Node channels and port-model admission for the runtime kernel.

Mirrors the channel arithmetic of :mod:`repro.sim.vectorized` exactly —
same pruning rule, same overlap-release constraint — so that a runtime
execution and an engine replay of the same transfers occupy identical
time windows.  The admission object realizes the paper's port models as
per-node capacity:

* ``ONE_PORT_HALF`` — one channel per node, shared by sends and
  receives (a transfer occupies it at both endpoints);
* ``ONE_PORT_FULL`` — independent send and receive channels;
* ``ALL_PORT`` — no node channels at all; only the directed link
  serializes.

Consecutive actions of one channel on *different* ports may overlap by
the machine's ``overlap`` fraction (§5.2's measured ~20 % on the iPSC).
"""

from __future__ import annotations

from repro.sim.ports import PortModel

__all__ = ["Channel", "PortAdmission"]

_EPS = 1e-12

#: A send's priority key, as submitted to the kernel (epoch-prefixed).
Key = tuple


class Channel:
    """A serialized node channel with cross-port overlap.

    A new action on port ``p`` may start once it is past the end of
    every live action on ``p`` and past the overlap-release point
    ``start + (1 - overlap) * duration`` of every live action on other
    ports.  Occupations prune actions that ended before the new start,
    so only the live overlap window is retained.
    """

    __slots__ = ("_overlap", "_actions", "blocked")

    def __init__(self, overlap: float):
        self._overlap = overlap
        self._actions: list[tuple[int, float, float]] = []  # (port, start, end)
        #: admitted-but-deferred sends waiting on this channel, re-examined
        #: by the kernel's dirty-channel sweep
        self.blocked: set[Key] = set()

    def earliest_start(self, port: int, now: float) -> float:
        t = now
        for p, s, e in self._actions:
            if p == port:
                if e > t:
                    t = e
            else:
                r = s + (1.0 - self._overlap) * (e - s)
                if r > t:
                    t = r
        return t

    def occupy(self, port: int, start: float, end: float) -> None:
        acts = self._actions
        if acts:
            self._actions = acts = [a for a in acts if a[2] > start + _EPS]
        acts.append((port, start, end))


class PortAdmission:
    """Per-node channel capacity plus per-link serialization.

    The kernel asks :meth:`earliest_start` for the first instant a
    transfer may begin and :meth:`occupy` to commit it.  Channels are
    created lazily per node, exactly like the engine's channel maps, so
    untouched nodes cost nothing.
    """

    def __init__(self, port_model: PortModel, overlap: float):
        self._half = port_model.half_duplex
        self._allport = port_model is PortModel.ALL_PORT
        self._overlap = overlap
        self._send: dict[int, Channel] = {}
        self._recv: dict[int, Channel] = {}
        self.link_free: dict[tuple[int, int], float] = {}

    @property
    def all_port(self) -> bool:
        return self._allport

    def send_channel(self, node: int) -> Channel:
        ch = self._send.get(node)
        if ch is None:
            ch = Channel(self._overlap)
            self._send[node] = ch
            if self._half:
                self._recv[node] = ch  # one transceiver for both directions
        return ch

    def recv_channel(self, node: int) -> Channel:
        ch = self._recv.get(node)
        if ch is None:
            if self._half:
                ch = self.send_channel(node)
            else:
                ch = Channel(self._overlap)
                self._recv[node] = ch
        return ch

    def earliest_start(self, src: int, dst: int, port: int, now: float) -> float:
        start = now
        if not self._allport:
            ch = self._send.get(src)
            if ch is None:
                ch = self.send_channel(src)
            s = ch.earliest_start(port, now)
            if s > start:
                start = s
            ch = self._recv.get(dst)
            if ch is None:
                ch = self.recv_channel(dst)
            s = ch.earliest_start(port, now)
            if s > start:
                start = s
        lf = self.link_free.get((src, dst))
        if lf is not None and lf > start:
            start = lf
        return start

    def block(self, key: Key, src: int, dst: int) -> None:
        """Register a deferred send for the dirty-channel sweep."""
        if not self._allport:
            ch = self._send.get(src)
            if ch is None:
                ch = self.send_channel(src)
            ch.blocked.add(key)
            ch = self._recv.get(dst)
            if ch is None:
                ch = self.recv_channel(dst)
            ch.blocked.add(key)

    def occupy(
        self, key: Key, src: int, dst: int, port: int, start: float, end: float
    ) -> list[Channel]:
        """Commit ``[start, end)``; returns the channels dirtied."""
        self.link_free[(src, dst)] = end
        if self._allport:
            return []
        sch = self.send_channel(src)
        rch = self.recv_channel(dst)
        sch.occupy(port, start, end)
        rch.occupy(port, start, end)
        sch.blocked.discard(key)
        rch.blocked.discard(key)
        return [sch, rch]
