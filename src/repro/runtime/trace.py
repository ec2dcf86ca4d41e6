"""Structured per-packet traces of runtime executions.

Every executed transfer, fault hit, and receive-timeout becomes one
event record, in execution order.  Two export formats:

* **JSONL** — one JSON object per line; trivially greppable and
  streamable into pandas;
* **Chrome trace_event** — load the file at ``chrome://tracing`` (or
  Perfetto) to see the collective as a timeline: one process row per
  node, one thread row per port, one complete-event slice per
  transfer.  Virtual seconds are mapped to microseconds, the format's
  native unit.

The trace complements :class:`repro.sim.trace.LinkStats` (which the
runtime also reports per sending node): stats aggregate, the trace
keeps per-packet order and timing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

__all__ = ["TraceEvent", "RuntimeTrace"]


@dataclass(frozen=True)
class TraceEvent:
    """One runtime occurrence.

    ``kind`` is ``"transfer"``, ``"fault"``, or ``"timeout"``; unused
    fields are ``None``.
    """

    kind: str
    time: float
    src: int | None = None
    dst: int | None = None
    port: int | None = None
    end: float | None = None
    elems: int | None = None
    chunks: tuple = ()
    detail: tuple = ()

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind, "time": self.time}
        if self.src is not None:
            d["src"] = self.src
        if self.dst is not None:
            d["dst"] = self.dst
        if self.port is not None:
            d["port"] = self.port
        if self.end is not None:
            d["end"] = self.end
        if self.elems is not None:
            d["elems"] = self.elems
        if self.chunks:
            d["chunks"] = [repr(c) for c in self.chunks]
        if self.detail:
            d["detail"] = list(self.detail)
        return d


@dataclass
class RuntimeTrace:
    """Ordered event log of one runtime execution."""

    events: list[TraceEvent] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    # -- recording (called by run_program) ----------------------------

    def add_transfer(
        self,
        src: int,
        dst: int,
        port: int,
        start: float,
        end: float,
        elems: int,
        chunks: frozenset,
    ) -> None:
        self.events.append(
            TraceEvent(
                kind="transfer",
                time=start,
                src=src,
                dst=dst,
                port=port,
                end=end,
                elems=elems,
                chunks=tuple(sorted(chunks, key=repr)),
            )
        )

    def add_fault(
        self, src: int, dst: int, time: float, kind: str, subject
    ) -> None:
        self.events.append(
            TraceEvent(
                kind="fault",
                time=time,
                src=src,
                dst=dst,
                detail=(kind, repr(subject)),
            )
        )

    def add_timeout(self, time: float, nodes: list[int]) -> None:
        self.events.append(
            TraceEvent(kind="timeout", time=time, detail=tuple(nodes))
        )

    # -- views ---------------------------------------------------------

    def transfers(self) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == "transfer"]

    # -- exports -------------------------------------------------------

    def to_jsonl(self) -> str:
        """One compact JSON object per event, in recording order."""
        return "\n".join(
            json.dumps(e.to_dict(), separators=(",", ":"))
            for e in self.events
        )

    def write_jsonl(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_jsonl() + "\n")
        return path

    def chrome_events(self, scale: float = 1e6) -> list[dict]:
        """``trace_event`` records: pid = sending node, tid = port.

        ``scale`` converts virtual seconds to the format's
        microseconds; transfers become complete ("X") slices, faults
        and timeouts instant ("i") markers.
        """
        out: list[dict] = []
        for e in self.events:
            if e.kind == "transfer":
                out.append(
                    {
                        "name": f"{e.src}->{e.dst}",
                        "cat": "transfer",
                        "ph": "X",
                        "ts": e.time * scale,
                        "dur": (e.end - e.time) * scale,
                        "pid": e.src,
                        "tid": e.port,
                        "args": {
                            "elems": e.elems,
                            "chunks": [repr(c) for c in e.chunks],
                        },
                    }
                )
            else:
                out.append(
                    {
                        "name": e.kind,
                        "cat": e.kind,
                        "ph": "i",
                        "s": "g",
                        "ts": e.time * scale,
                        "pid": e.src if e.src is not None else 0,
                        "tid": 0,
                        "args": {"detail": list(e.detail)},
                    }
                )
        return out

    def write_chrome(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(
            json.dumps({"traceEvents": self.chrome_events()})
        )
        return path

