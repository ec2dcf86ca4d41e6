"""The one event engine, looked up for span tracers.

Every collective runs its event simulation on
:func:`repro.sim.vectorized.run_async_vectorized`; there is no engine
choice.  :func:`get_engine` and :func:`resolve_engine` remain only as
the seam the end-to-end benchmark's tracer wraps to time the engine
inside a collective call.  Both go once the library emits its own
per-layer spans (ROADMAP item 2).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

__all__ = ["get_engine", "resolve_engine"]


def resolve_engine(engine: str | None = None) -> str:
    """Return ``"vectorized"``; any other explicit name raises ``ValueError``."""
    if engine not in (None, "vectorized"):
        raise ValueError(f"unknown engine {engine!r}; the only engine is 'vectorized'")
    return "vectorized"


def get_engine(engine: str | None = None) -> Callable[..., Any]:
    """Return :func:`~repro.sim.vectorized.run_async_vectorized`."""
    resolve_engine(engine)
    from repro.sim.vectorized import run_async_vectorized

    return run_async_vectorized
