"""Engine selection: one production engine plus a reference oracle.

Two interchangeable async engines execute the same
:class:`~repro.sim.schedule.Schedule` contract:

* ``"vectorized"`` — the array-core engine
  (:func:`repro.sim.vectorized.run_async_vectorized`, exported as
  :func:`repro.sim.run_async`); the default and the only production
  engine.  It lowers the schedule to flat NumPy tables once and admits
  transfers from one program-order ready queue per directed link.
* ``"reference"`` — the deliberately naive oracle
  (:func:`repro.sim._engine_reference.run_async_reference`), kept for
  differential debugging.  Note its ``start_times`` are in completion
  order, not sorted; callers comparing against it must sort.

:func:`resolve_engine` turns ``None`` into the process-wide default
(the ``REPRO_ENGINE`` environment variable, else ``"vectorized"``),
which is also how the sweep executor's worker processes inherit an
engine choice without threading a parameter through every experiment
function.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

__all__ = ["ENGINES", "get_engine", "resolve_engine"]

#: Recognized engine names, default first.
ENGINES = ("vectorized", "reference")


def resolve_engine(engine: str | None = None) -> str:
    """Validate ``engine``, defaulting to ``REPRO_ENGINE`` or ``"vectorized"``.

    Raises:
        ValueError: if the name (explicit or from the environment) is
            not one of :data:`ENGINES`.
    """
    if engine is None:
        engine = os.environ.get("REPRO_ENGINE") or "vectorized"
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}"
        )
    return engine


def get_engine(engine: str | None = None) -> Callable[..., Any]:
    """Return the ``run_async``-compatible runner for ``engine``."""
    if resolve_engine(engine) == "reference":
        from repro.sim._engine_reference import run_async_reference

        return run_async_reference
    from repro.sim.vectorized import run_async_vectorized

    return run_async_vectorized
