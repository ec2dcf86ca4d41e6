"""Admission-prefilter kernel for the vectorized event engine.

Two NumPy masks answer one question for a batch of candidate transfer
ids: *which candidates must the scalar admission loop examine at the
current instant?*  The filter is exact, not conservative, because the
engine maintains ``vc`` — the per-transfer constraint value — with an
invariant that makes the comparison lossless:

* a virgin (never-examined) transfer has ``vc = 0``, so it is kept the
  moment its payload is ready (its first exam parks it or starts it);
* a parked (examined-and-blocked) transfer's ``vc`` is its exact
  channel/link constraint, re-materialized by the engine's
  dirty-channel sweep before every time advance, so ``vc <= limit`` is
  precisely the reference's admission re-check (for the all-port model
  ``vc`` may lag *below* the true link constraint, which only costs a
  re-exam, never a wrong drop);
* an executed or faulted transfer has ``vc = inf`` and is never kept
  again.
"""

from __future__ import annotations

import numpy as np

__all__ = ["prefilter"]


def prefilter(
    idx: np.ndarray,
    ready: np.ndarray,
    vc: np.ndarray,
    limit: float,
) -> np.ndarray:
    """Candidate ids from ``idx`` requiring an exact exam at this instant."""
    sub = idx[ready[idx] <= limit]
    if sub.size == 0:
        return sub
    return sub[vc[sub] <= limit]
