"""The runtime's virtual clock: event heaps with instant coalescing.

This is the event engine's time-advance rule (:mod:`repro.sim.vectorized`,
pinned to the reference oracle) as a standalone heap-driven clock,
generalized from static transfer indices to dynamic priority keys (see
:mod:`repro.runtime.rules`).  Three event
kinds share one heap:

* **pure wakes** — transfer completions and overlap-release points;
  they never trigger work themselves but are valid instants for time
  to land on;
* **deliveries** — a completed transfer's payload reaching its
  destination actor; live events (the actor may submit new sends);
* **examinations** — a submitted send due for an admission attempt;
  live events, deduplicated per key by an earliest-pending marker.

All times within ``_EPS`` of each other form one *instant*; within an
instant, priority keys decide order, not the sub-epsilon float a
particular event happened to carry.  The clock serves one kernel in
one process: :meth:`VirtualClock.advance` opens the next instant and
:meth:`VirtualClock.pop_batch` hands out its examinations.  The
engine's equivalence suite (:mod:`repro.runtime.validate`) leans on
this file reproducing the engine's instant-representative selection
bit-for-bit.
"""

from __future__ import annotations

import heapq

__all__ = ["VirtualClock", "WAKE", "DELIVERY", "EXAM"]

_EPS = 1e-12

WAKE, DELIVERY, EXAM = 0, 1, 2

#: sentinel key for wake/delivery entries; sorts before every real key
_NO_KEY: tuple = ()


class VirtualClock:
    """Event-heap clock with the engine's pass/instant semantics."""

    def __init__(self) -> None:
        self.now = 0.0
        self.cur_pass = 0
        self.cur_key: tuple = _NO_KEY
        # future events: (time, pass, kind, key)
        self._events: list[tuple[float, int, int, tuple]] = []
        # current-instant examinations: (pass, key, time)
        self._batch: list[tuple[int, tuple, float]] = []
        # earliest pending examination per key (None = none pending)
        self._scheduled: dict[tuple, float | None] = {}
        self._done: set[tuple] = set()
        #: deliveries due at the opened instant (count popped by advance)
        self.due_deliveries = 0

    # -- bookkeeping -------------------------------------------------

    def mark_done(self, key: tuple) -> None:
        self._done.add(key)
        self._scheduled[key] = None

    def is_done(self, key: tuple) -> bool:
        return key in self._done

    @property
    def batch_empty(self) -> bool:
        return not self._batch

    # -- pushes ------------------------------------------------------

    def push_wake(self, te: float) -> None:
        heapq.heappush(self._events, (te, 0, WAKE, _NO_KEY))

    def push_delivery(self, te: float) -> None:
        heapq.heappush(self._events, (te, 0, DELIVERY, _NO_KEY))

    def push_exam(self, key: tuple, te: float) -> None:
        """Request an examination of ``key`` at ``te`` (deduplicated)."""
        sc = self._scheduled.get(key)
        if sc is not None and sc <= te + _EPS:
            return  # an examination no later than te is already pending
        self._scheduled[key] = te
        if te <= self.now + _EPS:
            # Same-instant re-examination: keys at or before the cursor
            # wait for the next pass (the engine's rescan), later keys
            # are picked up in the current pass.
            p = self.cur_pass if key > self.cur_key else self.cur_pass + 1
            heapq.heappush(self._batch, (p, key, te))
        else:
            heapq.heappush(self._events, (te, 0, EXAM, key))

    def push_submission(self, key: tuple) -> None:
        """Enter a send submitted *at the current instant* (a delivery
        just enabled it).  The engine's analog is the waiter
        examination pushed at the supplying transfer's end time with
        pass 0 — so pass 0 here, not the same-instant cursor rule.
        """
        sc = self._scheduled.get(key)
        if sc is not None and sc <= self.now + _EPS:
            return
        self._scheduled[key] = self.now
        heapq.heappush(self._batch, (0, key, self.now))

    # -- time advance ------------------------------------------------

    def advance(self) -> bool:
        """Advance ``now`` to the next instant with a live event.

        Fills the batch with every examination due at that instant and
        counts deliveries due in :attr:`due_deliveries`.  Returns
        ``False`` when no live event remains (the caller decides
        whether that is completion, starvation, or deadlock).  Pure
        wakes never trigger work, but when a live event falls within
        ``_EPS`` of the nearest wake, the wake's time is the instant's
        representative — exactly the engine's rule.
        """
        self.due_deliveries = 0
        events = self._events
        cand = None  # latest unresolved pure-wake time below the live event
        while events:
            te, p, kind, key = heapq.heappop(events)
            if kind == DELIVERY:
                self.due_deliveries += 1
                break
            if kind == EXAM and not self.is_done(key):
                sc = self._scheduled.get(key)
                if sc is not None and sc >= te - _EPS:
                    break  # a live examination
            # Superseded examinations and pure wakes are still instants
            # the engine would have visited: keep as rep candidates.
            if te <= self.now + _EPS:
                continue  # coalesced into the previous instant
            if cand is None or te > cand + _EPS:
                cand = te
        else:
            return False
        rep = cand if (cand is not None and te <= cand + _EPS) else te
        if rep > self.now + _EPS:
            self.now = rep
        if kind == EXAM:
            heapq.heappush(self._batch, (p, key, te))
        # Pull in every other event due at this same instant.
        while events and events[0][0] <= self.now + _EPS:
            te2, p2, kind2, key2 = heapq.heappop(events)
            if kind2 == DELIVERY:
                self.due_deliveries += 1
                continue
            if kind2 != EXAM or self.is_done(key2):
                continue
            sc = self._scheduled.get(key2)
            if sc is None or sc < te2 - _EPS:
                continue
            heapq.heappush(self._batch, (p2, key2, te2))
        return True

    def pop_batch(self) -> tuple[tuple, float] | None:
        """Next live examination of the open instant, in (pass, key)
        order, advancing the cursor; ``None`` when the instant is
        drained."""
        while self._batch:
            p, key, te = heapq.heappop(self._batch)
            if self.is_done(key):
                continue
            sc = self._scheduled.get(key)
            if sc is None or sc < te - _EPS:
                continue  # stale duplicate
            self._scheduled[key] = None
            self.cur_pass = p
            self.cur_key = key
            return key, te
        return None
