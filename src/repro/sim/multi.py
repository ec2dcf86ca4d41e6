"""Multi-schedule programs: several collectives merged on one cube.

The service layer (:mod:`repro.service`) runs a *stream* of collective
jobs concurrently on one shared hypercube.  The jobs join one
resumable engine run (:class:`~repro.service.exec.AdmissionRun`) laid
out as :func:`merge_programs` lays out a :class:`MergedProgram`, whose
chunk-tagged objects are built only when read:

* chunk ids are namespaced per job (``(tag, chunk)``) so two broadcasts
  both shipping ``("b", 0)`` never alias;
* the merged program order interleaves the jobs **round by round in the
  given entry order** — program order is contention priority in the
  event engines, so the entry order *is* the scheduling policy's
  priority ranking;
* every transfer records its owning entry (``owners``) — the per-job
  provenance the service uses to split one engine run back into
  per-job completion times, link traffic and delivery reports;
* each job's initially-held chunks carry a *release time* (its
  admission instant): the vectorized engine will not start any
  transfer of the job before it, which is how jobs arriving mid-stream
  enter an already-running cube.

Unlike :func:`repro.sim.schedule.merge_schedules` (which exists to be
re-packed into a new valid round structure), a merged program is meant
for the *event* engines, where rounds are priorities rather than
barriers: two jobs contending for one link simply serialize, exactly
like the paper's port-model admission rules demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

from repro.sim.lowering import LoweredSchedule
from repro.sim.onread import OnRead
from repro.sim.schedule import Chunk, Schedule, Transfer

__all__ = ["JobEntry", "MergedProgram", "merge_programs", "untag_holdings"]


@dataclass(frozen=True)
class JobEntry:
    """One job's contribution to a merged program.

    Attributes:
        tag: hashable job identity used to namespace its chunks (the
            service uses the job id).
        schedule: the job's own (untagged) routing schedule.
        initial: the job's initial holdings, untagged.
        release: earliest instant any transfer of the job may start
            (the service's admission time).
        lowering: the untagged lowering of ``schedule`` with
            ``initial`` (see :func:`repro.sim.lowering.lower_schedule`),
            or ``None`` to have it lowered on admission.  The service
            and the workload layer pass the cached one
            (:func:`repro.collectives.api.collective_program`).  It is
            not part of the entry's identity.
    """

    tag: Hashable
    schedule: Schedule
    initial: dict[int, set[Chunk]]
    release: float = 0.0
    lowering: LoweredSchedule | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.release < 0:
            raise ValueError(f"release time must be >= 0, got {self.release}")


_TAGGED = ("schedule", "initial", "release_times")


def _tagged(name: str):
    """Builder of tagged field ``name``; one merge sets all three."""

    def build(program: "MergedProgram"):
        merged = merge_programs(program.entries)
        vars(program).update({f: getattr(merged, f) for f in _TAGGED})
        return getattr(merged, name)

    return build


@dataclass
class MergedProgram(OnRead):
    """Several job schedules compiled into one engine-ready schedule.

    Attributes:
        schedule: the merged, chunk-tagged schedule (engine input).
        initial: merged, chunk-tagged initial holdings (engine input).
        release_times: tagged chunk -> availability instant of the
            initially-held copies (for
            :func:`repro.sim.lowering.lower_schedule`).
        owners: transfer index in ``schedule.all_transfers()`` program
            order -> position of the owning entry in ``entries``.
        entries: the input entries, in merged (priority) order.
    """

    schedule: Schedule
    initial: dict[int, set[Chunk]]
    release_times: dict[Chunk, float]
    owners: list[int]
    entries: list[JobEntry]

    # a program split from a resumable run (``on_read(owner_array,
    # entries=...)``): callers that only split the run never merge
    _builders = {
        "owners": lambda program: program._on_read.tolist(),
        **{name: _tagged(name) for name in _TAGGED},
    }

    @property
    def num_jobs(self) -> int:
        """Number of merged jobs."""
        return len(self.entries)


def merge_programs(entries: Sequence[JobEntry]) -> MergedProgram:
    """Compose job entries into one :class:`MergedProgram`.

    The rounds of all entries are zipped index by index (entry order
    within each round), so the flattened program order — the event
    engines' contention priority — ranks entry 0's round-``k``
    transfers ahead of entry 1's, for every ``k``.  Callers sort the
    entries by their policy's priority key first.
    """
    if not entries:
        raise ValueError("need at least one job entry to merge")
    tags = [e.tag for e in entries]
    if len(set(tags)) != len(tags):
        raise ValueError(f"job tags must be unique, got {tags}")

    chunk_sizes: dict[Chunk, int] = {}
    release_times: dict[Chunk, float] = {}
    initial: dict[int, set[Chunk]] = {}
    depth = max(e.schedule.num_rounds for e in entries)
    rounds: list[list[Transfer]] = [[] for _ in range(depth)]
    owner_rounds: list[list[int]] = [[] for _ in range(depth)]
    for pos, entry in enumerate(entries):
        tag = entry.tag
        for c, size in entry.schedule.chunk_sizes.items():
            chunk_sizes[(tag, c)] = size
        for node, chunks in entry.initial.items():
            held = initial.setdefault(node, set())
            for c in chunks:
                tagged = (tag, c)
                held.add(tagged)
                release_times[tagged] = entry.release
        for ri, r in enumerate(entry.schedule.rounds):
            for t in r:
                rounds[ri].append(
                    Transfer(t.src, t.dst, frozenset((tag, c) for c in t.chunks))
                )
                owner_rounds[ri].append(pos)
    merged = Schedule(
        rounds=[tuple(r) for r in rounds],
        chunk_sizes=chunk_sizes,
        algorithm="multi-job",
        meta={
            "merged_from": [e.schedule.algorithm for e in entries],
            "tags": list(tags),
        },
    )
    owners = [o for r in owner_rounds for o in r]
    return MergedProgram(
        schedule=merged,
        initial=initial,
        release_times=release_times,
        owners=owners,
        entries=list(entries),
    )


def untag_holdings(
    holdings: dict[int, set[Chunk]],
    tag: Hashable,
    nodes: Iterable[int] | None = None,
) -> dict[int, set[Chunk]]:
    """One job's view of merged holdings, with the namespace stripped.

    Returns ``{node: {chunk for (tag, chunk) held}}`` — exactly the
    holdings a standalone run of the job's own schedule would produce,
    which is what makes the single-job differential test bit-exact.
    """
    keys = holdings.keys() if nodes is None else nodes
    return {
        node: {c for t, c in holdings.get(node, set()) if t == tag}
        for node in keys
    }
