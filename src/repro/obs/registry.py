"""Zero-dependency metrics registry: counters, gauges, histograms.

One process owns one :data:`REGISTRY` (module-level default, same
per-process semantics as the cache registry it now backs): instruments
are *families* registered under a unique name, and a family fans out
into labeled *series* — ``counter.labels(cache="trees", op="hit")`` —
each holding one value.  The registry is deliberately tiny and
dependency-free so the simulation engines, the distributed runtime, the
cache layer, and the sweep executor can all report through it without
pulling anything into their hot paths.

Cost model (the layer's contract):

* A **disabled** registry costs one dict lookup: ``family.labels(...)``
  resolves (and caches) the series, and the series mutator returns
  after a single flag check.  Nothing allocates per call once a series
  exists.
* An **enabled** counter increment is a flag check plus an integer
  add.  The heavy subsystems go further and accumulate into local
  variables, flushing one registry update per *run* (see
  :mod:`repro.obs.instruments`), so enabling metrics keeps full runs
  within noise of the benchmark baselines.

Instruments created with ``always=True`` keep counting while the
registry is disabled.  The cache layer uses this: its hit/miss counters
double as functional API (``repro.cache.cache_stats()``), so they must
not stop when telemetry is switched off.

Enablement follows the ``REPRO_OBS`` environment variable (``0`` /
``off`` / ``false`` / ``no`` disable; default enabled), snapshotted at
import; :func:`MetricsRegistry.configure` changes it afterwards.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Iterator, Mapping, Sequence

__all__ = [
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsError",
    "DEFAULT_BUCKETS",
]

#: default histogram buckets — timing-oriented (seconds), spanning
#: microsecond schedule lookups to multi-second full-figure sweeps
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


class ObsError(ValueError):
    """An instrument was registered or used inconsistently."""


def _env_enabled() -> bool:
    value = os.environ.get("REPRO_OBS", "1").strip().lower()
    return value not in ("0", "off", "false", "no")


class _Series:
    """One labeled time series of a family (the value holder)."""

    __slots__ = ("_registry", "_always", "labels")

    def __init__(
        self,
        registry: "MetricsRegistry",
        labels: Mapping[str, str],
        always: bool,
    ):
        self._registry = registry
        self._always = always
        #: the label key/value mapping identifying this series
        self.labels = dict(labels)

    def _active(self) -> bool:
        return self._registry._enabled or self._always


class CounterSeries(_Series):
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self, registry, labels, always):
        super().__init__(registry, labels, always)
        self.value: int | float = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (>= 0) to the series."""
        if amount < 0:
            raise ObsError(f"counters only go up, got inc({amount})")
        if self._registry._enabled or self._always:
            self.value += amount

    def reset(self) -> None:
        """Zero the series (tests, per-cache reinitialization)."""
        self.value = 0


class GaugeSeries(_Series):
    """A value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self, registry, labels, always):
        super().__init__(registry, labels, always)
        self.value: int | float = 0

    def set(self, value: int | float) -> None:
        """Set the series to ``value``."""
        if self._registry._enabled or self._always:
            self.value = value

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (may be negative)."""
        if self._registry._enabled or self._always:
            self.value += amount

    def dec(self, amount: int | float = 1) -> None:
        """Subtract ``amount``."""
        self.inc(-amount)

    def reset(self) -> None:
        """Zero the series."""
        self.value = 0


class HistogramSeries(_Series):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    __slots__ = ("_uppers", "bucket_counts", "sum", "count")

    def __init__(self, registry, labels, always, uppers: Sequence[float]):
        super().__init__(registry, labels, always)
        self._uppers = uppers
        self.bucket_counts = [0] * (len(uppers) + 1)  # last = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        if not (self._registry._enabled or self._always):
            return
        self.bucket_counts[bisect_left(self._uppers, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at +Inf."""
        out = []
        running = 0
        for upper, n in zip(self._uppers, self.bucket_counts):
            running += n
            out.append((upper, running))
        out.append((float("inf"), running + self.bucket_counts[-1]))
        return out

    def reset(self) -> None:
        """Zero counts and sum."""
        self.bucket_counts = [0] * (len(self._uppers) + 1)
        self.sum = 0.0
        self.count = 0


class _Family:
    """A named instrument fanning out into labeled series."""

    kind = "untyped"
    _series_cls: type = _Series

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labelnames: tuple[str, ...],
        always: bool,
    ):
        self._registry = registry
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self.always = always
        self._series: dict[tuple[str, ...], Any] = {}

    def _make_series(self, labels: Mapping[str, str]) -> Any:
        return self._series_cls(self._registry, labels, self.always)

    def labels(self, **labelvalues: object) -> Any:
        """The series for these label values (created on first use)."""
        if tuple(sorted(labelvalues)) != tuple(sorted(self.labelnames)):
            raise ObsError(
                f"{self.name} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[n]) for n in self.labelnames)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = self._make_series(
                dict(zip(self.labelnames, key))
            )
        return series

    def _unlabeled(self) -> Any:
        if self.labelnames:
            raise ObsError(
                f"{self.name} is labeled {self.labelnames}; use .labels(...)"
            )
        return self.labels()

    def series(self) -> Iterator[Any]:
        """All live series of this family, in creation order."""
        return iter(self._series.values())

    def reset(self) -> None:
        """Zero every series of the family."""
        for series in self._series.values():
            series.reset()


class Counter(_Family):
    """A family of monotonically increasing counts."""

    kind = "counter"
    _series_cls = CounterSeries

    def inc(self, amount: int | float = 1) -> None:
        """Increment the unlabeled series (label-less families only)."""
        self._unlabeled().inc(amount)

    @property
    def value(self) -> int | float:
        """Sum over all series of the family."""
        return sum(s.value for s in self._series.values())


class Gauge(_Family):
    """A family of set-able values."""

    kind = "gauge"
    _series_cls = GaugeSeries

    def set(self, value: int | float) -> None:
        """Set the unlabeled series (label-less families only)."""
        self._unlabeled().set(value)

    def inc(self, amount: int | float = 1) -> None:
        """Increment the unlabeled series."""
        self._unlabeled().inc(amount)

    def dec(self, amount: int | float = 1) -> None:
        """Decrement the unlabeled series."""
        self._unlabeled().dec(amount)

    @property
    def value(self) -> int | float:
        """Sum over all series of the family."""
        return sum(s.value for s in self._series.values())


class Histogram(_Family):
    """A family of cumulative-bucket histograms."""

    kind = "histogram"
    _series_cls = HistogramSeries

    def __init__(self, registry, name, help, labelnames, always, buckets):
        uppers = tuple(sorted(buckets))
        if not uppers:
            raise ObsError(f"{name}: a histogram needs at least one bucket")
        self.buckets = uppers
        super().__init__(registry, name, help, labelnames, always)

    def _make_series(self, labels: Mapping[str, str]) -> HistogramSeries:
        return HistogramSeries(self._registry, labels, self.always, self.buckets)

    def observe(self, value: float) -> None:
        """Observe into the unlabeled series (label-less families only)."""
        self._unlabeled().observe(value)


class MetricsRegistry:
    """A process-local collection of metric families.

    Args:
        enabled: initial state; ``None`` (default) follows the
            ``REPRO_OBS`` environment variable.
    """

    def __init__(self, enabled: bool | None = None):
        self._enabled = _env_enabled() if enabled is None else bool(enabled)
        self._families: dict[str, _Family] = {}

    # -- instrument factories -----------------------------------------

    def _register(self, cls: type, name: str, help: str, labelnames, always,
                  **kwargs) -> Any:
        labelnames = tuple(labelnames)
        existing = self._families.get(name)
        if existing is not None:
            if type(existing) is not cls or existing.labelnames != labelnames:
                raise ObsError(
                    f"{name} already registered as {existing.kind} with "
                    f"labels {existing.labelnames}"
                )
            return existing
        if cls is Histogram:
            buckets = kwargs.get("buckets")
            if buckets is None:
                buckets = DEFAULT_BUCKETS
            family = Histogram(self, name, help, labelnames, always, buckets)
        else:
            family = cls(self, name, help, labelnames, always)
        self._families[name] = family
        return family

    def counter(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        *,
        always: bool = False,
    ) -> Counter:
        """Register (or fetch) a counter family named ``name``."""
        return self._register(Counter, name, help, labelnames, always)

    def gauge(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        *,
        always: bool = False,
    ) -> Gauge:
        """Register (or fetch) a gauge family named ``name``."""
        return self._register(Gauge, name, help, labelnames, always)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        *,
        buckets: Sequence[float] | None = None,
        always: bool = False,
    ) -> Histogram:
        """Register (or fetch) a histogram family named ``name``."""
        return self._register(
            Histogram, name, help, labelnames, always, buckets=buckets
        )

    # -- state ---------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """True when non-``always`` instruments are recording."""
        return self._enabled

    def configure(self, enabled: bool | None = None, *, from_env: bool = False) -> bool:
        """Enable/disable recording."""
        if from_env:
            if enabled is not None:
                raise ValueError(
                    "pass either enabled=... or from_env=True, not both"
                )
            self._enabled = _env_enabled()
        else:
            if enabled is None:
                raise ValueError(
                    "configure() needs enabled=... or from_env=True"
                )
            self._enabled = bool(enabled)
        return self._enabled

    @contextmanager
    def disabled(self) -> Iterator[None]:
        """Suspend non-``always`` recording inside a ``with`` block."""
        prev = self._enabled
        self._enabled = False
        try:
            yield
        finally:
            self._enabled = prev

    # -- introspection -------------------------------------------------

    def collect(self) -> list[_Family]:
        """Every registered family, sorted by name."""
        return [self._families[n] for n in sorted(self._families)]

    def get(self, name: str) -> _Family | None:
        """The family registered under ``name``, or ``None``."""
        return self._families.get(name)

    def reset(self) -> None:
        """Zero every series of every family (counters included)."""
        for family in self._families.values():
            family.reset()

    def counter_values(self) -> dict[tuple[str, tuple[str, ...]], int | float]:
        """``(family name, label values) -> value`` for every counter
        series; the cheap snapshot the per-run delta collector diffs."""
        out: dict[tuple[str, tuple[str, ...]], int | float] = {}
        for family in self._families.values():
            if isinstance(family, Counter):
                for key, series in family._series.items():
                    out[(family.name, key)] = series.value
        return out


#: the process-wide default registry every built-in instrument lives in
REGISTRY = MetricsRegistry()
