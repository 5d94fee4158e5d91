"""Process-local metrics: named counters, gauges and histograms.

The registry is the metrics analogue of
:class:`~repro.analysis.cache_sim.ReplayPartial`: every instrument's
state is a plain mapping of label tuples to numbers whose merge is
field-wise addition (or max, for high-watermark gauges), so per-shard
registries combine associatively, commutatively and with an all-zero
identity — shard order, completion order and worker count can never
change the merged totals.  The algebra is pinned by
``tests/test_obs.py`` exactly like the ``ReplayPartial`` algebra is
pinned by ``tests/test_engine_merge.py``.

Activation is explicit and out-of-band: :func:`swap` is the slot's one
setter, instrumented code reads the module-level :data:`ACTIVE` slot and
does nothing when it is ``None`` (one global load and an ``is not None``
test), so a disabled registry costs effectively zero on hot paths and
experiment outputs are byte-identical with metrics on or off.
Everything here is stdlib-only and picklable, so shard registries cross
process-pool boundaries as ordinary return values.
"""

from __future__ import annotations

import bisect
from typing import (Any, Dict, List, Optional, Sequence, Tuple, Type,
                    TypeVar, Union)

LabelKey = Tuple[str, ...]

#: One histogram label-state: ``[counts, sum, count]``.  A plain
#: mutable list (not a dataclass) so states pickle small and merge fast;
#: the heterogeneous slots force ``Any`` element typing.
HistogramState = List[Any]

#: Default histogram buckets (upper bounds, ms-friendly); ``+Inf`` is
#: implicit — the per-label state keeps one overflow slot past the list.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0)


class Counter:
    """A monotonically increasing sum, optionally split by labels."""

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()  # repro-lint: disable=RS007 (_get_or_create passes it)
                 ) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, *labelvalues: str) -> None:
        """Add ``amount`` under the given label values (positional)."""
        if amount < 0:
            raise ValueError("counters only go up")
        key = labelvalues
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, *labelvalues: str) -> float:
        return self._values.get(labelvalues, 0.0)

    def samples(self) -> Dict[LabelKey, float]:
        """Label tuple -> value (a live view; copy before mutating)."""
        return self._values

    # name/help/labelnames are identity, not state: merge_from is only
    # reached for instruments the registry already matched by identity.
    def merge_from(self, other: "Counter") -> None:  # repro-lint: disable=RS002
        for key, value in other._values.copy().items():
            self._values[key] = self._values.get(key, 0.0) + value


class Gauge:
    """A point-in-time value with a declared shard-merge mode.

    ``mode="sum"`` suits quantities that partition across shards
    (disjoint shard caches sum into the aggregate occupancy, exactly as
    ``ReplayPartial`` peak sizes do); ``mode="max"`` suits global high
    watermarks.  Both merges are associative and commutative with
    identity 0 for the non-negative values tracked here.
    """

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = (),  # repro-lint: disable=RS007 (_get_or_create passes it)
                 mode: str = "sum") -> None:
        if mode not in ("sum", "max"):
            raise ValueError(f"unknown gauge merge mode {mode!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self.mode = mode
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, *labelvalues: str) -> None:
        self._values[labelvalues] = float(value)

    def set_max(self, value: float, *labelvalues: str) -> None:
        """Raise the gauge to ``value`` if it is higher (high watermark)."""
        key = labelvalues
        current = self._values.get(key)
        if current is None or value > current:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, *labelvalues: str) -> None:
        key = labelvalues
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, *labelvalues: str) -> float:
        return self._values.get(labelvalues, 0.0)

    def samples(self) -> Dict[LabelKey, float]:
        return self._values

    # name/help/labelnames are identity, not state (see Counter.merge_from).
    def merge_from(self, other: "Gauge") -> None:  # repro-lint: disable=RS002
        for key, value in other._values.copy().items():
            current = self._values.get(key)
            if current is None:
                self._values[key] = value
            elif self.mode == "sum":
                self._values[key] = current + value
            else:
                self._values[key] = max(current, value)


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    Per label tuple the state is ``(counts, sum, count)`` where
    ``counts`` has one slot per declared upper bound plus the
    implicit ``+Inf`` overflow slot.  Merging adds everything
    element-wise, which requires both sides to declare identical
    buckets.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = (),  # repro-lint: disable=RS007 (_get_or_create passes it)
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("a histogram needs at least one bucket bound")
        self._states: Dict[LabelKey, HistogramState] = {}

    def _state(self, key: LabelKey) -> HistogramState:
        state = self._states.get(key)
        if state is None:
            state = [[0] * (len(self.buckets) + 1), 0.0, 0]
            self._states[key] = state
        return state

    def observe(self, value: float, *labelvalues: str) -> None:
        state = self._state(labelvalues)
        state[0][bisect.bisect_left(self.buckets, value)] += 1
        state[1] += value
        state[2] += 1

    def count(self, *labelvalues: str) -> int:
        state = self._states.get(labelvalues)
        return int(state[2]) if state else 0

    def sum(self, *labelvalues: str) -> float:
        state = self._states.get(labelvalues)
        return float(state[1]) if state else 0.0

    def samples(self) -> Dict[LabelKey, HistogramState]:
        return self._states

    # help/labelnames are identity, not state (see Counter.merge_from);
    # buckets ARE state-bearing and are checked below.
    def merge_from(self, other: "Histogram") -> None:  # repro-lint: disable=RS002
        if other.buckets != self.buckets:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket bounds "
                f"{other.buckets} != {self.buckets}")
        for key, (counts, total, _) in other._states.copy().items():
            counts = counts.copy()
            state = self._state(key)
            state[0] = [a + b for a, b in zip(state[0], counts)]
            state[1] += total
            state[2] += sum(counts)


#: Union of every instrument kind a registry can hold.
AnyInstrument = Union[Counter, Gauge, Histogram]

#: isinstance()-friendly tuple of the instrument classes.
Instrument = (Counter, Gauge, Histogram)

#: Value-restricted type for get-or-create dispatch.
_I = TypeVar("_I", Counter, Gauge, Histogram)


class MetricsRegistry:
    """Named instruments with get-or-create semantics and shard merging.

    ``counter``/``gauge``/``histogram`` return the existing instrument
    when the name is already registered (the declared kind must match),
    so instrumented code never needs registration ceremony — shard
    workers and the parent process materialize the same instruments on
    first use.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, AnyInstrument] = {}

    # -- registration -------------------------------------------------------

    def _get_or_create(self, cls: Type[_I], name: str, *args: Any,
                       **kwargs: Any) -> _I:
        instrument = self._instruments.get(name)
        if instrument is not None:
            if not isinstance(instrument, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not {cls.__name__}")
            return instrument
        instrument = cls(name, *args, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = (), mode: str = "sum") -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames, mode)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames, buckets)

    # -- inspection ---------------------------------------------------------

    def get(self, name: str) -> Optional[AnyInstrument]:
        return self._instruments.get(name)

    def instruments(self) -> List[AnyInstrument]:
        """Instruments sorted by name (deterministic export order)."""
        return [self._instruments[name]
                for name in sorted(self._instruments)]

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    # -- merging ------------------------------------------------------------

    def merge_from(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other``'s samples into this registry (in place).

        Instruments missing on this side are created with the other
        side's declaration; shared instruments merge value-wise.
        Returns ``self`` for chaining.

        Safe while one other thread increments ``other`` (a scrape
        copies the command's registry so): each mapping and bucket list
        is copied in one GIL-atomic call before it is read, and a
        histogram's count is taken from its copied buckets.
        """
        for name, theirs in other._instruments.copy().items():
            # get-or-create ignores the declaration args for an existing
            # instrument (and raises on a kind clash), so dispatching on
            # the incoming kind covers both the fresh and shared cases.
            if isinstance(theirs, Counter):
                self.counter(name, theirs.help,
                             theirs.labelnames).merge_from(theirs)
            elif isinstance(theirs, Gauge):
                self.gauge(name, theirs.help, theirs.labelnames,
                           theirs.mode).merge_from(theirs)
            else:
                self.histogram(name, theirs.help, theirs.labelnames,
                               theirs.buckets).merge_from(theirs)
        return self

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Pure merge: a new registry holding the combined samples."""
        return MetricsRegistry().merge_from(self).merge_from(other)


# ---------------------------------------------------------------------------
# activation: the process-wide current registry

#: The active registry, or ``None`` when metrics are disabled.  Hot-path
#: guards read this slot directly (``metrics.ACTIVE is not None``) so the
#: disabled cost is one attribute load per instrumented operation.
ACTIVE: Optional[MetricsRegistry] = None


def swap(registry: Optional[MetricsRegistry]
         ) -> Optional[MetricsRegistry]:
    """Install ``registry`` (possibly ``None``), returning the previous one.

    The shard executor uses this to give each shard its own registry and
    restore the parent's afterwards, so inline (``workers=1``) and pooled
    execution produce identical per-shard snapshots.
    """
    global ACTIVE
    previous, ACTIVE = ACTIVE, registry
    return previous
