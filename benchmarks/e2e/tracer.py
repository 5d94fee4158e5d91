"""Spans recorded from outside the program, by rebinding its callables.

Nothing under ``src/`` knows about this tracer.  :meth:`Tracer.wrap`
turns a public callable into one that opens a span around every call;
:func:`rebind_function` and :func:`rebind_method` put the wrapper where
the program will find it (every ``repro.*`` module that imported the
function by name, or the class attribute) for the rest of the process;
every traced run is its own process.  Spans stay in memory — a flat
``array`` of six integers each — and are written out only when the run
ends.

A span's *self* time is its duration minus the time its child spans
covered, so the self times of all spans under one root add up to the
root's duration exactly.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from array import array
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Tuple)

#: Integers per recorded span: index, name id, start ns, end ns,
#: parent index (-1 for a root), op id.
SPAN_FIELDS = 6

#: Rows pulled from a wrapped generator per ``datasets.build`` span.  One
#: span per row would cost more than producing the row does.
GENERATOR_CHUNK = 4096

ResultHook = Callable[[Tuple[Any, ...], Any], None]


class Tracer:
    """Span stack, per-name call and self-time totals, and the span log."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.calls: List[int] = []
        self.self_ns: List[int] = []
        self.root_ns = 0
        self.spans = array("q")
        self._child_ns: List[int] = []
        self._current = -1
        self._next_index = 0
        self.op = 0
        #: Wrappers record only while this is set; the harness sets it
        #: around timed slices so set-up and verification leave no spans.
        self.active = False
        #: Whether closed spans go to the span log.  Totals are always
        #: kept; the harness logs the first traced unit only, since
        #: later units repeat it and a log of all of them runs to
        #: hundreds of MB.
        self.logging = True

    # -- recording -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return nid

    def wrap(self, fn: Callable[..., Any], name: str,
             on_result: Optional[ResultHook] = None,
             starts_op: bool = False) -> Callable[..., Any]:
        """``fn`` with a ``name`` span around every call.

        ``on_result(args, result)`` runs after a call that returned (not
        one that raised), inside the span, so counts are taken where the
        work happens.  ``starts_op`` makes every call open a new op: the
        span and everything under or after it carry the new op id.
        """
        nid = self.name_id(name)
        now = time.perf_counter_ns
        child_ns = self._child_ns
        calls = self.calls
        self_ns = self.self_ns
        extend = self.spans.extend

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            if starts_op:
                self.op += 1
            parent = self._current
            index = self._next_index
            self._next_index = index + 1
            self._current = index
            child_ns.append(0)
            start = now()
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(args, result)
                return result
            finally:
                end = now()
                duration = end - start
                calls[nid] += 1
                self_ns[nid] += duration - child_ns.pop()
                if child_ns:
                    child_ns[-1] += duration
                else:
                    self.root_ns += duration
                self._current = parent
                if self.logging:
                    extend((index, nid, start, end, parent, self.op))

        return traced

    def wrap_generator(self, fn: Callable[..., Iterable[Any]],
                       name: str) -> Callable[..., Iterator[Any]]:
        """A generator function whose production time becomes spans.

        The consumer still sees the same items in the same order; they
        are pulled from the real generator :data:`GENERATOR_CHUNK` at a
        time inside one ``name`` span, so the producer's time is charged
        to ``name`` and not to whoever iterates.
        """
        pull = self.wrap(lambda it: list(itertools.islice(
            it, GENERATOR_CHUNK)), name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            inner = iter(fn(*args, **kwargs))
            while True:
                chunk = pull(inner)
                if not chunk:
                    return
                yield from chunk

        return traced

    def take(self) -> Tuple[Dict[str, Tuple[int, int]], int]:
        """Totals since the last take: ``{name: (calls, self ns)}`` and
        the summed duration of root spans; resets both."""
        totals = {name: (self.calls[nid], self.self_ns[nid])
                  for nid, name in enumerate(self.names)
                  if self.calls[nid]}
        root_ns = self.root_ns
        for nid in range(len(self.names)):
            self.calls[nid] = 0
            self.self_ns[nid] = 0
        self.root_ns = 0
        return totals, root_ns

    # -- installing ----------------------------------------------------------

    def rebind_function(self, fn: Callable[..., Any],
                        wrapper: Callable[..., Any]) -> int:
        """Replace ``fn`` by ``wrapper`` in every loaded ``repro`` module.

        A function imported by name (``from ..dnslib import
        encode_message``) is a separate binding in the importing module;
        scanning module namespaces for the function object finds them
        all, including ones added after this harness was written.
        Returns how many bindings were replaced.
        """
        count = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro"
                                      or mod_name.startswith("repro.")):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is fn:
                    namespace[attr] = wrapper
                    count += 1
        if count == 0:
            raise LookupError(f"{fn!r} is not bound in any repro module")
        return count

    def rebind_method(self, cls: type, attr: str,
                      wrapper: Callable[..., Any]) -> None:
        """Replace ``cls.attr`` (which ``cls`` itself must define)."""
        if attr not in vars(cls):
            raise LookupError(f"{cls.__qualname__} does not define {attr}")
        setattr(cls, attr, wrapper)

    # -- output --------------------------------------------------------------

    def write_spans(self, path: str, workload: str) -> int:
        """One JSON object per span; returns how many were written."""
        spans = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            for base in range(0, len(spans), SPAN_FIELDS):
                index, nid, start, end, parent, op = \
                    spans[base:base + SPAN_FIELDS]
                fh.write(json.dumps(
                    {"workload": workload, "span": index,
                     "name": self.names[nid], "start_ns": start,
                     "end_ns": end, "parent": parent, "op": op},
                    separators=(",", ":")) + "\n")
        return len(spans) // SPAN_FIELDS
