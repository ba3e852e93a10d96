"""In-memory span tracer for the traced benchmark run.

The traced run wraps the public calls into each layer of the ``repro``
package from this directory only: the program itself is not edited.
Every wrapped call records one span ``(name, layer, start, end,
parent, thread)``; a span's *self time* is its duration minus the
durations of the spans it caused on the same thread.  Because every
span's self time is counted once, the per-layer self times plus the
self time of the root spans (the ``unattributed`` row) sum exactly to
the traced wall time.

Root spans mark the threads the benchmark owns (its main thread and
its client threads) for the whole traced window; threads the program
owns (the daemon's ingest thread, HTTP handler threads) contribute
only the time they spend inside wrapped calls.  On a single-threaded
workload the ledger therefore sums to wall time; on ``serve`` it sums
to thread-seconds.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Ledger rows, in print order: one per layer of the program, the
#: benchmark's deliberate waits, and what no wrapped call covers.
LAYERS = (
    "traffic",
    "flowkeys",
    "engine",
    "parallel",
    "merging",
    "serialize",
    "service",
    "query",
    "sql",
    "http",
    "control",
    "obs",
    "idle",
    "unattributed",
)

# Span record fields (lists, not objects: the tracer sits on hot paths).
NAME, LAYER, START, END, PARENT, THREAD, CHILD_S = range(7)


def _sizes_arg(args, kwargs, index):
    sizes = kwargs.get("sizes", args[index] if len(args) > index else None)
    return len(sizes) if sizes is not None else 0


def _engine_note(tracer, args, kwargs, result, before):
    sketch = args[0]
    tracer.add("engine.packets", _sizes_arg(args, kwargs, 3))
    stats = getattr(sketch, "stats", None)
    if stats is not None and before is not None:
        tracer.add("engine.replacements", stats.replacements - before)


def _engine_before(args):
    stats = getattr(args[0], "stats", None)
    return stats.replacements if stats is not None else None


def _send_note(tracer, args, kwargs, result, before):
    driver, _shard, hi, lo, sizes = args[:5]
    if not driver.inline:
        tracer.add("parallel.send_bytes", hi.nbytes + lo.nbytes + sizes.nbytes)


def _partition_note(tracer, args, kwargs, result, before):
    for shard, (_hi, _lo, sizes) in enumerate(result):
        tracer.add(f"parallel.shard.{shard}.packets", len(sizes))


def _dump_note(tracer, args, kwargs, result, before):
    tracer.add("serialize.bytes", len(result))


def _load_note(tracer, args, kwargs, result, before):
    tracer.add("serialize.bytes", len(args[0]))


def _count(counter: str):
    def note(tracer, args, kwargs, result, before):
        tracer.add(counter, 1)

    return note


#: (module, attribute path, layer, span name, note hook, before hook).
#: Module-level functions are also re-bound in every ``repro`` module
#: that imported them by name; methods are patched on their class.
TARGETS = (
    ("repro.traffic.synthetic", "caida_like", "traffic", "traffic.generate"),
    ("repro.traffic.synthetic", "mawi_like", "traffic", "traffic.generate"),
    ("repro.flowkeys.columns", "pack_key_columns", "flowkeys", "flowkeys.pack"),
    (
        "repro.engine.vectorized",
        "_ColumnarKeyValueSketch.process_columns",
        "engine",
        "engine.process_columns",
        _engine_note,
        _engine_before,
    ),
    (
        "repro.engine.sharded",
        "partition_columns",
        "parallel",
        "parallel.partition",
        _partition_note,
    ),
    ("repro.parallel", "StreamDriver.__init__", "parallel", "parallel.start"),
    ("repro.parallel", "StreamDriver.send", "parallel", "parallel.send", _send_note),
    ("repro.parallel", "StreamDriver.results", "parallel", "parallel.results_wait"),
    (
        "repro.extensions.merging",
        "merge_cocosketch",
        "merging",
        "merging.merge",
        _count("merging.merges"),
    ),
    ("repro.extensions.merging", "merge_many", "merging", "merging.merge_many"),
    ("repro.core.serialize", "dump_sketch", "serialize", "serialize.dump", _dump_note),
    ("repro.core.serialize", "load_sketch", "serialize", "serialize.load", _load_note),
    ("repro.service.daemon", "MeasurementDaemon.ingest", "service", "service.ingest"),
    ("repro.service.daemon", "MeasurementDaemon.offer", "service", "service.offer"),
    (
        "repro.service.daemon",
        "MeasurementDaemon.live_planner",
        "service",
        "service.live_view",
    ),
    (
        "repro.service.daemon",
        "MeasurementDaemon.epoch_planner",
        "service",
        "service.epoch_planner",
    ),
    (
        "repro.service.daemon",
        "MeasurementDaemon.range_planner",
        "service",
        "service.range_planner",
    ),
    (
        "repro.service.daemon",
        "MeasurementDaemon.packets_behind",
        "service",
        "service.packets_behind",
    ),
    ("repro.service.daemon", "EpochBuilder.close", "service", "service.epoch_close"),
    ("repro.query.planner", "QueryPlanner.table", "query", "query.table"),
    ("repro.query.columns", "ColumnTable.from_sketch", "query", "query.extract"),
    ("repro.query.columns", "ColumnTable.top_k", "query", "query.top_k"),
    ("repro.query.columns", "ColumnTable.threshold", "query", "query.threshold"),
    ("repro.query.slim", "SlimReplica.read", "query", "query.slim_read"),
    ("repro.core.sql", "parse_query", "sql", "sql.parse"),
    ("repro.core.sql", "run_query", "sql", "sql.run"),
    ("repro.service.http", "_Handler.do_GET", "http", "http.handler"),
    (
        "repro.control.governor",
        "ResourceGovernor.decide",
        "control",
        "control.decide",
    ),
    ("repro.obs.registry", "MetricsRegistry.snapshot", "obs", "obs.snapshot"),
    ("repro.obs.registry", "MetricsRegistry.merge_snapshot", "obs", "obs.merge"),
)


class Tracer:
    """Records spans around wrapped calls; turns them into a ledger."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._patches: List[tuple] = []
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = [name, layer, time.perf_counter(), 0.0, parent,
                  threading.get_ident(), 0.0]
        stack.append(record)
        return record

    def _close(self, record: list) -> None:
        record[END] = time.perf_counter()
        stack = self._stack()
        stack.pop()
        parent = record[PARENT]
        if parent is not None:
            parent[CHILD_S] += record[END] - record[START]
        self.spans.append(record)

    def span(self, name: str, layer: str) -> "_SpanContext":
        """Context manager recording one span on the current thread."""
        return _SpanContext(self, name, layer)

    def add(self, counter: str, value: float) -> None:
        with self._lock:
            self.counters[counter] += value

    # -- wrapping ------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        note: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> Callable:
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # Time each step of the generator, not its creation.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    record = tracer._open(name, layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(record)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            record = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(record)
            if note is not None:
                note(tracer, args, kwargs, result, state)
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Wrap every target; module-level names are re-bound everywhere."""
        for target in targets:
            module_name, path, layer, name = target[:4]
            note = target[4] if len(target) > 4 else None
            before = target[5] if len(target) > 5 else None
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(
                        self.wrap(original.__func__, name, layer, note, before)
                    )
                else:
                    wrapped = self.wrap(original, name, layer, note, before)
                self._patch(owner, attr, original, wrapped)
                continue
            original = getattr(module, path)
            wrapped = self.wrap(original, name, layer, note, before)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "repro" or mod is None:
                    continue
                if getattr(mod, path, None) is original:
                    self._patch(mod, path, original, wrapped)

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting -----------------------------------------------------

    def self_seconds(self, prefix: str) -> float:
        """Total self time of spans whose name starts with *prefix*."""
        return sum(
            s[END] - s[START] - s[CHILD_S]
            for s in self.spans
            if s[NAME].startswith(prefix)
        )

    def durations(self, name: str) -> List[float]:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def ledger(self) -> Dict[str, float]:
        """Self seconds per ledger row, plus ``total`` (wall or thread-s).

        Rows sum to ``total`` exactly: every top-level span's duration
        is split into its own self time and its descendants'.
        """
        rows = {layer: 0.0 for layer in LAYERS}
        total = 0.0
        for s in self.spans:
            dur = s[END] - s[START]
            rows[s[LAYER]] += dur - s[CHILD_S]
            if s[PARENT] is None:
                total += dur
        rows["total"] = total
        return rows

    def dump(self) -> List[dict]:
        """Spans as plain records (parent as an index), for writing out."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            {
                "name": s[NAME],
                "layer": s[LAYER],
                "start": s[START],
                "end": s[END],
                "parent": index.get(id(s[PARENT])) if s[PARENT] else None,
                "thread": s[THREAD],
            }
            for s in self.spans
        ]


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_layer", "_record")

    def __init__(self, tracer: Tracer, name: str, layer: str) -> None:
        self._tracer = tracer
        self._name = name
        self._layer = layer

    def __enter__(self):
        self._record = self._tracer._open(self._name, self._layer)
        return self

    def __exit__(self, *exc) -> None:
        self._tracer._close(self._record)


class NullTracer:
    """What untraced runs use: the same calls, no clock reads."""

    def span(self, name: str, layer: str) -> "_NullContext":
        return _NULL_CONTEXT


class _NullContext:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_CONTEXT = _NullContext()
