"""Spans around the program's layers, recorded from the benchmark's side.

The program has no tracer of its own yet, so the benchmark wraps each
layer's functions where their caller looks the name up (for example
``repro.api.session.extend_interaction_graph``, not the defining module)
and records one span per call: name, start, end and the enclosing span.
Pool workers are forked from the benchmark process, so they inherit the
wrappers; a worker appends each finished top-level span tree to a JSONL
file in a spill directory, which the benchmark reads back after the pool
has closed.

All clocks are ``time.perf_counter``, which on Linux is the system-wide
monotonic clock, so worker and benchmark-process timestamps are comparable.
"""

from __future__ import annotations

import importlib
import itertools
import json
import multiprocessing
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable

#: (module, attribute path, span name, payload measure) for every layer
#: boundary the benchmark records.  A measure is applied to the wrapped
#: call's return value and stored on the span (bytes encoded for a write).
TARGETS: tuple[tuple[str, str, str, Callable[[Any], int] | None], ...] = (
    ("repro.api.session", "InterfaceSession.append", "api.append", None),
    ("repro.api.session", "InterfaceSession.append_batch", "api.append_batch", None),
    ("repro.api.session", "parse_sql", "sqlparser.parse", None),
    ("repro.api.stages", "parse_sql", "sqlparser.parse", None),
    ("repro.api.session", "extend_interaction_graph", "mine", None),
    ("repro.api.stages", "build_interaction_graph", "mine", None),
    ("repro.api.stages", "initialize_indexed", "map", None),
    ("repro.api.stages", "initialize", "map", None),
    ("repro.api.stages", "merge_widgets_incremental", "merge", None),
    ("repro.api.stages", "merge_widgets", "merge", None),
    ("repro.compiler.incremental", "IncrementalCompiler.compile", "compile", None),
    ("repro.cache.blockstore", "Segment.get", "store.read", None),
    ("repro.cache.store", "graph_from_jsonl_bytes", "store.decode", None),
    ("repro.cache.store", "widgets_from_json_bytes", "store.decode", None),
    ("repro.cache.store", "proofs_from_json_bytes", "store.decode", None),
    ("repro.cache.store", "diff_memo_from_json_bytes", "store.decode", None),
    ("repro.cache.store", "compiled_page_from_json_bytes", "store.decode", None),
    ("repro.cache.store", "GraphStore.save", "store.write", None),
    ("repro.cache.store", "GraphStore.save_widget_set", "store.write", None),
    ("repro.cache.store", "GraphStore.save_closure_proofs", "store.write", None),
    ("repro.cache.store", "GraphStore.save_diff_memo", "store.write", None),
    ("repro.cache.store", "GraphStore.save_compiled_page", "store.write", None),
    ("repro.cache.store", "graph_to_jsonl_bytes", "store.encode", len),
    ("repro.cache.store", "widgets_to_json_bytes", "store.encode", len),
    ("repro.cache.store", "proofs_to_json_bytes", "store.encode", len),
    ("repro.cache.store", "diff_memo_to_json_bytes", "store.encode", len),
    ("repro.cache.store", "compiled_page_to_json_bytes", "store.encode", len),
    ("repro.cache.client", "StoreClient.call", "daemon.rpc", None),
)


class Span:
    """One recorded call.  ``size`` is the payload measure, if any."""

    __slots__ = ("sid", "parent", "name", "start", "end", "pid", "process", "size")

    def __init__(
        self,
        sid: int,
        parent: int | None,
        name: str,
        start: float,
        pid: int,
        process: str,
    ) -> None:
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end: float | None = None
        self.pid = pid
        self.process = process
        self.size = 0

    @property
    def seconds(self) -> float:
        return (self.end or self.start) - self.start

    def to_row(self) -> list[Any]:
        return [self.sid, self.parent, self.name, self.start, self.end,
                self.pid, self.process, self.size]

    @classmethod
    def from_row(cls, row: list[Any]) -> "Span":
        span = cls(row[0], row[1], row[2], row[3], row[5], row[6])
        span.end = row[4]
        span.size = row[7]
        return span


class Tracer:
    """Records spans in memory; spills worker spans to ``spill_dir``."""

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = Path(spill_dir)
        self.owner_pid = os.getpid()
        self.spans: list[Span] = []
        self._pid = self.owner_pid
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[Any, str, Any]] = []
        self._spill_file: Any = None

    # -- recording ------------------------------------------------------
    def _stack(self) -> list[Span]:
        pid = os.getpid()
        if pid != self._pid:
            # first span in a forked worker: the inherited copy of the
            # parent's spans and stacks belongs to the parent
            with self._lock:
                if pid != self._pid:
                    self._pid = pid
                    self.spans = []
                    self._local = threading.local()
                    self._spill_file = None
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable[..., Any], measure: Callable[[Any], int] | None) -> Callable[..., Any]:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            span = Span(
                next(tracer._ids),
                stack[-1].sid if stack else None,
                name,
                time.perf_counter(),
                tracer._pid,
                multiprocessing.current_process().name,
            )
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    span.size = measure(result)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append(span)
                if not stack and tracer._pid != tracer.owner_pid:
                    tracer._spill()

        return traced

    def _spill(self) -> None:
        with self._lock:
            rows, self.spans = self.spans, []
            if self._spill_file is None:
                path = self.spill_dir / f"spans-{self._pid}.jsonl"
                self._spill_file = open(path, "a", encoding="utf-8")
            # flushed per spill: a worker leaves through os._exit, which
            # would drop anything still buffered
            self._spill_file.write("".join(json.dumps(s.to_row()) + "\n" for s in rows))
            self._spill_file.flush()

    # -- patching -------------------------------------------------------
    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` restores the originals."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        for module_name, attr_path, name, measure in TARGETS:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = attr_path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, measure))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- reading back -----------------------------------------------------
    def collect_spilled(self) -> list[Span]:
        """Read and delete the spill files of (now finished) workers."""
        spans: list[Span] = []
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as source:
                spans.extend(Span.from_row(json.loads(line)) for line in source)
            path.unlink()
        return spans

    def take(self) -> list[Span]:
        """This process's own finished spans so far; clears them."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


class SpanSet:
    """Aggregates over a batch of spans (possibly from several processes)."""

    def __init__(self, spans: Iterable[Span]) -> None:
        self.spans = list(spans)
        self._by_id = {(s.pid, s.sid): s for s in self.spans}
        self._children: dict[tuple[int, int], list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                self._children[(span.pid, span.parent)].append(span)

    def _nested_in_same_name(self, span: Span) -> bool:
        parent = span.parent
        while parent is not None:
            above = self._by_id.get((span.pid, parent))
            if above is None:
                return False
            if above.name == span.name:
                return True
            parent = above.parent
        return False

    def outermost(self, name: str) -> list[Span]:
        """Spans named ``name`` not nested in another span of that name."""
        return [s for s in self.spans if s.name == name and not self._nested_in_same_name(s)]

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.outermost(name))

    def total_size(self, name: str) -> int:
        return sum(s.size for s in self.outermost(name))

    def self_seconds(self, name: str) -> float:
        """Summed self time of the outermost ``name`` spans: duration
        minus the part covered by direct children."""
        total = 0.0
        for span in self.outermost(name):
            children = self._children.get((span.pid, span.sid), [])
            total += span.seconds - sum(c.seconds for c in children)
        return total
