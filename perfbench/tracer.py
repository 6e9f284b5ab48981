"""Bench-side tracing: in-memory spans around the program's public entry points.

Nothing under ``src/`` knows about these spans.  :func:`install` wraps the
entry points listed in :data:`TARGETS` (and rebinds every ``repro.*``
module attribute that imported them by name); :func:`uninstall` puts the
originals back, so untraced passes run the program untouched.

A span is ``(id, parent, trace, name, start, end, attrs)``.  The parent is
the span open in the same thread or asyncio task; ``trace`` is the id of
the root span, shared by every span of one end-to-end operation.  Spans
stay in memory until :meth:`Tracer.dump` writes them as JSON lines.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

#: Scratch space of the benchmark: trace files, server node directories.
WORK_DIR = Path(__file__).resolve().parent / "_work"


class Span:
    __slots__ = ("id", "parent", "trace", "name", "start", "end", "attrs")

    def __init__(self, span_id, parent, trace, name, start) -> None:
        self.id = span_id
        self.parent = parent
        self.trace = trace
        self.name = name
        self.start = start
        self.end = start
        self.attrs: dict = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "trace": self.trace,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Span":
        span = cls(doc["id"], doc["parent"], doc["trace"], doc["name"], doc["start"])
        span.end = doc["end"]
        span.attrs = doc["attrs"]
        return span


class Tracer:
    """Collects spans from any thread or task of one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    def open(self, name: str) -> tuple[Span, object]:
        parent = self._current.get()
        span_id = next(self._ids)
        span = Span(
            span_id,
            None if parent is None else parent.id,
            span_id if parent is None else parent.trace,
            name,
            time.perf_counter(),
        )
        return span, self._current.set(span)

    def close(self, span: Span, token) -> None:
        span.end = time.perf_counter()
        self._current.reset(token)
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, **attrs):
        span, token = self.open(name)
        span.attrs.update(attrs)
        try:
            yield span
        finally:
            self.close(span, token)

    def dump(self, path) -> None:
        dump_spans(self.spans, path)


def dump_spans(spans: list["Span"], path) -> None:
    with open(path, "w") as handle:
        for span in sorted(spans, key=lambda s: s.start):
            handle.write(json.dumps(span.to_json()) + "\n")


def load_spans(path) -> list[Span]:
    with open(path) as handle:
        return [Span.from_json(json.loads(line)) for line in handle if line.strip()]


# -- the wrapped entry points --------------------------------------------------


def _batch_before(args, kwargs) -> dict:
    return {"rows": len(args[0])}


def _publish_after(span, args, result) -> None:
    span.attrs["rows"] = sum(result.counts().values())


def _apply_before(args, kwargs) -> dict:
    stats = args[0].db.index_stats()
    return {"_index": {k: stats[k] for k in ("applied_runs", "rebuilds", "spills")}}


def _apply_after(span, args, report) -> None:
    before = span.attrs.pop("_index")
    stats = args[0].db.index_stats()
    attrs = span.attrs
    attrs["inserted"] = report.inserted
    attrs["deleted"] = report.deleted
    for phase in ("evaluate", "merge", "index_settle"):
        attrs[phase] = report.phases.get(phase, {}).get("wall_seconds", 0.0)
    evaluation = report.details.get("evaluation", {})
    for key in (
        "rounds",
        "rule_applications",
        "tuples_inserted",
        "plan_cache_hits",
        "plan_cache_misses",
    ):
        attrs[key] = evaluation.get(key, 0)
    for key, value in before.items():
        attrs["index_" + key] = stats[key] - value


def wire_bytes(system) -> int:
    """Bytes the worker pool's transport has moved (0 without a pool)."""
    parallel = system.parallel_stats()
    if not parallel:
        return 0
    total = parallel.get("transport", {}).get("total", {})
    return int(total.get("bytes_out", 0)) + int(total.get("bytes_in", 0))


def _open_after(span, args, node) -> None:
    span.attrs["replayed_publish_records"] = node.replayed_publish_records
    span.attrs["replayed_edit_records"] = node.replayed_edit_records


def _request_before(args, kwargs) -> dict:
    return {"route": args[2]}


#: (module, owner class or None, attribute, span name, before, after)
TARGETS = (
    ("repro.api.batch", "Batch", "commit", "api.batch_commit", _batch_before, None),
    ("repro.core.editlog", None, "publish", "editlog.publish", None, _publish_after),
    (
        "repro.core.exchange",
        "ExchangeSystem",
        "apply_delta",
        "exchange.apply_delta",
        _apply_before,
        _apply_after,
    ),
    ("repro.storage.persistence", None, "restore", "storage.restore", None, None),
    ("repro.durability.node", "DurableNode", "open", "durability.open", None, _open_after),
    ("repro.durability.node", "DurableNode", "publish", "durability.publish", None, None),
    ("repro.serve.snapshots", "SnapshotManager", "refresh", "serve.snapshot_refresh", None, None),
    ("repro.serve.server", "ReproServer", "_handle_request", "serve.request", _request_before, None),
    ("repro.storage.snapshot", "DatabaseSnapshot", "cached", "storage.snapshot_cached", None, None),
)


def _wrap_cached(tracer: Tracer, fn: Callable) -> Callable:
    """``DatabaseSnapshot.cached``: a span whose ``hit`` attribute says
    whether the answer came from the snapshot's result cache."""

    @functools.wraps(fn)
    def wrapper(snapshot, key, compute):
        missed = False

        def counted():
            nonlocal missed
            missed = True
            return compute()

        with tracer.span("storage.snapshot_cached") as span:
            result = fn(snapshot, key, counted)
            span.attrs["hit"] = not missed
        return result

    return wrapper


def _wrap(tracer: Tracer, fn: Callable, name: str, before, after) -> Callable:
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            attrs = before(args, kwargs) if before else {}
            span, token = tracer.open(name)
            span.attrs.update(attrs)
            try:
                result = await fn(*args, **kwargs)
            finally:
                tracer.close(span, token)
            if after:
                after(span, args, result)
            return result

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        attrs = before(args, kwargs) if before else {}
        span, token = tracer.open(name)
        span.attrs.update(attrs)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span, token)
        if after:
            after(span, args, result)
        return result

    return wrapper


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target; returns the function that removes the wrappers."""
    import importlib

    undo: list[tuple[object, str, object]] = []
    # Import every target first, so the by-name rebinding below also
    # reaches modules that import an earlier target.
    for module_name, *_ in TARGETS:
        importlib.import_module(module_name)
    for module_name, owner, attr, name, before, after in TARGETS:
        module = sys.modules[module_name]
        if owner is not None:
            cls = getattr(module, owner)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrap(tracer, raw.__func__, name, None, after))
            elif name == "storage.snapshot_cached":
                wrapped = _wrap_cached(tracer, raw)
            else:
                wrapped = _wrap(tracer, raw, name, before, after)
            undo.append((cls, attr, raw))
            setattr(cls, attr, wrapped)
            continue
        original = getattr(module, attr)
        wrapped = _wrap(tracer, original, name, before, after)
        # Rebind the function wherever a repro module imported it by name.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def uninstall() -> None:
        for target, key, value in reversed(undo):
            setattr(target, key, value)

    return uninstall


# -- analysis --------------------------------------------------------------------


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.id] = span.seconds - covered
    return result


def layer_self_ms(spans: list[Span]) -> dict[str, float]:
    """Total self time per layer (the span name up to its first dot), ms.

    Root ``op.*`` spans are the bench's own end-to-end operations; their
    self time is reported as ``unattributed``.
    """
    own = self_seconds(spans)
    totals: dict[str, float] = {}
    for span in spans:
        layer = span.name.split(".", 1)[0]
        if layer == "op":
            layer = "unattributed"
        totals[layer] = totals.get(layer, 0.0) + own[span.id] * 1000.0
    return totals
