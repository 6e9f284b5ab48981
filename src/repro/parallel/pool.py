"""Persistent worker pools: process lifecycle, sessions, plan shipping.

A :class:`WorkerPool` owns N long-lived OS processes (spawned once, on
first use) and the parent-side bookkeeping of the replication protocol:

* **sessions** — one per source :class:`~repro.storage.database.Database`
  the pool has evaluated against.  Opening a session attaches a
  :class:`~repro.storage.replication.ChangeFeed` to the database and
  broadcasts a full snapshot; :meth:`sync` drains the feed and ships only
  the delta, so replicas are *kept* current rather than re-replicated
  between rounds.  Under the negotiated replication protocol v2, each
  worker's delta is further cut to the **complement** — rows *other*
  workers produced — because every worker retains its own accepted
  derivations locally (self-markers + rejection acks in the stream; see
  DESIGN.md "Replication protocol v2").  Sessions end automatically when
  their database is garbage-collected (a weakref callback) or when the
  pool closes.
* **plan registry** — rule plans are registered by identity and assigned
  integer ids; each plan is pickled to the workers exactly once
  (:meth:`flush_plans`), after which rounds reference plans by id.  The
  registry pins the plan objects, which also keeps the engine plan
  cache's id-keyed entries stable.

Start methods: the default (``None``) uses the platform's
:mod:`multiprocessing` default (``fork`` on Linux); passing ``"spawn"``
works because the whole protocol ships only picklable data and the worker
entry point is an importable module function.

Pools close idempotently: explicitly via :meth:`close`, when the owner
drops its last reference (``__del__``), and at interpreter exit (atexit
backstop); worker processes are daemonic besides.  A parent that dies
without closing (SIGKILL) runs none of these: each worker then exits on
EOF from its pipe, which is why fork children close the parent-side pipe
ends they inherit.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import weakref
from typing import TYPE_CHECKING, Sequence

from ..obs import metrics as _metrics
from ..storage.replication import (
    OP_CREATE,
    OP_DELETE,
    OP_DROP,
    OP_INSERT,
    pack_ops,
    split_op_streams,
)
from .transport import MessageTransport
from .worker import (
    MSG_APPLY,
    MSG_END_SESSION,
    MSG_EVAL,
    MSG_PING,
    MSG_PLANS,
    MSG_SESSION,
    MSG_STOP,
    PROTOCOL_VERSION,
    REPLY_OK,
    send_message,
    worker_main,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datalog.plan import RulePlan, Row
    from ..storage.database import Database


class WorkerPoolError(Exception):
    """A worker pool operation failed (the pool is then unusable)."""


_PLAN_REGISTRY_LIMIT = 4096
"""Plans the registry may pin before a wholesale reset.

Prepared planners re-plan only on invalidation, so real programs sit far
below this; the cap exists for statistics-driven planners whose cache
token moves with the data (a fresh plan object per rule per round) —
without it the parent registry, the shard-position cache, and every
worker's plan dict would grow without bound."""


def resolve_workers(workers: int | None) -> int:
    """Normalize a worker-count setting.

    ``None`` reads the ``REPRO_WORKERS`` environment variable (absent or
    empty means 1 — the sequential path); explicit values pass through.
    The result is always an ``int >= 1``.
    """
    if workers is None:
        raw = os.environ.get("REPRO_WORKERS", "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise WorkerPoolError(
                f"REPRO_WORKERS must be an integer, got {raw!r}"
            ) from None
    workers = int(workers)
    if workers < 1:
        raise WorkerPoolError(f"workers must be >= 1, got {workers}")
    return workers


_LIVE_POOLS: "weakref.WeakSet[WorkerPool]" = weakref.WeakSet()


@atexit.register
def _close_all_pools() -> None:  # pragma: no cover - interpreter teardown
    for pool in list(_LIVE_POOLS):
        pool.close()


class _Session:
    __slots__ = ("sid", "feed", "dbref", "relevant", "stale", "rejections")

    def __init__(self, sid: int, feed, dbref) -> None:
        self.sid = sid
        self.feed = feed
        self.dbref = dbref
        # Protocol v2 rejection acks, (round token, head predicate,
        # worker) -> rows that worker derived but the parent's trust
        # filters / merge discarded.  sync() attaches them to the
        # matching self-markers and prunes consumed tokens.
        self.rejections: dict[tuple[int, str, int], tuple] = {}
        # Delta-shipping filter: replicas only need relations that rule
        # *bodies* read — head-only relations (and their usually-wide
        # derived rows) never cross the wire.  ``relevant`` accumulates
        # the body predicates of every program evaluated through this
        # session; ``stale`` records predicates whose ops were dropped,
        # so a later program that starts reading one forces a fresh
        # snapshot instead of probing a stale replica.
        self.relevant: set[str] | None = None
        self.stale: set[str] = set()


_REPL_METRIC_KEYS = (
    ("repro_parallel_syncs_total", "syncs"),
    ("repro_parallel_rows_shipped_total", "rows_shipped"),
    ("repro_parallel_rows_retained_total", "rows_retained"),
)

#: (direction label, frames key, bytes key, seconds key) per transport
#: direction, matched to the bootstrap families in ``repro.obs``.
_TRANSPORT_DIRECTIONS = (
    ("out", "frames_out", "bytes_out", "pickle_s"),
    ("in", "frames_in", "bytes_in", "unpickle_s"),
)


def _pool_samples(pool: "WorkerPool"):
    """Metrics collector: replication-volume counters plus the
    transport's total frame/byte/pickle rollup (weakref-registered,
    summed across live pools at scrape time)."""
    sample = _metrics.Sample
    kind = _metrics.KIND_COUNTER
    repl = pool.repl_stats
    for name, key in _REPL_METRIC_KEYS:
        yield sample(name, kind, "", (), repl[key])
    transport = pool.transport
    if transport is None:
        return
    total = transport.stats()["total"]
    for direction, frames_key, bytes_key, seconds_key in (
        _TRANSPORT_DIRECTIONS
    ):
        labels = (("direction", direction),)
        yield sample(
            "repro_parallel_frames_total", kind, "", labels, total[frames_key]
        )
        yield sample(
            "repro_parallel_bytes_total", kind, "", labels, total[bytes_key]
        )
        yield sample(
            "repro_parallel_pickle_seconds_total",
            kind,
            "",
            labels,
            total[seconds_key],
        )


class WorkerPool:
    """N persistent evaluation workers holding replicated databases."""

    def __init__(self, workers: int, start_method: str | None = None) -> None:
        if workers < 1:
            raise WorkerPoolError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.start_method = start_method
        self.broken = False
        #: Negotiated replication protocol version: ``min()`` over what
        #: every worker advertises (and the ``REPRO_REPLICATION`` cap),
        #: settled by the startup handshake.  Protocol >= 2 ships
        #: complements; 1 is full shipping.
        self.protocol = PROTOCOL_VERSION
        self.transport: MessageTransport | None = None
        #: Replication-volume counters (complement shipping bookkeeping);
        #: see :meth:`stats`.
        self.repl_stats: dict[str, int] = {
            "syncs": 0,
            "broadcast_syncs": 0,
            "complement_syncs": 0,
            "full_syncs": 0,
            "rows_shipped": 0,
            "rows_retained": 0,
            "rows_rejected": 0,
            "markers": 0,
            "snapshots": 0,
            "snapshot_rows": 0,
        }
        self._started = False
        _metrics.REGISTRY.register(self, _pool_samples)
        self._conns: list = []
        self._procs: list = []
        self._sessions: dict[int, _Session] = {}
        self._session_ids = itertools.count(1)
        # Round tokens: one per evaluated round, pool-wide monotone.  The
        # eviction watermark shipped with every MSG_APPLY is derived from
        # the last issued token, so worker retention caches never outlive
        # the round after the one that could consume them.
        self._round_tokens = itertools.count(1)
        self._last_token = 0
        # id(plan) -> pid; pid -> plan (pins the plan so its id is stable).
        self._plan_ids: dict[int, int] = {}
        self._plans: dict[int, "RulePlan"] = {}
        self._unshipped: list[tuple[int, "RulePlan"]] = []
        _LIVE_POOLS.add(self)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker processes (idempotent)."""
        if self.broken:
            raise WorkerPoolError("worker pool is closed or broken")
        if self._started:
            return
        context = multiprocessing.get_context(self.start_method)
        forking = context.get_start_method() == "fork"
        try:
            for index in range(self.workers):
                parent_conn, child_conn = context.Pipe(duplex=True)
                # A fork child inherits the parent's end of its own pipe and
                # of every pipe opened before it.  It must close them, or
                # its recv never sees EOF when the parent dies.  (Spawn
                # children inherit nothing; their args are pickled.)
                inherited = (
                    tuple(self._conns) + (parent_conn,) if forking else ()
                )
                process = context.Process(
                    target=worker_main,
                    args=(child_conn, inherited),
                    daemon=True,
                    name=f"repro-eval-worker-{index}",
                )
                process.start()
                child_conn.close()
                self._conns.append(parent_conn)
                self._procs.append(process)
        except Exception as error:
            self.broken = True
            self.close()
            raise WorkerPoolError(f"could not spawn workers: {error}") from error
        self.transport = MessageTransport(self._conns)
        self._started = True
        try:
            self._negotiate_protocol()
        except Exception:
            self.close()
            raise

    def _negotiate_protocol(self) -> None:
        """Startup handshake: settle the replication protocol version.

        Every worker advertises the protocol it implements (capped by its
        ``REPRO_WORKER_PROTOCOL``); the pool runs at the minimum, further
        capped by the parent's own version and by
        ``REPRO_REPLICATION=full`` (an operator kill switch forcing v1
        full shipping).  A mismatched worker therefore degrades the whole
        pool to full shipping instead of corrupting replicas.
        """
        raw = os.environ.get("REPRO_REPLICATION", "").strip().lower()
        if raw == "full":
            cap = 1
        elif raw in ("", "complement"):
            cap = PROTOCOL_VERSION
        else:
            raise WorkerPoolError(
                f"REPRO_REPLICATION must be 'full' or 'complement', got {raw!r}"
            )
        try:
            replies = self._ping_workers()
        except WorkerPoolError:
            self.close()
            raise
        advertised = min(
            (reply.get("protocol", 1) for reply in replies),
            default=PROTOCOL_VERSION,
        )
        self.protocol = max(1, min(cap, advertised))

    def _ping_workers(self) -> list[dict]:
        """Round-trip MSG_PING to every worker; returns the reply dicts."""
        self._broadcast((MSG_PING,))
        replies = []
        try:
            for index in range(len(self._conns)):
                reply = self.transport.recv(index, MSG_PING)
                if reply[0] != REPLY_OK:
                    raise WorkerPoolError(f"worker ping failed:\n{reply[1]}")
                replies.append(reply[1])
        except WorkerPoolError:
            self.broken = True
            raise
        except Exception as error:
            self.broken = True
            raise WorkerPoolError(f"worker pipe failed: {error}") from error
        return replies

    def close(self) -> None:
        """Tear the pool down (idempotent, safe from __del__/atexit)."""
        for session in list(self._sessions.values()):
            try:
                session.feed.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass
        self._sessions.clear()
        conns, self._conns = self._conns, []
        procs, self._procs = self._procs, []
        for conn in conns:
            try:
                send_message(conn, (MSG_STOP,))
            except Exception:
                pass
            try:
                conn.close()
            except Exception:
                pass
        for process in procs:
            try:
                process.join(timeout=2.0)
                if process.is_alive():  # pragma: no cover - stuck worker
                    process.terminate()
            except Exception:  # pragma: no cover - teardown best effort
                pass
        self._plan_ids.clear()
        self._plans.clear()
        self._unshipped.clear()
        self._started = False
        self.transport = None
        # Closed means closed: a pool never restarts, even if it had not
        # spawned yet (start() raises, callers fall back to sequential).
        self.broken = True

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # -- messaging ---------------------------------------------------------

    def _broadcast(self, message: tuple) -> None:
        try:
            # Pickle once, fan the same frame out to every worker (the
            # transport counts frames/bytes/pickle time per message tag).
            self.transport.broadcast(message)
        except Exception as error:
            self.broken = True
            raise WorkerPoolError(f"worker pipe failed: {error}") from error

    # -- sessions ----------------------------------------------------------

    def session_for(self, db: "Database") -> _Session:
        """The replication session for ``db``, opened on first use.

        Opening a session attaches a change feed and ships one full
        snapshot to every worker; subsequent calls are dictionary hits.
        """
        self.start()
        key = id(db)
        session = self._sessions.get(key)
        if session is not None:
            if session.dbref() is db:
                return session
            # id() reuse after the old database died mid-callback: drop.
            self._drop_session(key)
        feed = db.changefeed()
        sid = next(self._session_ids)
        try:
            snapshot = db.export_snapshot()
            self._broadcast((MSG_SESSION, sid, snapshot))
            self.repl_stats["snapshots"] += 1
            self.repl_stats["snapshot_rows"] += sum(
                len(rows) for _, _, rows in snapshot["relations"]
            )
        except Exception:
            feed.close()
            raise
        poolref = weakref.ref(self)

        def _on_db_death(_ref, poolref=poolref, key=key):
            pool = poolref()
            if pool is not None:
                pool._drop_session(key)

        session = _Session(sid, feed, weakref.ref(db, _on_db_death))
        self._sessions[key] = session
        return session

    def _drop_session(self, key: int) -> None:
        session = self._sessions.pop(key, None)
        if session is None:
            return
        session.feed.close()
        if self._started and not self.broken:
            try:
                self._broadcast((MSG_END_SESSION, session.sid))
            except WorkerPoolError:  # pragma: no cover - already broken
                pass

    def end_session(self, db: "Database") -> None:
        """Tear down the replication session for ``db`` (if any)."""
        self._drop_session(id(db))

    def sync(
        self, session: _Session, relevant: "frozenset[str] | None" = None
    ) -> bool:
        """Ship the session's pending change-feed ops to every replica.

        ``relevant`` names the relations the upcoming evaluation's rule
        bodies read; ops for other relations are dropped (the replica's
        copy goes stale, recorded as such).  Returns ``False`` — without
        consuming the feed — when a newly relevant relation is already
        stale: the caller must end the session and open a fresh one (a
        new snapshot), because no delta can repair a dropped history.

        Under the negotiated protocol v2, origin-tagged ops (merged
        derivations the executor inserted under
        :meth:`Database.tag_changes`) are not shipped back to the workers
        that produced them: the window splits into per-worker complement
        streams with in-stream self-markers
        (:func:`~repro.storage.replication.split_op_streams`).  Windows
        with no tagged ops — and every window under protocol v1 —
        broadcast one shared frame.
        """
        if relevant is not None:
            if session.relevant is None:
                session.relevant = set(relevant)
            else:
                fresh = relevant - session.relevant
                if fresh:
                    if fresh & session.stale:
                        return False
                    session.relevant |= fresh
        entries = session.feed.drain_tagged()
        if entries and session.relevant is not None:
            shipped = []
            for entry in entries:
                name, kind = entry[0], entry[1]
                if (
                    kind in (OP_CREATE, OP_DROP)
                    or name in session.relevant
                ):
                    shipped.append(entry)
                else:
                    session.stale.add(name)
            entries = shipped
        # Watermark: every token issued before this sync is settled once
        # this window is applied (its markers are in the window or its
        # entries were dropped), so workers evict leftovers below it.
        evict_before = self._last_token + 1
        stats = self.repl_stats
        if entries:
            stats["syncs"] += 1
            tagged = any(entry[3] is not None for entry in entries)
            if not tagged or self.protocol < 2:
                ops = [(name, kind, payload) for name, kind, payload, _ in entries]
                rows = sum(
                    len(payload)
                    for _, kind, payload in ops
                    if kind == OP_INSERT or kind == OP_DELETE
                )
                stats["rows_shipped"] += rows * self.workers
                if tagged:
                    stats["full_syncs"] += 1
                else:
                    stats["broadcast_syncs"] += 1
                self._broadcast((MSG_APPLY, session.sid, ops, evict_before))
            else:
                streams, counters = split_op_streams(
                    entries, self.workers, session.rejections
                )
                stats["complement_syncs"] += 1
                for key in ("rows_shipped", "rows_retained", "rows_rejected", "markers"):
                    stats[key] += counters[key]
                messages: list[tuple | None] = []
                shared: dict[int, tuple] = {}
                for stream in streams:
                    # Streams may share one list object (workers outside
                    # every producer mask); share the message object too
                    # so the transport pickles it once.  Each distinct
                    # stream packs (deflates) exactly once.
                    message = shared.get(id(stream))
                    if message is None:
                        message = (
                            MSG_APPLY,
                            session.sid,
                            pack_ops(stream),
                            evict_before,
                        )
                        shared[id(stream)] = message
                    messages.append(message)
                try:
                    self.transport.send_each(messages)
                except Exception as error:
                    self.broken = True
                    raise WorkerPoolError(
                        f"worker pipe failed: {error}"
                    ) from error
        if session.rejections:
            session.rejections = {
                key: rows
                for key, rows in session.rejections.items()
                if key[0] >= evict_before
            }
        return True

    # -- plans -------------------------------------------------------------

    @property
    def plan_count(self) -> int:
        """Plans currently pinned in the registry."""
        return len(self._plans)

    def reset_plans_if_full(self) -> bool:
        """Drop the whole plan registry once it exceeds the cap.

        Safe only *between* rounds (pids handed out earlier become
        invalid), which is why the executor calls this before registering
        a round's plans.  Workers drop their dicts too; the round's plans
        then ship fresh.  Returns True if a reset happened.
        """
        if len(self._plans) < _PLAN_REGISTRY_LIMIT:
            return False
        self._plan_ids.clear()
        self._plans.clear()
        self._unshipped.clear()
        if self._started:
            self._broadcast((MSG_PLANS, None))  # None = clear
        return True

    def register_plan(self, plan: "RulePlan") -> int:
        """The pool-wide id for ``plan`` (new plans queue for shipping)."""
        pid = self._plan_ids.get(id(plan))
        if pid is None:
            pid = len(self._plans) + 1
            self._plan_ids[id(plan)] = pid
            self._plans[pid] = plan
            self._unshipped.append((pid, plan))
        return pid

    def flush_plans(self) -> None:
        """Broadcast queued plans (each plan crosses the wire once)."""
        if self._unshipped:
            shipped, self._unshipped = self._unshipped, []
            self._broadcast((MSG_PLANS, shipped))

    # -- evaluation --------------------------------------------------------

    def next_round_token(self) -> int:
        """Issue the next round token (worker retention-cache key)."""
        self._last_token = next(self._round_tokens)
        return self._last_token

    def evaluate(
        self,
        session: _Session,
        assignments: Sequence[Sequence[tuple[int, int | None, list]]],
        token: int,
        retain: bool,
    ) -> "list[list[list[Row]]]":
        """Dispatch one round's shard assignments and collect results.

        ``assignments[w]`` is worker ``w``'s task list of ``(plan id,
        delta body index, Δ-shard rows)``; workers with an empty list are
        skipped.  All engaged workers evaluate concurrently; the reply for
        worker ``w`` is a derived-row list per task, aligned with its
        assignment.  ``token`` names the round; ``retain`` (protocol v2)
        tells workers to cache their derived rows for complement shipping.
        """
        if len(assignments) != len(self._conns):
            raise WorkerPoolError(
                f"{len(assignments)} assignments for {len(self._conns)} workers"
            )
        transport = self.transport
        try:
            for index, tasks in enumerate(assignments):
                if tasks:
                    # Per-worker payloads are genuinely distinct (disjoint
                    # Δ-shards), so each pickles once; identical payload
                    # objects would share a frame via send_each.
                    transport.send(
                        index,
                        (MSG_EVAL, session.sid, list(tasks), token, retain),
                    )
            results: "list[list[list[Row]]]" = []
            for index, tasks in enumerate(assignments):
                if not tasks:
                    results.append([])
                    continue
                reply = transport.recv(index, MSG_EVAL)
                if reply[0] != REPLY_OK:
                    raise WorkerPoolError(
                        f"worker evaluation failed:\n{reply[1]}"
                    )
                results.append(reply[1])
            return results
        except WorkerPoolError:
            self.broken = True
            raise
        except Exception as error:
            self.broken = True
            raise WorkerPoolError(f"worker pipe failed: {error}") from error

    # -- diagnostics -------------------------------------------------------

    def ping(self) -> list[int]:
        """Round-trip every worker; returns each worker's session count."""
        self.start()
        return [reply["sessions"] for reply in self._ping_workers()]

    def stats(self) -> dict:
        """Replication protocol + transport counters (picklable).

        ``replication`` counts protocol-level volume: rows shipped as
        complements vs. covered by worker-retained derivations, rejection
        acks, sync/snapshot counts.  ``transport`` is the per-message-tag
        frame/byte/pickle-time breakdown.  Surfaces through
        ``ExchangeSystem.parallel_stats()`` and the serve tier's
        ``/stats``.
        """
        return {
            "workers": self.workers,
            "protocol": self.protocol if self._started else None,
            "replication": dict(self.repl_stats),
            "transport": self.transport.stats() if self.transport else {},
        }

    def __repr__(self) -> str:
        state = (
            "broken"
            if self.broken
            else ("started" if self._started else "cold")
        )
        return (
            f"<WorkerPool {self.workers} workers ({state}), "
            f"{len(self._sessions)} sessions, {len(self._plans)} plans>"
        )
