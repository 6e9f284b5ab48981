"""The worker-process side of shard-parallel evaluation.

Each worker is one OS process running :func:`worker_main` over a duplex
pipe.  It is deliberately thin and stateful in exactly two ways:

* **replicas** — per session (one session per source
  :class:`~repro.storage.database.Database`), a full replicated copy of
  the EDB + current IDB, built once from a snapshot and then kept current
  by replaying drained change-feed ops (see
  :mod:`repro.storage.replication`).  Replicas build their probe indexes
  lazily on first use and keep them warm across rounds, and each replica
  owns a persistent Δ-instance pool mirroring the engine's
  (:meth:`~repro.datalog.engine.SemiNaiveEngine.delta_instance`);
* **plans** — compiled rule plans registered by integer id.  A plan is
  shipped (pickled) once, on first use; every later round references it
  by id only, so the steady-state traffic is Δ-shards in, derived-tuple
  batches out.

Workers never apply trust conditions (head filters are Python closures
held by the parent engine and are applied at merge time).  Under
replication protocol v1 they never write to the replicated relations
themselves either — the parent merges, filters and inserts, then ships
the effective insertions back as ordinary feed ops.  Protocol v2
(complement shipping) keeps the parent authoritative but lets each
worker **retain** the rows it derived for a round and apply them locally
when the parent's stream says so (a self-marker carrying the filter/merge
rejections), so only rows produced by *other* workers cross the wire.
Either way nothing unpicklable ever crosses the pipe, and this module
imports cleanly in a fresh interpreter — the protocol stays
``spawn``-safe.
"""

from __future__ import annotations

import os
import pickle
import traceback
from typing import Sequence

from ..datalog.engine import EMPTY_SOURCE, DeltaPool
from ..datalog.plan import RulePlan, Row, run_plan
from ..storage.database import Database
from ..storage.replication import (
    OP_CLEAR,
    OP_CREATE,
    OP_DELETE,
    OP_DROP,
    OP_INSERT,
    OP_SELF_DELETE,
    OP_SELF_INSERT,
    build_replica,
    unpack_ops,
)

#: Replication protocol version this module implements.  v2 adds
#: complement shipping: workers retain the derivations they produced
#: (``MSG_EVAL`` carries a round token + retain flag), the parent ships
#: per-worker complement streams with in-stream self-markers, and
#: ``MSG_APPLY`` carries an eviction watermark.  The pool negotiates
#: ``min()`` across what every worker advertises at startup and falls
#: back to v1 full shipping on mismatch (or ``REPRO_REPLICATION=full``).
PROTOCOL_VERSION = 2


def advertised_protocol() -> int:
    """The protocol version this worker advertises on ping.

    ``REPRO_WORKER_PROTOCOL`` caps it — the knob exists so tests (and
    staged multi-host rollouts) can hold a worker at an older protocol
    and exercise the pool's full-shipping fallback.
    """
    raw = os.environ.get("REPRO_WORKER_PROTOCOL", "").strip()
    if not raw:
        return PROTOCOL_VERSION
    try:
        version = int(raw)
    except ValueError:
        return PROTOCOL_VERSION
    return max(1, min(PROTOCOL_VERSION, version))


# Parent -> worker message tags.
MSG_SESSION = "session"  # (tag, sid, snapshot)           no reply
MSG_END_SESSION = "end_session"  # (tag, sid)             no reply
MSG_APPLY = "apply"  # (tag, sid, ops, evict_before)      no reply
MSG_PLANS = "plans"  # (tag, [(pid, plan), ...])          no reply
MSG_EVAL = "eval"  # (tag, sid, tasks, token, retain) -> reply
MSG_PING = "ping"  # (tag,)   -> reply {"sessions": n, "protocol": v}
MSG_STOP = "stop"  # (tag,)                               no reply, exits

# Worker -> parent reply tags.
REPLY_OK = "ok"
REPLY_ERROR = "error"


def dump_message(message: object) -> bytes:
    """Serialize one protocol message.

    Messages cross the pipes as explicit byte frames
    (``send_bytes``/``recv_bytes``) rather than ``Connection.send``
    objects so a broadcast — snapshot, delta shipping, plan shipping — is
    pickled **once** and the same frame fanned out to every worker,
    instead of once per worker.
    """
    return pickle.dumps(message, pickle.HIGHEST_PROTOCOL)


def load_message(frame: bytes) -> object:
    return pickle.loads(frame)


def send_message(conn, message: object) -> None:
    conn.send_bytes(dump_message(message))


def recv_message(conn) -> object:
    return load_message(conn.recv_bytes())


class _Replica:
    """One session's replicated database plus its persistent Δ-pool."""

    __slots__ = ("db", "retained", "_deltas", "_scope")

    def __init__(self, db: Database) -> None:
        self.db = db
        # Protocol v2 retention cache: (round token, head predicate) ->
        # the rows this worker derived for that round.  A later
        # MSG_APPLY stream consumes entries through self-markers; the
        # stream's eviction watermark drops whatever was never consumed
        # (relevance-filtered relations, rounds whose rows all merged
        # away), so the cache is bounded by one round of derivations.
        self.retained: dict[tuple[int, str], set[Row]] = {}
        # The engine's own Δ-pool implementation, so replica Δ-indexes
        # are maintained exactly like the sequential engine's.
        self._deltas = DeltaPool()
        # The replica lives inside one indefinite deferral scope: shipped
        # delta batches only append maintenance runs, each probe index
        # catches up in batched passes when evaluation actually reads it,
        # and indexes on relations this worker never probes cost nothing.
        # The maintenance-log spill cap bounds the log at O(live rows)
        # even though this epoch never ends.
        self._scope = db.defer_maintenance()
        self._scope.__enter__()

    def evaluate(
        self, plan: RulePlan, delta_index: int | None, rows: Sequence[Row]
    ) -> list[Row]:
        """Run one rule plan over this replica with a Δ-shard pinned to one
        body occurrence; returns the derived head rows (shard-deduplicated,
        unfiltered — the parent applies trust filters at merge time)."""
        rule = plan.rule
        db = self.db
        delta_source = None
        if delta_index is not None:
            atom = rule.body[delta_index]
            delta_source = self._deltas.instance(
                atom.predicate, atom.arity, rows
            )

        def resolve(index: int, atom):
            if index == delta_index and delta_source is not None:
                return delta_source
            if atom.predicate in db:
                return db[atom.predicate]
            return EMPTY_SOURCE

        derived = run_plan(plan, resolve)
        if len(derived) > 1:
            # Shard-local dedup before rows cross the wire: duplicates from
            # within one shard collapse here, the merger handles the rest.
            derived = list(dict.fromkeys(derived))
        return derived

    def apply(self, ops: Sequence, evict_before: int) -> None:
        """Replay one shipped complement stream, in journal order.

        Plain ops replay exactly like :func:`~repro.storage.replication.
        apply_ops`; the v2 self-markers resolve against the retention
        cache — insert what this worker derived minus what the parent's
        filters/merge rejected, or delete the retained retraction rows
        (deleting a row the parent never held is a set-semantics no-op on
        both sides, so no rejection ack is needed for deletes).  Finally,
        retained entries older than ``evict_before`` are dropped: their
        rounds can never be referenced again.
        """
        db = self.db
        retained = self.retained
        for name, op, payload in ops:
            if op == OP_SELF_INSERT:
                token, rejected = payload
                rows = retained.pop((token, name), None)
                if rows:
                    if rejected:
                        rows = rows.difference(rejected)
                    db[name].insert_many(rows)
            elif op == OP_SELF_DELETE:
                rows = retained.pop((payload[0], name), None)
                if rows:
                    db[name].delete_many(rows)
            elif op == OP_INSERT:
                db[name].insert_many(payload)
            elif op == OP_DELETE:
                db[name].delete_many(payload)
            elif op == OP_CLEAR:
                db[name].clear()
            elif op == OP_CREATE:
                db.ensure(name, payload)
            elif op == OP_DROP:
                db.drop(name)
            else:  # pragma: no cover - future-proofing
                raise ValueError(f"unknown replication op {op!r}")
        if retained:
            dead = [key for key in retained if key[0] < evict_before]
            for key in dead:
                del retained[key]


def worker_main(conn, inherited: Sequence = ()) -> None:
    """Message loop of one worker process.

    ``inherited`` holds the parent-side pipe ends a fork child got from
    its parent.  They are closed first, so that the loop sees EOF (and
    the worker exits) once the parent is gone, even after a SIGKILL.

    Messages that can fail (unknown session, bad plan id, evaluation
    error) reply ``(REPLY_ERROR, traceback)`` instead of killing the
    worker; the parent treats any error reply as a pool failure and falls
    back to sequential evaluation of the affected round.
    """
    for end in inherited:
        end.close()
    sessions: dict[int, _Replica] = {}
    plans: dict[int, RulePlan] = {}
    protocol = advertised_protocol()
    # A failure in a fire-and-forget message (apply/plans/session) must
    # NOT write a reply — the parent only reads replies for eval/ping, so
    # an unsolicited frame would desynchronize the protocol and the error
    # would surface rounds later, attributed to the wrong operation.
    # Remember it instead and report it on the next reply-bearing message.
    deferred_error: str | None = None
    while True:
        try:
            message = recv_message(conn)
        except (EOFError, OSError):
            return
        tag = message[0]
        if tag == MSG_STOP:
            return
        expects_reply = tag in (MSG_EVAL, MSG_PING)
        try:
            if expects_reply and deferred_error is not None:
                raise RuntimeError(
                    "an earlier replication message failed in this "
                    f"worker:\n{deferred_error}"
                )
            if tag == MSG_EVAL:
                _, sid, tasks, token, retain = message
                replica = sessions[sid]
                results = []
                for pid, delta_index, rows in tasks:
                    plan = plans[pid]
                    derived = replica.evaluate(plan, delta_index, rows)
                    if retain and derived:
                        # Protocol v2: remember what this worker produced
                        # so the parent can ship only the complement; a
                        # later self-marker (or the eviction watermark)
                        # settles the entry.
                        replica.retained.setdefault(
                            (token, plan.rule.head.predicate), set()
                        ).update(derived)
                    results.append(derived)
                send_message(conn, (REPLY_OK, results))
            elif tag == MSG_APPLY:
                _, sid, ops, evict_before = message
                sessions[sid].apply(unpack_ops(ops), evict_before)
            elif tag == MSG_PLANS:
                if message[1] is None:  # registry reset (cap exceeded)
                    plans.clear()
                else:
                    plans.update(message[1])
            elif tag == MSG_SESSION:
                _, sid, snapshot = message
                sessions[sid] = _Replica(build_replica(snapshot))
            elif tag == MSG_END_SESSION:
                sessions.pop(message[1], None)
            elif tag == MSG_PING:
                send_message(
                    conn,
                    (
                        REPLY_OK,
                        {"sessions": len(sessions), "protocol": protocol},
                    ),
                )
            else:
                raise ValueError(f"unknown message tag {tag!r}")
        except Exception:  # noqa: BLE001 — report to the parent, stay alive
            if not expects_reply:
                deferred_error = traceback.format_exc()
                continue
            try:
                send_message(conn, (REPLY_ERROR, traceback.format_exc()))
            except (OSError, BrokenPipeError):
                return
