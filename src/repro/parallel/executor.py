"""The parallel round driver the engine dispatches to.

:class:`ParallelExecutor` sits behind the engine interface: the
semi-naive engine hands it one stratum round — a list of ``(plan, Δ body
index, Δ rows, head predicate, head filter)`` tasks, one per (rule,
Δ-occurrence) pair with a non-empty Δ — and the executor runs the whole
round: ship deltas, evaluate across shards, merge, filter, and insert.
It owns the moving parts:

1. open/reuse the pool's replication session for the database and ship
   the pending change-feed delta (replicas catch up to exactly the
   round-start state — which is also why a parallel round is
   deterministic: every task is evaluated against that snapshot, and any
   derivation a sequential round would have found through a mid-round
   insertion arrives one round later through the Δ-seeds instead; the
   fixpoint is identical);
2. register plans (new ones ship once) and hash-shard each task's Δ-rows
   (:class:`~repro.parallel.shard.ShardPlanner`);
3. dispatch one message per engaged worker, collect, and combine with
   producer-worker masks (:meth:`~repro.parallel.merge.Merger.
   combine_masks`);
4. apply the merged round — trust filters, then insertion/deletion under
   a :meth:`~repro.storage.database.Database.tag_changes` scope carrying
   ``(round token, producer bitmask)``, so the next sync ships each
   worker only the complement of what it already derived (replication
   protocol v2) plus its rejection acks.

Failures during the *evaluation* half (a worker dying, an unpicklable
value, a sandbox that forbids subprocesses) permanently disable the
executor and return ``None``; the engine then re-runs the *same* round
sequentially — nothing has been inserted yet at that point, so the
fallback is exact, and every later round stays sequential.  Failures
during the *apply* half propagate instead (exactly like the sequential
loop's insert errors): state may be partially applied, so a silent
sequential re-run would be wrong.
"""

from __future__ import annotations

import time
import warnings
from typing import TYPE_CHECKING, Callable, Sequence

from ..obs import tracing as _tracing
from .merge import Merger
from .pool import WorkerPool
from .shard import ShardPlanner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datalog.plan import RulePlan, Row
    from ..storage.database import Database

#: One insertion-round task:
#: (plan, Δ body-atom index, Δ rows, head predicate, head filter).
Task = (
    "tuple[RulePlan, int | None, Sequence[Row], str,"
    " Callable[[Row], bool] | None]"
)

#: One retraction-round task: (plan, Δ body-atom index, Δ rows); the
#: target relation is the plan's head predicate (the provenance table).
RetractionTask = "tuple[RulePlan, int | None, Sequence[Row]]"


class ParallelExecutor:
    """Shard-parallel evaluation of stratum rounds over a worker pool."""

    def __init__(self, workers: int, start_method: str | None = None) -> None:
        self.workers = workers
        self.pool = WorkerPool(workers, start_method)
        self.sharder = ShardPlanner(workers)
        self.available = True
        #: Rounds successfully evaluated through the pool (diagnostics).
        self.rounds = 0
        #: Always-on merge-phase clocks: cumulative time spent filtering
        #: and applying worker-produced rows (the exchange report's
        #: "merge" phase reads their movement).
        self.merge_wall_seconds = 0.0
        self.merge_cpu_seconds = 0.0

    # -- round drivers -----------------------------------------------------

    def run_insertion_round(
        self,
        db: "Database",
        tasks: "Sequence[Task]",
        relevant: "frozenset[str] | None" = None,
    ) -> "tuple[dict[str, set[Row]], list[int]] | None":
        """Evaluate and apply one insertion round.

        Returns the per-predicate *effective* insertions (the next
        round's Δ-seeds, exactly as the sequential loop computes them)
        and, per task, the merged rows that passed its head filter (what
        a sequential rule evaluation returns); or ``None`` when the pool
        failed before anything was applied (now permanently disabled) and
        the caller must run the round sequentially.  ``relevant`` is the
        body-predicate set of the running program — the delta-shipping
        filter.
        """
        evaluated = self._evaluate_round(
            db, [(plan, index, rows) for plan, index, rows, _, _ in tasks], relevant
        )
        if evaluated is None:
            return None
        session, token, retain, masks = evaluated
        return self._apply_insertions(db, session, token, retain, tasks, masks)

    def run_retraction_round(
        self,
        db: "Database",
        tasks: "Sequence[RetractionTask]",
        relevant: "frozenset[str] | None" = None,
    ) -> "dict[str, set[Row]] | None":
        """Evaluate and apply one retraction-semijoin round.

        The weighted maintenance core's negative half: each task's plan
        probes for doomed provenance rows; results merge per head
        relation and leave through ``delete_existing`` under origin tags,
        so workers drop their own retained retraction rows without the
        parent re-shipping them.  (No rejection acks: deleting a
        never-present row is a no-op on both sides.)  Returns the
        per-relation effective deletions, or ``None`` on pool failure
        before any mutation.
        """
        evaluated = self._evaluate_round(db, tasks, relevant)
        if evaluated is None:
            return None
        _session, token, retain, masks = evaluated
        merged: "dict[str, dict[Row, int]]" = {}
        for (plan, _, _), rowmask in zip(tasks, masks):
            target = merged.setdefault(plan.rule.head.predicate, {})
            for row, mask in rowmask.items():
                target[row] = target.get(row, 0) | mask
        removed: "dict[str, set[Row]]" = {}
        for relation, rowmask in merged.items():
            instance = db[relation]
            if retain:
                for mask, group in self._group_by_mask(rowmask).items():
                    with db.tag_changes((token, mask)):
                        gone = instance.delete_existing(set(group))
                    if gone:
                        removed.setdefault(relation, set()).update(gone)
            else:
                gone = instance.delete_existing(set(rowmask))
                if gone:
                    removed.setdefault(relation, set()).update(gone)
        return removed

    # -- internals ---------------------------------------------------------

    def _evaluate_round(
        self,
        db: "Database",
        raw_tasks: "Sequence[RetractionTask]",
        relevant: "frozenset[str] | None",
    ):
        """Sync, shard, dispatch, and mask-merge one round.

        Returns ``(session, token, retain, per-task row masks)``, or
        ``None`` after any failure (the executor is then disabled and the
        pool closed; nothing has been mutated, so a sequential re-run of
        the same round is exact).
        """
        if not self.available:
            return None
        try:
            pool = self.pool
            if pool.reset_plans_if_full():
                self.sharder.clear()
            session = pool.session_for(db)
            if not pool.sync(session, relevant):
                # A previously stale relation became body-relevant: no
                # delta can repair it, so rebuild the session from a
                # fresh snapshot.
                pool.end_session(db)
                session = pool.session_for(db)
                pool.sync(session, relevant)
            workers = self.workers
            payloads: list[list] = [[] for _ in range(workers)]
            indices: list[list[int]] = [[] for _ in range(workers)]
            for task_index, (plan, delta_index, rows) in enumerate(raw_tasks):
                pid = pool.register_plan(plan)
                shards = self.sharder.shard(plan, delta_index, rows)
                for worker_index, shard in enumerate(shards):
                    if shard:
                        payloads[worker_index].append((pid, delta_index, shard))
                        indices[worker_index].append(task_index)
            pool.flush_plans()
            token = pool.next_round_token()
            retain = pool.protocol >= 2
            worker_results = pool.evaluate(session, payloads, token, retain)
            masks = Merger.combine_masks(len(raw_tasks), indices, worker_results)
            self.rounds += 1
            return session, token, retain, masks
        except Exception as error:  # noqa: BLE001 — any failure disables
            self.available = False
            try:
                self.pool.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass
            warnings.warn(
                "parallel evaluation disabled after a worker-pool failure; "
                f"continuing sequentially: {error}",
                RuntimeWarning,
                stacklevel=4,
            )
            return None

    @staticmethod
    def _group_by_mask(rowmask: "dict[Row, int]") -> "dict[int, list[Row]]":
        groups: "dict[int, list[Row]]" = {}
        for row, mask in rowmask.items():
            groups.setdefault(mask, []).append(row)
        return groups

    def _apply_insertions(
        self,
        db: "Database",
        session,
        token: int,
        retain: bool,
        tasks: "Sequence[Task]",
        masks: "Sequence[dict[Row, int]]",
    ) -> "tuple[dict[str, set[Row]], list[int]]":
        """Filter and insert one round's merged derivations.

        The parallel counterpart of :meth:`Merger.apply
        <repro.parallel.merge.Merger.apply>`: task by task, in rule
        order, run the head filter and feed survivors to ``insert_new``
        — grouped by producer mask and journaled under origin tags when
        complement shipping is on.  Afterwards, compute each worker's
        rejection acks: rows it derived for a head that survived *no*
        task's filter (a row accepted by any same-head task is present,
        so its producer must not skip it).
        """
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        span = (
            _tracing.start("merge", tasks=len(tasks))
            if _tracing.ENABLED
            else None
        )
        try:
            return self._apply_insertions_inner(
                db, session, token, retain, tasks, masks
            )
        finally:
            if span is not None:
                _tracing.finish(span)
            self.merge_wall_seconds += time.perf_counter() - wall0
            self.merge_cpu_seconds += time.process_time() - cpu0

    def _apply_insertions_inner(
        self,
        db: "Database",
        session,
        token: int,
        retain: bool,
        tasks: "Sequence[Task]",
        masks: "Sequence[dict[Row, int]]",
    ) -> "tuple[dict[str, set[Row]], list[int]]":
        next_deltas: "dict[str, set[Row]]" = {}
        produced: "dict[str, dict[Row, int]]" = {}
        survivors: "dict[str, set[Row]]" = {}
        task_rows: "list[int]" = []
        for (plan, _, _, head, head_filter), rowmask in zip(tasks, masks):
            if retain and rowmask:
                target = produced.setdefault(head, {})
                for row, mask in rowmask.items():
                    target[row] = target.get(row, 0) | mask
            if head_filter is not None:
                rowmask = {
                    row: mask
                    for row, mask in rowmask.items()
                    if head_filter(row)
                }
            task_rows.append(len(rowmask))
            if not rowmask:
                continue
            instance = db[head]
            if retain:
                survivors.setdefault(head, set()).update(rowmask)
                for mask, group in self._group_by_mask(rowmask).items():
                    with db.tag_changes((token, mask)):
                        added = instance.insert_new(group)
                    if added:
                        next_deltas.setdefault(head, set()).update(added)
            else:
                added = instance.insert_new(list(rowmask))
                if added:
                    next_deltas.setdefault(head, set()).update(added)
        if retain:
            rejections = session.rejections
            for head, rowmask in produced.items():
                accepted = survivors.get(head, ())
                by_worker: "dict[int, list[Row]]" = {}
                for row, mask in rowmask.items():
                    if row in accepted:
                        continue
                    worker = 0
                    while mask:
                        if mask & 1:
                            by_worker.setdefault(worker, []).append(row)
                        mask >>= 1
                        worker += 1
                for worker, rows in by_worker.items():
                    rejections[(token, head, worker)] = tuple(rows)
        return next_deltas, task_rows

    def close(self) -> None:
        """Shut the pool down; the executor becomes unavailable."""
        self.available = False
        self.pool.close()

    def stats(self) -> dict:
        """Executor + pool + transport counters (see ``WorkerPool.stats``)."""
        data = {
            "available": self.available,
            "rounds": self.rounds,
            "merge_wall_seconds": self.merge_wall_seconds,
            "merge_cpu_seconds": self.merge_cpu_seconds,
        }
        data.update(self.pool.stats())
        return data

    def __repr__(self) -> str:
        state = "available" if self.available else "disabled"
        return (
            f"<ParallelExecutor {self.workers} workers ({state}), "
            f"{self.rounds} rounds>"
        )
