"""The unified weighted-delta maintenance core.

One maintainer now serves every update-exchange edit — insertions,
deletions, and trust revocations — by feeding **signed Z-set deltas**
(:class:`repro.storage.zset.ZSet`) through the same compiled plan
pipeline (``repro.datalog.plan``) the insertion fast path has always
used.  This replaces the two separate machines the repository grew up
with: the per-row PropagateDelete interpretation in the old
``core/incremental.py`` and the DRed over-delete/re-derive baseline in
``core/dred.py`` (both remain as thin shims over this class).

How retraction reuses the insertion machinery
---------------------------------------------

Insertion delta rules evaluate a rule with one body atom pinned to a
Δ-relation; the compiled probe template is *sign-agnostic* — it joins
whatever rows the Δ carries.  For a negative output delta ``ΔR__o⁻``,
the affected provenance rows of table ``P`` with an ``R__o`` occurrence
at body index ``i`` are exactly the semijoin ``P ⋉ ΔR__o⁻`` on the
occurrence's columns, which this module expresses as a synthetic delta
rule::

    P(vars) :- R__o(terms_i), P(vars)      (Δ pinned at body index 0)

compiled and cached through the engine's plan cache exactly like an
insertion delta rule — so retraction probes run on the same warm plans
and probe indexes, and (with a worker pool) ship through the same
shard-parallel executor and :class:`~repro.parallel.merge.Merger`.

Weights and ``distinct``
------------------------

The stored relations are sets, so a derived row's *weight* is its number
of surviving derivations: the provenance rows supporting it.  After the
semijoin pass deletes doomed provenance rows, each affected row's weight
is recounted from the remaining support; rows whose weight reached zero
are deleted outright, and rows with remaining support are checked for
*groundedness* with the goal-directed derivability test (cyclic support
must not keep a row alive — a pure count cannot see that, which is why
:class:`~repro.core.derivation.DerivationTest` stays).  Output tables
then normalize back to set semantics (``distinct``): a row is in
``R__o`` iff its accumulated support is positive and it is not rejected.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..datalog.ast import Atom, DatalogError, Program, Rule
from ..datalog.engine import SemiNaiveEngine
from ..obs import tracing as _tracing
from ..datalog.plan import run_plan
from ..provenance.relations import ProvenanceEncoding, ProvenanceTable
from ..provenance.semiring import Token
from ..schema.internal import (
    LOCAL_RULE_PREFIX,
    input_name,
    local_name,
    output_name,
    rejection_name,
    trusted_name,
)
from ..storage.database import Database
from ..storage.instance import Row
from ..storage.zset import ZSet
from .derivation import DerivationTest, HeadFilters

Rows = Mapping[str, "set[Row] | list[Row] | frozenset[Row]"]

#: Contributions below this Δ size are always probed in-process: shipping
#: a handful of rows to the worker pool costs more than the semijoin.
PARALLEL_DELETION_MIN_ROWS = 256


@dataclass
class DeletionReport:
    """What one weighted retraction pass did."""

    iterations: int = 0
    provenance_rows_deleted: int = 0
    tuples_deleted: dict[str, int] = field(default_factory=dict)
    derivability_checks: int = 0
    output_deletions: dict[str, set[Row]] = field(default_factory=dict)

    @property
    def total_deleted(self) -> int:
        return sum(self.tuples_deleted.values())

    def _count(self, relation: str, n: int = 1) -> None:
        self.tuples_deleted[relation] = (
            self.tuples_deleted.get(relation, 0) + n
        )


@dataclass
class InsertionReport:
    """What one incremental insertion pass derived."""

    derived: dict[str, set[Row]] = field(default_factory=dict)

    @property
    def total_derived(self) -> int:
        return sum(len(rows) for rows in self.derived.values())


class WeightedMaintainer:
    """Signed-delta maintenance over a provenance-encoded database."""

    def __init__(
        self,
        db: Database,
        encoding: ProvenanceEncoding,
        program: Program,
        engine: SemiNaiveEngine,
    ) -> None:
        self.db = db
        self.encoding = encoding
        self.program = program
        self.engine = engine
        # user relation -> [(provenance table, synthetic semijoin rule)]
        # per R__o body occurrence.  The rule objects are held for the
        # life of the maintainer: the engine's plan cache is keyed by
        # rule identity, so every retraction round after the first runs
        # on memoized compiled plans.
        self._deletion_rules: dict[
            str, list[tuple[ProvenanceTable, Rule]]
        ] = {}
        self._table_by_name: dict[str, ProvenanceTable] = {}
        for table in encoding.tables:
            self._table_by_name[table.relation] = table
            prov_atom = Atom(table.relation, table.variables)
            for _, atom in table.positive_body_atoms():
                user_rel = _strip_output(atom.predicate)
                rule = Rule(prov_atom, (atom, prov_atom))
                self._deletion_rules.setdefault(user_rel, []).append(
                    (table, rule)
                )
        # The delta-shipping filter for parallel retraction rounds: the
        # same body-predicate set the insertion rounds use, so worker
        # replicas stay current on one consistent relation set.
        self._relevant = engine._body_predicates(program)
        # Mappings with negated LHS atoms make deletion non-monotone (a
        # deletion can create tuples); incremental maintenance then requires
        # full recomputation.
        self.has_negated_mappings = any(
            atom.negated for table in encoding.tables for atom in table.body
        )
        # Cumulative wall/CPU seconds spent in propagate_deletions — the
        # always-on clock behind ExchangeReport.phases["retract"].
        self.retract_wall_seconds = 0.0
        self.retract_cpu_seconds = 0.0

    @property
    def head_filters(self) -> HeadFilters:
        return self.engine.head_filters

    # -- unified entry point -----------------------------------------------

    def apply(
        self,
        local: Mapping[str, ZSet],
        rejections: Mapping[str, ZSet],
    ) -> tuple[DeletionReport, InsertionReport, InsertionReport]:
        """Apply one signed publish delta in a single maintenance pass.

        ``local`` carries the peer's local-contribution Z-sets (``+1``
        published rows, ``-1`` retracted ones), ``rejections`` the
        rejection-table Z-sets (``+1`` trust revocations, ``-1``
        re-admissions).  The retraction side runs first so a row deleted
        and re-published in the same batch lands in its final state, then
        re-admissions and insertions share the insertion fast path.
        """
        with _tracing.span("retraction"):
            deletion = self.propagate_deletions(
                {name: z.negative() for name, z in local.items()},
                {name: z.positive() for name, z in rejections.items()},
            )
        with _tracing.span("unrejection"):
            unrejected = self.apply_unrejections(
                {name: z.negative() for name, z in rejections.items()}
            )
        with _tracing.span("insertion"):
            inserted = self.apply_insertions(
                {name: z.positive() for name, z in local.items()}
            )
        return deletion, unrejected, inserted

    # -- shared helpers ------------------------------------------------------

    def _output_sync(
        self, relation: str, deltas: dict[str, ZSet]
    ) -> Callable[[Row], None]:
        """Reconcile ``R__o`` memberships of one relation, row by row.

        This is the ``distinct`` normalization at the output boundary:
        membership is "accumulated support is positive" (a surviving
        filtered local contribution, or trusted-and-not-rejected), never
        a multiplicity.  A row that leaves ``R__o`` accumulates ``-1`` in
        ``deltas``.  The relation's tables are resolved once per call, not
        once per row."""
        db = self.db
        local = db[local_name(relation)]
        token_filter = self.head_filters.get(LOCAL_RULE_PREFIX + relation)
        trusted = db[trusted_name(relation)]
        rejected = db[rejection_name(relation)]
        out = db[output_name(relation)]

        def sync(row: Row) -> None:
            if (
                row in local
                and (token_filter is None or token_filter(row))
            ) or (row in trusted and row not in rejected):
                out.insert(row)
            elif out.delete(row):
                deltas.setdefault(relation, ZSet()).add(row, -1)

        return sync

    # -- insertions (positive deltas) ---------------------------------------

    def apply_insertions(self, local_inserts: Rows) -> InsertionReport:
        """Insert new local contributions and propagate to fixpoint.

        Trust conditions are enforced during derivation by the engine's head
        filters (Section 4.2's "starting point ... is already-trusted data,
        plus new base insertions which can be directly tested for trust").
        """
        report = InsertionReport()
        with self.db.defer_maintenance():
            seeds: dict[str, set[Row]] = {}
            for relation, rows in local_inserts.items():
                target = self.db[local_name(relation)]
                fresh = {
                    tuple(row) for row in rows if target.insert(tuple(row))
                }
                if fresh:
                    seeds[local_name(relation)] = fresh
            if seeds:
                derived = self.engine.run_insertions(
                    self.program, self.db, seeds
                )
                report.derived = derived
        return report

    def apply_unrejections(self, rejection_deletes: Rows) -> InsertionReport:
        """Remove rejections; re-admitted tuples propagate as insertions.

        Deleting from the negated relation ``R__r`` can only *add* tuples to
        ``R__o`` (rule (tR)), which we compute directly for the touched rows
        and then propagate with the insertion delta rules.
        """
        report = InsertionReport()
        with self.db.defer_maintenance():
            seeds: dict[str, set[Row]] = {}
            for relation, rows in rejection_deletes.items():
                rejection = self.db[rejection_name(relation)]
                trusted = self.db[trusted_name(relation)]
                out = self.db[output_name(relation)]
                for row in map(tuple, rows):
                    if not rejection.delete(row):
                        continue
                    if row in trusted and out.insert(row):
                        seeds.setdefault(output_name(relation), set()).add(row)
            if seeds:
                derived = self.engine.run_insertions(
                    self.program, self.db, seeds
                )
                report.derived = derived
        return report

    # -- retractions (negative deltas) --------------------------------------

    def propagate_deletions(
        self,
        local_deletes: Rows | None = None,
        rejection_inserts: Rows | None = None,
    ) -> DeletionReport:
        """Propagate a negative delta (deletions + trust revocations)."""
        if self.has_negated_mappings:
            raise NotImplementedError(
                "incremental deletion is unsupported for mappings with "
                "negated LHS atoms (deletions become non-monotone); use the "
                "full-recomputation strategy"
            )
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        try:
            # One deferral scope around the whole run: the per-row
            # provenance and output deletions append maintenance runs
            # instead of patching every index, and the derivability probes
            # catch up in batched passes (see repro.storage.indexes).
            with self.db.defer_maintenance():
                return self._propagate_deletions_deferred(
                    local_deletes, rejection_inserts
                )
        finally:
            self.retract_wall_seconds += time.perf_counter() - wall0
            self.retract_cpu_seconds += time.process_time() - cpu0

    def _propagate_deletions_deferred(
        self,
        local_deletes: Rows | None,
        rejection_inserts: Rows | None,
    ) -> DeletionReport:
        report = DeletionReport()
        output_deltas: dict[str, ZSet] = {}
        pending_affected: set[Token] = set()

        # Phase 0: fold the curation changes into the edbs and compute the
        # initial negative R__o delta.  A deleted local contribution may
        # leave its tuple apparently supported through R__t, but that
        # support can be circular — so such tuples join the affected set
        # and go through the derivability machinery rather than being
        # trusted blindly.
        for relation, rows in (local_deletes or {}).items():
            local = self.db[local_name(relation)]
            for row in map(tuple, rows):
                if local.delete(row):
                    report._count(local_name(relation))
                    pending_affected.add((relation, row))
        for relation, rows in (rejection_inserts or {}).items():
            rejection = self.db[rejection_name(relation)]
            sync = self._output_sync(relation, output_deltas)
            for row in map(tuple, rows):
                if rejection.insert(row):
                    # Rejection removes the R__o row directly (rule (tR));
                    # R__t itself is unaffected, so no derivability check.
                    sync(row)
        self._record_output_deltas(report, output_deltas)

        # Main loop: one round per negative-delta stratum, mirroring the
        # insertion rounds' shape.
        while any(output_deltas.values()) or pending_affected:
            report.iterations += 1
            affected: set[Token] = set(pending_affected)
            pending_affected = set()

            # Semijoin pass: evaluate every (provenance table, occurrence)
            # delta rule against the round's negative R__o delta — the
            # compiled probe templates are the insertion machinery, fed a
            # negative delta.  All probes read the pre-deletion state (a
            # provenance row doomed through one occurrence must still be
            # visible to the others), then the doomed rows leave in one
            # bulk retraction per table.
            removed = self._retract_doomed_provenance_rows(output_deltas)
            for name, rows in removed.items():
                report.provenance_rows_deleted += len(rows)
                for target in self._table_by_name[name].compiled_heads:
                    relation, project = target.user_relation, target.project
                    affected.update((relation, project(prow)) for prow in rows)

            # Weight bookkeeping, one relation at a time: recount each
            # affected row's remaining direct support.  Weight zero -> the
            # row is gone outright; positive weight -> groundedness check
            # (cyclic support is weight a count cannot distinguish from
            # live derivations).
            by_relation: dict[str, list[Row]] = {}
            for relation, row in affected:
                by_relation.setdefault(relation, []).append(row)
            # Rows with support left -> whether some of it is trusted.
            direct: dict[Token, bool] = {}
            for relation, rows in by_relation.items():
                targets = [
                    (
                        target.probe,
                        self.db[target.relation].lookup,
                        self.head_filters.get(target.trust_label),
                    )
                    for target in self.encoding.targets_for_relation(relation)
                ]
                for row in rows:
                    any_support = trusted_support = False
                    for probe, lookup, trust in targets:
                        key = probe(row)
                        if key is None or not lookup(*key):
                            continue
                        any_support = True
                        if trust is None or trust(row):
                            trusted_support = True
                            break
                    if any_support:
                        direct[(relation, row)] = trusted_support

            verdicts = {}
            if direct:
                tester = DerivationTest(
                    self.db, self.encoding, self.head_filters
                )
                verdicts = tester.derivable(direct)
                report.derivability_checks += len(direct)

            output_deltas = {}
            for relation, rows in by_relation.items():
                inputs = self.db[input_name(relation)]
                trusted = self.db[trusted_name(relation)]
                sync = self._output_sync(relation, output_deltas)
                for row in rows:
                    node = (relation, row)
                    trusted_support = direct.get(node)
                    if trusted_support is None:  # no support left
                        keep_input = keep_trusted = False
                    else:
                        verdict = verdicts[node]
                        keep_input = verdict.any
                        keep_trusted = verdict.trusted and trusted_support
                    if not keep_input and inputs.delete(row):
                        report._count(input_name(relation))
                    if not keep_trusted and trusted.delete(row):
                        report._count(trusted_name(relation))
                    sync(row)

            self._record_output_deltas(report, output_deltas)

        return report

    def _record_output_deltas(
        self, report: DeletionReport, output_deltas: dict[str, ZSet]
    ) -> None:
        for relation, zset in output_deltas.items():
            rows = zset.negative()
            report._count(output_name(relation), len(rows))
            report.output_deletions.setdefault(relation, set()).update(rows)

    def _retract_doomed_provenance_rows(
        self, output_deltas: dict[str, ZSet]
    ) -> dict[str, set[Row]]:
        """Evaluate and apply the retraction semijoins for one round.

        Returns the *effective* deletions per provenance table (rows that
        were actually present), deduplicated across occurrences.  Rounds
        big enough to amortize Δ-shipping go through the shard-parallel
        executor's :meth:`~repro.parallel.executor.ParallelExecutor.
        run_retraction_round` — which also journals the deletions under
        producer-worker origin tags so replicas drop their own retained
        retraction rows without re-shipping (replication protocol v2);
        everything else — and any pool failure — runs the same plans
        in-process and retracts through :meth:`Merger.apply_retractions
        <repro.parallel.merge.Merger.apply_retractions>`.
        """
        tasks: list[tuple[ProvenanceTable, Rule, list[Row]]] = []
        total_rows = 0
        for relation, zset in output_deltas.items():
            rows = zset.negative()
            if not rows:
                continue
            total_rows += len(rows)
            for table, rule in self._deletion_rules.get(relation, ()):
                tasks.append((table, rule, rows))

        if not tasks:
            return {}

        executor = (
            self.engine._executor()
            if total_rows >= PARALLEL_DELETION_MIN_ROWS
            else None
        )
        if executor is not None:
            plans = [
                (self.engine.cached_plan(rule, self.db, 0), 0, rows)
                for _, rule, rows in tasks
            ]
            removed = executor.run_retraction_round(
                self.db, plans, self._relevant
            )
            if removed is not None:
                self.engine.stats.parallel_rounds += 1
                return removed
            # Pool failure: nothing was mutated; fall through and run the
            # very same round sequentially.

        doomed: dict[str, set[Row]] = {}
        for table, rule, rows in tasks:
            matched = self._run_deletion_rule(rule, rows)
            if matched:
                doomed.setdefault(table.relation, set()).update(matched)
        from ..parallel.merge import Merger

        return Merger.apply_retractions(self.db, list(doomed.items()))

    def _run_deletion_rule(self, rule: Rule, delta_rows: list[Row]) -> list[Row]:
        """One semijoin evaluation: the rule's Δ atom (body index 0) pinned
        to the negative delta, everything else resolved from the live db —
        the same memoized plan + pooled Δ-instance path insertion delta
        rules run on."""
        delta_atom = rule.body[0]
        delta_source = self.engine.delta_instance(
            delta_atom.predicate, delta_atom.arity, delta_rows
        )
        plan = self.engine.cached_plan(rule, self.db, 0)

        def resolve(index: int, atom: Atom):
            if index == 0:
                return delta_source
            return self.db[atom.predicate]

        return run_plan(plan, resolve)


def _strip_output(internal_rel: str) -> str:
    # A real error, not an assert: this guards the deletion delta rules'
    # relation naming and must hold under ``python -O`` too.
    if not internal_rel.endswith("__o"):
        raise DatalogError(
            f"expected an output relation (R__o), got {internal_rel!r}"
        )
    return internal_rel[: -len("__o")]
