"""Goal-directed derivation testing (Section 4.1.3).

Given a set of tuples whose derivability is in question (``Rchk``), the test
must decide whether each is (still) derivable from edbs — the local
contributions tables — using the stored provenance.  The paper inverts the
mapping rules: the provenance tables "fill in the possible values that were
projected away during the mapping", so the relevant slice of the database
can be walked *backwards* from the checked tuples, after which the original
mappings are re-run over the slice to validate genuine (well-founded)
derivability.

Our implementation realizes exactly that plan:

1. **Backward slice** — from each checked tuple, follow the compiled
   inverse rules (``probe`` of each
   :class:`~repro.provenance.relations.CompiledHead`) recursively to
   collect every provenance-table row and source tuple that could
   participate in a derivation.
2. **Grounding** — compute the least fixpoint of "derivable from local
   contributions" *within the slice*: a tuple is grounded iff it is a
   filtered local contribution, or some trusted supporting rule
   instantiation has all its sources grounded and the tuple is not
   rejected.  Cyclic mutual support grounds nothing, which is the entire
   point (Section 4.2's "garbage collection" of tuples only derivable
   through loops).

Two verdicts are produced per checked tuple, because the internal schema
distinguishes the unfiltered input table from the trusted/curated chain:

* ``trusted`` — the tuple belongs in ``R__o`` (trusted derivation, not
  rejected, or a local contribution);
* ``any`` — the tuple belongs in ``R__i`` (some derivation from grounded
  sources exists, trusted or not, rejection irrelevant).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from ..provenance.relations import ProvenanceEncoding
from ..provenance.semiring import Token
from ..schema.internal import LOCAL_RULE_PREFIX, local_name, rejection_name
from ..storage.database import Database
from ..storage.instance import Row

HeadFilters = Mapping[str, Callable[[Row], bool]]


@dataclass(frozen=True)
class DerivabilityVerdict:
    """The three derivability answers for one checked tuple, one per stage
    of the internal chain ``R__i -> R__t -> R__o`` (Fig. 2)."""

    output: bool  # belongs in R__o (local, or trusted + not rejected)
    trusted: bool  # belongs in R__t (trusted derivation; rejection ignored)
    any: bool  # belongs in R__i (some derivation, trust ignored)


@dataclass
class DerivationTest:
    """Reusable derivability tester bound to one database + encoding."""

    db: Database
    encoding: ProvenanceEncoding
    head_filters: HeadFilters = field(default_factory=dict)

    # Instrumentation (read by benchmarks/tests):
    slice_tuples_visited: int = 0
    support_rows_visited: int = 0

    # -- filters -----------------------------------------------------------

    def _local_ok(self, relation: str, row: Row) -> bool:
        if row not in self.db[local_name(relation)]:
            return False
        token_filter = self.head_filters.get(LOCAL_RULE_PREFIX + relation)
        return token_filter is None or token_filter(row)

    def _trust_ok(self, trust_label: str, row: Row) -> bool:
        condition = self.head_filters.get(trust_label)
        return condition is None or condition(row)

    def _rejected(self, relation: str, row: Row) -> bool:
        return row in self.db[rejection_name(relation)]

    # -- the test -------------------------------------------------------------

    def derivable(
        self, checks: Iterable[Token]
    ) -> dict[Token, DerivabilityVerdict]:
        """Decide derivability-from-edbs for each checked (relation, row)."""
        checks = [(relation, tuple(row)) for relation, row in checks]
        check_set = set(checks)
        # node -> [(source tuples of one supporting row, trusted_step)]
        support: dict[Token, list[tuple[tuple[Token, ...], bool]]] = {}
        visited: set[Token] = set()
        stack: list[Token] = list(checks)

        # 1. Backward slice via the inverse rules.
        while stack:
            node = stack.pop()
            if node in visited:
                continue
            visited.add(node)
            self.slice_tuples_visited += 1
            relation, row = node
            is_check = node in check_set
            if (
                not is_check
                and self._rejected(relation, row)
                and not self._local_ok(relation, row)
            ):
                # A rejected non-local tuple cannot be in R__o, so as a
                # *source* it is dead; its mapped support is irrelevant.
                continue
            entries: list[tuple[tuple[Token, ...], bool]] = []
            for target in self.encoding.targets_for_relation(relation):
                trusted_step = self._trust_ok(target.trust_label, row)
                if not is_check and not trusted_step:
                    # Untrusted support only matters for R__i verdicts of
                    # checked tuples.
                    continue
                probe = target.probe(row)
                if probe is None:
                    continue
                source_tuples = target.table.source_tuples
                for prow in self.db[target.relation].lookup(*probe):
                    self.support_rows_visited += 1
                    sources = source_tuples(prow)
                    entries.append((sources, trusted_step))
                    for source in sources:
                        if source not in visited:
                            stack.append(source)
            support[node] = entries

        # 2. Grounding fixpoint within the slice (R__o semantics).
        grounded: set[Token] = {
            node for node in visited if self._local_ok(node[0], node[1])
        }
        changed = True
        while changed:
            changed = False
            for node, entries in support.items():
                if node in grounded:
                    continue
                relation, row = node
                if self._rejected(relation, row):
                    continue
                for sources, trusted_step in entries:
                    if not trusted_step:
                        continue
                    if all(source in grounded for source in sources):
                        grounded.add(node)
                        changed = True
                        break

        # 3. Verdicts.
        verdicts: dict[Token, DerivabilityVerdict] = {}
        for node in checks:
            trusted = False
            any_support = False
            for sources, trusted_step in support.get(node, ()):
                if all(source in grounded for source in sources):
                    any_support = True
                    if trusted_step:
                        trusted = True
                        break
            verdicts[node] = DerivabilityVerdict(
                output=node in grounded,
                trusted=trusted,
                any=any_support,
            )
        return verdicts

    def is_derivable(self, relation: str, row: Iterable[object]) -> bool:
        """True iff the tuple belongs in ``R__o`` (trusted derivability)."""
        node = (relation, tuple(row))
        return self.derivable([node])[node].output
