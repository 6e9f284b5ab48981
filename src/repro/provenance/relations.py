"""Relational encoding of provenance (Sections 4.1.2 and 5).

Each mapping rule ``(mi) R(x, f(x)) :- phi(x, y)`` is rewritten into

* ``(m'i)  PRi(x, y) :- phi(x, y)``     — the provenance table: one row per
  rule-body instantiation (a mapping node of the provenance graph), and
* ``(m''i) R(x, f(x)) :- PRi(x, y)``    — deriving the data instance from
  the provenance encoding,

plus, for trust (Section 3.3's (iR) rule realized per mapping so trust
conditions can attach to individual mappings),

* ``(ti)  R__t(x, f(x)) :- PRi(x, y)``  — with the mapping's trust condition
  applied as a head filter during evaluation.

Two encodings are provided, matching the implementation alternatives the
paper compared (Section 5 "Provenance storage"):

* ``per-rule`` — one provenance table per (mapping, RHS atom), the direct
  encoding of Section 4.1.2;
* ``composite`` — one provenance table per tgd even when the tgd has
  multiple RHS atoms (the "composite mapping table" optimization the paper
  found faster in practice; the default here).

Provenance-table columns are the distinct LHS variables of the tgd ("it
suffices to just store the value of each unique variable in a rule
instantiation").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Callable, Iterator

from ..datalog.ast import Atom, Program, Rule, Term, Variable
from ..datalog.plan import _compile_pattern, _match_pattern, _tuple_getter
from ..schema.internal import InternalSchema, input_name, output_name, trusted_name
from ..schema.tgd import SchemaMapping
from ..storage.database import Database
from ..storage.instance import Row
from .expression import ProvenanceError
from .semiring import Token

ENCODING_COMPOSITE = "composite"
ENCODING_PER_RULE = "per-rule"
ENCODING_STYLES = (ENCODING_COMPOSITE, ENCODING_PER_RULE)

PROV_RULE_PREFIX = "prov:"
PROJ_RULE_PREFIX = "proj:"
TRUST_RULE_PREFIX = "trust:"

OUTPUT_SUFFIX_LEN = len("__o")

Probe = tuple[tuple[int, ...], tuple[object, ...]]
"""An index probe: ``(columns, values)`` for :meth:`Instance.lookup`."""


def _user_relation_of_internal(internal_rel: str) -> str:
    """Strip the ``__o`` / ``__i`` suffix from an internal relation name."""
    return internal_rel[:-OUTPUT_SUFFIX_LEN]


def trust_label(mapping_name: str, head_index: int) -> str:
    return f"{TRUST_RULE_PREFIX}{mapping_name}:{head_index}"


@dataclass(frozen=True)
class HeadTarget:
    """One RHS atom of a mapping, in its internal (``R__i``) Skolemized form."""

    mapping: str
    index: int
    atom: Atom  # head over R__i, Skolemized
    user_relation: str

    @property
    def proj_label(self) -> str:
        return f"{PROJ_RULE_PREFIX}{self.mapping}:{self.index}"

    @property
    def trust_label(self) -> str:
        return trust_label(self.mapping, self.index)


@dataclass(frozen=True)
class ProvenanceTable:
    """One provenance relation: its schema, defining body, and head targets."""

    mapping: str
    relation: str
    variables: tuple[Variable, ...]
    body: tuple[Atom, ...]  # over R__o internal names; may include negation
    heads: tuple[HeadTarget, ...]
    _var_index: dict[Variable, int] = field(
        default=None, compare=False, repr=False
    )  # type: ignore[assignment]
    _compiled: dict[int, CompiledHead] = field(
        default=None, compare=False, repr=False
    )  # type: ignore[assignment]
    _sources: tuple[tuple[str, Callable[[Row], Row]], ...] = field(
        default=None, compare=False, repr=False
    )  # type: ignore[assignment]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "_var_index",
            {var: i for i, var in enumerate(self.variables)},
        )
        object.__setattr__(
            self,
            "_compiled",
            {head.index: CompiledHead(self, head) for head in self.heads},
        )
        object.__setattr__(
            self,
            "_sources",
            tuple(
                (
                    _user_relation_of_internal(atom.predicate),
                    _tuple_getter(atom.terms, self._var_index),
                )
                for atom in self.body
                if not atom.negated
            ),
        )

    @property
    def arity(self) -> int:
        return len(self.variables)

    @property
    def prov_label(self) -> str:
        return f"{PROV_RULE_PREFIX}{self.mapping}:{self.relation}"

    @property
    def compiled_heads(self) -> tuple[CompiledHead, ...]:
        """The table's head targets, compiled for the retraction path."""
        return tuple(self._compiled.values())

    # -- row interpretation -------------------------------------------------
    #
    # A provenance row *is* an environment indexed by ``_var_index``, so
    # every projection and inverse probe below is compiled once, in
    # ``__post_init__``, with the plan compiler's templates.

    def head_row(self, head: HeadTarget, row: Row) -> Row:
        return self._compiled[head.index].project(row)

    def source_tuples(self, row: Row) -> tuple[Token, ...]:
        """The user-level (relation, tuple) pairs joined by this instantiation
        (positive body atoms only — these are the provenance-graph arcs *into*
        the mapping node)."""
        return tuple([(relation, get(row)) for relation, get in self._sources])

    def support_probe(self, head: HeadTarget, target_row: Row) -> Probe | None:
        """Columns/values probing this table for rows deriving ``target_row``.

        This is the *inverse rule* of Section 4.1.3: it "uses the existing
        provenance table to fill in the possible values ... that were
        projected away during the mapping".  Returns None if ``target_row``
        cannot possibly be derived through ``head`` (constant or Skolem
        mismatch).
        """
        return self._compiled[head.index].probe(target_row)

    def body_probe(self, atom_index: int, source_row: Row) -> Probe | None:
        """Columns/values probing this table for instantiations that joined
        ``source_row`` at positive body atom ``atom_index``.

        This is the deletion delta rule of Section 4.2: when a source tuple
        is deleted, the matching provenance rows are exactly the
        instantiations that used it.  Returns None on constant mismatch
        (the row cannot have matched this atom).
        """
        atom = self.body[atom_index]
        if atom.negated:
            raise ProvenanceError(
                f"body_probe on negated atom {atom!r} of {self.relation!r}"
            )
        return _inverse_probe(atom.terms, self)(source_row)

    def positive_body_atoms(self) -> tuple[tuple[int, Atom], ...]:
        """(index, atom) pairs for the positive body atoms."""
        return tuple(
            (index, atom)
            for index, atom in enumerate(self.body)
            if not atom.negated
        )

    def supporting_rows(
        self, db: Database, head: HeadTarget, target_row: Row
    ) -> AbstractSet[Row]:
        """All rows of this provenance table deriving ``target_row`` via
        ``head`` in the current database state.

        Returns a read-only view of the live index bucket (see
        :meth:`repro.storage.instance.Instance.lookup`); materialize before
        mutating the provenance table while iterating.
        """
        probe = self._compiled[head.index].probe(target_row)
        if probe is None:
            return frozenset()
        return db[self.relation].lookup(*probe)

    # -- rule generation ------------------------------------------------------

    def prov_rule(self) -> Rule:
        """``(m') PRi(vars) :- body``."""
        return Rule(
            Atom(self.relation, self.variables),
            self.body,
            label=self.prov_label,
        )

    def proj_rules(self) -> tuple[Rule, ...]:
        """``(m'') R__i(head) :- PRi(vars)`` for each head target."""
        prov_atom = Atom(self.relation, self.variables)
        return tuple(
            Rule(head.atom, (prov_atom,), label=head.proj_label)
            for head in self.heads
        )

    def trust_rules(self) -> tuple[Rule, ...]:
        """``(ti) R__t(head) :- PRi(vars)`` for each head target."""
        prov_atom = Atom(self.relation, self.variables)
        return tuple(
            Rule(
                head.atom.with_predicate(
                    trusted_name(head.user_relation)
                ),
                (prov_atom,),
                label=head.trust_label,
            )
            for head in self.heads
        )


class CompiledHead:
    """One ``(table, head)`` pair compiled for the retraction path.

    ``project(prow)`` is rule ``(m'')`` applied to one provenance row: the
    head row it derives.  ``probe(row)`` is its inverse (Section 4.1.3):
    the ``(columns, values)`` probe of the table for the rows deriving
    ``row``, or None when no row can (constant, repeated-variable or
    Skolem mismatch).  Both are built once; the hot loops of deletion
    propagation and derivability testing only call them.  Unpacks as the
    ``(table, head)`` pair it was compiled from.
    """

    __slots__ = (
        "table",
        "head",
        "relation",
        "user_relation",
        "trust_label",
        "project",
        "probe",
    )

    def __init__(self, table: ProvenanceTable, head: HeadTarget) -> None:
        self.table = table
        self.head = head
        self.relation = table.relation
        self.user_relation = head.user_relation
        self.trust_label = head.trust_label
        self.project = _tuple_getter(head.atom.terms, table._var_index)
        self.probe = _inverse_probe(head.atom.terms, table)

    def __iter__(self) -> Iterator[ProvenanceTable | HeadTarget]:
        return iter((self.table, self.head))


def _inverse_probe(
    terms: tuple[Term, ...], table: ProvenanceTable
) -> Callable[[Row], Probe | None]:
    """Compile the inverse of instantiating ``terms`` from a row of
    ``table``: a function from a ground row to the ``(columns, values)``
    probe of the table's rows that instantiate to it, or None.

    All-distinct-variable terms (full tgds) probe with the row itself as
    the values.  Otherwise constants, repeated variables and Skolem
    patterns become the plan compiler's pattern ops; variables are
    numbered in first-occurrence order, which is the order the matcher
    collects their values in.
    """
    slot_of: dict[Variable, int] = {}
    patterns = tuple(_compile_pattern(term, slot_of, 0) for term in terms)
    columns = tuple(table._var_index[var] for var in slot_of)
    if len(slot_of) == len(terms) and all(
        isinstance(term, Variable) for term in terms
    ):
        return lambda row: (columns, row)

    def probe(row: Row) -> Probe | None:
        values: list[object] = []
        for pattern, value in zip(patterns, row, strict=True):
            if not _match_pattern(pattern, value, (), values):
                return None
        return columns, tuple(values)

    return probe


def _mapping_tables(
    mapping: SchemaMapping, style: str
) -> tuple[ProvenanceTable, ...]:
    skolems = mapping.skolem_terms()
    lhs_vars: list[Variable] = []
    for atom in mapping.lhs:
        for var in atom.variables():
            if var not in lhs_vars:
                lhs_vars.append(var)
    body = tuple(
        Atom(output_name(atom.predicate), atom.terms, negated=atom.negated)
        for atom in mapping.lhs
    )

    def head_target(index: int, atom: Atom) -> HeadTarget:
        terms = tuple(
            skolems.get(t, t) if isinstance(t, Variable) else t
            for t in atom.terms
        )
        return HeadTarget(
            mapping=mapping.name,
            index=index,
            atom=Atom(input_name(atom.predicate), terms),
            user_relation=atom.predicate,
        )

    heads = tuple(
        head_target(index, atom) for index, atom in enumerate(mapping.rhs)
    )
    if style == ENCODING_COMPOSITE:
        return (
            ProvenanceTable(
                mapping=mapping.name,
                relation=f"__prov_{mapping.name}",
                variables=tuple(lhs_vars),
                body=body,
                heads=heads,
            ),
        )
    if style == ENCODING_PER_RULE:
        return tuple(
            ProvenanceTable(
                mapping=mapping.name,
                relation=f"__prov_{mapping.name}_{head.index}",
                variables=tuple(lhs_vars),
                body=body,
                heads=(head,),
            )
            for head in heads
        )
    raise ProvenanceError(f"unknown provenance encoding style {style!r}")


@dataclass(frozen=True)
class ProvenanceEncoding:
    """The full relational provenance encoding for an internal schema."""

    internal: InternalSchema
    style: str = ENCODING_COMPOSITE
    tables: tuple[ProvenanceTable, ...] = field(default=None, compare=False)  # type: ignore[assignment]
    _targets: dict[str, tuple[CompiledHead, ...]] = field(
        default=None, compare=False, repr=False
    )  # type: ignore[assignment]

    def __post_init__(self) -> None:
        tables: list[ProvenanceTable] = []
        targets: dict[str, list[CompiledHead]] = {}
        for mapping in self.internal.mappings:
            for table in _mapping_tables(mapping, self.style):
                tables.append(table)
                for compiled in table.compiled_heads:
                    targets.setdefault(compiled.user_relation, []).append(
                        compiled
                    )
        object.__setattr__(self, "tables", tuple(tables))
        object.__setattr__(
            self,
            "_targets",
            {relation: tuple(found) for relation, found in targets.items()},
        )

    # -- lookups ----------------------------------------------------------

    def table_named(self, relation: str) -> ProvenanceTable:
        for table in self.tables:
            if table.relation == relation:
                return table
        raise ProvenanceError(f"no provenance table named {relation!r}")

    def tables_for_mapping(self, mapping: str) -> tuple[ProvenanceTable, ...]:
        return tuple(t for t in self.tables if t.mapping == mapping)

    def targets_for_relation(
        self, user_relation: str
    ) -> tuple[CompiledHead, ...]:
        """Every compiled (table, head) pair that can derive tuples of a
        relation."""
        return self._targets.get(user_relation, ())

    def iter_heads(self) -> Iterator[tuple[ProvenanceTable, HeadTarget]]:
        for table in self.tables:
            for head in table.heads:
                yield table, head

    # -- program assembly ----------------------------------------------------

    def mapping_program(self) -> Program:
        """(m') + (m'') + trust rules for all mappings."""
        rules: list[Rule] = []
        for table in self.tables:
            rules.append(table.prov_rule())
            rules.extend(table.proj_rules())
            rules.extend(table.trust_rules())
        return Program(tuple(rules), name=f"provenance-{self.style}")

    def full_program(self) -> Program:
        """The complete update-exchange program: mapping rules with
        provenance encoding plus the (tR)/(lR) bookkeeping rules."""
        return self.mapping_program().extend(
            self.internal.bookkeeping_rules()
        )

    def setup_database(self, db: Database) -> None:
        self.internal.setup_database(db)
        for table in self.tables:
            db.ensure(table.relation, table.arity)

    def provenance_relation_names(self) -> tuple[str, ...]:
        return tuple(t.relation for t in self.tables)
