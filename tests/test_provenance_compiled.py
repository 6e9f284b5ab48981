"""Differential tests: the compiled provenance-row projections and inverse
probes against the interpretive definitions in :mod:`repro.datalog.ast`.

For every ``(table, head)`` of an encoding, ``head_row`` and
``source_tuples`` must equal :func:`instantiate_atom` under the row's
substitution, and ``support_probe`` must equal :func:`match_atom` of the
head against the target row — including rows that cannot match: a wrong
constant, a wrong Skolem function, a plain value where a labeled null is
expected, and conflicting values for a repeated variable.
"""

import itertools
import random
from dataclasses import replace

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.datalog.ast import (
    Atom,
    Constant,
    SkolemTerm,
    SkolemValue,
    Variable,
    instantiate_atom,
    match_atom,
)
from repro.provenance import (
    ENCODING_COMPOSITE,
    ENCODING_PER_RULE,
    ProvenanceEncoding,
)
from repro.schema import (
    InternalSchema,
    PeerSchema,
    RelationSchema,
    SchemaMapping,
    is_weakly_acyclic,
)
from repro.workload import CDSSWorkloadGenerator, WorkloadConfig

STYLES = (ENCODING_COMPOSITE, ENCODING_PER_RULE)

# -- the interpretive reference ----------------------------------------------


def ref_head_row(table, head, prow):
    return instantiate_atom(head.atom, dict(zip(table.variables, prow)))


def ref_source_tuples(table, prow):
    subst = dict(zip(table.variables, prow))
    return tuple(
        (atom.predicate[: -len("__o")], instantiate_atom(atom, subst))
        for atom in table.body
        if not atom.negated
    )


def ref_probe(table, head, row):
    """{column: value} a row of ``table`` must hold to derive ``row``."""
    subst = match_atom(head.atom, row, {})
    if subst is None:
        return None
    return {table.variables.index(var): value for var, value in subst.items()}


def compiled_probe(table, head, row):
    probe = table.support_probe(head, row)
    if probe is None:
        return None
    columns, values = probe
    assert len(columns) == len(values) == len(set(columns))
    return dict(zip(columns, values))


# -- rows that must not match -------------------------------------------------


def _occurrences(terms):
    """How often each variable occurs in ``terms``, Skolem args included."""
    counts = {}
    for term in terms:
        if isinstance(term, SkolemTerm):
            for var in _occurrences(term.args):
                counts[var] = counts.get(var, 0) + 1
        elif isinstance(term, Variable):
            counts[term] = counts.get(term, 0) + 1
    return counts


def mismatches(head, row):
    """(kind, row) variants of a derivable ``row`` that no provenance row
    can derive through ``head``."""
    terms = head.atom.terms
    repeated = {v for v, n in _occurrences(terms).items() if n > 1}
    out = []

    def swap(position, value):
        return row[:position] + (value,) + row[position + 1 :]

    for position, term in enumerate(terms):
        value = row[position]
        if isinstance(term, Constant):
            out.append(("wrong-constant", swap(position, ("not", value))))
        elif isinstance(term, SkolemTerm):
            out.append(("plain-for-null", swap(position, "plain")))
            out.append(
                (
                    "wrong-skolem",
                    swap(
                        position,
                        SkolemValue(value.function_name + "_x", value.args),
                    ),
                )
            )
            for index, arg in enumerate(term.args):
                if arg in repeated:
                    args = list(value.args)
                    args[index] = ("not", args[index])
                    out.append(
                        (
                            "repeated-conflict",
                            swap(
                                position,
                                SkolemValue(value.function_name, tuple(args)),
                            ),
                        )
                    )
        elif term in repeated:
            out.append(("repeated-conflict", swap(position, ("not", value))))
    return out


def check_encoding(encoding, prows_for, rng):
    """Compare compiled against reference on every (table, head); returns
    the mismatch kinds exercised."""
    kinds = set()
    for table in encoding.tables:
        for prow in prows_for(table):
            assert table.source_tuples(prow) == ref_source_tuples(table, prow)
            for head in table.heads:
                row = table.head_row(head, prow)
                assert row == ref_head_row(table, head, prow)
                expected = ref_probe(table, head, row)
                assert expected is not None
                assert compiled_probe(table, head, row) == expected
                for kind, bad in mismatches(head, row):
                    kinds.add(kind)
                    assert ref_probe(table, head, bad) is None, kind
                    assert table.support_probe(head, bad) is None, kind
                # A row of arbitrary values: either verdict, but the same.
                noise = tuple(
                    rng.choice((value, rng.randrange(3))) for value in row
                )
                assert compiled_probe(table, head, noise) == ref_probe(
                    table, head, noise
                )
    return kinds


def random_prows(rng, count=4):
    def prows_for(table):
        # Few distinct values, so unrelated variables often collide.
        return [
            tuple(rng.randrange(3) for _ in table.variables)
            for _ in range(count)
        ]

    return prows_for


# -- workload layouts ---------------------------------------------------------


def twist(mapping, choices):
    """Rewrite non-key RHS positions into constants or repeats of an
    earlier term of the same atom (the generator itself emits neither)."""
    rhs = []
    for atom in mapping.rhs:
        terms = list(atom.terms)
        for position in range(1, len(terms)):
            choice = next(choices)
            if choice == 1:
                terms[position] = Constant(position)
            elif choice == 2:
                terms[position] = terms[0]  # the entry key
            elif choice == 3:
                terms[position] = terms[position - 1]
        rhs.append(Atom(atom.predicate, tuple(terms)))
    remaining = {
        var for atom in rhs for var in atom.variables()
    } & mapping.existential_vars
    return replace(mapping, rhs=tuple(rhs), existential_vars=remaining)


layouts = st.builds(
    WorkloadConfig,
    peers=st.integers(2, 4),
    max_relations_per_peer=st.integers(1, 3),
    attributes_per_peer=st.integers(2, 6),
    topology=st.sampled_from(("chain", "pairs")),
    uniform_attributes=st.booleans(),
    seed=st.integers(0, 10_000),
)


def internal_schema(generator, mappings):
    return InternalSchema(tuple(generator.peer_schemas()), tuple(mappings))


class TestCompiledAgainstReference:
    @settings(max_examples=30, deadline=None)
    @given(
        config=layouts,
        style=st.sampled_from(STYLES),
        twists=st.lists(st.integers(0, 3), min_size=1, max_size=8),
        seed=st.integers(0, 2**16),
    )
    def test_workload_layouts(self, config, style, twists, seed):
        generator = CDSSWorkloadGenerator(config)
        assume(is_weakly_acyclic(generator.mappings))
        choices = itertools.cycle(twists)
        mappings = [twist(m, choices) for m in generator.mappings]
        rng = random.Random(seed)
        for candidate in (generator.mappings, mappings):
            encoding = ProvenanceEncoding(
                internal_schema(generator, candidate), style=style
            )
            check_encoding(encoding, random_prows(rng), rng)

    def test_every_mismatch_kind_is_exercised(self):
        internal = InternalSchema(
            (
                PeerSchema("P1", (RelationSchema("G", ("i", "c", "n")),)),
                PeerSchema(
                    "P2",
                    (
                        RelationSchema("U", ("n", "c")),
                        RelationSchema("W", ("a", "b", "c", "d", "e")),
                    ),
                ),
            ),
            (
                SchemaMapping.parse(
                    "mw", "G(i, c, n) -> exists z . W(i, i, 7, z, z)"
                ),
                SchemaMapping.parse("mu", "G(i, c, n) -> exists d . U(n, d)"),
            ),
        )
        rng = random.Random(0)
        for style in STYLES:
            kinds = check_encoding(
                ProvenanceEncoding(internal, style=style),
                random_prows(rng, count=8),
                rng,
            )
            assert kinds == {
                "wrong-constant",
                "plain-for-null",
                "wrong-skolem",
                "repeated-conflict",
            }


class TestCompiledOnExchangedData:
    """``supporting_rows`` finds exactly the provenance rows whose head row
    is the target, on a populated workload CDSS."""

    @settings(max_examples=10, deadline=None)
    @given(config=layouts, style=st.sampled_from(STYLES))
    def test_supporting_rows_match_a_scan(self, config, style):
        generator = CDSSWorkloadGenerator(replace(config, dataset="integer"))
        assume(is_weakly_acyclic(generator.mappings))
        cdss = generator.build_cdss(encoding_style=style)
        generator.populate(cdss, 3)
        system = cdss.system()
        db, encoding = system.db, system.encoding
        for table in encoding.tables:
            prows = list(db[table.relation])
            for target in table.compiled_heads:
                owner, head = target
                assert owner is table
                assert target in encoding.targets_for_relation(
                    head.user_relation
                )
                derived = {}
                for prow in prows:
                    derived.setdefault(
                        ref_head_row(table, head, prow), set()
                    ).add(prow)
                for row, expected in derived.items():
                    assert set(table.supporting_rows(db, head, row)) == expected
