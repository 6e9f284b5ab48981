"""Workload inputs, generated from ``--seed`` before anything is timed.

The CDSS shape of a workload (peers, topology, how each peer partitions
its attributes into relations) comes from
:class:`repro.workload.CDSSWorkloadGenerator` with the shape's fixed
layout seed, so every ``--seed`` measures the same system.  The seed
drives the data: which SWISS-PROT entries are inserted, which are
deleted, which derived rows are revoked, and (for serve-durable) the read
mix.

A script is a list of :class:`Step` objects, each one batch of edits
followed by one publish.  Revocations are deletes of *derived* rows at a
peer that did not contribute them; publish turns them into rejections.
Which rows are derived where is computed here from the mappings alone,
so the program never has to be asked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.workload import CDSSWorkloadGenerator, WorkloadConfig

INSERT = "insert"
DELETE = "delete"
REVOKE = "revoke"
COMBINED = "combined"

@dataclass(frozen=True)
class Shape:
    """The size and kind of CDSS a workload runs."""

    topology: str
    extra_cycles: int
    dataset: str
    uniform_attributes: bool
    base_per_peer: int
    peers: int = 10
    per_peer: int = 10
    layout_seed: int = 0

    def config(self, seed: int) -> WorkloadConfig:
        return WorkloadConfig(
            peers=self.peers,
            dataset=self.dataset,
            topology=self.topology,
            extra_cycles=self.extra_cycles,
            uniform_attributes=self.uniform_attributes,
            seed=seed,
        )


@dataclass
class Entry:
    """One SWISS-PROT entry contributed by peer ``origin``."""

    origin: int
    key: object
    rows: dict  # relation -> row at the origin peer
    values: dict  # attribute index -> value


@dataclass
class Step:
    """One batch of edits, published as a whole."""

    kind: str
    edits: list = field(default_factory=list)  # (op, relation, row)

    @property
    def rows(self) -> int:
        return len(self.edits)


def _reach(generator: CDSSWorkloadGenerator) -> list[dict[int, list[frozenset]]]:
    """For each origin peer: the peers its entries reach, with the
    attribute sets that arrive there with certain (non-null) values.

    A mapping ``u -> v`` carries attribute ``a`` iff both peers have it;
    attributes of ``v`` that ``u`` lacks become labeled nulls.  So along a
    path the certain set shrinks by intersection.
    """
    layouts = generator.layouts
    owner = {}
    for index, layout in enumerate(layouts):
        for part in range(len(layout.partitions)):
            owner[layout.relation_name(part)] = index
    edges = [
        (owner[m.lhs[0].predicate], owner[m.rhs[0].predicate])
        for m in generator.mappings
    ]
    attrs = [frozenset(layout.attribute_indices) for layout in layouts]
    reach = []
    for origin in range(len(layouts)):
        arrived: dict[int, set] = {}
        frontier = [(origin, attrs[origin])]
        while frontier:
            peer, carried = frontier.pop()
            for source, target in edges:
                if source != peer:
                    continue
                nxt = carried & attrs[target]
                seen = arrived.setdefault(target, set())
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append((target, nxt))
        arrived.pop(origin, None)
        reach.append({peer: list(sets) for peer, sets in arrived.items()})
    return reach


def _certain_parts(layout, certain_sets) -> list[int]:
    return [
        part
        for part, partition in enumerate(layout.partitions)
        if any(set(partition) <= s for s in certain_sets)
    ]


class ScriptWriter:
    """Generates the base data and the edit script of one workload."""

    def __init__(self, shape: Shape, seed: int) -> None:
        self.shape = shape
        self.seed = seed
        self.layout = CDSSWorkloadGenerator(shape.config(shape.layout_seed))
        self._data = CDSSWorkloadGenerator(shape.config(seed))
        self._rng = random.Random(seed)
        # origin -> peer -> relation parts of that peer whose rows for the
        # origin's entries arrive without labeled nulls (revocable rows).
        self._revocable = [
            {
                peer: parts
                for peer, sets in reach.items()
                if (parts := _certain_parts(self.layout.layouts[peer], sets))
            }
            for reach in _reach(self.layout)
        ]
        self.live: list[list[Entry]] = [[] for _ in self.layout.layouts]
        self._revoked: set = set()

    # -- entries -------------------------------------------------------------

    def _fresh(self, peer: int) -> Entry:
        layout = self.layout.layouts[peer]
        update = self._data.fresh_entry(layout)
        values = {}
        for part, partition in enumerate(layout.partitions):
            row = update.rows[layout.relation_name(part)]
            values.update(zip(partition, row[1:]))
        return Entry(peer, update.key, dict(update.rows), values)

    def _insert(self, peer: int, count: int, edits: list, new: list) -> None:
        for _ in range(count):
            entry = self._fresh(peer)
            new.append(entry)
            edits.extend(
                (INSERT, relation, row) for relation, row in entry.rows.items()
            )

    def _delete(self, peer: int, count: int, edits: list) -> None:
        pool = self.live[peer]
        chosen = self._rng.sample(range(len(pool)), min(count, len(pool)))
        for position in sorted(chosen, reverse=True):
            entry = pool.pop(position)
            edits.extend(
                (DELETE, relation, row) for relation, row in entry.rows.items()
            )

    def _revoke(self, peer: int, count: int, edits: list) -> None:
        layout = self.layout.layouts[peer]
        candidates = [
            entry
            for origin, pool in enumerate(self.live)
            if peer in self._revocable[origin]
            for entry in pool
            if entry.key not in self._revoked
        ]
        for entry in self._rng.sample(candidates, min(count, len(candidates))):
            part = self._rng.choice(self._revocable[entry.origin][peer])
            row = (entry.key,) + tuple(
                entry.values[a] for a in layout.partitions[part]
            )
            edits.append((DELETE, layout.relation_name(part), row))
            self._revoked.add(entry.key)

    # -- scripts -------------------------------------------------------------

    def base(self) -> list:
        """Insert ``base_per_peer`` entries at every peer."""
        edits: list = []
        for peer in range(len(self.live)):
            new: list = []
            self._insert(peer, self.shape.base_per_peer, edits, new)
            self.live[peer].extend(new)
        return edits

    def step(self, kind: str, per_peer: int | None = None) -> Step:
        """One batch: ``per_peer`` entries (or revoked rows) per peer."""
        n = self.shape.per_peer if per_peer is None else per_peer
        step = Step(kind)
        for peer in range(len(self.live)):
            new: list = []
            if kind == INSERT:
                self._insert(peer, n, step.edits, new)
            elif kind == DELETE:
                self._delete(peer, n, step.edits)
            elif kind == REVOKE:
                self._revoke(peer, n, step.edits)
            elif kind == COMBINED:
                inserts = n - 2 * (n // 3)
                self._delete(peer, n // 3, step.edits)
                self._revoke(peer, n // 3, step.edits)
                self._insert(peer, inserts, step.edits, new)
            else:
                raise ValueError(f"unknown step kind {kind!r}")
            self.live[peer].extend(new)
        return step

    def steps(self, kinds: list[str], per_peer: int | None = None) -> list[Step]:
        return [self.step(kind, per_peer) for kind in kinds]


def stage(batch, edits) -> None:
    """Stage ``(op, relation, row)`` edits into an open ``cdss.batch()``."""
    for op, relation, row in edits:
        if op == INSERT:
            batch.insert(relation, row)
        else:
            batch.delete(relation, row)
