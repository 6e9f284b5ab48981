"""Tests for the shard-parallel evaluation subsystem (`repro.parallel`).

The load-bearing property: a system evaluated with ``workers > 1`` must
be *indistinguishable* from the sequential one — identical certain
answers, identical provenance tables (the full database state is
compared, which subsumes the provenance graph), and identical deletion
results under both PropagateDelete and DRed — while the engine counters
prove the parallel path actually ran.
"""

import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CDSS
from repro.core import STRATEGY_DRED, STRATEGY_INCREMENTAL, STRATEGY_UNIFIED
from repro.datalog import (
    NaiveEngine,
    PreparedPlanner,
    SemiNaiveEngine,
    is_labeled_null,
    parse_program,
    parse_rule,
)
from repro.datalog.plan import compile_plan
from repro.parallel import (
    ShardPlanner,
    WorkerPool,
    WorkerPoolError,
    first_join_key,
    resolve_workers,
)
from repro.storage import Database
from repro.storage.replication import apply_ops, build_replica

TC_PROGRAM = """
    T(x, y) :- E(x, y)
    T(x, z) :- T(x, y), E(y, z)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process.  A zombie counts as gone: an
    exited orphan may never be reaped by the process that adopted it."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


def make_db(tables):
    db = Database()
    for name, (arity, rows) in tables.items():
        db.create(name, arity, rows)
    return db


# ---------------------------------------------------------------------------
# Shard planning
# ---------------------------------------------------------------------------


class TestShardPlanner:
    def plan_for(self, text, delta_index):
        rule = parse_rule(text)
        return PreparedPlanner().plan(rule, Database(), delta_index)

    def test_hashes_on_first_join_key(self):
        # Δ on T(x, y); the next probe is E(y, z) on y -> shard on the
        # Δ-atom position of y (1).
        plan = self.plan_for("T2(x, z) :- T(x, y), E(y, z)", 0)
        assert first_join_key(plan, 0) == 1

    def test_join_key_on_delta_second_occurrence(self):
        plan = self.plan_for("A(x) :- E(x, y), F(y)", 1)
        # Δ on F(y): probe E(x, y) binds y at Δ-position 0.
        assert first_join_key(plan, 1) == 0

    def test_constant_bound_atom_falls_back_to_round_robin(self):
        plan = self.plan_for("A(x) :- E(x, y), F(7)", 1)
        # Δ atom F(7) binds no variables at all.
        assert first_join_key(plan, 1) is None

    def test_disconnected_join_falls_back_to_round_robin(self):
        plan = self.plan_for("A(x, u) :- E(x, y), F(u, v)", 0)
        # F probes no Δ-bound variable (cross product).
        assert first_join_key(plan, 0) is None

    def test_no_delta_means_round_robin(self):
        plan = self.plan_for("A(x) :- E(x, y)", None)
        assert first_join_key(plan, None) is None

    def test_sharding_partitions_every_row_exactly_once(self):
        plan = self.plan_for("T2(x, z) :- T(x, y), E(y, z)", 0)
        rows = [(i, i % 7) for i in range(100)]
        for sharder in (ShardPlanner(1), ShardPlanner(3), ShardPlanner(8)):
            shards = sharder.shard(plan, 0, rows)
            assert len(shards) == sharder.workers
            flat = [row for shard in shards for row in shard]
            assert sorted(flat) == sorted(rows)

    def test_equal_join_keys_land_on_the_same_shard(self):
        plan = self.plan_for("T2(x, z) :- T(x, y), E(y, z)", 0)
        rows = [(i, i % 5) for i in range(50)]
        shards = ShardPlanner(4).shard(plan, 0, rows)
        owner = {}
        for index, shard in enumerate(shards):
            for row in shard:
                assert owner.setdefault(row[1], index) == index


# ---------------------------------------------------------------------------
# Plan shipping
# ---------------------------------------------------------------------------


class TestPlanPickling:
    def test_ruleplan_pickles_without_compiled_state(self):
        rule = parse_rule("A(x, z) :- E(x, y), not F(x, y), E(y, z)")
        plan = PreparedPlanner().plan(rule, Database(), 0)
        compile_plan(plan)  # stash the closure-laden compiled template
        copy = pickle.loads(pickle.dumps(plan))
        assert copy.rule == plan.rule
        assert copy.order == plan.order
        assert copy.params == plan.params
        assert not hasattr(copy, "_compiled")

    def test_shipped_plan_evaluates_identically(self):
        db = make_db({"E": (2, [(1, 2), (2, 3), (3, 4)])})
        rule = parse_rule("A(x, z) :- E(x, y), E(y, z)")
        plan = PreparedPlanner().plan(rule, db, None)
        from repro.datalog.plan import run_plan

        def resolve(_index, atom):
            return db[atom.predicate]

        copy = pickle.loads(pickle.dumps(plan))
        assert sorted(run_plan(copy, resolve)) == sorted(
            run_plan(plan, resolve)
        )


# ---------------------------------------------------------------------------
# Replication: snapshot + change-feed delta shipping
# ---------------------------------------------------------------------------


class TestReplication:
    def test_snapshot_then_delta_replay_matches_source(self):
        db = make_db({"E": (2, [(1, 2)]), "F": (1, [(9,)])})
        replica = build_replica(db.export_snapshot())
        feed = db.changefeed()
        db["E"].insert_many([(2, 3), (3, 4)])
        db["F"].delete((9,))
        db.create("G", 1).insert((5,))
        db["E"].delete_many([(1, 2)])
        apply_ops(replica, feed.drain())
        assert replica.snapshot() == db.snapshot()
        feed.close()

    def test_clear_and_recreate_replay_in_order(self):
        db = make_db({"E": (1, [(1,), (2,)])})
        replica = build_replica(db.export_snapshot())
        feed = db.changefeed()
        db["E"].clear()
        db["E"].insert((7,))
        db.drop("E")
        db.create("E", 1).insert((8,))
        apply_ops(replica, feed.drain())
        assert replica.snapshot() == {"E": frozenset({(8,)})}
        feed.close()

    def test_closed_feed_stops_recording(self):
        db = make_db({"E": (1, [])})
        feed = db.changefeed()
        db["E"].insert((1,))
        assert len(feed) == 1
        feed.close()
        db["E"].insert((2,))
        assert len(feed) == 0

    def test_feed_records_replace_contents_turnover(self):
        db = make_db({"E": (1, [(1,), (2,)])})
        replica = build_replica(db.export_snapshot())
        feed = db.changefeed()
        db["E"].replace_contents([(3,), (4,)])  # complete turnover path
        apply_ops(replica, feed.drain())
        assert replica["E"].rows() == db["E"].rows()
        feed.close()


# ---------------------------------------------------------------------------
# Engine-level agreement
# ---------------------------------------------------------------------------


class TestEngineParallel:
    def run_tc(self, workers, edges):
        db = make_db({"E": (2, edges)})
        engine = SemiNaiveEngine(workers=workers)
        result = engine.run(parse_program(TC_PROGRAM), db)
        rows = db["T"].rows()
        engine.close()
        return rows, result

    def test_full_evaluation_matches_sequential(self):
        edges = [(i, i + 1) for i in range(40)] + [(5, 2), (30, 7)]
        sequential, _ = self.run_tc(1, edges)
        parallel, result = self.run_tc(3, edges)
        assert parallel == sequential
        assert result.parallel_rounds > 0

    def test_incremental_insertions_match_sequential(self):
        edges = [(i, i + 1) for i in range(20)]
        outcomes = []
        for workers in (1, 2):
            db = make_db({"E": (2, edges)})
            engine = SemiNaiveEngine(workers=workers)
            program = parse_program(TC_PROGRAM)
            engine.run(program, db)
            db["E"].insert((20, 21))
            derived = engine.run_insertions(program, db, {"E": {(20, 21)}})
            outcomes.append((db["T"].rows(), derived))
            engine.close()
        assert outcomes[0] == outcomes[1]

    def test_agrees_with_naive_reference(self):
        program = parse_program(
            """
            A(x) :- E(x, y)
            B(y) :- E(x, y)
            R(x) :- A(x), not B(x)
            """
        )
        edges = [(1, 2), (2, 3), (3, 1), (4, 5)]
        naive_db = make_db({"E": (2, edges)})
        NaiveEngine().run(program, naive_db)
        parallel_db = make_db({"E": (2, edges)})
        engine = SemiNaiveEngine(workers=2)
        engine.run(program, parallel_db)
        engine.close()
        assert parallel_db.snapshot() == naive_db.snapshot()

    def test_pool_failure_falls_back_to_sequential(self):
        db = make_db({"E": (2, [(i, i + 1) for i in range(15)])})
        engine = SemiNaiveEngine(workers=2)
        executor = engine._executor()
        assert executor is not None
        # Kill the pool out from under the engine: the next parallel round
        # errors, is re-run sequentially, and the engine stays sequential.
        executor.pool.close()
        with pytest.warns(RuntimeWarning, match="parallel evaluation"):
            engine.run(parse_program(TC_PROGRAM), db)
        assert len(db["T"]) == 15 * 16 // 2
        assert engine._executor() is None  # permanently disabled
        # A second run works without touching the pool at all.
        db["E"].insert((15, 16))
        engine.run_insertions(
            parse_program(TC_PROGRAM), db, {"E": {(15, 16)}}
        )
        engine.close()

    def test_worker_count_resolution(self, monkeypatch):
        assert resolve_workers(3) == 3
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert resolve_workers(None) == 2
        assert SemiNaiveEngine(workers=None).workers == 2
        assert SemiNaiveEngine().workers == 1  # explicit default stays 1
        monkeypatch.setenv("REPRO_WORKERS", "zero")
        with pytest.raises(WorkerPoolError):
            resolve_workers(None)
        with pytest.raises(WorkerPoolError):
            resolve_workers(0)

    def test_pool_ping_and_close_idempotent(self):
        pool = WorkerPool(2)
        assert pool.ping() == [0, 0]
        pool.close()
        pool.close()
        with pytest.raises(WorkerPoolError):
            pool.start()


# ---------------------------------------------------------------------------
# CDSS-level agreement (the acceptance property)
# ---------------------------------------------------------------------------


def build_cdss(strategy, workers, trust_threshold=None):
    cdss = CDSS(strategy=strategy, workers=workers)
    cdss.add_peer("P1", {"A": ("k", "v")})
    cdss.add_peer("P2", {"B2": ("k", "v")})
    cdss.add_peer("P3", {"C": ("k",)})
    cdss.add_mapping("mab", "A(k, v) -> B2(k, v)")
    cdss.add_mapping("mbc", "B2(k, v) -> C(k)")
    cdss.add_mapping("mca", "C(k) -> exists v . A(k, v)")  # cycle + nulls
    if trust_threshold is not None:
        cdss.peer("P2").trust().condition(
            "mab", lambda row: row[0] < trust_threshold, "threshold"
        )
    return cdss


@st.composite
def lifecycle(draw):
    batches = []
    for _ in range(draw(st.integers(1, 3))):
        inserts = draw(
            st.sets(
                st.tuples(st.integers(0, 9), st.integers(0, 3)), max_size=5
            )
        )
        deletes = draw(st.sets(st.integers(0, 9), max_size=3))
        rejections = draw(st.sets(st.integers(0, 9), max_size=2))
        batches.append((inserts, deletes, rejections))
    threshold = draw(st.one_of(st.none(), st.integers(2, 8)))
    return batches, threshold


def apply_batch(cdss, batch):
    from repro.datalog.ast import tuple_has_labeled_null

    inserts, deletes, rejections = batch
    p1, p3 = cdss.peer("P1"), cdss.peer("P3")
    with p1.batch() as tx:
        for key, value in inserts:
            tx.insert("A", (key, value))
    for key in deletes:
        for row in [r for r in p1.relation("A") if r[0] == key]:
            if not tuple_has_labeled_null(row):
                p1.delete("A", row)
    for key in rejections:
        p3.delete("C", (key,))
    cdss.update_exchange()


class TestCDSSParallelAgreement:
    @settings(max_examples=8, deadline=None)
    @given(data=lifecycle())
    def test_property_parallel_state_identical_incremental(self, data):
        """workers=2 produces byte-identical state (certain answers,
        provenance tables, deletion results) to workers=1 under the
        incremental strategy, and the parallel path actually ran."""
        batches, threshold = data
        snapshots = {}
        for workers in (1, 2):
            cdss = build_cdss(STRATEGY_INCREMENTAL, workers, threshold)
            for batch in batches:
                apply_batch(cdss, batch)
            system = cdss.system()
            snapshots[workers] = system.db.snapshot()
            if workers == 2 and any(b[0] for b in batches):
                assert system.engine.stats.parallel_rounds > 0
            system.close()
        assert snapshots[1] == snapshots[2]

    @settings(max_examples=6, deadline=None)
    @given(data=lifecycle())
    def test_property_parallel_state_identical_dred(self, data):
        """DRed deletion results agree between workers=1 and workers=2."""
        batches, threshold = data
        snapshots = {}
        for workers in (1, 2):
            cdss = build_cdss(STRATEGY_DRED, workers, threshold)
            for batch in batches:
                apply_batch(cdss, batch)
            snapshots[workers] = cdss.system().db.snapshot()
            cdss.system().close()
        assert snapshots[1] == snapshots[2]

    def test_certain_answers_and_provenance_match(self):
        """The running example: answers and provenance expressions are
        identical under parallel evaluation."""
        results = {}
        for workers in (1, 2):
            cdss = CDSS("bio", workers=workers)
            cdss.add_peer("PGUS", {"G": ("id", "can", "nam")})
            cdss.add_peer("PBioSQL", {"B": ("id", "nam")})
            cdss.add_peer("PuBio", {"U": ("nam", "can")})
            cdss.add_mapping("m1", "G(i, c, n) -> B(i, n)")
            cdss.add_mapping("m2", "G(i, c, n) -> U(n, c)")
            cdss.add_mapping("m3", "B(i, n) -> exists c . U(n, c)")
            cdss.add_mapping("m4", "B(i, c), U(n, c) -> B(i, n)")
            with cdss.batch() as tx:
                tx.insert("G", (1, 2, 3))
                tx.insert("G", (3, 5, 2))
                tx.insert("B", (3, 5))
                tx.insert("U", (2, 5))
            cdss.update_exchange()
            results[workers] = (
                cdss.relation("B").certain().to_rows(),
                cdss.query("ans(x, y) :- U(x, z), U(y, z)"),
                repr(cdss.relation("B").provenance((3, 2))),
                cdss.system().db.snapshot(),
            )
            cdss.system().close()
        assert results[1] == results[2]

    def test_consistency_under_parallel_evaluation(self):
        cdss = build_cdss(STRATEGY_INCREMENTAL, 2)
        with cdss.peer("P1").batch() as tx:
            for i in range(25):
                tx.insert("A", (i, i % 3))
        cdss.update_exchange()
        system = cdss.system()
        assert system.engine.stats.parallel_rounds > 0
        assert system.is_consistent()
        system.close()

    def test_large_deletion_batch_uses_parallel_semijoins(self):
        """A deletion batch big enough to clear PARALLEL_DELETION_MIN_ROWS
        runs its retraction semijoins through the worker pool and still
        lands on the exact sequential state."""
        snapshots = {}
        deletion_rounds = {}
        for workers in (1, 2):
            cdss = build_cdss(STRATEGY_UNIFIED, workers)
            with cdss.peer("P1").batch() as tx:
                for i in range(400):
                    tx.insert("A", (i, i % 7))
            cdss.update_exchange()
            system = cdss.system()
            before = system.engine.stats.parallel_rounds
            with cdss.peer("P1").batch() as tx:
                for i in range(300):
                    tx.delete("A", (i, i % 7))
            cdss.update_exchange()
            deletion_rounds[workers] = system.engine.stats.parallel_rounds - before
            assert system.is_consistent()
            snapshots[workers] = system.db.snapshot()
            system.close()
        assert snapshots[1] == snapshots[2]
        assert deletion_rounds[1] == 0
        assert deletion_rounds[2] > 0

    def test_recompute_strategy_parallel(self):
        cdss = build_cdss(STRATEGY_INCREMENTAL, 2)
        with cdss.peer("P1").batch() as tx:
            for i in range(10):
                tx.insert("A", (i, 0))
        cdss.update_exchange()
        sequential = build_cdss(STRATEGY_INCREMENTAL, 1)
        with sequential.peer("P1").batch() as tx:
            for i in range(10):
                tx.insert("A", (i, 0))
        sequential.update_exchange()
        cdss.recompute()
        assert cdss.system().db.snapshot() == sequential.system().db.snapshot()
        cdss.system().close()


# ---------------------------------------------------------------------------
# Spawn start method (non-fork platforms) + spec/CLI plumbing
# ---------------------------------------------------------------------------


class TestSpawnAndPlumbing:
    def test_spawn_start_method_smoke(self):
        """The whole protocol is picklable: a spawn-context pool produces
        the same state as sequential evaluation.  The existential
        mappings make nested labeled nulls cross the spawn boundary, in
        both directions."""
        snapshots = {}
        for workers, start_method in ((1, None), (2, "spawn")):
            cdss = CDSS(
                "spawned", workers=workers, start_method=start_method
            )
            cdss.add_peer("P1", {"R": ("a", "b")})
            cdss.add_peer("P2", {"S": ("a", "b")})
            cdss.add_peer("P3", {"T": ("a", "c")})
            cdss.add_peer("P4", {"U": ("c", "d")})
            cdss.add_mapping("m", "R(x, y) -> S(x, y)")
            cdss.add_mapping("e1", "S(x, y) -> exists c . T(x, c)")
            cdss.add_mapping("e2", "T(x, c) -> exists d . U(c, d)")
            with cdss.peer("P1").batch() as tx:
                for i in range(8):
                    tx.insert("R", (i, i + 1))
            cdss.update_exchange()
            system = cdss.system()
            snapshots[workers] = system.db.snapshot()
            if workers == 2:
                assert system.engine.stats.parallel_rounds > 0
            nested = [
                row
                for row in cdss.peer("P4").relation("U").to_rows()
                if is_labeled_null(row[1]) and is_labeled_null(row[1].args[0])
            ]
            assert len(nested) == 8
            system.close()
        assert snapshots[1] == snapshots[2]

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="reads /proc"
    )
    def test_workers_exit_when_parent_is_killed(self):
        """A SIGKILLed parent runs no cleanup; its fork workers must still
        exit, on EOF from their pipes."""
        script = (
            "import sys\n"
            "from repro import CDSS\n"
            "cdss = CDSS('orphans', workers=2)\n"
            "cdss.add_peer('P1', {'R': ('a', 'b')})\n"
            "cdss.add_peer('P2', {'S': ('a', 'b')})\n"
            "cdss.add_mapping('m', 'R(x, y) -> S(x, y)')\n"
            "with cdss.peer('P1').batch() as tx:\n"
            "    for i in range(8):\n"
            "        tx.insert('R', (i, i + 1))\n"
            "cdss.update_exchange()\n"
            "pool = cdss.system().engine._parallel.pool\n"
            "print(*(process.pid for process in pool._procs), flush=True)\n"
            "sys.stdin.read()\n"
        )
        repo_root = Path(__file__).resolve().parent.parent
        parent = subprocess.Popen(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(repo_root / "src")},
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        pids: list[int] = []
        try:
            pids = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(pids) == 2
            assert all(_running(pid) for pid in pids)
            parent.kill()
            parent.wait(timeout=10)
            deadline = time.monotonic() + 5.0
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, pids))
        finally:
            parent.kill()
            parent.wait(timeout=10)
            parent.stdin.close()
            parent.stdout.close()
            for pid in filter(_running, pids):
                os.kill(pid, signal.SIGKILL)

    def test_spec_workers_round_trip(self):
        cdss = CDSS("w", workers=4)
        cdss.add_peer("P1", {"R": ("a",)})
        spec = cdss.to_spec()
        assert spec.workers == 4
        document = spec.to_dict()
        assert document["workers"] == 4
        from repro.api.spec import SystemSpec

        rebuilt = SystemSpec.from_dict(document)
        assert rebuilt.workers == 4
        assert CDSS.from_spec(rebuilt).workers == 4

    def test_spec_rejects_bad_workers(self):
        from repro.api.spec import SpecError, SystemSpec

        with pytest.raises(SpecError):
            SystemSpec(workers=0)
        with pytest.raises(SpecError):
            SystemSpec(workers="two")  # type: ignore[arg-type]

    def test_old_spec_documents_default_to_sequential(self):
        from repro.api.spec import SystemSpec

        document = SystemSpec(name="legacy").to_dict()
        del document["workers"]
        assert SystemSpec.from_dict(document).workers == 1

    def test_cli_workers_override(self, tmp_path, capsys):
        from repro.cli import main

        cdss = CDSS("cli")
        cdss.add_peer("P1", {"R": ("a",)})
        cdss.add_peer("P2", {"S": ("a",)})
        cdss.add_mapping("m", "R(x) -> S(x)")
        cdss.peer("P1").insert("R", (1,))
        path = tmp_path / "spec.json"
        cdss.to_spec().save(path)
        assert main(["run", str(path), "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "S: [(1,)]" in out

    def test_repro_workers_env_reaches_cdss(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        cdss = CDSS("env")
        assert cdss.workers == 2
        monkeypatch.setenv("REPRO_WORKERS", "")
        assert CDSS("env2").workers == 1


class TestPlanRegistryCap:
    def test_statistics_driven_planner_does_not_grow_registry_unbounded(
        self, monkeypatch
    ):
        """CostBasedPlanner re-plans every round (its cache token is the
        database version), minting fresh plan objects; the pool registry
        must reset at the cap instead of pinning them all forever."""
        import repro.parallel.pool as pool_module
        from repro.datalog import CostBasedPlanner

        monkeypatch.setattr(pool_module, "_PLAN_REGISTRY_LIMIT", 8)
        edges = [(i, i + 1) for i in range(30)]
        sequential = make_db({"E": (2, edges)})
        SemiNaiveEngine(CostBasedPlanner()).run(
            parse_program(TC_PROGRAM), sequential
        )
        parallel = make_db({"E": (2, edges)})
        engine = SemiNaiveEngine(CostBasedPlanner(), workers=2)
        result = engine.run(parse_program(TC_PROGRAM), parallel)
        executor = engine._executor()
        assert executor is not None and executor.available
        assert result.parallel_rounds > 0
        assert executor.pool.plan_count <= 8 + 2  # one round's plans past cap
        engine.close()
        assert parallel.snapshot() == sequential.snapshot()
