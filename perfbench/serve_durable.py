"""serve-durable: the HTTP front door, WAL fsync and crash recovery.

``python -m repro serve spec.json --port 0 --data-dir D --fsync always
--readers 2`` runs in its own process.  This process is the load
generator.  Every server it starts (``SETUPS`` of them, one after
another, each on a fresh directory) first runs one *write round*: no
reads, one connection runs the same ``seconds`` writer steps back to
back.  The last server then serves three read phases of ``seconds / 5``
each, over at most ``nproc`` keep-alive connections —

* **light**: open loop, 200 reads/s;
* **heavy**: open loop, 600 reads/s;
* **capacity**: closed loop, every connection sends its next read as
  soon as the last one returns.

During the three read phases one writer step (``/edit`` then
``/publish``) is due every second, cycling insert / delete / revoke
batches.  An open-loop read is timed from when it was due, so a stall
also delays the reads queued behind it; how late the generator sent each
read is reported beside the latency.

The ``publish_*`` and ``edits_per_s`` metrics come from the write rounds:
publishes during the read phases run against a load that differs by
phase (and, in the closed loop, by the server's own speed), so their few
samples per phase are reported per phase but not pooled.  Every write
round replays one script from one state, so each step is taken at its
best round, as the churn workloads do (see ``churn.py``); the tail pools
every round.

After the load the server is quiesced and every prepared statement is
spot-checked against a reference CDSS built here from the same edit
script; then the server is SIGKILLed and ``DurableNode.open`` recovers
its directory in this process, and must reproduce the reference's
certain instances.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import json
import math
import os
import random
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import layers
from inputs import DELETE, INSERT, REVOKE, ScriptWriter, Shape, stage
from metrics import Report, certain_instances, cpu_seconds, digest_rows, peak_rss_mb, tail
from tracer import WORK_DIR, Tracer, dump_spans, install, load_spans

#: With existential mappings most derived rows hold labeled nulls, which a
#: client cannot name over HTTP.  Only 174 of layouts 0-999 deliver any
#: null-free derived row (so a revocation has a row to reject); layout 227
#: does (peer1 -> peer2) and has the fewest relations (12) of them.
SHAPE = Shape("chain", 0, "string", False, base_per_peer=100, layout_seed=227)
KINDS = [INSERT, DELETE, REVOKE]
LIGHT_RPS = 200
HEAVY_RPS = 600
PUBLISH_EVERY_S = 1.0
READ_LIMIT_MS = 50.0
#: Servers started per run: each is one ``setup_s`` sample and one write round.
SETUPS = 8
SERVER_ARGS = ("--fsync", "always", "--readers", "2")
LISTEN_TIMEOUT_S = 90.0
#: Zipf skew of the looked-up keys.  Chosen from :func:`repeat_shares`:
#: at 1.1 about a third of the light phase's lookups and half of the
#: heavy phase's hit the snapshot result cache (WORKLOADS.md has the
#: figures), so both the cached and the computed read path weigh in
#: ``cpu_ms_per_op``.
ZIPF_SKEW = 1.1
#: Writer steps of one write round per second of ``--seconds``: publishes
#: vary by a factor of three within one run, so their medians need many
#: samples.  A fixed count keeps the final state a function of the seed.
WRITE_STEPS_PER_S = 1


# -- inputs ------------------------------------------------------------------


@dataclass
class Statement:
    name: str
    text: str
    params: tuple
    kind: str  # lookup / join / scan
    peer: int = 0
    id: str = ""


def statements(layout) -> list[Statement]:
    """Point lookups and scans on every relation, key joins per peer."""
    result = []
    for peer, peer_layout in enumerate(layout.layouts):
        names = []
        for part, partition in enumerate(peer_layout.partitions):
            relation = peer_layout.relation_name(part)
            cols = ", ".join(f"x{i}" for i in range(len(partition)))
            names.append((relation, cols))
            result.append(
                Statement(f"lookup:{relation}", f"ans({cols}) :- {relation}(k, {cols})",
                          ("k",), "lookup", peer)
            )
            result.append(
                Statement(f"scan:{relation}", f"ans(k, x0) :- {relation}(k, {cols})",
                          (), "scan", peer)
            )
        if len(names) >= 2:
            (left, lcols), (right, rcols) = names[0], names[1]
            a = lcols.replace("x", "a")
            b = rcols.replace("x", "b")
            result.append(
                Statement(f"join:{peer_layout.name}",
                          f"ans(k, a0, b0) :- {left}(k, {a}), {right}(k, {b})",
                          (), "join", peer)
            )
    return result


@dataclass
class Inputs:
    writer: ScriptWriter
    base: list
    steps: list
    statements: list
    keys: list  # (key, origin peer) of the base entries, in Zipf rank order
    reads: dict  # phase -> list of (statement index, bindings)
    write_steps: int = 0  # steps[:write_steps] are the write round's

    @property
    def write_round(self) -> list:
        return self.steps[: self.write_steps]


def make_inputs(seed: int, phase_s: float, write_steps: int, shape: Shape = SHAPE) -> Inputs:
    writer = ScriptWriter(shape, seed)
    base = writer.base()
    keys = [(e.key, e.origin) for pool in writer.live for e in pool]
    load_steps = math.ceil(3 * phase_s / PUBLISH_EVERY_S - 0.5)
    steps_needed = load_steps + write_steps
    steps = writer.steps([KINDS[i % 3] for i in range(steps_needed)])
    stmts = statements(writer.layout)
    rng = random.Random(seed * 7919 + 1)
    rng.shuffle(keys)
    weights = [1.0 / (rank**ZIPF_SKEW) for rank in range(1, len(keys) + 1)]
    cum = list(itertools.accumulate(weights))
    lookups = [i for i, s in enumerate(stmts) if s.kind == "lookup"]
    joins = [i for i, s in enumerate(stmts) if s.kind == "join"]
    scans = [i for i, s in enumerate(stmts) if s.kind == "scan"]
    npeers = len(writer.layout.layouts)

    def read():
        draw = rng.random()
        if draw < 0.90:
            key, origin = rng.choices(keys, cum_weights=cum)[0]
            peer = rng.randrange(origin, npeers)
            candidates = [i for i in lookups if stmts[i].peer == peer]
            return rng.choice(candidates), {"k": key}
        if draw < 0.98:
            return rng.choice(joins), None
        return rng.choice(scans), None

    reads = {
        "light": [read() for _ in range(int(LIGHT_RPS * phase_s))],
        "heavy": [read() for _ in range(int(HEAVY_RPS * phase_s))],
        "capacity": [read() for _ in range(4000)],
    }
    return Inputs(writer, base, steps, stmts, keys, reads, write_steps)


def repeat_shares(inputs: Inputs, phase_s: float) -> dict[str, tuple[float, float]]:
    """Per open-loop phase: the share of reads, and of point lookups, that
    repeat a (statement, bindings) pair already read since the last
    scheduled publish.

    Every publish pins a new snapshot with an empty result cache, so these
    are the reads the cache can answer.  They follow from the generated
    reads and the schedule alone; a traced run measures the same share in
    the server (``serve.result_cache_hit_share.*``).
    """
    seen: dict[int, set] = {}
    shares = {}
    for offset, (phase, rate) in enumerate((("light", LIGHT_RPS), ("heavy", HEAVY_RPS))):
        reads = inputs.reads[phase]
        repeats = lookups = lookup_repeats = 0
        for i, (index, bindings) in enumerate(reads):
            due = offset * phase_s + i / rate
            interval = math.floor((due - PUBLISH_EVERY_S / 2) / PUBLISH_EVERY_S)
            pinned = seen.setdefault(interval, set())
            key = (index, tuple(sorted((bindings or {}).items())))
            repeat = key in pinned
            pinned.add(key)
            repeats += repeat
            if inputs.statements[index].kind == "lookup":
                lookups += 1
                lookup_repeats += repeat
        shares[phase] = (repeats / len(reads), lookup_repeats / max(lookups, 1))
    return shares


def connections() -> int:
    """Load-generator connections: at most ``nproc``, and at most two."""
    return min(len(os.sched_getaffinity(0)), 2)


def _body(doc) -> bytes:
    return json.dumps(doc, separators=(",", ":")).encode()


def _edit_body(step) -> bytes:
    return _body(
        {"edits": [{"op": op, "relation": rel, "row": list(row)} for op, rel, row in step.edits]}
    )


# -- the server process ----------------------------------------------------------


class Server:
    """One ``repro serve`` child process; started, timed to ``listening``."""

    def __init__(self, root: Path, spec: Path, data_dir: Path, spans: Path | None) -> None:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(root / "src")
        serve_args = [str(spec), "--port", "0", "--data-dir", str(data_dir), *SERVER_ARGS]
        if spans is None:
            cmd = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            launcher = Path(__file__).resolve().parent / "serve_launcher.py"
            cmd = [sys.executable, str(launcher), str(spans), *serve_args]
        self.log = open(data_dir.parent / (data_dir.name + ".log"), "w")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self.log
        )
        try:
            line = self._read_line(LISTEN_TIMEOUT_S)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - start
        match = re.search(r"http://([\d.]+):(\d+)", line)
        if match is None:
            self.kill()
            raise RuntimeError(f"server did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        self.pid = self.proc.pid

    def _read_line(self, timeout: float) -> str:
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout
        buffer = b""
        while b"\n" not in buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("server did not print its listening line")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError(
                        f"server exited with {self.proc.wait()} before listening"
                    )
                buffer += chunk
        return buffer.decode(errors="replace")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


# -- the load generator ------------------------------------------------------------


class Connection:
    """A minimal HTTP/1.1 keep-alive client over asyncio streams."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.reader = self.writer = None

    async def call(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(self.host, self.port)
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode()
        try:
            self.writer.write(head + body)
            raw = await self.reader.readuntil(b"\r\n\r\n")
            lines = raw.decode("latin-1").split("\r\n")
            status = int(lines[0].split()[1])
            length = 0
            for line in lines[1:]:
                if line.lower().startswith("content-length:"):
                    length = int(line.split(":", 1)[1])
            payload = await self.reader.readexactly(length)
        except (OSError, asyncio.IncompleteReadError, ValueError):
            await self.close()
            raise
        return status, payload

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
            self.reader = self.writer = None


@dataclass(order=True)
class Op:
    due: float
    seq: int
    kind: str = field(compare=False)  # read / write / scrape
    phase: str = field(compare=False, default="")
    payload: object = field(compare=False, default=None)


@dataclass
class Load:
    """Everything the load generator observed."""

    reads: list = field(default_factory=list)  # (phase, latency_ms, late_ms, rtt_ms, ok)
    writes: list = field(default_factory=list)  # dicts per writer step
    scrapes: list = field(default_factory=list)  # (label, metrics text, stats, cpu_s)
    window: tuple = (0.0, 0.0)


class LoadGenerator:
    def __init__(self, server: Server, inputs: Inputs, phase_s: float, connections: int) -> None:
        self.server = server
        self.inputs = inputs
        self.phase_s = phase_s
        self.connections = connections
        self.load = Load()
        self._heap: list[Op] = []
        self._seq = 0
        self._capacity = iter(())
        self._write_lock = asyncio.Lock()

    def _push(self, due, kind, phase="", payload=None) -> None:
        self._seq += 1
        heapq.heappush(self._heap, Op(due, self._seq, kind, phase, payload))

    def _phase_at(self, t: float) -> str:
        index = int((t - self.t0) // self.phase_s)
        return ("light", "heavy", "capacity")[min(max(index, 0), 2)]

    def schedule(self, t0: float) -> None:
        self.t0 = t0
        self.end = t0 + 3 * self.phase_s
        for phase, rate, offset in (("light", LIGHT_RPS, 0), ("heavy", HEAVY_RPS, 1)):
            start = t0 + offset * self.phase_s
            for i, read in enumerate(self.inputs.reads[phase]):
                self._push(start + i / rate, "read", phase, read)
        due = t0 + PUBLISH_EVERY_S / 2
        steps = iter(self.inputs.steps[self.inputs.write_steps :])
        while due < self.end:
            self._push(due, "write", self._phase_at(due), next(steps))
            due += PUBLISH_EVERY_S
        for boundary in (1, 2):
            self._push(t0 + boundary * self.phase_s, "scrape", ("light", "heavy")[boundary - 1])
        self.capacity_start = t0 + 2 * self.phase_s
        self._capacity = itertools.cycle(self.inputs.reads["capacity"])

    async def _next(self) -> Op | None:
        while True:
            now = time.perf_counter()
            if self._heap and self._heap[0].due <= now:
                return heapq.heappop(self._heap)
            if self.capacity_start <= now < self.end:
                self._seq += 1
                return Op(now, self._seq, "read", "capacity", next(self._capacity))
            if now >= self.end and not self._heap:
                return None
            wake = self._heap[0].due if self._heap else self.end
            if now < self.capacity_start:
                wake = min(wake, self.capacity_start)
            await asyncio.sleep(max(wake - now, 0.0))

    async def _worker(self, conn: Connection) -> None:
        bodies = self.bodies
        while True:
            op = await self._next()
            if op is None:
                return
            if op.kind == "read":
                sent = time.perf_counter()
                ok = False
                try:
                    status, _ = await conn.call("POST", "/execute", bodies[id(op.payload)])
                    ok = status == 200
                except (OSError, asyncio.IncompleteReadError, ValueError):
                    pass
                done = time.perf_counter()
                latency = (done - op.due) * 1e3 if ok else math.inf
                self.load.reads.append(
                    (op.phase, latency, (sent - op.due) * 1e3, (done - sent) * 1e3, ok)
                )
            elif op.kind == "write":
                # Steps publish in script order even if one overruns its
                # second, so the reference can replay them one by one.
                async with self._write_lock:
                    step = op.payload
                    self.load.writes.append(
                        await write_step(conn, step, self.edit_bodies[id(step)], op.phase)
                    )
            else:
                self.load.scrapes.append(await scrape(conn, op.phase, self.server.pid))

    async def run(self) -> Load:
        statement_ids = [s.id for s in self.inputs.statements]
        self.bodies = {}
        for phase_reads in self.inputs.reads.values():
            for read in phase_reads:
                index, bindings = read
                doc = {"statement": statement_ids[index], "mode": "certain"}
                if bindings:
                    doc["bindings"] = bindings
                self.bodies[id(read)] = _body(doc)
        self.edit_bodies = {
            id(step): _edit_body(step)
            for step in self.inputs.steps[self.inputs.write_steps :]
        }
        conns = [Connection(self.server.host, self.server.port) for _ in range(self.connections)]
        try:
            self.load.scrapes.append(await scrape(conns[0], "start", self.server.pid))
            t0 = time.perf_counter() + 0.2
            self.schedule(t0)
            await asyncio.gather(*(self._worker(c) for c in conns))
            self.load.scrapes.append(await scrape(conns[0], "capacity", self.server.pid))
            self.load.window = (t0, time.perf_counter())
        finally:
            for conn in conns:
                await conn.close()
        return self.load


async def write_step(conn: Connection, step, body: bytes, phase: str) -> dict:
    """One writer step, ``/edit`` then ``/publish``, timed from the client."""
    record = {"kind": step.kind, "rows": step.rows, "phase": phase, "ok": False}
    t0 = time.perf_counter()
    try:
        status = 200
        if step.edits:
            status, _ = await conn.call("POST", "/edit", body)
        t1 = time.perf_counter()
        if status == 200:
            status, payload = await conn.call("POST", "/publish", b"{}")
            t2 = time.perf_counter()
            if status == 200:
                record.update(
                    ok=True,
                    edit_ms=(t1 - t0) * 1e3,
                    publish_ms=(t2 - t1) * 1e3,
                    server_s=json.loads(payload)["seconds"],
                )
    except (OSError, asyncio.IncompleteReadError, ValueError):
        pass
    return record


async def write_round(server: Server, steps: list) -> list[dict]:
    """The write round: ``steps`` back to back on one connection, no reads."""
    conn = Connection(server.host, server.port)
    try:
        return [await write_step(conn, step, _edit_body(step), "write") for step in steps]
    finally:
        await conn.close()


async def scrape(conn: Connection, label: str, pid: int) -> tuple:
    """``/metrics`` text, ``/stats`` and the server's CPU seconds at a boundary."""
    _, text = await conn.call("GET", "/metrics")
    _, stats = await conn.call("GET", "/stats")
    return label, text.decode(), json.loads(stats), cpu_seconds(pid)


_SERIES = re.compile(r'^repro_serve_request_seconds_(sum|count)\{([^}]*)\} (\S+)$', re.M)


def request_seconds(text: str, route: str) -> tuple[float, float]:
    """``(sum, count)`` of the server's request histogram for one route."""
    found = {"sum": 0.0, "count": 0.0}
    for kind, labels, value in _SERIES.findall(text):
        if f'route="{route}"' in labels:
            found[kind] = float(value)
    return found["sum"], found["count"]


# -- the scenario -------------------------------------------------------------------


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _encoded(rows) -> list:
    from repro.serve.protocol import encode_row

    return sorted(json.dumps(encode_row(row)) for row in rows)


def build_reference(spec_path: Path, steps: list):
    """The state the server must hold: the spec, then every acknowledged step.

    Also returns how many revoked rows were checked and which of them were
    inert.  A revocation must name a row the relation holds and the peer
    did not contribute itself, just before its step: a delete of any other
    row would be accepted and do nothing, and the revoke publishes would
    measure no rejections.
    """
    from repro import CDSS

    ref = CDSS.from_spec(spec_path)
    ref.update_exchange()
    checked, inert = 0, []
    for step in steps:
        if step.kind == REVOKE:
            system = ref.system()
            present: dict[str, set] = {}
            for _, relation, row in step.edits:
                if relation not in present:
                    present[relation] = set(ref.relation(relation).to_rows())
                checked += 1
                if row not in present[relation] or row in system.local_contributions(relation):
                    inert.append((relation, row))
        with ref.batch() as batch:
            stage(batch, step.edits)
        ref.update_exchange()
    return ref, checked, inert


def spot_check(client, ref, inputs: Inputs, rng: random.Random) -> list[str]:
    """Run every prepared statement on the quiesced server and the reference."""
    mismatches = []
    for stmt in inputs.statements:
        prepared = ref.prepare(stmt.text, params=stmt.params)
        if stmt.params:
            # Keys whose entries reach this statement's peer along the chain.
            reaching = [key for key, origin in inputs.keys if origin <= stmt.peer]
            bindings = [{"k": key} for key in rng.sample(reaching, 3)]
        else:
            bindings = [{}]
        for binding in bindings:
            served = client.execute(stmt.id, binding or None)
            got = sorted(json.dumps(row) for row in served["rows"])
            want = _encoded(prepared.execute(**binding))
            if got != want:
                mismatches.append(f"{stmt.name} {binding}")
    return mismatches


def scenario(root: Path, work: Path, inputs: Inputs, phase_s: float, setups: int,
             traced: bool) -> dict:
    from repro import DurableNode
    from repro.serve.client import ServeClient
    from repro.storage.codec import dumps_row

    spec_path = work / "spec.json"
    spans_path = work / "server-spans.jsonl" if traced else None
    setup_times = []
    write_rounds = []
    server = None
    try:
        for attempt in range(setups):
            data_dir = work / f"node{attempt}"
            server = Server(root, spec_path, data_dir, spans_path)
            setup_times.append(server.setup_s)
            write_start = time.perf_counter()
            write_rounds.append(asyncio.run(write_round(server, inputs.write_round)))
            if attempt < setups - 1:
                server.kill()
                server = None
                shutil.rmtree(data_dir)

        with ServeClient(server.host, server.port) as client:
            for stmt in inputs.statements:
                stmt.id = client.prepare(stmt.text, params=stmt.params)["statement"]
            generator = LoadGenerator(server, inputs, phase_s, connections())
            load = asyncio.run(generator.run())
            # The last server's writes, in the order they were published.
            load.writes[:0] = write_rounds[-1]

            acknowledged = [s for s, w in zip(inputs.steps, load.writes) if w["ok"]]
            ref, revocations, inert = build_reference(spec_path, acknowledged)
            mismatches = spot_check(client, ref, inputs, random.Random(inputs.writer.seed))

        if traced:
            server.proc.send_signal(signal.SIGUSR1)
            deadline = time.monotonic() + 30
            while not spans_path.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
        server_rss = peak_rss_mb(server.pid)
        server_cpu = cpu_seconds(server.pid)
        state_bytes = sum(
            f.stat().st_size for f in data_dir.iterdir() if f.name.startswith("state.")
        )
        wal_bytes = _dir_bytes(data_dir / "wal")
        server.kill()
        server = None

        tracer = Tracer() if traced else None
        uninstall = install(tracer) if traced else None
        try:
            start = time.perf_counter()
            node = DurableNode.open(data_dir)
            recovery_s = time.perf_counter() - start
        finally:
            if uninstall:
                uninstall()
        recovered = certain_instances(node.cdss)
        expected = certain_instances(ref)
        system = node.cdss.system()
        live_local = sum(len(system.local_contributions(n)) for n in node.cdss.relations())
        result = {
            "setup_times": setup_times,
            "write_rounds": write_rounds,
            "write_start": write_start,
            "load": load,
            "mismatches": mismatches,
            "revocations": revocations,
            "inert_revocations": inert,
            "recovered_ok": recovered == expected,
            "digest": digest_rows(recovered),
            "server_rss": server_rss,
            "server_cpu": server_cpu,
            "state_bytes": state_bytes,
            "wal_bytes": wal_bytes,
            "recovery_s": recovery_s,
            "replayed_publish_records": node.replayed_publish_records,
            "replayed_edit_records": node.replayed_edit_records,
            "total_rows": system.db.total_rows(),
            "estimated_bytes": system.db.estimated_bytes(),
            "live_local": live_local,
            "user_bytes": sum(len(dumps_row(row)) for _, _, row in inputs.base)
            + sum(len(dumps_row(row)) for s in acknowledged for _, _, row in s.edits),
            "config": {
                "workers": ref.workers,
                "index_policy": ref.index_policy,
                "strategy": ref.strategy,
            },
            "recovery_spans": tracer.spans if traced else [],
            "server_spans": load_spans(spans_path) if traced else [],
        }
        node.close(checkpoint=False)
        return result
    finally:
        if server is not None:
            server.kill()


# -- metrics --------------------------------------------------------------------------


def _publish_ms(write: dict) -> float:
    return write["publish_ms"] if write["ok"] else math.inf


def _step_ms(write: dict) -> float:
    return write["edit_ms"] + write["publish_ms"] if write["ok"] else math.inf


def add_end_to_end(report: Report, res: dict, phase_s: float) -> None:
    load: Load = res["load"]
    report.add("setup_s", median(res["setup_times"]), "s",
               f"median of {len(res['setup_times'])} server starts")
    rounds = res["write_rounds"]
    # Per step of the write round, its best over the rounds (failures are inf).
    best = [min(_publish_ms(w) for w in repeats) for repeats in zip(*rounds)]
    best_step = [min(_step_ms(w) for w in repeats) for repeats in zip(*rounds)]
    kinds = [w["kind"] for w in rounds[0]]
    for kind in KINDS:
        samples = [b for k, b in zip(kinds, best) if k == kind]
        report.add(f"publish_{kind}_p50_ms", median(samples), "ms",
                   f"{len(samples)} client-side /publish, each at its best of "
                   f"{len(rounds)} write rounds")
    result = tail(_publish_ms(w) for r in rounds for w in r)
    if result is None:
        raise RuntimeError(f"only {len(rounds[0])} publishes: too few for a tail")
    report.add("publish_tail_ms", result[0], "ms",
               f"p{result[1]:.2f} of {result[2]} publishes, every write round")
    rows = sum(w["rows"] for w in rounds[0])
    report.add("edits_per_s", rows / (sum(best_step) / 1e3), "edits/s",
               f"{rows} edit rows per write round over /edit+/publish time, "
               "each step at its best round")
    # CPU per request over the open-loop phases, whose offered load is fixed.
    cpu = {label: seconds for label, _, _, seconds in load.scrapes}
    ops = sum(1 for r in load.reads if r[0] in ("light", "heavy"))
    ops += 2 * sum(1 for w in load.writes if w["phase"] in ("light", "heavy"))
    report.add("cpu_ms_per_op", (cpu["heavy"] - cpu["start"]) * 1e3 / ops, "ms",
               f"server CPU per request, {ops} requests of the open-loop phases")
    report.add("peak_rss_mb", res["server_rss"], "MB", "server VmHWM")
    report.add("stored_rows_per_user_row", res["total_rows"] / res["live_local"], "ratio",
               f"{res['total_rows']} stored / {res['live_local']} live local rows, recovered")
    report.add("disk_bytes_per_user_byte",
               (res["state_bytes"] + res["wal_bytes"]) / res["user_bytes"], "ratio",
               f"{res['state_bytes'] + res['wal_bytes']} B on disk / {res['user_bytes']} B of rows")
    for phase in ("light", "heavy"):
        reads = [r for r in load.reads if r[0] == phase]
        lat = [r[1] for r in reads]
        late = [r[2] for r in reads]
        report.add(f"read_p50_ms.{phase}", median(lat), "ms",
                   f"{len(reads)} reads; generator late p50 {median(late):.3f} ms, "
                   f"max {max(late):.1f} ms")
        report.add_tail(f"read_tail_ms.{phase}", lat)
    capacity = [r for r in load.reads if r[0] == "capacity"]
    good = sum(1 for r in capacity if r[1] <= READ_LIMIT_MS)  # failures are inf
    report.add("read_capacity_rps", good / phase_s, "reads/s",
               f"{good} of {len(capacity)} closed-loop reads within {READ_LIMIT_MS:g} ms")
    report.add("recovery_s", res["recovery_s"], "s",
               f"{res['replayed_publish_records']} publishes replayed")
    for phase in ("light", "heavy", "capacity"):
        samples = [_publish_ms(w) for w in load.writes if w["phase"] == phase]
        if samples:
            report.add(f"publish_p50_ms.{phase}", median(samples), "ms",
                       f"{len(samples)} publishes of every kind while serving reads")


def add_serve_layers(report: Report, res: dict) -> None:
    """serve.* and durability.* metrics: /metrics, /stats, /proc and disk."""
    load: Load = res["load"]
    scrapes = {label: (text, stats, cpu) for label, text, stats, cpu in load.scrapes}
    order = ["start", "light", "heavy", "capacity"]
    for before, phase in zip(order, order[1:]):
        if before not in scrapes or phase not in scrapes:
            continue
        s0, c0 = request_seconds(scrapes[before][0], "/execute")
        s1, c1 = request_seconds(scrapes[phase][0], "/execute")
        server_ms = (s1 - s0) * 1e3 / max(c1 - c0, 1)
        report.add(f"serve.server_request_ms.{phase}", server_ms, "ms",
                   f"{int(c1 - c0)} /execute requests")
        rtts = [r[3] for r in load.reads if r[0] == phase and r[4]]
        if rtts:
            report.add(f"serve.client_minus_server_ms.{phase}",
                       statistics.fmean(rtts) - server_ms, "ms",
                       "mean client round trip minus mean server time")
    ok = [w for w in load.writes if w["ok"]]
    report.add("serve.publish_overhead_ms",
               statistics.fmean(w["publish_ms"] - w["server_s"] * 1e3 for w in ok), "ms",
               "client /publish minus the exchange's own seconds")
    first, last = scrapes["start"][1], scrapes["capacity"][1]
    adm0, adm1 = first["admission"], last["admission"]
    report.add("serve.admission_peak_waiting", adm1["peak_waiting"], "count")
    report.add("serve.admission_rejected", adm1["rejected"] - adm0["rejected"], "count")
    report.add("serve.admission_timeouts", adm1["timeouts"] - adm0["timeouts"], "count")
    report.add("serve.snapshot_refreshes",
               last["snapshot"]["refreshes"] - first["snapshot"]["refreshes"], "count")
    report.add("serve.server_cpu_s", scrapes["capacity"][2] - scrapes["start"][2], "s",
               "during the load")
    d0, d1 = first["durability"], last["durability"]
    report.add("durability.wal_appends", d1["wal_appends"] - d0["wal_appends"], "count")
    report.add("durability.wal_fsyncs", d1["wal_fsyncs"] - d0["wal_fsyncs"], "count")
    report.add("durability.wal_bytes", res["wal_bytes"], "bytes")
    report.add("durability.state_bytes", res["state_bytes"], "bytes")
    report.add("durability.replayed_records",
               res["replayed_publish_records"] + res["replayed_edit_records"], "count")


def add_trace_layers(report: Report, res: dict, untraced: dict, lines: list,
                     phase_s: float) -> None:
    load: Load = res["load"]
    t0, t1 = load.window
    spans = [s for s in res["server_spans"] if res["write_start"] <= s.start <= t1]
    layers.add_exchange_layers(report, spans)
    cached = [s for s in spans if s.name == "storage.snapshot_cached"]
    for k, phase in enumerate(("light", "heavy", "capacity")):
        lo, hi = t0 + k * phase_s, t0 + (k + 1) * phase_s
        reads = [s for s in cached if lo <= s.start < hi]
        if reads:
            report.add(f"serve.result_cache_hit_share.{phase}",
                       sum(s.attrs["hit"] for s in reads) / len(reads), "ratio",
                       f"of {len(reads)} snapshot reads, measured in the server")
    requests = {}
    for span in spans:
        if span.name == "serve.request":
            requests.setdefault(span.attrs["route"], []).append(span.seconds * 1e3)
    ok = [w for w in load.writes if w["ok"]]
    for op, route, key in (("publish", "/publish", "publish_ms"), ("stage", "/edit", "edit_ms")):
        server = requests.get(route, [])
        report.add(
            f"unattributed.{op}_ms",
            statistics.fmean(w[key] for w in ok) - (statistics.fmean(server) if server else 0.0),
            "ms",
            f"client {route} minus the server's request span",
        )
    report.add("storage.total_rows", res["total_rows"], "rows", "recovered node")
    report.add("storage.estimated_bytes", res["estimated_bytes"], "bytes", "recovered node")
    report.add("parallel.bytes_on_wire", 0, "bytes", "no worker pool at workers=1")
    recovery = res["recovery_spans"]
    restore = sum(s.seconds for s in recovery if s.name == "storage.restore")
    opened = sum(s.seconds for s in recovery if s.name == "durability.open")
    report.add("durability.restore_ms", restore * 1e3, "ms")
    report.add("durability.replay_ms", (opened - restore) * 1e3, "ms",
               "DurableNode.open minus restore")

    def publish_p50(r):
        return median(w["publish_ms"] for w in r["load"].writes
                      if w["ok"] and w["phase"] == "write")

    traced_ms, untraced_ms = publish_p50(res), publish_p50(untraced)
    report.add("trace.overhead_pct", 100.0 * (traced_ms / untraced_ms - 1.0), "%",
               f"client /publish median {traced_ms:.3f} ms traced vs {untraced_ms:.3f} ms untraced")

    roots = {}
    publishes = [s for s in spans if s.name == "durability.publish"]
    kinds = [w["kind"] for w in ok]
    for span, kind in zip(sorted(publishes, key=lambda s: s.start), kinds):
        roots[span.id] = kind
    lines.append("server-side publish breakdown by kind (mean ms, traced pass):")
    lines.extend(layers.format_breakdown(layers.kind_breakdown(spans, roots)))
    lines.append("server self time per layer (ms per publish; serve counts every read too):")
    # Snapshot reads run on reader threads, outside their request's span.
    lines.extend(layers.format_layers(
        [s for s in spans if s.name != "storage.snapshot_cached"], len(publishes)))


def run(seed: int, seconds: float, trace: bool, root: Path, out,
        shape: Shape = SHAPE) -> dict:
    """Run serve-durable; ``shape`` overrides its size (self-tests)."""
    work = WORK_DIR / f"serve-durable-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        passes = [False, True] if trace else [False]
        phase_s = seconds / 5
        results = []
        for traced in passes:
            pass_dir = work / ("traced" if traced else "untraced")
            pass_dir.mkdir()
            inputs = make_inputs(seed, phase_s, round(WRITE_STEPS_PER_S * seconds), shape)
            cdss = inputs.writer.layout.build_cdss()
            with cdss.batch() as batch:
                stage(batch, inputs.base)
            cdss.to_spec().save(pass_dir / "spec.json")
            del cdss
            results.append(
                scenario(root, pass_dir, inputs, phase_s, 1 if trace else SETUPS, traced)
            )
        res = results[0]
        report = Report()
        add_end_to_end(report, res, phase_s)
        add_serve_layers(report, res)
        for phase, (reads, lookups) in repeat_shares(inputs, phase_s).items():
            report.add(f"reads.repeat_share.{phase}", reads, "ratio",
                       f"reads the snapshot result cache can answer; lookups {lookups:.3f}")
        lines: list[str] = []
        if trace:
            add_trace_layers(report, results[1], res, lines, phase_s)
            dump_spans(
                results[1]["server_spans"] + results[1]["recovery_spans"],
                WORK_DIR / f"trace-serve-durable-seed{seed}.jsonl",
            )
        for r in results:
            print(f"digest {r['digest']}", file=out)
        for line in lines:
            print(line, file=out)
        gates = {}
        for r, name in zip(results, ("", "traced_")):
            gates[f"{name}writes_acknowledged"] = all(
                w["ok"] for writes in (r["load"].writes, *r["write_rounds"]) for w in writes
            )
            gates[f"{name}spot_check"] = not r["mismatches"]
            gates[f"{name}recovered_equals_reference"] = r["recovered_ok"]
            gates[f"{name}revocations_name_derived_rows"] = (
                r["revocations"] > 0 and not r["inert_revocations"]
            )
            for relation, row in r["inert_revocations"][:5]:
                print(f"inert revocation: {relation} {row}", file=out)
            for mismatch in r["mismatches"][:5]:
                print(f"spot-check mismatch: {mismatch}", file=out)
        reads = sum(len(r["load"].reads) for r in results)
        failed_reads = sum(1 for r in results for x in r["load"].reads if not x[4])
        # The last write round is in load.writes too.
        all_writes = [
            w for r in results for writes in (r["load"].writes, *r["write_rounds"][:-1])
            for w in writes
        ]
        writes = len(all_writes)
        failed_writes = sum(1 for w in all_writes if not w["ok"])
        return {
            "report": report,
            "gates": gates,
            "attempted": reads + 2 * writes + len(gates),
            "failed": failed_reads + failed_writes + sum(1 for ok in gates.values() if not ok),
            "config": dict(
                res["config"],
                fsync="always",
                readers=2,
                connections=connections(),
                layout_seed=shape.layout_seed,
                phase_seconds=phase_s,
                reads_failed=failed_reads,
            ),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
