"""chain-churn and cycles-churn: in-process batch streams through the public API.

One *round* builds a fresh CDSS, stages the base data with one
``cdss.batch()``, runs the initial ``cdss.update_exchange()`` and one
small warm-up batch of every kind, which plans the delete and revoke
paths (together: ``setup_s``), then replays the
same scripted stream of insert / delete / revoke / combined batches, each
staged with one ``cdss.batch()`` and published with one timed
``cdss.update_exchange()``.  Rounds repeat until ``--seconds`` of stream
time have been measured (set-up time comes on top); every round replays
the same inputs, so every round must end in the same certain instances.

Because every round replays the same batches, each batch is timed once
per round, and the stream metrics take each batch at its best round
(``best_steps``): on a shared host a whole round can run 30-40% slower
than the next for the same work, and the slowest repeats measure the
neighbours, not the program.  ``publish_tail_ms`` still pools every
publish of every untraced round.
"""

from __future__ import annotations

import gc
import statistics
import time
from statistics import median
from contextlib import nullcontext
from dataclasses import dataclass, field

import layers
from inputs import COMBINED, DELETE, INSERT, REVOKE, ScriptWriter, Shape, stage
from metrics import Report, certain_instances, digest_rows, peak_rss_mb
from tracer import WORK_DIR, Tracer, install, self_seconds, wire_bytes

KINDS = [INSERT, DELETE, REVOKE, COMBINED]

SHAPES = {
    # Acyclic, full tgds: inserts are evaluation plus index maintenance.
    "chain-churn": Shape("chain", 0, "integer", True, base_per_peer=400),
    # Fig. 10's back-edges: deletes must re-check derivability.
    "cycles-churn": Shape("pairs", 2, "integer", True, base_per_peer=200),
}

#: Stream cycles (one batch of each kind) per round.  Rounds replay one
#: stream, so a run's medians see only this many distinct batches of a
#: kind; more rounds, though, give each batch more repeats to take its
#: best from.  chain-churn's 12 cycles take about 1.4 s, so a 25 s run
#: has some 18 rounds; a cycles-churn cycle takes 1.2-2 s.
CYCLES_PER_ROUND = {"chain-churn": 12, "cycles-churn": 4}

#: Untraced rounds a run measures at least, whatever ``--seconds`` says:
#: a batch's best of fewer repeats still carries the host's noise.
MIN_ROUNDS = 4


@dataclass
class Round:
    setup_s: float
    traced: bool
    publishes: list = field(default_factory=list)  # (kind, seconds)
    steps: list = field(default_factory=list)  # (publish, stage+publish, CPU) s
    stream_s: float = 0.0
    digest: str = ""


def run_round(writer: ScriptWriter, base, warmup, stream, tracer: Tracer | None):
    """One fresh CDSS through set-up and the scripted stream."""

    def span(name, **attrs):
        return tracer.span(name, **attrs) if tracer else nullcontext()

    start = time.perf_counter()
    cdss = writer.layout.build_cdss()
    with cdss.batch() as batch:
        stage(batch, base)
    cdss.update_exchange()
    for step in warmup:
        with cdss.batch() as batch:
            stage(batch, step.edits)
        cdss.update_exchange()
    result = Round(setup_s=time.perf_counter() - start, traced=tracer is not None)

    for step in stream:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        with span("op.stage", kind=step.kind):
            with cdss.batch() as batch:
                stage(batch, step.edits)
        t1 = time.perf_counter()
        with span("op.publish", kind=step.kind):
            cdss.update_exchange()
        t2 = time.perf_counter()
        result.publishes.append((step.kind, t2 - t1))
        result.steps.append((t2 - t1, t2 - t0, time.process_time() - cpu0))
        result.stream_s += t2 - t0
    result.digest = digest_rows(certain_instances(cdss))
    return result, cdss


def best_steps(rounds: list[Round]) -> list[tuple[float, float, float]]:
    """Per stream step, the least publish, stage+publish and CPU seconds
    over ``rounds`` (which all replay one stream)."""
    per_step = zip(*(r.steps for r in rounds))
    return [tuple(min(column) for column in zip(*repeats)) for repeats in per_step]


def run(workload: str, seed: int, seconds: float, trace: bool, out,
        shape: Shape | None = None) -> dict:
    """Run one churn workload; ``shape`` overrides its size (self-tests)."""
    shape = shape or SHAPES[workload]
    writer = ScriptWriter(shape, seed)
    base = writer.base()
    warmup = writer.steps(KINDS, per_peer=3)
    stream = writer.steps(KINDS * CYCLES_PER_ROUND[workload])

    tracer = Tracer() if trace else None
    rounds: list[Round] = []
    measured = 0.0
    while True:
        # Trace mode alternates untraced and traced rounds, untraced first.
        traced = trace and len(rounds) % 2 == 1
        uninstall = install(tracer) if traced else None
        cdss = None
        gc.collect()
        try:
            result, cdss = run_round(
                writer, base, warmup, stream, tracer if traced else None
            )
        finally:
            if uninstall:
                uninstall()
        rounds.append(result)
        measured += result.stream_s
        untraced = sum(1 for r in rounds if not r.traced)
        if measured >= seconds and untraced >= MIN_ROUNDS:
            break

    # Gates, untimed.  Peak RSS is read first so the checker's own
    # reference system does not count.
    rss = peak_rss_mb()
    system = cdss.system()
    consistent = system.is_consistent()
    digests = {r.digest for r in rounds}
    gates = {
        "is_consistent": consistent,
        "same_digest_every_round": len(digests) == 1,
    }

    untraced = [r for r in rounds if not r.traced]
    best = best_steps(untraced)
    kinds = [step.kind for step in stream]
    report = Report()
    report.add(
        "setup_s",
        median(r.setup_s for r in untraced),
        "s",
        f"median of {len(untraced)} set-ups",
    )
    for kind in (INSERT, DELETE, REVOKE, COMBINED):
        samples = [b[0] for k, b in zip(kinds, best) if k == kind]
        report.add(
            f"publish_{kind}_p50_ms",
            median(samples) * 1e3,
            "ms",
            f"{len(samples)} batches, each at its best of {len(untraced)} rounds",
        )
    publishes = [p for r in untraced for p in r.publishes]
    report.add_tail("publish_tail_ms", [s * 1e3 for _, s in publishes])
    rows = sum(step.rows for step in stream)
    report.add(
        "edits_per_s",
        rows / sum(b[1] for b in best),
        "edits/s",
        f"{rows} edit rows per round, each batch at its best round",
    )
    report.add(
        "cpu_ms_per_op",
        sum(b[2] for b in best) * 1e3 / rows,
        "ms",
        "process CPU per staged edit row, each batch at its best round",
    )
    report.add("peak_rss_mb", rss, "MB")
    live_local = sum(len(system.local_contributions(name)) for name in cdss.relations())
    total_rows = system.db.total_rows()
    report.add(
        "stored_rows_per_user_row",
        total_rows / live_local,
        "ratio",
        f"{total_rows} stored / {live_local} live local rows",
    )

    layer_lines: list[str] = []
    if trace:
        _add_trace_metrics(report, tracer, rounds, cdss, layer_lines)
        WORK_DIR.mkdir(exist_ok=True)
        tracer.dump(WORK_DIR / f"trace-{workload}-seed{seed}.jsonl")

    print(f"digest {rounds[-1].digest}  rounds {len(rounds)}", file=out)
    for line in layer_lines:
        print(line, file=out)
    return {
        "report": report,
        "gates": gates,
        "attempted": sum(2 * len(r.publishes) for r in rounds) + len(gates),
        "failed": sum(1 for ok in gates.values() if not ok),
        "config": {
            "workers": cdss.workers,
            "index_policy": cdss.index_policy,
            "strategy": cdss.strategy,
            "layout_seed": shape.layout_seed,
            "rounds": len(rounds),
            "cycles_per_round": CYCLES_PER_ROUND[workload],
            "stored_rows": total_rows,
        },
    }


def _add_trace_metrics(report, tracer, rounds, cdss, lines) -> None:
    spans = tracer.spans
    # Only spans under the measured stream's operations; set-up is excluded.
    op_roots = {s.id: s for s in spans if s.name in ("op.stage", "op.publish")}
    measured = [s for s in spans if s.trace in op_roots]
    layers.add_exchange_layers(report, measured)
    own = self_seconds(measured)
    for op in ("publish", "stage"):
        roots = [s for s in op_roots.values() if s.name == f"op.{op}"]
        report.add(
            f"unattributed.{op}_ms",
            statistics.fmean(own[s.id] * 1e3 for s in roots),
            "ms",
            f"op.{op} time outside every wrapped layer",
        )
    system = cdss.system()
    report.add("storage.total_rows", system.db.total_rows(), "rows")
    report.add("storage.estimated_bytes", system.db.estimated_bytes(), "bytes")
    report.add("parallel.bytes_on_wire", wire_bytes(system), "bytes")

    def pooled(traced):
        return median(
            s for r in rounds if r.traced == traced for _, s in r.publishes
        )

    untraced_ms, traced_ms = pooled(False) * 1e3, pooled(True) * 1e3
    report.add(
        "trace.overhead_pct",
        100.0 * (traced_ms / untraced_ms - 1.0),
        "%",
        f"publish median {traced_ms:.3f} ms traced vs {untraced_ms:.3f} ms untraced",
    )
    kinds = {s.id: s.attrs["kind"] for s in op_roots.values() if s.name == "op.publish"}
    breakdown = layers.kind_breakdown(measured, kinds)
    lines.append("publish breakdown by kind (mean ms per publish, traced rounds):")
    lines.extend(layers.format_breakdown(breakdown))
    lines.append("self time per layer (per publish, traced rounds):")
    lines.extend(layers.format_layers(measured, len(kinds)))
    delete = breakdown.get(DELETE)
    if delete:
        share = delete["exchange_unattributed"] / delete["publish"]
        verdict = "confirmed" if share >= 0.5 else "refuted"
        lines.append(
            f"prediction 'exchange.unattributed_ms dominates delete publishes': "
            f"{verdict} ({100 * share:.1f}% of a delete publish)"
        )
