"""Self-tests of the benchmark: metric rules, inputs, tracing, smoke runs.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q

The smoke runs drive every workload end to end at a tiny size and take
about half a minute together.
"""

from __future__ import annotations

import io
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import churn  # noqa: E402
import serve_durable  # noqa: E402
from inputs import DELETE, INSERT, REVOKE, ScriptWriter, Shape  # noqa: E402
from metrics import (  # noqa: E402
    MetricNameError,
    Report,
    check_name,
    check_unit,
    tail,
)
from tracer import Span, Tracer, install, layer_self_ms, self_seconds  # noqa: E402


# -- the tail rule ----------------------------------------------------------------


def test_tail_leaves_exactly_ten_samples_beyond():
    samples = list(range(1, 101))  # 1..100
    value, percentile, count = tail(samples)
    assert value == 90
    assert percentile == pytest.approx(90.0)
    assert count == 100
    assert sum(1 for s in samples if s > value) == 10


def test_tail_needs_eleven_samples():
    assert tail(range(10)) is None
    value, percentile, count = tail(range(11))
    assert value == 0
    assert count == 11
    assert percentile == pytest.approx(100 / 11)


def test_tail_counts_failures_as_missing_every_limit():
    samples = [1.0] * 89 + [math.inf] * 11
    value, _, _ = tail(samples)
    assert value == math.inf


def test_tail_is_order_independent():
    forward = list(range(500))
    assert tail(forward) == tail(list(reversed(forward)))


# -- names and units ------------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["setup_s", "read_p50_ms.light", "exchange.apply_ms", "a-b_c.d", "9lives"]
)
def test_good_names(name):
    assert check_name(name) == name


@pytest.mark.parametrize(
    "name", ["", "has space", "slash/name", ".leading", "_leading", "x" * 65, "semi;colon"]
)
def test_bad_names(name):
    with pytest.raises(MetricNameError):
        check_name(name)


def test_units():
    for unit in ("ms", "s", "edits/s", "%", "count", "ratio", "MB"):
        assert check_unit(unit) == unit
    for unit in ("", "mega bytes", "x" * 17):
        with pytest.raises(MetricNameError):
            check_unit(unit)


def test_benchmark_json_names_follow_the_grammar():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    names += [w["name"] for w in contract["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        check_name(name)
    for metric in contract["end_to_end"] + contract["per_layer"]:
        check_unit(metric["unit"])
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in contract["end_to_end"]
    )


def test_report_rejects_duplicates_and_non_finite_selection():
    report = Report()
    report.add("a_ms", 1.0, "ms")
    with pytest.raises(MetricNameError):
        report.add("a_ms", 2.0, "ms")
    report.add("b_ms", math.inf, "ms")
    assert report.select(["a_ms"]) == {"a_ms": {"value": 1.0, "unit": "ms"}}
    with pytest.raises(ValueError):
        report.select(["b_ms"])


# -- tracing --------------------------------------------------------------------------


def _span(span_id, parent, start, end, name="x.y"):
    span = Span(span_id, parent, 1, name, start)
    span.end = end
    return span


def test_self_time_subtracts_children_once():
    spans = [
        _span(1, None, 0.0, 10.0, "op.publish"),
        _span(2, 1, 1.0, 4.0, "exchange.apply"),
        _span(3, 1, 4.0, 6.0, "editlog.publish"),
        _span(4, 2, 1.5, 2.0, "datalog.x"),
    ]
    own = self_seconds(spans)
    assert own[1] == pytest.approx(10.0 - 5.0)
    assert own[2] == pytest.approx(3.0 - 0.5)
    layers = layer_self_ms(spans)
    assert layers["unattributed"] == pytest.approx(5000.0)
    assert sum(layers.values()) == pytest.approx(10000.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(1, None, 0.0, 10.0, "op.publish"),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 3.0, 6.0),
    ]
    assert self_seconds(spans)[1] == pytest.approx(10.0 - 5.0)


def test_tracer_nests_and_uninstall_restores():
    from repro.api.batch import Batch
    from repro.core import cdss as cdss_module

    original_commit = Batch.commit
    original_publish = cdss_module.publish
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        assert Batch.commit is not original_commit
        assert cdss_module.publish is not original_publish
        from repro import CDSS

        system = CDSS("t")
        system.add_peer("P", {"R": ("a", "b")})
        system.add_peer("Q", {"S": ("a", "b")})
        system.add_mapping("m", "R(a, b) -> S(a, b)")
        with tracer.span("op.publish"):
            with system.batch() as batch:
                batch.insert("R", (1, 2))
            system.update_exchange()
    finally:
        uninstall()
    assert Batch.commit is original_commit
    assert cdss_module.publish is original_publish
    names = {s.name for s in tracer.spans}
    assert {"op.publish", "api.batch_commit", "editlog.publish", "exchange.apply_delta"} <= names
    root = next(s for s in tracer.spans if s.name == "op.publish")
    for span in tracer.spans:
        assert span.trace == root.id
        if span is not root:
            assert root.start <= span.start <= span.end <= root.end
    apply = next(s for s in tracer.spans if s.name == "exchange.apply_delta")
    assert apply.attrs["inserted"] >= 1


# -- inputs -----------------------------------------------------------------------------


TINY_CHAIN = Shape("chain", 0, "integer", True, base_per_peer=20, peers=4, per_peer=3)


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    def script(seed):
        writer = ScriptWriter(TINY_CHAIN, seed)
        return writer.base(), [s.edits for s in writer.steps([INSERT, DELETE, REVOKE])]

    assert script(3) == script(3)
    assert script(3) != script(4)


# Every workload's layout at a small base size: the revocable rows follow
# from the layout alone.  serve-durable's has existential mappings, so its
# model has to keep labeled nulls out of the revoked rows.
REVOKE_SHAPES = {
    "tiny-chain": TINY_CHAIN,
    "chain-churn": replace(churn.SHAPES["chain-churn"], base_per_peer=20),
    "cycles-churn": replace(churn.SHAPES["cycles-churn"], base_per_peer=10),
    "serve-durable": replace(serve_durable.SHAPE, base_per_peer=20),
}


@pytest.mark.parametrize("name", list(REVOKE_SHAPES))
def test_revocations_name_rows_the_program_derived(name):
    writer = ScriptWriter(REVOKE_SHAPES[name], 5)
    base = writer.base()
    revoke = writer.step(REVOKE)
    assert revoke.edits, "some peer must receive rows it can revoke"
    cdss = writer.layout.build_cdss()
    with cdss.batch() as batch:
        for op, relation, row in base:
            batch.insert(relation, row)
    cdss.update_exchange()
    system = cdss.system()
    for op, relation, row in revoke.edits:
        assert op == DELETE
        assert row in cdss.relation(relation).to_rows()
        assert row not in system.local_contributions(relation)


# -- smoke runs -----------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["chain-churn", "cycles-churn"])
@pytest.mark.parametrize("trace", [False, True])
def test_churn_smoke(workload, trace):
    shape = Shape(
        churn.SHAPES[workload].topology,
        churn.SHAPES[workload].extra_cycles,
        "integer",
        True,
        base_per_peer=15,
        peers=4,
        per_peer=3,
    )
    out = io.StringIO()
    result = churn.run(workload, 1, 0.3, trace, out, shape=shape)
    assert all(result["gates"].values()), result["gates"]
    assert result["failed"] == 0
    values = result["report"].values
    for name in ("setup_s", "publish_insert_p50_ms", "publish_tail_ms", "edits_per_s"):
        assert values[name][0] > 0
    if trace:
        assert "exchange.apply_ms" in values
        assert "trace.overhead_pct" in values
        assert "prediction" in out.getvalue()


def test_churn_digest_repeats_across_runs_of_a_seed():
    shape = Shape("pairs", 1, "integer", True, base_per_peer=10, peers=3, per_peer=2)

    def digest():
        out = io.StringIO()
        churn.run("cycles-churn", 4, 0.2, False, out, shape=shape)
        return next(line for line in out.getvalue().splitlines() if line.startswith("digest"))

    assert digest().split()[1] == digest().split()[1]


def test_repeat_shares_count_repeats_within_one_publish_interval():
    inputs = serve_durable.make_inputs(3, 2.0, 0, replace(serve_durable.SHAPE, base_per_peer=5))
    lookup = next(i for i, s in enumerate(inputs.statements) if s.kind == "lookup")
    scan = next(i for i, s in enumerate(inputs.statements) if s.kind == "scan")
    # Light reads are due every 5 ms; publishes at 0.5 s, 1.5 s, ...
    light = [(scan, None)] * 100 + [(lookup, {"k": 1}), (lookup, {"k": 2})] * 150
    inputs.reads = {"light": light, "heavy": [(lookup, {"k": 1})] * 1200}
    shares = serve_durable.repeat_shares(inputs, 2.0)
    # Scans: one miss in [0, 0.5); lookups: a miss per key in [0.5, 1.5)
    # and again in [1.5, 2.0).
    assert shares["light"] == pytest.approx((((100 - 1) + (300 - 4)) / 400, (300 - 4) / 300))
    # Heavy starts at 2.0 s inside the interval the light lookups of k=1
    # opened at 1.5 s, then opens [2.5, 3.5) and [3.5, 4.0).
    assert shares["heavy"] == pytest.approx(((1200 - 2) / 1200, (1200 - 2) / 1200))


#: serve-durable's own layout (layout 227: existential mappings, so
#: labeled nulls, and strings) at a tiny size.
TINY_SERVE = replace(serve_durable.SHAPE, base_per_peer=10, per_peer=2)


@pytest.mark.parametrize("trace", [False, True])
def test_serve_durable_smoke(trace):
    out = io.StringIO()
    started = time.monotonic()
    result = serve_durable.run(7, 12.0, trace, ROOT, out, shape=TINY_SERVE)
    assert time.monotonic() - started < 120
    assert all(result["gates"].values()), (result["gates"], out.getvalue())
    assert result["failed"] == 0
    values = result["report"].values
    for name in ("setup_s", "publish_revoke_p50_ms", "read_p50_ms.heavy",
                 "read_capacity_rps", "recovery_s", "disk_bytes_per_user_byte",
                 "reads.repeat_share.heavy"):
        assert values[name][0] > 0
    if trace:
        for name in ("exchange.apply_ms", "durability.restore_ms", "unattributed.publish_ms",
                     "serve.result_cache_hit_share.heavy", "trace.overhead_pct"):
            assert name in values, name
        assert values["exchange.apply_ms"][0] > 0
        assert "server-side publish breakdown" in out.getvalue()
