"""Per-layer metrics from the spans of a traced pass.

Every workload publishes through the same library layers (a batch commit,
one ``editlog.publish`` per peer, one ``ExchangeSystem.apply_delta``), so
the same function turns their spans into the per-layer metrics; the
serve-durable spans come from the server process.
"""

from __future__ import annotations

import statistics

from metrics import Report
from tracer import Span, layer_self_ms, self_seconds


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def add_exchange_layers(report: Report, spans: list[Span]) -> None:
    """api / editlog / exchange / datalog / storage metrics per publish."""
    commits = [s for s in spans if s.name == "api.batch_commit"]
    logs = [s for s in spans if s.name == "editlog.publish"]
    applies = [s for s in spans if s.name == "exchange.apply_delta"]
    if not applies or not commits:
        raise RuntimeError("traced pass recorded no publishes")
    n = len(applies)

    report.add("api.batch_commit_ms", _mean(s.seconds * 1e3 for s in commits), "ms")
    report.add("api.batch_rows", _mean(s.attrs["rows"] for s in commits), "rows")
    report.add("editlog.publish_ms", sum(s.seconds for s in logs) * 1e3 / n, "ms")
    report.add("editlog.delta_rows", sum(s.attrs["rows"] for s in logs) / n, "rows")

    def attr(key):
        return [s.attrs[key] for s in applies]

    report.add("exchange.apply_ms", _mean(s.seconds * 1e3 for s in applies), "ms")
    report.add("exchange.rows_inserted", _mean(attr("inserted")), "rows")
    report.add("exchange.rows_deleted", _mean(attr("deleted")), "rows")
    report.add(
        "exchange.unattributed_ms",
        _mean(unattributed_exchange_ms(s) for s in applies),
        "ms",
        "apply_delta minus evaluate, merge and index_settle",
    )
    report.add("datalog.evaluate_ms", _mean(x * 1e3 for x in attr("evaluate")), "ms")
    report.add("datalog.rounds", _mean(attr("rounds")), "count")
    applications = sum(attr("rule_applications"))
    report.add("datalog.rule_applications", applications / n, "count")
    hits = sum(attr("plan_cache_hits"))
    lookups = hits + sum(attr("plan_cache_misses"))
    report.add(
        "datalog.plan_cache_hit_rate",
        hits / lookups if lookups else 0.0,
        "ratio",
        f"base: {lookups} plan lookups",
    )
    report.add(
        "datalog.new_per_application",
        sum(attr("tuples_inserted")) / applications if applications else 0.0,
        "rows",
        f"base: {applications} rule applications",
    )
    report.add(
        "storage.index_settle_ms", _mean(x * 1e3 for x in attr("index_settle")), "ms"
    )
    report.add("storage.index_applied_runs", _mean(attr("index_applied_runs")), "count")
    report.add("storage.index_rebuilds", _mean(attr("index_rebuilds")), "count")
    report.add("storage.index_spills", _mean(attr("index_spills")), "count")
    report.add("parallel.merge_ms", _mean(x * 1e3 for x in attr("merge")), "ms")


def unattributed_exchange_ms(span: Span) -> float:
    phases = span.attrs["evaluate"] + span.attrs["merge"] + span.attrs["index_settle"]
    return (span.seconds - phases) * 1e3


def kind_breakdown(spans: list[Span], roots: dict[int, str]) -> dict[str, dict]:
    """Per publish kind: where a publish's time goes, in mean ms.

    ``roots`` maps the span id of each measured publish root to its kind.
    """
    by_kind: dict[str, list[dict]] = {}
    own = self_seconds(spans)
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    for span in spans:
        kind = roots.get(span.id)
        if kind is None:
            continue
        row = {"publish": span.seconds * 1e3, "editlog": 0.0, "apply": 0.0}
        for child in children.get(span.id, ()):
            if child.name == "editlog.publish":
                row["editlog"] += child.seconds * 1e3
            elif child.name == "exchange.apply_delta":
                row["apply"] += child.seconds * 1e3
                row["evaluate"] = child.attrs["evaluate"] * 1e3
                row["index_settle"] = child.attrs["index_settle"] * 1e3
                row["exchange_unattributed"] = unattributed_exchange_ms(child)
        row["op_unattributed"] = own[span.id] * 1e3
        by_kind.setdefault(kind, []).append(row)
    return {
        kind: {key: _mean(r.get(key, 0.0) for r in rows) for key in rows[0]}
        | {"samples": len(rows)}
        for kind, rows in by_kind.items()
    }


def format_breakdown(breakdown: dict[str, dict]) -> list[str]:
    keys = (
        "publish",
        "editlog",
        "apply",
        "evaluate",
        "index_settle",
        "exchange_unattributed",
        "op_unattributed",
    )
    lines = ["  " + "kind".ljust(10) + "".join(k[:13].rjust(14) for k in keys) + "       n"]
    for kind, row in breakdown.items():
        lines.append(
            "  "
            + kind.ljust(10)
            + "".join(f"{row.get(k, 0.0):14.2f}" for k in keys)
            + f"{row['samples']:8d}"
        )
    return lines


def format_layers(spans: list[Span], per: int) -> list[str]:
    """Self time per layer, in ms per end-to-end operation."""
    totals = layer_self_ms(spans)
    grand = sum(totals.values()) or 1.0
    return [
        f"  {layer:<14} {ms / max(per, 1):10.3f} ms/op  {100 * ms / grand:5.1f}%"
        for layer, ms in sorted(totals.items(), key=lambda kv: -kv[1])
    ]
