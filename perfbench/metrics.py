"""Metric rules shared by every workload: names, tails, summaries, /proc.

Nothing here imports ``repro``; the rules are unit-tested on their own
(see ``test_perfbench.py``).
"""

from __future__ import annotations

import hashlib
import math
import os
import re
from typing import Iterable, Mapping

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]+")

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


class MetricNameError(ValueError):
    """A metric name or unit outside the benchmark's grammar."""


def check_name(name: str) -> str:
    """Validate one metric name against ``[A-Za-z0-9_.-]+``."""
    if not isinstance(name, str) or not NAME_RE.fullmatch(name):
        raise MetricNameError(f"bad metric name {name!r}")
    if not name[0].isalnum() or len(name) > 64:
        raise MetricNameError(
            f"metric name {name!r} must start with a letter or digit and "
            "have at most 64 characters"
        )
    return name


def check_unit(unit: str) -> str:
    if not isinstance(unit, str) or not UNIT_RE.fullmatch(unit) or len(unit) > 16:
        raise MetricNameError(f"bad metric unit {unit!r}")
    return unit


def tail(samples: Iterable[float]) -> tuple[float, float, int] | None:
    """The highest percentile that leaves ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile, sample_count)``: the value is the
    ``(TAIL_BEYOND + 1)``-th largest sample, whose rank leaves exactly
    ``TAIL_BEYOND`` samples above it, and the percentile is that rank as
    a share of the count.  A failed operation enters as ``math.inf`` (it
    misses every latency limit).  ``None`` when there are too few samples
    for any rank to leave that many beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND  # 1-based
    return ordered[rank - 1], 100.0 * rank / n, n


def certain_instances(cdss) -> dict:
    """Every user relation's certain (labeled-null-free) rows."""
    return {name: cdss.relation(name).certain().to_rows() for name in cdss.relations()}


def digest_rows(relations: Mapping[str, Iterable[tuple]]) -> str:
    """An order-independent, process-independent digest of row sets."""
    hasher = hashlib.sha256()
    for name in sorted(relations):
        hasher.update(name.encode())
        for text in sorted(repr(row) for row in relations[name]):
            hasher.update(b"\x00")
            hasher.update(text.encode())
        hasher.update(b"\x01")
    return hasher.hexdigest()[:16]


# -- /proc readers ------------------------------------------------------------


def _status_kb(pid: int | str, field: str) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    return _status_kb(pid, "VmHWM") / 1024.0


def cpu_seconds(pid: int | str = "self") -> float:
    """User plus system CPU seconds a process has used so far."""
    with open(f"/proc/{pid}/stat") as handle:
        raw = handle.read()
    # The command name may contain spaces; fields resume after its ')'.
    fields = raw[raw.rindex(")") + 2 :].split()
    ticks = int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / os.sysconf("SC_CLK_TCK")


class Report:
    """Metric values with units, plus free-form notes printed beside them."""

    def __init__(self) -> None:
        self.values: dict[str, tuple[float, str]] = {}
        self.notes: dict[str, str] = {}

    def add(self, name: str, value: float, unit: str, note: str = "") -> None:
        check_name(name)
        check_unit(unit)
        if name in self.values:
            raise MetricNameError(f"metric {name!r} reported twice")
        self.values[name] = (float(value), unit)
        if note:
            self.notes[name] = note

    def add_tail(self, name: str, samples: list[float], unit: str = "ms") -> None:
        """Add a ``_tail_`` metric with its percentile and count beside it."""
        result = tail(samples)
        if result is None:
            raise ValueError(
                f"{name}: {len(samples)} samples leave no percentile with "
                f"{TAIL_BEYOND} beyond it"
            )
        value, percentile, count = result
        self.add(name, value, unit, f"p{percentile:.2f} of {count} samples")

    def lines(self) -> list[str]:
        out = []
        for name, (value, unit) in self.values.items():
            note = self.notes.get(name)
            text = f"  {name:<34} {value:>14.4f} {unit:<8}"
            out.append(text + (f"  ({note})" if note else ""))
        return out

    def select(self, names: Iterable[str]) -> dict[str, dict]:
        """The JSON ``metrics`` object for exactly ``names``."""
        chosen = {}
        for name in names:
            value, unit = self.values[name]
            if not math.isfinite(value):
                raise ValueError(f"metric {name} is not finite: {value}")
            chosen[name] = {"value": value, "unit": unit}
        return chosen
