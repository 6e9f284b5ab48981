"""The repository benchmark: one command per workload, every metric by name.

Run from the repository root (the sources are found relative to this
file, so any working directory will do)::

    python3 perfbench/run.py --workload chain-churn --seed 1 --seconds 25 --trace 0

Workloads (see ``WORKLOADS.md`` for why each exists):

* ``chain-churn``  — in-process insert/delete/revoke/combined batches over
  a 10-peer acyclic chain;
* ``cycles-churn`` — the same stream over a 10-peer cyclic confederation
  (run by hand; ``BENCHMARK.json`` does not list it, see ``WORKLOADS.md``);
* ``serve-durable`` — ``python -m repro serve`` with a durable node: write
  rounds on fresh servers, then an out-of-process open-loop read load with
  one publish per second; SIGKILLed and recovered with ``DurableNode.open``.

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
adds a traced pass whose spans give the per-layer metrics.  Either way
the human-readable report comes first, then one JSON line of run
context, and last one JSON line ``{"correct", "attempted", "failed",
"metrics"}`` holding exactly the metrics ``BENCHMARK.json`` lists for the
mode.  Any failure to run exits non-zero without that line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("chain-churn", "cycles-churn", "serve-durable")


def _clear_repro_env() -> list[str]:
    """Drop ``REPRO_*`` variables so every workload runs the shipped defaults."""
    cleared = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in cleared:
        del os.environ[name]
    return cleared


def _contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    cleared = _clear_repro_env()
    sys.path.insert(0, str(SRC))
    contract = _contract()
    wanted = [
        m["name"] for m in contract["per_layer" if args.trace else "end_to_end"]
    ]

    out = sys.stdout
    print(
        f"== {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}",
        file=out,
    )
    if args.workload == "serve-durable":
        import serve_durable

        result = serve_durable.run(args.seed, args.seconds, bool(args.trace), ROOT, out)
    else:
        import churn

        result = churn.run(args.workload, args.seed, args.seconds, bool(args.trace), out)

    report = result["report"]
    print("metrics:", file=out)
    for line in report.lines():
        print(line, file=out)
    gates = result["gates"]
    for name, ok in gates.items():
        print(f"gate {name}: {'pass' if ok else 'FAIL'}", file=out)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": result["config"],
        "repro_env_cleared": cleared,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "attempted": result["attempted"],
        "failed": result["failed"],
    }
    print("context " + json.dumps(context, sort_keys=True), file=out)
    correct = all(gates.values())
    final = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": report.select(wanted),
    }
    print(json.dumps(final), file=out, flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
