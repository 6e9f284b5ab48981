"""Start ``python -m repro serve`` with the benchmark's span wrappers installed.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/serve_launcher.py SPANS.jsonl SPEC.json [serve options]

Everything after the spans path is passed to ``repro serve``.  On SIGUSR1
the server's spans are written to SPANS.jsonl (atomically, via a
temporary file), so they survive the SIGKILL that follows.
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, install  # noqa: E402


def main() -> int:
    spans_path, serve_args = sys.argv[1], sys.argv[2:]
    from repro import cli

    tracer = Tracer()
    install(tracer)

    def flush(signum, frame) -> None:
        partial = spans_path + ".partial"
        tracer.dump(partial)
        os.replace(partial, spans_path)

    signal.signal(signal.SIGUSR1, flush)
    return cli.main(["serve", *serve_args])


if __name__ == "__main__":
    sys.exit(main())
