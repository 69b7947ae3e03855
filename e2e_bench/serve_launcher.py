"""Start ``repro serve`` with the benchmark's span wrappers installed.

The daemon is started exactly as ``python -m repro serve ARGS...`` starts
it (through ``repro.cli.main``); the only difference is that the probes
of ``probes.install(..., serve=True)`` are in place first.  When the
daemon shuts down, its spans are written to ``SPANS.json``::

    python3 e2e_bench/serve_launcher.py SPANS.json serve --socket ... --graph ...
"""

from __future__ import annotations

import os
import sys

sys.path[:0] = [os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]

from e2e_bench import probes as probes_mod  # noqa: E402
from e2e_bench.spans import SpanRecorder  # noqa: E402


def main(argv) -> int:
    from repro.cli import main as repro_main

    spans_path, args = argv[0], argv[1:]
    recorder = SpanRecorder()
    probes = probes_mod.install(recorder, serve=True)
    recorder.enabled = True
    try:
        status = repro_main(args)
    finally:
        recorder.enabled = False
        recorder.dump(spans_path, extra={
            "counts": probes.counts,
            "workers": probes.workers.summary(),
            "served": probes.served,
        })
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
