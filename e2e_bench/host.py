"""The engine-hosting process of the batch workloads.

Run by ``run.py`` in a fresh interpreter so that its peak RSS, its
environment (``REPRO_GRAPH_STORE``) and its timings belong to the engine
alone, not to the benchmark's own reference and oracle work::

    python3 e2e_bench/host.py SPEC.json OUT.json

``SPEC.json`` names the graph files, the jobs, the engine options, the
time budget and whether to trace.  ``OUT.json`` receives the set-up
samples, per-job times and digests of every pass (each timing with the
host-speed calibration measured just before it), peak RSS and, when
tracing, the span dump; or ``invalid`` when the program never left the
host quiet for a calibration (see ``speed.py``).
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
import traceback

sys.path[:0] = [os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]

from e2e_bench import probes as probes_mod  # noqa: E402
from e2e_bench.check import job_digest  # noqa: E402
from e2e_bench.spans import SpanRecorder  # noqa: E402
from e2e_bench.speed import HostNotQuiet, calibrate  # noqa: E402

#: Graph loads behind ``setup_s`` before the first pass (the median of all
#: set-up samples is reported).
SETUP_REPEATS = 3
#: One more timed load before every this many jobs of the untraced passes,
#: so that the set-up samples span the whole run: the host's speed for a
#: few-millisecond mmap load shifts between states lasting seconds.  The
#: jobs after a load run on the copy it loaded.
SETUP_EVERY = 3


def load_graphs(files):
    from repro import api

    return {name: api.load_graph(path) for name, path in files.items()}


def timed_setup(files, graphs, samples):
    """Replace the loaded graphs in ``graphs`` by a fresh load of every
    graph file; append ``(seconds, calibration)`` to ``samples``.  The old
    graphs are released first, so only one copy is ever resident, and
    collected untimed, so that no timed job or load pays for it."""
    graphs.clear()
    gc.collect()
    calibration = calibrate()
    t0 = time.perf_counter()
    fresh = load_graphs(files)
    samples.append((time.perf_counter() - t0, calibration))
    graphs.update(fresh)


def run_pass(jobs, graphs, options, observe=None, recorder=None, setup=None):
    """One pass over ``jobs``; returns per-job ``(seconds, calibration
    seconds measured just before, digest or None)``.  ``setup``, when
    given, is called before every :data:`SETUP_EVERY`-th job and reloads
    ``graphs`` in place."""
    from repro.algorithms import runners

    out = []
    for index, (graph_name, algorithm) in enumerate(jobs):
        if setup is not None and index % SETUP_EVERY == 0:
            setup()
        calibration = calibrate()
        if recorder is not None:
            recorder.set_job(f"{algorithm}@{graph_name}")
            frame = recorder.open("job")
        t0 = time.perf_counter()
        try:
            outcome = runners.run_algorithm(
                algorithm, "GRAPHITE", graphs[graph_name],
                graph_name=graph_name, icm_options=options, observe=observe,
            )
        except Exception:
            outcome = None
            traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - t0
        if recorder is not None:
            recorder.close(frame)
            recorder.set_job(None)
        digest = job_digest(outcome) if outcome is not None else None
        out.append((elapsed, calibration, digest))
    return out


def measure(spec, result) -> None:
    files = spec["files"]
    jobs = [tuple(job) for job in spec["jobs"]]
    options = spec["options"]

    recorder = SpanRecorder()
    probes = probes_mod.install(recorder) if spec["trace"] else None

    graphs = {}
    if spec["trace"]:
        recorder.enabled = True
    for _ in range(SETUP_REPEATS):
        timed_setup(files, graphs, result["setup"])
    recorder.enabled = False
    load_totals = recorder.totals().get("graph.load", {})
    recorder.reset()

    from repro.graph.stats import resident_bytes

    result["resident_mb"] = sum(resident_bytes(g) for g in graphs.values()) / 2**20

    # Warm-up outside the measurement: imports, first fork.
    run_pass([(name, "BFS") for name in graphs], graphs, options)

    budget = spec["seconds"]
    t_start = time.perf_counter()
    while True:
        result["passes"].append(run_pass(
            jobs, graphs, options,
            setup=lambda: timed_setup(files, graphs, result["setup"])))
        elapsed = time.perf_counter() - t_start
        per_pass = elapsed / len(result["passes"])
        if spec["trace"] or (len(result["passes"]) >= 2 and elapsed + per_pass > budget):
            break

    if spec["trace"]:
        recorder.enabled = True
        result["traced_pass"] = run_pass(
            jobs, graphs, options, observe=probes.workers, recorder=recorder
        )
        recorder.enabled = False
        result["spans"] = {
            "records": recorder.records,
            "totals": recorder.totals(),
            "counts": probes.counts,
            "workers": probes.workers.summary(),
            "graph_load": load_totals,
            "setup_repeats": SETUP_REPEATS,
        }


def main(spec_path: str, out_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = {"setup": [], "passes": [], "traced_pass": None, "spans": None}
    try:
        measure(spec, result)
    except HostNotQuiet as exc:
        result = {"invalid": str(exc)}
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = max(own, children) / 1024.0
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
