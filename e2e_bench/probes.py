"""Where the benchmark's spans sit: wrappers around the program's public
functions, one layer name per boundary.

``install(recorder)`` patches the batch layers (graph load and freeze,
algorithm preparation, engine construction and run, partitioning, the
executor lifecycle, the serial vertex kernel and the simulated cluster's
message path).  ``install(recorder, serve=True)`` adds the serving
layers (request handling and wire frames, admission, slicing, rendering)
for use inside the daemon process.  Worker-internal phases are not
wrapped: they arrive as ``worker_span`` events through
:class:`WorkerSpanObserver`, in the program's own phase vocabulary.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.obs.events import WORKER_SPAN_PHASES

from .spans import SpanRecorder, _clock

#: Exact work counts folded from every engine run's ``RunMetrics``.
ENGINE_COUNTS = {
    "engine.supersteps": "supersteps",
    "engine.compute_calls": "compute_calls",
    "engine.scatter_calls": "scatter_calls",
    "engine.warp_calls": "warp_calls",
    "engine.messages": "messages_sent",
    "engine.message_bytes": "message_bytes",
    "exchange.bytes": "exchange_bytes",
    "exchange.raw_bytes": "exchange_raw_bytes",
}


class WorkerSpanObserver:
    """Folds ``worker_span`` events into phase totals and per-superstep
    compute times (for the imbalance ratio)."""

    def __init__(self) -> None:
        self.phase_s = {phase: 0.0 for phase in WORKER_SPAN_PHASES}
        self._run = 0
        self._steps: Dict[tuple, List[float]] = {}

    def on_event(self, record: Dict[str, Any]) -> None:
        kind = record["type"]
        if kind == "run_start":
            self._run += 1
        elif kind == "worker_span":
            wall = record["wall"]
            for phase in WORKER_SPAN_PHASES:
                self.phase_s[phase] += wall.get(f"{phase}_s", 0.0)
            key = (self._run, record["superstep"])
            self._steps.setdefault(key, []).append(wall.get("compute_s", 0.0))

    def summary(self) -> Dict[str, float]:
        out = {f"worker.{phase}_s": value for phase, value in self.phase_s.items()}
        peak = mean = 0.0
        for computes in self._steps.values():
            peak += max(computes)
            mean += sum(computes) / len(computes)
        out["worker.imbalance"] = peak / mean if mean > 0 else 1.0
        return out


@dataclass
class Probes:
    """What the wrappers collect besides span totals."""

    #: :data:`ENGINE_COUNTS` summed over every engine run.
    counts: Dict[str, float]
    #: Pass as ``observe=`` to collect worker phases (the serving probes
    #: attach it to the daemon's service themselves).
    workers: WorkerSpanObserver = field(default_factory=WorkerSpanObserver)
    #: Daemon-side ``GraphService.submit`` durations of cache hits / misses.
    served: Dict[str, List[float]] = field(
        default_factory=lambda: {"hit": [], "miss": []})


def install(recorder: SpanRecorder, *, serve: bool = False) -> Probes:
    """Install the wrappers into this process."""
    from repro import api
    from repro.algorithms import runners
    from repro.core import engine as engine_mod
    from repro.core.context import VertexContext
    from repro.graph.compact import CompactGraph
    from repro.runtime import executor as executor_mod
    from repro.runtime.cluster import SimulatedCluster

    probes = Probes(counts={name: 0 for name in ENGINE_COUNTS})

    def fold_counts(result, duration) -> None:
        metrics = result.metrics
        for name, attr in ENGINE_COUNTS.items():
            probes.counts[name] += getattr(metrics, attr)

    wrap = recorder.wrap
    wrap(api, "load_graph", "graph.load")
    wrap(CompactGraph, "from_temporal", "graph.freeze")
    wrap(runners, "run_algorithm", "algorithms.prepare")
    # api.run's own glue (config resolution) is part of building the engine.
    wrap(api, "run", "engine.construct")
    wrap(engine_mod.IntervalCentricEngine, "__init__", "engine.construct")
    wrap(engine_mod.IntervalCentricEngine, "run", "engine.run", on_result=fold_counts)
    wrap(SimulatedCluster, "partition_stats", "partition.stats")
    for cls in (executor_mod.SerialExecutor, executor_mod.ParallelExecutor):
        wrap(cls, "start", "executor.start")
        wrap(cls, "run_superstep", "executor.superstep")
        wrap(cls, "collect_states", "executor.collect")
        wrap(cls, "close", "executor.collect")
    wrap(engine_mod.VertexProcessor, "process", "vertex.process", record=False)
    wrap(engine_mod, "time_warp", "warp", record=False)
    wrap(VertexContext, "out_degree_segments", "context.degree_segments", record=False)
    wrap(SimulatedCluster, "send", "cluster.send", record=False)
    recorder.wrap_count(SimulatedCluster, "worker_of", "cluster.worker_of")
    if serve:
        _install_serve(recorder, probes)
    return probes


def _install_serve(recorder: SpanRecorder, probes: Probes) -> None:
    from repro import api
    from repro.serve import service as service_mod
    from repro.serve import wire

    def note_answer(answer, duration) -> None:
        probes.served["hit" if answer.cache_hit else "miss"].append(duration)

    recorder.wrap(service_mod.GraphService, "submit", "serve.queue", on_result=note_answer)
    recorder.wrap(service_mod, "temporal_slice", "slice")
    # _execute = api.run (a child span) + export_states_json + canonical JSON.
    recorder.wrap(service_mod.GraphService, "_execute", "render")

    original_serve = api.serve

    def serve_with_observer(graph, **kwargs):
        if kwargs.get("observe") is None:
            kwargs["observe"] = probes.workers
        return original_serve(graph, **kwargs)

    api.serve = serve_with_observer

    # One daemon-side job per request: from the first byte of the request
    # frame until its response is written.  Waiting for the client to send
    # is idle time and belongs to no job.
    original_read = wire.read_frame
    original_write = wire.write_frame
    job_ids = itertools.count(1)
    open_jobs = threading.local()  # the request span a thread's next write closes

    def read_frame(recv):
        if not recorder.active():
            return original_read(recv)
        first: List[float] = []
        nbytes = [0]

        def timed_recv(n):
            data = recv(n)
            if not first:
                first.append(_clock())
            nbytes[0] += len(data)
            return data

        value = original_read(timed_recv)
        if value is wire.EOF or not first:
            return value
        recorder.set_job(f"request-{next(job_ids)}")
        job = recorder.open("serve.request", start=first[0])
        recorder.close(recorder.open("wire", record=False, start=first[0]))
        recorder.count("wire.frames")
        recorder.count("wire.bytes", nbytes[0])
        open_jobs.frame = job
        return value

    def write_frame(sock, value):
        if not recorder.active():
            return original_write(sock, value)
        counter = _CountingSocket(sock)
        frame = recorder.open("wire", record=False)
        try:
            original_write(counter, value)
        finally:
            recorder.close(frame)
            recorder.count("wire.frames")
            recorder.count("wire.bytes", counter.sent)
            job = getattr(open_jobs, "frame", None)
            if job is not None:
                open_jobs.frame = None
                recorder.close(job)
                recorder.set_job(None)

    wire.read_frame = read_frame
    wire.write_frame = write_frame


class _CountingSocket:
    def __init__(self, sock) -> None:
        self._sock = sock
        self.sent = 0

    def sendall(self, data) -> None:
        self.sent += len(data)
        self._sock.sendall(data)
