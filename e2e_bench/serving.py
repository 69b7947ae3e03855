"""The ``serve-open`` workload: a real ``repro serve`` daemon under a
seeded open-loop query schedule.

The daemon is a subprocess (``python -m repro serve``, or the span
launcher when tracing); the load generator runs in this process on at
most two client connections.  Latency is timed from each query's due
time, so a stall shows up in the queries queued behind it.
"""

from __future__ import annotations

import bisect
import json
import os
import resource
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.serve.client import QueryClient
from repro.serve.errors import ServeError

from . import procs, workloads as W
from .speed import HostNotQuiet, calibrate, normalise, try_calibrate

#: Client connections of the load generator.
CONNECTIONS = 2
#: Daemon spawns behind ``setup_s`` (the median is reported): this many
#: before the measurement and as many after it, so that the samples are
#: not all taken in one state of the host.
SETUP_SPAWNS = 3
#: Closed-loop capacity passes after one untimed pass that warms the
#: daemon's slice memo (``pass_s`` sums each query's median time).
CAPACITY_PASSES = 3
#: Share of the measurement window given to the open loop.
OPEN_LOOP_SHARE = 0.8
#: A client gives up on a reply after this long (counts as a timeout).
CLIENT_TIMEOUT_S = 30.0
#: The daemon must answer its first ping within this long.
SPAWN_TIMEOUT_S = 60.0
#: Retry step while waiting for the daemon's socket to accept: far below
#: a daemon start (a fraction of a second), and a Unix connect is cheap.
CONNECT_RETRY_S = 0.001
#: The open loop takes a host-speed calibration at most this often: the
#: host's speed shifts over seconds, so two samples a second follow it.
SAMPLE_INTERVAL_S = 0.5
#: ... and only while no query is in flight and none is due within this
#: long, so the daemon is idle (one calibration run takes about 16 ms).
SAMPLE_GAP_S = 0.05
#: How often a load-generator thread waiting for a due time looks for an
#: idle moment to calibrate in.
SAMPLE_POLL_S = 0.01


class Daemon:
    """One daemon subprocess, from spawn to its first ``pong``."""

    def __init__(self, root: str, graph_path: str, socket_path: str, log_path: str,
                 spans_path: Optional[str] = None):
        self.calibration = calibrate()
        if spans_path is None:
            argv = [sys.executable, "-m", "repro"]
        else:
            launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    "serve_launcher.py")
            argv = [sys.executable, launcher, spans_path]
        argv += ["serve", "--socket", socket_path, "--graph", graph_path]
        self.socket_path = socket_path
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        t0 = time.perf_counter()
        self._log = open(log_path, "wb")
        self.proc = procs.start(argv[1:], cwd=root, env=env, stdout=self._log,
                                stderr=subprocess.STDOUT)
        try:
            with self._first_connection(t0 + SPAWN_TIMEOUT_S) as client:
                if not client.ping():
                    raise ServeError("daemon did not answer ping")
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t0

    def _first_connection(self, deadline: float) -> QueryClient:
        """Connect as soon as the daemon's socket accepts (it binds the
        socket only after loading the graph)."""
        while True:
            try:
                return QueryClient(self.socket_path)
            except (FileNotFoundError, ConnectionRefusedError):
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    raise ServeError("daemon did not start") from None
                time.sleep(CONNECT_RETRY_S)

    def client(self) -> QueryClient:
        return QueryClient.connect(self.socket_path)

    def stop(self) -> None:
        """Shut the daemon down cleanly and wait for it."""
        try:
            with self.client() as client:
                client.shutdown()
            self.proc.wait(timeout=SPAWN_TIMEOUT_S)
        finally:
            self.kill()

    def kill(self) -> None:
        """End and reap the daemon's whole process group (its executor
        workers included)."""
        procs.stop_group(self.proc)
        self._log.close()


@dataclass
class Answer:
    query: W.Query
    latency_s: float
    lag_s: float = 0.0
    #: When the query was due (open loop), ``perf_counter`` time.
    due: float = 0.0
    #: Host-speed calibration measured nearest to the query.
    calibration: float = 0.0
    cache_hit: bool = False
    payload: Optional[str] = None
    error: Optional[str] = None


def _ask(client: QueryClient, query: W.Query, **options) -> Answer:
    t0 = time.perf_counter()
    params = {"source": query.source} if query.source is not None else None
    try:
        answer = client.query(query.algorithm, params=params,
                              interval=query.window, options=options or None)
    except (ServeError, OSError) as exc:
        return Answer(query, time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
    return Answer(query, time.perf_counter() - t0, cache_hit=answer.cache_hit,
                  payload=answer.payload)


def capacity_pass(daemon: Daemon, queries: List[W.Query]) -> List[Answer]:
    """Closed loop over distinct uncached queries on one connection, with a
    host-speed calibration while the daemon idles before each."""
    answers = []
    with daemon.client() as client:
        for query in queries:
            calibration = calibrate()
            answer = _ask(client, query, no_cache=True)
            answer.calibration = calibration
            answers.append(answer)
    return answers


@dataclass
class OpenLoop:
    """The result of one open-loop run."""

    answers: List[Answer] = field(default_factory=list)
    offered: int = 0


def open_loop(daemon: Daemon, schedule: W.QuerySchedule, seconds: float) -> OpenLoop:
    """Send the schedule's queries at their due times over
    :data:`CONNECTIONS` connections; a connection takes the next due query
    as soon as its previous reply is in.  While waiting for a due time, a
    connection calibrates the host speed when the daemon is idle (see
    :data:`SAMPLE_GAP_S`); each answer takes the sample nearest its due
    time."""
    plan = schedule.plan(seconds)
    result = OpenLoop(offered=len(plan))
    lock = threading.Lock()
    state = {"next": 0, "in_flight": 0, "sent": 0, "calibrating": False,
             "last_sample": -SAMPLE_INTERVAL_S}
    waiting: Dict[int, float] = {}
    samples: List[Tuple[float, float]] = []
    clients = [daemon.client() for _ in range(CONNECTIONS)]
    t0 = time.perf_counter() + 0.05

    def idle_calibration() -> None:
        """Calibrate if no query is in flight or about to be sent."""
        now = time.perf_counter()
        with lock:
            if (state["calibrating"] or state["in_flight"]
                    or now - state["last_sample"] < SAMPLE_INTERVAL_S
                    or min(waiting.values()) - now < SAMPLE_GAP_S):
                return
            state["calibrating"] = True
            sent = state["sent"]
        seconds = try_calibrate()
        with lock:
            state["calibrating"] = False
            if seconds is not None and state["sent"] == sent:
                state["last_sample"] = now
                samples.append((now, seconds))

    def worker(slot: int, client: QueryClient) -> None:
        while True:
            with lock:
                index = state["next"]
                if index >= len(plan):
                    return
                state["next"] += 1
                due_at, query = plan[index]
                due = t0 + due_at
                waiting[slot] = due
            while True:
                delay = due - time.perf_counter()
                if delay <= 0:
                    break
                idle_calibration()
                time.sleep(max(0.0, min(SAMPLE_POLL_S, due - time.perf_counter())))
            with lock:
                del waiting[slot]
                state["in_flight"] += 1
                state["sent"] += 1
            lag = time.perf_counter() - due
            answer = _ask(client, query)
            answer.latency_s = time.perf_counter() - due
            answer.lag_s = lag
            answer.due = due
            with lock:
                state["in_flight"] -= 1
                result.answers.append(answer)

    threads = [threading.Thread(target=worker, args=(slot, client))
               for slot, client in enumerate(clients)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        for client in clients:
            client.close()
    if not samples:
        raise HostNotQuiet("the open loop found no idle moment to calibrate in")
    times = [when for when, _ in samples]
    for answer in result.answers:
        i = bisect.bisect_left(times, answer.due)
        nearest = min((j for j in (i - 1, i) if 0 <= j < len(times)),
                      key=lambda j: abs(times[j] - answer.due))
        answer.calibration = samples[nearest][1]
    return result


def run(ctx, seed: int, seconds: float, trace: bool) -> Dict:
    """Run the workload; returns raw samples for ``run.py`` to summarise."""
    from repro.graph.compact import CompactGraph

    name, scale = W.SERVE_GRAPH
    graph = W.make_graph(name, scale, seed)
    graph_path = ctx.path(f"{name}.itgr")
    CompactGraph.from_temporal(graph).dump(graph_path)
    schedule = W.QuerySchedule(graph, seed)
    cap_queries = schedule.capacity_queries()
    socket_path = ctx.relpath("serve.sock")
    socket.setdefaulttimeout(CLIENT_TIMEOUT_S)

    def spawn(spans_path=None) -> Daemon:
        return Daemon(ctx.root, os.path.relpath(graph_path, ctx.root), socket_path,
                      ctx.path("daemon.log"), spans_path)

    out: Dict = {"setup": [], "answers": [], "spans": None}

    def spawn_timed() -> Daemon:
        daemon = spawn()
        out["setup"].append((daemon.setup_s, daemon.calibration))
        return daemon

    def capacity_passes(key: str) -> None:
        out[key], out[key + "_raw"] = [], []
        for index in range(1 + CAPACITY_PASSES):
            answers = capacity_pass(daemon, cap_queries)
            out["answers"] += answers
            if index:
                out[key].append([normalise(a.latency_s, a.calibration) for a in answers])
                out[key + "_raw"].append([a.latency_s for a in answers])

    daemon = None
    try:
        for _ in range(SETUP_SPAWNS - 1):
            spawn_timed().stop()
        daemon = spawn_timed()
        capacity_passes("capacity")
        if trace:
            daemon.stop()
            spans_path = ctx.path("daemon-spans.json")
            daemon = spawn(spans_path)
            capacity_passes("traced_capacity")
        loop = open_loop(daemon, schedule, OPEN_LOOP_SHARE * seconds)
        daemon.stop()
        daemon = None
        for _ in range(SETUP_SPAWNS):
            spawn_timed().stop()
        if trace:
            with open(spans_path, encoding="utf-8") as fh:
                out["spans"] = json.load(fh)
    finally:
        if daemon is not None:
            daemon.kill()
    out["open_loop"] = loop
    out["answers"] += loop.answers
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    out["graph"] = graph
    out["graph_name"] = os.path.relpath(graph_path, ctx.root)
    return out


def lag_p90(loop: OpenLoop) -> float:
    lags = [a.lag_s for a in loop.answers]
    return statistics.quantiles(lags, n=10)[-1] if len(lags) >= 2 else 0.0


def capacity_s(passes: List[List[float]]) -> float:
    """One capacity pass: the sum of each query's median over ``passes``."""
    return sum(map(statistics.median, zip(*passes)))
