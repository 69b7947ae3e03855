"""Workload definitions: inputs made from the seed, job and query lists,
and the constants the workloads are judged by.

Everything here is a pure function of the seed, so the same seed gives
the same graphs, jobs and query schedule on any host.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

#: Batch inputs: Table-1 surrogates at a fixed scale.  ``reddit`` has mixed,
#: mostly unit lifespans; ``twitter``'s span nearly the whole horizon.
BATCH_GRAPHS = (("reddit", 2.0), ("twitter", 1.0))

#: The graph the serving workload keeps resident.
SERVE_GRAPH = ("twitter", 1.0)

#: Point-query algorithms the serving workload sends (PR is a batch job).
SERVE_ALGORITHMS = ("BFS", "SSSP", "EAT", "RH")

#: Worker processes of the parallel executor (the benchmark host has 2 cores).
PARALLEL_PROCESSES = 2

#: A batch job counts toward ``slo_frac`` when it finishes correctly within
#: this many seconds (every seed-commit job takes under 2 s serially).
JOB_LATENCY_LIMIT_S = 10.0

#: Open-loop offered rate, queries per second: about half the single-lane
#: capacity for this query mix measured on the commit that introduced the
#: benchmark (2-core x86-64 host: about 14 uncached queries per second,
#: so about 25 per second with 45% cache hits).
OFFERED_RATE = 10.0

#: Served-query latency limit: about 4x the median miss latency measured
#: on that commit (0.085 s).
QUERY_LATENCY_LIMIT_S = 0.35

#: Share of open-loop queries that repeat an earlier key (cache hits); the
#: rest are fresh keys.  A fixed share below one half keeps the latency
#: median inside the miss distribution instead of on the hit/miss
#: boundary, and keeps the hit share from drifting with run length.
REPEAT_SHARE = 0.45
#: A repeat reuses a key first sent at least this long before (so it has
#: long been answered and cached).
REPEAT_MIN_AGE_S = 0.5


@dataclass(frozen=True)
class Job:
    """One batch job: an algorithm on one of the batch graphs."""

    graph: str
    algorithm: str

    @property
    def name(self) -> str:
        return f"{self.algorithm}@{self.graph}"


@dataclass(frozen=True)
class Query:
    """One served query, and its cache key; ``source=None`` lets the
    service pick its default source."""

    algorithm: str
    source: Any
    window: Tuple[int, Optional[int]]


def make_graph(name: str, scale: float, seed: int):
    from repro.datasets import load_surrogate

    return load_surrogate(name, scale=scale, seed=seed)


def batch_jobs() -> List[Job]:
    from repro.algorithms.runners import ALL_ALGORITHMS

    return [Job(name, algo) for name, _ in BATCH_GRAPHS for algo in ALL_ALGORITHMS]


def serve_windows(horizon: int) -> List[Tuple[int, Optional[int]]]:
    """Six fixed query windows over the graph's horizon."""
    h = horizon
    return [(0, None), (0, h // 2), (h // 2, None), (h // 4, 3 * h // 4),
            (h // 8, 5 * h // 8), (3 * h // 8, 7 * h // 8)]


def window_vertices(graph, window) -> List[Any]:
    """Vertex ids alive somewhere in ``window`` (valid query sources)."""
    start, end = window
    out = []
    for v in graph.vertices():
        life = v.lifespan
        if life.end > start and (end is None or life.start < end):
            out.append(v.vid)
    return sorted(out, key=str)


class QuerySchedule:
    """A seeded open-loop schedule: Poisson arrival times, each with either
    a fresh key or a repeat of a key first sent at least
    :data:`REPEAT_MIN_AGE_S` earlier (long since answered, so a cache hit).
    Repeats are spread evenly, :data:`REPEAT_SHARE` of the queries; those
    that cannot happen in the first moments are made up later.

    Fresh keys are drawn without replacement from the key space
    (algorithm x window x source alive in the window).  The whole plan is
    a function of the seed alone.
    """

    def __init__(self, graph, seed: int):
        self._rng = random.Random(seed)
        self.windows = windows = serve_windows(graph.time_horizon())
        keys = [
            Query(algo, vid, window)
            for window in windows
            for vid in window_vertices(graph, window)
            for algo in SERVE_ALGORITHMS
        ]
        self._rng.shuffle(keys)
        self._fresh = keys

    def capacity_queries(self) -> List[Query]:
        """The closed-loop capacity pass: every algorithm on every window
        from the default source (keys the open loop never sends)."""
        return [Query(algo, None, window) for window in self.windows
                for algo in SERVE_ALGORITHMS]

    def plan(self, seconds: float) -> List[Tuple[float, Query]]:
        """``(due time, query)`` pairs for an open loop of ``seconds``."""
        rng = self._rng
        plan: List[Tuple[float, Query]] = []
        fresh_sent: List[Tuple[float, Query]] = []
        owed = 0.0
        t = rng.expovariate(OFFERED_RATE)
        while t < seconds:
            owed += REPEAT_SHARE
            old = [q for due, q in fresh_sent if due <= t - REPEAT_MIN_AGE_S]
            if owed >= 1.0 and old:
                owed -= 1.0
                query = old[rng.randrange(len(old))]
            else:
                query = self._fresh.pop()
                fresh_sent.append((t, query))
            plan.append((t, query))
            t += rng.expovariate(OFFERED_RATE)
        return plan
