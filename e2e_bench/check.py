"""Output checks: canonical digests, brute-force oracles and served payloads.

Every timed batch job must reproduce the canonical state digest and the
work counts of a reference run (serial executor, heap store); the
reference itself is checked against the matching
``repro.algorithms.reference`` oracle.
Every served payload must equal, byte for byte, the canonical payload of
an in-process ``api.run`` on the same slice.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from typing import Any
from repro import api
from repro.algorithms import reference as ref
from repro.algorithms.runners import default_source, default_target, run_algorithm
from repro.core.engine import IcmResult
from repro.core.results_io import export_states_json
from repro.graph.snapshots import snapshot_at


def canonical_payload(result) -> str:
    """The canonical JSON rendering of a run's states (the serving tier's
    payload form: ``export_states_json`` with sorted keys, no spaces)."""
    doc = export_states_json(result, io.StringIO())
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), default=str)


#: ``RunMetrics`` work counts (the paper's work units) that every run of a
#: job must reproduce exactly, on any executor or store.
WORK_COUNTS = ("supersteps", "compute_calls", "scatter_calls", "warp_calls",
               "messages_sent", "message_bytes")


def job_digest(outcome) -> str:
    """SHA-256 of a batch job's canonical states (SCC's component labels)
    and of its work counts."""
    result = outcome.result
    if not isinstance(result, IcmResult):
        result = IcmResult(states=result.components, metrics=result.metrics)
    counts = [getattr(result.metrics, name) for name in WORK_COUNTS]
    text = canonical_payload(result) + json.dumps(counts)
    return hashlib.sha256(text.encode()).hexdigest()


def run_reference(algorithm: str, graph, graph_name: str):
    """The reference outcome: serial executor, heap store."""
    return run_algorithm(
        algorithm, "GRAPHITE", graph, graph_name=graph_name,
        icm_options={"executor": "serial"},
    )


def oracle_expected(algorithm: str, graph) -> Any:
    """The brute-force oracle's answer for ``algorithm`` on ``graph``
    (plain dicts and lists, so it can cross a process boundary)."""
    horizon = graph.time_horizon()
    source = default_source(graph)
    snapshot_oracles = {
        "BFS": lambda s: ref.snapshot_bfs(s, source),
        "WCC": ref.snapshot_wcc,
        "SCC": ref.snapshot_scc,
        "PR": ref.snapshot_pagerank,
        "LCC": ref.snapshot_lcc,
        "TC": ref.snapshot_tc,
    }
    if algorithm in snapshot_oracles:
        oracle = snapshot_oracles[algorithm]
        return [oracle(snapshot_at(graph, t)) for t in range(horizon)]
    if algorithm == "SSSP":
        return ref.temporal_sssp_grid(graph, source, horizon=horizon)
    if algorithm == "RH":
        return ref.temporal_reach_grid(graph, source, horizon=horizon)
    if algorithm in ("EAT", "TMST"):
        return ref.temporal_eat(graph, source, horizon=horizon)
    if algorithm == "FAST":
        return ref.temporal_fast(graph, source, horizon=horizon)
    if algorithm == "LD":
        return ref.temporal_ld(graph, default_target(graph), horizon - 1, horizon=horizon)
    raise ValueError(f"no oracle for {algorithm!r}")


def oracle_mismatches(algorithm: str, graph, outcome, expected) -> int:
    """How many points of :func:`oracle_expected` the outcome gets wrong."""
    from repro.algorithms.td.eat import earliest_arrival
    from repro.algorithms.td.fast import fastest_duration
    from repro.algorithms.td.lcc import lcc_value
    from repro.algorithms.td.ld import latest_departure
    from repro.algorithms.td.tc import tc_count
    from repro.algorithms.td.tmst import tmst_tree

    horizon = graph.time_horizon()
    result = outcome.result

    def same(got, want, close=False):
        if close:
            return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
        return got == want

    if algorithm == "SCC":
        return sum(
            result.component_at(vid, t) != label
            for t, labels in enumerate(expected) for vid, label in labels.items()
        )
    if isinstance(expected, list):  # per-snapshot oracles
        project = {"LCC": lcc_value, "TC": tc_count}.get(algorithm, lambda v: v)
        close = algorithm in ("PR", "LCC")
        return sum(
            not same(project(result.value_at(vid, t)), want, close)
            for t, values in enumerate(expected) for vid, want in values.items()
        )
    if algorithm in ("SSSP", "RH"):
        project = bool if algorithm == "RH" else (lambda v: v)
        return sum(
            project(result.value_at(vid, t)) != row[t]
            for vid, row in expected.items() for t in range(horizon)
        )
    source = default_source(graph)
    bad = 0
    if algorithm == "EAT":
        for vid, arrival in expected.items():
            got = earliest_arrival(result.states[vid])
            bad += (None if got is not None and got >= horizon else got) != arrival
    elif algorithm == "TMST":
        tree = tmst_tree(result.states, source)
        for vid, arrival in expected.items():
            if vid != source:
                got = tree[vid][0] if vid in tree else None
                bad += (None if got is not None and got >= horizon else got) != arrival
    elif algorithm == "FAST":
        for vid, duration in expected.items():
            bad += fastest_duration(result.states[vid]) != duration
    elif algorithm == "LD":
        target = default_target(graph)
        for vid, departure in expected.items():
            if vid != target:
                bad += latest_departure(result.states[vid]) != departure
    return bad


def served_reference(sliced, query, graph_name: str) -> str:
    """Canonical payload of an in-process run of ``query`` on its slice."""
    from repro.algorithms.td.eat import TemporalEAT
    from repro.algorithms.td.reach import TemporalReachability
    from repro.algorithms.td.sssp import TemporalSSSP
    from repro.algorithms.ti.bfs import TemporalBFS

    source = query.source if query.source is not None else default_source(sliced)
    program = {
        "BFS": TemporalBFS, "SSSP": TemporalSSSP,
        "EAT": TemporalEAT, "RH": TemporalReachability,
    }[query.algorithm](source)
    result = api.run(sliced, program, graph_name=graph_name,
                     options={"executor": "serial"})
    return canonical_payload(result)
