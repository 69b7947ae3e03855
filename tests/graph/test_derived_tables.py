"""Graph-derived tables: built once per graph, dropped on mutation.

Both resident stores keep each vertex's scatter piece indexes and
out-degree timeline, the time horizon and per-partitioner placement
summaries on the graph (``repro.graph.derived``); the simulated cluster
memoizes vertex placement per partitioner object.  These tests pin

* the degree timeline against the O(deg²) rescan it replaced;
* the lifecycle: ingest invalidates, derived graphs get their own tables,
  a partitioner swap starts a fresh placement memo;
* deterministic build counts over repeated runs on one graph;
* read-only interned piece value maps.
"""

import pickle
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.algorithms import runners
from repro.algorithms.td.sssp import TemporalSSSP
from repro.algorithms.ti.wcc import make_undirected
from repro.core.context import VertexContext
from repro.core.engine import IcmProgramError
from repro.core.interval import FOREVER, Interval
from repro.core.program import IntervalProgram
from repro.core.state import PartitionedState
from repro.datasets import load_surrogate, transit_graph
from repro.graph.builder import TemporalGraphBuilder
from repro.graph.compact import CompactGraph
from repro.graph.model import TemporalGraph
from repro.query.slice import temporal_slice
from repro.runtime import partitioner as partitioner_mod
from repro.runtime.cluster import SimulatedCluster
from repro.runtime.partitioner import HashPartitioner, RangePartitioner
from repro.streaming import StreamingIntervalEngine

from tests.core._reference_impls import reference_out_degree_segments

STORES = ("heap", "compact")
SERIAL = {"executor": "serial"}


def _store(graph, store):
    return CompactGraph.from_temporal(graph) if store == "compact" else graph


# -- degree timeline oracle ----------------------------------------------------

TIME = st.integers(min_value=0, max_value=30)


@st.composite
def lifespans(draw):
    """Out-edge lifespans on a small grid (so boundaries touch often),
    some running to FOREVER."""
    out = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        start = draw(TIME)
        if draw(st.integers(0, 4)) == 0:
            end = FOREVER
        else:
            end = start + draw(st.integers(min_value=1, max_value=12))
        out.append((start, end))
    return out


@st.composite
def windows(draw, spans):
    """A window aligned with two cuts, inside a gap, or spanning all."""
    cuts = sorted({t for span in spans for t in span})
    kind = draw(st.sampled_from(["aligned", "free", "all"]))
    if kind == "aligned" and len(cuts) >= 2:
        lo = draw(st.sampled_from(cuts[:-1]))
        hi = draw(st.sampled_from([c for c in cuts if c > lo]))
        return Interval(lo, hi)
    if kind == "all":
        return Interval(0, FOREVER)
    start = draw(st.integers(min_value=0, max_value=45))
    return Interval(start, start + draw(st.integers(min_value=1, max_value=10)))


def _fan_graph(spans):
    b = TemporalGraphBuilder()
    b.add_vertex("v")
    for i, (start, end) in enumerate(spans):
        b.add_vertex(f"u{i}")
        b.add_edge("v", f"u{i}", start, end, eid=f"e{i}")
    return b.build()


class _Host:
    """The slice of the engine protocol ``out_degree_segments`` reads."""

    def __init__(self, graph):
        self.graph = graph


def _context(graph):
    vertex = graph.vertex("v")
    return VertexContext(vertex, PartitionedState(vertex.lifespan), _Host(graph))


@pytest.mark.parametrize("store", STORES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_out_degree_segments_match_rescan_oracle(store, data):
    spans = data.draw(lifespans())
    graph = _store(_fan_graph(spans), store)
    ctx = _context(graph)
    for _ in range(3):
        window = data.draw(windows(spans))
        assert ctx.out_degree_segments(window) == reference_out_degree_segments(
            graph.out_edges("v"), window
        )


def test_out_degree_segments_keep_zero_and_equal_neighbours_apart():
    graph = _fan_graph([(2, 4), (4, 6), (8, 9)])
    ctx = _context(graph)
    assert ctx.out_degree_segments(Interval(0, 10)) == [
        (Interval(0, 2), 0),
        (Interval(2, 4), 1),
        (Interval(4, 6), 1),
        (Interval(6, 8), 0),
        (Interval(8, 9), 1),
        (Interval(9, 10), 0),
    ]


# -- lifecycle -----------------------------------------------------------------


def test_streaming_ingest_is_seen_by_every_table():
    stream = StreamingIntervalEngine(TemporalSSSP("a"), executor="serial")
    for vid in "abc":
        stream.add_vertex(vid)
    stream.add_edge("a", "b", 0, 5, props={"travel-cost": 2, "travel-time": 1})
    stream.compute()
    graph = stream.graph
    cluster = SimulatedCluster(4)
    assert len(graph.edge_piece_indexes("a")) == 1
    assert graph.time_horizon() == 5
    assert sum(cluster.partition_stats(graph)["vertex_load"]) == 3

    stream.add_vertex("d")
    stream.add_edge("a", "c", 7, 15, props={"travel-cost": 1, "travel-time": 1})
    assert [ix.edge.dst for ix in graph.edge_piece_indexes("a")] == ["b", "c"]
    assert graph.time_horizon() == 15
    after = cluster.partition_stats(graph)
    assert sum(after["vertex_load"]) == 4
    assert after == cluster._partition_stats(graph)
    result = stream.compute()
    assert result.value_at("c", 10) == 1


def _derive_everything(graph, cluster):
    for vid in graph.vertex_ids():
        graph.edge_piece_indexes(vid)
        graph.out_degree_timeline(vid)
    graph.time_horizon()
    cluster.partition_stats(graph)


@pytest.mark.parametrize("derive", [
    lambda g: g.reversed(),
    make_undirected,
    lambda g: temporal_slice(g, Interval(2, 8)),
], ids=["reversed", "make_undirected", "temporal_slice"])
def test_derived_graphs_get_their_own_tables(derive):
    graph = transit_graph()
    cluster = SimulatedCluster(4)
    _derive_everything(graph, cluster)
    other = derive(graph)
    assert other.derived_tables() is not graph.derived_tables()
    # A pickled copy ships no tables, so it derives everything afresh.
    fresh = pickle.loads(pickle.dumps(other))
    assert fresh._tables is None
    for vid in other.vertex_ids():
        got = other.edge_piece_indexes(vid)
        assert [ix.edge for ix in got] == other.out_edges(vid)
        assert _piece_contents(got) == _piece_contents(fresh.edge_piece_indexes(vid))
        assert other.out_degree_timeline(vid) == fresh.out_degree_timeline(vid)
    assert other.time_horizon() == fresh.time_horizon()
    assert cluster.partition_stats(other) == cluster.partition_stats(fresh)


def _piece_contents(indexes):
    return [
        [(iv, dict(values)) for iv, values in ix.pieces(ix.lifespan)]
        for ix in indexes
    ]


def test_concurrent_first_use_builds_consistent_tables():
    # Serve lanes share one resident graph across threads; racing first
    # uses may build a table twice but must never yield a wrong one.
    graph = load_surrogate("reddit", scale=0.5, seed=1)
    reference = pickle.loads(pickle.dumps(graph))
    vids = reference.vertex_ids()

    def snapshot(g):
        return {
            vid: (_piece_contents(g.edge_piece_indexes(vid)), g.out_degree_timeline(vid))
            for vid in vids
        }, g.time_horizon()

    expected = snapshot(reference)
    results, errors = [], []

    def reader():
        try:
            results.append(snapshot(graph))
        except Exception as exc:  # surfaced by the assertions below
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(results) == len(threads)
    assert all(result == expected for result in results)


def test_partitioner_swap_invalidates_placement_memo():
    graph = transit_graph()
    cluster = SimulatedCluster(4)
    vids = sorted(graph.vertex_ids())
    hashed = [cluster.worker_of(v) for v in vids]
    assert hashed == [HashPartitioner(4).worker_of(v) for v in vids]
    ranged = RangePartitioner(4, vids)
    assert hashed != [ranged.worker_of(v) for v in vids]
    cluster.partitioner = ranged
    assert cluster.partitioner is ranged
    assert [cluster.worker_of(v) for v in vids] == [ranged.worker_of(v) for v in vids]
    assert cluster.partition_stats(graph) == cluster._partition_stats(graph)


# -- deterministic build counts --------------------------------------------------


class _CallCounter:
    """Counts calls per (owner object, vid); keeps owners alive so their
    ids stay unique for the whole test."""

    def __init__(self):
        self.calls = Counter()
        self._owners = []

    def wrap(self, monkeypatch, cls, name):
        original = getattr(cls, name)

        def counted(owner, vid, *args):
            self._owners.append(owner)
            self.calls[(id(owner), vid)] += 1
            return original(owner, vid, *args)

        monkeypatch.setattr(cls, name, counted)


@pytest.mark.parametrize("store", STORES)
def test_scatter_index_built_once_per_vertex_over_two_runs(monkeypatch, store):
    builds = _CallCounter()
    builds.wrap(monkeypatch, TemporalGraph, "_piece_table")
    builds.wrap(monkeypatch, CompactGraph, "_piece_table")
    graph = _store(transit_graph(), store)
    for algorithm in ("SSSP", "SSSP", "PR"):
        runners.run_algorithm(algorithm, "GRAPHITE", graph, icm_options=SERIAL)
    assert builds.calls
    assert max(builds.calls.values()) == 1


def test_partitioner_consulted_once_per_vertex_per_partitioner(monkeypatch):
    lookups = _CallCounter()
    lookups.wrap(monkeypatch, HashPartitioner, "worker_of")
    lookups.wrap(monkeypatch, partitioner_mod._AssignmentPartitioner, "worker_of")
    graph = transit_graph()
    cluster = SimulatedCluster(4)
    for _ in range(2):
        runners.run_algorithm("PR", "GRAPHITE", graph, cluster=cluster, icm_options=SERIAL)
    assert lookups.calls
    assert max(lookups.calls.values()) == 1


# -- interned, read-only piece value maps ------------------------------------------


def _twin_edge_graph(second_cost):
    b = TemporalGraphBuilder()
    for vid in "abc":
        b.add_vertex(vid, 0, 10)
    b.add_edge("a", "b", 0, 10, eid="ab", props={"cost": 1})
    b.add_edge("a", "c", 0, 10, eid="ac", props={"cost": second_cost})
    return b.build()


@pytest.mark.parametrize("store", STORES)
def test_equal_piece_maps_are_interned(store):
    graph = _store(_twin_edge_graph(1), store)
    first, second = graph.edge_piece_indexes("a")
    (_, v1), = first.pieces(Interval(0, 10))
    (_, v2), = second.pieces(Interval(0, 10))
    assert v1 is v2
    assert dict(v1) == {"cost": 1}


@pytest.mark.parametrize("store", STORES)
def test_interning_keeps_int_and_float_apart(store):
    graph = _store(_twin_edge_graph(1.0), store)
    first, second = graph.edge_piece_indexes("a")
    (_, v1), = first.pieces(Interval(0, 10))
    (_, v2), = second.pieces(Interval(0, 10))
    assert v1 is not v2
    assert type(v1["cost"]) is int and type(v2["cost"]) is float


class _ScribblingScatter(IntervalProgram):
    name = "scribble"

    def init(self, ctx):
        ctx.set_state(ctx.lifespan, 0)

    def compute(self, ctx, interval, state, messages):
        if ctx.superstep == 1:
            ctx.set_state(interval, 1)

    def scatter(self, ctx, edge, interval, state):
        edge.values["cost"] = 99
        return None


@pytest.mark.parametrize("store", STORES)
def test_scatter_cannot_write_shared_piece_values(store):
    graph = _store(_twin_edge_graph(1), store)
    with pytest.raises(IcmProgramError) as info:
        api.run(graph, _ScribblingScatter(), options=SERIAL)
    assert info.value.phase == "scatter"
    assert isinstance(info.value.original, TypeError)
    for index in graph.edge_piece_indexes("a"):
        assert [dict(v) for _, v in index.pieces(Interval(0, 10))] == [{"cost": 1}]
