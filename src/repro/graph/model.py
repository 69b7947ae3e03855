"""The temporal property graph data model (paper Sec. III, Def. 1).

A temporal graph is a directed multi-graph ``G = (V, E, L, A_V, A_E)`` where
vertices and edges carry a *lifespan* interval and interval-valued
properties.  Three soundness constraints are enforced by the
:class:`~repro.graph.builder.TemporalGraphBuilder`:

1. **Unique vertices and edges** — an id exists at most once, for one
   contiguous interval, and never re-occurs.
2. **Referential integrity of edges** — an edge's lifespan is contained in
   the lifespans of both endpoints.
3. **Referential integrity of properties** — a property interval is
   contained in its owner's lifespan.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional

from repro.core.interval import FOREVER, Interval
from .derived import DerivedTables
from .properties import PropertySet

VertexId = Any
EdgeId = Any


class TemporalVertex:
    """A vertex ``⟨vid, τ⟩`` with optional interval-valued properties."""

    __slots__ = ("vid", "lifespan", "properties")

    def __init__(self, vid: VertexId, lifespan: Interval):
        self.vid = vid
        self.lifespan = lifespan
        self.properties = PropertySet()

    def __repr__(self) -> str:
        return f"Vertex({self.vid!r}, {self.lifespan})"


class TemporalEdge:
    """A directed edge ``⟨eid, src, dst, τ⟩`` with interval properties."""

    __slots__ = ("eid", "src", "dst", "lifespan", "properties")

    def __init__(self, eid: EdgeId, src: VertexId, dst: VertexId, lifespan: Interval):
        self.eid = eid
        self.src = src
        self.dst = dst
        self.lifespan = lifespan
        self.properties = PropertySet()

    def pieces(self, window: Interval) -> list[tuple[Interval, "EdgePiece"]]:
        """Partition ``lifespan ∩ window`` by property change points.

        Each piece carries the property values constant over its interval.
        Scatter is invoked once per piece per overlapping updated state
        (paper: "scatter is called once for each overlapping interval of its
        out-edges having a distinct property").  Property-free edges yield a
        single piece.
        """
        clipped = self.lifespan.intersect(window)
        if clipped is None:
            return []
        return [
            (iv, EdgePiece(self, iv, values))
            for iv, values in self._value_pieces(clipped)
        ]

    def _value_pieces(self, clipped: Interval) -> list[tuple[Interval, dict[str, Any]]]:
        """``(interval, values)`` pieces of ``clipped`` (within the lifespan)."""
        props = self.properties
        bounds = [b for b in props.boundaries() if clipped.start < b < clipped.end]
        if not bounds:
            return [(clipped, props.values_at(clipped.start))]
        cuts = [clipped.start, *bounds, clipped.end]
        return [
            (Interval._unchecked(lo, hi), props.values_at(lo))
            for lo, hi in zip(cuts, cuts[1:])
        ]

    def __repr__(self) -> str:
        return f"Edge({self.eid!r}: {self.src!r}->{self.dst!r}, {self.lifespan})"


class EdgePiece:
    """A maximal sub-interval of an edge with constant property values."""

    __slots__ = ("edge", "interval", "values")

    def __init__(self, edge: TemporalEdge, interval: Interval, values: dict[str, Any]):
        self.edge = edge
        self.interval = interval
        self.values = values

    def get(self, label: str, default: Any = None) -> Any:
        return self.values.get(label, default)

    def __repr__(self) -> str:
        return f"EdgePiece({self.edge.eid!r}, {self.interval}, {self.values})"


class TemporalGraph(DerivedTables):
    """An immutable-by-convention temporal property multi-graph.

    Construct through :class:`~repro.graph.builder.TemporalGraphBuilder`,
    which validates the soundness constraints; direct construction is for
    internal use (generators that produce valid graphs by design).
    Scatter indexes, degree timelines and the time horizon are derived
    lazily and kept on the graph (:mod:`repro.graph.derived`); mutation
    drops them.
    """

    def __init__(self) -> None:
        self._vertices: dict[VertexId, TemporalVertex] = {}
        self._edges: dict[EdgeId, TemporalEdge] = {}
        self._out: dict[VertexId, list[TemporalEdge]] = {}
        self._in: dict[VertexId, list[TemporalEdge]] = {}

    # -- accessors ---------------------------------------------------------

    def vertex(self, vid: VertexId) -> TemporalVertex:
        return self._vertices[vid]

    def edge(self, eid: EdgeId) -> TemporalEdge:
        return self._edges[eid]

    def has_vertex(self, vid: VertexId) -> bool:
        return vid in self._vertices

    def vertices(self) -> Iterator[TemporalVertex]:
        return iter(self._vertices.values())

    def edges(self) -> Iterator[TemporalEdge]:
        return iter(self._edges.values())

    def vertex_ids(self) -> list[VertexId]:
        return list(self._vertices)

    def out_edges(self, vid: VertexId) -> list[TemporalEdge]:
        return self._out.get(vid, [])

    def in_edges(self, vid: VertexId) -> list[TemporalEdge]:
        return self._in.get(vid, [])

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def lifespan(self) -> Interval:
        """Hull of all vertex lifespans (the graph's lifespan)."""
        if not self._vertices:
            raise ValueError("empty graph has no lifespan")
        start = min(v.lifespan.start for v in self._vertices.values())
        end = max(v.lifespan.end for v in self._vertices.values())
        return Interval(start, end)

    def _scan_horizon(self) -> int:
        horizon = 0
        for v in self._vertices.values():
            if not v.lifespan.is_unbounded:
                horizon = max(horizon, v.lifespan.end)
        for e in self._edges.values():
            if not e.lifespan.is_unbounded:
                horizon = max(horizon, e.lifespan.end)
            for label in e.properties:
                span = e.properties.timeline(label).span()
                if span is not None and not span.is_unbounded:
                    horizon = max(horizon, span.end)
        return horizon

    def _piece_table(self, vid: VertexId):
        intern = self.derived_tables().intern
        for e in self.out_edges(vid):
            yield e, [
                (iv, intern(values)) for iv, values in e._value_pieces(e.lifespan)
            ]

    # -- mutation (builder / generator use only) ----------------------------

    def _add_vertex(self, vertex: TemporalVertex) -> None:
        self._tables = None
        self._vertices[vertex.vid] = vertex
        self._out.setdefault(vertex.vid, [])
        self._in.setdefault(vertex.vid, [])

    def _add_edge(self, edge: TemporalEdge) -> None:
        self._tables = None
        self._edges[edge.eid] = edge
        self._out.setdefault(edge.src, []).append(edge)
        self._in.setdefault(edge.dst, []).append(edge)

    def __getstate__(self) -> dict:
        # Derived tables are rebuilt on demand, never shipped.
        state = self.__dict__.copy()
        state.pop("_tables", None)
        return state

    # -- derived views -------------------------------------------------------

    def reversed(self) -> "TemporalGraph":
        """A copy with every edge direction flipped (shares property sets).

        Used by reverse-traversing algorithms such as Latest Departure.
        """
        rev = TemporalGraph()
        for v in self._vertices.values():
            rv = TemporalVertex(v.vid, v.lifespan)
            rv.properties = v.properties
            rev._add_vertex(rv)
        for e in self._edges.values():
            re = TemporalEdge(e.eid, e.dst, e.src, e.lifespan)
            re.properties = e.properties
            rev._add_edge(re)
        return rev

    def validate(self) -> None:
        """Check constraints 2 and 3 (constraint 1 holds by dict keying)."""
        for e in self._edges.values():
            src = self._vertices.get(e.src)
            dst = self._vertices.get(e.dst)
            if src is None or dst is None:
                raise ValueError(f"edge {e.eid!r} references missing vertex")
            if not e.lifespan.within(src.lifespan):
                raise ValueError(
                    f"edge {e.eid!r} lifespan {e.lifespan} exceeds source {src.lifespan}"
                )
            if not e.lifespan.within(dst.lifespan):
                raise ValueError(
                    f"edge {e.eid!r} lifespan {e.lifespan} exceeds sink {dst.lifespan}"
                )
            _check_property_containment(e.properties, e.lifespan, f"edge {e.eid!r}")
        for v in self._vertices.values():
            _check_property_containment(v.properties, v.lifespan, f"vertex {v.vid!r}")

    def __repr__(self) -> str:
        return f"TemporalGraph(|V|={self.num_vertices}, |E|={self.num_edges})"


def _check_property_containment(props: PropertySet, lifespan: Interval, owner: str) -> None:
    for label in props:
        for iv, _ in props.timeline(label):
            if not iv.within(lifespan):
                raise ValueError(
                    f"{owner} property {label!r} interval {iv} exceeds lifespan {lifespan}"
                )
