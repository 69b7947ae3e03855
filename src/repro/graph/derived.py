"""Tables derived once per graph and shared by every run over it.

ICM's scatter runs "once for each overlapping interval of its out-edges
having a distinct property" (paper Sec. IV): those property-constant pieces,
PageRank's piecewise out-degree, the graph's time horizon and the
placement summary of a partitioner all depend on the immutable graph
alone.  Both resident stores (:class:`~repro.graph.model.TemporalGraph`
and :class:`~repro.graph.compact.CompactGraph`) therefore hold them in one
:class:`GraphTables` built lazily on first use — never while loading — and
kept for the graph's lifetime, so engine runs, SCC's peeling sub-runs and
served queries answer from the index instead of re-deriving it (Kairos,
PAPERS.md).  A heap graph drops its tables in O(1) whenever
``_add_vertex``/``_add_edge`` mutates it (the streaming engine's ingest
path).
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from types import MappingProxyType
from typing import Any, Iterable, Mapping, Optional

from repro.core.interval import Interval

#: Property-value types whose ``repr`` identifies them exactly; piece value
#: maps holding only these are interned (anything else gets a private map).
_INTERNABLE = (int, float, str, bytes, bool, type(None))

#: The read-only empty map shared by every property-free piece.
_EMPTY: Mapping[str, Any] = MappingProxyType({})


class EdgePieceIndex:
    """Scatter index of one out-edge: its property-constant pieces over the
    full lifespan, sliced per window by bisection.

    ``pieces(window)`` returns the ``(clipped_interval, values)`` pairs
    overlapping ``window`` — exactly the pieces
    ``edge.pieces(window)`` derives, without re-deriving the property
    boundaries.  ``values`` is a read-only map shared by every piece with
    the same content.
    """

    __slots__ = ("edge", "lifespan", "_starts", "_pieces")

    def __init__(self, edge: Any, pieces: list[tuple[Interval, Mapping[str, Any]]]):
        self.edge = edge
        self.lifespan = edge.lifespan
        self._pieces = pieces
        self._starts = [iv.start for iv, _ in pieces] if len(pieces) > 1 else None

    def pieces(self, window: Interval) -> list[tuple[Interval, Mapping[str, Any]]]:
        clipped = self.lifespan.intersect(window)
        if clipped is None:
            return []
        pieces = self._pieces
        if self._starts is None:
            if clipped == self.lifespan:
                return pieces
            return [(clipped, pieces[0][1])]
        idx = bisect_right(self._starts, clipped.start) - 1
        if idx < 0:
            idx = 0
        out = []
        hi = clipped.end
        while idx < len(pieces):
            iv, values = pieces[idx]
            if iv.start >= hi:
                break
            common = iv.intersect(clipped)
            if common is not None:
                out.append((common, values))
            idx += 1
        return out


def degree_timeline(edges: Iterable[Any]) -> tuple[list[int], list[int]]:
    """Sorted cut points of the edges' lifespans and the number of edges
    live on ``[cuts[i], cuts[i+1])`` (``0`` after the last cut).

    Every lifespan start and end is a cut, including ones where the degree
    does not change, so :func:`degree_segments` splits exactly where the
    per-interval rescan it replaced did.
    """
    delta: dict[int, int] = {}
    for edge in edges:
        iv = edge.lifespan
        delta[iv.start] = delta.get(iv.start, 0) + 1
        delta[iv.end] = delta.get(iv.end, 0) - 1
    cuts = sorted(delta)
    return cuts, list(accumulate(delta[c] for c in cuts))


def degree_segments(
    timeline: tuple[list[int], list[int]], interval: Interval
) -> list[tuple[Interval, int]]:
    """``interval`` split at every cut inside it, with the live degree of
    each segment (zero-degree segments included, equal neighbours kept
    apart)."""
    cuts, counts = timeline
    start, end = interval.start, interval.end
    first = bisect_right(cuts, start)
    k = first - 1
    lo = start
    mk = Interval._unchecked  # lo < hi: the cuts strictly inside interval
    segments: list[tuple[Interval, int]] = []
    for hi in cuts[first:]:
        if hi >= end:
            break
        segments.append((mk(lo, hi), counts[k] if k >= 0 else 0))
        lo = hi
        k += 1
    segments.append((mk(lo, end), counts[k] if k >= 0 else 0))
    return segments


class GraphTables:
    """One graph's derived tables, each filled lazily on first use."""

    __slots__ = ("piece_indexes", "degree_timelines", "horizon", "partition_stats", "_maps")

    def __init__(self) -> None:
        #: vid → :class:`EdgePieceIndex` list of its out-edges.
        self.piece_indexes: dict[Any, list[EdgePieceIndex]] = {}
        #: vid → :func:`degree_timeline` of its out-edges.
        self.degree_timelines: dict[Any, tuple[list[int], list[int]]] = {}
        #: Largest bounded end time (``0`` when there is none).
        self.horizon: Optional[int] = None
        #: (partitioner fingerprint, workers) → placement summary.
        self.partition_stats: dict[tuple[str, int], dict[str, Any]] = {}
        self._maps: dict[tuple, Mapping[str, Any]] = {}

    def intern(self, values: dict[str, Any]) -> Mapping[str, Any]:
        """A read-only map equal to ``values`` (same iteration order),
        shared by every piece of this graph with the same content.

        Read-only because it is shared: a scatter writing to
        ``edge.values`` raises instead of corrupting every other edge.
        """
        if not values:
            return _EMPTY
        if not all(type(v) in _INTERNABLE for v in values.values()):
            return MappingProxyType(values)
        # type + repr tell 1, 1.0 and True (and 0.0 from -0.0) apart.
        key = tuple((k, type(v), repr(v)) for k, v in values.items())
        shared = self._maps.get(key)
        if shared is None:
            shared = self._maps[key] = MappingProxyType(values)
        return shared


class DerivedTables:
    """Mixin serving :class:`GraphTables` lookups for a graph store.

    A store supplies ``_piece_table(vid)`` (its out-edges' full-lifespan
    pieces as ``(edge, pieces)`` pairs, values interned) and
    ``_scan_horizon()`` (``0`` when nothing is bounded).
    """

    _tables: Optional[GraphTables] = None

    def derived_tables(self) -> GraphTables:
        tables = self._tables
        if tables is None:
            tables = self._tables = GraphTables()
        return tables

    def edge_piece_indexes(self, vid: Any) -> list[EdgePieceIndex]:
        """Scatter indexes of ``vid``'s out-edges, built once per graph."""
        tables = self._tables or self.derived_tables()
        indexes = tables.piece_indexes.get(vid)
        if indexes is None:
            indexes = tables.piece_indexes[vid] = [
                EdgePieceIndex(edge, pieces)
                for edge, pieces in self._piece_table(vid)
            ]
        return indexes

    def out_degree_timeline(self, vid: Any) -> tuple[list[int], list[int]]:
        """:func:`degree_timeline` of ``vid``'s out-edges, built once."""
        tables = self._tables or self.derived_tables()
        timeline = tables.degree_timelines.get(vid)
        if timeline is None:
            timeline = tables.degree_timelines[vid] = degree_timeline(self.out_edges(vid))
        return timeline

    def time_horizon(self, default: int = 1) -> int:
        """Largest *bounded* end time across vertex and edge lifespans and
        edge property spans; the snapshot count.

        Graphs whose entities all extend to :data:`FOREVER` report
        ``default`` — they are effectively non-temporal.
        """
        tables = self._tables or self.derived_tables()
        horizon = tables.horizon
        if horizon is None:
            horizon = tables.horizon = self._scan_horizon()
        return horizon if horizon > 0 else default
