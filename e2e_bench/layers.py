"""Per-layer metrics and the layer table of a traced run.

Every ``*_s`` layer metric is a *self time* summed over the traced
measurement (the span's duration minus the spans opened inside it),
except ``engine.run_s`` (inclusive), ``serve.hit_s`` / ``serve.miss_s``
(mean daemon-side answer time per hit / miss) and ``loadgen.lag_p90_s``.
Worker phases come from ``worker_span`` events and overlap the master's
spans (inside ``vertex.process`` serially, concurrently with
``executor.superstep`` in worker processes), so they are listed beside
the table, not summed into it.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from repro.obs.events import WORKER_SPAN_PHASES

#: Per-layer metric name -> unit, in ``BENCHMARK.json`` order.
PER_LAYER_UNITS: Dict[str, str] = {
    "graph.load_s": "s",
    "graph.freeze_calls": "count",
    "graph.freeze_s": "s",
    "graph.resident_mb": "MB",
    "algorithms.prepare_s": "s",
    "partition.stats_calls": "count",
    "partition.stats_s": "s",
    "engine.runs": "count",
    "engine.construct_s": "s",
    "engine.run_s": "s",
    "engine.self_s": "s",
    "engine.supersteps": "count",
    "engine.compute_calls": "count",
    "engine.scatter_calls": "count",
    "engine.warp_calls": "count",
    "engine.messages": "count",
    "engine.message_bytes": "bytes",
    "executor.starts": "count",
    "executor.start_s": "s",
    "executor.superstep_s": "s",
    "executor.collect_s": "s",
    "vertex.process_calls": "count",
    "vertex.process_s": "s",
    "warp.calls": "count",
    "warp.s": "s",
    "context.degree_segments_calls": "count",
    "context.degree_segments_s": "s",
    "cluster.sends": "count",
    "cluster.send_s": "s",
    "cluster.worker_of_calls": "count",
    **{f"worker.{phase}_s": "s" for phase in WORKER_SPAN_PHASES},
    "worker.imbalance": "ratio",
    "exchange.bytes": "bytes",
    "exchange.raw_bytes": "bytes",
    "serve.hit_frac": "fraction",
    "serve.queue_s": "s",
    "serve.hit_s": "s",
    "serve.miss_s": "s",
    "slice.calls": "count",
    "slice.s": "s",
    "render.s": "s",
    "wire.frames": "count",
    "wire.bytes": "bytes",
    "wire.s": "s",
    "loadgen.lag_p90_s": "s",
    "other_s": "s",
    "job.wall_s": "s",
    "trace_overhead": "ratio",
}

#: Span name -> (self-time metric, count metric or None), for the spans
#: recorded inside jobs.  ``job`` / ``serve.request`` self time is ``other_s``.
SPAN_METRICS: Dict[str, Tuple[str, object]] = {
    "graph.freeze": ("graph.freeze_s", "graph.freeze_calls"),
    "algorithms.prepare": ("algorithms.prepare_s", None),
    "partition.stats": ("partition.stats_s", "partition.stats_calls"),
    "engine.construct": ("engine.construct_s", None),
    "engine.run": ("engine.self_s", "engine.runs"),
    "executor.start": ("executor.start_s", "executor.starts"),
    "executor.superstep": ("executor.superstep_s", None),
    "executor.collect": ("executor.collect_s", None),
    "vertex.process": ("vertex.process_s", "vertex.process_calls"),
    "warp": ("warp.s", "warp.calls"),
    "context.degree_segments": ("context.degree_segments_s",
                                "context.degree_segments_calls"),
    "cluster.send": ("cluster.send_s", "cluster.sends"),
    "serve.queue": ("serve.queue_s", None),
    "slice": ("slice.s", "slice.calls"),
    "render": ("render.s", None),
    "wire": ("wire.s", None),
    "job": ("other_s", None),
    "serve.request": ("other_s", None),
}

#: The table must add up to the measured job wall time within this share.
TABLE_TOLERANCE = 0.05

#: Per workload, layer facts showing that it loads the layers it claims
#: to load (printed with the table; each unmet claim is a failed
#: operation of the traced run).
LOAD_CLAIMS = {
    "batch-serial": {
        "cluster.sends > 0": lambda m: m["cluster.sends"] > 0,
        "graph.freeze_calls == 0": lambda m: m["graph.freeze_calls"] == 0,
    },
    "batch-parallel": {
        "worker.encode_s > 0": lambda m: m["worker.encode_s"] > 0,
        "cluster.sends == 0": lambda m: m["cluster.sends"] == 0,
    },
    "serve-open": {
        "0.4 <= serve.hit_frac <= 0.6": lambda m: 0.4 <= m["serve.hit_frac"] <= 0.6,
    },
}


def layer_metrics(spans: dict, *, job_wall_s: float, load_s: float,
                  resident_mb: float, trace_overhead: float,
                  hit_frac: float = 0.0, lag_p90_s: float = 0.0) -> Dict[str, float]:
    """Every per-layer metric from one traced run's span dump."""
    totals = spans["totals"]
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    for span, (self_metric, count_metric) in SPAN_METRICS.items():
        agg = totals.get(span)
        if agg is None:
            continue
        out[self_metric] += agg["self_s"]
        if count_metric is not None:
            out[count_metric] += agg["count"]
    out["engine.run_s"] = totals.get("engine.run", {}).get("total_s", 0.0)
    out["cluster.worker_of_calls"] = totals.get("cluster.worker_of", {}).get("count", 0)
    out["wire.frames"] = totals.get("wire.frames", {}).get("count", 0)
    out["wire.bytes"] = totals.get("wire.bytes", {}).get("count", 0)
    out.update(spans["counts"])
    out.update(spans["workers"])
    served = spans.get("served") or {}
    for kind in ("hit", "miss"):
        samples = served.get(kind) or []
        out[f"serve.{kind}_s"] = statistics.fmean(samples) if samples else 0.0
    # Time inside a job span but outside the layer spans, plus the part of
    # the measured job wall time the job span itself did not cover.
    covered = sum(totals.get(name, {}).get("total_s", 0.0)
                  for name in ("job", "serve.request"))
    out["other_s"] += max(0.0, job_wall_s - covered)
    out["job.wall_s"] = job_wall_s
    out["graph.load_s"] = load_s
    out["graph.resident_mb"] = resident_mb
    out["trace_overhead"] = trace_overhead
    out["serve.hit_frac"] = hit_frac
    out["loadgen.lag_p90_s"] = lag_p90_s
    return out


def table_rows(metrics: Dict[str, float]) -> List[Tuple[str, float, float]]:
    """``(layer, count, self seconds)`` for every layer the table sums."""
    rows: Dict[str, Tuple[float, float]] = {}
    for self_metric, count_metric in SPAN_METRICS.values():
        if self_metric not in rows:  # other_s and engine.construct_s repeat
            count = metrics[count_metric] if count_metric else 0
            rows[self_metric] = (count, metrics[self_metric])
    return [(name, count, seconds) for name, (count, seconds) in rows.items()]


def render_table(workload: str, metrics: Dict[str, float]) -> Tuple[str, float]:
    """The layer table as text, and the ratio of its sum to the job wall."""
    rows = table_rows(metrics)
    wall = metrics["job.wall_s"]
    total = sum(row[2] for row in rows)
    lines = [f"layer table: {workload} (self time over the traced measurement)",
             f"  {'layer':<34}{'count':>12}{'self s':>12}{'share':>9}"]
    for name, count, seconds in sorted(rows, key=lambda r: -r[2]):
        share = seconds / wall if wall > 0 else 0.0
        lines.append(f"  {name:<34}{int(count):>12}{seconds:>12.4f}{share:>9.1%}")
    ratio = total / wall if wall > 0 else 0.0
    lines.append(f"  {'sum of self times':<34}{'':>12}{total:>12.4f}{ratio:>9.1%}")
    lines.append(f"  {'measured job wall':<34}{'':>12}{wall:>12.4f}")
    lines.append("  worker phases (worker_span events overlapping the rows above, "
                 "not summed): " + ", ".join(
        f"{phase}={metrics[f'worker.{phase}_s']:.4f}s" for phase in WORKER_SPAN_PHASES
    ) + f", imbalance={metrics['worker.imbalance']:.3f}")
    lines.append(f"  trace_overhead={metrics['trace_overhead']:.3f}")
    lines.append("  load claims: " + ", ".join(
        f"{claim}: {'ok' if holds(metrics) else 'NOT MET'}"
        for claim, holds in LOAD_CLAIMS[workload].items()
    ))
    return "\n".join(lines), ratio
