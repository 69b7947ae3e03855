"""End-to-end, layer-attributed benchmark of the GRAPHITE engine.

Run from the root of a source checkout::

    python3 e2e_bench/run.py --workload batch-serial --seed 1 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` and ``e2e_bench/README.md``):

* ``batch-serial``   -- the 12 algorithms on reddit x2 and twitter x1,
  serial executor, heap store, graphs loaded from v1 binary files;
* ``batch-parallel`` -- the same 24 jobs on the parallel executor
  (2 processes, star exchange) over mmap'd compact files;
* ``serve-open``     -- a ``repro serve`` daemon under a seeded open-loop
  query schedule on two connections.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs an
untraced and a traced measurement and prints the per-layer metrics and
the layer table.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
carries the provenance (commit or source digest, seed, CPU, Python).
Every job's output is checked against a reference run and the
brute-force oracles, and every served payload against an in-process run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

#: End-to-end metric name -> unit, in ``BENCHMARK.json`` order.
END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "query_p50_s": "s",
    "query_p90_s": "s",
    "slo_frac": "fraction",
    "peak_rss_mb": "MB",
}


class WorkDir:
    """A private scratch directory inside the checkout, removed at exit."""

    def __init__(self, workload: str, seed: int):
        self.root = ROOT
        rel = os.path.join(".e2e_bench_work", f"{workload}-{seed}-{os.getpid()}")
        self.rel = rel
        self.dir = os.path.join(ROOT, rel)
        os.makedirs(self.dir)

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def relpath(self, name: str) -> str:
        return os.path.join(self.rel, name)

    def remove(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.dir))
        except OSError:
            pass


def provenance(seed: int) -> dict:
    commit = None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
    }


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p``-quantile of ``values``.

    A weighted mean of all order statistics (weights from the
    Beta(p(n+1), (1-p)(n+1)) distribution) rather than one or two of
    them: the 24 batch jobs form small clusters of similar times, and a
    single order statistic jumps from one cluster to the next when a seed
    changes one job's time a little.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 64  # midpoint rule per order statistic's 1/n slice of [0, 1]
    weights = []
    for i in range(n):
        total = 0.0
        for k in range(steps):
            t = (i + (k + 0.5) / steps) / n
            total += math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)
        weights.append(total)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


# -- batch workloads -------------------------------------------------------------


def run_batch(workload: str, seed: int, seconds: float, trace: bool, ctx: WorkDir) -> dict:
    from e2e_bench import check, procs, workloads as W
    from e2e_bench.speed import HostNotQuiet, normalise

    from repro import api
    from repro.graph.binary_io import dump_graph_binary
    from repro.graph.compact import CompactGraph

    parallel = workload == "batch-parallel"
    jobs = W.batch_jobs()

    # The program loads the graphs from these files; the reference runs on
    # the v1 file read into the heap store.  The v1 format does not keep
    # the generator's vertex and edge order, so the compact file is frozen
    # from that same heap graph: both batch workloads and the reference see
    # one enumeration order, and their engine work counts agree.
    files, graphs = {}, {}
    for name, scale in W.BATCH_GRAPHS:
        v1_path = ctx.path(f"{name}.itgr1")
        dump_graph_binary(W.make_graph(name, scale, seed), v1_path)
        graphs[name] = api.load_graph(v1_path, store="heap")
        files[name] = v1_path
        if parallel:
            files[name] = ctx.path(f"{name}.itgr2")
            CompactGraph.from_temporal(graphs[name]).dump(files[name])

    # Reference runs and oracle answers, outside any timed region; the
    # oracles run in a helper process alongside the reference runs.
    oracle_path = ctx.path("oracle.pickle")
    helper_env = dict(os.environ, PYTHONPATH=SRC)
    oracle = procs.start([os.path.join(HERE, "oracle.py"), str(seed), oracle_path],
                         cwd=ROOT, env=helper_env)
    try:
        references = {}
        for job in jobs:
            references[job.name] = check.run_reference(job.algorithm, graphs[job.graph],
                                                       job.graph)
    except BaseException:
        procs.stop_group(oracle)
        raise
    procs.stop_group(oracle, timeout_s=170)
    if oracle.returncode != 0:
        raise RuntimeError(f"oracle helper exited with {oracle.returncode}")
    with open(oracle_path, "rb") as fh:
        expected = pickle.load(fh)
    failed = 0
    ref_digest = {}
    for job in jobs:
        outcome = references[job.name]
        wrong = check.oracle_mismatches(job.algorithm, graphs[job.graph], outcome,
                                        expected[job.name])
        if wrong:
            print(f"oracle mismatch: {job.name}: {wrong} points", file=sys.stderr)
            failed += 1
        ref_digest[job.name] = check.job_digest(outcome)
    del references, expected

    options = {"executor": "serial"}
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    if parallel:
        options = {"executor": "parallel", "executor_processes": W.PARALLEL_PROCESSES,
                   "exchange": "star"}
        env["REPRO_GRAPH_STORE"] = "compact"
    spec = {"files": files, "jobs": [(j.graph, j.algorithm) for j in jobs],
            "options": options, "seconds": seconds, "trace": trace}
    spec_path, out_path = ctx.path("spec.json"), ctx.path("host.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    host_proc = procs.start([os.path.join(HERE, "host.py"), spec_path, out_path],
                            cwd=ROOT, env=env)
    procs.stop_group(host_proc, timeout_s=170)
    if host_proc.returncode != 0:
        raise RuntimeError(f"engine host exited with {host_proc.returncode}")
    with open(out_path, encoding="utf-8") as fh:
        host = json.load(fh)
    if "invalid" in host:
        raise HostNotQuiet(host["invalid"])

    samples, ok_in_time = [], 0
    passes = host["passes"] + ([host["traced_pass"]] if host["traced_pass"] else [])
    for one_pass in passes:
        for job, (elapsed, _, digest) in zip(jobs, one_pass):
            samples.append(elapsed)
            if digest != ref_digest[job.name]:
                print(f"wrong output or work counts: {job.name}", file=sys.stderr)
                failed += 1
            elif elapsed <= W.JOB_LATENCY_LIMIT_S:
                ok_in_time += 1
    def pass_total(one_pass):
        return sum(normalise(t, c) for t, c, _ in one_pass)

    # Each job's median over the passes, at reference host speed.
    per_job = [statistics.median(normalise(t, c) for t, c, _ in runs)
               for runs in zip(*host["passes"])]
    setup = [normalise(t, c) for t, c in host["setup"]]
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_s": sum(per_job),
        "query_p50_s": quantile(per_job, 0.5),
        "query_p90_s": quantile(per_job, 0.9),
        "slo_frac": ok_in_time / len(samples),
        "peak_rss_mb": host["peak_rss_mb"],
    }
    spread = {
        "setup_s": setup,
        "pass_s": [pass_total(one_pass) for one_pass in host["passes"]],
        "query_p50_s": per_job,
        "query_p90_s": per_job,
    }
    raw_per_job = [statistics.median(t for t, _, _ in runs) for runs in zip(*host["passes"])]
    raw = {
        "setup_s": statistics.median(t for t, _ in host["setup"]),
        "pass_s": sum(raw_per_job),
        "query_p50_s": quantile(raw_per_job, 0.5),
        "query_p90_s": quantile(raw_per_job, 0.9),
    }
    result = {"metrics": metrics, "raw": raw, "samples": spread,
              "attempted": len(samples) + len(jobs), "failed": failed}
    if trace:
        from e2e_bench import layers

        spans = host["spans"]
        load = spans["graph_load"]
        result["layers"] = layers.layer_metrics(
            spans, job_wall_s=sum(t for t, _, _ in host["traced_pass"]),
            load_s=load.get("total_s", 0.0) / spans["setup_repeats"],
            resident_mb=host["resident_mb"],
            trace_overhead=pass_total(host["traced_pass"]) / pass_total(host["passes"][0]),
        )
    return result


# -- serving workload ------------------------------------------------------------


def run_serve(seed: int, seconds: float, trace: bool, ctx: WorkDir) -> dict:
    from e2e_bench import check, serving, workloads as W
    from e2e_bench.speed import normalise
    from repro.core.interval import FOREVER, Interval
    from repro.graph.compact import CompactGraph
    from repro.graph.stats import resident_bytes
    from repro.query.slice import temporal_slice

    raw = serving.run(ctx, seed, seconds, trace)
    graph, graph_name = raw["graph"], raw["graph_name"]
    loop = raw["open_loop"]

    # Check every served payload against an in-process run on its slice.
    slices, reference, failed = {}, {}, 0
    for answer in raw["answers"]:
        query = answer.query
        if answer.error is not None:
            print(f"query failed: {query}: {answer.error}", file=sys.stderr)
            failed += 1
            continue
        if query not in reference:
            start, end = query.window
            if query.window not in slices:
                window = Interval(start, FOREVER if end is None else end)
                slices[query.window] = temporal_slice(graph, window)
            reference[query] = check.served_reference(slices[query.window], query,
                                                      graph_name)
        if answer.payload != reference[query]:
            print(f"wrong payload: {query}", file=sys.stderr)
            answer.error = "wrong payload"
            failed += 1

    latencies = [normalise(a.latency_s, a.calibration) for a in loop.answers]
    good = sum(a.error is None and a.latency_s <= W.QUERY_LATENCY_LIMIT_S
               for a in loop.answers)
    lag = serving.lag_p90(loop)
    setup = [normalise(t, c) for t, c in raw["setup"]]
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_s": serving.capacity_s(raw["capacity"]),
        "query_p50_s": quantile(latencies, 0.5),
        "query_p90_s": quantile(latencies, 0.9),
        "slo_frac": good / loop.offered,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    spread = {
        "setup_s": setup,
        "pass_s": [sum(one_pass) for one_pass in raw["capacity"]],
        "query_p50_s": latencies,
        "query_p90_s": latencies,
    }
    walls = [a.latency_s for a in loop.answers]
    unnormalised = {
        "setup_s": statistics.median(t for t, _ in raw["setup"]),
        "pass_s": serving.capacity_s(raw["capacity_raw"]),
        "query_p50_s": quantile(walls, 0.5),
        "query_p90_s": quantile(walls, 0.9),
    }
    result = {"metrics": metrics, "raw": unnormalised, "samples": spread,
              "attempted": len(raw["answers"]), "failed": failed}
    if lag > W.QUERY_LATENCY_LIMIT_S:
        result["invalid"] = (f"load generator fell behind: lag p90 {lag:.3f}s "
                             f"> {W.QUERY_LATENCY_LIMIT_S}s")
    if trace:
        from e2e_bench import layers

        spans = raw["spans"]
        load = spans["totals"].get("graph.load", {})
        wall = spans["totals"].get("serve.request", {}).get("total_s", 0.0)
        hits = sum(a.cache_hit for a in loop.answers)
        resident = resident_bytes(CompactGraph.load(os.path.join(ROOT, graph_name)))
        result["layers"] = layers.layer_metrics(
            spans, job_wall_s=wall, load_s=load.get("total_s", 0.0),
            resident_mb=resident / 2**20,
            trace_overhead=(serving.capacity_s(raw["traced_capacity"])
                            / serving.capacity_s(raw["capacity"])),
            hit_frac=hits / max(1, len(loop.answers)), lag_p90_s=lag,
        )
    return result


# -- entry point -----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("batch-serial", "batch-parallel", "serve-open"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"e2e_bench: no program source under {SRC}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, os.path.dirname(HERE)]
    # On SIGTERM unwind normally, so daemons are killed and scratch removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    from e2e_bench import procs

    procs.become_subreaper()
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]  # the workloads set the engine knobs themselves

    from e2e_bench.speed import HostNotQuiet

    info = provenance(args.seed)
    ctx = WorkDir(args.workload, args.seed)
    t0 = time.perf_counter()
    try:
        if args.workload == "serve-open":
            result = run_serve(args.seed, args.seconds, bool(args.trace), ctx)
        else:
            result = run_batch(args.workload, args.seed, args.seconds, bool(args.trace), ctx)
    except HostNotQuiet as exc:
        result = {"invalid": f"host-speed calibration: {exc}"}
    finally:
        ctx.remove()
    if "invalid" in result:
        print(f"e2e_bench: run invalid: {result['invalid']}", file=sys.stderr)
        return 3

    print(f"workload {args.workload}: {result['attempted']} operations, "
          f"{result['failed']} failed, fail_frac "
          f"{result['failed'] / result['attempted']:.4f}, "
          f"run took {time.perf_counter() - t0:.1f}s")
    for name, value in result["metrics"].items():
        line = f"  {name:<14}{value:>14.6f} {END_TO_END_UNITS[name]:<9}"
        if name in result["raw"]:
            line += f"  raw wall {result['raw'][name]:.6f}"
        samples = result["samples"].get(name)
        if samples:
            q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
            line += f"  quartiles {q1:.6f} .. {q3:.6f} of n={len(samples)}"
        print(line.rstrip())
    if args.trace:
        from e2e_bench import layers

        table, ratio = layers.render_table(args.workload, result["layers"])
        print(table)
        if abs(ratio - 1.0) > layers.TABLE_TOLERANCE:
            print(f"e2e_bench: layer table sums to {ratio:.1%} of the job wall time",
                  file=sys.stderr)
            result["failed"] += 1
        # Each load claim is one checked operation.
        for claim, holds in layers.LOAD_CLAIMS[args.workload].items():
            result["attempted"] += 1
            if not holds(result["layers"]):
                print(f"e2e_bench: load claim not met: {claim}", file=sys.stderr)
                result["failed"] += 1
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in layers.PER_LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in result["metrics"].items()}
    print("provenance " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
