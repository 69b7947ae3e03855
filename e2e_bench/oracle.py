"""Brute-force oracle answers for every batch job, in a helper process.

Run by ``run.py`` alongside its reference runs, outside any timed region::

    python3 e2e_bench/oracle.py SEED OUT.pickle

``OUT.pickle`` receives ``{job name: check.oracle_expected(...)}`` for the
graphs ``workloads.make_graph`` builds from ``SEED``.
"""

from __future__ import annotations

import os
import pickle
import sys

sys.path[:0] = [os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]

from e2e_bench import check, workloads as W  # noqa: E402


def main(seed: int, out_path: str) -> int:
    out = {}
    for name, scale in W.BATCH_GRAPHS:
        graph = W.make_graph(name, scale, seed)
        for job in W.batch_jobs():
            if job.graph == name:
                out[job.name] = check.oracle_expected(job.algorithm, graph)
    with open(out_path, "wb") as fh:
        pickle.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), sys.argv[2]))
