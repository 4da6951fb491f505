"""Stage ladder of the geometry core on the heavy 2d grid.

    PYTHONPATH=src python tools/ladder.py BENCH_<n>.json

builds, for each side k in SIDES, the k x k grid of atoms of weight 100 at the
integer points with p = 3 (the benchmark's grid2d measure at a larger k),
and runs the stages that lead to the reference family one after the
other: ``build_net``, ``build_whitney``, ``assign_anchors``,
``partition_lacunae`` and ``build_reference_family``.  Each stage is run
twice on the same input: once untraced for its wall time and once under
``tracemalloc`` for its peak of Python-allocated memory (numpy buffers
included).  The JSON written holds, per rung, those two figures per stage
and the counts that set the work: atoms, net points, cover cubes, holes,
adjacency edges, lacunae, family members, pool cubes and weighted pairs.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
import tracemalloc

import numpy as np

from sumspace.concentration import Params, build_net
from sumspace.functional import build_reference_family
from sumspace.instances import heavy_grid
from sumspace.lacunae import partition_lacunae
from sumspace.whitney import assign_anchors, build_whitney

MIB = 1024.0 * 1024.0
SIDES = (4, 8, 12)


def measure(stage):
    """Wall time of one untraced call, then the tracemalloc peak of a second."""
    t0 = time.perf_counter()
    stage()
    wall = time.perf_counter() - t0
    tracemalloc.start()
    try:
        out = stage()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, {"wall_s": round(wall, 4), "peak_mib": round(peak / MIB, 2)}


def rung(k: int) -> dict:
    mu = heavy_grid(k)
    prm = Params(p=3.0)
    stages = {}
    net, stages["build_net"] = measure(lambda: build_net(mu, prm))
    cover, stages["build_whitney"] = measure(lambda: build_whitney(net))
    cover, stages["assign_anchors"] = measure(lambda: assign_anchors(cover, net, prm))
    lacs, stages["partition_lacunae"] = measure(lambda: partition_lacunae(cover, net))
    # the family attaches projections to the lacunae, so each call gets a fresh list
    fresh = [partition_lacunae(cover, net) for _ in range(2)]
    ref, stages["build_reference_family"] = measure(
        lambda: build_reference_family(mu, net, cover, fresh.pop(), prm)
    )
    return {
        "side": k,
        "atoms": mu.m,
        "p": prm.p,
        "stages": stages,
        "counts": {
            "net_points": net.size,
            "cubes": cover.size,
            "holes": int(cover.hole_halves.shape[0]),
            "adjacency_edges": sum(len(nb) for nb in cover.neighbors) // 2,
            "lacunae": len(lacs),
            "members": ref.meta["members"],
            "dropped": ref.dropped,
            "pool": len(ref.assignment.pool),
            "pool_multiplicity": ref.pool_multiplicity,
            "pairs": len(ref.pairs),
        },
    }


def main() -> None:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("out", help="JSON file to write")
    args = ap.parse_args()
    rungs = []
    for k in SIDES:
        rungs.append(rung(k))
        print(json.dumps(rungs[-1]), flush=True)
    doc = {
        "instance": "heavy 2d grid: k x k atoms of weight 100 at the integer points, p = 3",
        "host": {"machine": platform.machine(), "python": platform.python_version(),
                 "numpy": np.__version__},
        "rungs": rungs,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
