"""Stage ladder of the pipeline up to the reference family and the extension.

    PYTHONPATH=src python tools/ladder.py BENCH_<n>.json

builds three kinds of rungs.  For each side k in SIDES, the k x k grid of
atoms of weight 100 at the integer points with p = 3 (the benchmark's
grid2d measure at a larger k).  For each m in ATOMS, the uniform 1d
measure of m atoms with p = 2 that the benchmark's large1d workload makes
(seed 0, its first input).  For each m in ATOMS_2D, m atoms uniform on
[0, 1]^2 with weights 2^U(-2, 2) and p = 3 (seed 0).  On each it runs the
stages one after the other: ``build_net``, ``build_whitney``, ``assign_anchors``,
``partition_lacunae``, ``build_reference_family``, ``build_extension``
(of seeded normal values in 2d, of the workload's values in 1d),
``estimate_sobolev_seminorm`` of that extension and ``search_lower_bound``
of those values (budget 25, seed 0, with the net and the reference family,
as the benchmark's estimate runs it); on the 1d rungs also
``sigma_norm_exact`` and ``k_exact`` at the four scales of
``default_t_grid(k=4)``, one stage for the four calls, as a kcurve1d
curve runs them.  On the 1d rung of CURVE_ATOMS atoms and the grid rung
of side CURVE_SIDE a last stage, ``k_curve``, runs the whole curve over
that grid (budget 40, seed 0), every scale and its shared search stream.
Each stage is run twice on the same input: once untraced for its wall time
and once under ``tracemalloc`` for its peak of Python-allocated memory
(numpy buffers included).  The JSON written holds, per rung, those two
figures per stage and the counts that set the work: atoms, net points,
the net build's lattice rows and the rows its radius kernel evaluated,
cover cubes, holes, adjacency edges, lacunae, family members, pool cubes,
weighted pairs and the cubes the seminorm quadrature integrates.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from sumspace.concentration import Params, build_net
from sumspace.decompose import _active_cubes, build_extension, estimate_sobolev_seminorm
from sumspace.functional import Variant, build_reference_family, default_t_grid, k_curve, search_lower_bound
from sumspace.instances import heavy_grid
from sumspace.lacunae import partition_lacunae
from sumspace.measure import AtomicMeasure
from sumspace.oracle1d import OracleProblem, k_exact, sigma_norm_exact
from sumspace.whitney import assign_anchors, build_whitney

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import SEARCH_BUDGET, WORKLOADS  # noqa: E402  (the benchmark's input generators)

MIB = 1024.0 * 1024.0
SIDES = (4, 8, 12)
ATOMS = (512, 2048)
ATOMS_2D = (8, 32, 128)
CURVE_ATOMS = 512
CURVE_SIDE = 4


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


def rung(mu, f, p: float, curve: bool = False) -> dict:
    prm = Params(p=p)
    stages = {}
    net, stages["build_net"] = measure(lambda: build_net(mu, prm))
    cover, stages["build_whitney"] = measure(lambda: build_whitney(net))
    cover, stages["assign_anchors"] = measure(lambda: assign_anchors(cover))
    lacs, stages["partition_lacunae"] = measure(lambda: partition_lacunae(cover))
    ref, stages["build_reference_family"] = measure(lambda: build_reference_family(mu, net, cover, lacs, prm))
    dec, stages["build_extension"] = measure(lambda: build_extension(f, mu, cover))
    _, stages["estimate_sobolev_seminorm"] = measure(lambda: estimate_sobolev_seminorm(dec))
    _, stages["search_lower_bound"] = measure(lambda: search_lower_bound(
        mu, f, p, Variant.CR, budget=SEARCH_BUDGET, seed=0, net=net, reference=ref
    ))
    if mu.n == 1:
        _, stages["sigma_norm_exact"] = measure(lambda: sigma_norm_exact(OracleProblem.from_measure(mu, f, p)))
        prob, grid = OracleProblem.from_measure(mu, f, p), default_t_grid(mu, f, p, k=4)
        _, stages["k_exact"] = measure(lambda: [k_exact(prob, t) for t in grid])
    if curve:
        grid = default_t_grid(mu, f, p, k=4)
        _, stages["k_curve"] = measure(lambda: k_curve(mu, f, p, t_grid=grid))
    return {
        "atoms": mu.m,
        "p": prm.p,
        "stages": stages,
        "counts": {
            "net_points": net.size,
            "net_lattice_rows": net.stats["lattice_rows"],
            "net_rows_evaluated": net.stats["radius_rows"],
            "cubes": cover.size,
            "holes": int(cover.hole_halves.shape[0]),
            "adjacency_edges": sum(len(nb) for nb in cover.neighbors) // 2,
            "lacunae": len(lacs),
            "members": ref.meta["members"],
            "dropped": ref.dropped,
            "pool": len(ref.assignment.pool),
            "pool_multiplicity": ref.pool_multiplicity,
            "pairs": len(ref.pairs),
            "active_cubes": int(_active_cubes(dec).size),
        },
    }


def grid_rung(k: int) -> dict:
    mu = heavy_grid(k)
    f = np.random.default_rng(0).normal(size=mu.m)
    return {"instance": "heavy_grid", "side": k, **rung(mu, f, 3.0, curve=k == CURVE_SIDE)}


def uniform_rung(m: int) -> dict:
    wl = WORKLOADS["large1d"]
    inst = wl.make(0, 0, dataclasses.replace(wl.sizes["full"], atoms=m))
    return {"instance": "uniform_1d", **rung(inst.mu, inst.f, inst.p, curve=m == CURVE_ATOMS)}


def uniform_2d_rung(m: int) -> dict:
    rng = np.random.default_rng(0)
    mu = AtomicMeasure(rng.uniform(0, 1, size=(m, 2)), 2.0 ** rng.uniform(-2, 2, size=m))
    return {"instance": "uniform_2d", **rung(mu, rng.normal(size=m), 3.0)}


def main() -> None:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("out", help="JSON file to write")
    args = ap.parse_args()
    rungs = []
    for make, sizes in ((uniform_rung, ATOMS), (uniform_2d_rung, ATOMS_2D), (grid_rung, SIDES)):
        for size in sizes:
            rungs.append(make(size))
            print(json.dumps(rungs[-1]), flush=True)
    doc = {
        "instances": {
            "heavy_grid": "k x k atoms of weight 100 at the integer points, p = 3",
            "uniform_1d": "the large1d benchmark input (seed 0, index 0) with m atoms, p = 2",
            "uniform_2d": "m atoms uniform on [0, 1]^2, weights 2^U(-2, 2), p = 3 (seed 0)",
        },
        "host": {"machine": platform.machine(), "python": platform.python_version(),
                 "numpy": np.__version__},
        "rungs": rungs,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
