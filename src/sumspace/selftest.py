"""Deterministic invariant suite behind the ``selftest`` CLI command.

Runs a condensed version of every verification family on small seeded
instances and renders one line per check; the report is byte-reproducible
for a fixed seed.
"""

from __future__ import annotations

import numpy as np

from .concentration import Params, build_net, covering_violations, verify_concentration
from .decompose import build_extension, estimate_sobolev_seminorm, mu_norm_f2
from .functional import (
    Variant,
    build_reference_family,
    eval_family_functional,
    search_lower_bound,
)
from .geometry import Cube, CubeFamily, color_disjoint, cubes_intersect, meeting_pairs, select_min_disjoint
from .instances import random_instance
from .lacunae import contact_graph, partition_lacunae
from .measure import lp_norm
from .oracle1d import OracleProblem, k_exact, sigma_norm_exact
from .whitney import PartitionOfUnity, assign_anchors, build_whitney

__all__ = ["run_selftest"]


def _fmt(x: float) -> str:
    return f"{x:.9g}"


class _Report:
    def __init__(self):
        self.lines: list[str] = []
        self.failures = 0

    def check(self, name: str, ok: bool, value: float = 0.0):
        if not ok:
            self.failures += 1
        self.lines.append(f"{'ok  ' if ok else 'FAIL'} {name} {_fmt(value)}")

    def text(self) -> str:
        status = "PASS" if self.failures == 0 else f"FAIL ({self.failures})"
        return "\n".join(self.lines + [f"selftest {status}"]) + "\n"


def _geometry_checks(rep: _Report, rng: np.random.Generator):
    worst_ratio = 1.0
    ok_cover = True
    ok_disjoint = True
    for _ in range(150):
        k = int(rng.integers(1, 18))
        fam = CubeFamily(
            [Cube(rng.uniform(-10, 10, 1), float(rng.uniform(0.05, 3))) for _ in range(k)]
        )
        sel = select_min_disjoint(fam)
        ok_disjoint &= sel.pairwise_disjoint()
        for q in fam:
            if not any(
                cubes_intersect(q, s) and s.half_side <= q.half_side * (1 + 1e-12)
                for s in sel
            ):
                ok_cover = False
    rep.check("greedy_selection_disjoint", ok_disjoint)
    rep.check("greedy_selection_hitting", ok_cover)

    ok_classes = True
    for _ in range(100):
        k = int(rng.integers(1, 15))
        fam = CubeFamily(
            [Cube(rng.uniform(-8, 8, 1), float(rng.uniform(0.1, 2))) for _ in range(k)]
        )
        deg = int(np.bincount(meeting_pairs(fam.centers, fam.halves)[0], minlength=k).max())
        classes = color_disjoint(fam, deg)
        ok_classes &= len(classes) <= deg + 1
        ok_classes &= all(c.pairwise_disjoint() for c in classes)
    rep.check("coloring_bound", ok_classes, worst_ratio)


def _pipeline_checks(rep: _Report, inst, tag: str, rng: np.random.Generator):
    mu, f, p = inst.mu, inst.f, inst.p
    prm = Params(p=p)
    net = build_net(mu, prm)
    conc = verify_concentration(net, mu, rng=np.random.default_rng(inst.seed + 1))
    rep.check(f"{tag}_concentration", conc.ok, float(net.delta_grid))
    X = net.working_box.lo + rng.random((400, mu.n)) * (
        net.working_box.hi - net.working_box.lo
    )
    rep.check(f"{tag}_covering", not covering_violations(net, mu, X), float(net.size))

    cover = assign_anchors(build_whitney(net))
    ok_dqe = True
    for i in range(cover.size):
        d = cover.dist_to_net(i)
        diam = 2 * cover.halves[i]
        ok_dqe &= diam <= d * (1 + 1e-9) and d <= 4 * diam * (1 + 1e-9)
    rep.check(f"{tag}_whitney_geometry", ok_dqe, float(cover.size))
    ok_mass = bool(np.all(
        mu.mass_many(cover.centers, cover.halves)
        <= 84.0**p * cover.halves ** (mu.n - p) * (1 + 1e-9)
    ))
    rep.check(f"{tag}_whitney_mass", ok_mass)

    pou = PartitionOfUnity(cover)
    box = net.working_box
    sums = np.zeros(0)
    while sums.size < 200:
        # as many draws as points still wanted: the stream of one draw per point
        part = pou.evaluate(box.lo + rng.random((200 - sums.size, mu.n)) * (box.hi - box.lo))
        in_cube = part.covered & (part.hole_net < 0)
        s = np.bincount(part.point, weights=part.phi, minlength=in_cube.size)
        sums = np.concatenate([sums, s[in_cube]])
    worst = float(np.max(np.abs(sums - 1.0)))
    rep.check(f"{tag}_partition_sum", worst <= 1e-12, worst)

    lacs = partition_lacunae(cover)
    covered = sorted(i for l in lacs for i in l.ids)
    rep.check(f"{tag}_lacunae_partition", covered == list(range(cover.size)), float(len(lacs)))
    contact_graph(lacs, cover)

    dec = build_extension(f, mu, cover)
    const = np.full(mu.m, 2.5)
    dec_c = build_extension(const, mu, cover)
    ok_const = bool(
        np.allclose(dec_c.tilde, 2.5, atol=1e-12) and np.allclose(dec_c.f2, 0.0, atol=1e-12)
    )
    rep.check(f"{tag}_constant_maps_to_constant", ok_const)
    upper = estimate_sobolev_seminorm(dec) + mu_norm_f2(dec)
    rep.check(f"{tag}_upper_estimate_finite", np.isfinite(upper), upper)

    ref = build_reference_family(mu, net, cover, lacs, prm)
    val = eval_family_functional(
        ref.assignment, Variant.CR, mu, f, p, gamma=ref.gamma_needed * (1 + 1e-9)
    )
    rep.check(f"{tag}_reference_family_value", np.isfinite(val), val)

    if mu.n == 1 and mu.m >= 1:
        prob = OracleProblem.from_measure(mu, f, p)
        oracle, _ = sigma_norm_exact(prob)
        rep.check(f"{tag}_oracle_le_upper", oracle <= upper + 1e-9, oracle)
        lo, _ = search_lower_bound(mu, f, p, budget=25, seed=inst.seed)
        rep.check(
            f"{tag}_lower_vs_oracle",
            lo ** (1.0 / p) <= 1e3 * max(oracle, 1e-300) or oracle == 0.0,
            lo ** (1.0 / p),
        )
        t = 1.0
        route = t * sigma_norm_exact(OracleProblem.from_measure(mu.scaled(t**-p), f, p))[0]
        rep.check(
            f"{tag}_k_route_equivalence",
            abs(k_exact(prob, t) - route) <= 1e-7 * max(route, 1e-12),
            route,
        )


def run_selftest(seed: int = 0) -> tuple[int, str]:
    """Run every suite; returns (exit code, report text)."""
    rep = _Report()
    rng = np.random.default_rng(seed)
    _geometry_checks(rep, rng)
    inst1 = random_instance(seed + 11, 1, 8, (2.0,), constant_share=0.0)
    _pipeline_checks(rep, inst1, "d1", rng)
    inst2 = random_instance(seed + 23, 2, 5, (2.5,), constant_share=0.0)
    _pipeline_checks(rep, inst2, "d2", rng)
    return (0 if rep.failures == 0 else 2), rep.text()
