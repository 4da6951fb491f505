"""Acceptance criteria, one test per criterion, each printing a verdict line.

The random suites are generated once; every instance is pushed through the
full pipeline a single time and all per-criterion facts are collected, so
pipeline cost is shared across criteria.  Pinned constants live at the top.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from sumspace.concentration import Params, build_net, concentration_radius_batch
from sumspace.decompose import build_extension, estimate_sobolev_seminorm, eval_f1, mu_norm_f2
from sumspace.functional import (
    Variant,
    build_reference_family,
    eval_family_functional,
    k_curve,
    search_lower_bound,
)
from sumspace.geometry import Cube, CubeFamily, color_disjoint, cubes_intersect, select_min_disjoint
from sumspace.instances import suite_1d, suite_2d
from sumspace.lacunae import partition_lacunae
from sumspace.measure import AtomicMeasure
from sumspace.oracle1d import OracleProblem, k_exact, sigma_norm_exact
from sumspace.whitney import PartitionOfUnity, assign_anchors, build_whitney

REL_SLACK = 1e-9

# pinned empirical regression bounds (observed maxima with headroom);
# the structural requirements C1*C2 <= 1e4, C_nec <= 1e3 are asserted as well
PIN_C1 = 60.0
PIN_C2 = 60.0
PIN_C_NEC = 150.0
PIN_SLOPE = 0.1

N_1D = 200
N_2D = 50
N_RATIO = 600  # superset of the 1d suite used for the ratio statistics
COVERING_SAMPLES = 1000
PARTITION_SAMPLES = 1000


def _verdict(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


class RatioFacts:
    """Oracle, decomposition cost and family value for one 1d instance."""

    def __init__(self, inst):
        mu, f, p = inst.mu, inst.f, inst.p
        prm = Params(p=p)
        net = build_net(mu, prm)
        cover = assign_anchors(build_whitney(net))
        pou = PartitionOfUnity(cover)
        lacs = partition_lacunae(cover)
        dec = build_extension(f, mu, cover)
        self.m = mu.m
        self.p = p
        self.seed = inst.seed
        self.oracle = sigma_norm_exact(OracleProblem.from_measure(mu, f, p))[0]
        self.upper = estimate_sobolev_seminorm(dec) + mu_norm_f2(dec)
        ref = build_reference_family(mu, net, cover, lacs, prm)
        self.lower_p = eval_family_functional(
            ref.assignment, Variant.CR, mu, f, p, gamma=ref.gamma_needed * (1 + 1e-9)
        )
        collected = []
        search_lower_bound(
            mu, f, p, Variant.CR, budget=25, seed=inst.seed, net=net,
            reference=ref, collect=collected,
        )
        self.family_values = [v for _, v in collected]


class InstanceFacts:
    """Per-instance measurements consumed by the criterion tests."""

    def __init__(self, inst, n_probe_linearity):
        mu, f, p = inst.mu, inst.f, inst.p
        self.n = mu.n
        self.m = mu.m
        self.p = p
        self.seed = inst.seed
        rng = np.random.default_rng(inst.seed + 77)

        t0 = time.perf_counter()
        prm = Params(p=p)
        net = build_net(mu, prm)
        cover = assign_anchors(build_whitney(net))

        # criterion 1: net cube mass bounds, Whitney mass and geometry, separation
        d = 2.0 * net.radii
        masses = mu.mass_many(net.points, net.radii)
        lo = 2.0 ** (p - mu.n) * d ** (mu.n - p)
        hi = 2.0 ** (15.0 * p) * d ** (mu.n - p)
        self.ok_pr5k = bool(
            np.all(masses >= lo * (1 - REL_SLACK)) and np.all(masses <= hi * (1 + REL_SLACK))
        )
        m5 = mu.mass_many(net.points, 5.0 * net.radii)
        self.ok_5k = bool(np.all(m5 <= 2.0 ** (14.0 * p) * masses * (1 + REL_SLACK)))
        wm = mu.mass_many(cover.centers, cover.halves)
        wq_bound = 84.0**p * cover.halves ** (mu.n - p)
        self.ok_wqm = bool(np.all(wm <= wq_bound * (1 + REL_SLACK)))
        gaps = np.abs(cover.centers[:, None, :] - net.points[None, :, :]) - cover.halves[
            :, None, None
        ]
        np.maximum(gaps, 0.0, out=gaps)
        dist_net = np.min(np.max(gaps, axis=2), axis=1)
        diam = 2.0 * cover.halves
        self.ok_dqe = bool(
            np.all(diam <= dist_net * (1 + REL_SLACK))
            and np.all(dist_net <= 4.0 * diam * (1 + REL_SLACK))
        )
        ok_drs = True
        for i in range(net.size):
            for k in range(i + 1, net.size):
                gap = np.max(np.abs(net.points[i] - net.points[k]))
                if 6.0 * (net.radii[i] + net.radii[k]) > gap * (1 + REL_SLACK):
                    ok_drs = False
        self.ok_drs = ok_drs
        self.build_seconds = time.perf_counter() - t0

        # criterion 2: covering bound at sampled points
        box = net.working_box
        X = box.lo + rng.random((COVERING_SAMPLES, mu.n)) * (box.hi - box.lo)
        RX = concentration_radius_batch(mu, p, X)
        lhs = np.min(
            np.max(np.abs(X[:, None, :] - net.points[None, :, :]), axis=2) + net.radii[None, :],
            axis=1,
        )
        self.delta_grid = net.delta_grid
        self.covering_ratio = float(np.max(lhs / (83.0 * (1 + net.delta_grid) * RX)))

        # criterion 4: partition sums and finite differences at covered samples
        pou = PartitionOfUnity(cover)
        P = PARTITION_SAMPLES
        pts = box.lo + rng.random((4 * P, mu.n)) * (box.hi - box.lo)
        keep = []
        for s in range(0, len(pts), 500):
            blk = pts[s : s + 500]
            inside = np.all(
                np.abs(blk[:, None, :] - cover.centers[None, :, :])
                <= cover.halves[None, :, None],
                axis=2,
            )
            keep.append(inside.any(axis=1))
        keep = np.concatenate(keep)
        X4 = pts[keep][:P]
        self.partition_points = len(X4)
        part = pou.evaluate(X4)
        per_point = lambda v: np.bincount(part.point, weights=v, minlength=len(X4))
        local = np.full(len(X4), np.inf)
        np.minimum.at(local, part.point, 2 * cover.halves[part.cube])
        sum_err = float(np.max(np.abs(per_point(part.phi) - 1.0), initial=0.0))
        gsum = np.stack([per_point(part.grad[:, ax]) for ax in range(mu.n)], axis=1)
        grad_err = float(np.max(np.abs(gsum) * local[:, None], initial=0.0))
        fd_ok = True
        keys = part.point * cover.size + part.cube
        step = 1e-6 * local
        for ax in range(mu.n):
            shift = np.zeros_like(X4)
            shift[:, ax] = step
            fd = 0.0
            for sign in (1.0, -1.0):
                moved = pou.evaluate(X4 + sign * shift)
                # phi at the moved point of every cube whose Q* holds the point
                phi = dict(zip((moved.point * cover.size + moved.cube).tolist(), moved.phi.tolist()))
                fd = fd + sign * np.array([phi.get(key, 0.0) for key in keys.tolist()])
            fd = fd / (2 * step[part.point])
            an = part.grad[:, ax]
            scale = np.maximum(np.abs(an), 1e-2 / local[part.point])
            if np.any(np.abs(fd - an) > 1e-5 * scale):
                fd_ok = False
        self.partition_sum_err = sum_err
        self.partition_grad_err = grad_err
        self.partition_fd_ok = fd_ok

        # criterion 9: lacunae
        lacs = partition_lacunae(cover)
        ids_all = sorted(i for l in lacs for i in l.ids)
        self.ok_lac_partition = ids_all == list(range(cover.size))
        ok_v = True
        ok_elem = True
        for lac in lacs:
            for i in lac.ids:
                c, h = cover.centers[i], cover.halves[i]
                s90 = frozenset(
                    np.nonzero(np.all(np.abs(net.points - c) <= 90 * h, axis=1))[0].tolist()
                )
                if s90 != frozenset(lac.V):
                    ok_v = False
            if lac.kind == "elementary":
                (i,) = lac.ids
                pts_v = net.points[list(lac.V)]
                dv = 0.0
                for a in range(len(pts_v)):
                    for b2 in range(a + 1, len(pts_v)):
                        dv = max(dv, float(np.max(np.abs(pts_v[a] - pts_v[b2]))))
                if dv < cover.halves[i] * (1 - REL_SLACK):
                    ok_elem = False
        self.ok_lac_v = ok_v
        self.ok_lac_elem = ok_elem

        # criterion 3: linearity, identity, constants
        g_vals = np.asarray(np.random.default_rng(inst.seed + 5).normal(size=mu.m))
        a_c, b_c = 1.3, -0.7
        dec_f = build_extension(f, mu, cover)
        dec_g = build_extension(g_vals, mu, cover)
        dec_c = build_extension(a_c * f + b_c * g_vals, mu, cover)
        dec_1 = build_extension(np.ones(mu.m), mu, cover)
        probes = box.lo + rng.random((n_probe_linearity, mu.n)) * (box.hi - box.lo)
        probes = np.concatenate([probes, net.points], axis=0)
        lin_err = float(
            np.max(np.abs(dec_c.tilde - (a_c * dec_f.tilde + b_c * dec_g.tilde)))
        )
        const_err = float(
            max(np.max(np.abs(dec_1.tilde - 1.0)), np.max(np.abs(dec_1.f2)))
        )
        vf, vg, vc = (eval_f1(d, probes)[0] for d in (dec_f, dec_g, dec_c))
        v1, g1 = eval_f1(dec_1, probes)
        lin_err = max(lin_err, float(np.max(np.abs(vc - (a_c * vf + b_c * vg)))))
        const_err = max(const_err, float(np.max(np.abs(v1 - 1.0))), float(np.max(np.abs(g1))))
        scale = max(1.0, float(np.max(np.abs(f))), float(np.max(np.abs(g_vals))))
        self.linearity_err = lin_err / scale
        self.const_err = const_err
        self.identity_exact = bool(np.array_equal(dec_f.f2, f - dec_f.f1_at_atoms))

@pytest.fixture(scope="module")
def suite():
    facts_1d = [InstanceFacts(inst, 5) for inst in suite_1d(N_1D)]
    facts_2d = [InstanceFacts(inst, 20) for inst in suite_2d(N_2D)]
    return facts_1d, facts_2d


@pytest.fixture(scope="module")
def ratio_suite():
    return [RatioFacts(inst) for inst in suite_1d(N_RATIO)]


def test_criterion_1_exact_constant_suite(suite):
    facts_1d, facts_2d = suite
    allf = facts_1d + facts_2d
    bad = [
        f.seed
        for f in allf
        if not (f.ok_pr5k and f.ok_5k and f.ok_wqm and f.ok_dqe and f.ok_drs)
    ]
    total_build = sum(f.build_seconds for f in allf)
    ok = not bad and total_build < 120.0
    _verdict(
        1,
        "net/Whitney mass and geometry bounds on the full suite",
        ok,
        f"instances={len(allf)} violations={len(bad)} build_time={total_build:.1f}s",
    )


def test_criterion_2_net_covering(suite):
    facts_1d, facts_2d = suite
    allf = facts_1d + facts_2d
    worst = max(f.covering_ratio for f in allf)
    deltas = max(f.delta_grid for f in allf)
    ok = worst <= 1.0 + 1e-12 and deltas <= 0.25
    _verdict(
        2,
        "net covering bound 83*(1+delta) at 1000 samples per instance",
        ok,
        f"worst_ratio={worst:.4f} delta_grid={deltas:.4f}",
    )


def test_criterion_3_linearity_identity(suite):
    facts_1d, facts_2d = suite
    allf = facts_1d + facts_2d
    lin = max(f.linearity_err for f in allf)
    const = max(f.const_err for f in allf)
    identity = all(f.identity_exact for f in allf)
    ok = lin <= 1e-10 and const <= 1e-12 and identity
    _verdict(
        3,
        "decomposition linearity, identity at atoms, constants",
        ok,
        f"linearity_err={lin:.2e} const_err={const:.2e}",
    )


def test_criterion_4_partition_of_unity(suite):
    facts_1d, facts_2d = suite
    allf = facts_1d + facts_2d
    sum_err = max(f.partition_sum_err for f in allf)
    grad_err = max(f.partition_grad_err for f in allf)
    fd_ok = all(f.partition_fd_ok for f in allf)
    pts = min(f.partition_points for f in allf)
    ok = sum_err <= 1e-12 and grad_err <= 1e-9 and fd_ok and pts >= PARTITION_SAMPLES // 2
    _verdict(
        4,
        "partition sums to one, gradients cancel, analytic grad matches FD",
        ok,
        f"sum_err={sum_err:.2e} grad_err={grad_err:.2e} min_points={pts}",
    )


def _bin_slope(ms, ratios, stat):
    """Slope of log(per-m statistic of the ratio) against log m."""
    ms = np.asarray(ms, dtype=float)
    ratios = np.asarray(ratios, dtype=float)
    xs, ys = [], []
    for m in sorted(set(ms)):
        sel = ratios[ms == m]
        if sel.size >= 3 and m >= 2:
            xs.append(np.log(m))
            ys.append(np.log(max(stat(sel), 1e-12)))
    return float(np.polyfit(xs, ys, 1)[0])


def test_criterion_5_two_sided_equivalence(ratio_suite):
    c1s, c2s, ms = [], [], []
    anchor_ok = True
    for f in ratio_suite:
        o = f.oracle
        u = f.upper
        l_val = f.lower_p ** (1.0 / f.p)
        if not (o <= u * (1 + REL_SLACK) + 1e-12):
            anchor_ok = False
        if o > 1e-9:
            c1s.append(l_val / o)
            c2s.append(u / o)
            ms.append(f.m)
    C1, C2 = max(c1s), max(c2s)
    # stability under m-doubling: trend of the per-m maxima and upper decile
    s1_max = _bin_slope(ms, c1s, np.max)
    s2_max = _bin_slope(ms, c2s, np.max)
    s1_q90 = _bin_slope(ms, c1s, lambda v: np.quantile(v, 0.9))
    s2_q90 = _bin_slope(ms, c2s, lambda v: np.quantile(v, 0.9))
    ok = (
        anchor_ok
        and np.isfinite(C1)
        and np.isfinite(C2)
        and C1 * C2 <= 1e4
        and C1 <= PIN_C1
        and C2 <= PIN_C2
        and max(s1_max, s1_q90) <= PIN_SLOPE
        and max(s2_max, s2_q90) <= PIN_SLOPE
    )
    _verdict(
        5,
        "two-sided norm equivalence against the exact oracle",
        ok,
        f"C1={C1:.2f} C2={C2:.2f} C1*C2={C1*C2:.0f} "
        f"slopes max=({s1_max:.3f},{s2_max:.3f}) q90=({s1_q90:.3f},{s2_q90:.3f})",
    )


def test_criterion_6_necessity_bound(ratio_suite):
    worst = 0.0
    ok = True
    for f in ratio_suite:
        o = f.oracle
        for val in f.family_values:
            v = val ** (1.0 / f.p)
            if o <= 1e-12:
                if v > 1e-9:
                    ok = False
            else:
                worst = max(worst, v / o)
    ok = ok and worst <= PIN_C_NEC and PIN_C_NEC <= 1e3
    _verdict(
        6,
        "every admissible family value is dominated by the oracle norm",
        ok,
        f"C_nec={worst:.3f} (pinned {PIN_C_NEC})",
    )


def test_criterion_7_k_curve():
    mu = AtomicMeasure([[0.0], [1.0]], [1.0, 1.0])
    f = [0.0, 1.0]
    sqrt2_2 = np.sqrt(2.0) / 2.0
    closed_ok = True
    for t in (0.1, 0.3, sqrt2_2, 5.0):
        k = k_exact(OracleProblem.from_measure(mu, f, 2.0), t)
        if abs(k - min(t, sqrt2_2)) > 1e-6:
            closed_ok = False

    rng = np.random.default_rng(40)
    prob = OracleProblem(
        np.sort(rng.uniform(-2, 2, 6)), rng.uniform(0.5, 2, 6), rng.normal(size=6), 2.0
    )
    ts = np.geomspace(1e-3, 1e3, 13)
    ks = np.array([k_exact(prob, t) for t in ts])
    mono_ok = bool(np.all(np.diff(ks) >= -1e-9))
    concave_ok = True
    for i in range(len(ts) - 1):
        tm = np.sqrt(ts[i] * ts[i + 1])
        km = k_exact(prob, tm)
        chord = ks[i] + (ks[i + 1] - ks[i]) * (tm - ts[i]) / (ts[i + 1] - ts[i])
        if km < chord - 1e-9 * max(1.0, ks[i + 1]):
            concave_ok = False
    route_ok = True
    x, w, fv, p = prob.x, prob.w, prob.f, prob.p
    for t in np.geomspace(1e-3, 1e3, 7):
        lhs = k_exact(prob, t)
        rhs = t * sigma_norm_exact(OracleProblem(x, w / t**p, fv, p))[0]
        if abs(lhs - rhs) > 1e-7 * max(rhs, 1e-12):
            route_ok = False

    pts = k_curve(mu, f, 2.0, t_grid=[0.1, 0.3, 1.0, 10.0], budget=25, seed=0)
    bracket_ok = all(
        pt.oracle <= pt.upper * (1 + REL_SLACK)
        and pt.upper <= PIN_C2 * pt.oracle
        and pt.lower <= PIN_C_NEC * pt.oracle
        for pt in pts
    )
    ok = closed_ok and mono_ok and concave_ok and route_ok and bracket_ok
    _verdict(
        7,
        "K-curve closed form, monotone concave oracle, route equivalence",
        ok,
        f"closed={closed_ok} mono={mono_ok} concave={concave_ok} route={route_ok}",
    )


def test_criterion_8_combinatorics():
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    ok_sel = True
    for _ in range(1000):
        n = int(rng.integers(1, 3))
        k = int(rng.integers(1, 14))
        fam = CubeFamily(
            [Cube(rng.uniform(-10, 10, n), float(rng.uniform(0.05, 3))) for _ in range(k)]
        )
        sel = select_min_disjoint(fam)
        if not sel.pairwise_disjoint():
            ok_sel = False
        for q in fam:
            if not any(
                cubes_intersect(q, s) and s.half_side <= q.half_side * (1 + 1e-12)
                for s in sel
            ):
                ok_sel = False
    ok_col = True
    for _ in range(1000):
        n = int(rng.integers(1, 3))
        k = int(rng.integers(1, 12))
        fam = CubeFamily(
            [Cube(rng.uniform(-8, 8, n), float(rng.uniform(0.1, 2))) for _ in range(k)]
        )
        # the degree bound from the dense all-pairs closed-cube test
        c, h = fam.centers, fam.halves
        inter = np.all(np.abs(c[:, None, :] - c[None, :, :]) <= (h[:, None] + h[None, :])[..., None], axis=2)
        np.fill_diagonal(inter, False)
        deg = int(inter.sum(axis=1).max()) if k else 0
        classes = color_disjoint(fam, deg)
        if len(classes) > deg + 1 or not all(c.pairwise_disjoint() for c in classes):
            ok_col = False
    dt = time.perf_counter() - t0
    ok = ok_sel and ok_col and dt < 10.0
    _verdict(8, "greedy selection and coloring on 1000 random families each", ok, f"{dt:.1f}s")


def test_criterion_9_lacunae(suite):
    facts_1d, facts_2d = suite
    allf = facts_1d + facts_2d
    ok = all(f.ok_lac_partition and f.ok_lac_v and f.ok_lac_elem for f in allf)
    _verdict(9, "lacuna partition, slice identity, elementary slice spread", ok)


def test_criterion_10_determinism(tmp_path, cli_env):
    cmd = [sys.executable, "-m", "sumspace", "selftest", "--seed", "7"]
    r1 = subprocess.run(cmd, capture_output=True, cwd=tmp_path, env=cli_env)
    r2 = subprocess.run(cmd, capture_output=True, cwd=tmp_path, env=cli_env)
    ok = r1.returncode == 0 and r1.stdout == r2.stdout and len(r1.stdout) > 0
    detail = ""
    if not ok:
        stderr = r1.stderr.decode().strip().splitlines()
        detail = f"exit {r1.returncode}: {stderr[-1] if stderr else 'no stderr'}"
    _verdict(10, "selftest --seed 7 reproduces byte-identical output", ok, detail)
