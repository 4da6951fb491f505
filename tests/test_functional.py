import dataclasses
import itertools
import logging
import math
import re
import tracemalloc

import numpy as np
import pytest

from sumspace.concentration import Params, build_net
from sumspace.functional import (
    FamilyAssignment,
    FamilyValidationError,
    KCurvePoint,
    ReferenceFamily,
    Variant,
    WeightedPair,
    _SearchContext,
    _shrink_to_disjoint,
    _Valuation,
    admissible_sums,
    build_pipeline,
    build_reference_family,
    default_t_grid,
    eval_family_functional,
    eval_weighted_pairs,
    k_curve,
    search_lower_bound,
    upper_estimate,
    validate_family,
)
from sumspace.geometry import Cube, CubeFamily, cube_contains
from sumspace.instances import heavy_grid, suite_1d, suite_2d
from sumspace.lacunae import partition_lacunae
from sumspace.measure import AtomicMeasure
from sumspace.oracle1d import OracleProblem, k_exact, sigma_norm_exact
from sumspace.whitney import DepthLimitError, assign_anchors, build_whitney


def two_atom():
    return AtomicMeasure([[0.0], [1.0]], [1.0, 1.0])


def single_cube_family(c, r):
    return FamilyAssignment(CubeFamily([Cube(c, r)]), [0], [0])


# hand arithmetic for the worked example:
#   diam Q = 1.2, oscillation D = 2 (two ordered unit-weight pairs, |0-1|^2),
#   weight = 1.2^-1 / (1.2^-1 + 2)^2
WORKED_CR_VALUE = (1 / 1.2) * 2.0 / ((1 / 1.2 + 2.0) ** 2)


def test_cr_worked_example():
    mu = two_atom()
    fa = single_cube_family([0.5], 0.6)
    val = eval_family_functional(fa, Variant.CR, mu, [0.0, 1.0], 2.0)
    assert val == pytest.approx(WORKED_CR_VALUE, rel=1e-12)
    assert val == pytest.approx(0.2076124567, abs=1e-9)


def test_constant_function_zero_for_every_variant():
    # light atoms keep the family admissible for the mass-conditioned variants
    mu = AtomicMeasure([[0.0], [1.0]], [0.1, 0.1])
    fa = single_cube_family([0.5], 0.6)
    for variant in Variant:
        assert eval_family_functional(fa, variant, mu, [3.0, 3.0], 2.0) == 0.0


def test_value_scales_like_pth_power():
    mu = two_atom()
    fa = single_cube_family([0.5], 0.6)
    p = 2.0
    base = eval_family_functional(fa, Variant.CR, mu, [0.0, 1.0], p)
    scaled = eval_family_functional(fa, Variant.CR, mu, [0.0, 3.0], p)
    assert scaled == pytest.approx(3.0**p * base, rel=1e-12)


def test_translation_invariance():
    mu = two_atom()
    fa = single_cube_family([0.5], 0.6)
    shift = 17.25
    mu2 = AtomicMeasure(mu.positions + shift, mu.weights)
    fa2 = single_cube_family([0.5 + shift], 0.6)
    for variant in (Variant.CR, Variant.VTH3):
        v1 = eval_family_functional(fa, variant, mu, [0.0, 1.0], 2.0)
        v2 = eval_family_functional(fa2, variant, mu2, [0.0, 1.0], 2.0)
        assert v2 == pytest.approx(v1, rel=1e-12)


def test_dilation_transforms_by_diam_powers():
    # scale all geometry by c, keep weights and values: recompute vs formula
    mu = two_atom()
    f = [0.0, 1.0]
    p, n, c = 2.0, 1, 3.0
    mu2 = AtomicMeasure(mu.positions * c, mu.weights)
    q, qp, qd = Cube([0.5], 0.6), Cube([0.5], 0.6), Cube([0.5], 0.6)
    direct = eval_family_functional(single_cube_family([0.5 * c], 0.6 * c), Variant.CR, mu2, f, p)
    D = 2.0
    dq = q.diam * c
    predicted = dq ** (n - p) * D / ((dq ** (n - p) + 2.0) ** 2)
    assert direct == pytest.approx(predicted, rel=1e-12)


def test_zero_mass_terms_vanish_or_reject():
    mu = two_atom()
    fam = CubeFamily([Cube([0.5], 0.6), Cube([10.0], 0.3)])
    fa = FamilyAssignment(fam, [0, 1], [0, 1])
    v = eval_family_functional(fa, Variant.CR, mu, [0.0, 1.0], 2.0)
    assert v == pytest.approx(WORKED_CR_VALUE, rel=1e-12)
    with pytest.raises(FamilyValidationError, match="zero mass"):
        eval_family_functional(fa, Variant.VTH3, mu, [0.0, 1.0], 2.0)


def test_disjointness_validation():
    fam = CubeFamily([Cube([0.0], 1.0), Cube([1.0], 1.0)])
    fa = FamilyAssignment(fam, [0, 1], [0, 1])
    with pytest.raises(FamilyValidationError, match="disjoint"):
        validate_family(fa, Variant.CR, two_atom(), 2.0, gamma=100.0)


def test_gamma_containment_validation():
    fam = CubeFamily([Cube([0.0], 0.1)])
    fa = FamilyAssignment(fam, [0], [0], pool=CubeFamily([Cube([50.0], 0.1)]))
    with pytest.raises(FamilyValidationError, match="gamma"):
        validate_family(fa, Variant.CR, two_atom(), 2.0, gamma=10.0)


def test_unit_mass_sum_condition():
    mu = AtomicMeasure([[0.0], [1.0]], [50.0, 50.0])
    fa = single_cube_family([0.5], 0.6)
    with pytest.raises(FamilyValidationError, match="mass-sum"):
        eval_family_functional(fa, Variant.V1, mu, [0.0, 1.0], 2.0)
    # the relaxed mode accepts what the unit-sum mode rejects, up to its cap
    validate_family(fa, Variant.V1, mu, 2.0, gamma=100.0, mass_mode="mass_bound")


def test_variant_term_comparisons():
    # under the unit mass-sum condition:
    #   V1 = CR * (1 + a)(1 + b) <= 4 CR,  V4 <= (5/4) VTH3,  CR <= VTH3
    rng = np.random.default_rng(0)
    p = 2.0
    for _ in range(50):
        m = int(rng.integers(2, 6))
        pos = np.sort(rng.uniform(0, 1, size=m))[:, None]
        mu = AtomicMeasure(pos, rng.uniform(0.05, 0.45, size=m) / m)
        f = rng.normal(size=m)
        fa = single_cube_family([0.5], float(rng.uniform(0.55, 0.9)))
        qp = fa.pool_cubes[0]
        s = qp.diam ** (p - 1) * mu.mass(qp) * 2.0
        if s > 1.0:
            continue
        cr = eval_family_functional(fa, Variant.CR, mu, f, p)
        v1 = eval_family_functional(fa, Variant.V1, mu, f, p)
        v4 = eval_family_functional(fa, Variant.V4, mu, f, p)
        if mu.mass(qp) > 0:
            vt = eval_family_functional(fa, Variant.VTH3, mu, f, p)
            assert v4 <= 1.25 * vt * (1 + 1e-12)
            assert cr <= vt * (1 + 1e-12)
        assert v1 <= 4.0 * cr * (1 + 1e-12)


def test_n11_matches_vth3_formula():
    mu = two_atom()
    fa = single_cube_family([0.5], 0.6)
    f = [0.0, 1.0]
    assert eval_family_functional(fa, Variant.N11, mu, f, 2.0) == pytest.approx(
        eval_family_functional(fa, Variant.VTH3, mu, f, 2.0), rel=1e-15
    )


def test_search_dominates_worked_example():
    mu = two_atom()
    f = [0.0, 1.0]
    val, fa = search_lower_bound(mu, f, 2.0, Variant.CR, budget=30, seed=0)
    assert val >= WORKED_CR_VALUE - 1e-12
    assert fa is not None


def test_search_monotone_in_budget_and_deterministic():
    mu = AtomicMeasure([[0.0], [0.4], [1.0]], [1.0, 2.0, 1.0])
    f = [0.0, 1.0, -0.5]
    vals = [search_lower_bound(mu, f, 2.0, budget=b, seed=3)[0] for b in (5, 20, 60)]
    assert vals[0] <= vals[1] <= vals[2]
    again = search_lower_bound(mu, f, 2.0, budget=60, seed=3)[0]
    assert again == vals[2]
    assert search_lower_bound(mu, [1.0, 1.0, 1.0], 2.0, budget=30, seed=0)[0] == 0.0


def test_reference_family_two_atoms():
    mu = two_atom()
    p = 2.0
    prm = Params(p=p)
    net, cover, pou, lacs = build_pipeline(mu, prm)
    ref = build_reference_family(mu, net, cover, lacs, prm)
    fa = ref.assignment
    assert fa.family.pairwise_disjoint()
    # containment at the recorded dilation passes exactly
    validate_family(fa, Variant.CR, mu, p, gamma=ref.gamma_needed * (1 + 1e-9))
    f = [0.0, 1.0]
    val = eval_family_functional(
        fa, Variant.CR, mu, f, p, gamma=ref.gamma_needed * (1 + 1e-9)
    )
    oracle, _ = sigma_norm_exact(OracleProblem.from_measure(mu, f, p))
    assert val ** (1 / p) <= 100 * oracle
    # constant functions annihilate every emitted term
    assert eval_family_functional(
        fa, Variant.CR, mu, [2.0, 2.0], p, gamma=ref.gamma_needed * (1 + 1e-9)
    ) == 0.0
    ref2_val = eval_weighted_pairs(ref, mu, f, p)
    assert ref2_val >= 0.0
    assert eval_weighted_pairs(ref, mu, [5.0, 5.0], p) == 0.0


def test_reference_family_random_instances():
    rng = np.random.default_rng(21)
    for seed in range(4):
        r = np.random.default_rng(seed)
        m = int(r.integers(2, 9))
        mu = AtomicMeasure(
            np.sort(r.uniform(-5, 5, size=m))[:, None], r.uniform(0.3, 3.0, size=m)
        )
        p = float(r.choice([1.5, 2.0, 3.0]))
        prm = Params(p=p)
        net, cover, pou, lacs = build_pipeline(mu, prm)
        ref = build_reference_family(mu, net, cover, lacs, prm)
        assert ref.assignment.family.pairwise_disjoint()
        validate_family(
            ref.assignment, Variant.CR, mu, p, gamma=ref.gamma_needed * (1 + 1e-9)
        )
        assert ref.pool_multiplicity <= 8
        f = r.normal(size=m)
        val = eval_family_functional(
            ref.assignment, Variant.CR, mu, f, p, gamma=ref.gamma_needed * (1 + 1e-9)
        )
        assert np.isfinite(val) and val >= 0.0


def test_k_curve_two_atom_closed_form():
    mu = two_atom()
    f = [0.0, 1.0]
    pts = k_curve(mu, f, 2.0, t_grid=[0.3, 10.0], budget=25, seed=0)
    k_closed = [min(0.3, math.sqrt(2) / 2), min(10.0, math.sqrt(2) / 2)]
    for pt, kc in zip(pts, k_closed):
        assert pt.oracle == pytest.approx(kc, abs=1e-6)
        assert pt.lower <= pt.upper * 50
        assert pt.oracle <= pt.upper * (1 + 1e-9)


def test_k_curve_monotone_concave_oracle():
    mu = AtomicMeasure([[0.0], [0.5], [2.0]], [1.0, 1.0, 2.0])
    f = [0.0, 1.0, 0.5]
    ts = np.geomspace(0.05, 20.0, 7)
    pts = k_curve(mu, f, 2.0, t_grid=ts, budget=10, seed=0)
    ks = np.array([pt.oracle for pt in pts])
    assert np.all(np.diff(ks) >= -1e-9)
    for pt in pts:
        assert pt.lower >= 0 and pt.upper >= 0


def test_weighted_pairs_track_oracle_two_sided():
    # the linear-combination form brackets the exact norm within a fixed band
    rng = np.random.default_rng(31)
    lo_band, hi_band = 0.5, 30.0
    checked = 0
    for seed in range(40, 58):
        r = np.random.default_rng(seed)
        m = int(r.integers(2, 10))
        mu = AtomicMeasure(
            np.sort(r.uniform(-20, 20, size=m))[:, None], r.uniform(0.3, 3.0, size=m)
        )
        f = r.normal(size=m)
        p = float(r.choice([1.5, 2.0, 3.0]))
        prm = Params(p=p)
        net, cover, pou, lacs = build_pipeline(mu, prm)
        ref = build_reference_family(mu, net, cover, lacs, prm)
        oracle, _ = sigma_norm_exact(OracleProblem.from_measure(mu, f, p))
        if oracle <= 1e-9:
            continue
        val = eval_weighted_pairs(ref, mu, f, p) ** (1.0 / p)
        assert lo_band * oracle <= val <= hi_band * oracle
        checked += 1
    assert checked >= 10


def test_k_curve_2d_has_no_oracle_column():
    rng = np.random.default_rng(12)
    mu = AtomicMeasure(rng.uniform(-1, 1, size=(3, 2)), rng.uniform(0.5, 2.0, size=3))
    f = rng.normal(size=3)
    pts = k_curve(mu, f, 2.5, t_grid=[0.5, 2.0], budget=8, seed=0)
    assert len(pts) == 2
    for pt in pts:
        assert pt.oracle is None
        assert np.isfinite(pt.lower) and np.isfinite(pt.upper)
        assert pt.lower >= 0 and pt.upper >= 0


def test_k_curve_boundary_sample_a_rounding_outside_a_hole():
    # a boundary sample of the working box lies 2.2e-16 beyond the face the
    # box shares with its only hole; it raised "neither covered, outside, nor in a hole"
    inst = suite_2d(1)[0]
    (pt,) = k_curve(inst.mu, inst.f, inst.p, t_grid=[7.196856730011514])
    assert pt.oracle is None
    assert np.isfinite(pt.lower) and np.isfinite(pt.upper)
    assert 0 <= pt.lower <= pt.upper


def test_k_curve_names_the_failing_scale():
    # the net points at t = 1e-6 are closer than 60 dyadic halvings of the box resolve
    mu = AtomicMeasure([[0.0, 0.0], [1.0, 1.0]], [1.0, 1.0])
    with pytest.raises(DepthLimitError) as info:
        k_curve(mu, [0.0, 1.0], 3.0, t_grid=[1e-3, 1e-6])
    assert str(info.value) == "dyadic recursion not settled at depth 60"
    assert info.value.__notes__ == ["k_curve: t=1e-06, m=2, n=2"]


def test_default_t_grid_spans_knee():
    mu = two_atom()
    grid = default_t_grid(mu, np.array([0.0, 1.0]), 2.0)
    assert len(grid) == 32
    knee = math.sqrt(2) / 2
    assert grid[0] == pytest.approx(knee / 100, rel=1e-9)
    assert grid[-1] == pytest.approx(knee * 100, rel=1e-9)


def test_upper_estimate_positive():
    mu = two_atom()
    prm = Params(p=2.0)
    u = upper_estimate(mu, [0.0, 1.0], prm)
    oracle, _ = sigma_norm_exact(OracleProblem.from_measure(mu, [0.0, 1.0], 2.0))
    assert oracle <= u + 1e-9


# ---------------------------------------------------------------------------
# reference implementation: the object-per-cube reference family with its
# O(k^2) collision loop and dense pool probe, kept to pin the array version


def _cr_weight(n, p, dq, qp, qd, mp, md):
    return dq ** (n - p) / ((qp.diam ** (n - p) + mp) * (qd.diam ** (n - p) + md))


def _corner_half_cube(c, h, corner):
    """One of the 2^n half-cubes of Q(c, h), selected by corner index."""
    n = len(c)
    off = np.array([(1.0 if (corner >> d) & 1 else -1.0) for d in range(n)])
    return Cube(c + off * h / 2.0, h / 2.0)


def _dense_reference_family(mu, net, cover, lacunae, params):
    """``build_reference_family`` as one ``Cube`` object per member and pool cube."""
    p, n = params.p, mu.n
    eta = params.eta
    E, R = net.points, net.radii
    anchors = cover.anchors
    if anchors is None:
        raise ValueError("cover has no anchors")
    tilde_cube = [Cube(E[i], float(R[i])) for i in range(net.size)]

    # Whitney cubes clear of every shrunken net cube
    away = []
    for i in range(cover.size):
        gaps = np.max(
            np.maximum(np.abs(E - cover.centers[i]) - cover.halves[i], 0.0), axis=1
        )
        if np.all(gaps > eta * R / 2.0):
            away.append(i)

    members: list[tuple[Cube, Cube, Cube, str]] = []  # (Q, Q', Q'', tag)

    # group 1: planted cubes inside T_K = half of a corner half-cube
    for i in away:
        c, h = cover.centers[i], cover.halves[i]
        nbrs = [int(j) for j in cover.neighbors[i] if anchors[int(j)] != anchors[i]]
        if not nbrs:
            continue
        t_cube = _corner_half_cube(c, h, 0).scaled(0.5)
        m = len(nbrs)
        g = max(1, int(math.ceil(m ** (1.0 / n))))
        cells = []
        tc, th = t_cube.center, t_cube.half_side
        step = 2.0 * th / g
        if n == 1:
            for a in range(g):
                cells.append(Cube(np.array([tc[0] - th + (a + 0.5) * step]), step / 4.0))
        else:
            for a in range(g):
                for b in range(g):
                    cells.append(
                        Cube(
                            np.array(
                                [tc[0] - th + (a + 0.5) * step, tc[1] - th + (b + 0.5) * step]
                            ),
                            step / 4.0,
                        )
                    )
        for j, cell in zip(nbrs, cells):
            members.append((cell, tilde_cube[anchors[j]], tilde_cube[anchors[i]], "anchored"))

    # group 2: shifted half-cubes carrying cube-vs-anchored-cube oscillation
    for i in away:
        c, h = cover.centers[i], cover.halves[i]
        rep = _corner_half_cube(c, h, (1 << n) - 1).scaled(0.5)
        members.append((rep, cover.cube(i), tilde_cube[anchors[i]], "residual"))

    # group 3: net cubes paired with themselves
    for k in range(net.size):
        members.append((tilde_cube[k], tilde_cube[k], tilde_cube[k], "net"))

    # greedy collision resolution, net cubes first, then planted, then residual
    priority = {"net": 0, "anchored": 1, "residual": 2}
    members.sort(key=lambda t: priority[t[3]])
    kept: list[tuple[Cube, Cube, Cube, str]] = []
    kept_c = np.zeros((0, n))
    kept_h = np.zeros(0)
    dropped = 0
    for q, qp, qd, tag in members:
        if kept_h.size:
            clash = np.any(
                np.all(np.abs(q.center[None, :] - kept_c) <= (q.half_side + kept_h)[:, None], axis=1)
            )
        else:
            clash = False
        if clash:
            dropped += 1
        else:
            kept.append((q, qp, qd, tag))
            kept_c = np.concatenate([kept_c, q.center[None, :]], axis=0)
            kept_h = np.append(kept_h, q.half_side)

    fam = CubeFamily([t[0] for t in kept])
    pool_cubes: list[Cube] = []
    pool_index: dict[int, int] = {}

    def pool_id(q: Cube) -> int:
        key = id(q)
        if key not in pool_index:
            pool_index[key] = len(pool_cubes)
            pool_cubes.append(q)
        return pool_index[key]

    prime = [pool_id(t[1]) for t in kept]
    dprime = [pool_id(t[2]) for t in kept]
    pool = CubeFamily(pool_cubes)
    fa = FamilyAssignment(fam, prime, dprime, pool)

    gamma_needed = 1.0
    for k, (q, qp, qd, tag) in enumerate(kept):
        for qq in (qp, qd):
            need = float(np.max(np.abs(qq.center - q.center) + qq.half_side) / q.half_side)
            gamma_needed = max(gamma_needed, need)

    # covering multiplicity of the pool (sampled at cube corners and centers)
    mult = 1
    if len(pool_cubes) > 1:
        pc = np.array([q.center for q in pool_cubes])
        ph = np.array([q.half_side for q in pool_cubes])
        probes = np.concatenate([pc, pc + ph[:, None], pc - ph[:, None]], axis=0)
        inside = np.all(
            np.abs(probes[:, None, :] - pc[None, :, :]) <= ph[None, :, None], axis=2
        )
        mult = int(inside.sum(axis=1).max())

    # weighted set-pair list: anchored + net terms with the CR weight,
    # plus the lacuna terms (member union vs projected net cube, 1/mass)
    pairs: list[WeightedPair] = []
    for q, qp, qd, tag in kept:
        mp, md = _loop_mass(mu, qp), _loop_mass(mu, qd)
        lam = _cr_weight(n, p, q.diam, qp, qd, mp, md)
        pairs.append(WeightedPair(lam, [qp], [qd], tag))
    away_set = set(away)
    for lac in lacunae:
        k_cube = tilde_cube[lac.projection]
        mass = _loop_mass(mu, k_cube)
        member_cubes = [cover.cube(i) for i in lac.ids if i in away_set]
        if not member_cubes or mass <= 0:
            continue
        pairs.append(WeightedPair(1.0 / mass, member_cubes, [k_cube], "lacuna"))

    return ReferenceFamily(
        assignment=fa,
        pairs=pairs,
        cubes=None,  # G and H hold the cubes themselves
        gamma_needed=gamma_needed,
        pool_multiplicity=mult,
        dropped=dropped,
        meta={"members": len(kept), "per_tag": {t: sum(1 for k in kept if k[3] == t) for t in priority}},
    )


def _cube_bytes(cubes):
    return [(q.center.tobytes(), np.float64(q.half_side).tobytes()) for q in cubes]


def _assert_same_family(got, want):
    """Bit equality of every field of two reference families."""
    a, b = got.assignment, want.assignment
    assert _cube_bytes(a.family) == _cube_bytes(b.family)
    assert _cube_bytes(a.pool) == _cube_bytes(b.pool)
    assert a.prime == b.prime and a.dprime == b.dprime
    assert [type(i) for i in a.prime + a.dprime] == [type(i) for i in b.prime + b.dprime]
    assert len(got.pairs) == len(want.pairs)
    for x, y in zip(got.pairs, want.pairs):
        assert x.tag == y.tag and type(x.lam) is type(y.lam)
        assert np.float64(x.lam).tobytes() == np.float64(y.lam).tobytes()
        # the got side names its cubes by key
        for keys, cubes in ((x.G, y.G), (x.H, y.H)):
            assert _cube_bytes(got.cubes[k] for k in keys.tolist()) == _cube_bytes(cubes)
    assert np.float64(got.gamma_needed).tobytes() == np.float64(want.gamma_needed).tobytes()
    assert got.pool_multiplicity == want.pool_multiplicity
    assert got.dropped == want.dropped
    assert got.meta == want.meta


def _assert_family_matches_dense(mu, p):
    prm = Params(p=p)
    net, cover, _, lacs = build_pipeline(mu, prm)
    got = build_reference_family(mu, net, cover, lacs, prm)
    want = _dense_reference_family(mu, net, cover, partition_lacunae(cover), prm)
    _assert_same_family(got, want)
    return got


def test_reference_family_matches_dense_on_suites():
    for inst in suite_1d() + suite_2d():
        _assert_family_matches_dense(inst.mu, inst.p)


@pytest.mark.parametrize("n,p", [(1, 1.5), (1, 3.0), (2, 3.0)])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_reference_family_matches_dense_on_heavy_grids(k, n, p):
    ref = _assert_family_matches_dense(heavy_grid(k, n), p)
    assert ref.dropped > 0 and ref.pool_multiplicity > 1


def test_reference_family_logs_one_info_line(caplog):
    mu = heavy_grid(3, 2)
    prm = Params(p=3.0)
    net, cover, _, lacs = build_pipeline(mu, prm)
    with caplog.at_level(logging.INFO, logger="sumspace.functional"):
        ref = build_reference_family(mu, net, cover, lacs, prm)
    (record,) = [r for r in caplog.records if r.name == "sumspace.functional"]
    tags = ref.meta["per_tag"]
    assert record.getMessage() == (
        f"reference family: {tags['net']} net, {tags['anchored']} anchored, "
        f"{tags['residual']} residual members, {ref.dropped} dropped, "
        f"pool {len(ref.assignment.pool)}, multiplicity {ref.pool_multiplicity}, "
        f"gamma_needed {ref.gamma_needed:g}, {len(ref.pairs)} pairs"
    )
    caplog.clear()
    with caplog.at_level(logging.ERROR, logger="sumspace.functional"):
        build_reference_family(mu, net, cover, partition_lacunae(cover), prm)
    assert not caplog.records


def test_geometry_memory_scales_with_cubes():
    # the all-pairs adjacency block and the pool probe array each needed
    # over 100 MiB here (5748 cubes, 2154 pool cubes)
    mu = heavy_grid(4, 2)
    prm = Params(p=3.0)
    net = build_net(mu, prm)
    tracemalloc.start()
    try:
        cover = assign_anchors(build_whitney(net))
        build_reference_family(mu, net, cover, partition_lacunae(cover), prm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def _dense_validate_family(fa, variant, mu, p, gamma, mass_mode="unit_sum"):
    """Reference: the all-pairs intersection matrix, then every member's conditions in turn."""
    n = mu.n
    fam = fa.family
    if len(fam) == 0:
        return
    c, h = fam.centers, fam.halves
    inter = np.all(np.abs(c[:, None, :] - c[None, :, :]) <= (h[:, None] + h[None, :])[..., None], axis=2)
    np.fill_diagonal(inter, False)
    if inter.any():
        i = int(np.nonzero(inter.any(axis=1))[0][0])
        raise FamilyValidationError(int(fam.ids[i]), "family cubes are not pairwise disjoint")
    for k, q in enumerate(fam):
        big = q.scaled(gamma)
        for name, j in (("Q'", fa.prime[k]), ("Q''", fa.dprime[k])):
            if not cube_contains(big, fa.pool_cubes[j]):
                raise FamilyValidationError(
                    int(fam.ids[k]), f"{name} escapes gamma*Q with gamma={gamma:g}"
                )
        qp, qd = fa.pool_cubes[fa.prime[k]], fa.pool_cubes[fa.dprime[k]]
        if variant in (Variant.V1, Variant.V4):
            if mass_mode == "unit_sum":
                s = qp.diam ** (p - n) * _loop_mass(mu, qp) + qd.diam ** (p - n) * _loop_mass(mu, qd)
                if s > 1.0 + 1e-12:
                    raise FamilyValidationError(
                        int(fam.ids[k]), f"unit mass-sum condition violated ({s:g} > 1)"
                    )
            else:
                for name, qq in (("Q'", qp), ("Q''", qd)):
                    if _loop_mass(mu, qq) > 2.0 ** (32.0 * p) * qq.diam ** (n - p) * (1 + 1e-12):
                        raise FamilyValidationError(int(fam.ids[k]), f"{name} mass bound violated")
        if variant in (Variant.VTH3, Variant.N11):
            for name, qq in (("Q'", qp), ("Q''", qd)):
                if _loop_mass(mu, qq) <= 0.0:
                    raise FamilyValidationError(
                        int(fam.ids[k]), f"{name} has zero mass, not admissible here"
                    )


def _validation_error(validate, *args):
    try:
        validate(*args)
    except FamilyValidationError as exc:
        return exc.cube_id, exc.constraint
    return None


def _member(fa, k):
    return FamilyAssignment(CubeFamily([fa.family[k]]), [fa.prime[k]], [fa.dprime[k]], fa.pool)


def _grown(fa, rng):
    """The family with a tenth of its members doubled in size, so that some meet."""
    grow = rng.random(len(fa.family)) < 0.1
    cubes = [Cube(q.center, q.half_side * (2.0 if g else 1.0)) for q, g in zip(fa.family, grow)]
    return FamilyAssignment(CubeFamily(cubes), fa.prime, fa.dprime, fa.pool)


def _reference_assignments():
    for inst in suite_1d(40) + suite_2d(10) + [None]:
        mu, p = (heavy_grid(2), 3.0) if inst is None else (inst.mu, inst.p)
        prm = Params(p=p)
        net, cover, _, lacs = build_pipeline(mu, prm)
        ref = build_reference_family(mu, net, cover, lacs, prm)
        yield mu, p, ref.assignment, ref.gamma_needed * (1 + 1e-9)


def test_validation_matches_dense_reference():
    """The same verdict, cube and reason as the all-pairs check, for every variant and
    mass mode, on reference families at their own dilation and at half of it, and on
    the same families with some members grown until they meet."""
    rng = np.random.default_rng(5)
    seen = set()
    for mu, p, fa, gamma in _reference_assignments():
        for cand in (fa, _grown(fa, rng)):
            for variant in Variant:
                for g in (gamma, gamma / 2):
                    for mode in ("unit_sum", "mass_bound"):
                        args = (cand, variant, mu, p, g, mode)
                        want = _validation_error(_dense_validate_family, *args)
                        assert _validation_error(validate_family, *args) == want
                        seen.add(None if want is None else want[1].split(" ")[0])
    assert {None, "family", "Q'", "Q''", "unit"} <= seen


def test_admissible_members_match_one_by_one():
    """The mask is the verdict of validating each member alone, and the estimate sums
    the admissible members' values in member order, as one-member families did."""
    for mu, p, fa, gamma in _reference_assignments():
        f = np.random.default_rng(mu.m).normal(size=mu.m)
        val = _Valuation(fa, mu, p, gamma)
        osc = val.oscillations(f)
        sums = admissible_sums(fa, mu, f, p, gamma)
        for variant in Variant:
            ok = val.admissible(variant)
            alone = [
                _validation_error(_dense_validate_family, _member(fa, k), variant, mu, p, gamma) is None
                for k in range(len(fa.family))
            ]
            assert ok.tolist() == alone
            keep = np.nonzero(ok)[0]
            want = sum(eval_family_functional(_member(fa, k), variant, mu, f, p, gamma=gamma) for k in keep)
            assert val.weighted_sum(variant, osc, keep) == want
            assert sums[variant][0].tolist() == keep.tolist() and sums[variant][1] == want


def test_validate_family_memory_scales_with_members():
    # the all-pairs intersection matrix needed 403 MiB here (3250 members)
    mu = heavy_grid(4, 2)
    prm = Params(p=3.0)
    net, cover, _, lacs = build_pipeline(mu, prm)
    ref = build_reference_family(mu, net, cover, lacs, prm)
    tracemalloc.start()
    try:
        validate_family(ref.assignment, Variant.CR, mu, 3.0, ref.gamma_needed * (1 + 1e-9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ref.assignment.family) == 3250
    assert peak < 64 * 2**20


# ---------------------------------------------------------------------------
# reference implementation: the scalar valuation, cube by cube, with the
# atoms of every cube found by a mask over all atoms


def _mask_atoms(mu, q):
    """Ascending indices of the atoms inside the closed cube."""
    return np.nonzero(np.max(np.abs(mu.positions - q.center), axis=1) <= q.half_side)[0]


def _loop_mass(mu, q):
    idx = _mask_atoms(mu, q)
    return float(mu.weights[idx].sum()) if idx.size else 0.0


def _loop_oscillation(mu, values, gi, hi, p):
    if gi.size == 0 or hi.size == 0:
        return 0.0
    diff = np.abs(values[gi][:, None] - values[hi][None, :]) ** p
    return float(mu.weights[gi] @ diff @ mu.weights[hi])


def _loop_term_weight(variant, n, p, dq, dp_, dd, mp, md):
    if variant is Variant.CR:
        return dq ** (n - p) / ((dp_ ** (n - p) + mp) * (dd ** (n - p) + md))
    if variant is Variant.V1:
        return (dp_ * dd / dq) ** (p - n)
    if variant is Variant.V4:
        denom = dp_ ** (p - n) * mp + dd ** (p - n) * md
        if denom == 0.0:
            return 0.0
        return (dp_ * dd / dq) ** (p - n) / denom
    denom = mp * md * dq ** (p - n) * (1.0 + dp_ ** (n - p) / mp + dd ** (n - p) / md)
    return 1.0 / denom


def _loop_members_value(fa, variant, mu, values, p, members):
    n = mu.n
    total = 0.0
    for k in members:
        q = fa.family[k]
        qp = fa.pool_cubes[fa.prime[k]]
        qd = fa.pool_cubes[fa.dprime[k]]
        mp, md = _loop_mass(mu, qp), _loop_mass(mu, qd)
        if variant in (Variant.CR, Variant.V1, Variant.V4) and (mp == 0.0 or md == 0.0):
            continue
        osc = _loop_oscillation(mu, values, _mask_atoms(mu, qp), _mask_atoms(mu, qd), p)
        if osc == 0.0:
            continue
        total += _loop_term_weight(variant, n, p, q.diam, qp.diam, qd.diam, mp, md) * osc
    return total


def _loop_weighted_pairs(ref, mu, values, p):
    def union(keys):
        return np.array(sorted({int(i) for k in keys for i in _mask_atoms(mu, ref.cubes[k])}), dtype=int)

    total = 0.0
    for pair in ref.pairs:
        gi, hi = union(pair.G.tolist()), union(pair.H.tolist())
        if gi.size == 0 or hi.size == 0:
            continue
        total += pair.lam * _loop_oscillation(mu, values, gi, hi, p)
    return total


def _bits(x):
    return np.float64(x).tobytes(), type(x)


def _valuation_cases():
    for inst in suite_1d() + suite_2d():
        yield inst.mu, inst.f, inst.p
    for n, p in ((1, 1.5), (1, 3.0), (2, 3.0)):
        for k in (2, 3, 4):
            mu = heavy_grid(k, n)
            yield mu, np.random.default_rng(k).normal(size=mu.m), p


def test_valuations_bit_equal_to_scalar_loops():
    """Every variant's member sum, the estimate's per-variant sums and the weighted
    pairs keep the bits of the cube-by-cube scalar valuation."""
    for mu, values, p in _valuation_cases():
        prm = Params(p=p)
        net, cover, _, lacs = build_pipeline(mu, prm)
        ref = build_reference_family(mu, net, cover, lacs, prm)
        fa, gamma = ref.assignment, ref.gamma_needed * (1 + 1e-9)
        everyone = range(len(fa.family))
        sums = admissible_sums(fa, mu, values, p, gamma)
        val = _Valuation(fa, mu, p, gamma)
        osc = val.oscillations(values)
        for variant in Variant:
            want = _bits(_loop_members_value(fa, variant, mu, values, p, everyone))
            assert _bits(val.weighted_sum(variant, osc, everyone)) == want
            keep = np.nonzero(val.admissible(variant))[0]
            assert sums[variant][0].tolist() == keep.tolist()
            assert _bits(sums[variant][1]) == _bits(_loop_members_value(fa, variant, mu, values, p, keep))
        assert _bits(eval_family_functional(fa, Variant.CR, mu, values, p, gamma)) == _bits(
            _loop_members_value(fa, Variant.CR, mu, values, p, everyone)
        )
        assert _bits(eval_weighted_pairs(ref, mu, values, p)) == _bits(_loop_weighted_pairs(ref, mu, values, p))


def test_search_values_bit_equal_to_scalar_loop():
    """Every admissible candidate of the search, including its local moves, is valued
    as the scalar loop values it."""
    for inst in suite_1d(30) + suite_2d(5):
        collect = []
        search_lower_bound(inst.mu, inst.f, inst.p, budget=60, seed=inst.seed, collect=collect)
        assert collect
        for fa, val in collect:
            want = _loop_members_value(fa, Variant.CR, inst.mu, inst.f, inst.p, range(len(fa.family)))
            assert _bits(val) == _bits(want)


# ---------------------------------------------------------------------------
# reference implementation: the search valuing its candidates one by one, each
# built as a FamilyAssignment and valued by its own eval_family_functional


def _loop_shrink_to_disjoint(centers, halves):
    for _ in range(3):
        fam = CubeFamily.from_arrays(centers, halves)
        if fam.pairwise_disjoint():
            return fam
        halves = halves * (1 - 1e-12)
    return None


@pytest.mark.parametrize("n", [1, 2])
def test_shrink_to_disjoint_matches_loop(n):
    """The half sides the search keeps, or None, are those of shrinking and testing
    every pair again, on families whose cubes touch or overlap by a few 1e-12."""
    rng = np.random.default_rng(n)
    outcomes = set()
    for _ in range(400):
        k = int(rng.integers(2, 5))
        halves = 2.0 ** rng.uniform(-3, 3, size=k)
        centers = np.zeros((k, n))
        for a in range(1, k):
            # the next cube touches the previous one, exactly or pushed in by up to 3e-12 relative
            push = 0.0 if rng.random() < 1 / 3 else float(rng.uniform(-1e-12, 3e-12))
            reach = (halves[a - 1] + halves[a]) * (1 - push)
            centers[a] = centers[a - 1]
            centers[a, int(rng.integers(n))] += reach
        want = _loop_shrink_to_disjoint(centers, halves)
        got = _shrink_to_disjoint(centers, halves)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.tobytes() == want.halves.tobytes()
        outcomes.add(None if got is None else int(np.sum(got != halves)))
    assert {None, 0} < outcomes


def _loop_candidate_stream(mu, seed, net, reference):
    rng = np.random.default_rng(seed)
    m, pos = mu.m, mu.positions
    for i in range(m):
        for j in range(i + 1, m):
            mid = (pos[i] + pos[j]) / 2.0
            sep = float(np.max(np.abs(pos[i] - pos[j])))
            if sep == 0.0:
                continue
            for a in (1.2, 1.02, 1.5, 2.0, 3.0, 6.0):
                yield FamilyAssignment(CubeFamily.from_arrays(mid[None, :], [a * sep / 2.0]), [0], [0]), None
    if m >= 1:
        c = mu.bounding_center()
        h = max(mu.bounding_half_width(), 1e-9)
        for a in (1.05, 1.5, 3.0):
            yield FamilyAssignment(CubeFamily.from_arrays(c[None, :], [a * h]), [0], [0]), None
    if net is not None and net.size:
        ids = list(range(net.size))
        yield FamilyAssignment(CubeFamily.from_arrays(net.points, net.radii), ids, ids), None
    if reference is not None:
        yield reference.assignment, reference.gamma_needed * (1 + 1e-9)
    while True:
        k = int(rng.integers(1, 4))
        centers, halves = [], []
        for _ in range(k):
            i, j = rng.integers(0, m, size=2)
            base = (pos[i] + pos[j]) / 2.0 + rng.normal(scale=0.1, size=mu.n) * (
                np.max(np.abs(pos[i] - pos[j])) + 1e-3
            )
            sep = float(np.max(np.abs(pos[i] - pos[j]))) + 1e-3
            centers.append(base)
            halves.append(sep * 2.0 ** int(rng.integers(-2, 3)) * 0.6)
        shrunk = _loop_shrink_to_disjoint(np.array(centers), np.array(halves))
        if shrunk is None:
            continue
        prime = [int(rng.integers(0, k)) for _ in range(k)]
        dprime = [int(rng.integers(0, k)) for _ in range(k)]
        yield FamilyAssignment(shrunk, prime, dprime), None


def _loop_local_moves(fa, rng):
    out = []
    k = len(fa.family)
    if k == 0 or fa.pool is not None:
        return out
    c, h = fa.family.centers, fa.family.halves
    for factor in (2.0, 0.5):
        shrunk = _loop_shrink_to_disjoint(c, h * factor)
        if shrunk is not None:
            out.append(FamilyAssignment(shrunk, list(fa.prime), list(fa.dprime)))
    if k > 1:
        prime = [int(rng.integers(0, k)) for _ in range(k)]
        dprime = [int(rng.integers(0, k)) for _ in range(k)]
        out.append(FamilyAssignment(fa.family, prime, dprime))
    i = int(rng.integers(0, k))
    factor = float(rng.choice([2.0, 0.5]))
    shrunk = _loop_shrink_to_disjoint(c, h * np.where(np.arange(k) == i, factor, 1.0))
    if shrunk is not None:
        out.append(FamilyAssignment(shrunk, list(fa.prime), list(fa.dprime)))
    return out


def _loop_search_lower_bound(mu, f, p, variant, budget, seed, net=None, reference=None, collect=None):
    gamma = Params(p=2.0).gamma_value
    move_rng = np.random.default_rng(seed + 0x5EED)
    best_val, best_fa, last_mutated = 0.0, None, None
    pending = []
    stream = _loop_candidate_stream(mu, seed, net, reference)
    for count in range(1, budget + 1):
        fa, g_over = pending.pop(0) if pending else next(stream)
        g = max(gamma, g_over) if g_over is not None else gamma
        try:
            val = eval_family_functional(fa, variant, mu, f, p, gamma=g)
        except FamilyValidationError:
            val = None
        if val is not None:
            if collect is not None:
                collect.append((fa, val))
            if val > best_val:
                best_val, best_fa = val, fa
        if count % 8 == 0 and best_fa is not None and best_fa is not last_mutated:
            pending.extend((move, None) for move in _loop_local_moves(best_fa, move_rng))
            last_mutated = best_fa
    return best_val, best_fa


def _family_bits(fa):
    if fa is None:
        return None
    pool = None if fa.pool is None else (fa.pool.centers.tobytes(), fa.pool.halves.tobytes())
    fam = fa.family
    arrays = fam.centers.tobytes(), fam.halves.tobytes(), fam.ids.tolist()
    return arrays, list(fa.prime), list(fa.dprime), pool


SEARCH_BUDGETS = (1, 5, 7, 8, 9, 16, 25, 40, 60)


def _stretched(ref, by=1000.0):
    """The reference family with its members shrunk ``by`` times, so that it is
    admissible only at its own dilation, far above the search's default."""
    fa = ref.assignment
    family = CubeFamily.from_arrays(fa.family.centers, fa.family.halves / by)
    assignment = FamilyAssignment(family, fa.prime, fa.dprime, fa.pool)
    return dataclasses.replace(ref, assignment=assignment, gamma_needed=ref.gamma_needed * by)


@pytest.mark.parametrize("variant", [Variant.CR, Variant.VTH3])
def test_chunked_search_bit_equal_to_one_by_one(variant):
    """The chunked search returns the best value, the best family and the whole
    ``collect`` list of the one-by-one search, bit for bit, at budgets on both
    sides of the chunk boundary, with and without the net and reference families;
    the stretched reference family is admissible only at its own dilation."""
    overridden = 0
    for inst in suite_1d(30) + suite_2d(10):
        mu, f, p = inst.mu, inst.f, inst.p
        prm = Params(p=p)
        net, cover, _, lacs = build_pipeline(mu, prm)
        ref = build_reference_family(mu, net, cover, lacs, prm)
        far = _stretched(ref)
        for extra in ({}, {"net": net, "reference": ref}, {"reference": far}):
            for budget in SEARCH_BUDGETS:
                args = (mu, f, p, variant, budget, inst.seed)
                got_collect, want_collect = [], []
                got = search_lower_bound(*args, collect=got_collect, **extra)
                want = _loop_search_lower_bound(*args, collect=want_collect, **extra)
                assert _bits(got[0]) == _bits(want[0])
                assert _family_bits(got[1]) == _family_bits(want[1])
                assert [(_family_bits(fa), _bits(v)) for fa, v in got_collect] == [
                    (_family_bits(fa), _bits(v)) for fa, v in want_collect
                ]
                if extra.get("reference") is far and far.gamma_needed > Params(p=2.0).gamma_value:
                    overridden += any(fa.pool is not None for fa, _ in got_collect)
    # the reference family has members of zero mass, which VTH3 does not admit
    assert overridden or variant is Variant.VTH3


def test_candidate_stream_holds_one_atom_row_at_a_time():
    """The atom-pair candidates are made one atom row at a time: pulling the first
    25 on 4096 atoms allocates far less than the 8M pairs would need."""
    m = 4096
    mu = AtomicMeasure(np.random.default_rng(0).uniform(0.0, 1.0, size=(m, 1)), np.ones(m))
    tracemalloc.start()
    try:
        first = list(itertools.islice(_SearchContext(mu, 0).stream(None, None), 25))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(first) == 25
    assert peak < 2**20


def _loop_k_curve(mu, f, p, t_grid, budget=40, seed=0):
    """Reference: the per-scale loop, every stage and the reference family
    rebuilt at each t, and the one-by-one search."""
    params = Params(p=p)
    values = np.asarray(f, dtype=float)
    prob = OracleProblem.from_measure(mu, values, p) if mu.n == 1 else None
    out = []
    for t in t_grid:
        try:
            mu_t = mu.scaled(t ** (-p))
            pipeline = build_pipeline(mu_t, params)
            net = pipeline[0]
            ref = build_reference_family(mu_t, net, pipeline[1], pipeline[3], params)
            upper = float(t) * upper_estimate(mu_t, values, params, pipeline)
            val, _ = _loop_search_lower_bound(mu_t, values, p, Variant.CR, budget, seed, net=net, reference=ref)
            lower = float(t) * val ** (1.0 / p)
            oracle = None if prob is None else k_exact(prob, float(t))
        except Exception as exc:
            exc.add_note(f"k_curve: t={t:.9g}, m={mu.m}, n={mu.n}")
            raise
        out.append(KCurvePoint(float(t), lower, upper, oracle))
    return out


def _curve_outcome(curve, *args, **kwargs):
    """The bits of every point of a curve, or the type, message and notes of its error."""
    try:
        pts = curve(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "__notes__", None)
    oracle = [None if pt.oracle is None else _bits(pt.oracle) for pt in pts]
    return [(_bits(pt.t), _bits(pt.lower), _bits(pt.upper), o) for pt, o in zip(pts, oracle)]


def _first_of_each_size(insts, sizes):
    by_m = {}
    for inst in insts:
        by_m.setdefault(inst.mu.m, inst)
    return [by_m[m] for m in sizes]


def _counting_reference_builds(monkeypatch):
    """The measures ``build_reference_family`` is called with, as ``k_curve`` calls it."""
    import sumspace.functional as functional

    built = []

    def counted(mu, *args):
        built.append(mu.weights.tobytes())
        return build_reference_family(mu, *args)

    monkeypatch.setattr(functional, "build_reference_family", counted)
    return built


def test_k_curve_bit_equal_to_per_scale_loop(monkeypatch):
    """Whole 1d curves at m = 1..10 keep the bits of the per-scale loop; the
    small ones reach the net and reference candidates, the larger ones do not."""
    built = _counting_reference_builds(monkeypatch)
    reached, whole = [], 0
    for inst in _first_of_each_size(suite_1d(60), range(1, 11)):
        grid = default_t_grid(inst.mu, inst.f, inst.p, k=4)
        built.clear()
        got = _curve_outcome(k_curve, inst.mu, inst.f, inst.p, t_grid=grid, seed=inst.seed)
        assert got == _curve_outcome(_loop_k_curve, inst.mu, inst.f, inst.p, grid, seed=inst.seed)
        whole += isinstance(got, list)
        reached.append(len(built))
    assert whole >= 8
    assert min(reached[:3]) > 0 and max(reached[3:]) == 0


def test_k_curve_2d_bit_equal_to_per_scale_loop():
    inst = suite_2d(4)[3]
    grid = [0.1, 0.5, 2.0]
    got = _curve_outcome(k_curve, inst.mu, inst.f, inst.p, t_grid=grid, budget=25, seed=inst.seed)
    assert isinstance(got, list) and len(got) == 3
    assert got == _curve_outcome(_loop_k_curve, inst.mu, inst.f, inst.p, grid, budget=25, seed=inst.seed)


def test_k_curve_failing_scale_matches_per_scale_loop():
    # at the sixth scale the net is one point whose hole holds the whole box
    (inst,) = [inst for inst in suite_1d(14) if inst.seed == 1013]
    grid = default_t_grid(inst.mu, inst.f, inst.p, k=8)
    got = _curve_outcome(k_curve, inst.mu, inst.f, inst.p, t_grid=grid, seed=inst.seed)
    assert got == (RuntimeError, "Whitney construction selected no cubes", ["k_curve: t=28.7072685, m=2, n=1"])
    assert got == _curve_outcome(_loop_k_curve, inst.mu, inst.f, inst.p, grid, seed=inst.seed)


class _ReachedReference:
    """A reference family that records whether the search's stream read it."""

    def __init__(self, ref):
        self._ref, self.gamma_needed, self.reached = ref, ref.gamma_needed, False

    @property
    def assignment(self):
        self.reached = True
        return self._ref.assignment


def test_k_curve_builds_the_reference_family_only_where_the_search_reaches_it(monkeypatch):
    built = _counting_reference_builds(monkeypatch)
    reached = []
    for inst in suite_1d(16):
        p, prm = inst.p, Params(p=inst.p)
        grid = default_t_grid(inst.mu, inst.f, p, k=4)
        want = []
        for t in grid:
            mu_t = inst.mu.scaled(t ** (-p))
            try:
                net, cover, _, lacs = build_pipeline(mu_t, prm)
            except RuntimeError:
                break
            ref = _ReachedReference(build_reference_family(mu_t, net, cover, lacs, prm))
            _loop_search_lower_bound(mu_t, inst.f, p, Variant.CR, 40, inst.seed, net=net, reference=ref)
            if ref.reached:
                want.append(mu_t.weights.tobytes())
        built.clear()
        try:
            k_curve(inst.mu, inst.f, p, t_grid=grid, seed=inst.seed)
        except RuntimeError:
            pass
        assert built == want
        reached.append(len(want))
    assert 0 in reached and max(reached) == 4


def test_k_curve_logs_one_info_line_per_curve(caplog):
    inst = _first_of_each_size(suite_1d(60), [6])[0]
    grid = default_t_grid(inst.mu, inst.f, inst.p, k=4)
    with caplog.at_level(logging.INFO, logger="sumspace.functional"):
        k_curve(inst.mu, inst.f, inst.p, t_grid=grid, budget=40, seed=inst.seed)
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("k_curve:")]
    # every scale reads the same 40 stream candidates of the 15 * 6 + 3 atom-pair
    # and all-atoms ones, less its local moves; only the first scale makes them
    (line,) = lines
    counts = re.fullmatch(
        r"k_curve: 4 scales run, (\d+) stream candidates made, (\d+) served from the shared list, "
        r"0 reference families built",
        line,
    )
    made, served = map(int, counts.groups())
    assert 0 < made <= 40 and made < served <= 3 * 40
