import logging

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from sumspace.concentration import Params, build_net
import sumspace.decompose as decompose_mod
from sumspace.decompose import (
    QuadratureError,
    _active_cubes,
    _cell_groups,
    _cube_powers,
    build_extension,
    estimate_sobolev_seminorm,
    eval_f1,
    mu_norm_f2,
)
from sumspace.geometry import Cube
from sumspace.instances import heavy_grid, suite_1d, suite_2d
from sumspace.measure import AtomicMeasure, average
from sumspace.oracle1d import OracleProblem, sigma_norm_exact
from sumspace.whitney import PartitionOfUnity, assign_anchors, build_whitney


def pipeline(mu, p=2.0):
    prm = Params(p=p)
    net = build_net(mu, prm)
    cover = assign_anchors(build_whitney(net))
    pou = PartitionOfUnity(cover)
    return prm, net, cover, pou


def decompose(mu, f, p=2.0):
    prm, net, cover, pou = pipeline(mu, p)
    dec = build_extension(np.asarray(f, float), mu, cover)
    return prm, net, cover, pou, dec


def box_samples(net, rng, k):
    box = net.working_box
    return box.lo + rng.random((k, net.n)) * (box.hi - box.lo)


def first_containing_cube(cover, X):
    """Reference: per row of X the first closed cover cube holding it, or -1."""
    inside = np.all(np.abs(X[:, None, :] - cover.centers[None, :, :]) <= cover.halves[None, :, None], axis=2)
    return np.where(inside.any(axis=1), np.argmax(inside, axis=1), -1)


def _dense_bumps(pou, ids, X):
    """Reference: bumps of cubes ``ids`` at every row of X, shapes (P, K) and (P, K, n)."""
    n = X.shape[1]
    fs, ds = zip(*(pou.axis_factor(ids, X[:, ax], ax) for ax in range(n)))
    b = np.prod(fs, axis=0)
    grad = np.stack(
        [np.prod(fs[:ax] + fs[ax + 1 :], axis=0) * ds[ax] for ax in range(n)], axis=2
    )
    return b, grad


def _pointwise_f1(dec, x):
    """Reference: value and gradient of the extension at one point, every cover cube and
    inner hole scanned."""
    x = np.asarray(x, dtype=float).ravel()
    net, cover, pou = dec.net, dec.cover, dec.pou
    zero = np.zeros(net.n)
    hit = np.nonzero(np.all(x[None, :] == net.points, axis=1))[0]
    if hit.size:
        return float(dec.tilde[hit[0]]), zero
    if np.any(np.abs(x - net.working_box.center) > net.working_box.half_side):
        return dec.far_field, zero
    ids = np.nonzero(np.all(np.abs(x - cover.centers) <= pou.SUPPORT * cover.halves[:, None], axis=1))[0]
    if ids.size:
        b, g = _dense_bumps(pou, ids, x[None, :])
        b, g = b[0], g[0]
        pos = b > 0.0
        if np.any(pos):
            ids, b, g = ids[pos], b[pos], g[pos]
            t = dec.tilde[cover.anchors[ids]]
            S = b.sum()
            G = g.sum(axis=0)
            value = float(np.dot(t, b) / S)
            tc = t - value
            grad = (tc[:, None] * g).sum(axis=0) / S - (np.dot(tc, b) / (S * S)) * G
            return value, grad
    inside = np.all(np.abs(x - cover.hole_centers) <= cover.hole_halves[:, None], axis=1)
    if inside.any():
        return float(dec.tilde[cover.hole_net[np.argmax(inside)]]), zero
    raise RuntimeError(f"point {x} is neither covered, outside, nor in a hole")


def test_constant_function_maps_to_constant():
    mu = AtomicMeasure([[0.0], [1.0], [2.5]], [1.0, 2.0, 0.5])
    prm, net, cover, pou, dec = decompose(mu, [5.0, 5.0, 5.0])
    assert np.allclose(dec.tilde, 5.0)
    assert np.allclose(dec.f2, 0.0)
    rng = np.random.default_rng(0)
    v, g = eval_f1(dec, box_samples(net, rng, 200))
    assert np.max(np.abs(v - 5.0)) <= 1e-12
    assert np.max(np.abs(g)) <= 1e-12
    assert estimate_sobolev_seminorm(dec) == 0.0
    assert mu_norm_f2(dec) == 0.0


def test_identity_at_atoms():
    rng = np.random.default_rng(1)
    mu = AtomicMeasure(rng.uniform(-2, 2, size=(8, 1)), rng.uniform(0.3, 2, size=8))
    f = rng.normal(size=8)
    prm, net, cover, pou, dec = decompose(mu, f)
    # f2 is the residual by definition; the resummed identity holds to one ulp
    assert np.array_equal(dec.f2, f - dec.f1_at_atoms)
    resum = dec.f1_at_atoms + dec.f2
    assert np.max(np.abs(resum - f)) <= 4 * np.finfo(float).eps * np.max(np.abs(f) + 1)


def test_linearity():
    rng = np.random.default_rng(2)
    mu = AtomicMeasure(rng.uniform(-2, 2, size=(6, 1)), rng.uniform(0.3, 2, size=6))
    f = rng.normal(size=6)
    g = rng.normal(size=6)
    a, b = 1.7, -0.4
    prm, net, cover, pou = pipeline(mu)
    dec_f = build_extension(f, mu, cover)
    dec_g = build_extension(g, mu, cover)
    dec_c = build_extension(a * f + b * g, mu, cover)
    assert np.allclose(dec_c.tilde, a * dec_f.tilde + b * dec_g.tilde, rtol=0, atol=1e-10)
    X = box_samples(net, rng, 300)
    vf, vg, vc = (eval_f1(d, X)[0] for d in (dec_f, dec_g, dec_c))
    scale = max(1.0, np.max(np.abs(vc)))
    assert np.max(np.abs(vc - (a * vf + b * vg))) <= 1e-10 * scale


def test_single_atom_everything_constant():
    mu = AtomicMeasure([[0.0]], [1.0])
    c = 3.25
    prm, net, cover, pou, dec = decompose(mu, [c])
    assert np.allclose(dec.tilde, c)
    assert dec.f2[0] == 0.0
    rng = np.random.default_rng(3)
    assert np.max(np.abs(eval_f1(dec, box_samples(net, rng, 100))[0] - c)) <= 1e-12


def test_eval_at_net_point_and_outside():
    mu = AtomicMeasure([[0.0], [1.0]], [1.0, 1.0])
    prm, net, cover, pou, dec = decompose(mu, [0.0, 1.0])
    v, g = eval_f1(dec, net.points[0])
    assert v == pytest.approx(dec.tilde[0], abs=0)
    assert np.all(g == 0.0)
    far = net.working_box.center + np.full(net.n, 10 * net.working_box.half_side)
    v, g = eval_f1(dec, far)
    assert v == dec.far_field
    assert np.all(g == 0.0)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    mu = AtomicMeasure(
        np.concatenate([rng.uniform(-40, -30, size=(3, 1)), rng.uniform(30, 40, size=(3, 1))]),
        rng.uniform(0.5, 2, size=6),
    )
    f = rng.normal(size=6)
    prm, net, cover, pou, dec = decompose(mu, f)
    spread = float(np.ptp(dec.tilde))
    assert spread > 0, "instance should carry a non-constant extension"
    _assert_gradient_matches_fd(dec, box_samples(net, rng, 600), spread, 120, 50)


def _assert_gradient_matches_fd(dec, X, spread, most, least):
    """Central differences of the value against the gradient at the first ``most``
    rows of X inside a cover cube, with a step of 1e-6 of that cube's side."""
    cube = first_containing_cube(dec.cover, X)
    X, cube = X[cube >= 0][:most], cube[cube >= 0][:most]
    assert len(X) >= least
    local = 2 * dec.cover.halves[cube]
    step = 1e-6 * local
    val, grad = eval_f1(dec, X)
    for ax in range(dec.net.n):
        shift = np.zeros_like(X)
        shift[:, ax] = step
        fd = (eval_f1(dec, X + shift)[0] - eval_f1(dec, X - shift)[0]) / (2 * step)
        # floor shields against pure roundoff where the gradient vanishes
        scale = np.maximum(np.abs(grad[:, ax]), 1e-3 * spread / local)
        noise = 64 * np.finfo(float).eps * (np.abs(val) + spread) / step
        assert np.all(np.abs(fd - grad[:, ax]) <= 1e-4 * scale + noise)


def test_gradient_fd_2d():
    rng = np.random.default_rng(6)
    mu = AtomicMeasure(
        np.concatenate([rng.uniform(-25, -15, size=(2, 2)), rng.uniform(15, 25, size=(2, 2))]),
        rng.uniform(0.5, 2, size=4),
    )
    f = rng.normal(size=4)
    prm, net, cover, pou, dec = decompose(mu, f, p=2.5)
    spread = float(np.ptp(dec.tilde))
    assert spread > 0
    _assert_gradient_matches_fd(dec, box_samples(net, rng, 600), spread, 40, 20)


def test_seminorm_homogeneity():
    rng = np.random.default_rng(5)
    mu = AtomicMeasure(rng.uniform(-2, 2, size=(5, 1)), rng.uniform(0.5, 2, size=5))
    f = rng.normal(size=5)
    prm, net, cover, pou = pipeline(mu)
    d1 = build_extension(f, mu, cover)
    d2 = build_extension(3.0 * f, mu, cover)
    s1 = estimate_sobolev_seminorm(d1)
    s2 = estimate_sobolev_seminorm(d2)
    assert s2 == pytest.approx(3.0 * s1, rel=1e-9)
    assert mu_norm_f2(d2) == pytest.approx(3.0 * mu_norm_f2(d1), rel=1e-9)


def test_seminorm_quadrature_vs_dense_sampling():
    # independent check: dense trapezoid integration of the evaluated gradient,
    # on two well-separated clusters, whose extension is not constant
    prm, net, cover, pou, dec = _clustered_1d()
    assert _active_cubes(dec).size > 0
    s_quad = estimate_sobolev_seminorm(dec)
    box = net.working_box
    xs = np.linspace(box.lo[0], box.hi[0], 60001)
    gs = np.abs(eval_f1(dec, xs[:, None])[1][:, 0]) ** prm.p
    s_dense = float(np.trapezoid(gs, xs) ** (1 / prm.p))
    assert s_quad == pytest.approx(s_dense, rel=2e-3)


def test_seminorm_quadrature_vs_dense_sampling_2d():
    # per-cube oracle: dense trapezoid of the pointwise-evaluated gradient
    rng = np.random.default_rng(14)
    mu = AtomicMeasure(
        np.array([[-8.0, -8.0], [8.0, 7.0], [7.5, 8.5]]), np.array([1.0, 1.5, 0.8])
    )
    f = np.array([0.0, 1.0, -1.0])
    prm, net, cover, pou, dec = decompose(mu, f, p=2.5)
    spread = float(np.ptp(dec.tilde))
    assert spread > 0
    # pick the cube with the largest contribution
    nodes, wts = leggauss(8)
    parts = np.array(
        [_loop_cube_power(dec, i, nodes, wts, prm.p) for i in range(cover.size)]
    )
    i = int(np.argmax(parts))
    c, h = cover.centers[i], cover.halves[i]
    g = 90
    xs = np.linspace(c[0] - h, c[0] + h, g)
    ys = np.linspace(c[1] - h, c[1] + h, g)
    X = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=2).reshape(-1, 2)
    vals = (np.max(np.abs(eval_f1(dec, X)[1]), axis=1) ** prm.p).reshape(g, g)
    dense = np.trapezoid(np.trapezoid(vals, ys, axis=1), xs)
    assert parts[i] == pytest.approx(dense, rel=0.05)


def test_discrete_surrogate_runs():
    mu = AtomicMeasure([[0.0], [1.0]], [1.0, 1.0])
    prm, net, cover, pou, dec = decompose(mu, [0.0, 1.0])
    s = estimate_sobolev_seminorm(dec, method="discrete")
    assert s >= 0.0
    with pytest.raises(ValueError):
        estimate_sobolev_seminorm(dec, method="bogus")


def test_two_atom_upper_bound_vs_oracle():
    mu = AtomicMeasure([[0.0], [1.0]], [1.0, 1.0])
    f = [0.0, 1.0]
    prm, net, cover, pou, dec = decompose(mu, f)
    upper = estimate_sobolev_seminorm(dec) + mu_norm_f2(dec)
    oracle, _ = sigma_norm_exact(OracleProblem.from_measure(mu, f, 2.0))
    assert oracle <= upper + 1e-9
    assert upper <= 20 * oracle


def test_strict_far_field_flags_spread_instances():
    # separated clusters give direction-dependent boundary values; the
    # strict mode must refuse, the default must record the mismatch
    from sumspace.decompose import WorkingBoxError, build_extension as be

    mu = AtomicMeasure([[0.0], [100.0]], [1.0, 1.0])
    f = np.array([0.0, 1.0])
    prm, net, cover, pou = pipeline(mu)
    dec = be(f, mu, cover)
    assert dec.boundary_mismatch > 1e-6
    with pytest.raises(WorkingBoxError, match="working box too small"):
        be(f, mu, cover, strict_far_field=True)


def test_anchored_values_agree_on_eta_core():
    # cubes meeting the shrunken net cube all anchor to its net point
    rng = np.random.default_rng(8)
    mu = AtomicMeasure(rng.uniform(-3, 3, size=(6, 1)), rng.uniform(0.3, 2, size=6))
    prm, net, cover, pou = pipeline(mu)
    eta = prm.eta
    for e in range(net.size):
        core = eta * net.radii[e]
        for i in range(cover.size):
            gap = np.max(
                np.maximum(np.abs(cover.centers[i] - net.points[e]) - cover.halves[i], 0.0)
            )
            if gap <= core:
                assert cover.anchors[i] == e
                for j in cover.neighbors[i]:
                    assert cover.anchors[int(j)] == e


def _loop_cube_cells(dec, i):
    """Reference: ids of cover cube ``i`` and its neighbors, their anchored
    values, and per axis the edges of the cube's cells (split at the
    neighbors' plain and dilated faces)."""
    cover = dec.cover
    c, h = cover.centers[i], cover.halves[i]
    local = np.concatenate([[i], cover.neighbors[i]]).astype(int)
    nc = cover.centers[local]
    nh = cover.halves[local]
    sup = PartitionOfUnity.SUPPORT
    edges = []
    for ax in range(cover.n):
        cuts = np.concatenate(
            [nc[:, ax] - nh, nc[:, ax] + nh, nc[:, ax] - sup * nh, nc[:, ax] + sup * nh]
        )
        lo, hi = c[ax] - h, c[ax] + h
        inner = np.unique(cuts[(cuts > lo) & (cuts < hi)])
        edges.append(np.concatenate([[lo], inner, [hi]]))
    return local, dec.tilde[cover.anchors[local]], edges


def _loop_cell_nodes(edges, nodes, wts):
    """Reference: Gauss nodes and weights mapped onto every cell between ``edges``."""
    a, b = edges[:-1], edges[1:]
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    return (mid[:, None] + half[:, None] * nodes).ravel(), (half[:, None] * wts).ravel()


def _loop_gradient_power(pou, local, t, edges, nodes, wts, p):
    """Reference: tensor quadrature of ``max_axis |grad f1|^p`` over the cells of
    one cube, as per-axis factor products ``S = f0 f1^T`` and so on."""
    (x0, w0), *rest = [_loop_cell_nodes(e, nodes, wts) for e in edges]
    f0, d0 = pou.axis_factor(local, x0, 0)
    if rest:
        (x1, w1), = rest
        f1, d1 = pou.axis_factor(local, x1, 1)
    else:
        w1, f1, d1 = np.ones(1), np.ones((1, local.size)), np.zeros((1, local.size))
    tf0 = t * f0
    S = f0 @ f1.T
    B = tf0 @ f1.T
    S2 = S * S
    gx = ((t * d0) @ f1.T * S - B * (d0 @ f1.T)) / S2
    gy = (tf0 @ d1.T * S - B * (f0 @ d1.T)) / S2
    mag = np.maximum(np.abs(gx), np.abs(gy))
    return float(w0 @ mag**p @ w1)


def _loop_cube_power(dec, i, nodes, wts, p):
    """Reference: integral of ``max_axis |grad f1|^p`` over cover cube ``i``."""
    return _loop_gradient_power(dec.pou, *_loop_cube_cells(dec, i), nodes, wts, p)


def _loop_discrete_surrogate(dec):
    """Reference: the anchored-difference surrogate summed cube by cube, neighbor by neighbor."""
    cover, p = dec.cover, dec.params.p
    total = 0.0
    for i in range(cover.size):
        ti = dec.tilde[cover.anchors[i]]
        d = 2.0 * cover.halves[i]
        for j in cover.neighbors[i]:
            tj = dec.tilde[cover.anchors[int(j)]]
            total += abs(tj - ti) ** p / d ** (p - cover.n)
    return total ** (1.0 / p)


def _dense_gradient_power(dec, i, nodes, wts, p):
    """Reference: the dense bump formula at every node of the tensor grid."""
    local, t, edges = _loop_cube_cells(dec, i)
    axes = [_loop_cell_nodes(e, nodes, wts) for e in edges]
    X = np.stack([g.ravel() for g in np.meshgrid(*[x for x, _ in axes], indexing="ij")], axis=1)
    W = np.prod(np.meshgrid(*[w for _, w in axes], indexing="ij"), axis=0).ravel()
    b, g = _dense_bumps(dec.pou, local, X)
    S = b.sum(axis=1)
    G = g.sum(axis=1)
    A = (t[None, :, None] * g).sum(axis=1)
    B = b @ t
    grad = (A * S[:, None] - B[:, None] * G) / (S * S)[:, None]
    return float(np.dot(W, np.max(np.abs(grad), axis=1) ** p))


def _clustered_1d():
    rng = np.random.default_rng(4)
    mu = AtomicMeasure(
        np.concatenate([rng.uniform(-40, -30, size=(3, 1)), rng.uniform(30, 40, size=(3, 1))]),
        rng.uniform(0.5, 2, size=6),
    )
    return decompose(mu, rng.normal(size=6))


def _heavy_grid_2d():
    pos = np.array([[float(i), float(j)] for i in range(3) for j in range(3)])
    f = np.random.default_rng(0).normal(size=9)
    return decompose(AtomicMeasure(pos, np.full(9, 100.0)), f, p=3.0)


@pytest.mark.parametrize("build", [_clustered_1d, _heavy_grid_2d], ids=["1d", "2d"])
def test_separable_quadrature_matches_dense_bumps(build):
    prm, net, cover, pou, dec = build()
    # the one-pass mask selects exactly the cubes of the per-cube spread rule
    tol = 1e-12 * np.max(np.abs(dec.tilde))
    spread = [
        np.ptp(dec.tilde[cover.anchors[np.concatenate([[i], cover.neighbors[i]]).astype(int)]])
        for i in range(cover.size)
    ]
    active = _active_cubes(dec)
    assert np.array_equal(active, np.nonzero(np.array(spread) > tol)[0])
    assert active.size > 0
    for order in (4, 8):
        nodes, wts = leggauss(order)
        new = np.array([_loop_cube_power(dec, i, nodes, wts, prm.p) for i in active])
        ref = np.array([_dense_gradient_power(dec, i, nodes, wts, prm.p) for i in active])
        assert np.max(np.abs(new - ref)) <= 1e-12 * ref.sum()


def _assert_batched_matches_loop(dec, orders=(4, 8, 16)):
    """The grouped cells and the blocked parts against the per-cube loop, byte for byte."""
    active = _active_cubes(dec)
    groups = _cell_groups(dec, active)
    seen = np.zeros(active.size, dtype=int)
    for members, ids, t, edges in groups:
        seen[members] += 1
        for g, k in enumerate(members):
            local, tl, el = _loop_cube_cells(dec, active[k])
            assert ids[g].tobytes() == local.astype(ids.dtype).tobytes()
            assert t[g].tobytes() == tl.tobytes()
            assert len(edges) == len(el)
            for e, ref in zip(edges, el):
                assert e[g].tobytes() == ref.tobytes()
    assert np.all(seen == 1)
    for order in orders:
        nodes, wts = leggauss(order)
        loop = np.array([_loop_cube_power(dec, i, nodes, wts, dec.params.p) for i in active])
        parts = _cube_powers(dec.pou, groups, active.size, order, dec.params.p)
        assert parts.tobytes() == loop.tobytes()
    return active, groups


@pytest.mark.parametrize("build", [_clustered_1d, _heavy_grid_2d], ids=["1d", "2d"])
def test_batched_quadrature_matches_loop_reference(build):
    _assert_batched_matches_loop(build()[-1])


def test_batched_quadrature_matches_loop_reference_on_suite_2d():
    # most suite_2d instances have one net point, hence no active cube;
    # every instance is run, and those with active cubes are counted
    with_active = 0
    for inst in suite_2d():
        dec = decompose(inst.mu, inst.f, inst.p)[-1]
        if _active_cubes(dec).size:
            _assert_batched_matches_loop(dec)
            with_active += 1
        else:
            assert estimate_sobolev_seminorm(dec) == 0.0
    assert with_active >= 5


def test_batched_quadrature_split_blocks_match_loop_reference(monkeypatch):
    # a cap below one cube's nodes makes every block a single cube
    monkeypatch.setattr(decompose_mod, "QUAD_BLOCK", 1)
    prm, net, cover, pou, dec = _heavy_grid_2d()
    active, groups = _assert_batched_matches_loop(dec)
    assert max(members.size for members, *_ in groups) > 1
    assert len(groups) < active.size


def test_quadrature_error_names_the_loop_reference_worst_cube(monkeypatch):
    # with one doubling and no tolerance the quadrature cannot settle
    monkeypatch.setattr(decompose_mod, "QUAD_DOUBLINGS", 1)
    monkeypatch.setattr(decompose_mod, "QUAD_REL_TOL", 0.0)
    prm, net, cover, pou, dec = _heavy_grid_2d()
    active = _active_cubes(dec)
    parts = []
    for order in (4, 8):
        nodes, wts = leggauss(order)
        parts.append(np.array([_loop_cube_power(dec, i, nodes, wts, prm.p) for i in active]))
    with pytest.raises(QuadratureError) as err:
        estimate_sobolev_seminorm(dec)
    assert err.value.worst_cube == int(active[np.argmax(np.abs(parts[1] - parts[0]))])
    totals = [float(q.sum() ** (1.0 / prm.p)) for q in parts]
    assert err.value.change == abs(totals[1] - totals[0]) / max(totals[1], 1e-300)


def _global_doubling_seminorm(dec):
    """Reference: the seminorm with every active cube doubled until the total
    settles, and the number of rounds that took."""
    p = dec.params.p
    active = _active_cubes(dec)
    if not active.size:
        return 0.0, 0
    groups = _cell_groups(dec, active)
    order, totals = decompose_mod.QUAD_ORDER, []
    for _ in range(decompose_mod.QUAD_DOUBLINGS + 1):
        total = float(_cube_powers(dec.pou, groups, active.size, order, p).sum() ** (1.0 / p))
        if totals and abs(total - totals[-1]) <= decompose_mod.QUAD_REL_TOL * max(total, totals[-1], 1e-300):
            return total, len(totals) + 1
        totals.append(total)
        order *= 2
    raise AssertionError("the reference did not settle")


def _loop_freeze(change, live, budget):
    """Reference: freeze live cubes one by one, smallest last change first,
    while the changes of all frozen cubes sum to at most ``budget``."""
    live = live.copy()
    spent = sum(change[i] for i in range(live.size) if not live[i])
    for i in sorted(np.nonzero(live)[0], key=lambda i: change[i]):
        spent += change[i]
        if spent > budget:
            break
        live[i] = False
    return live


def _seminorm_rounds(dec, caplog):
    """The seminorm and, from its info line, the cubes integrated at each order."""
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="sumspace.decompose"):
        value = estimate_sobolev_seminorm(dec)
    (record,) = [r for r in caplog.records if r.name == "sumspace.decompose"]
    msg = record.getMessage()
    if "cubes per order " not in msg:
        return value, []
    return value, [int(c) for c in msg.split("cubes per order ")[1].split(",")[0].split("/")]


def test_per_cube_doubling_matches_global_doubling(caplog):
    # bits where nothing freezes, 1e-5 elsewhere, and never more rounds
    cases = [(inst.mu, inst.f, inst.p) for inst in suite_1d() + suite_2d()]
    for k in (3, 4, 6):
        grid = heavy_grid(k)
        cases.append((grid, np.random.default_rng(0).normal(size=grid.m), 3.0))
    froze = 0
    for mu, f, p in cases:
        dec = decompose(mu, f, p)[-1]
        value, counts = _seminorm_rounds(dec, caplog)
        ref, rounds = _global_doubling_seminorm(dec)
        assert len(counts) <= rounds
        if all(c == counts[0] for c in counts):
            assert np.float64(value).tobytes() == np.float64(ref).tobytes()
        else:
            froze += 1
            assert counts[:2] == [counts[0]] * 2 and counts == sorted(counts, reverse=True)
            assert abs(value - ref) <= 1e-5 * ref
    assert froze >= 1


def test_quadrature_error_with_frozen_cubes_names_the_loop_reference_worst_cube(monkeypatch):
    # order 16 freezes the cubes that barely moved, and the total still moves by more than 1e-5
    monkeypatch.setattr(decompose_mod, "QUAD_DOUBLINGS", 2)
    monkeypatch.setattr(decompose_mod, "QUAD_REL_TOL", 1e-5)
    prm, net, cover, pou, dec = _heavy_grid_2d()
    active = _active_cubes(dec)
    loop = []
    for order in (4, 8, 16):
        nodes, wts = leggauss(order)
        loop.append(np.array([_loop_cube_power(dec, i, nodes, wts, prm.p) for i in active]))
    change = np.abs(loop[1] - loop[0])
    budget = 0.5 * ((1.0 + 1e-5) ** prm.p - 1.0) * loop[1].sum()
    live = _loop_freeze(change, np.ones(active.size, dtype=bool), budget)
    assert 0 < live.sum() < active.size
    last = np.where(live, loop[2], loop[1])
    with pytest.raises(QuadratureError) as err:
        estimate_sobolev_seminorm(dec)
    moved = np.where(live, np.abs(last - loop[1]), -1.0)
    assert err.value.worst_cube == int(active[np.argmax(moved)])
    totals = [float(q.sum() ** (1.0 / prm.p)) for q in (loop[1], last)]
    assert err.value.change == abs(totals[1] - totals[0]) / max(totals[1], 1e-300)


def test_discrete_surrogate_matches_loop_reference():
    grid = heavy_grid(6)
    decs = [_clustered_1d()[-1], _heavy_grid_2d()[-1]]
    decs.append(decompose(grid, np.random.default_rng(0).normal(size=grid.m), 3.0)[-1])
    decs += [decompose(inst.mu, inst.f, inst.p)[-1] for inst in suite_1d()[:30]]
    for dec in decs:
        value = estimate_sobolev_seminorm(dec, method="discrete")
        assert np.float64(value).tobytes() == np.float64(_loop_discrete_surrogate(dec)).tobytes()


def test_seminorm_logs_one_info_line(caplog):
    prm, net, cover, pou, dec = _clustered_1d()
    with caplog.at_level(logging.INFO, logger="sumspace.decompose"):
        value = estimate_sobolev_seminorm(dec)
    (record,) = [r for r in caplog.records if r.name == "sumspace.decompose"]
    msg = record.getMessage()
    n_active = _active_cubes(dec).size
    assert f"{n_active}/{cover.size} active cubes" in msg
    assert "rounds, order " in msg and msg.endswith(f"value {value:.6g}")
    rounds = int(msg.split(" rounds, ")[0].rsplit(" ", 1)[1])
    assert f"cubes per order {'/'.join([str(n_active)] * rounds)}," in msg
    # on the 3x3 heavy grid, order 16 integrates only the cubes that still move
    assert _seminorm_rounds(_heavy_grid_2d()[-1], caplog)[1] == [205, 205, 95]
    caplog.clear()
    with caplog.at_level(logging.ERROR, logger="sumspace.decompose"):
        estimate_sobolev_seminorm(dec)
    assert not caplog.records


def _reference_cases():
    grid = heavy_grid(3)
    return [(inst.mu, inst.f, inst.p) for inst in suite_1d() + suite_2d()] + [
        (grid, np.random.default_rng(0).normal(size=grid.m), 3.0)
    ]


def test_extension_operator_matches_pointwise_reference():
    """The sparse T1 against the per-point formula on the 200 + 50 suite instances
    and the 3x3 heavy grid: the decomposition bit for bit, and the extension at the
    atoms, boundary samples, net points, hole centres, points outside the box and
    100 random box points within 1e-13 (gradients within 1e-13 over the smallest
    side of a cube whose Q* holds the point)."""
    from sumspace.decompose import _boundary_samples

    for k, (mu, f, p) in enumerate(_reference_cases()):
        prm, net, cover, pou, dec = decompose(mu, f, p)
        box = net.working_box
        tilde = [average(mu, f, Cube(net.points[i], float(net.radii[i]))) for i in range(net.size)]
        assert dec.tilde.tobytes() == np.array(tilde).tobytes()
        assert dec.far_field == float(np.dot(mu.weights, f) / mu.total_mass)
        at_atoms = [_pointwise_f1(dec, x)[0] for x in mu.positions]
        assert dec.f1_at_atoms.tobytes() == np.array(at_atoms).tobytes()
        bvals = np.array([_pointwise_f1(dec, x)[0] for x in _boundary_samples(box)])
        scale = max(np.max(np.abs(f)), abs(dec.far_field), 1e-30)
        assert dec.boundary_mismatch == float(np.max(np.abs(bvals - dec.far_field)) / scale)

        rng = np.random.default_rng(k)
        outside = box.center + box.half_side * np.array([[1.5] * net.n, [-1.0 - 1e-9] + [0.0] * (net.n - 1)])
        X = np.concatenate(
            [mu.positions, _boundary_samples(box), net.points, cover.hole_centers, outside,
             box_samples(net, rng, 100)]
        )
        value, grad = eval_f1(dec, X)
        ref = [_pointwise_f1(dec, x) for x in X]
        tol = 1e-13 * max(1.0, np.max(np.abs(f)))
        assert np.all(np.abs(value - np.array([v for v, _ in ref])) <= tol)
        holds = np.all(np.abs(X[:, None, :] - cover.centers[None]) <= pou.SUPPORT * cover.halves[None, :, None], axis=2)
        dmin = np.min(np.where(holds, 2 * cover.halves[None, :], np.inf), axis=1)
        assert np.all(np.abs(grad - np.array([g for _, g in ref])) <= (tol / dmin)[:, None])

        part = pou.evaluate(X)
        sums = np.bincount(part.point, weights=part.phi, minlength=len(X))
        assert np.all(np.abs(sums[part.covered] - 1.0) <= 1e-12)
