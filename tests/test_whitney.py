import hashlib
import logging

import numpy as np
import pytest

from sumspace.concentration import Params, build_net
from sumspace.geometry import Cube, cubes_intersect
from sumspace.instances import heavy_grid, suite_1d, suite_2d
from sumspace.measure import AtomicMeasure
from sumspace import whitney
from sumspace.whitney import (
    DepthLimitError,
    PartitionDomainError,
    PartitionOfUnity,
    assign_anchors,
    build_whitney,
)


def build_cover(mu, p=2.0, tau=9.0):
    prm = Params(p=p, tau=tau)
    net = build_net(mu, prm)
    cover = build_whitney(net)
    assign_anchors(cover)
    return prm, net, cover


def in_some_cube(cover, X):
    """Reference: rows of X inside some closed cover cube, by scanning every cube."""
    d = np.abs(X[:, None, :] - cover.centers[None, :, :])
    return np.any(np.all(d <= cover.halves[None, :, None], axis=2), axis=1)


def sample_covered_points(cover, rng, k):
    """Uniform box points that fall inside some cover cube."""
    box = cover.net.working_box
    out = []
    while len(out) < k:
        x = box.lo + rng.random(cover.n) * (box.hi - box.lo)
        if in_some_cube(cover, x[None, :])[0]:
            out.append(x)
    return np.array(out)


def phi_lookup(part, N, point, cube):
    """phi of the pairs (point, cube) in ``part``, 0 for pairs without a term."""
    keys = part.point * N + part.cube
    want = point * N + cube
    at = np.searchsorted(keys, want)
    found = at < keys.size
    found[found] = keys[at[found]] == want[found]
    out = np.zeros(want.shape)
    out[found] = part.phi[at[found]]
    return out


def per_point(part, P, values):
    """Sums of per-term ``values`` over the terms of each of P points."""
    return np.bincount(part.point, weights=values, minlength=P)


def test_whitney_single_point_1d():
    mu = AtomicMeasure([[0.0]], [1.0])
    prm, net, cover = build_cover(mu)
    assert cover.size > 0
    for i in range(cover.size):
        d = cover.dist_to_net(i)
        diam = 2 * cover.halves[i]
        assert diam <= d * (1 + 1e-12)
        assert d <= 4 * diam * (1 + 1e-12)
    # neighbor size ratios stay within a factor of 4
    for i in range(cover.size):
        for j in cover.neighbors[i]:
            ratio = cover.halves[i] / cover.halves[j]
            assert 0.25 - 1e-12 <= ratio <= 4 + 1e-12


def test_whitney_covers_box_minus_holes():
    mu = AtomicMeasure([[0.0], [1.0]], [1.0, 1.0])
    prm, net, cover = build_cover(mu)
    rng = np.random.default_rng(0)
    box = net.working_box
    X = box.lo + rng.random((500, 1)) * (box.hi - box.lo)
    part = PartitionOfUnity(cover).evaluate(X)
    uncovered = ~in_some_cube(cover, X)
    assert np.all(part.hole_net[uncovered] >= 0), "uncovered point outside holes"


def test_whitney_interiors_disjoint():
    mu = AtomicMeasure([[0.0], [0.7], [2.0]], [1.0, 0.5, 2.0])
    prm, net, cover = build_cover(mu, p=1.5)
    c, h = cover.centers, cover.halves
    overlap = np.abs(c[:, None, :] - c[None, :, :]) - (h[:, None] + h[None, :])[..., None]
    strict = np.all(overlap < -1e-15, axis=2)
    np.fill_diagonal(strict, False)
    assert not strict.any(), "two cover cubes share interior"


def test_dilated_intersection_equivalence():
    # Q* meets K* exactly when Q meets K, for all produced pairs
    mu = AtomicMeasure([[0.0], [1.0]], [1.0, 1.0])
    prm, net, cover = build_cover(mu)
    c, h = cover.centers, cover.halves
    for i in range(cover.size):
        plain = np.all(np.abs(c - c[i]) <= (h + h[i])[:, None], axis=1)
        star = np.all(
            np.abs(c - c[i]) <= (9.0 / 8.0) * (h + h[i])[:, None], axis=1
        )
        assert np.array_equal(plain, star), f"cube {i} gains neighbors after dilation"


def test_anchors_nearest_and_in_tau_q():
    mu = AtomicMeasure([[0.0], [100.0]], [1.0, 1.0])
    prm, net, cover = build_cover(mu)
    assert net.size >= 2
    E = net.points
    for i in range(cover.size):
        a = cover.anchors[i]
        gaps = np.max(
            np.maximum(np.abs(E - cover.centers[i]) - cover.halves[i], 0.0), axis=1
        )
        assert gaps[a] == pytest.approx(np.min(gaps), abs=0.0)
        assert np.max(np.abs(E[a] - cover.centers[i])) <= prm.tau * cover.halves[i] * (
            1 + 1e-12
        )
    # cubes hugging the right cluster anchor to the right point
    right = np.nonzero(np.abs(cover.centers[:, 0] - 100.0) < 2.0)[0]
    assert right.size > 0
    near_right_net = np.argmin(np.abs(E[:, 0] - 100.0))
    assert np.all(cover.anchors[right] == near_right_net)


def test_neighbor_graph_connected_across_gap():
    # cubes strictly between the two net points form one component
    mu = AtomicMeasure([[0.0], [100.0]], [1.0, 1.0])
    prm, net, cover = build_cover(mu)
    order = np.argsort(net.points[:, 0])
    e_left, e_right = net.points[order[0], 0], net.points[order[-1], 0]
    assert e_right - e_left > 50
    gap_ids = [
        i
        for i in range(cover.size)
        if cover.centers[i, 0] - cover.halves[i] > e_left
        and cover.centers[i, 0] + cover.halves[i] < e_right
    ]
    assert gap_ids
    start = gap_ids[0]
    seen = {start}
    frontier = [start]
    while frontier:
        i = frontier.pop()
        for j in cover.neighbors[i]:
            if int(j) in gap_ids and int(j) not in seen:
                seen.add(int(j))
                frontier.append(int(j))
    missed = [i for i in gap_ids if i not in seen]
    # cubes adjacent to a hole stop at it; everything else chains together
    for i in missed:
        x_lo = cover.centers[i, 0] - cover.halves[i]
        x_hi = cover.centers[i, 0] + cover.halves[i]
        near_hole = any(
            abs(net.points[k, 0] - x_lo) < 1.0 or abs(net.points[k, 0] - x_hi) < 1.0
            for k in range(net.size)
        )
        assert near_hole, f"cube {i} disconnected away from any net point"


def test_neighbor_degree_recorded_bounds():
    # 1d tiling admits one face neighbor per side; 2d stays within the
    # size-ratio cap of 4 per face plus corners
    mu1 = AtomicMeasure([[0.0], [3.0], [50.0]], [1.0, 0.5, 2.0])
    prm, net, cover = build_cover(mu1, p=1.5)
    assert cover.max_degree <= 2
    rng = np.random.default_rng(9)
    mu2 = AtomicMeasure(rng.uniform(-20, 20, size=(5, 2)), rng.uniform(0.4, 2.0, size=5))
    prm, net, cover2 = build_cover(mu2, p=2.5)
    assert cover2.max_degree <= 24


def test_whitney_mass_bound():
    rng = np.random.default_rng(4)
    mu = AtomicMeasure(rng.uniform(-2, 2, size=(6, 1)), rng.uniform(0.3, 2.0, size=6))
    p = 2.0
    prm, net, cover = build_cover(mu, p=p)
    for i in range(cover.size):
        q = cover.cube(i)
        bound = 84.0**p * q.half_side ** (1 - p)
        assert mu.mass(q) <= bound * (1 + 1e-9)
        # the cruder uniform bound holds as well
        assert mu.mass(q) <= 2.0 ** (15 * p) * q.diam ** (1 - p) * (1 + 1e-9)


def test_partition_sums_and_bounds():
    mu = AtomicMeasure([[0.0], [1.0]], [1.0, 1.0])
    prm, net, cover = build_cover(mu)
    pou = PartitionOfUnity(cover)
    rng = np.random.default_rng(1)
    X = sample_covered_points(cover, rng, 300)
    part = pou.evaluate(X)
    part.check_defined()
    assert np.all(part.phi >= 0) and np.all(part.phi <= 1 + 1e-15)
    assert np.max(np.abs(per_point(part, 300, part.phi) - 1.0)) <= 1e-12
    local = np.full(300, np.inf)
    np.minimum.at(local, part.point, 2 * cover.halves[part.cube])
    for ax in range(cover.n):
        assert np.all(np.abs(per_point(part, 300, part.grad[:, ax])) <= 1e-9 / local)
    off = np.abs(X[part.point] - cover.centers[part.cube])
    assert np.all(off.max(axis=1) <= 9 / 8 * cover.halves[part.cube])


def test_partition_lone_support_is_constant():
    mu = AtomicMeasure([[0.0]], [1.0])
    prm, net, cover = build_cover(mu)
    # centers of large cubes away from every other support
    part = PartitionOfUnity(cover).evaluate(cover.centers)
    lone = np.bincount(part.point, minlength=cover.size) == 1
    assert lone.any()
    terms = lone[part.point]
    assert np.all(part.phi[terms] == 1.0)
    assert np.allclose(part.grad[terms], 0.0)


def test_partition_gradient_finite_differences():
    mu = AtomicMeasure([[0.0], [1.5]], [1.0, 2.0])
    prm, net, cover = build_cover(mu, p=2.0)
    pou = PartitionOfUnity(cover)
    rng = np.random.default_rng(2)
    X = sample_covered_points(cover, rng, 60)
    part = pou.evaluate(X)
    part.check_defined()
    local = np.full(60, np.inf)
    np.minimum.at(local, part.point, 2 * cover.halves[part.cube])
    step = 1e-6 * local
    for ax in range(cover.n):
        shift = np.zeros_like(X)
        shift[:, ax] = step
        pp = phi_lookup(pou.evaluate(X + shift), cover.size, part.point, part.cube)
        pm = phi_lookup(pou.evaluate(X - shift), cover.size, part.point, part.cube)
        fd = (pp - pm) / (2 * step[part.point])
        grad = part.grad[:, ax]
        scale = np.maximum(np.abs(grad), 1e-2 / local[part.point])
        assert np.all(np.abs(fd - grad) <= 1e-5 * scale)


def test_partition_rejects_net_points_and_holes():
    mu = AtomicMeasure([[0.0]], [1.0])
    prm, net, cover = build_cover(mu)
    pou = PartitionOfUnity(cover)
    with pytest.raises(PartitionDomainError, match="undefined on E"):
        pou.evaluate(net.points[:1]).check_defined()
    if cover.hole_centers.shape[0]:
        hx = cover.hole_centers[0]
        if not np.any(np.all(hx == net.points, axis=1)):
            with pytest.raises(PartitionDomainError, match="inside an inner hole"):
                pou.evaluate(hx[None, :]).check_defined()


def test_rows_a_rounding_outside_a_hole_face_belong_to_the_hole():
    """Rows within a relative 1e-12 outside a hole face that no cube's support
    holds are classified by the hole join with that slack."""
    slack = 0
    for inst in suite_1d(30) + suite_2d(6):
        cover = build_whitney(build_net(inst.mu, Params(p=inst.p)))
        hc, hh = cover.hole_centers, cover.hole_halves
        X = np.concatenate([hc + s * hh[:, None] * (1 + 5e-13) for s in (-1.0, 1.0)])
        # those the rounding of the offset leaves within the slack of their hole
        X = X[np.max(np.abs(X - np.concatenate([hc, hc])), axis=1) <= np.concatenate([hh, hh]) * (1 + 1e-12)]
        part = PartitionOfUnity(cover).evaluate(X)
        bare = ~part.covered & ~part.outside & (part.net_hit < 0)
        assert np.all(part.hole_net[bare] >= 0)
        strict = np.any(np.all(np.abs(X[:, None, :] - hc[None]) <= hh[None, :, None], axis=2), axis=1)
        slack += int(np.sum(bare & ~strict))
    assert slack > 0


def test_partition_2d():
    rng = np.random.default_rng(8)
    mu = AtomicMeasure(rng.uniform(-1, 1, size=(4, 2)), rng.uniform(0.5, 2.0, size=4))
    prm, net, cover = build_cover(mu, p=2.5)
    pou = PartitionOfUnity(cover)
    X = sample_covered_points(cover, rng, 100)
    part = pou.evaluate(X)
    part.check_defined()
    assert np.max(np.abs(per_point(part, 100, part.phi) - 1.0)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_bump_is_product_of_axis_factors(n):
    rng = np.random.default_rng(10 + n)
    mu = AtomicMeasure(rng.uniform(-3, 3, size=(4, n)), rng.uniform(0.5, 2.0, size=4))
    prm, net, cover = build_cover(mu, p=2.5)
    pou = PartitionOfUnity(cover)
    ids = np.arange(cover.size)
    # points near the cube faces, where the ramps are strictly between 0 and 1
    pick = rng.integers(0, cover.size, size=400)
    X = cover.centers[pick] + cover.halves[pick, None] * rng.uniform(-1.2, 1.2, size=(400, n))
    # every (point, cube) pair, point by point
    b, g = pou.bumps(np.tile(ids, 400), np.repeat(X, cover.size, axis=0))
    b, g = b.reshape(400, cover.size), g.reshape(400, cover.size, n)
    fs, ds = zip(*(pou.axis_factor(ids, X[:, ax], ax) for ax in range(n)))
    if n == 1:
        assert np.array_equal(b, fs[0])
        assert np.array_equal(g[:, :, 0], ds[0])
    else:
        assert np.array_equal(b, fs[0] * fs[1])
        assert np.array_equal(g[:, :, 0], fs[1] * ds[0])
        assert np.array_equal(g[:, :, 1], fs[0] * ds[1])
    assert np.any((b > 0) & (b < 1))
    # the factor is the quintic smoothstep of the distance to the dilated face
    d = X[:, None, 0] - cover.centers[None, :, 0]
    r = cover.halves[None, :]
    s = np.clip((9 / 8 * r - np.abs(d)) / (r / 8), 0.0, 1.0)
    assert np.allclose(fs[0], s**3 * (10 - 15 * s + 6 * s**2), rtol=0, atol=1e-14)


def _dense_neighbors(cover):
    """Reference adjacency: the chunked all-pairs closed-cube test, one row at a time."""
    centers, halves = cover.centers, cover.halves
    N = centers.shape[0]
    chunk = max(1, int(2e6 // max(N, 1)))
    adj_rows = []
    for s in range(0, N, chunk):
        e = min(N, s + chunk)
        hsum = (halves[s:e, None] + halves[None, :])[..., None]
        gaps = np.abs(centers[s:e, None, :] - centers[None, :, :]) - hsum
        adj_rows.append(np.all(gaps <= 1e-9 * hsum, axis=2))
    adj = np.concatenate(adj_rows, axis=0)
    np.fill_diagonal(adj, False)
    return [np.nonzero(adj[i])[0] for i in range(N)]


def _assert_neighbors_match_dense(cover):
    want = _dense_neighbors(cover)
    assert len(cover.neighbors) == len(want)
    for got_i, want_i in zip(cover.neighbors, want):
        assert got_i.dtype == np.int64 and got_i.tobytes() == want_i.tobytes()
    src, dst = cover.edges()
    assert np.array_equal(src, np.repeat(np.arange(len(want)), [len(w) for w in want]))
    assert np.array_equal(dst, np.concatenate(want))
    # the edges are stored once: neighbors are views of them
    assert cover.edges()[1] is dst
    assert all(np.shares_memory(nb, dst) for nb in cover.neighbors if nb.size)
    assert cover.max_degree == max(len(w) for w in want)


def test_neighbors_match_dense_on_suites():
    for inst in suite_1d() + suite_2d():
        cover = build_whitney(build_net(inst.mu, Params(p=inst.p)))
        _assert_neighbors_match_dense(cover)


@pytest.mark.parametrize("n,p", [(1, 1.5), (1, 3.0), (2, 3.0)])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_neighbors_match_dense_on_heavy_grids(k, n, p):
    cover = build_whitney(build_net(heavy_grid(k, n), Params(p=p)))
    # the cover reaches the working box, where no cube lies beyond the edge
    assert cover.boundary.any() and not cover.boundary.all()
    _assert_neighbors_match_dense(cover)


def test_covers_match_pinned_digest():
    # the anchored covers of the acceptance suites and the small heavy grids, bit for bit
    h = hashlib.sha256()
    cases = [(inst.mu, inst.p) for inst in suite_1d() + suite_2d()]
    cases += [(heavy_grid(k), 3.0) for k in (2, 3, 4, 5)]
    for mu, p in cases:
        _, _, cover = build_cover(mu, p)
        for a in (cover.centers, cover.halves, cover.hole_centers, cover.hole_halves):
            h.update(a.tobytes())
        for a in (cover.levels, cover.hole_net, cover.anchors, *cover.edges()):
            h.update(a.astype(np.int64).tobytes())
    assert h.hexdigest() == "406cfb223da159e7d3f5b031c682a4a824dc383556bdefa444dddb2374bdcf67"


def test_build_whitney_logs_one_info_line(caplog):
    net = build_net(heavy_grid(3, 2), Params(p=3.0))
    with caplog.at_level(logging.INFO, logger="sumspace.whitney"):
        cover = build_whitney(net)
    (record,) = [r for r in caplog.records if r.name == "sumspace.whitney"]
    edges = sum(len(nb) for nb in cover.neighbors) // 2
    msg = record.getMessage()
    assert msg.startswith(
        f"whitney: {cover.size} cubes, {cover.hole_halves.shape[0]} holes, "
        f"levels {cover.levels.min()}..{cover.levels.max()}, {edges} adjacency edges, "
    )
    tested = int(msg.split(" candidate pairs")[0].rsplit(" ", 1)[1])
    assert 2 * edges <= tested < cover.size**2 // 10
    caplog.clear()
    with caplog.at_level(logging.ERROR, logger="sumspace.whitney"):
        build_whitney(net)
    assert not caplog.records


def test_candidates_scale_with_cubes_on_a_1d_heavy_grid(caplog):
    """The 1d heavy grid of 64 atoms (p = 3) covers its hull with about 95
    cubes at each of a dozen levels, and the inflated box beyond it with a
    tail of three or four edge cubes per level over half a dozen coarser
    levels.  Joined at the reach of its coarsest cube, that tail would pair
    with most of the cover; the candidates must stay a few per cube."""
    net = build_net(heavy_grid(64, 1), Params(p=3.0))
    with caplog.at_level(logging.INFO, logger="sumspace.whitney"):
        cover = build_whitney(net)
    msg = caplog.records[-1].getMessage()
    tested = int(msg.split(" candidate pairs")[0].rsplit(" ", 1)[1])
    assert cover.size > 1000 and np.ptp(cover.levels) > 15
    assert tested <= 8 * cover.size
    _assert_neighbors_match_dense(cover)



def test_hole_join_runs_only_where_a_cube_can_lie_in_a_hole(monkeypatch):
    """A level joins its cubes with the holes only when one of its cubes is no
    larger than the largest hole radius; the coarse levels of a small cover skip it."""
    joins = []

    def counted(ca, ha, cb=None, hb=None):
        if hb is not None and np.any(hb > 0):
            joins.append((float(ha.min()), float(hb.max())))
        return near_pairs(ca, ha, cb, hb)

    near_pairs = whitney.near_pairs
    monkeypatch.setattr(whitney, "near_pairs", counted)
    skipped = 0
    for inst in suite_1d(20) + suite_2d(5):
        joins.clear()
        cover = build_whitney(build_net(inst.mu, Params(p=inst.p)))
        assert all(h <= r for h, r in joins)
        if cover.hole_halves.size:
            assert joins
        skipped += int(cover.levels.max()) + 1 - len(joins)
    assert skipped > 0


def test_depth_limit_tells_dense_nets_from_unsettled_ones(monkeypatch):
    monkeypatch.setattr(whitney, "DEPTH_LIMIT", 1)
    # at level 2 a cube of the 3x3 grid's cover holds several net points
    with pytest.raises(DepthLimitError, match="net point density exceeds"):
        build_whitney(build_net(heavy_grid(3, 2), Params(p=3.0)))
    # a lone net point never shares a cube
    with pytest.raises(DepthLimitError, match="not settled"):
        build_whitney(build_net(AtomicMeasure([[0.0]], [1.0]), Params(p=2.0)))
