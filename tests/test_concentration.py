import dataclasses
import hashlib
import itertools
import logging
import tracemalloc

import numpy as np
import pytest

from sumspace.concentration import (
    _ROW_BLOCK,
    _WINDOW,
    Params,
    _build_once,
    _corners,
    _default_box,
    _greedy_layer_net,
    _layer_candidate_grid,
    _layer_of,
    _layer_rows,
    _prune,
    _radii,
    _radius_rows,
    _reach_bounds,
    _screen_tol,
    _separate,
    _sorted_bounds,
    build_net,
    concentration_radius,
    concentration_radius_batch,
    covering_violations,
    verify_concentration,
)
from sumspace.geometry import Cube
from sumspace.instances import heavy_grid, suite_1d, suite_2d
from sumspace.measure import AtomicMeasure


def delta1(x, w=1.0):
    return AtomicMeasure([[x]], [w])


def covering_lhs(net, x) -> float:
    """Best value of ``|x - e| + R(e)`` over the net."""
    return float(np.min(np.max(np.abs(net.points - np.asarray(x, dtype=float)), axis=1) + net.radii))


def test_radius_single_atom_examples():
    mu = delta1(0.0)
    # constant mass 1 crosses r^-1 at 1
    assert concentration_radius(mu, 2.0, [0.0]) == pytest.approx(1.0, rel=1e-14)
    # mass jumps to 1 at r=2 where 1 >= 1/2 already holds
    assert concentration_radius(mu, 2.0, [2.0]) == pytest.approx(2.0, rel=1e-14)
    mu4 = delta1(0.0, 4.0)
    assert concentration_radius(mu4, 2.0, [0.0]) == pytest.approx(0.25, rel=1e-14)


def test_radius_single_atom_profile():
    # R(x) = max(|x|, 1) for a unit mass at the origin with p=2
    mu = delta1(0.0)
    xs = np.linspace(-5, 5, 41)[:, None]
    R = concentration_radius_batch(mu, 2.0, xs)
    assert np.allclose(R, np.maximum(np.abs(xs[:, 0]), 1.0), rtol=1e-12)


def test_radius_brute_force_oracle():
    # independent oracle: scan a fine radius grid for the first crossing
    rng = np.random.default_rng(11)
    for n, p in [(1, 1.5), (1, 3.0), (2, 2.5)]:
        m = int(rng.integers(1, 7))
        mu = AtomicMeasure(rng.uniform(-2, 2, size=(m, n)), rng.uniform(0.2, 3.0, size=m))
        for _ in range(10):
            x = rng.uniform(-3, 3, size=n)
            R = concentration_radius(mu, p, x)
            d = np.max(np.abs(mu.positions - x), axis=1)
            # at R the mass dominates the threshold
            assert mu.weights[d <= R * (1 + 1e-12)].sum() >= R ** (n - p) * (1 - 1e-9)
            # slightly below R it does not
            for r in R * (1 - np.array([1e-6, 1e-3, 0.1, 0.5])):
                if r <= 0:
                    continue
                assert mu.weights[d <= r].sum() < r ** (n - p) * (1 + 1e-9)


def test_radius_monotone_in_mass_scaling():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = int(rng.integers(1, 8))
        mu = AtomicMeasure(rng.uniform(-4, 4, size=(m, 1)), rng.uniform(0.1, 5, size=m))
        c = float(rng.uniform(1.1, 10.0))
        x = rng.uniform(-5, 5, size=1)
        r1 = concentration_radius(mu, 2.0, x)
        r2 = concentration_radius(mu.scaled(c), 2.0, x)
        assert r2 <= r1 * (1 + 1e-12)


def test_radius_lipschitz_random():
    rng = np.random.default_rng(17)
    mu = AtomicMeasure(rng.uniform(-3, 3, size=(6, 2)), rng.uniform(0.3, 2, size=6))
    X = rng.uniform(-5, 5, size=(100, 2))
    Y = rng.uniform(-5, 5, size=(100, 2))
    RX = concentration_radius_batch(mu, 2.5, X)
    RY = concentration_radius_batch(mu, 2.5, Y)
    assert np.all(np.abs(RX - RY) <= np.max(np.abs(X - Y), axis=1) * (1 + 1e-9) + 1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        Params(p=2.0, tau=5.0)
    prm = Params(p=2.0)
    assert prm.eta * 21 * prm.tau == pytest.approx(1.0, rel=1e-15)
    assert prm.gamma_value == 256 * 81
    with pytest.raises(ValueError):
        prm.check_dimension(2)


def test_build_net_single_atom():
    mu = delta1(0.0)
    prm = Params(p=2.0)
    net = build_net(mu, prm)
    assert net.size >= 1
    # exact separation
    for i in range(net.size):
        for k in range(i + 1, net.size):
            gap = np.max(np.abs(net.points[i] - net.points[k]))
            assert 6 * (net.radii[i] + net.radii[k]) <= gap
    # R >= 1 everywhere, so any two net points are at least 12 apart
    if net.size > 1:
        assert min(
            np.max(np.abs(net.points[i] - net.points[k]))
            for i in range(net.size)
            for k in range(i + 1, net.size)
        ) >= 12.0
    # covering spot check at the atom: R(0) = 1
    lhs = covering_lhs(net, [0.0])
    assert lhs <= 83.0 * (1 + net.delta_grid)
    assert net.delta_grid <= 0.25


def test_build_net_two_far_atoms():
    mu = AtomicMeasure([[0.0], [1000.0]], [1.0, 1.0])
    prm = Params(p=2.0)
    net = build_net(mu, prm)
    bound = 83.0 * (1 + net.delta_grid)
    for a in ([0.0], [1000.0]):
        R = concentration_radius(mu, 2.0, a)
        assert covering_lhs(net, a) <= bound * R
    assert not covering_violations(net, mu, mu.positions)


@pytest.mark.parametrize(
    "n,p,seed",
    [(1, 1.5, 0), (1, 2.0, 1), (1, 3.0, 2), (2, 2.5, 3), (2, 3.0, 4)],
)
def test_verify_concentration_random(n, p, seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 7))
    mu = AtomicMeasure(
        rng.uniform(-2, 2, size=(m, n)), rng.uniform(0.3, 3.0, size=m)
    )
    prm = Params(p=p)
    net = build_net(mu, prm)
    rep = verify_concentration(net, mu, rng=np.random.default_rng(seed + 100))
    assert rep.ok, rep.checks


def test_net_points_lie_in_working_box():
    rng = np.random.default_rng(6)
    for seed in range(4):
        r = np.random.default_rng(seed)
        m = int(r.integers(2, 8))
        mu = AtomicMeasure(r.uniform(-30, 30, size=(m, 1)), r.uniform(0.3, 3.0, size=m))
        net = build_net(mu, Params(p=2.0))
        box = net.working_box
        assert np.all(
            np.max(np.abs(net.points - box.center), axis=1)
            <= box.half_side * (1 + 1e-12)
        )


def test_boundary_tight_lower_bound():
    # single unit atom: mass(K) = 1 and the lower bound is exactly 1
    mu = delta1(0.0)
    prm = Params(p=2.0)
    net = build_net(mu, prm)
    i = int(np.argmin(np.max(np.abs(net.points), axis=1)))
    K = Cube(net.points[i], net.radii[i])
    lower = 2.0 ** (2 - 1) * K.diam ** (1 - 2)
    assert mu.mass(K) >= lower * (1 - 1e-9)


def test_lipschitz_spot():
    mu = delta1(0.0)
    r0 = concentration_radius(mu, 2.0, [0.0])
    r2 = concentration_radius(mu, 2.0, [2.0])
    assert abs(r0 - r2) <= 2.0


def _dense_radius(mu, p, X):
    """Reference kernel: a stable argsort over every atom for every row."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    kappa = 1.0 / (p - mu.n)
    D = np.max(np.abs(X[:, None, :] - mu.positions[None, :, :]), axis=2)
    order = np.argsort(D, axis=1, kind="stable")
    Ds = np.take_along_axis(D, order, axis=1)
    W = np.take_along_axis(np.broadcast_to(mu.weights, D.shape), order, axis=1)
    cum = np.cumsum(W, axis=1)
    cand = np.maximum(Ds, cum ** (-kappa))
    nxt = np.concatenate([Ds[:, 1:], np.full((Ds.shape[0], 1), np.inf)], axis=1)
    return np.min(np.where(cand < nxt, cand, np.inf), axis=1)


def _kernel_queries(pos, scale, rng):
    """Atoms, midpoints of sorted neighbours, far outside the hull, and lattice ties."""
    xs = np.sort(pos[:, 0])
    mids = (xs[:-1] + xs[1:]) / 2.0
    far = np.array([-100.0, -10.0, 10.0, 100.0]) * scale
    ties = np.round(rng.uniform(-1.5, 1.5, size=40), 1) * scale
    return np.concatenate([xs, mids, far, ties, rng.uniform(-3, 3, size=40) * scale])[:, None]


@pytest.mark.parametrize("p", [1.2, 2.0, 6.0])
@pytest.mark.parametrize("m", [1, 2, 33, 300])
def test_radius_kernel_bit_equal_to_dense(m, p):
    rng = np.random.default_rng(m * 10 + int(p * 10))
    scale = 4.0
    # positions on a 0.1 * scale lattice: tied distances and coincident atoms
    pos = np.round(rng.uniform(-1, 1, size=(m, 1)), 1) * scale
    for weights in (2.0 ** rng.uniform(-3, 3, size=m), np.full(m, 1e-3)):
        mu = AtomicMeasure(pos, weights)
        X = _kernel_queries(pos, scale, rng)
        got = concentration_radius_batch(mu, p, X)
        want = _dense_radius(mu, p, X)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_radius_kernel_widens_past_first_window():
    # 300 light atoms: the crossing needs most of them, beyond the first window
    m = 300
    mu = AtomicMeasure(np.linspace(0.0, 1.0, m)[:, None], np.full(m, 1.0 / m))
    X = np.linspace(-2.0, 3.0, 101)[:, None]
    R, widened = _radii(mu, 2.0, X)
    assert m > _WINDOW and widened >= X.shape[0]
    assert np.array_equal(R.view(np.int64), _dense_radius(mu, 2.0, X).view(np.int64))


def test_radius_kernel_2d_matches_dense():
    rng = np.random.default_rng(23)
    pos = np.round(rng.uniform(-2, 2, size=(40, 2)), 1)
    mu = AtomicMeasure(pos, 2.0 ** rng.uniform(-3, 3, size=40))
    X = np.concatenate([pos, rng.uniform(-30, 30, size=(60, 2))])
    got = concentration_radius_batch(mu, 3.0, X)
    assert np.array_equal(got.view(np.int64), _dense_radius(mu, 3.0, X).view(np.int64))


def test_radius_kd_window_matches_dense_2d():
    # m > _WINDOW: the rows start from the KD-tree window and widen to the dense kernel
    rng = np.random.default_rng(29)
    widened = 0
    for m, layout in [
        (33, "rounded"), (64, "lattice"), (150, "uniform"), (300, "rounded"), (400, "lattice")
    ]:
        if layout == "rounded":
            pos = np.round(rng.uniform(-2, 2, size=(m, 2)), 1)
        elif layout == "lattice":
            pos = rng.integers(0, 9, size=(m, 2)).astype(float)
        else:
            pos = rng.uniform(-2, 2, size=(m, 2))
        for weights in (2.0 ** rng.uniform(-4, 4, size=m), np.full(m, 1e-3)):
            mu = AtomicMeasure(pos, weights)
            X = np.concatenate([
                pos,
                pos + 0.05,
                np.round(rng.uniform(-3, 3, size=(100, 2)), 1),
                rng.uniform(-3, 3, size=(100, 2)),
                rng.uniform(-1e3, 1e3, size=(20, 2)),
            ])
            for p in (2.5, 6.0):
                got, w = _radii(mu, p, X)
                want = _radius_rows(mu, 1.0 / (p - 2), X, mu.m)
                widened += w
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert widened > 0


@pytest.mark.parametrize("n,p,seed", [(1, 1.5, 0), (1, 3.0, 1), (2, 2.5, 2), (2, 3.0, 3)])
def test_layer_bracket_bounds_radius_on_box(n, p, seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 40))
    mu = AtomicMeasure(rng.uniform(-2, 2, size=(m, n)), 2.0 ** rng.uniform(-2, 2, size=m))
    box = _default_box(mu, p, 4.0)
    fixed = np.concatenate([mu.positions, _corners(box), box.center[None, :]])
    bracket = float(np.max(concentration_radius_batch(mu, p, fixed))) + box.half_side
    axes = [np.linspace(box.lo[d], box.hi[d], 2001 if n == 1 else 121) for d in range(n)]
    sample = np.array(list(itertools.product(*axes)))
    assert np.max(concentration_radius_batch(mu, p, sample)) <= bracket


def _set_lattice(mu, box, j, h):
    """Reference: the union of per-atom index ranges as a set of tuples."""
    reach = 2.0 ** (-j) + h
    lo = box.lo
    max_idx = np.maximum(np.ceil((box.hi - lo) / h).astype(int), 0)
    keys = set()
    for a in mu.positions:
        i0 = np.maximum(np.floor((a - reach - lo) / h).astype(int), 0)
        i1 = np.minimum(np.ceil((a + reach - lo) / h).astype(int), max_idx)
        if np.any(i1 < i0):
            continue
        keys.update(itertools.product(*[range(int(i0[d]), int(i1[d]) + 1) for d in range(mu.n)]))
    if not keys:
        return np.zeros((0, mu.n))
    return lo[None, :] + np.array(sorted(keys), dtype=float) * h


def test_layer_candidate_grid_1d_matches_loop():
    rng = np.random.default_rng(9)
    mu = AtomicMeasure(rng.uniform(-5, 5, size=(50, 1)), np.ones(50))
    # the second box leaves most atoms, and for fine layers every range, outside
    for box in (_default_box(mu, 2.0, 4.0), Cube(np.array([7.0]), 1.0)):
        for j in range(-4, 8):
            for theta in (0.125, 0.03125):
                h = theta * 2.0 ** (-j)
                got = _layer_candidate_grid(mu.positions, box, j, h)[0]
                want = _set_lattice(mu, box, j, h)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("which", ["grid3", "grid4", "uniform1d"])
def test_layer_candidate_grid_matches_set_lattice_on_every_layer(which):
    if which == "uniform1d":
        rng = np.random.default_rng(0)
        mu = AtomicMeasure(rng.uniform(0, 1, size=(256, 1)), 2.0 ** rng.uniform(-2, 2, size=256))
        prm = Params(p=2.0)
    else:
        mu, prm = heavy_grid(int(which[-1])), Params(p=3.0)
    box = _default_box(mu, prm.p, 4.0)
    for theta in (0.125, 0.0625):
        _, shape = _build_once(mu, prm, box, theta)
        for j in range(shape["j_min"], shape["j_max"] + 1):
            h = theta * 2.0 ** (-j)
            got = _layer_candidate_grid(mu.positions, box, j, h)[0]
            want = _set_lattice(mu, box, j, h)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_layer_candidate_grid_far_apart_atoms():
    # (index range per axis)^2 overflows int64; the atoms reach a few points each
    mu = AtomicMeasure([[-1e5, 0.0], [1e5, 3e5], [1e5, 3e5 + 1e-6]], [1.0, 1.0, 1.0])
    box = Cube(np.array([0.0, 1e5]), 1e6)
    j = 20
    h = 0.125 * 2.0 ** (-j)
    assert (2e6 / h) ** 2 > 2.0**63
    got = _layer_candidate_grid(mu.positions, box, j, h)[0]
    want = _set_lattice(mu, box, j, h)
    assert got.shape[0] > 0 and got.shape == want.shape and got.tobytes() == want.tobytes()


def _enumerated_lattice(A, box, j, h):
    """Reference: every atom's index box enumerated entry by entry, then a
    lexicographic sort with repeats dropped (the points only)."""
    reach = 2.0 ** (-j) + h
    lo = box.lo
    n = A.shape[1]
    max_idx = np.maximum(np.ceil((box.hi - lo) / h).astype(int), 0)
    i0 = np.maximum(np.floor((A - reach - lo) / h).astype(int), 0)
    i1 = np.minimum(np.ceil((A + reach - lo) / h).astype(int), max_idx)
    keep = np.flatnonzero(np.all(i1 >= i0, axis=1))
    i0, i1 = i0[keep], i1[keep]
    if not keep.shape[0]:
        return np.zeros((0, n))
    counts = i1 - i0 + 1
    sizes = np.prod(counts, axis=1)
    atom = np.repeat(np.arange(sizes.shape[0]), sizes)
    t = np.arange(int(sizes.sum())) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    idx = np.empty((t.shape[0], n), dtype=int)
    for d in range(n - 1, 0, -1):
        c = counts[atom, d]
        idx[:, d] = i0[atom, d] + t % c
        t //= c
    idx[:, 0] = i0[atom, 0] + t
    idx = idx[np.lexsort(idx.T[::-1])]
    new = np.concatenate([[True], np.any(idx[1:] != idx[:-1], axis=1)])
    return lo[None, :] + idx[new].astype(float) * h


def test_layer_candidate_grid_1d_interval_union_matches_enumeration():
    """The 1d union of index intervals keeps the rows and order of the entry-by-entry
    enumeration, bit for bit: every layer of the large1d-sized input and of the 1d
    suite, coincident and adjacent intervals, and boxes that clip or miss the atoms."""
    rng = np.random.default_rng(0)
    cases = [(AtomicMeasure(rng.uniform(0, 1, size=(256, 1)), 2.0 ** rng.uniform(-2, 2, size=256)), 2.0)]
    cases += [(inst.mu, inst.p) for inst in suite_1d(40)]
    cases.append((AtomicMeasure([[0.0], [0.0 + 2.0**-40], [1.0], [1.5], [3.0]], np.ones(5)), 2.0))
    rows = 0
    for mu, p in cases:
        box = _default_box(mu, p, 4.0)
        for theta in (0.125, 0.0625):
            _, shape = _build_once(mu, Params(p=p), box, theta)
            for j in range(shape["j_min"] - 1, shape["j_max"] + 2):
                h = max(theta * 2.0 ** (-j), 2.0 * box.half_side * 2.0**-62)
                for b in (box, Cube(box.center + 0.75 * box.half_side, box.half_side / 2), Cube(box.hi + 1.0, 0.5)):
                    got, row, atom = _layer_candidate_grid(mu.positions, b, j, h)
                    want = _enumerated_lattice(mu.positions, b, j, h)
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()
                    assert row is None and atom is None or got.shape[0] == 0
                    rows += got.shape[0]
    assert rows > 0


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("weight", [1e12, 1e18, 1e60])
def test_build_net_extreme_masses(n, weight):
    # the finest layers' spacing is far below float resolution of the box: the
    # lattice index ranges overflowed int64 ("invalid dims" from numpy) at 1e18 in 2d
    mu = AtomicMeasure([[0.0] * n, [1.0] * n], [weight, weight])
    prm = Params(p=3.0)
    net = build_net(mu, prm)
    rep = verify_concentration(net, mu)
    assert rep.ok, rep.checks


def _scan_layer_net(cand, radii, eps):
    """Reference: the candidate-by-candidate scan against the kept points."""
    order = np.lexsort(cand.T[::-1])
    keep_pts, keep_r = [], []
    for i in order:
        x, r = cand[i], radii[i]
        if keep_pts:
            P = np.array(keep_pts)
            rho = np.max(np.abs(P - x), axis=1) + np.array(keep_r) + r
            if np.min(rho) < eps:
                continue
        keep_pts.append(x)
        keep_r.append(float(r))
    if not keep_pts:
        return np.zeros((0, cand.shape[1])), np.zeros(0)
    return np.array(keep_pts), np.array(keep_r)


@pytest.mark.parametrize("n", [1, 2])
def test_layer_sweep_matches_scan(n):
    rng = np.random.default_rng(31 + n)
    for _ in range(40):
        k = int(rng.integers(1, 400))
        # coarse coordinates tie in the leading axes; few distinct radii
        digits = int(rng.integers(0, 3))
        cand = np.unique(np.round(rng.uniform(-4, 4, size=(k, n)), digits), axis=0)
        cand = cand[rng.permutation(cand.shape[0])]
        radii = rng.choice(2.0 ** -rng.integers(0, 4, size=3), size=cand.shape[0])
        eps = float(rng.choice([0.1, 0.5, 1.0, 3.0, 7.0]))
        got_p, got_r = _greedy_layer_net(cand, radii, eps)
        want_p, want_r = _scan_layer_net(cand, radii, eps)
        assert got_p.tobytes() == want_p.tobytes() and got_r.tobytes() == want_r.tobytes()
        assert got_p.shape == want_p.shape


def _loop_prune(P, R, L):
    """Reference: test each point against the concatenated finer layers."""
    kept = []
    for x, r, j in zip(P, R, L):
        eps = 14.0 * 2.0 ** (-j)
        finer = L > j
        if finer.any():
            rho = np.max(np.abs(P[finer] - x), axis=1) + R[finer] + r
            if np.min(rho) <= eps:
                kept.append(False)
                continue
        kept.append(True)
    return np.array(kept, dtype=bool)


def _loop_separate(P, R):
    """Reference: test each point, finest first, against every kept point."""
    order = np.lexsort((*P.T[::-1], R))
    keep = []
    for i in order:
        ok = True
        for k in keep:
            if 6.0 * (R[i] + R[k]) > np.max(np.abs(P[i] - P[k])):
                ok = False
                break
        if ok:
            keep.append(i)
    return np.array(keep, dtype=int)


@pytest.mark.parametrize("n", [1, 2])
def test_prune_and_separation_match_loops(n):
    rng = np.random.default_rng(40 + n)
    pruned = merged = ties = 0
    for _ in range(60):
        # layers coarse to fine, tied radii within a layer, points on a dyadic
        # lattice so that points of one or of different layers coincide and
        # some sums |e - e'| + R' + R equal 14 2^-j exactly
        js = np.sort(rng.choice(np.arange(-1, 5), size=int(rng.integers(1, 5)), replace=False))
        L = np.concatenate([np.full(int(rng.integers(1, 150)), j) for j in js])
        R = 2.0 ** -L * rng.choice([0.5, 0.75, 1.0], size=L.shape[0])
        P = np.round(rng.uniform(-8, 8, size=(L.shape[0], n)) * 8) / 8
        kept = _prune(P, R, L)
        assert kept.tobytes() == _loop_prune(P, R, L).tobytes()
        pruned += int((~kept).sum())
        D = np.max(np.abs(P[:, None, :] - P[None, :, :]), axis=2)
        ties += int(np.sum((L[None, :] > L[:, None]) & ((D + R[None, :]) + R[:, None] == 14.0 * 2.0 ** -L[:, None])))
        P, R = P[kept], R[kept]
        sep = _separate(P, R)
        assert sep.tobytes() == _loop_separate(P, R).tobytes()
        merged += int(np.any(np.all(P[sep][:, None] == P[None, :], axis=2).sum(axis=1) > 1))
    assert pruned > 100 and merged > 10 and ties > 10


def test_nets_match_pinned_digest():
    # the nets of the acceptance suites and the small heavy grids, bit for bit
    h = hashlib.sha256()
    cases = [(inst.mu, inst.p) for inst in suite_1d() + suite_2d()]
    cases += [(heavy_grid(k), 3.0) for k in (2, 3, 4, 5)]
    for mu, p in cases:
        net = build_net(mu, Params(p=p))
        for a in (net.points, net.radii, net.layers.astype(np.int64)):
            h.update(a.tobytes())
    assert h.hexdigest() == "8aa5a5df98f99c50393731c8f1e7bb219cea8c2c1cc8afae1fcd0f9f75f2746a"


def _loop_build_once(mu, params, box, theta):
    """Reference: every lattice row of every layer through the radius kernel, one call per layer."""
    p, n = params.p, mu.n
    kappa = 1.0 / (p - n)
    fixed_pts = np.concatenate([mu.positions, _corners(box)], axis=0)
    RF, _ = _radii(mu, p, np.concatenate([fixed_pts, box.center[None, :]], axis=0))
    j_min = _layer_of(float(np.max(RF)) + box.half_side)
    j_max = _layer_of(mu.total_mass ** (-kappa))
    layer_pts, layer_R, layer_j = [], [], []
    for j in range(j_min, j_max + 1):
        h = max(theta * 2.0 ** (-j), 2.0 * box.half_side * 2.0**-62)
        cand = np.concatenate([_layer_candidate_grid(mu.positions, box, j, h)[0], fixed_pts], axis=0)
        cand = cand[np.lexsort(cand.T[::-1])]
        cand = cand[np.concatenate([[True], np.any(cand[1:] != cand[:-1], axis=1)])]
        R, _ = _radii(mu, p, cand)
        mask = (R > 2.0 ** (-j - 1)) & (R <= 2.0 ** (-j))
        mask &= np.max(np.abs(cand - box.center), axis=1) <= box.half_side * (1 + 1e-12)
        if mask.any():
            bp, br = _greedy_layer_net(cand[mask], R[mask], 14.0 * 2.0 ** (-j))
            layer_pts.append(bp)
            layer_R.append(br)
            layer_j.append(np.full(br.shape[0], j))
    P, R, L = np.concatenate(layer_pts), np.concatenate(layer_R), np.concatenate(layer_j)
    kept = _prune(P, R, L)
    P, R, L = P[kept], R[kept], L[kept]
    sep = _separate(P, R)
    return P[sep], R[sep], L[sep], j_min, j_max


def _screen_cases():
    cases = [(f"suite1d-{i.seed}", i.mu, i.p) for i in suite_1d()]
    cases += [(f"suite2d-{i.seed}", i.mu, i.p) for i in suite_2d()]
    cases += [(f"grid{k}", heavy_grid(k), 3.0) for k in (2, 3, 4, 5)]
    # the large1d benchmark input and the 2d uniform ladder rung
    rng = np.random.default_rng([0, 0])
    pos, w = rng.uniform(0.0, 1.0, size=(256, 1)), 2.0 ** rng.uniform(-2.0, 2.0, size=256)
    cases.append(("uniform1d-256", AtomicMeasure.from_atoms(pos, w)[0], 2.0))
    rng = np.random.default_rng(0)
    cases.append(("uniform2d-128", AtomicMeasure(rng.uniform(0, 1, size=(128, 2)), 2.0 ** rng.uniform(-2, 2, size=128)), 3.0))
    for n in (1, 2):
        cases.append((f"one-atom-{n}d", AtomicMeasure([[0.3] * n], [1.0]), n + 1.0))
        # coincident atoms, one of them at -0.0
        pos = [[0.0] * n, [0.0] * n, [1.0] * n, [1.0] * n, [-0.0] * n]
        cases.append((f"coincident-{n}d", AtomicMeasure(pos, [1.0, 2.0, 3.0, 1.0, 0.5]), n + 0.5))
        for weight in (1e12, 1e18, 1e36, 1e60):
            cases.append((f"w{weight:g}-{n}d", AtomicMeasure([[0.0] * n, [1.0] * n], [weight, weight]), 3.0))
    return cases


def test_screened_build_bit_equal_to_loop():
    # the screen and the blocked kernel pass leave every net of the unscreened build
    checked = 0
    for name, mu, p in _screen_cases():
        prm = Params(p=p)
        box = _default_box(mu, p, 4.0)
        for theta in (0.125, 0.0625):
            net, shape = _build_once(mu, prm, box, theta)
            P, R, L, j_min, j_max = _loop_build_once(mu, prm, box, theta)
            assert (shape["j_min"], shape["j_max"]) == (j_min, j_max), name
            assert net.points.shape == P.shape, name
            assert net.points.tobytes() == P.tobytes(), name
            assert net.radii.tobytes() == R.tobytes(), name
            assert net.layers.astype(np.int64).tobytes() == L.astype(np.int64).tobytes(), name
            work = net.stats
            assert work["radius_rows"] == work["lattice_rows"] - work["skipped_rows"] + mu.m + 2**mu.n + 1
            checked += 1
    assert checked == 2 * (200 + 50 + 4 + 2 + 2 * 6)


def _random_measure(rng, n, offset):
    m = int(rng.integers(1, 60))
    return AtomicMeasure(
        offset + rng.uniform(-1, 1, size=(m, n)) * 10.0 ** rng.uniform(-3, 1),
        10.0 ** rng.uniform(-12, 12, size=m),
    )


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_radius_bounds_hold_against_brute_force(n, offset):
    rng = np.random.default_rng(int(offset) + n)
    tight = 0
    for _ in range(12):
        mu = _random_measure(rng, n, offset)
        p = float(rng.choice([n + 0.2, n + 1.0, n + 4.0]))
        box = _default_box(mu, p, 4.0)
        RA, _ = _radii(mu, p, mu.positions)
        j = int(rng.integers(_layer_of(2.0 * box.half_side), _layer_of(box.half_side / 64)))
        h = 0.125 * 2.0**-j
        if n == 1:
            # any rows: the bounds are over every atom
            X = box.lo + rng.random((400, n)) * 2.0 * box.half_side
            X = np.concatenate([X, mu.positions, mu.positions + 1e-9 * box.half_side])
            dist, lb, ub = _sorted_bounds(mu, RA)(X, None, None)
        else:
            # lattice rows and the atoms reaching them
            X, row, atom = _layer_candidate_grid(mu.positions, box, j, h)
            assert np.all(np.diff(row) >= 0) and np.unique(row).shape[0] == X.shape[0]
            dist, lb, ub = _reach_bounds(mu.positions, RA)(X, row, atom)
        R, _ = _radii(mu, p, X)
        tol = np.array([_screen_tol(mu, p, box, r) for r in R])
        # brute force over every atom, and over the atoms within the lattice's reach
        D = np.max(np.abs(X[:, None, :] - mu.positions[None, :, :]), axis=2)
        brute_lb, brute_ub = np.max(RA - D, axis=1), np.min(RA + D, axis=1)
        if n == 1:
            assert np.array_equal(dist, np.min(D, axis=1))
            assert np.all(np.abs(lb - brute_lb) <= tol) and np.all(np.abs(ub - brute_ub) <= tol)
        else:
            # no tighter than every atom, no looser than the atoms within 2^-j (they all reach)
            reach = D <= 2.0**-j
            has = reach.any(axis=1)
            assert np.array_equal(dist[has], np.min(D, axis=1)[has]) and np.all(dist >= np.min(D, axis=1))
            assert np.all(lb <= brute_lb + tol) and np.all(ub >= brute_ub - tol)
            assert np.all(lb >= np.max(np.where(reach, RA - D, -np.inf), axis=1) - tol)
            assert np.all(ub <= np.min(np.where(reach, RA + D, np.inf), axis=1) + tol)
        assert np.all(lb - tol <= R) and np.all(R <= ub + tol) and np.all(dist[R <= 2.0**-j] <= R[R <= 2.0**-j])
        tight += int(np.sum(np.minimum(R - lb, ub - R) <= 1e-3 * R))
    assert tight > 0


@pytest.mark.parametrize("n", [1, 2])
def test_screen_keeps_every_row_of_its_layer(n):
    # every lattice row with R in (2^-j-1, 2^-j] inside the box survives the screen
    rng = np.random.default_rng(70 + n)
    cases = [(_random_measure(rng, n, offset), float(rng.choice([n + 0.2, n + 1.0, n + 4.0])))
             for offset in (0.0, 0.0, 0.0, 1e6, 1e6)]
    cases.append((heavy_grid(3, n), 3.0))
    rows = kept = in_layer = 0
    for mu, p in cases:
        box = _default_box(mu, p, 4.0)
        fixed = np.concatenate([mu.positions, _corners(box), box.center[None, :]])
        RF, _ = _radii(mu, p, fixed)
        RA = RF[: mu.m]
        bounds = _sorted_bounds(mu, RA) if n == 1 else _reach_bounds(mu.positions, RA)
        layers = np.arange(_layer_of(float(np.max(RF)) + box.half_side), _layer_of(mu.total_mass ** (-1.0 / (p - n))) + 1)
        # up to ten layers, the coarsest among them
        layers = np.unique(np.concatenate([layers[:2], rng.choice(layers, size=min(8, layers.size), replace=False)]))
        for j in layers.tolist():
            for theta in (0.125, 0.0625):
                h = max(theta * 2.0**-j, 2.0 * box.half_side * 2.0**-62)
                X = _layer_candidate_grid(mu.positions, box, j, h)[0]
                R, _ = _radii(mu, p, X)
                inside = np.max(np.abs(X - box.center), axis=1) <= box.half_side * (1 + 1e-12)
                want = X[inside & (R > 2.0 ** (-j - 1)) & (R <= 2.0**-j)]
                got, count = _layer_rows(mu, p, box, RA, bounds, j, h)
                assert count <= X.shape[0]
                assert np.all(np.max(np.abs(got - box.center), axis=1) <= box.half_side * (1 + 1e-12))
                assert {r.tobytes() for r in want} <= {r.tobytes() for r in got}
                rows, kept, in_layer = rows + X.shape[0], kept + got.shape[0], in_layer + want.shape[0]
    assert in_layer > 0 and kept < rows / 2


def test_covering_violations_match_per_point_loop():
    rng = np.random.default_rng(4)
    for n, p in [(1, 2.0), (2, 3.0)]:
        mu = AtomicMeasure(rng.uniform(-3, 3, size=(12, n)), rng.uniform(0.3, 3.0, size=12))
        full = build_net(mu, Params(p=p))
        # inflated net radii violate the covering bound near the atoms only
        net = dataclasses.replace(full, radii=full.radii * 1e3)
        X = full.working_box.lo + rng.random((300, n)) * 2 * full.working_box.half_side
        RX = concentration_radius_batch(mu, p, X)
        bound = 83.0 * (1.0 + net.delta_grid)
        want = []
        for i in range(X.shape[0]):
            lhs = covering_lhs(net, X[i])
            if lhs > bound * RX[i] * (1 + 1e-12):
                want.append((X[i], lhs / RX[i], bound))
        got = covering_violations(net, mu, X)
        assert 0 < len(want) < X.shape[0] and len(got) == len(want)
        for (x1, r1, b1), (x2, r2, b2) in zip(got, want):
            assert np.array_equal(x1, x2) and r1 == r2 and b1 == b2


def test_build_net_logs_one_info_line(caplog):
    rng = np.random.default_rng(2)
    m = 3 * _WINDOW
    mu = AtomicMeasure(rng.uniform(0, 1, size=(m, 1)), np.full(m, 0.01))
    with caplog.at_level(logging.INFO, logger="sumspace.concentration"):
        net = build_net(mu, Params(p=2.0))
    (record,) = [r for r in caplog.records if r.name == "sumspace.concentration"]
    msg = record.getMessage()
    assert msg.startswith(f"net: m={m} n=1 p=2, layers ")
    assert f"{net.size} points, 1 rounds, theta 0.125" in msg
    widened = int(msg.split(" widened radius rows")[0].rsplit(" ", 1)[1])
    assert widened > 0
    lattice = int(msg.split(" lattice rows")[0].rsplit(" ", 1)[1])
    skipped = int(msg.split(" skipped by the radius screen")[0].rsplit(" ", 1)[1])
    rows, blocks = (int(v) for v in msg.split(" kernel blocks")[0].rsplit(", ", 1)[1].split(" radius rows in "))
    assert lattice > skipped > 0
    # the survivors and the layer-range batch of atoms, corners and center
    assert rows == lattice - skipped + m + 3
    # both passes in blocks of _ROW_BLOCK rows
    assert blocks == -(-(m + 3) // _ROW_BLOCK) + -(-(lattice - skipped) // _ROW_BLOCK)
    kept = int(msg.split("layer sweeps kept ")[1].split(",")[0])
    pruned = int(msg.split("pruning left ")[1].split(",")[0])
    j_min, j_max = (int(v) for v in msg.split("layers ")[1].split(",")[0].split(".."))
    assert net.stats == {
        "lattice_rows": lattice, "skipped_rows": skipped, "radius_rows": rows,
        "kernel_blocks": blocks, "widened_rows": widened, "rounds": 1,
        "j_min": j_min, "j_max": j_max, "kept": kept, "pruned": pruned,
    }
    assert j_min <= int(net.layers.min()) <= int(net.layers.max()) <= j_max
    assert f"separation left {net.size} points" in msg
    assert kept >= pruned >= net.size >= 1
    caplog.clear()
    with caplog.at_level(logging.ERROR, logger="sumspace.concentration"):
        build_net(mu, Params(p=2.0))
    assert not caplog.records


def test_build_net_memory_scales_with_atoms():
    # the dense all-pairs build needed several GiB here
    rng = np.random.default_rng(0)
    m = 512
    mu = AtomicMeasure(rng.uniform(0, 1, size=(m, 1)), 2.0 ** rng.uniform(-2, 2, size=m))
    tracemalloc.start()
    try:
        build_net(mu, Params(p=2.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
