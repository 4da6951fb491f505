import numpy as np
import pytest

from sumspace.geometry import (
    Cube,
    CubeFamily,
    DegreeBoundError,
    color_disjoint,
    cube_contains,
    cube_point_gaps,
    cubes_intersect,
    greedy_disjoint,
    meeting_pairs,
    near_pairs,
    select_min_disjoint,
)
from sumspace.geometry import _bands


def test_cube_invariants():
    q = Cube([0.0, 0.0], 1.5)
    assert q.diam == 3.0
    assert np.allclose(q.scaled(2.0).half_side, 3.0)
    with pytest.raises(ValueError):
        Cube([0.0], 0.0)


def test_closed_intersection_and_containment():
    # [-1,1] and [1,3] share the point 1
    assert cubes_intersect(Cube([0.0], 1.0), Cube([2.0], 1.0))
    assert not cubes_intersect(Cube([0.0], 1.0), Cube([2.5], 1.0))
    assert cube_contains(Cube([0.0], 2.0), Cube([0.5], 1.0))
    assert not cube_contains(Cube([0.0], 2.0), Cube([1.5], 1.0))


def test_cube_point_gaps_worked_values():
    assert list(cube_point_gaps([[0.0], [0.0]], [1.0, 1.0], [[3.0], [-0.5]])) == [2.0, 0.0]
    assert cube_point_gaps([[0.0, 0.0]], [1.0], [[0.5, 0.5]])[0] == 0.0
    # one cube against many points: the nearest is 0.5 away
    assert list(cube_point_gaps([0.0], 1.0, [[3.0], [1.5]])) == [2.0, 0.5]


@pytest.mark.parametrize("n", [1, 2])
def test_cube_point_gaps_match_scalar_loop(n):
    rng = np.random.default_rng(60 + n)
    c, h = _random_cubes(rng, 300, n)
    x = np.concatenate([_random_cubes(rng, 200, n)[0], c[200:] + h[200:, None]])  # own corners last
    gaps = cube_point_gaps(c, h, x)
    loop = [
        max(max(abs(float(a) - float(b)) - float(r), 0.0) for a, b in zip(ck, xk))
        for ck, r, xk in zip(c, h, x)
    ]
    assert gaps.tobytes() == np.array(loop).tobytes()
    assert np.count_nonzero(gaps == 0.0) > 100
    # one cube broadcast against every point gives its row of the aligned form
    assert cube_point_gaps(c[7], h[7], x).tobytes() == cube_point_gaps(c[[7] * 300], h[[7] * 300], x).tobytes()


def test_select_min_disjoint_worked_example():
    fam = CubeFamily([Cube([0.0], 1.0), Cube([0.5], 1.0), Cube([3.0], 0.5)])
    out = select_min_disjoint(fam)
    # min-diam cube (id 2) first, then id 0 by tie-break; id 1 swallowed
    assert list(out.ids) == [2, 0]


def test_select_min_disjoint_trivia():
    single = CubeFamily([Cube([0.0], 1.0)])
    assert list(select_min_disjoint(single).ids) == [0]
    disjoint = CubeFamily([Cube([0.0], 1.0), Cube([10.0], 1.0), Cube([20.0], 2.0)])
    assert sorted(select_min_disjoint(disjoint).ids) == [0, 1, 2]
    empty = CubeFamily([])
    assert len(select_min_disjoint(empty)) == 0


def _dense_intersection(fam):
    """Reference: the boolean matrix of pairwise closed-cube intersections (diagonal True)."""
    c, h = fam.centers, fam.halves
    gaps = np.abs(c[:, None, :] - c[None, :, :]) - (h[:, None] + h[None, :])[..., None]
    return np.all(gaps <= 0.0, axis=2)


def _random_family(rng, n, k):
    cubes = []
    for _ in range(k):
        c = rng.uniform(-10, 10, size=n)
        r = rng.uniform(0.05, 3.0)
        cubes.append(Cube(c, r))
    return CubeFamily(cubes)


@pytest.mark.parametrize("n", [1, 2])
def test_select_min_disjoint_properties_random(n):
    rng = np.random.default_rng(12345 + n)
    for _ in range(200):
        fam = _random_family(rng, n, int(rng.integers(1, 25)))
        out = select_min_disjoint(fam)
        assert out.pairwise_disjoint()
        for q in fam:
            hits = [
                k
                for k in out
                if cubes_intersect(q, k) and k.half_side <= q.half_side * (1 + 1e-12)
            ]
            assert hits, "every cube must meet a selected cube of no larger diameter"


def test_color_disjoint_trivia():
    disjoint = CubeFamily([Cube([0.0], 1.0), Cube([10.0], 1.0)])
    classes = color_disjoint(disjoint, max_degree=0)
    assert len(classes) == 1
    assert color_disjoint(CubeFamily([]), 3) == []


def test_color_disjoint_chain():
    fam = CubeFamily([Cube([0.0], 1.0), Cube([1.5], 1.0), Cube([3.0], 1.0)])
    classes = color_disjoint(fam, max_degree=2)
    assert len(classes) <= 3
    for cl in classes:
        assert cl.pairwise_disjoint()
    assert sum(len(c) for c in classes) == 3


def test_color_disjoint_detects_degree_violation():
    fam = CubeFamily([Cube([0.0], 1.0), Cube([0.5], 1.0), Cube([1.0], 1.0)])
    with pytest.raises(DegreeBoundError):
        color_disjoint(fam, max_degree=1)


@pytest.mark.parametrize("n", [1, 2])
def test_color_disjoint_random(n):
    rng = np.random.default_rng(999 + n)
    for _ in range(150):
        fam = _random_family(rng, n, int(rng.integers(1, 20)))
        inter = _dense_intersection(fam)
        np.fill_diagonal(inter, False)
        max_deg = int(inter.sum(axis=1).max()) if len(fam) else 0
        classes = color_disjoint(fam, max_degree=max_deg)
        assert len(classes) <= max_deg + 1
        for cl in classes:
            assert cl.pairwise_disjoint()
        assert sum(len(c) for c in classes) == len(fam)


def _random_cubes(rng, k, n):
    """Cubes on a coarse lattice with half sides over five octaves: touching
    faces, shared centres, nested cubes and points (half side 0)."""
    c = np.round(rng.uniform(-4, 4, size=(k, n)) * 2) / 2
    h = 2.0 ** rng.integers(-3, 2, size=k) * (rng.random(k) > 0.1)
    return c, h


@pytest.mark.parametrize("n", [1, 2])
def test_near_pairs_hold_every_meeting_pair(n):
    rng = np.random.default_rng(70 + n)
    banded = 0
    for _ in range(40):
        ca, ha = _random_cubes(rng, int(rng.integers(1, 600)), n)
        cb, hb = _random_cubes(rng, int(rng.integers(1, 600)), n)
        banded += len(_bands(ca, ha)) > 1
        for c2, h2 in ((cb, hb), (ca, ha)):
            i, j = near_pairs(ca, ha, cb, hb) if c2 is cb else near_pairs(ca, ha)
            d = np.max(np.abs(ca[:, None, :] - c2[None, :, :]), axis=2)
            found = np.zeros(d.shape, dtype=bool)
            found[i, j] = True
            assert not np.any((d <= ha[:, None] + h2[None, :]) & ~found)
            key = i * h2.shape[0] + j
            assert np.all(np.diff(key) > 0) and i.dtype == j.dtype == np.intp
    assert banded > 10


def _dense_meeting(ca, ha, cb, hb):
    """Reference: every pair tested, in row-major order (by ``i``, then ``j``)."""
    meet = np.all(np.abs(ca[:, None, :] - cb[None, :, :]) <= (ha[:, None] + hb[None, :])[..., None], axis=2)
    return np.nonzero(meet)


@pytest.mark.parametrize("n", [1, 2])
def test_meeting_pairs_match_dense_reference(n):
    rng = np.random.default_rng(90 + n)
    sizes = [(0, 5), (5, 0), (0, 0), (1, 1), (40, 100), (64, 64), (65, 64), (300, 20), (500, 400)]
    sizes += [tuple(rng.integers(1, 600, size=2)) for _ in range(12)]
    for ka, kb in sizes:
        ca, ha = _random_cubes(rng, int(ka), n)
        cb, hb = _random_cubes(rng, int(kb), n)
        for c in (ca, cb):
            c[rng.random(c.shape) < 0.5] *= -1.0  # -0.0 coordinates among the zeros
        ref = _dense_meeting(ca, ha, cb, hb)
        got = meeting_pairs(ca, ha, cb, hb)
        assert all(np.array_equal(g, r) for g, r in zip(got, ref)), (ka, kb)
        # self mode, and the same family passed as a second one: only self mode drops i == j
        i, j = _dense_meeting(ca, ha, ca, ha)
        si, sj = meeting_pairs(ca, ha)
        assert np.array_equal(si, i[i != j]) and np.array_equal(sj, j[i != j])
        ti, tj = meeting_pairs(ca, ha, ca, ha)
        assert np.array_equal(ti, i) and np.array_equal(tj, j)
        assert np.count_nonzero(ti == tj) == ka
        for x in (got, (si, sj)):
            assert x[0].dtype == x[1].dtype == np.intp
    # both sides of the all-pairs shortcut were met
    assert min(a * b for a, b in sizes) <= 64**2 < max(a * b for a, b in sizes)


def test_near_pairs_stay_near_linear_across_scales():
    """2000 touching unit cubes on a line with, past each end, a tail of
    single cubes doubling in size: the tail's exponents hold too few cubes
    for a band of their own, and joined at the reach of the coarsest one
    they would pair with every fine cube.  Points at the fine centres
    against the tail, and the tail against itself, stay small too."""
    fine_c = np.arange(2000.0)[:, None]
    tail_h = 2.0 ** np.arange(1, 12)
    edge = np.cumsum(2.0 * tail_h) - tail_h  # centres of the tail past 1999.5
    tail_c = np.concatenate([1999.5 + edge, -0.5 - edge])[:, None]
    c = np.concatenate([fine_c, tail_c])
    h = np.concatenate([np.full(2000, 0.5), tail_h, tail_h])
    i, j = near_pairs(c, h)
    assert i.size <= 4 * h.size and len(_bands(c, h)) == 2
    meet = np.all(np.abs(c[i] - c[j]) <= (h[i] + h[j])[:, None], axis=1)
    # every cube with itself, and in both orders 1999 fine contacts and one
    # per tail cube with the cube before it
    assert meet.sum() == h.size + 2 * (1999 + 22)
    i, j = near_pairs(tail_c, np.concatenate([tail_h, tail_h]), fine_c, np.zeros(2000))
    assert i.size <= 4 * tail_h.size * 2


def _loop_greedy_disjoint(c, h):
    """Reference: test each cube against every kept cube before it."""
    kept_c, kept_h, keep = np.zeros((0, c.shape[1])), np.zeros(0), []
    for q, r in zip(c, h):
        clash = bool(kept_h.size) and bool(
            np.any(np.all(np.abs(q[None, :] - kept_c) <= (r + kept_h)[:, None], axis=1))
        )
        keep.append(not clash)
        if not clash:
            kept_c = np.concatenate([kept_c, q[None, :]], axis=0)
            kept_h = np.append(kept_h, r)
    return np.array(keep)


@pytest.mark.parametrize("n", [1, 2])
def test_greedy_disjoint_matches_loop(n):
    rng = np.random.default_rng(80 + n)
    chains = 0
    for _ in range(40):
        c, h = _random_cubes(rng, int(rng.integers(1, 300)), n)
        h = np.where(h > 0, h, 0.25)
        keep = greedy_disjoint(c, h)
        assert np.array_equal(keep, _loop_greedy_disjoint(c, h))
        # a cube kept although it meets an earlier, dropped cube
        inter = _dense_intersection(CubeFamily([Cube(x, r) for x, r in zip(c, h)]))
        chains += sum(keep[j] and inter[j, :j].any() for j in range(len(h)))
    assert chains > 0


def _dense_pairwise_disjoint(fam):
    m = _dense_intersection(fam)
    np.fill_diagonal(m, False)
    return not m.any()


def _dense_select_min_disjoint(fam):
    """Reference: take the smallest live cube (ties by id), discard all it meets."""
    inter = _dense_intersection(fam)
    alive = np.ones(len(fam), dtype=bool)
    chosen = []
    for i in np.lexsort((fam.ids, fam.halves)):
        if not alive[i]:
            continue
        chosen.append(i)
        alive &= ~inter[i]
    return fam.subset(np.array(chosen, dtype=np.intp))


def _dense_color_disjoint(fam, max_degree):
    """Reference: first-fit in id order over the dense intersection matrix."""
    k = len(fam)
    if k == 0:
        return []
    inter = _dense_intersection(fam)
    np.fill_diagonal(inter, False)
    degrees = inter.sum(axis=1)
    worst = int(np.argmax(degrees))
    if degrees[worst] > max_degree:
        raise DegreeBoundError(int(fam.ids[worst]), int(degrees[worst]), max_degree)
    color = np.full(k, -1, dtype=int)
    for i in np.argsort(fam.ids):
        used = {int(color[j]) for j in np.nonzero(inter[i])[0] if color[j] >= 0}
        c = 0
        while c in used:
            c += 1
        color[i] = c
    return [fam.subset(np.nonzero(color == c)[0]) for c in range(int(color.max()) + 1)]


def _shared_face_family(rng, n, k):
    """Cubes on a lattice of step 1/4 with half sides 1/4, 1/2 or 1 and shuffled
    ids: faces are shared exactly, half sides tie and some cubes coincide."""
    c = rng.integers(-12, 13, size=(k, n)) / 4.0
    h = 2.0 ** rng.integers(-2, 1, size=k)
    return CubeFamily.from_arrays(c, h, ids=rng.permutation(3 * k)[:k])


def _same_family(a, b):
    return all(x.tobytes() == y.tobytes() for x, y in zip(
        (a.centers, a.halves, a.ids), (b.centers, b.halves, b.ids)))


@pytest.mark.parametrize("n", [1, 2])
def test_disjoint_families_match_dense_reference(n):
    rng = np.random.default_rng(90 + n)
    touching = raised = 0
    for _ in range(300):
        # a large family at times, so that near_pairs joins trees
        k = int(rng.integers(1, 120 if rng.random() < 0.1 else 25))
        fam = _shared_face_family(rng, n, k)
        inter = _dense_intersection(fam)
        np.fill_diagonal(inter, False)
        i, j = meeting_pairs(fam.centers, fam.halves)
        assert np.array_equal(np.stack([i, j]), np.stack(np.nonzero(inter)))
        gaps = np.abs(fam.centers[:, None, :] - fam.centers[None, :, :])
        touching += int(np.sum(np.any(gaps == (fam.halves[:, None] + fam.halves[None, :])[..., None], axis=2) & inter))
        assert _same_family(select_min_disjoint(fam), _dense_select_min_disjoint(fam))
        part = fam.subset(np.nonzero(rng.random(k) < 0.3)[0])
        assert part.pairwise_disjoint() == _dense_pairwise_disjoint(part)
        deg = int(inter.sum(axis=1).max())
        got, want = color_disjoint(fam, deg), _dense_color_disjoint(fam, deg)
        assert len(got) == len(want) and all(map(_same_family, got, want))
        if deg:
            with pytest.raises(DegreeBoundError) as exc:
                color_disjoint(fam, deg - 1)
            with pytest.raises(DegreeBoundError) as ref:
                _dense_color_disjoint(fam, deg - 1)
            assert str(exc.value) == str(ref.value)
            raised += 1
    assert touching > 100 and raised > 100
