import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumspace.geometry import Cube, cube_contains
from sumspace.measure import (
    AtomicMeasure,
    SampledFunction,
    average,
    load_function,
    load_measure,
    lp_norm,
)


def delta(x, w=1.0):
    return AtomicMeasure([[x]], [w])


def test_mass_basic():
    mu = delta(0.0)
    assert mu.mass(Cube([0.0], 5.0)) == 1.0
    # boundary atom: 0 is on the edge of [0, 4]
    assert mu.mass(Cube([2.0], 2.0)) == 1.0
    two = AtomicMeasure([[0.0], [1.0]], [1.0, 1.0])
    assert two.mass(Cube([0.5], 0.1)) == 0.0


def test_mass_2d_grid_index():
    rng = np.random.default_rng(7)
    pos = rng.uniform(-5, 5, size=(40, 2))
    w = rng.uniform(0.1, 2.0, size=40)
    mu = AtomicMeasure(pos, w)
    for _ in range(100):
        c = rng.uniform(-6, 6, size=2)
        r = rng.uniform(0.01, 8.0)
        q = Cube(c, r)
        inside = np.max(np.abs(pos - c), axis=1) <= r
        assert mu.mass(q) == pytest.approx(w[inside].sum(), abs=0.0)


@pytest.mark.parametrize("n", [1, 2])
def test_mass_many_bit_equal_to_mass(n):
    rng = np.random.default_rng(40 + n)
    m = 300
    # atoms on a 0.25 lattice, so many sit exactly on faces of the 0.25-grid
    # cubes below; weights over 2^±30 make every summation order show
    pos = np.round(rng.uniform(-2, 2, size=(m, n)) * 4) / 4
    pos = pos + np.where(rng.random((m, 1)) < 0.5, 0.0, 1e-3)
    mu = AtomicMeasure(pos, 2.0 ** rng.uniform(-30, 30, size=m))
    lattice = np.round(rng.uniform(-2.5, 2.5, size=(200, n)) * 4) / 4
    C = np.concatenate([
        lattice,                                  # faces through lattice atoms
        lattice[:20],                             # coincident cubes
        np.full((3, n), 50.0),                    # empty cubes
        np.zeros((4, n)),                         # one cube over most atoms
    ])
    H = np.concatenate([
        rng.choice([0.25, 0.5, 0.75, 1.0], size=200),
        rng.choice([0.25, 0.5, 0.75, 1.0], size=20),
        np.full(3, 1.0),
        [2.0, 1.5, 1.25, 0.5],
    ])
    got = mu.mass_many(C, H)
    # each cube's weights summed alone, in ascending atom order
    masks = [np.max(np.abs(pos - C[k]), axis=1) <= H[k] for k in range(H.shape[0])]
    want = np.array([mu.weights[mask].sum() for mask in masks])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    counts = [int(mask.sum()) for mask in masks]
    assert min(counts) == 0 and max(counts) > 128 and sum(c > 8 for c in counts) > 100
    on_face = np.max(np.abs(mu.positions[None, :, :] - C[:, None, :]), axis=2) == H[:, None]
    assert on_face.sum() > 50
    # a mask-matrix product sums in another order and misses these bits
    inside = np.max(np.abs(C[:, None, :] - mu.positions[None, :, :]), axis=2) <= H[:, None]
    assert not np.array_equal(inside @ mu.weights, want)


def test_mass_many_checks_shapes():
    mu = AtomicMeasure([[0.0, 0.0]], [1.0])
    assert mu.mass_many(np.zeros((0, 2)), np.zeros(0)).shape == (0,)
    with pytest.raises(ValueError, match="dimension"):
        mu.mass_many(np.zeros((2, 1)), np.ones(2))


def test_average():
    mu = AtomicMeasure([[0.0], [1.0]], [1.0, 1.0])
    assert average(mu, [7.0, 3.0], Cube([0.0], 0.5)) == 7.0
    assert average(mu, [0.0, 1.0], Cube([0.5], 1.0)) == 0.5
    mu2 = AtomicMeasure([[0.0], [1.0]], [1.0, 3.0])
    assert average(mu2, [0.0, 1.0], Cube([0.5], 1.0)) == 0.75
    with pytest.raises(ValueError, match="null set"):
        average(mu, [0.0, 1.0], Cube([10.0], 0.5))


def test_lp_norm():
    mu = AtomicMeasure([[0.0], [1.0]], [1.0, 1.0])
    assert lp_norm(mu, [0.0, 0.0], 2.0) == 0.0
    assert lp_norm(mu, [3.0, 4.0], 2.0) == pytest.approx(5.0, rel=0, abs=1e-14)
    f = np.array([0.3, -1.7])
    assert lp_norm(mu, 2 * f, 1.5) == pytest.approx(2 * lp_norm(mu, f, 1.5), rel=1e-14)
    with pytest.raises(ValueError):
        lp_norm(mu, f, 0.5)


@settings(max_examples=40, deadline=None)
@given(st.floats(1.0, 6.0), st.floats(0.1, 10.0))
def test_lp_norm_homogeneity(p, alpha):
    mu = AtomicMeasure([[0.0], [1.0], [2.5]], [1.0, 2.0, 0.5])
    f = np.array([1.0, -2.0, 0.3])
    assert lp_norm(mu, alpha * f, p) == pytest.approx(alpha * lp_norm(mu, f, p), rel=1e-12)


def test_mass_monotone_under_containment():
    rng = np.random.default_rng(3)
    mu = AtomicMeasure(rng.uniform(-3, 3, size=(15, 1)), rng.uniform(0.1, 2, size=15))
    for _ in range(200):
        c1 = rng.uniform(-3, 3, size=1)
        r1 = rng.uniform(0.01, 2)
        c2 = c1 + rng.uniform(-0.5, 0.5, size=1)
        r2 = r1 + rng.uniform(0.5, 2)
        q1, q2 = Cube(c1, r1), Cube(c2, r2)
        if cube_contains(q2, q1):
            assert mu.mass(q1) <= mu.mass(q2)


def test_mass_right_continuous_in_radius():
    mu = AtomicMeasure([[0.0], [1.0]], [1.0, 2.0])
    x = np.array([0.25])
    r_hit = 0.75  # atom at 1.0 sits exactly on the boundary
    at = mu.mass(Cube(x, r_hit))
    just_above = mu.mass(Cube(x, np.nextafter(r_hit, 2.0)))
    just_below = mu.mass(Cube(x, np.nextafter(r_hit, 0.0)))
    assert at == just_above == 3.0
    assert just_below == 1.0


def test_average_ignores_null_enlargement():
    mu = AtomicMeasure([[0.0], [1.0]], [1.0, 1.0])
    f = [2.0, 4.0]
    a1 = average(mu, f, Cube([0.5], 0.6))
    a2 = average(mu, f, Cube([0.5], 0.9))  # same atoms inside
    assert a1 == a2


def test_duplicate_merge_and_value_conflict():
    mu, f = AtomicMeasure.from_atoms([[0.0], [0.0], [1.0]], [1.0, 2.0, 1.0], [5.0, 5.0, 7.0])
    assert mu.m == 2
    assert mu.total_mass == 4.0
    assert list(f.values) == [5.0, 7.0]
    with pytest.raises(ValueError):
        AtomicMeasure.from_atoms([[0.0], [0.0]], [1.0, 1.0], [5.0, 6.0])


def test_invalid_measures():
    with pytest.raises(ValueError):
        AtomicMeasure(np.zeros((0, 1)), [])
    with pytest.raises(ValueError):
        AtomicMeasure([[0.0]], [0.0])
    with pytest.raises(ValueError):
        AtomicMeasure([[0.0, 0.0, 0.0]], [1.0])


def test_json_roundtrip(tmp_path):
    mpath = tmp_path / "m.json"
    fpath = tmp_path / "f.json"
    mpath.write_text(json.dumps({"n": 1, "atoms": [{"x": [0.0], "w": 1.0}, {"x": [1.0], "w": 1.0}]}))
    fpath.write_text(json.dumps({"values": [0.0, 1.0]}))
    mu = load_measure(mpath)
    f = load_function(fpath, mu)
    assert mu.m == 2 and mu.n == 1
    assert list(f.values) == [0.0, 1.0]


def test_json_duplicate_atoms_function_alignment(tmp_path):
    mpath = tmp_path / "m.json"
    fpath = tmp_path / "f.json"
    mpath.write_text(
        json.dumps(
            {
                "n": 1,
                "atoms": [
                    {"x": [0.0], "w": 1.0},
                    {"x": [0.0], "w": 2.0},
                    {"x": [1.0], "w": 1.0},
                ],
            }
        )
    )
    fpath.write_text(json.dumps({"values": [5.0, 5.0, 7.0]}))
    mu = load_measure(mpath)
    assert mu.m == 2
    f = load_function(fpath, mu)
    assert list(f.values) == [5.0, 7.0]


def _loop_load_values(merge_map, values, m):
    """Reference: each raw value checked against the merged value so far, in file order."""
    merged = np.zeros(m)
    for raw, v in enumerate(values):
        j = merge_map[raw]
        if np.any(merge_map[:raw] == j) and abs(merged[j] - v) > 1e-12:
            return f"values {merged[j]} vs {v} disagree on merged atom {j}"
        merged[j] = v
    return merged


def test_json_many_duplicate_atoms_match_loop(tmp_path):
    rng = np.random.default_rng(5)
    raw = rng.integers(0, 300, size=3000)  # every atom about ten times, in shuffled order
    xs = raw.astype(float) / 7.0
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps({"n": 1, "atoms": [{"x": [x], "w": 1.0} for x in xs.tolist()]}))
    mu = load_measure(mpath)
    assert mu.m == np.unique(raw).size and mu.merge_map.shape == (3000,)
    base = rng.normal(size=300)[raw]
    jitter = base + rng.uniform(-5e-13, 5e-13, size=3000)  # within the 1e-12 agreement
    late = jitter.copy()
    late[[2500, 2900]] += [1e-9, 1.0]  # two conflicts late in the file, the first reported
    for values in (base, jitter, late):
        fpath = tmp_path / "f.json"
        fpath.write_text(json.dumps({"values": values.tolist()}))
        want = _loop_load_values(mu.merge_map, values, mu.m)
        assert isinstance(want, str) == (values is late)
        if isinstance(want, str):
            with pytest.raises(ValueError) as err:
                load_function(fpath, mu)
            assert str(err.value) == want
        else:
            assert load_function(fpath, mu).values.tobytes() == want.tobytes()


def test_sampled_function_validation():
    with pytest.raises(ValueError):
        SampledFunction([np.inf])
