import dataclasses
import logging
import tracemalloc

import numpy as np
import pytest

from sumspace.concentration import Params, build_net
from sumspace.instances import heavy_grid, suite_1d, suite_2d
from sumspace.lacunae import (
    INNER_DILATION,
    OUTER_DILATION,
    Lacuna,
    LacunaError,
    _slice_pairs,
    contact_graph,
    partition_lacunae,
    projection_multiplicity,
)
from sumspace.measure import AtomicMeasure
from sumspace.whitney import AnchorError, assign_anchors, build_whitney


def pipeline(mu, p=2.0):
    prm = Params(p=p)
    net = build_net(mu, prm)
    cover = assign_anchors(build_whitney(net))
    return prm, net, cover


def test_single_point_lacunae():
    mu = AtomicMeasure([[0.0]], [1.0])
    prm, net, cover = pipeline(mu)
    lacs = partition_lacunae(cover)
    # every cube classified exactly once
    assert sorted(i for l in lacs for i in l.ids) == list(range(cover.size))
    # with one net point both slices are {0} for every cube: all true
    assert all(l.kind == "true" for l in lacs)
    assert all(l.V == (0,) for l in lacs)


def test_two_cluster_lacunae_elementary_detection():
    mu = AtomicMeasure([[0.0], [100.0]], [1.0, 1.0])
    prm, net, cover = pipeline(mu)
    lacs = partition_lacunae(cover)
    assert sorted(i for l in lacs for i in l.ids) == list(range(cover.size))
    # independent predicate check for elementary members
    for lac in lacs:
        for i in lac.ids:
            c, h = cover.centers[i], cover.halves[i]
            s10 = frozenset(
                np.nonzero(np.all(np.abs(net.points - c) <= 10 * h, axis=1))[0].tolist()
            )
            s90 = frozenset(
                np.nonzero(np.all(np.abs(net.points - c) <= 90 * h, axis=1))[0].tolist()
            )
            if lac.kind == "elementary":
                assert s10 != s90
            else:
                assert s10 == s90 == frozenset(lac.V)
    # mid-gap cubes that see the far point only at the wide dilation exist
    assert any(l.kind == "elementary" for l in lacs)


def test_elementary_slice_diameter_bound():
    rng = np.random.default_rng(3)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 8))
        mu = AtomicMeasure(
            rng.uniform(-50, 50, size=(m, 1)), rng.uniform(0.3, 3.0, size=m)
        )
        prm, net, cover = pipeline(mu)
        lacs = partition_lacunae(cover)
        for lac in lacs:
            if lac.kind != "elementary":
                continue
            (i,) = lac.ids
            pts = net.points[list(lac.V)]
            if len(lac.V) < 2:
                continue
            dv = max(
                np.max(np.abs(pts[a] - pts[b]))
                for a in range(len(pts))
                for b in range(a + 1, len(pts))
            )
            assert dv >= cover.halves[i] * (1 - 1e-12), (
                "elementary lacuna slice spans at least half the cube diameter"
            )


def test_v_slice_consistency_and_qmin():
    mu = AtomicMeasure([[0.0], [7.0], [50.0]], [1.0, 2.0, 0.5])
    prm, net, cover = pipeline(mu, p=1.5)
    lacs = partition_lacunae(cover)
    for lac in lacs:
        halves = cover.halves[lac.ids]
        assert cover.halves[lac.q_min] == halves.min()
        if lac.q_max is not None:
            assert cover.halves[lac.q_max] == halves.max()
        assert len(lac.V) >= 1


def test_outer_lacuna_flag():
    mu = AtomicMeasure([[0.0]], [1.0])
    prm, net, cover = pipeline(mu)
    lacs = partition_lacunae(cover)
    outers = [l for l in lacs if l.outer]
    # the slice equal to all of E marks the outer lacuna; q_max undefined there
    assert len(outers) <= 1
    for l in outers:
        assert l.q_max is None


def test_projection_lands_near_qmin():
    mu = AtomicMeasure([[0.0], [100.0]], [1.0, 1.0])
    prm, net, cover = pipeline(mu)
    lacs = partition_lacunae(cover)
    for lac in lacs:
        c = cover.centers[lac.q_min]
        h = cover.halves[lac.q_min]
        d = np.max(np.abs(net.points - c), axis=1)
        assert lac.projection in lac.V and d[lac.projection] == d.min()
        assert d[lac.projection] <= lac.projection_gamma * h
        assert lac.projection_gamma == 1.0 or d[lac.projection] > lac.projection_gamma / 2 * h
    assert projection_multiplicity(lacs) >= 1


def _loop_contact_graph(lacunae, cover):
    """Reference: the lacuna pairs of every touching cube pair, and their contact counts."""
    owner = {i: li for li, lac in enumerate(lacunae) for i in lac.ids}
    edges = set()
    for i in range(cover.size):
        for j in cover.neighbors[i]:
            a, b = owner[i], owner[int(j)]
            if a != b:
                edges.add((min(a, b), max(a, b)))
    contacts = np.zeros(len(lacunae), dtype=int)
    for a, b in edges:
        contacts[a] += 1
        contacts[b] += 1
    findings = [(a, b) for a, b in sorted(edges) if lacunae[a].kind == lacunae[b].kind == "true"]
    return sorted(edges), {"max_contacts": int(contacts.max()), "true_true_contacts": findings}


def test_contact_graph():
    mu = AtomicMeasure([[0.0], [100.0]], [1.0, 1.0])
    prm, net, cover = pipeline(mu)
    lacs = partition_lacunae(cover)
    edges, report = contact_graph(lacs, cover)
    want_edges, want_report = _loop_contact_graph(lacs, cover)
    # edges match cube adjacency across lacunae exactly
    assert edges.shape[0] > 0 and list(map(tuple, edges.tolist())) == want_edges
    assert report["max_contacts"] == want_report["max_contacts"] <= len(lacs)
    assert list(map(tuple, report["true_true_contacts"].tolist())) == want_report["true_true_contacts"]


def test_partition_logs_one_info_line(caplog):
    _, net, cover = pipeline(heavy_grid(3), 3.0)
    with caplog.at_level(logging.INFO, logger="sumspace.lacunae"):
        lacs = partition_lacunae(cover)
    (record,) = [r for r in caplog.records if r.name == "sumspace.lacunae"]
    true = sum(lac.kind == "true" for lac in lacs)
    slices = len({lac.V for lac in lacs})
    assert record.getMessage() == (
        f"lacunae: {cover.size} cubes, {true} true, {len(lacs) - true} elementary, "
        f"{sum(lac.outer for lac in lacs)} outer lacunae, {slices} distinct slices, "
        f"largest projection gamma {max(lac.projection_gamma for lac in lacs):g}, "
        f"projection multiplicity {projection_multiplicity(lacs)}"
    )
    caplog.clear()
    with caplog.at_level(logging.ERROR, logger="sumspace.lacunae"):
        partition_lacunae(cover)
    assert not caplog.records


def _dense_anchors(cover, net, params):
    """Reference: the nearest net point of every cube from the dense gap array."""
    E = net.points
    gaps = np.abs(cover.centers[:, None, :] - E[None, :, :]) - cover.halves[:, None, None]
    np.maximum(gaps, 0.0, out=gaps)
    anchors = np.argmin(np.max(gaps, axis=2), axis=1)
    center_gap = np.max(np.abs(cover.centers - E[anchors]), axis=1)
    bad = center_gap > params.tau * cover.halves * (1 + 1e-12)
    if np.any(bad):
        i = int(np.nonzero(bad)[0][0])
        raise AnchorError(
            f"anchor of cube {i} lies outside tau*Q "
            f"(gap {center_gap[i]:g} > {params.tau * cover.halves[i]:g})"
        )
    return anchors


def _dense_net_points_in(cover, net, factor):
    """Reference: the net points in ``factor * Q`` from the dense cube x point array."""
    gaps = np.abs(cover.centers[:, None, :] - net.points[None, :, :])
    inside = np.all(gaps <= factor * cover.halves[:, None, None], axis=2)
    return [frozenset(np.nonzero(inside[i])[0].tolist()) for i in range(cover.size)]


def _outcome(fn):
    try:
        return fn()
    except AnchorError as e:
        return str(e)


def test_anchors_and_slices_match_dense_reference():
    cases = [(i.mu, i.p) for i in suite_1d()[:30] + suite_2d()[:20]]
    cases += [(heavy_grid(k), 3.0) for k in (2, 3, 4)]
    errors = boundary_hits = 0
    for mu, p in cases:
        prm, net, cover = pipeline(mu, p)
        assert np.array_equal(cover.anchors, _dense_anchors(cover, net, prm))
        # and a net of points on the corners of some cubes' 10Q and 90Q
        i = np.arange(0, cover.size, max(1, cover.size // 7))
        c, h = cover.centers[i], cover.halves[i, None]
        edge = np.concatenate([c + INNER_DILATION * h, c + OUTER_DILATION * h])
        boundary_hits += int(np.sum(np.abs(edge[: i.size] - c) == INNER_DILATION * h))
        for pts in (net, dataclasses.replace(net, points=edge)):
            rows, cols, gaps, in10 = _slice_pairs(dataclasses.replace(cover, net=pts))
            assert np.all(np.diff(rows * pts.size + cols) > 0)
            assert np.array_equal(gaps, np.max(np.abs(cover.centers[rows] - pts.points[cols]), axis=1))
            for factor, inside in ((INNER_DILATION, in10), (OUTER_DILATION, slice(None))):
                ends = np.cumsum(np.bincount(rows[inside], minlength=cover.size))
                got = [frozenset(s.tolist()) for s in np.split(cols[inside], ends[:-1])]
                assert got == _dense_net_points_in(cover, pts, factor)
        # nets that do not fit the cover: the same anchors or the same message
        shifted = [dataclasses.replace(net, points=net.points + s * net.radii[:, None])
                   for s in (0.7, -2.0, 1e3)]
        if net.size > 1:
            shifted.append(dataclasses.replace(
                net, points=net.points[1:], radii=net.radii[1:], layers=net.layers[1:]))
        for other in shifted:
            for tau in (9.0, 12.0):
                q = Params(p=p, tau=tau)
                want = _outcome(lambda: _dense_anchors(cover, other, q))
                got = _outcome(lambda: assign_anchors(
                    dataclasses.replace(cover, net=dataclasses.replace(other, params=q))).anchors)
                if isinstance(want, str):
                    errors += 1
                    assert got == want
                else:
                    assert np.array_equal(got, want)
    assert errors > 0 and boundary_hits > 0


def _loop_project_lacuna(q_min, net, cover, gamma0=1.0, max_doublings=60):
    """Reference: the net point in ``gamma * Q_min`` nearest to the minimal cube's center.

    The dilation starts at ``gamma0`` and doubles until the slab contains a
    net point; returns that point and the final dilation.
    """
    c = cover.centers[q_min]
    h = cover.halves[q_min]
    d = np.max(np.abs(net.points - c), axis=1)
    gamma = gamma0
    for _ in range(max_doublings):
        inside = np.nonzero(d <= gamma * h)[0]
        if inside.size:
            best = inside[int(np.argmin(d[inside]))]
            return int(best), float(gamma)
        gamma *= 2.0
    raise LacunaError("no net point reachable from the minimal cube")


def _loop_partition_lacunae(cover, net):
    """Reference: every lacuna built alone from the dense slices, its extremal
    cubes by ``np.argmin``/``np.argmax``, its projection by the doubling search."""
    in10 = _dense_net_points_in(cover, net, INNER_DILATION)
    in90 = _dense_net_points_in(cover, net, OUTER_DILATION)
    for i in range(cover.size):
        if not in90[i]:
            raise LacunaError(f"cube {i} sees no net point inside 90Q")
    groups, singles = {}, []
    for i in range(cover.size):
        if in10[i] == in90[i]:
            groups.setdefault(in10[i], []).append(i)
        else:
            singles.append(i)
    all_ids = frozenset(range(net.size))

    def finish(ids, kind, V):
        halves = cover.halves[ids]
        q_min = ids[int(np.argmin(halves))]
        outer = kind == "true" and V == all_ids
        q_max = None if outer else ids[int(np.argmax(halves))]
        projection, gamma = _loop_project_lacuna(q_min, net, cover)
        return Lacuna(ids=list(ids), kind=kind, V=tuple(sorted(V)), q_min=int(q_min),
                      q_max=None if q_max is None else int(q_max), outer=outer,
                      projection=projection, projection_gamma=gamma)

    out = [finish(groups[V], "true", V) for V in sorted(groups, key=lambda s: tuple(sorted(s)))]
    return out + [finish([i], "elementary", in90[i]) for i in singles]


def _types(lacs):
    return [tuple(type(getattr(l, f.name)) for f in dataclasses.fields(l)) for l in lacs]


def test_partition_matches_loop_reference():
    cases = [(i.mu, i.p) for i in suite_1d() + suite_2d()]
    cases += [(heavy_grid(k), 3.0) for k in (2, 3, 4)]
    for mu, p in cases:
        _, net, cover = pipeline(mu, p)
        got = partition_lacunae(cover)
        want = _loop_partition_lacunae(cover, net)
        assert got == want
        assert _types(got) == _types(want)
        assert [type(k) for l in got for k in l.ids + list(l.V)] == [int] * sum(len(l.ids) + len(l.V) for l in got)
        edges, report = contact_graph(got, cover)
        want_edges, want_report = _loop_contact_graph(want, cover)
        assert list(map(tuple, edges.tolist())) == want_edges
        assert report["max_contacts"] == want_report["max_contacts"]
        assert list(map(tuple, report["true_true_contacts"].tolist())) == want_report["true_true_contacts"]
        assert projection_multiplicity(got) == max(
            sum(l.projection == e for l in want) for e in range(net.size)
        )


def test_anchor_and_slice_memory_scales_with_cubes():
    # the dense cube x net-point arrays peaked near 50 MiB each here
    mu = heavy_grid(8)
    prm = Params(p=3.0)
    net = build_net(mu, prm)
    cover = build_whitney(net)
    tracemalloc.start()
    try:
        assign_anchors(cover)
        rows, cols, gaps, in10 = _slice_pairs(cover)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cover.size > 20000 and np.unique(rows).shape[0] == cover.size
    assert peak < 16 * 2**20
