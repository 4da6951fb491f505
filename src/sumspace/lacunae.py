"""Grouping of Whitney cubes into lacunae.

A cover cube sees two slices of the net: the points inside ``10 Q`` and the
points inside ``90 Q``.  Cubes for which the two slices agree are grouped by
that slice into *true* lacunae; a cube whose slices differ forms a singleton
*elementary* lacuna.  Each lacuna carries the shared slice ``V_L``, its
extremal member cubes, and a projection to a nearby net point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .concentration import ConcentrationNet
from .geometry import Cube, near_pairs
from .whitney import WhitneyCover

__all__ = [
    "Lacuna",
    "partition_lacunae",
    "project_lacuna",
    "contact_graph",
    "LacunaError",
]

INNER_DILATION = 10.0
OUTER_DILATION = 90.0


class LacunaError(RuntimeError):
    pass


@dataclass
class Lacuna:
    ids: list[int]
    kind: str  # "true" | "elementary"
    V: tuple[int, ...]
    q_min: int
    q_max: int | None
    outer: bool
    projection: int | None = None
    projection_gamma: float | None = None


def _net_points_in(
    cover: WhitneyCover, net: ConcentrationNet, *factors: float
) -> list[list[frozenset]]:
    """Per factor, the ids of the net points inside ``factor * Q`` of every cover cube.

    One ``near_pairs`` join at the largest factor serves every factor.  Cubes
    that see the same slice share one frozenset: a cover has tens of
    thousands of cubes but a few hundred distinct slices.
    """
    reach = max(factors) * cover.halves
    rows, cols = near_pairs(cover.centers, reach, net.points, np.zeros(net.size))
    gaps = np.max(np.abs(cover.centers[rows] - net.points[cols]), axis=1)
    out = []
    for factor in factors:
        # pairs come sorted by cube, then by net point
        inside = gaps <= factor * cover.halves[rows]
        ids = cols[inside].tolist()
        ends = np.cumsum(np.bincount(rows[inside], minlength=cover.size)).tolist()
        shared: dict[tuple, frozenset] = {}
        slices = []
        for a, b in zip([0] + ends[:-1], ends):
            key = tuple(ids[a:b])
            if key not in shared:
                shared[key] = frozenset(key)
            slices.append(shared[key])
        out.append(slices)
    return out


def _first_extrema(halves: np.ndarray, groups: list[list[int]]) -> list[list[int]]:
    """Per group of cube ids, its first smallest and its first largest cube in
    the group's order, as ``np.argmin`` and ``np.argmax`` take them."""
    lengths = np.array([len(ids) for ids in groups], dtype=np.intp)
    flat = np.fromiter((i for ids in groups for i in ids), dtype=np.intp, count=int(lengths.sum()))
    seg = np.repeat(np.arange(lengths.shape[0]), lengths)
    firsts = np.cumsum(lengths) - lengths
    h = halves[flat]
    # a stable sort by group, then half side: each group's first entry
    return [flat[np.lexsort((key, seg))[firsts]].tolist() for key in (h, -h)]


def partition_lacunae(cover: WhitneyCover, net: ConcentrationNet) -> list[Lacuna]:
    """Assign every cover cube to exactly one lacuna."""
    in10, in90 = _net_points_in(cover, net, INNER_DILATION, OUTER_DILATION)
    for i in range(cover.size):
        if not in90[i]:
            raise LacunaError(f"cube {i} sees no net point inside 90Q")

    groups: dict[frozenset, list[int]] = {}
    singles: list[int] = []
    for i in range(cover.size):
        if in10[i] == in90[i]:
            groups.setdefault(in10[i], []).append(i)
        else:
            singles.append(i)

    # lacunae in output order: the true ones by their sorted slice, then the
    # elementary singletons
    parts: list[tuple[list[int], str, frozenset]] = []
    for V in sorted(groups, key=lambda s: tuple(sorted(s))):
        ids = groups[V]
        # the shared slice must be literally identical across members
        for i in ids:
            if in90[i] != V:
                raise LacunaError(f"member {i} disagrees on the lacuna slice")
        parts.append((ids, "true", V))
    parts.extend(([i], "elementary", in90[i]) for i in singles)

    q_min, q_max = _first_extrema(cover.halves, [ids for ids, _, _ in parts])
    all_ids = frozenset(range(net.size))
    out: list[Lacuna] = []
    for (ids, kind, V), lo, hi in zip(parts, q_min, q_max):
        outer = kind == "true" and V == all_ids
        out.append(Lacuna(
            ids=list(ids), kind=kind, V=tuple(sorted(V)), q_min=lo, q_max=None if outer else hi, outer=outer
        ))

    covered = sorted(j for lac in out for j in lac.ids)
    if covered != list(range(cover.size)):
        raise LacunaError("lacunae do not partition the cover")
    return out


def project_lacuna(
    lac: Lacuna,
    net: ConcentrationNet,
    cover: WhitneyCover,
    gamma0: float = 1.0,
    max_doublings: int = 60,
) -> tuple[int, float]:
    """Net point in ``gamma * Q_min`` nearest to the minimal cube's center.

    The dilation starts at ``gamma0`` and doubles until the slab contains a
    net point; the final dilation is recorded on the lacuna.
    """
    c = cover.centers[lac.q_min]
    h = cover.halves[lac.q_min]
    d = np.max(np.abs(net.points - c), axis=1)
    gamma = gamma0
    for _ in range(max_doublings):
        inside = np.nonzero(d <= gamma * h)[0]
        if inside.size:
            best = inside[int(np.argmin(d[inside]))]
            lac.projection = int(best)
            lac.projection_gamma = float(gamma)
            return int(best), float(gamma)
        gamma *= 2.0
    raise LacunaError("no net point reachable from the minimal cube")


def contact_graph(lacunae: list[Lacuna], cover: WhitneyCover):
    """Lacuna adjacency through touching member cubes.

    Returns ``(edges, report)`` where ``edges`` is a set of index pairs and
    the report carries per-lacuna contact counts plus any contacts between
    two true lacunae (recorded as findings, not errors).
    """
    owner = np.empty(cover.size, dtype=int)
    for li, lac in enumerate(lacunae):
        owner[lac.ids] = li
    edges: set[tuple[int, int]] = set()
    for i in range(cover.size):
        for j in cover.neighbors[i]:
            a, b = int(owner[i]), int(owner[int(j)])
            if a != b:
                edges.add((min(a, b), max(a, b)))
    contacts = np.zeros(len(lacunae), dtype=int)
    for a, b in edges:
        contacts[a] += 1
        contacts[b] += 1
    findings = [
        (a, b)
        for a, b in sorted(edges)
        if lacunae[a].kind == "true" and lacunae[b].kind == "true"
    ]
    report = {
        "max_contacts": int(contacts.max()) if len(lacunae) else 0,
        "true_true_contacts": findings,
    }
    return edges, report


def projection_multiplicity(lacunae: list[Lacuna]) -> int:
    """Largest number of lacunae sharing one projected net point."""
    counts: dict[int, int] = {}
    for lac in lacunae:
        if lac.projection is not None:
            counts[lac.projection] = counts.get(lac.projection, 0) + 1
    return max(counts.values(), default=0)
