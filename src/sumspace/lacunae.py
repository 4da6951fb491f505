"""Grouping of Whitney cubes into lacunae.

A cover cube sees two slices of the net: the points inside ``10 Q`` and the
points inside ``90 Q``.  Cubes for which the two slices agree are grouped by
that slice into *true* lacunae; a cube whose slices differ forms a singleton
*elementary* lacuna.  Each lacuna carries the shared slice ``V_L``, its
extremal member cubes, and its projection: the point of ``V_L`` nearest to
the centre of its smallest member cube.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .geometry import meeting_pairs
from .whitney import WhitneyCover

__all__ = [
    "Lacuna",
    "Lacunae",
    "partition_lacunae",
    "contact_graph",
    "LacunaError",
]

INNER_DILATION = 10.0
OUTER_DILATION = 90.0

log = logging.getLogger("sumspace.lacunae")


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
    projection: int
    projection_gamma: float


class Lacunae(list):
    """The lacunae of a cover, in order, with the arrays they were built from:
    ``labels[i]`` is the lacuna of cover cube ``i``, ``true[l]`` says whether
    lacuna ``l`` is true and ``projections[l]`` is its projected net point."""

    def __init__(self, lacunae, labels: np.ndarray, true: np.ndarray, projections: np.ndarray):
        super().__init__(lacunae)
        self.labels, self.true, self.projections = labels, true, projections


def _slice_pairs(cover: WhitneyCover):
    """The pairs (cube ``i``, point ``e`` of ``cover.net``) with ``e`` in ``90 Q_i``,
    by cube then point, their gaps ``|c_i - e|_inf``, and a mask of those with
    ``e`` in ``10 Q_i``: a subset, as the same gap is compared against ``10 h <= 90 h``."""
    net = cover.net
    rows, cols = meeting_pairs(cover.centers, OUTER_DILATION * cover.halves, net.points, np.zeros(net.size))
    gaps = np.max(np.abs(cover.centers[rows] - net.points[cols]), axis=1)
    return rows, cols, gaps, gaps <= INNER_DILATION * cover.halves[rows]


def _slice_ranks(cols: np.ndarray, start: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, int]:
    """Per cube, the place of its slice ``cols[start : start + count]`` among
    the distinct slices in the order ``sorted`` gives them as tuples, and the
    number of distinct slices."""
    by_length = np.argsort(count, kind="stable")
    lengths, firsts = np.unique(count[by_length], return_index=True)
    width = int(lengths[-1])
    slice_of = np.empty(count.shape[0], dtype=np.intp)
    padded, total = [], 0
    for length, cubes in zip(lengths.tolist(), np.split(by_length, firsts[1:])):
        # the slices of one length in sorted order, and where each new one starts
        block = cols[start[cubes, None] + np.arange(length)]
        order = np.lexsort(block.T[::-1])
        block = block[order]
        new = np.ones(cubes.shape[0], dtype=bool)
        new[1:] = np.any(block[1:] != block[:-1], axis=1)
        slice_of[cubes[order]] = total + np.cumsum(new) - 1
        total += int(new.sum())
        # pad with -1, so a slice sorts before the longer slices it begins
        block = block[new]
        padded.append(np.concatenate([block, np.full((block.shape[0], width - length), -1)], axis=1))
    rank = np.empty(total, dtype=np.intp)
    rank[np.lexsort(np.concatenate(padded).T[::-1])] = np.arange(total)
    return rank[slice_of], total


def partition_lacunae(cover: WhitneyCover) -> Lacunae:
    """Assign every cover cube to exactly one lacuna, and project each lacuna
    onto a point of ``cover.net``.

    True lacunae come first, by sorted slice, then the elementary singletons;
    members are in cube order.  ``V`` is the ``90 Q`` slice of ``q_min``, so
    it holds every net point within ``90 h`` of that cube's centre, and the
    ``projection``, the nearest of them (ties to the lowest id), is the
    nearest net point.  ``projection_gamma`` is the least power of two
    ``gamma >= 1`` with the projection in ``gamma q_min``.
    """
    rows, cols, gaps, in10 = _slice_pairs(cover)
    count = np.bincount(rows, minlength=cover.size)
    if not count.all():
        raise LacunaError(f"cube {int(np.argmin(count))} sees no net point inside 90Q")
    start = np.cumsum(count) - count
    is_true = np.bincount(rows[in10], minlength=cover.size) == count

    ranks, distinct = _slice_ranks(cols, start, count)
    _, true_label = np.unique(ranks[is_true], return_inverse=True)
    n_true = int(true_label.max(initial=-1)) + 1
    labels = np.empty(cover.size, dtype=np.intp)
    labels[is_true] = true_label.reshape(-1)
    labels[~is_true] = n_true + np.arange(cover.size - int(is_true.sum()))

    # members in lacuna order, then cube order; per lacuna the first
    # smallest and first largest member, as np.argmin and np.argmax take them
    members = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels)
    firsts = np.cumsum(sizes) - sizes
    seg, h = labels[members], cover.halves[members]
    q_min = members[np.lexsort((h, seg))[firsts]]
    q_max = members[np.lexsort((-h, seg))[firsts]]
    true = np.arange(sizes.shape[0]) < n_true
    outer = true & (count[q_min] == cover.net.size)

    # the slice of each q_min cube and its first point at the smallest gap
    # (the lowest id on ties), found in cube order, then put in lacuna order
    is_min = np.zeros(cover.size, dtype=bool)
    is_min[q_min] = True
    at = np.flatnonzero(is_min[rows])
    v_size = count[is_min]
    v_start = np.cumsum(v_size) - v_size
    near = gaps[at]
    hits = np.flatnonzero(near == np.repeat(np.minimum.reduceat(near, v_start), v_size))
    nearest = at[hits[np.searchsorted(hits, v_start)]]
    order = np.argsort(labels[is_min])
    v_size, v_start, nearest = v_size[order], v_start[order], nearest[order]
    projections, d, h_min, points = cols[nearest], gaps[nearest], cover.halves[q_min], cols[at]
    del rows, cols, gaps, in10, at, near  # the records below need none of the pairs
    gamma = np.ones(sizes.shape[0])
    while np.any(far := d > gamma * h_min):
        gamma[far] *= 2.0

    ids, points = members.tolist(), points.tolist()
    lacunae = Lacunae(
        [
            Lacuna(ids[a : a + k], "true" if t else "elementary", tuple(points[s : s + v]),
                   lo, None if o else hi, o, e, g)
            for a, k, t, s, v, lo, hi, o, e, g in zip(
                firsts.tolist(), sizes.tolist(), true.tolist(), v_start.tolist(), v_size.tolist(),
                q_min.tolist(), q_max.tolist(), outer.tolist(), projections.tolist(), gamma.tolist(),
            )
        ],
        labels,
        true,
        projections,
    )
    log.info(
        "lacunae: %d cubes, %d true, %d elementary, %d outer lacunae, %d distinct slices, "
        "largest projection gamma %g, projection multiplicity %d",
        cover.size, n_true, sizes.shape[0] - n_true, int(outer.sum()), distinct,
        gamma.max(), projection_multiplicity(lacunae),
    )
    return lacunae


def contact_graph(lacunae: Lacunae, cover: WhitneyCover):
    """Lacuna adjacency through touching member cubes.

    Returns ``(edges, report)``.  ``edges`` is a ``(k, 2)`` array of the
    lacuna pairs ``a < b`` with touching member cubes, each once, in
    ascending order.  The report carries the largest number of contacts of
    one lacuna and the contacts between two true lacunae (recorded as
    findings, not errors).
    """
    src, dst = cover.edges()
    a, b = lacunae.labels[src], lacunae.labels[dst]
    cross = a != b
    size = len(lacunae)
    keys = np.unique(np.minimum(a, b)[cross] * size + np.maximum(a, b)[cross])
    edges = np.stack(np.divmod(keys, size), axis=1)
    contacts = np.bincount(edges.ravel(), minlength=size)
    report = {
        "max_contacts": int(contacts.max(initial=0)),
        "true_true_contacts": edges[lacunae.true[edges[:, 0]] & lacunae.true[edges[:, 1]]],
    }
    return edges, report


def projection_multiplicity(lacunae: Lacunae) -> int:
    """Largest number of lacunae sharing one projected net point."""
    return int(np.bincount(lacunae.projections).max(initial=0))
