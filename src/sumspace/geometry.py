"""Axis-parallel cube geometry in the sup norm.

Everything downstream measures distances in the l-infinity norm, so that
``Q(x, r)`` (the closed cube centered at ``x`` with half-side ``r``) is the
metric ball of radius ``r`` and ``diam Q = 2 r`` exactly.  Cubes are closed:
a shared boundary counts as an intersection.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "as_point",
    "Cube",
    "CubeFamily",
    "cubes_intersect",
    "cube_contains",
    "near_pairs",
    "meeting_pairs",
    "cube_point_gaps",
    "greedy_disjoint",
    "segment_reduce",
    "select_min_disjoint",
    "color_disjoint",
    "DegreeBoundError",
]


class DegreeBoundError(ValueError):
    """A cube intersects more cubes than the promised degree bound."""

    def __init__(self, cube_id: int, degree: int, max_degree: int):
        self.cube_id = cube_id
        self.degree = degree
        self.max_degree = max_degree
        super().__init__(
            f"cube {cube_id} intersects {degree} others, exceeding the "
            f"declared bound {max_degree}"
        )


def as_point(x) -> np.ndarray:
    """Coerce to a finite 1-d float64 coordinate vector."""
    p = np.asarray(x, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    if p.ndim != 1:
        raise ValueError(f"point must be one-dimensional, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError("point coordinates must be finite")
    return p


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")


@dataclass(frozen=True, eq=False)
class Cube:
    """Closed axis-parallel cube ``Q(center, half_side)`` with side ``2*half_side``."""

    center: np.ndarray
    half_side: float

    def __post_init__(self):
        c = as_point(self.center)
        object.__setattr__(self, "center", c)
        h = float(self.half_side)
        if not (h > 0.0 and math.isfinite(h)):
            raise ValueError(f"half_side must be positive and finite, got {h}")
        object.__setattr__(self, "half_side", h)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @property
    def diam(self) -> float:
        """l-infinity diameter, equal to the side length."""
        return 2.0 * self.half_side

    @property
    def lo(self) -> np.ndarray:
        return self.center - self.half_side

    @property
    def hi(self) -> np.ndarray:
        return self.center + self.half_side

    def scaled(self, alpha: float) -> "Cube":
        """The dilation ``alpha * Q`` about the center."""
        if not alpha > 0:
            raise ValueError("dilation factor must be positive")
        return Cube(self.center, alpha * self.half_side)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        c = ",".join(f"{v:g}" for v in self.center)
        return f"Cube(({c}), r={self.half_side:g})"


def cubes_intersect(q1: Cube, q2: Cube) -> bool:
    """Closed-cube intersection test (touching boundaries intersect)."""
    _check_same_dim(q1.center, q2.center)
    return bool(np.all(np.abs(q1.center - q2.center) <= q1.half_side + q2.half_side))


def cube_contains(outer: Cube, inner: Cube) -> bool:
    """Whether ``inner`` is a subset of ``outer`` (closed cubes)."""
    _check_same_dim(outer.center, inner.center)
    return bool(
        np.all(np.abs(outer.center - inner.center) + inner.half_side <= outer.half_side)
    )


# fewest cubes for a band of ``near_pairs`` to be joined as a whole; smaller
# runs of neighbouring exponents are merged into one band, whose cubes are
# looked up one by one at their own half side, so that a run spread over many
# exponents neither costs a tree join per exponent nor widens the reach of
# the cubes it is joined with
_MIN_BAND = 64

# relative pad on every join reach: rounding of the reach sum cannot lose a pair
_PAD = 1.0 + 1e-6


def _bands(centers: np.ndarray, halves: np.ndarray) -> list:
    """``(indices, tree, largest half side)`` per band of binary exponents of the half side.

    A band is one exponent with at least ``_MIN_BAND`` cubes, or a run of
    neighbouring exponents with fewer than ``_MIN_BAND`` cubes together.
    Points (half side 0) count as an exponent below every other.
    """
    if halves.size == 0:
        return []
    expo = np.where(halves > 0, np.frexp(halves)[1], np.iinfo(np.int32).min)
    order = np.argsort(expo, kind="stable")
    bounds = [0] + (np.nonzero(np.diff(expo[order]))[0] + 1).tolist() + [order.size]
    cuts = [0]
    for a, b in zip(bounds[:-1], bounds[1:]):
        if a > cuts[-1] and b - cuts[-1] >= _MIN_BAND:
            cuts.append(a)  # this exponent would fill the open band: start a new one
    return [(g, cKDTree(centers[g]), float(halves[g].max())) for g in np.split(order, cuts[1:])]


def _join(band_a, ca, ha, band_b, cb, hb) -> tuple[np.ndarray, np.ndarray]:
    """Candidate pairs ``(i, j)`` of band ``a`` of ``(ca, ha)`` and band ``b`` of ``(cb, hb)``.

    Two full bands (``_MIN_BAND`` cubes or more), or a band and itself,
    meet in one range join of their trees at the sum of their reaches.
    Otherwise the cubes of the smaller band (``b`` if both are small) are
    looked up one by one in the other band's tree, each at its own half
    side plus that band's reach.
    """
    (ga, tree_a, reach_a), (gb, tree_b, reach_b) = band_a, band_b
    if band_a is band_b or (ga.size >= _MIN_BAND and gb.size >= _MIN_BAND):
        hits = tree_a.sparse_distance_matrix(
            tree_b, _PAD * (reach_a + reach_b), p=np.inf, output_type="ndarray"
        )
        return ga[hits["i"]], gb[hits["j"]]
    if gb.size < _MIN_BAND:
        j, i = _lookup(gb, cb, hb, ga, tree_a, reach_a)
        return i, j
    return _lookup(ga, ca, ha, gb, tree_b, reach_b)


def _lookup(gq, cq, hq, gt, tree, reach) -> tuple[np.ndarray, np.ndarray]:
    """Pairs ``(q, t)``: cubes ``gq`` looked up in ``tree`` (of cubes ``gt``) one by one."""
    hits = tree.query_ball_point(cq[gq], _PAD * (hq[gq] + reach), p=np.inf)
    counts = np.fromiter(map(len, hits), dtype=np.intp, count=gq.size)
    flat = np.fromiter(
        itertools.chain.from_iterable(hits), dtype=np.intp, count=int(counts.sum())
    )
    return np.repeat(gq, counts), gt[flat]


def near_pairs(ca, ha, cb=None, hb=None) -> tuple[np.ndarray, np.ndarray]:
    """Candidate pairs of cubes ``Q(ca[i], ha[i])`` and ``Q(cb[j], hb[j])`` that may meet.

    Returns index arrays ``(i, j)``, sorted by ``i`` and then ``j``, that hold
    every pair with ``|ca[i] - cb[j]|_inf <= (1 + 1e-6) (ha[i] + hb[j])`` and
    possibly some farther ones, so callers apply their exact test to them
    (``meeting_pairs`` applies the closed-cube test).
    Without ``cb, hb`` the family is paired with itself (``i == j`` included).
    When there are at most ``_MIN_BAND ** 2`` pairs in all, all are returned.
    Half sides may be zero (points).  Each side is split into bands by the
    binary exponent of the half side (``_bands``), and every pair of bands
    is joined by ``_join``.  Within a band of one exponent the half sides
    differ by less than a factor 2, a small band meets itself in fewer than
    ``_MIN_BAND`` squared pairs, and a small band's cubes are looked up at
    their own half sides elsewhere, so no join reaches much farther than the
    cubes it pairs: the cost follows the number of pairs returned, not the
    product of the sizes.  Tree pruning compares rounded coordinate differences
    monotonically, so no pair inside the reach is lost to rounding.
    """
    ca, ha = np.asarray(ca, dtype=float), np.asarray(ha, dtype=float)
    I, J = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    self_join = cb is None
    if self_join:
        cb, hb = ca, ha
    else:
        cb, hb = np.asarray(cb, dtype=float), np.asarray(hb, dtype=float)
    if ha.size * hb.size <= _MIN_BAND**2:
        # every pair costs less than building the trees
        return np.divmod(np.arange(ha.size * hb.size), hb.size)
    bands_a = _bands(ca, ha)
    bands_b = bands_a if self_join else _bands(cb, hb)
    for x, band_a in enumerate(bands_a):
        for y, band_b in enumerate(bands_b):
            if self_join and y < x:
                continue  # a self join finds these pairs mirrored, from band y
            i, j = _join(band_a, ca, ha, band_b, cb, hb)
            I.append(i)
            J.append(j)
            if self_join and y > x:
                I.append(j)
                J.append(i)
    I, J = np.concatenate(I), np.concatenate(J)
    order = np.lexsort((J, I))
    return I[order], J[order]


def meeting_pairs(ca, ha, cb=None, hb=None) -> tuple[np.ndarray, np.ndarray]:
    """Pairs ``(i, j)`` of meeting closed cubes ``Q(ca[i], ha[i])`` and ``Q(cb[j], hb[j])``.

    A pair meets when ``|ca[i] - cb[j]| <= ha[i] + hb[j]`` on every axis;
    the pairs are sorted by ``i`` and then ``j``.  A half side of 0 is a
    point, so a point meets a cube exactly when it lies in it.  Without
    ``cb, hb`` the family is paired with itself and ``i == j`` is left out.
    Every closed-cube membership query of the package is this one join.
    """
    ca, ha = np.asarray(ca, dtype=float), np.asarray(ha, dtype=float)
    i, j = near_pairs(ca, ha, cb, hb)
    if cb is None:
        cb, hb, meet = ca, ha, i != j
    else:
        cb, hb, meet = np.asarray(cb, dtype=float), np.asarray(hb, dtype=float), True
    meet = meet & np.all(np.abs(ca[i] - cb[j]) <= (ha[i] + hb[j])[:, None], axis=1)
    return i[meet], j[meet]


def cube_point_gaps(centers, halves, points) -> np.ndarray:
    """Sup-norm distance from the closed cube ``Q(centers[k], halves[k])`` to ``points[k]``, 0 inside.

    The arguments are aligned by row and broadcast as numpy arrays do, so
    one cube may be measured against many points.
    """
    gaps = np.subtract(centers, points)  # one temporary, worked in place
    np.abs(gaps, out=gaps)
    gaps -= np.asarray(halves)[..., None]
    return np.maximum(gaps, 0.0, out=gaps).max(axis=-1)


def _greedy_pass(k: int, later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """Mask of the ``k`` items a sequential pass keeps unless they clash with an earlier kept one.

    ``(later, earlier)`` are the clashing pairs, ``earlier < later``, sorted by
    ``later``; the pass visits only the items in ``later``, in order, so every
    verdict it reads is final.
    """
    keep = np.ones(k, dtype=bool)
    heads, first = np.unique(later, return_index=True)
    bounds = first.tolist() + [later.shape[0]]
    for j, a, b in zip(heads.tolist(), bounds[:-1], bounds[1:]):
        keep[j] = not keep[earlier[a:b]].any()
    return keep


def greedy_disjoint(centers, halves) -> np.ndarray:
    """Mask of the closed cubes a greedy pass in index order keeps: those meeting no earlier kept cube."""
    later, earlier = meeting_pairs(centers, halves)
    first = earlier < later
    return _greedy_pass(halves.shape[0], later[first], earlier[first])


def segment_reduce(counts, fn, *entries) -> np.ndarray:
    """``fn`` of the entries of every segment; ``entries`` hold the segments one after another.

    Segment ``k`` is the next ``counts[k]`` entries.  Segments of one length
    are reduced in one call, ``fn`` mapping arrays of shape (segments,
    length) to (segments,), so every segment gets the rounding ``fn`` gives
    its own entries: ``np.sum`` adds them pairwise in order, a row-wise
    ``np.matmul`` takes the BLAS dot product of ``np.dot``.  Empty segments
    give 0.
    """
    counts = np.asarray(counts)
    start = np.cumsum(counts) - counts
    out = np.zeros(counts.shape[0])
    for c in np.flatnonzero(np.bincount(counts)[1:]) + 1:
        seg = np.nonzero(counts == c)[0]
        at = start[seg, None] + np.arange(c)
        out[seg] = fn(*(e[at] for e in entries))
    return out


class CubeFamily:
    """Ordered cubes held as arrays: ``centers`` (k, n), ``halves`` (k,) and stable integer ``ids``.

    ``CubeFamily(cubes)`` takes a list of :class:`Cube`; ``from_arrays`` takes
    the arrays.  Indexing and iteration build a :class:`Cube` on demand.
    """

    def __init__(self, cubes, ids=None):
        cubes = list(cubes)
        centers = np.array([q.center for q in cubes], dtype=float) if cubes else np.zeros((0, 1))
        self._set(centers, np.array([q.half_side for q in cubes], dtype=float), ids)

    @classmethod
    def from_arrays(cls, centers, halves, ids=None) -> "CubeFamily":
        """The cubes ``Q(centers[k], halves[k])``, checked as :class:`Cube` checks one cube."""
        fam = cls.__new__(cls)
        fam._set(np.asarray(centers, dtype=float), np.asarray(halves, dtype=float), ids)
        return fam

    def _set(self, centers: np.ndarray, halves: np.ndarray, ids) -> None:
        k = halves.shape[0]
        if centers.ndim != 2 or halves.shape != (k,) or centers.shape[0] != k:
            raise ValueError(f"expected (k, n) centers and k half sides, got {centers.shape}, {halves.shape}")
        bad_c = ~np.isfinite(centers).all(axis=1)
        bad = np.nonzero(bad_c | ~((halves > 0.0) & np.isfinite(halves)))[0]
        if bad.size:
            # the first bad cube's first failed check, in the order of Cube
            if bad_c[bad[0]]:
                raise ValueError("point coordinates must be finite")
            raise ValueError(f"half_side must be positive and finite, got {float(halves[bad[0]])}")
        if ids is None:
            ids = np.arange(k, dtype=int)
        else:
            ids = np.asarray(ids, dtype=int)
            if ids.shape != (k,):
                raise ValueError("ids must align with cubes")
            if len(np.unique(ids)) != k:
                raise ValueError("cube ids must be unique")
        self.centers, self.halves, self.ids = centers, halves, ids

    def __len__(self) -> int:
        return self.halves.shape[0]

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __getitem__(self, i: int) -> Cube:
        return Cube(self.centers[i], float(self.halves[i]))

    @property
    def dim(self) -> int:
        if not len(self):
            raise ValueError("empty family has no dimension")
        return self.centers.shape[1]

    def subset(self, rows) -> "CubeFamily":
        """The cubes at positions ``rows``, in that order, with their ids."""
        return CubeFamily.from_arrays(self.centers[rows], self.halves[rows], self.ids[rows])

    def pairwise_disjoint(self) -> bool:
        return not meeting_pairs(self.centers, self.halves)[0].size


def select_min_disjoint(fam: CubeFamily) -> CubeFamily:
    """Greedy minimal-diameter selection of a pairwise disjoint hitting subfamily.

    Repeatedly takes the smallest remaining cube (ties by id) and discards
    everything it intersects.  The output cubes are pairwise disjoint as
    closed sets, and every input cube intersects an output cube of no larger
    diameter.
    """
    order = np.lexsort((fam.ids, fam.halves))  # half_side ascending, then id
    return fam.subset(order[greedy_disjoint(fam.centers[order], fam.halves[order])])


def color_disjoint(fam: CubeFamily, max_degree: int) -> list[CubeFamily]:
    """First-fit coloring of the cube intersection graph into disjoint classes.

    With every cube meeting at most ``max_degree`` others, first-fit in id
    order uses at most ``max_degree + 1`` classes.  A cube found to exceed the
    bound raises :class:`DegreeBoundError`.
    """
    k = len(fam)
    if k == 0:
        return []
    i, j = meeting_pairs(fam.centers, fam.halves)
    degrees = np.bincount(i, minlength=k)
    worst = int(np.argmax(degrees))
    if degrees[worst] > max_degree:
        raise DegreeBoundError(int(fam.ids[worst]), int(degrees[worst]), max_degree)
    ends = np.cumsum(degrees)
    color = np.full(k, -1, dtype=int)
    for a in np.argsort(fam.ids):
        nb = color[j[ends[a] - degrees[a] : ends[a]]]
        used = set(nb[nb >= 0].tolist())
        c = 0
        while c in used:
            c += 1
        color[a] = c
    return [fam.subset(np.nonzero(color == c)[0]) for c in range(int(color.max()) + 1)]
