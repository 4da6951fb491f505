"""Dyadic Whitney cover of the net complement and its partition of unity.

Starting from the working box, dyadic cubes are recursively halved; a cube Q
is kept as soon as ``dist(Q, E) >= diam Q`` (its parent necessarily failed,
which forces ``dist(Q, E) < 4 diam Q``, so every kept cube satisfies

    diam Q <= dist(Q, E) <= 4 diam Q.

Subdivision does not continue forever around net points: once a failing cube
sits inside ``Q(e, eta R(e) / 4)`` it is recorded as an inner hole.  Inside a
hole every anchored value that could influence the extension equals the value
at ``e`` itself, so the extension is exactly constant there and no finer
cubes are needed.

The partition of unity uses per-axis C^2 quintic ramps supported on
``Q* = (9/8) Q``, normalized by the local bump sum.  It is evaluated in one
batch (``PartitionOfUnity.evaluate``) as sparse (point, cube) terms.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .concentration import ConcentrationNet
from .geometry import Cube, cube_point_gaps, meeting_pairs, near_pairs, segment_reduce

__all__ = [
    "WhitneyCover",
    "PartitionOfUnity",
    "PartitionValues",
    "build_whitney",
    "assign_anchors",
    "DepthLimitError",
    "AnchorError",
    "PartitionDomainError",
]

log = logging.getLogger("sumspace.whitney")

# the dyadic level past which build_whitney gives up splitting
DEPTH_LIMIT = 60


class DepthLimitError(RuntimeError):
    """Net points too close for the dyadic depth limit to resolve."""


class AnchorError(RuntimeError):
    """The nearest net point of a cube fell outside ``tau * Q``."""


class PartitionDomainError(ValueError):
    """Partition evaluated where it is not defined (on E or inside a hole)."""


@dataclass
class WhitneyCover:
    """Selected dyadic cubes with adjacency, anchors and truncation holes.

    The adjacency is stored once, as directed edges sorted by ``edge_src`` and
    then ``edge_dst``; ``neighbors[i]`` is the view of the run of ``edge_dst``
    whose source is ``i``.
    """

    centers: np.ndarray
    halves: np.ndarray
    levels: np.ndarray
    boundary: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    hole_centers: np.ndarray
    hole_halves: np.ndarray
    hole_net: np.ndarray
    net: ConcentrationNet
    anchors: np.ndarray | None = None
    neighbors: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self._degrees = np.bincount(self.edge_src, minlength=self.size)
        ends = np.cumsum(self._degrees).tolist()
        self.neighbors = [self.edge_dst[a:b] for a, b in zip([0] + ends[:-1], ends)]

    @property
    def size(self) -> int:
        return self.centers.shape[0]

    @property
    def n(self) -> int:
        return self.centers.shape[1]

    def cube(self, i: int) -> Cube:
        return Cube(self.centers[i], float(self.halves[i]))

    @property
    def max_degree(self) -> int:
        return int(self._degrees.max(initial=0))

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Directed adjacency ``(i, j)`` for every ``j`` in ``neighbors[i]``, by ``i`` then ``j``."""
        return self.edge_src, self.edge_dst

    def dist_to_net(self, i: int) -> float:
        return float(np.min(cube_point_gaps(self.centers[i], self.halves[i], self.net.points)))

    def to_json_dict(self) -> dict:
        return {
            "cubes": [
                {
                    "c": list(map(float, self.centers[i])),
                    "r": float(self.halves[i]),
                    "level": int(self.levels[i]),
                    "boundary": bool(self.boundary[i]),
                    "anchor": int(self.anchors[i]) if self.anchors is not None else None,
                    "neighbors": list(map(int, self.neighbors[i])),
                }
                for i in range(self.size)
            ],
            "holes": [
                {
                    "c": list(map(float, self.hole_centers[i])),
                    "r": float(self.hole_halves[i]),
                    "net_point": int(self.hole_net[i]),
                }
                for i in range(self.hole_centers.shape[0])
            ],
        }


def build_whitney(net: ConcentrationNet) -> WhitneyCover:
    """Dyadic Whitney decomposition of the working box minus the net points."""
    if net.size == 0:
        raise ValueError("net is empty")
    E = net.points
    R = net.radii
    eta = net.params.eta
    hole_r = eta * R / 4.0
    hole_max = hole_r.max()
    box = net.working_box
    n = net.n

    sel_c, sel_h, sel_l = [], [], []
    hol_c, hol_h, hol_e = [], [], []

    offsets = np.array(
        np.meshgrid(*([[-0.5, 0.5]] * n), indexing="ij")
    ).reshape(n, -1).T

    C = box.center[None, :].copy()
    H = np.array([box.half_side])
    level = 0
    while C.shape[0]:
        if level > DEPTH_LIMIT:
            # only unresolved multi-point cubes are fatal; they mean the net
            # packs points below the dyadic resolution
            at, _ = meeting_pairs(C, H, E, np.zeros(net.size))
            if np.any(np.bincount(at) >= 2):
                raise DepthLimitError(
                    f"net point density exceeds dyadic depth limit {DEPTH_LIMIT}"
                )
            raise DepthLimitError(
                f"dyadic recursion not settled at depth {DEPTH_LIMIT}"
            )
        # keep Q when dist(Q, E) >= diam Q; a net point closer than that lies in Q(c, 3 H)
        at, e = near_pairs(C, 3.0 * H, E, np.zeros(net.size))
        keep = np.ones(C.shape[0], dtype=bool)
        keep[at[cube_point_gaps(C[at], H[at], E[e]) < 2.0 * H[at]]] = False
        if np.any(keep):
            sel_c.append(C[keep])
            sel_h.append(H[keep])
            sel_l.append(np.full(int(keep.sum()), level, dtype=int))
        rest_c = C[~keep]
        rest_h = H[~keep]
        if rest_c.shape[0] == 0:
            break
        # inner hole: failing cube contained in Q(e, eta R(e) / 4), owned by
        # the first such e; no cube with a half side above every hole radius is
        split_c, split_h = rest_c, rest_h
        if rest_h.min() <= hole_max:
            at, e = near_pairs(rest_c, rest_h, E, hole_r)
            in_hole = np.max(np.abs(rest_c[at] - E[e]), axis=1) + rest_h[at] <= hole_r[e]
            owner = _first_hits(at[in_hole], e[in_hole], rest_c.shape[0])
            is_hole = owner >= 0
            if np.any(is_hole):
                hol_c.append(rest_c[is_hole])
                hol_h.append(rest_h[is_hole])
                hol_e.append(owner[is_hole])
                split_c = rest_c[~is_hole]
                split_h = rest_h[~is_hole]
                if split_c.shape[0] == 0:
                    break
        child_h = split_h / 2.0
        C = (split_c[:, None, :] + child_h[:, None, None] * offsets[None, :, :] * 2.0).reshape(
            -1, n
        )
        H = np.repeat(child_h, offsets.shape[0])
        level += 1

    if not sel_c:
        raise RuntimeError("Whitney construction selected no cubes")
    centers = np.concatenate(sel_c, axis=0)
    halves = np.concatenate(sel_h)
    levels = np.concatenate(sel_l)
    holes_c = np.concatenate(hol_c, axis=0) if hol_c else np.zeros((0, n))
    holes_h = np.concatenate(hol_h) if hol_h else np.zeros(0)
    holes_e = np.concatenate(hol_e) if hol_e else np.zeros(0, dtype=int)

    # deterministic order: coarse to fine, then lexicographic
    order = np.lexsort((*centers.T[::-1], levels))
    centers, halves, levels = centers[order], halves[order], levels[order]

    # closed-cube adjacency, tested on the candidate pairs of a range join;
    # the relative slack heals one-ulp rounding of mixed-level half sums, and
    # cannot create false neighbors because disjoint cubes are separated by
    # at least a quarter of the smaller width
    N = centers.shape[0]
    rows, cols = near_pairs(centers, halves)
    rows, cols = rows[rows != cols], cols[rows != cols]
    hsum = (halves[rows] + halves[cols])[:, None]
    touch = np.all(np.abs(centers[rows] - centers[cols]) - hsum <= 1e-9 * hsum, axis=1)
    log.info(
        "whitney: %d cubes, %d holes, levels %d..%d, %d adjacency edges, "
        "%d candidate pairs",
        N, holes_h.shape[0], levels[0], levels[-1], int(touch.sum()) // 2, rows.shape[0],
    )

    on_edge = np.any(
        np.abs(centers - box.center) + halves[:, None] >= box.half_side * (1 - 1e-15),
        axis=1,
    )
    return WhitneyCover(
        centers=centers,
        halves=halves,
        levels=levels,
        boundary=on_edge,
        edge_src=rows[touch],
        edge_dst=cols[touch],
        hole_centers=holes_c,
        hole_halves=holes_h,
        hole_net=holes_e,
        net=net,
    )


def assign_anchors(cover: WhitneyCover) -> WhitneyCover:
    """Attach to each cube the nearest point of ``cover.net`` (ties to the lower id).

    The nearest point always lies in ``9 Q`` because ``dist(Q, E) <= 4 diam Q``,
    so the candidates are the net points a ``near_pairs`` join finds in
    ``tau Q``, with ``tau >= 9`` from the net's params; a cube without one, or
    whose nearest point lies outside ``tau Q``, indicates a cover that was not
    built from its net.
    """
    net, tau = cover.net, cover.net.params.tau
    E = net.points
    N = cover.size
    rows, cols = near_pairs(cover.centers, tau * cover.halves, E, np.zeros(net.size))

    # each cube's first pair by distance, then by id: ties go to the lower id
    order = np.lexsort((cols, cube_point_gaps(cover.centers[rows], cover.halves[rows], E[cols]), rows))
    found, first = np.unique(rows[order], return_index=True)
    anchors = np.full(N, -1)
    anchors[found] = cols[order[first]]
    center_gap = np.full(N, np.inf)
    center_gap[found] = np.max(np.abs(cover.centers[found] - E[anchors[found]]), axis=1)
    bad = center_gap > tau * cover.halves * (1 + 1e-12)
    if np.any(bad):
        i = int(np.nonzero(bad)[0][0])
        if anchors[i] < 0:
            # no candidate: the nearest of all net points names the gap
            anchors[i] = np.argmin(cube_point_gaps(cover.centers[i], cover.halves[i], E))
            center_gap[i] = np.max(np.abs(cover.centers[i] - E[anchors[i]]))
        raise AnchorError(
            f"anchor of cube {i} lies outside tau*Q "
            f"(gap {center_gap[i]:g} > {tau * cover.halves[i]:g})"
        )
    cover.anchors = anchors
    return cover


def _ramp(t: np.ndarray) -> np.ndarray:
    """C^2 smoothstep on [0, 1]."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def _ramp_deriv(t: np.ndarray) -> np.ndarray:
    inside = (t > 0.0) & (t < 1.0)
    tt = np.where(inside, t, 0.0)
    return np.where(inside, 30.0 * tt * tt * (1.0 - tt) ** 2, 0.0)


@dataclass
class PartitionValues:
    """The partition of unity at the rows of ``X``, as (row, cube) terms.

    Every cube ``Q`` whose bump is positive at a row of the working box that
    is not a net point gives one term: its row ``point``, ``cube``, the bump
    ``b_Q`` (``bump``), ``phi_Q`` and its gradient.  ``total`` is the bump sum
    of every row, zero at rows without terms.  The other arrays classify
    every row once: ``net_hit`` is the net point equal to it (or -1),
    ``outside`` marks rows outside the working box, and ``hole_net`` is the
    net point of the first inner hole that holds a box row (or -1), whether
    the row has terms or not.
    """

    point: np.ndarray
    cube: np.ndarray
    bump: np.ndarray
    phi: np.ndarray
    grad: np.ndarray
    total: np.ndarray
    net_hit: np.ndarray
    outside: np.ndarray
    hole_net: np.ndarray

    @property
    def covered(self) -> np.ndarray:
        """Rows at which the terms define the partition."""
        return self.total > 0.0

    def check_defined(self) -> None:
        """Raise :class:`PartitionDomainError` at the first row without terms."""
        bad = np.nonzero(~self.covered)[0]
        if not bad.size:
            return
        r = bad[0]
        if self.net_hit[r] >= 0:
            raise PartitionDomainError("partition undefined on E")
        if self.hole_net[r] >= 0:
            raise PartitionDomainError(
                "partition truncated inside an inner hole; the extension is "
                f"constant there (net point {int(self.hole_net[r])})"
            )
        raise PartitionDomainError("point not covered by the Whitney cover")


def _first_hits(rows: np.ndarray, cols: np.ndarray, size: int) -> np.ndarray:
    """Per row, the first of its ``cols`` (pairs sorted by row), or -1."""
    out = np.full(size, -1, dtype=np.intp)
    heads, first = np.unique(rows, return_index=True)
    out[heads] = cols[first]
    return out


class PartitionOfUnity:
    """Bumps ``phi_Q = b_Q / sum_K b_K`` with ``b_Q`` one on Q, zero off (9/8) Q."""

    SUPPORT = 9.0 / 8.0

    def __init__(self, cover: WhitneyCover):
        self.cover = cover

    def _factor(self, d: np.ndarray, r: np.ndarray):
        """Ramp factor at offsets ``d`` from the centres of cubes of half side ``r``,
        and its derivative in ``d``."""
        width = r / 8.0
        t = (self.SUPPORT * r - np.abs(d)) / width
        return _ramp(t), _ramp_deriv(t) * (-1.0 / width) * np.sign(d)

    def axis_factor(self, ids: np.ndarray, x: np.ndarray, axis: int):
        """Ramp factors of cubes ``ids`` along ``axis`` at 1d coordinates ``x``.

        The bump of a cube is the product of its factors over the axes.
        Returns the factor values and their signed derivatives in ``x``, both
        of shape (N, L) for ``ids`` of shape (L,) and ``x`` of shape (N,), or
        of shape (G, N, L), one stack entry per row, for ``ids`` of shape
        (G, L) and ``x`` of shape (G, N).
        """
        d = x[..., :, None] - self.cover.centers[ids, axis][..., None, :]
        return self._factor(d, self.cover.halves[ids][..., None, :])

    def bumps(self, ids: np.ndarray, X: np.ndarray):
        """Bump ``b`` of cube ``ids[k]`` and its gradient at the point ``X[k]``, for every k.

        Returns ``b`` of shape (K,) and ``grad`` of shape (K, n).
        """
        f, d = self._factor(X - self.cover.centers[ids], self.cover.halves[ids][:, None])
        rest = [np.prod(np.delete(f, ax, axis=1), axis=1) for ax in range(X.shape[1])]
        return np.prod(f, axis=1), np.stack(rest, axis=1) * d

    def evaluate(self, X) -> PartitionValues:
        """The partition and its gradients at the rows of the (P, n) array ``X``.

        The net point equal to a row, the inner holes that hold it and the
        cubes whose ``Q*`` holds it are closed-cube joins of the rows, as
        points, with those cubes (``meeting_pairs``).  A row that those joins
        leave unclassified is joined with the holes once more, their half
        sides widened by a relative 1e-12.
        """
        cover, net = self.cover, self.cover.net
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != cover.n:
            raise ValueError(f"expected rows of {cover.n} coordinates, got shape {X.shape}")
        P = X.shape[0]
        net_hit = _first_hits(*meeting_pairs(X, np.zeros(P), net.points, np.zeros(net.size)), P)
        box = net.working_box
        outside = (net_hit < 0) & np.any(np.abs(X - box.center) > box.half_side, axis=1)
        rows = np.nonzero((net_hit < 0) & ~outside)[0]
        Y = X[rows]

        zero = np.zeros(rows.size)  # the rows as points
        hole = _first_hits(*meeting_pairs(Y, zero, cover.hole_centers, cover.hole_halves), rows.size)
        at, q = meeting_pairs(Y, zero, cover.centers, self.SUPPORT * cover.halves)
        b, g = self.bumps(q, Y[at])
        pos = b > 0.0
        at, q, b, g = at[pos], q[pos], b[pos], g[pos]
        # S in ascending cube order by numpy's summation, as for one point alone
        S = segment_reduce(np.bincount(at, minlength=rows.size), lambda x: x.sum(axis=1), b)
        G = np.stack([np.bincount(at, weights=g[:, ax], minlength=rows.size) for ax in range(cover.n)], axis=1)
        # a row that no closed test classifies can sit a rounding outside a hole face
        stray = np.flatnonzero((hole < 0) & (S == 0.0))
        near = meeting_pairs(Y[stray], zero[stray], cover.hole_centers, cover.hole_halves * (1 + 1e-12))
        hole[stray] = _first_hits(*near, stray.size)
        hole_net = np.full(P, -1, dtype=np.intp)
        hole_net[rows[hole >= 0]] = cover.hole_net[hole[hole >= 0]]
        total = np.zeros(P)
        total[rows] = S
        S, G = S[at], G[at]
        return PartitionValues(
            point=rows[at],
            cube=q,
            bump=b,
            phi=b / S,
            grad=(g * S[:, None] - b[:, None] * G) / (S * S)[:, None],
            total=total,
            net_hit=net_hit,
            outside=outside,
            hole_net=hole_net,
        )
