"""The linear near-optimal decomposition ``f = T1 f + T2 f``.

``T1 f`` averages ``f`` over each net cube ``K = Q(e, R(e))``, extends the
resulting values from the net by the Whitney-type formula

    f1(x) = sum_Q phi_Q(x) * tilde(anchor(Q)),

and is constant on the inner holes and outside the working box.  ``T2 f`` is
the residual ``f - T1 f`` at the atoms.  ``T1`` is applied as two sparse
matrices, the net cube averages and the partition-of-unity extension of
those values, so both maps are linear in ``f`` by construction.

The smoothness cost of ``f1`` is estimated either by tensor Gauss-Legendre
quadrature of ``max_i |d_i f1|^p`` over the cover cubes, or by the discrete
anchored-difference surrogate summed over neighboring cubes.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .concentration import ConcentrationNet, Params
from .geometry import Cube, segment_reduce
from .measure import AtomicMeasure, _values_of, lp_norm
from .whitney import PartitionOfUnity, PartitionValues, WhitneyCover

__all__ = [
    "Decomposition",
    "build_extension",
    "eval_f1",
    "estimate_sobolev_seminorm",
    "mu_norm_f2",
    "WorkingBoxError",
    "QuadratureError",
]

log = logging.getLogger("sumspace.decompose")

QUAD_ORDER = 4
QUAD_DOUBLINGS = 3
QUAD_REL_TOL = 1e-3
# bound on the tensor nodes plus factor entries of the cubes stacked in one quadrature block
QUAD_BLOCK = 1 << 15


class WorkingBoxError(RuntimeError):
    """Boundary values of the extension disagree with the far-field constant."""


class QuadratureError(RuntimeError):
    def __init__(self, worst_cube: int, change: float):
        self.worst_cube = worst_cube
        self.change = change
        super().__init__(
            f"seminorm quadrature did not settle; worst cube {worst_cube}, "
            f"last relative change {change:g}"
        )


@dataclass
class Decomposition:
    """``f = T1 f + T2 f`` at the atoms; the net, params and partition are the cover's."""

    mu: AtomicMeasure
    f: np.ndarray
    cover: WhitneyCover
    tilde: np.ndarray
    far_field: float
    f1_at_atoms: np.ndarray
    f2: np.ndarray
    boundary_mismatch: float

    @property
    def net(self) -> ConcentrationNet:
        return self.cover.net

    @property
    def params(self) -> Params:
        return self.cover.net.params

    @property
    def pou(self) -> PartitionOfUnity:
        return PartitionOfUnity(self.cover)

    def to_json_dict(self) -> dict:
        return {
            "tilde": [float(v) for v in self.tilde],
            "far_field": float(self.far_field),
            "f1_at_atoms": [float(v) for v in self.f1_at_atoms],
            "f2": [float(v) for v in self.f2],
            "boundary_mismatch": float(self.boundary_mismatch),
        }


def _boundary_samples(box: Cube) -> np.ndarray:
    n = box.dim
    lo, hi = box.lo, box.hi
    pts = []
    if n == 1:
        pts = [[lo[0]], [hi[0]]]
    else:
        line = np.linspace(lo[0], hi[0], 7)
        for v in (lo[1], hi[1]):
            pts.extend([[x, v] for x in line])
        line = np.linspace(lo[1], hi[1], 7)
        for v in (lo[0], hi[0]):
            pts.extend([[v, y] for y in line])
    return np.asarray(pts, dtype=float)


@dataclass
class SparseRows:
    """The linear map ``x -> (M @ x) / norm`` of a sparse matrix M stored row by row.

    Row k holds the next ``counts[k]`` entries: values ``vals`` in columns
    ``cols``.  Every row is applied with the BLAS dot product of its
    entries in stored order, the rounding of ``np.dot(vals, x[cols]) / norm``.
    """

    counts: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    norm: np.ndarray

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        dots = lambda a, b: np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]
        return segment_reduce(self.counts, dots, self.vals, x[self.cols]) / self.norm


def _averages(mu: AtomicMeasure, net: ConcentrationNet) -> SparseRows:
    """The means over the net cubes and, as one more row, over every atom (the far field).

    A row holds the weights of its atoms, in ascending atom order, over
    their sum: the rounding of ``average`` and of the global mean.
    """
    rows, atoms = mu.cube_atoms(net.points, net.radii)
    counts = np.append(np.bincount(rows, minlength=net.size), mu.m)
    vals = np.concatenate([mu.weights[atoms], mu.weights])
    mass = segment_reduce(counts, lambda w: w.sum(axis=1), vals)
    if np.any(mass == 0.0):
        raise ValueError("average over mu-null set")
    return SparseRows(counts, np.concatenate([atoms, np.arange(mu.m)]), vals, mass)


def _extension(part: PartitionValues, anchors: np.ndarray, far: int) -> SparseRows:
    """The extension from the net values, plus the far field in column ``far``, to the rows.

    A covered row holds its bumps ``b_Q`` in the columns of the anchors of
    ``Q``, one entry per cube in cube order, over the bump sum, so that
    ``phi`` is applied as ``np.dot(t, b) / S``.  Every other row is a unit
    row: at the net point it equals, at the far field outside the working
    box, or at the net point of its inner hole.
    """
    unit = np.nonzero(~part.covered)[0]
    col = np.where(
        part.net_hit[unit] >= 0,
        part.net_hit[unit],
        np.where(part.outside[unit], far, part.hole_net[unit]),
    )
    if np.any(col < 0):
        raise RuntimeError(
            f"row {int(unit[col < 0][0])} is neither covered, outside, nor in a hole"
        )
    rows = np.concatenate([part.point, unit])
    order = np.argsort(rows, kind="stable")
    return SparseRows(
        np.bincount(rows, minlength=part.total.size),
        np.concatenate([anchors[part.cube], col])[order],
        np.concatenate([part.bump, np.ones(unit.size)])[order],
        np.where(part.covered, part.total, 1.0),
    )


def build_extension(
    f,
    mu: AtomicMeasure,
    cover: WhitneyCover,
    strict_far_field: bool = False,
    far_field_tol: float = 1e-6,
) -> Decomposition:
    """Assemble the decomposition for atom values ``f`` over an anchored cover.

    ``T1`` is two sparse linear maps applied one after the other: the
    averages over the cubes of ``cover.net``, with the far field, the global
    mu-average, as one more row, and the extension of those values to the
    atoms and the boundary samples.  Boundary samples of the Whitney
    formula are compared against the far field; the worst relative mismatch
    is recorded, and with ``strict_far_field`` a mismatch beyond
    ``far_field_tol`` raises :class:`WorkingBoxError`.  For spread-out
    measures the extension genuinely tends to per-direction limits, so the
    strict check is opt-in.
    """
    values = _values_of(f)
    if values.shape[0] != mu.m:
        raise ValueError("function values must align with the atoms")
    if cover.anchors is None:
        raise ValueError("cover has no anchors; call assign_anchors first")

    net = cover.net
    net_values = _averages(mu, net) @ values
    X = np.concatenate([mu.positions, _boundary_samples(net.working_box)])
    f1 = _extension(PartitionOfUnity(cover).evaluate(X), cover.anchors, net.size) @ net_values
    far_field = float(net_values[-1])
    f1_at_atoms = f1[: mu.m]
    scale = max(np.max(np.abs(values)) if values.size else 0.0, abs(far_field), 1e-30)
    dec = Decomposition(
        mu=mu,
        f=values,
        cover=cover,
        tilde=net_values[:-1],
        far_field=far_field,
        f1_at_atoms=f1_at_atoms,
        f2=values - f1_at_atoms,
        boundary_mismatch=float(np.max(np.abs(f1[mu.m :] - far_field)) / scale),
    )
    if strict_far_field and dec.boundary_mismatch > far_field_tol:
        raise WorkingBoxError(
            f"working box too small: boundary mismatch {dec.boundary_mismatch:g} "
            f"exceeds {far_field_tol:g}"
        )
    return dec


def eval_f1(dec: Decomposition, x):
    """Value and gradient of the extension at one point, or at every row of a 2d array.

    One point gives ``(value, gradient)``; rows give arrays of shapes (P,)
    and (P, n).  Convention: the gradient is the zero vector at net points,
    on the inner holes, and outside the working box, where the extension is
    constant.
    """
    n = dec.net.n
    X = np.asarray(x, dtype=float)
    rows = X.ndim == 2
    part = dec.pou.evaluate(X if rows else X.reshape(1, n))
    anchors = dec.cover.anchors
    value = _extension(part, anchors, dec.net.size) @ np.append(dec.tilde, dec.far_field)
    # gauge the anchored values to the local mean for cancellation
    tc = dec.tilde[anchors[part.cube]] - value[part.point]
    grad = np.stack(
        [
            np.bincount(part.point, weights=tc * part.grad[:, ax], minlength=value.size)
            for ax in range(n)
        ],
        axis=1,
    )
    if rows:
        return value, grad
    return float(value[0]), grad[0]


def mu_norm_f2(dec: Decomposition) -> float:
    """Exact atomic Lp(mu) norm of the residual part."""
    return lp_norm(dec.mu, dec.f2, dec.params.p)


def _cell_groups(dec: Decomposition, active: np.ndarray):
    """The local cubes and cells of every active cube, grouped by shape.

    The local set of cube ``i`` is ``i`` and then its neighbors.  Neighbor
    bumps switch on and off inside the cube, so the integrand has
    axis-aligned kinks at the neighbors' plain and dilated faces; the cube is
    split there into smooth cells.  Per axis, the cell edges are the distinct
    faces in the closed cube, in ascending order; its own two faces are among
    them.  Cubes with as many local cubes and cells per axis form one group,
    returned as its positions in ``active``, the local ids and their anchored
    values (G, L), and per axis the edges (G, cells + 1).  None of this
    depends on the Gauss order.
    """
    cover = dec.cover
    owner, nb = cover.edges()
    on = np.isin(owner, active)
    key = np.concatenate([active, owner[on]])
    # a stable sort puts every active cube before its neighbors, kept in their order
    order = np.argsort(key, kind="stable")
    local = np.concatenate([active, nb[on]])[order]
    seg = np.searchsorted(active, key[order])
    size = np.bincount(seg, minlength=active.size)
    c, h = cover.centers[local], cover.halves[local]
    sup = PartitionOfUnity.SUPPORT
    edges, counts = [], [size]
    for ax in range(cover.n):
        cuts = np.concatenate([c[:, ax] - h, c[:, ax] + h, c[:, ax] - sup * h, c[:, ax] + sup * h])
        at = np.tile(seg, 4)
        lo = cover.centers[active, ax] - cover.halves[active]
        hi = cover.centers[active, ax] + cover.halves[active]
        keep = (cuts >= lo[at]) & (cuts <= hi[at])
        cuts, at = cuts[keep], at[keep]
        o = np.lexsort((cuts, at))
        cuts, at = cuts[o], at[o]
        new = np.ones(cuts.size, dtype=bool)
        new[1:] = (at[1:] != at[:-1]) | (cuts[1:] != cuts[:-1])
        edges.append(cuts[new])
        counts.append(np.bincount(at[new], minlength=active.size))
    shapes, inv = np.unique(np.stack(counts, axis=1), axis=0, return_inverse=True)
    starts = [np.cumsum(k) - k for k in counts]
    groups = []
    for g, shape in enumerate(shapes):
        members = np.nonzero(inv.ravel() == g)[0]
        take = lambda flat, start, k: flat[start[members][:, None] + np.arange(k)]
        ids = take(local, starts[0], shape[0])
        axes = [take(e, st, k) for e, st, k in zip(edges, starts[1:], shape[1:])]
        groups.append((members, ids, dec.tilde[cover.anchors[ids]], axes))
    return groups


def _gradient_powers(
    pou: PartitionOfUnity,
    ids: np.ndarray,
    t: np.ndarray,
    edges: list[np.ndarray],
    nodes: np.ndarray,
    wts: np.ndarray,
    p: float,
) -> np.ndarray:
    """Tensor quadrature of ``max_axis |grad f1|^p`` over the cells of G cubes of one shape.

    Row g of ``ids``, ``t`` and of the per-axis ``edges`` describes one cube.
    The bumps of its local cubes factor over the axes, so the sums over
    cubes at every tensor node are matrix products of per-axis factors,
    stacked over the G cubes: ``S = f0 f1^T`` and, for each axis, the
    bump-gradient sum and its ``t``-weighted counterpart.  A 1d cube gets a
    second, constant axis.
    """
    G, L = ids.shape
    axes = []
    for e in edges:
        mid, half = (e[:, :-1] + e[:, 1:]) / 2.0, (e[:, 1:] - e[:, :-1]) / 2.0
        axes.append(
            ((mid[..., None] + half[..., None] * nodes).reshape(G, -1),
             (half[..., None] * wts).reshape(G, -1))
        )
    (x0, w0), *rest = axes
    f0, d0 = pou.axis_factor(ids, x0, 0)
    if rest:
        (x1, w1), = rest
        f1, d1 = pou.axis_factor(ids, x1, 1)
    else:
        w1, f1, d1 = np.ones((G, 1)), np.ones((G, 1, L)), np.zeros((G, 1, L))
    t = t[:, None, :]
    f1, d1 = f1.mT, d1.mT
    tf0 = t * f0
    S = f0 @ f1
    B = tf0 @ f1
    S2 = S * S
    gx = ((t * d0) @ f1 * S - B * (d0 @ f1)) / S2
    gy = (tf0 @ d1 * S - B * (f0 @ d1)) / S2
    mag = np.maximum(np.abs(gx), np.abs(gy))
    return ((w0[:, None, :] @ mag**p) @ w1[:, :, None])[:, 0, 0]


@functools.cache
def _gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of ``order`` on [-1, 1], read-only since they are shared."""
    nodes, wts = leggauss(order)
    nodes.flags.writeable = False
    wts.flags.writeable = False
    return nodes, wts


def _cube_powers(pou: PartitionOfUnity, groups, size: int, order: int, p: float) -> np.ndarray:
    """Integral of ``max_axis |grad f1|^p`` over each of the ``size`` grouped cubes at Gauss ``order``.

    A group is integrated in blocks of at most ``QUAD_BLOCK`` tensor nodes
    and factor entries (at least one cube), so memory does not grow with
    the group; every cube's part is the same however its group is split.
    """
    nodes, wts = _gauss_rule(order)
    parts = np.empty(size)
    for members, ids, t, edges in groups:
        per_axis = [(e.shape[1] - 1) * order for e in edges]
        step = max(1, QUAD_BLOCK // (math.prod(per_axis) + sum(per_axis) * ids.shape[1]))
        for s in range(0, members.size, step):
            blk = slice(s, s + step)
            parts[members[blk]] = _gradient_powers(
                pou, ids[blk], t[blk], [e[blk] for e in edges], nodes, wts, p
            )
    return parts


def _active_cubes(dec: Decomposition) -> np.ndarray:
    """Ids of the cover cubes whose own and neighbors' anchored values differ.

    A cube whose values coincide (up to the rounding floor of the averages)
    carries a constant extension and contributes nothing; integrating only
    cubes that see genuinely mixed values also keeps pure cancellation noise
    out of the sum.
    """
    cover = dec.cover
    tol_active = 1e-12 * float(np.max(np.abs(dec.tilde), initial=0.0))
    v = dec.tilde[cover.anchors]
    owner, nb = cover.edges()
    vmax, vmin = v.copy(), v.copy()
    np.maximum.at(vmax, owner, v[nb])
    np.minimum.at(vmin, owner, v[nb])
    return np.nonzero(vmax - vmin > tol_active)[0]


def _still_moving(change: np.ndarray, live: np.ndarray, budget: float) -> np.ndarray:
    """The live cubes left once those of smallest last ``change`` are frozen.

    Live cubes are frozen in ascending order of change for as long as the
    changes of every frozen cube, earlier ones included, sum to at most
    ``budget``; a frozen cube stays frozen.
    """
    idx = np.nonzero(live)[0]
    idx = idx[np.argsort(change[idx], kind="stable")]
    fits = change[~live].sum() + np.cumsum(change[idx]) <= budget
    live = live.copy()
    live[idx[fits]] = False
    return live


def _live_groups(groups, live: np.ndarray):
    """The cell groups restricted to their ``live`` members, empty groups dropped."""
    out = []
    for members, ids, t, edges in groups:
        keep = live[members]
        if keep.any():
            out.append((members[keep], ids[keep], t[keep], [e[keep] for e in edges]))
    return out


def estimate_sobolev_seminorm(dec: Decomposition, method: str = "quadrature") -> float:
    """Estimate ``(integral of max_i |d_i f1|^p)^(1/p)``.

    ``quadrature`` integrates over every active cover cube with tensor
    Gauss-Legendre nodes, from ``QUAD_ORDER`` on, doubling the order up to
    ``QUAD_DOUBLINGS`` times until the total moves by less than
    ``QUAD_REL_TOL`` relatively; holes and the box exterior contribute
    nothing because the extension is constant there.  The first two orders
    integrate every cube.  From the third on, only the cubes that still
    move are doubled: a cube stops and keeps its last part once it is
    among the cubes of smallest last change whose changes sum to at most
    half the tolerance on the p-th-power sum,
    ``0.5 * ((1 + QUAD_REL_TOL)**p - 1) * sum(parts)``.
    ``discrete`` returns the anchored-difference surrogate
    ``(sum_K sum_{Q~K} |t(a_Q) - t(a_K)|^p / diam(K)^(p-n))^(1/p)``, an
    upper-bound proxy up to a dimensional constant, for monitoring only.
    """
    p = dec.params.p
    cover = dec.cover
    if method == "discrete":
        i, j = cover.edges()
        v = dec.tilde[cover.anchors]
        terms = np.abs(v[j] - v[i]) ** p / (2.0 * cover.halves[i]) ** (p - cover.n)
        # a sequential sum in edge order (np.sum would add pairwise)
        return float(np.cumsum(np.append(0.0, terms))[-1]) ** (1.0 / p)
    if method != "quadrature":
        raise ValueError(f"unknown seminorm method {method!r}")

    active = _active_cubes(dec)
    if not active.size:
        log.info("seminorm: 0/%d active cubes, 0 rounds, value 0", cover.size)
        return 0.0

    groups = _cell_groups(dec, active)
    order = QUAD_ORDER
    live = np.ones(active.size, dtype=bool)
    change = np.zeros(active.size)
    counts: list[int] = []
    totals: list[float] = []
    for _ in range(QUAD_DOUBLINGS + 1):
        if len(totals) >= 2:
            budget = 0.5 * ((1.0 + QUAD_REL_TOL) ** p - 1.0) * parts.sum()
            live = _still_moving(change, live, budget)
        if live.all():
            new = _cube_powers(dec.pou, groups, active.size, order, p)
        else:
            new = parts.copy()
            new[live] = _cube_powers(dec.pou, _live_groups(groups, live), active.size, order, p)[live]
        counts.append(int(live.sum()))
        total = float(new.sum() ** (1.0 / p))
        if totals:
            change[live] = np.abs(new - parts)[live]
            prev_total = totals[-1]
            denom = max(total, prev_total, 1e-300)
            if abs(total - prev_total) <= QUAD_REL_TOL * denom:
                log.info(
                    "seminorm: %d/%d active cubes, %d rounds, order %d, cubes per order %s, value %.6g",
                    active.size, cover.size, len(counts), order, "/".join(map(str, counts)), total,
                )
                return total
        parts = new
        totals.append(total)
        order *= 2
    worst = int(active[live][np.argmax(change[live])])
    raise QuadratureError(worst, abs(totals[-1] - totals[-2]) / max(totals[-1], 1e-300))
