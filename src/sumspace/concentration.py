"""Concentration radii and the separated measure-concentration net.

For an atomic measure ``mu`` and ``p > n`` the concentration radius of a
point is

    R(x) = inf { r > 0 : mu(Q(x, r)) >= r^(n-p) },

the crossing radius of the non-decreasing mass function with the decreasing
threshold ``r^(n-p)``.  The mass function of an atomic measure is a right
continuous step function, so the infimum is attained and can be computed in
closed form from the sorted atom distances.

``build_net`` constructs a finite set E inside a working box such that

  * distinct net points satisfy ``6 (R(e1) + R(e2)) <= |e1 - e2|`` exactly;
  * every x in the box has a net point with
    ``|x - e| + R(e) <= 83 (1 + delta_grid) R(x)``,

where ``delta_grid`` is the reported discretization slack of the layered
greedy construction.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .geometry import Cube, _greedy_pass, as_point, cube_point_gaps, near_pairs
from .measure import AtomicMeasure

__all__ = [
    "Params",
    "ConcentrationNet",
    "concentration_radius",
    "concentration_radius_batch",
    "build_net",
    "verify_concentration",
    "covering_violations",
    "NetCoverageError",
]

log = logging.getLogger("sumspace.concentration")


class NetCoverageError(RuntimeError):
    """Covering verification failed after the allowed refinement rounds."""

    def __init__(self, worst_x, ratio, bound):
        self.worst_x = worst_x
        self.ratio = ratio
        self.bound = bound
        super().__init__(
            f"net covering bound violated at x={worst_x}: needs {ratio:g}, "
            f"allowed {bound:g}"
        )


@dataclass(frozen=True)
class Params:
    """Exponent and dilation parameters shared across the construction.

    ``tau`` is the anchor dilation (anchors live in ``tau * Q``), ``eta`` the
    derived inner-core factor ``1 / (21 tau)``, and ``gamma_value`` the
    default containment dilation used to validate cube-family assignments,
    ``2^8 tau^2``.
    """

    p: float
    tau: float = 9.0

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p > 1):
            raise ValueError(f"p must be finite and > 1, got {self.p}")
        if not self.tau >= 9.0:
            raise ValueError(f"tau must be >= 9, got {self.tau}")

    @property
    def eta(self) -> float:
        return 1.0 / (21.0 * self.tau)

    @property
    def gamma_value(self) -> float:
        return 256.0 * self.tau**2

    def check_dimension(self, n: int) -> None:
        if not self.p > n:
            raise ValueError(f"p must exceed the dimension: p={self.p}, n={n}")


# atoms in the first 1d radius window; rows without a trusted crossing retry
# with twice as many
_WINDOW = 32
# rows per radius kernel call; bounds the kernel's (rows x window) arrays
_ROW_BLOCK = 512

# build_net's working box (the atoms' bounding cube scaled by BOX_SCALE),
# first lattice spacing and refinements
BOX_SCALE = 4.0
LATTICE_THETA = 0.125
REFINEMENTS = 2
# verify_concentration's sampled point pairs, far cubes per size ratio and
# relative slack on every inequality
CHECK_PAIRS = 200
FAR_CUBE_SAMPLES = 60
CHECK_SLACK = 1e-9


def _radius_rows(mu: AtomicMeasure, kappa: float, X: np.ndarray, width: int):
    """Radii of the rows of ``X`` from windows of ``width`` atoms.

    Each row sees a window of ``width`` atoms and a ``cut`` such that the
    window holds every atom closer than ``cut``.  In 1d the window is the
    ``width`` consecutive atoms in sorted-position order around the row and
    ``cut`` the distance to the nearest atom outside them.  In 2d it is the
    row's ``width`` sup-norm nearest atoms from ``mu``'s KD-tree, and
    ``cut`` the distance of the next one, lowered by a few ulps so that a
    rounding of the tree's distances can only lower it further.  A window of
    every atom has an infinite ``cut``.  The window is put in atom-index
    order and stable-sorted by distance, the order of a stable argsort over
    all atoms, so prefix masses below ``cut`` are the same sums.  Returns
    the radii, ``nan`` where no crossing below ``cut`` can be trusted.
    """
    N = X.shape[0]
    if width >= mu.m:
        idx = None
        P = mu.positions[None, :, :]
        cut = np.full((N, 1), np.inf)
    elif mu.n == 1:
        x = X[:, 0]
        s = np.clip(np.searchsorted(mu._sorted_x, x) - width // 2, 0, mu.m - width)
        idx = np.sort(mu._order[s[:, None] + np.arange(width)], axis=1)
        P = mu.positions[idx]
        # sorted positions padded by -inf/+inf: xs[s] and xs[s + width + 1]
        # are the neighbours just outside the window
        xs = np.concatenate([[-np.inf], mu._sorted_x, [np.inf]])
        cut = np.minimum(np.abs(x - xs[s]), np.abs(xs[s + width + 1] - x))[:, None]
    else:
        dist, near = mu._tree.query(X, k=width + 1, p=np.inf)
        idx = np.sort(near[:, :width], axis=1)
        P = mu.positions[idx]
        cut = dist[:, width:] * (1.0 - 4.0 * np.finfo(float).eps)
    # sup-norm distances to the window, one axis at a time
    D = np.abs(X[:, None, 0] - P[..., 0])
    for d in range(1, mu.n):
        np.maximum(D, np.abs(X[:, None, d] - P[..., d]), out=D)
    order = np.argsort(D, axis=1, kind="stable")
    Ds = np.take_along_axis(D, order, axis=1)
    atoms = order if idx is None else np.take_along_axis(idx, order, axis=1)
    cum = np.cumsum(mu.weights[atoms], axis=1)
    # on [d_k, d_{k+1}) the mass is cum_k; the crossing there, if any, is
    # max(d_k, cum_k^(-kappa)); later crossings are >= d_{k+1}, so the first
    # one is the radius.  A crossing below cut has d_k < cut, so its prefix
    # holds no atom outside the window.
    cand = np.maximum(Ds, cum ** (-kappa))
    nxt = np.concatenate([Ds[:, 1:], np.full((N, 1), np.inf)], axis=1)
    valid = cand < np.minimum(nxt, cut)
    first = cand[np.arange(N), np.argmax(valid, axis=1)]
    return np.where(valid.any(axis=1), first, np.nan)


def _radii(mu: AtomicMeasure, p: float, X) -> tuple[np.ndarray, int]:
    """Concentration radii of the rows of ``X`` and the count of widened rows.

    The rows go through the kernel ``_ROW_BLOCK`` at a time.  A row's
    radius does not depend on the other rows, so the radii are those of one
    pass, and the kernel's (rows x window) arrays stay within a block.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != mu.n:
        raise ValueError(f"dimension mismatch: points {X.shape[1]}, measure {mu.n}")
    if not p > mu.n:
        raise ValueError(f"p must exceed the dimension: p={p}, n={mu.n}")
    kappa = 1.0 / (p - mu.n)
    R = np.empty(X.shape[0])
    widened = 0
    for start in range(0, X.shape[0], _ROW_BLOCK):
        rows = np.arange(start, min(start + _ROW_BLOCK, X.shape[0]))
        width = _WINDOW
        while rows.size:
            Rw = _radius_rows(mu, kappa, X[rows], width)
            done = ~np.isnan(Rw)
            R[rows[done]] = Rw[done]
            rows = rows[~done]
            widened += rows.size
            width *= 2
    return R, widened


def concentration_radius_batch(mu: AtomicMeasure, p: float, X) -> np.ndarray:
    """Vectorized concentration radii for rows of ``X``."""
    return _radii(mu, p, X)[0]


def concentration_radius(mu: AtomicMeasure, p: float, x) -> float:
    """Concentration radius at a single point."""
    return float(concentration_radius_batch(mu, p, as_point(x)[None, :])[0])


def _layer_of(v: float) -> int:
    """Index j with 2^(-j-1) < v <= 2^(-j)."""
    j = int(math.floor(-math.log2(v)))
    # guard against log rounding at dyadic boundaries
    while 2.0 ** (-j) < v:
        j -= 1
    while 2.0 ** (-j - 1) >= v:
        j += 1
    return j


@dataclass
class ConcentrationNet:
    """The separated net E with per-point radii and cubes ``K = Q(e, R(e))``."""

    points: np.ndarray
    radii: np.ndarray
    layers: np.ndarray
    working_box: Cube
    delta_grid: float
    theta: float
    params: Params
    # build_net's work summed over its rounds: lattice rows, rows the radius
    # screen skipped, rows and calls of the radius kernel, widened rows; the
    # last round's layer range, points its layer sweeps kept and points its
    # pruning left; and the rounds
    stats: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def n(self) -> int:
        return self.points.shape[1]

    def to_json_dict(self) -> dict:
        return {
            "points": [
                {"e": list(map(float, self.points[i])), "R": float(self.radii[i])}
                for i in range(self.size)
            ],
            "working_box": {
                "center": list(map(float, self.working_box.center)),
                "half_side": float(self.working_box.half_side),
            },
            "delta_grid": float(self.delta_grid),
        }


def _corners(box: Cube) -> np.ndarray:
    axes = [(box.center[i] - box.half_side, box.center[i] + box.half_side) for i in range(box.dim)]
    return np.array(list(itertools.product(*axes)), dtype=float)


def _default_box(mu: AtomicMeasure, p: float, inflation: float) -> Cube:
    center = mu.bounding_center()
    half = mu.bounding_half_width()
    if half == 0.0:
        half = concentration_radius(mu, p, center)
    return Cube(center, half * inflation)


def _layer_candidate_grid(A: np.ndarray, box: Cube, j: int, h: float):
    """Lattice points of spacing ``h`` covering {dist(., A) <= 2^-j} in the box.

    Each atom of ``A`` reaches a box of lattice indices, clipped to the
    working box.  The boxes are enumerated together, and a lexicographic
    sort of the index rows with repeats dropped gives the union in
    lexicographic order; no flat key is formed, so nothing overflows however
    far apart the atoms lie.  Returns the points and the pairs ``(row,
    atom)`` of each point with every atom reaching it, sorted by point.

    In 1d the boxes are intervals, and one sort of their starts gives the
    union directly, ascending; the pairs are not formed (None), since the
    1d screen (``_sorted_bounds``) does not read them.
    """
    reach = 2.0 ** (-j) + h
    lo = box.lo
    n = A.shape[1]
    max_idx = np.maximum(np.ceil((box.hi - lo) / h).astype(int), 0)
    i0 = np.maximum(np.floor((A - reach - lo) / h).astype(int), 0)
    i1 = np.minimum(np.ceil((A + reach - lo) / h).astype(int), max_idx)
    keep = np.flatnonzero(np.all(i1 >= i0, axis=1))
    i0, i1 = i0[keep], i1[keep]
    if not keep.shape[0]:
        return np.zeros((0, n)), np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    if n == 1:
        # the indices of each interval past the ends of those starting before it
        order = np.argsort(i0[:, 0], kind="stable")
        a, b = i0[order, 0], i1[order, 0]
        a[1:] = np.maximum(a[1:], np.maximum.accumulate(b)[:-1] + 1)
        counts = np.maximum(b - a + 1, 0)
        idx = np.arange(int(counts.sum())) + np.repeat(a - (np.cumsum(counts) - counts), counts)
        return lo[None, :] + idx[:, None].astype(float) * h, None, None
    # entry t of atom a's box, row-major: the last axis varies fastest
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
    order = np.lexsort(idx.T[::-1])
    idx, atom = idx[order], keep[atom[order]]
    new = np.concatenate([[True], np.any(idx[1:] != idx[:-1], axis=1)])
    return lo[None, :] + idx[new].astype(float) * h, np.cumsum(new) - 1, atom


def _sorted_bounds(mu: AtomicMeasure, RA: np.ndarray):
    """Screen bounds of 1d rows over all atoms, from the radii ``RA`` at the atoms.

    Returns a function of the rows giving the distance to the nearest atom
    and ``max_a R(a) - |x - a| <= R(x) <= min_a R(a) + |x - a|``.  For the
    atoms left of ``x`` the terms are ``(R(a) + a) - x`` and ``(R(a) - a) + x``,
    for those right of it ``(R(a) - a) + x`` and ``(R(a) + a) - x``: prefix
    and suffix extrema over the sorted positions, made once, give every
    bound of a row from one ``searchsorted``.
    """
    s = mu._sorted_x
    up, dn = RA[mu._order] + s, RA[mu._order] - s
    lo_left = np.concatenate([[-np.inf], np.maximum.accumulate(up)])
    lo_right = np.concatenate([np.maximum.accumulate(dn[::-1])[::-1], [-np.inf]])
    hi_left = np.concatenate([[np.inf], np.minimum.accumulate(dn)])
    hi_right = np.concatenate([np.minimum.accumulate(up[::-1])[::-1], [np.inf]])
    xs = np.concatenate([[-np.inf], s, [np.inf]])

    def bounds(X, row, atom):
        x = X[:, 0]
        k = np.searchsorted(s, x, side="right")
        near = np.minimum(x - xs[k], xs[k + 1] - x)
        lb = np.maximum(lo_left[k] - x, lo_right[k] + x)
        ub = np.minimum(hi_left[k] + x, hi_right[k] - x)
        return near, lb, ub

    return bounds


def _reach_bounds(A: np.ndarray, RA: np.ndarray):
    """Screen bounds of lattice rows over the atoms reaching them, from the radii ``RA`` at the atoms.

    Returns a function of the rows and their pairs ``(row, atom)``, sorted
    by row, giving the distance to the nearest reaching atom and ``max
    R(a) - |x - a| <= R(x) <= min R(a) + |x - a|`` over the reaching atoms:
    one distance per pair, which the lattice enumeration has already made.
    """

    def bounds(X, row, atom):
        # sup-norm distances one axis at a time, gathered from the columns
        D = np.abs(X[:, 0][row] - A[:, 0][atom])
        for d in range(1, A.shape[1]):
            np.maximum(D, np.abs(X[:, d][row] - A[:, d][atom]), out=D)
        first = np.flatnonzero(np.diff(row, prepend=-1))
        r = RA[atom]
        return (
            np.minimum.reduceat(D, first),
            np.maximum.reduceat(r - D, first),
            np.minimum.reduceat(r + D, first),
        )

    return bounds


def _greedy_layer_net(cand: np.ndarray, radii: np.ndarray, eps: float):
    """Maximal eps-separated subset in rho_R, greedy in lexicographic order.

    The first live candidate is kept, and one pass over the later ones drops
    those within ``rho < eps`` of it: the sums a candidate-by-candidate scan
    against the kept points forms, so the kept set is the same.
    """
    order = np.lexsort(cand.T[::-1])
    C, R = cand[order], radii[order]
    cols = C.T.copy()
    live = np.arange(C.shape[0])
    keep = []
    while live.size:
        k, live = live[0], live[1:]
        keep.append(k)
        # sup-norm distances one axis at a time
        D = np.abs(cols[0][live] - cols[0][k])
        for c in cols[1:]:
            np.maximum(D, np.abs(c[live] - c[k]), out=D)
        rho = (D + R[k]) + R[live]
        live = live[~(rho < eps)]
    return C[keep], R[keep]


def _prune(P: np.ndarray, R: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Mask of the layer-j points with no finer-layer point at ``|e - e'| + R' + R <= 14 2^-j``;
    one join of the cubes ``Q(e, 14 2^-j - R)`` with the points finds those."""
    eps = 14.0 * 2.0 ** -L
    c, f = near_pairs(P, eps - R, P, np.zeros(R.shape[0]))
    close = (L[f] > L[c]) & (
        (np.max(np.abs(P[f] - P[c]), axis=1) + R[f]) + R[c] <= eps[c]
    )
    kept = np.ones(R.shape[0], dtype=bool)
    kept[c[close]] = False
    return kept


def _separate(P: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Indices, in visiting order (by radius, then lexicographic), of the points a greedy pass
    keeps unless ``6 (R + R') > |e - e'|`` for a kept ``e'``; the cubes ``Q(e, 6 R)`` meet then."""
    order = np.lexsort((*P.T[::-1], R))
    P, R = P[order], R[order]
    i, k = near_pairs(P, 6.0 * R)
    clash = (k < i) & (6.0 * (R[i] + R[k]) > np.max(np.abs(P[i] - P[k]), axis=1))
    return order[_greedy_pass(R.shape[0], i[clash], k[clash])]


def _screen_tol(mu: AtomicMeasure, p: float, box: Cube, r: float) -> float:
    """Slack of the radius screen at radius ``r`` on the box.

    R is 1-Lipschitz, so ``R(a) - |x - a| <= R(x) <= R(a) + |x - a|`` for
    every atom ``a``; the computed radii and bounds meet it up to rounding.
    A radius is a prefix mass of up to m atoms raised to ``-kappa`` or a
    distance, so it is off by at most about ``kappa m`` ulps; the bounds add
    a few ulps of the coordinates, at most ``scale`` in magnitude, and of
    ``R(a) <= R(x) + 2 scale``.  The slack is eight times that.
    """
    kappa = 1.0 / (p - mu.n)
    scale = float(np.max(np.abs(box.center))) + box.half_side
    return 8.0 * np.finfo(float).eps * (kappa * mu.m + 8.0) * (r + scale)


def _inside(X: np.ndarray, box: Cube) -> np.ndarray:
    """Rows within the box, up to a relative 1e-12 of its half side."""
    D = np.abs(X[:, 0] - box.center[0])
    for d in range(1, X.shape[1]):
        np.maximum(D, np.abs(X[:, d] - box.center[d]), out=D)
    return D <= box.half_side * (1 + 1e-12)


def _layer_rows(mu: AtomicMeasure, p: float, box: Cube, RA: np.ndarray, bounds, j: int, h: float):
    """Layer j's lattice rows the screen keeps, and the count of all its lattice rows.

    The screen drops the rows that would be masked out of the layer, before
    the kernel sees them: rows outside the box, and rows whose ``bounds``
    (``_sorted_bounds`` or ``_reach_bounds`` of the atoms' radii ``RA``)
    put R outside ``(2^-j-1, 2^-j]`` (see ``_screen_tol``).  A row x of the
    layer also lies within ``R(x) <= 2^-j`` of an atom (the nearest: R is
    at least its distance), and that atom's radius is at most ``2^(1-j)``:
    one the layer keeps, whose lattice holds x.  So rows farther than
    ``2^-j`` from every atom reaching them are dropped too.
    """
    lo, hi = 2.0 ** (-j - 1), 2.0 ** (-j)
    tol = _screen_tol(mu, p, box, hi)
    # an atom reaches lattice points within 2^-j + 2h; R exceeds 2^-j at all
    # of them when R(a) does by more than that
    near = np.flatnonzero(RA - (hi + 2.0 * h) <= hi + tol)
    X, row, atom = _layer_candidate_grid(mu.positions[near], box, j, h)
    dist, lb, ub = bounds(X, row, None if atom is None else near[atom])
    keep = _inside(X, box) & (dist <= hi) & (lb - tol <= hi) & (ub + tol > lo)
    return X[keep], X.shape[0]


def _build_once(mu: AtomicMeasure, params: Params, box: Cube, theta: float):
    p = params.p
    n = mu.n
    kappa = 1.0 / (p - n)

    # layer range: R is 1-Lipschitz, so R <= R(center) + half_side on the box,
    # and R is bounded below by the total-mass threshold
    fixed_pts = np.concatenate([mu.positions, _corners(box)], axis=0)
    RF, widened = _radii(mu, p, np.concatenate([fixed_pts, box.center[None, :]], axis=0))
    r_floor = mu.total_mass ** (-kappa)
    r_max = float(np.max(RF)) + box.half_side
    j_min = _layer_of(r_max)
    j_max = _layer_of(r_floor)
    RF = RF[:-1]
    RA = RF[: mu.m]

    # the screened lattice rows of every layer
    bounds = _sorted_bounds(mu, RA) if n == 1 else _reach_bounds(mu.positions, RA)
    layers = range(j_min, j_max + 1)
    rows, lattice = [], 0
    for j in layers:
        # lattice indices over the box stay within int64
        h = max(theta * 2.0 ** (-j), 2.0 * box.half_side * 2.0**-62)
        X, count = _layer_rows(mu, p, box, RA, bounds, j, h)
        rows.append(X)
        lattice += count

    # the survivors of every layer through the radius kernel in one pass
    X = np.concatenate(rows)
    R, w = _radii(mu, p, X)
    widened += w

    # the kept points of every layer, coarse to fine; the atoms and corners
    # are candidates of every layer with the radii of the layer-range batch
    fixed_in = _inside(fixed_pts, box)
    layer_pts, layer_R, layer_j = [], [], []
    start = 0
    for j, Xj in zip(layers, rows):
        Rj = R[start : start + Xj.shape[0]]
        start += Xj.shape[0]
        lo, hi = 2.0 ** (-j - 1), 2.0 ** (-j)
        mask = (Rj > lo) & (Rj <= hi)
        fmask = (RF > lo) & (RF <= hi) & fixed_in
        if mask.any() or fmask.any():
            # a point in both sets carries the same radius; the sweep keeps
            # its first copy and drops the other at distance 0
            eps = 14.0 * 2.0 ** (-j)
            bp, br = _greedy_layer_net(
                np.concatenate([Xj[mask], fixed_pts[fmask]]),
                np.concatenate([Rj[mask], RF[fmask]]),
                eps,
            )
            layer_pts.append(bp)
            layer_R.append(br)
            layer_j.append(np.full(br.shape[0], j))

    if not layer_pts:
        raise RuntimeError("net construction produced no points")
    P, R, L = np.concatenate(layer_pts), np.concatenate(layer_R), np.concatenate(layer_j)
    kept = _prune(P, R, L)
    # the layer range, the points the layer sweeps kept and those pruning left
    shape = {"j_min": j_min, "j_max": j_max, "kept": R.shape[0], "pruned": int(kept.sum())}
    P, R, L = P[kept], R[kept], L[kept]
    sep = _separate(P, R)
    P, R, L = P[sep], R[sep], L[sep]

    delta = (2.0 + 86.0 * theta) / 83.0
    work = {
        "lattice_rows": lattice,
        "skipped_rows": lattice - X.shape[0],
        # the survivors and the layer-range batch
        "radius_rows": X.shape[0] + RF.size + 1,
        "kernel_blocks": -(-(RF.size + 1) // _ROW_BLOCK) + -(-X.shape[0] // _ROW_BLOCK),
        "widened_rows": widened,
    }
    return ConcentrationNet(P, R, L, box, delta, theta, params, work), shape


def _verification_points(mu: AtomicMeasure, box: Cube) -> np.ndarray:
    lo, hi = box.lo, box.hi
    axes = [np.linspace(lo[d], hi[d], 9) for d in range(box.dim)]
    grid = np.array(list(itertools.product(*axes)))
    return np.concatenate([grid, mu.positions, _corners(box)], axis=0)


def covering_violations(net: ConcentrationNet, mu: AtomicMeasure, X) -> list[tuple[np.ndarray, float, float]]:
    """Points of ``X`` whose best ``|x-e| + R(e)`` exceeds ``83 (1+delta) R(x)``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    RX = concentration_radius_batch(mu, net.params.p, X)
    bound = 83.0 * (1.0 + net.delta_grid)
    dists = np.max(np.abs(net.points[None, :, :] - X[:, None, :]), axis=2)
    lhs = np.min(dists + net.radii, axis=1)
    bad = np.flatnonzero(lhs > bound * RX * (1 + 1e-12))
    return [(X[i], lhs[i] / RX[i], bound) for i in bad]


def build_net(mu: AtomicMeasure, params: Params) -> ConcentrationNet:
    """Construct the separated net by layered greedy selection with pruning.

    Candidates per dyadic layer come from a lattice of spacing
    ``theta * 2^-j`` over the layer's reachable region plus the atom
    positions and box corners, starting at ``theta = LATTICE_THETA``.  The
    built net is verified against the covering bound on a deterministic
    sample; on failure the lattice is refined (``theta`` halved) up to
    ``REFINEMENTS`` times.
    """
    params.check_dimension(mu.n)
    box = _default_box(mu, params.p, BOX_SCALE)
    th = LATTICE_THETA
    last_violation = None
    work = Counter()
    for rounds in range(1, REFINEMENTS + 2):
        net, shape = _build_once(mu, params, box, th)
        work.update(net.stats)
        bad = covering_violations(net, mu, _verification_points(mu, box))
        if not bad:
            net.stats = s = {**work, **shape, "rounds": rounds}
            log.info(
                "net: m=%d n=%d p=%g, layers %d..%d, %d lattice rows, %d skipped by the "
                "radius screen, %d radius rows in %d kernel blocks, %d widened radius rows, "
                "layer sweeps kept %d, pruning left %d, separation left %d points, "
                "%d rounds, theta %g",
                mu.m, mu.n, params.p, s["j_min"], s["j_max"], s["lattice_rows"], s["skipped_rows"],
                s["radius_rows"], s["kernel_blocks"], s["widened_rows"], s["kept"], s["pruned"],
                net.size, rounds, th,
            )
            return net
        last_violation = max(bad, key=lambda t: t[1])
        th /= 2.0
    x, ratio, bound = last_violation
    raise NetCoverageError(x, ratio, bound)


@dataclass
class CheckResult:
    name: str
    ok: bool
    checked: int
    worst: float
    detail: str = ""


@dataclass
class ConcentrationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name, ok, checked, worst, detail=""):
        self.checks.append(CheckResult(name, bool(ok), int(checked), float(worst), detail))


def verify_concentration(
    net: ConcentrationNet,
    mu: AtomicMeasure,
    rng: np.random.Generator | None = None,
) -> ConcentrationReport:
    """Report the mass-concentration inequalities for a net built from ``mu``,
    at the exponent of the net's params.

    Checks, for every net cube ``K = Q(e, R(e))`` with ``d = diam K``:

      * ``2^(p-n) d^(n-p) <= mu(K) <= 2^(15 p) d^(n-p)``,
      * ``mu(5K) <= 2^(14 p) mu(K)``,

    plus the exact net separation, the distance bound between net cubes, a
    sampled ``mu(Q) <= 42^p (1+theta)^p r^(n-p)`` inequality for cubes far
    from E relative to their size, and the 1-Lipschitz property of R.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    p, n = net.params.p, mu.n
    rep = ConcentrationReport()

    d = 2.0 * net.radii
    lower = 2.0 ** (p - n) * d ** (n - p)
    upper = 2.0 ** (15.0 * p) * d ** (n - p)
    masses = mu.mass_many(net.points, net.radii)
    ok_lo = np.all(masses >= lower * (1 - CHECK_SLACK))
    ok_hi = np.all(masses <= upper * (1 + CHECK_SLACK))
    worst_lo = float(np.min(masses / lower)) if net.size else 1.0
    worst_hi = float(np.max(masses / upper)) if net.size else 0.0
    rep.add("mass_lower_bound", ok_lo, net.size, worst_lo, "min mass/bound")
    rep.add("mass_upper_bound", ok_hi, net.size, worst_hi, "max mass/bound")

    m5 = mu.mass_many(net.points, 5.0 * net.radii)
    cap = 2.0 ** (14.0 * p) * masses
    rep.add(
        "five_cube_mass",
        np.all(m5 <= cap * (1 + CHECK_SLACK)),
        net.size,
        float(np.max(m5 / cap)) if net.size else 0.0,
        "max mu(5K)/bound",
    )

    # every pair i < k once, each ratio divided as for one pair, then the min
    i, k = np.triu_indices(net.size, 1)
    diff = np.abs(net.points[i] - net.points[k])
    gap = np.max(diff, axis=1)
    need = 6.0 * (net.radii[i] + net.radii[k])
    rep.add(
        "net_separation",
        not np.any(gap < need),
        net.size * (net.size - 1) // 2,
        np.min(gap / need) if net.size > 1 else np.inf,
        "min gap/6(R1+R2)",
    )

    # diam K + diam K' <= dist(K, K') / 2 for distinct net cubes
    gap = np.max(np.maximum(diff - (net.radii[i] + net.radii[k])[:, None], 0.0), axis=1)
    need = 2.0 * (d[i] + d[k])
    rep.add(
        "cube_separation",
        not np.any(gap < need),
        net.size * (net.size - 1) // 2,
        np.min(gap / need) if net.size > 1 else np.inf,
        "min dist/2(diam+diam')",
    )

    box = net.working_box
    # the sampled cubes and their bounds first, then their masses in one batch
    far_c, far_r, far_bound = [], [], []
    for theta in (0.5, 1.0, 2.0):
        for _ in range(FAR_CUBE_SAMPLES):
            x = box.lo + rng.random(n) * (box.hi - box.lo)
            dist0 = float(np.min(np.max(np.abs(net.points - x), axis=1)))
            if dist0 <= 0:
                continue
            r = 0.9 * theta * dist0 / (2.0 + theta)
            if r <= 0:
                continue
            dqe = float(np.min(cube_point_gaps(x, r, net.points)))
            if 2 * r > theta * dqe:
                continue
            far_c.append(x)
            far_r.append(r)
            far_bound.append(42.0**p * (1 + theta) ** p * r ** (n - p))
    far_mass = mu.mass_many(np.reshape(far_c, (len(far_r), n)), far_r).tolist()
    ratios = [m / bound for m, bound in zip(far_mass, far_bound)]
    ok_qne = not any(ratio > 1 + CHECK_SLACK for ratio in ratios)
    rep.add("far_cube_mass", ok_qne, len(ratios), max([0.0] + ratios), "max mu(Q)/bound")

    X = box.lo + rng.random((CHECK_PAIRS, n)) * (box.hi - box.lo)
    Y = box.lo + rng.random((CHECK_PAIRS, n)) * (box.hi - box.lo)
    RX = concentration_radius_batch(mu, p, X)
    RY = concentration_radius_batch(mu, p, Y)
    gaps = np.max(np.abs(X - Y), axis=1)
    diff = np.abs(RX - RY)
    ok_lip = np.all(diff <= gaps * (1 + CHECK_SLACK) + 1e-15)
    worst_lip = float(np.max(diff - gaps))
    rep.add("radius_lipschitz", ok_lip, CHECK_PAIRS, worst_lip, "max |dR| - |dx|")

    bad = covering_violations(net, mu, X)
    rep.add(
        "covering",
        not bad,
        CHECK_PAIRS,
        max((b[1] / b[2] for b in bad), default=0.0),
        "max lhs/bound over violations",
    )
    return rep
