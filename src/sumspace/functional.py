"""Oscillation-sum functionals over disjoint cube families.

Each functional sums, over a pairwise disjoint family of cubes Q with two
assigned cubes Q', Q'' contained in ``gamma Q``, a weighted double integral

    D(Q', Q'') = integral over Q' x Q'' of |f(x) - f(y)|^p dmu dmu,

which for an atomic measure is a finite double sum over atom pairs.  The
variants differ in the weight attached to each term:

  CR     (diam Q)^(n-p) D / [((diam Q')^(n-p) + mu(Q')) ((diam Q'')^(n-p) + mu(Q''))]
  V1     ((diam Q' diam Q'') / diam Q)^(p-n) D          [requires the unit mass sum]
  V4     V1 weight / ((diam Q')^(p-n) mu(Q') + (diam Q'')^(p-n) mu(Q''))
  VTH3   D / (mu(Q') mu(Q'')) / ((diam Q)^(p-n) (1 + (diam Q')^(n-p)/mu(Q')
                                               + (diam Q'')^(n-p)/mu(Q'')))
  N11    the VTH3 weight with the VTH3 admissibility conditions

``build_reference_family`` emits the measure-determined family on which the
sum-space norm is equivalent to the functional value, together with the
weighted set-pair list (the linear-combination form), and ``k_curve``
traces two-sided K-functional estimates.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .concentration import ConcentrationNet, Params, build_net
from .decompose import build_extension, estimate_sobolev_seminorm, mu_norm_f2
from .geometry import CubeFamily, cube_point_gaps, greedy_disjoint, meeting_pairs, near_pairs, segment_reduce
from .lacunae import Lacuna, partition_lacunae
from .measure import AtomicMeasure, _values_of, lp_norm
from .whitney import PartitionOfUnity, WhitneyCover, assign_anchors, build_whitney

__all__ = [
    "Variant",
    "FamilyAssignment",
    "FamilyValidationError",
    "validate_family",
    "admissible_sums",
    "eval_family_functional",
    "build_reference_family",
    "ReferenceFamily",
    "eval_weighted_pairs",
    "search_lower_bound",
    "KCurvePoint",
    "k_curve",
    "build_pipeline",
]

log = logging.getLogger("sumspace.functional")


class Variant(Enum):
    CR = "CR"
    V1 = "V1"
    V4 = "V4"
    VTH3 = "VTH3"
    N11 = "N11"


class FamilyValidationError(ValueError):
    def __init__(self, cube_id, constraint: str):
        self.cube_id = cube_id
        self.constraint = constraint
        super().__init__(f"cube {cube_id}: {constraint}")


@dataclass
class FamilyAssignment:
    """Disjoint cubes with per-cube assigned pair, optionally from a second pool."""

    family: CubeFamily
    prime: list[int]
    dprime: list[int]
    pool: CubeFamily | None = None

    def __post_init__(self):
        k = len(self.family)
        if len(self.prime) != k or len(self.dprime) != k:
            raise ValueError("prime/dprime must assign one cube per family member")
        pool_size = len(self.pool_cubes)
        for name, m in (("prime", self.prime), ("dprime", self.dprime)):
            for j in m:
                if not 0 <= j < pool_size:
                    raise ValueError(f"{name} index {j} outside the pool")

    @property
    def pool_cubes(self) -> CubeFamily:
        """The cubes ``prime`` and ``dprime`` index: the pool, or the family without one."""
        return self.pool if self.pool is not None else self.family

    def to_json_dict(self) -> dict:
        d = {
            "cubes": _cubes_to_json(self.family),
            "prime": list(map(int, self.prime)),
            "dprime": list(map(int, self.dprime)),
        }
        if self.pool is not None:
            d["pool"] = _cubes_to_json(self.pool)
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "FamilyAssignment":
        fam = _cubes_from_json(d["cubes"])
        pool = _cubes_from_json(d["pool"]) if "pool" in d else None
        return cls(fam, [int(i) for i in d["prime"]], [int(i) for i in d["dprime"]], pool)


def _cubes_to_json(fam: CubeFamily) -> list:
    return [{"c": list(map(float, c)), "r": float(r)} for c, r in zip(fam.centers, fam.halves)]


def _cubes_from_json(entries: list) -> CubeFamily:
    """The cubes ``[{"c": [...], "r": ...}, ...]`` of a family file, checked as cubes."""
    centers = np.array([e["c"] for e in entries], dtype=float)
    return CubeFamily.from_arrays(
        centers.reshape(len(entries), -1 if entries else 1), [e["r"] for e in entries]
    )


class _CubeAtoms:
    """The atoms of a set of cubes, found by one ``cube_atoms`` call, and the sums over them."""

    def __init__(self, mu: AtomicMeasure, fam: CubeFamily):
        rows, self.atoms = mu.cube_atoms(fam.centers, fam.halves)
        counts = np.bincount(rows, minlength=len(fam))
        self.end = np.cumsum(counts)
        self.start = self.end - counts
        self.weights = mu.weights
        # per cube, with the bits of mu.mass
        self.mass = segment_reduce(counts, lambda w: w.sum(axis=1), mu.weights[self.atoms])

    def _union(self, cubes: np.ndarray) -> np.ndarray:
        """The atoms inside any of the given cubes, ascending."""
        parts = [self.atoms[self.start[c] : self.end[c]] for c in cubes.tolist()]
        return parts[0] if len(parts) == 1 else np.unique(np.concatenate(parts))

    def oscillations(self, values: np.ndarray, p: float, A, B) -> np.ndarray:
        """Per pair ``k``, ``w[S] @ |f[S][:, None] - f[T][None, :]|^p @ w[T]``.

        ``S`` holds the atoms of the cubes ``A[k]`` and ``T`` those of
        ``B[k]`` (index arrays), both ascending; the value is 0 where either
        is empty.  Each product is taken alone (``_oscillation``), so it keeps
        the rounding of one vector-matrix-vector product.
        """
        out = np.zeros(len(A))
        for k, (a, b) in enumerate(zip(A, B)):
            s, t = self._union(a), self._union(b)
            if s.size and t.size:
                out[k] = _oscillation(values, self.weights, s, t, p)
        return out


def _oscillation(values: np.ndarray, weights: np.ndarray, s: np.ndarray, t: np.ndarray, p: float) -> float:
    """``w[s] @ |f[s][:, None] - f[t][None, :]|^p @ w[t]`` through one ``|s| x |t|`` matrix.

    The absolute value and the power are taken in place, with the bits of
    ``np.abs(d) ** p``, and the matrix is freed on return, so a loop of
    products holds one matrix at a time.
    """
    d = values[s][:, None] - values[t][None, :]
    np.abs(d, out=d)
    d **= p
    return float(weights[s] @ d @ weights[t])


def _powers(x: np.ndarray, e: float) -> np.ndarray:
    """``x ** e`` elementwise by Python's float power, the rounding of scalar code."""
    return np.array([v**e for v in x.tolist()], dtype=float)


def _variant_weights(variant: Variant, n: int, p: float, dq, dp, dd, mp, md) -> np.ndarray:
    """The weight of each term (see the module docstring) from the diameters of
    Q, Q', Q'' and the masses of Q', Q''; elementwise, with the rounding of
    the same formula in scalar Python arithmetic."""
    if variant is Variant.CR:
        return _powers(dq, n - p) / ((_powers(dp, n - p) + mp) * (_powers(dd, n - p) + md))
    if variant is Variant.V1:
        return _powers(dp * dd / dq, p - n)
    if variant is Variant.V4:
        denom = _powers(dp, p - n) * mp + _powers(dd, p - n) * md
        with np.errstate(divide="ignore", invalid="ignore"):
            # oscillation vanishes on null sets anyway
            return np.where(denom == 0.0, 0.0, _powers(dp * dd / dq, p - n) / denom)
    if variant in (Variant.VTH3, Variant.N11):
        denom = mp * md * _powers(dq, p - n) * (1.0 + _powers(dp, n - p) / mp + _powers(dd, n - p) / md)
        return 1.0 / denom
    raise ValueError(f"unknown variant {variant}")


def _ordered_sum(terms: np.ndarray) -> float:
    """The terms added one by one in order, from 0."""
    total = 0.0
    for t in terms.tolist():
        total += t
    return total


class _Valuation:
    """The valuation of a family's members, each at its dilation ``gamma``.

    The atoms of the pool, the ``(2, k)`` indices of every member's Q' and
    Q'', and which of them lie in ``gamma Q`` are found once; the
    admissibility checks and the oscillation sums all read them.  The
    members may come from several candidate families at once (see
    ``_value_chunk``), each member at its own dilation.
    """

    def __init__(self, fa: FamilyAssignment, mu: AtomicMeasure, p: float, gamma: float):
        pairs = np.array([fa.prime, fa.dprime], dtype=np.intp)
        self._set(fa.family, fa.pool_cubes, pairs, mu, p, gamma)

    @classmethod
    def from_arrays(cls, family: CubeFamily, pool: CubeFamily, pairs: np.ndarray, mu: AtomicMeasure,
                    p: float, gamma) -> "_Valuation":
        """The members ``family`` with Q' and Q'' the pool cubes ``pairs``; ``gamma`` may be per member."""
        val = cls.__new__(cls)
        val._set(family, pool, pairs, mu, p, gamma)
        return val

    def _set(self, family: CubeFamily, pool: CubeFamily, pairs: np.ndarray, mu: AtomicMeasure, p: float,
             gamma) -> None:
        self.family, self.pool_halves, self.n, self.p = family, pool.halves, mu.n, p
        self.gamma = np.broadcast_to(np.asarray(gamma, dtype=float), family.halves.shape)
        self.atoms = _CubeAtoms(mu, pool)
        self.pairs = J = pairs
        ph = pool.halves[J]
        self.inside = np.all(
            np.abs(family.centers - pool.centers[J]) + ph[..., None] <= (self.gamma * family.halves)[:, None],
            axis=2,
        )

    def checks(self, variant: Variant, mass_mode: str) -> list:
        """The per-member admissibility conditions in checking order.

        Each condition is a pair: the mask of the members that meet it, and
        the message for a member ``k`` that does not.
        """
        gamma = self.gamma
        if not np.all(gamma > 0):
            raise ValueError("dilation factor must be positive")
        if not np.all(np.isfinite(gamma)):
            raise ValueError(f"gamma must be finite, got {gamma[~np.isfinite(gamma)][0]}")
        names = ("Q'", "Q''")
        out = [
            (self.inside[a], lambda k, name=name: f"{name} escapes gamma*Q with gamma={gamma[k]:g}")
            for a, name in enumerate(names)
        ]
        if variant not in (Variant.V1, Variant.V4, Variant.VTH3, Variant.N11):
            return out
        n, p, mass, J = self.n, self.p, self.atoms.mass, self.pairs
        if variant in (Variant.V1, Variant.V4):
            diam = 2.0 * self.pool_halves
            jp, jd = J
            if mass_mode == "unit_sum":
                s = _powers(diam[jp], p - n) * mass[jp] + _powers(diam[jd], p - n) * mass[jd]
                out.append((~(s > 1.0 + 1e-12), lambda k: f"unit mass-sum condition violated ({s[k]:g} > 1)"))
            elif mass_mode == "mass_bound":
                cap = 2.0 ** (32.0 * p)
                for name, j in zip(names, J):
                    over = mass[j] > cap * _powers(diam[j], n - p) * (1 + 1e-12)
                    out.append((~over, lambda k, name=name: f"{name} mass bound violated"))
            else:
                raise ValueError(f"unknown mass_mode {mass_mode!r}")
        else:
            for name, j in zip(names, J):
                out.append((mass[j] > 0.0, lambda k, name=name: f"{name} has zero mass, not admissible here"))
        return out

    def admissible(self, variant: Variant, mass_mode: str = "unit_sum") -> np.ndarray:
        """Per member, whether its pair is admissible alone: it meets every check."""
        if not len(self.family):
            return np.ones(0, dtype=bool)
        return np.logical_and.reduce([meets for meets, _ in self.checks(variant, mass_mode)])

    def validate(self, variant: Variant, mass_mode: str) -> None:
        """Raise for the first member that meets another, or else for the first
        member that is not admissible, with its first failed check."""
        fam = self.family
        if not len(fam):
            return
        i, _ = meeting_pairs(fam.centers, fam.halves)
        if i.size:
            raise FamilyValidationError(int(fam.ids[i[0]]), "family cubes are not pairwise disjoint")
        checks = self.checks(variant, mass_mode)
        bad = np.nonzero(~np.logical_and.reduce([meets for meets, _ in checks]))[0]
        if bad.size:
            k = int(bad[0])
            reason = next(message(k) for meets, message in checks if not meets[k])
            raise FamilyValidationError(int(fam.ids[k]), reason)

    def oscillations(self, values: np.ndarray, members=slice(None)) -> np.ndarray:
        """Per member (of ``members``, all by default), the oscillation between its Q' and Q''."""
        jp, jd = self.pairs[:, members]
        return self.atoms.oscillations(values, self.p, jp[:, None], jd[:, None])

    def terms(self, variant: Variant, osc: np.ndarray, members) -> tuple[np.ndarray, np.ndarray]:
        """The given members whose oscillation ``osc`` is not 0, and their terms
        weight times oscillation, in their order."""
        k = np.asarray(members, dtype=np.intp)
        k = k[osc[k] != 0.0]  # a null Q' or Q'' holds no atom, so its oscillation vanishes
        jp, jd = self.pairs[:, k]
        ph, mass = self.pool_halves, self.atoms.mass
        dq = 2.0 * self.family.halves[k]
        w = _variant_weights(variant, self.n, self.p, dq, 2.0 * ph[jp], 2.0 * ph[jd], mass[jp], mass[jd])
        return k, w * osc[k]

    def weighted_sum(self, variant: Variant, osc: np.ndarray, members) -> float:
        """Weight times oscillation ``osc`` of the given members, added in their order."""
        return _ordered_sum(self.terms(variant, osc, members)[1])

    def value(self, variant: Variant, values: np.ndarray) -> float:
        """The functional value: the weighted sum over every member."""
        return self.weighted_sum(variant, self.oscillations(values), range(len(self.family)))


def validate_family(
    fa: FamilyAssignment,
    variant: Variant,
    mu: AtomicMeasure,
    p: float,
    gamma: float,
    mass_mode: str = "unit_sum",
) -> None:
    """Check disjointness, gamma-containment and the variant's mass conditions.

    ``mass_mode`` selects the admissibility side condition for V1/V4:
    ``unit_sum`` demands
    ``(diam Q')^(p-n) mu(Q') + (diam Q'')^(p-n) mu(Q'') <= 1`` while
    ``mass_bound`` demands ``mu(Q') <= 2^(32 p) (diam Q')^(n-p)`` (and the
    same for Q'').  VTH3 and N11 demand ``mu(Q') > 0`` and ``mu(Q'') > 0``.
    Meeting cubes are found by ``meeting_pairs``; the error names the first
    member that meets another, or else the first member whose pair is not
    admissible alone, with its first failed condition.
    """
    _Valuation(fa, mu, p, gamma).validate(variant, mass_mode)


def admissible_sums(fa: FamilyAssignment, mu: AtomicMeasure, values: np.ndarray, p: float,
                    gamma: float) -> dict:
    """Per variant, the members admissible alone (unit mass sum; see
    :func:`validate_family`) and the oscillation sum over them in member order.

    One valuation of the family serves every variant.
    """
    val = _Valuation(fa, mu, p, gamma)
    osc = val.oscillations(values)
    out = {}
    for variant in Variant:
        keep = np.nonzero(val.admissible(variant))[0]
        out[variant] = keep, val.weighted_sum(variant, osc, keep)
    return out


def _default_gamma() -> float:
    """``Params.gamma_value`` at the default ``tau``: ``2^8 tau^2``, whatever ``p``."""
    return Params(p=2.0).gamma_value


def eval_family_functional(
    fa: FamilyAssignment,
    variant: Variant,
    mu: AtomicMeasure,
    f,
    p: float,
    gamma: float | None = None,
    mass_mode: str = "unit_sum",
) -> float:
    """Exact value of the oscillation sum for the given variant, after
    :func:`validate_family`; one atom query over the pool serves both."""
    values = _values_of(f)
    if values.shape[0] != mu.m:
        raise ValueError("function values must align with the atoms")
    if gamma is None:
        gamma = _default_gamma()
    val = _Valuation(fa, mu, p, gamma)
    val.validate(variant, mass_mode)
    return val.value(variant, values)


# ---------------------------------------------------------------------------
# the measure-determined reference family


@dataclass
class WeightedPair:
    """One term ``lam * iint_{G x H} |f(x) - f(y)|^p dmu dmu`` of the linear form;
    ``G`` and ``H`` are unions of the cubes their keys name in ``ReferenceFamily.cubes``."""

    lam: float
    G: np.ndarray
    H: np.ndarray
    tag: str


@dataclass
class ReferenceFamily:
    """The reference family and its weighted set-pair list.

    ``cubes`` holds the cubes the pair keys name: key ``k < net.size`` is
    net cube ``k`` and ``net.size + i`` is cover cube ``i``.
    """

    assignment: FamilyAssignment
    pairs: list[WeightedPair]
    cubes: CubeFamily
    gamma_needed: float
    pool_multiplicity: int
    dropped: int
    meta: dict = field(default_factory=dict)


def eval_weighted_pairs(ref: ReferenceFamily, mu: AtomicMeasure, f, p: float) -> float:
    """Value of the weighted linear combination of set-pair oscillations, added in pair order."""
    values = _values_of(f)
    keys = np.unique(np.concatenate([k for q in ref.pairs for k in (q.G, q.H)]))
    atoms = _CubeAtoms(mu, ref.cubes.subset(keys))
    G = [np.searchsorted(keys, q.G) for q in ref.pairs]
    H = [np.searchsorted(keys, q.H) for q in ref.pairs]
    lam = np.array([q.lam for q in ref.pairs], dtype=float)
    return _ordered_sum(lam * atoms.oscillations(values, p, G, H))


def build_reference_family(
    mu: AtomicMeasure,
    net: ConcentrationNet,
    cover: WhitneyCover,
    lacunae: list[Lacuna],
    params: Params,
) -> ReferenceFamily:
    """The family determined by the measure on which the functional tracks the norm.

    Members come in three groups: small disjoint cubes planted inside each
    Whitney cube away from the net cubes, carrying anchored-average pairs;
    shifted half-cubes carrying the cube-to-anchor pairs; and the net cubes
    paired with themselves.  Collisions are resolved greedily with net cubes
    kept first.  The weighted set-pair list adds the per-lacuna terms
    ``(union of member cubes, projected net cube, 1/mass)``.

    Members are held as arrays (centers, half sides, pool keys); pool key
    ``k < net.size`` is net cube ``k`` and ``net.size + i`` is cover cube
    ``i``.  Cubes meeting each other or near a net cube are found by range
    joins (``meeting_pairs``, ``near_pairs``), so the cost follows the number
    of such contacts.
    """
    p, n = params.p, mu.n
    eta = params.eta
    E, R = net.points, net.radii
    C, H = cover.centers, cover.halves
    anchors = cover.anchors
    if anchors is None:
        raise ValueError("cover has no anchors")
    key_c = np.concatenate([E, C])
    key_h = np.concatenate([R, H])

    # Whitney cubes clear of every shrunken net cube: no net point e with
    # dist(Q, e) <= eta R(e) / 2
    thr = eta * R / 2.0
    rows, pts = near_pairs(C, H, E, thr)
    near = cube_point_gaps(C[rows], H[rows], E[pts]) <= thr[pts]
    is_away = np.ones(cover.size, dtype=bool)
    is_away[rows[near]] = False
    away = np.nonzero(is_away)[0]

    # group 1: planted cubes inside T_K = half of the lower corner half-cube,
    # one per neighbor with another anchor, on a g^n grid in row-major order
    src, dst = cover.edges()
    sel = is_away[src] & (anchors[dst] != anchors[src])
    src, dst = src[sel], dst[sel]
    count = np.bincount(src, minlength=cover.size)
    rank = np.arange(src.shape[0]) - (np.cumsum(count) - count)[src]
    g_of = {m: max(1, int(math.ceil(m ** (1.0 / n)))) for m in np.unique(count[src]).tolist()}
    g = np.array([g_of[m] for m in count[src].tolist()], dtype=np.intp)
    h = H[src]
    tc = C[src] - (h / 2.0)[:, None]
    th = 0.5 * (h / 2.0)
    step = 2.0 * th / g
    digits = np.stack([(rank // g ** (n - 1 - ax)) % g for ax in range(n)], axis=1)
    cell_c = (tc - th[:, None]) + (digits + 0.5) * step[:, None]
    cell_h = step / 4.0

    # group 2: shifted half-cubes carrying cube-vs-anchored-cube oscillation
    rep_c = C[away] + (H[away] / 2.0)[:, None]
    rep_h = 0.5 * (H[away] / 2.0)

    # members in priority order: net cubes (paired with themselves), planted,
    # residual; Q' and Q'' as pool keys
    net_ids = np.arange(net.size)
    q_c = np.concatenate([E, cell_c, rep_c])
    q_h = np.concatenate([R, cell_h, rep_h])
    p_key = np.concatenate([net_ids, anchors[dst], net.size + away])
    d_key = np.concatenate([net_ids, anchors[src], anchors[away]])
    tags = ("net",) * net.size + ("anchored",) * src.shape[0] + ("residual",) * away.shape[0]

    # greedy collision resolution, net cubes first, then planted, then residual
    kept = np.nonzero(greedy_disjoint(q_c, q_h))[0]
    dropped = q_h.shape[0] - kept.shape[0]
    kc, kh, p_key, d_key = q_c[kept], q_h[kept], p_key[kept], d_key[kept]
    kept_tags = [tags[k] for k in kept.tolist()]

    # pool: Q' keys, then Q'' keys, numbered in order of first appearance
    keys = np.concatenate([p_key, d_key])
    uniq, first = np.unique(keys, return_index=True)
    order = np.argsort(first)
    pool_keys = uniq[order]
    pool_id = np.empty(uniq.shape[0], dtype=np.intp)
    pool_id[order] = np.arange(uniq.shape[0])
    prime, dprime = np.split(pool_id[np.searchsorted(uniq, keys)], 2)
    pc, ph = key_c[pool_keys], key_h[pool_keys]
    fa = FamilyAssignment(
        CubeFamily.from_arrays(kc, kh), prime.tolist(), dprime.tolist(), CubeFamily.from_arrays(pc, ph)
    )

    need = [np.max(np.abs(key_c[k] - kc) + key_h[k][:, None], axis=1) / kh for k in (p_key, d_key)]
    gamma_needed = max(1.0, float(np.max(need)))

    # covering multiplicity of the pool (sampled at cube corners and centers)
    mult = 1
    if pool_keys.shape[0] > 1:
        probes = np.concatenate([pc, pc + ph[:, None], pc - ph[:, None]], axis=0)
        at, _ = meeting_pairs(probes, np.zeros(probes.shape[0]), pc, ph)
        mult = int(np.bincount(at).max())

    # weighted set-pair list: anchored + net terms with the CR weight,
    # plus the lacuna terms (member union vs projected net cube, 1/mass)
    mass_keys = np.union1d(net_ids, pool_keys)
    key_mass = np.zeros(key_h.shape[0])
    key_mass[mass_keys] = mu.mass_many(key_c[mass_keys], key_h[mass_keys])
    lam = _variant_weights(
        Variant.CR, n, p, 2.0 * kh, 2.0 * key_h[p_key], 2.0 * key_h[d_key], key_mass[p_key], key_mass[d_key]
    )
    pairs = [
        WeightedPair(w, p_key[k : k + 1], d_key[k : k + 1], tag)
        for k, (w, tag) in enumerate(zip(lam.tolist(), kept_tags))
    ]
    for lac in lacunae:
        mass = float(key_mass[lac.projection])
        ids = np.asarray(lac.ids, dtype=np.intp)
        members = net.size + ids[is_away[ids]]
        if not members.size or mass <= 0:
            continue
        pairs.append(WeightedPair(1.0 / mass, members, np.array([lac.projection], dtype=np.intp), "lacuna"))

    per_tag = {t: kept_tags.count(t) for t in ("net", "anchored", "residual")}
    log.info(
        "reference family: %d net, %d anchored, %d residual members, %d dropped, "
        "pool %d, multiplicity %d, gamma_needed %g, %d pairs",
        *per_tag.values(), dropped, len(fa.pool), mult, gamma_needed, len(pairs),
    )
    return ReferenceFamily(
        assignment=fa,
        pairs=pairs,
        cubes=CubeFamily.from_arrays(key_c, key_h),
        gamma_needed=gamma_needed,
        pool_multiplicity=mult,
        dropped=dropped,
        meta={"members": int(kept.shape[0]), "per_tag": per_tag},
    )


# ---------------------------------------------------------------------------
# lower-bound search


def _shrink_to_disjoint(centers: np.ndarray, halves: np.ndarray) -> np.ndarray | None:
    """The half sides, shrunk by a relative 1e-12 while the cubes touch (at most
    twice), so closed disjointness holds; None if they still meet."""
    i, j = meeting_pairs(centers, halves)
    # shrinking only lowers the rounded sums h_i + h_j, so no other pair can meet later
    gap = np.abs(centers[i] - centers[j])
    for _ in range(3):
        if not np.all(gap <= (halves[i] + halves[j])[:, None], axis=1).any():
            return halves
        halves = halves * (1 - 1e-12)
    return None


class _Candidate(NamedTuple):
    """A candidate of the search as arrays: the family's cubes, each member's
    Q' and Q'' as indices into ``pool`` (into the family itself when there is
    no pool), and the dilation it is admissible at, where larger than the
    default."""

    centers: np.ndarray
    halves: np.ndarray
    prime: np.ndarray | list[int]
    dprime: np.ndarray | list[int]
    pool: CubeFamily | None = None
    gamma: float | None = None

    def assignment(self) -> FamilyAssignment:
        family = CubeFamily.from_arrays(self.centers, self.halves)
        prime, dprime = np.asarray(self.prime).tolist(), np.asarray(self.dprime).tolist()
        return FamilyAssignment(family, prime, dprime, self.pool)


_FIRST = np.zeros(1, dtype=np.intp)


def _structured_candidates(mu: AtomicMeasure):
    """The stream's atom-pair block and its all-atoms block; they depend only on the positions."""
    m = mu.m
    pos = mu.positions

    # worked single-cube families around atom-pair midpoints, one atom row
    # at a time, so that only the pairs of the current row are held
    pair_alphas = (1.2, 1.02, 1.5, 2.0, 3.0, 6.0)
    for i in range(m - 1):
        mid = (pos[i] + pos[i + 1 :]) / 2.0
        sep = np.max(np.abs(pos[i] - pos[i + 1 :]), axis=1)
        for j in np.nonzero(sep != 0.0)[0].tolist():
            s = float(sep[j])
            for a in pair_alphas:
                yield _Candidate(mid[j : j + 1], np.array([a * s / 2.0]), _FIRST, _FIRST)

    # the family around all atoms at once
    if m >= 1:
        c = mu.bounding_center()
        h = max(mu.bounding_half_width(), 1e-9)
        for a in (1.05, 1.5, 3.0):
            yield _Candidate(c[None, :], np.array([a * h]), _FIRST, _FIRST)


def _random_candidates(mu: AtomicMeasure, seed: int):
    """The stream's seeded random multi-cube families over atom midpoints at
    dyadic scales; they depend only on the positions and the seed."""
    rng = np.random.default_rng(seed)
    m = mu.m
    pos = mu.positions
    while True:
        k = int(rng.integers(1, 4))
        centers, halves = [], []
        for _ in range(k):
            i, j = rng.integers(0, m, size=2)
            d = np.abs(pos[i] - pos[j]).max()
            centers.append((pos[i] + pos[j]) / 2.0 + rng.normal(scale=0.1, size=mu.n) * (d + 1e-3))
            halves.append((float(d) + 1e-3) * 2.0 ** int(rng.integers(-2, 3)) * 0.6)
        centers = np.array(centers)
        shrunk = _shrink_to_disjoint(centers, np.array(halves))
        if shrunk is None:
            continue
        prime = [int(rng.integers(0, k)) for _ in range(k)]
        dprime = [int(rng.integers(0, k)) for _ in range(k)]
        yield _Candidate(centers, shrunk, prime, dprime)


class _SearchContext:
    """The part of the search's candidate stream that no scale changes, shared by the scales.

    The atom-pair, all-atoms and random blocks depend only on the atom
    positions and the seed, so rescaling the measure leaves them as they
    are.  Each block is made lazily, once, into a list that every later
    stream reads; ``made`` counts the candidates made and ``served`` those
    read back from the lists.  ``references`` counts the streams that reached
    their reference family.
    """

    def __init__(self, mu: AtomicMeasure, seed: int):
        self._blocks = ([], _structured_candidates(mu)), ([], _random_candidates(mu, seed))
        self.made = self.served = self.references = 0

    def _read(self, done: list, source):
        """The block's candidates in order: those already made, then new ones from ``source``."""
        for i in itertools.count():
            if i == len(done):
                cand = next(source, None)
                if cand is None:
                    return
                done.append(cand)
                self.made += 1
            else:
                self.served += 1
            yield done[i]

    def stream(self, net: ConcentrationNet | None, reference):
        """Deterministic stream of candidates (``_Candidate``); prefix-stable in budget.

        The scale's net cubes and reference family are spliced in between
        the shared blocks.  ``reference`` is None or a function that returns
        the reference family; it is called only when the stream reaches it.
        """
        structured, drawn = self._blocks
        yield from self._read(*structured)

        # net cubes paired with themselves
        if net is not None and net.size:
            ids = np.arange(net.size)
            yield _Candidate(net.points, net.radii, ids, ids)

        # the constructed reference family, admissible at its recorded dilation
        if reference is not None:
            ref = reference()
            self.references += 1
            fa = ref.assignment
            yield _Candidate(fa.family.centers, fa.family.halves, fa.prime, fa.dprime, fa.pool,
                             ref.gamma_needed * (1 + 1e-9))

        yield from self._read(*drawn)


def _local_moves(fa: FamilyAssignment, rng: np.random.Generator) -> list[_Candidate]:
    """Mutations of a family: rescaled cubes and reshuffled assignments."""
    out = []
    k = len(fa.family)
    if k == 0 or fa.pool is not None:
        return out
    c, h = fa.family.centers, fa.family.halves
    for factor in (2.0, 0.5):
        shrunk = _shrink_to_disjoint(c, h * factor)
        if shrunk is not None:
            out.append(_Candidate(c, shrunk, fa.prime, fa.dprime))
    if k > 1:
        prime = [int(rng.integers(0, k)) for _ in range(k)]
        dprime = [int(rng.integers(0, k)) for _ in range(k)]
        out.append(_Candidate(c, h, prime, dprime))
    i = int(rng.integers(0, k))
    factor = float(rng.choice([2.0, 0.5]))
    shrunk = _shrink_to_disjoint(c, h * np.where(np.arange(k) == i, factor, 1.0))
    if shrunk is not None:
        out.append(_Candidate(c, shrunk, fa.prime, fa.dprime))
    return out


def _value_chunk(chunk: list[_Candidate], variant: Variant, mu: AtomicMeasure, values: np.ndarray,
                 p: float, gamma: float) -> list[float | None]:
    """Each candidate's functional value, or None where it is not admissible.

    One valuation serves the chunk.  One ``meeting_pairs`` call over every
    member finds the candidates whose own members meet; the others are
    valued together by one atom query over their pools, each member at its
    candidate's dilation, and go through the checks of
    :func:`validate_family` (unit mass sum).  Each value is the sum of its
    candidate's terms alone, added in member order, so it keeps the bits of
    valuing the candidate by itself.
    """
    if values.shape[0] != mu.m:
        raise ValueError("function values must align with the atoms")
    sizes = np.array([len(c.halves) for c in chunk], dtype=np.intp)
    owner = np.repeat(np.arange(len(chunk)), sizes)
    members = CubeFamily.from_arrays(
        np.concatenate([c.centers for c in chunk]), np.concatenate([c.halves for c in chunk])
    )
    i, j = meeting_pairs(members.centers, members.halves)
    ok = np.ones(len(chunk), dtype=bool)
    ok[owner[i[owner[i] == owner[j]]]] = False

    # one valuation of the disjoint candidates, Q' and Q'' renumbered into their joint pool
    rows = np.nonzero(ok[owner])[0]
    owner = owner[rows]
    kept = [chunk[c] for c in np.nonzero(ok)[0].tolist()]
    pools = [(c.centers, c.halves) if c.pool is None else (c.pool.centers, c.pool.halves) for c in kept]
    start = np.cumsum([0] + [len(h) for _, h in pools]).tolist()
    pool = CubeFamily.from_arrays(
        np.concatenate([pc for pc, _ in pools] + [np.zeros((0, mu.n))]),
        np.concatenate([ph for _, ph in pools] + [np.zeros(0)]),
    )
    pairs = np.concatenate(
        [np.array([c.prime, c.dprime], dtype=np.intp).reshape(2, -1) + at for c, at in zip(kept, start)]
        + [np.zeros((2, 0), dtype=np.intp)],
        axis=1,
    )
    dilation = np.repeat([gamma if c.gamma is None else max(gamma, c.gamma) for c in kept], sizes[ok])
    val = _Valuation.from_arrays(members.subset(rows), pool, pairs, mu, p, dilation)

    ok[owner[~val.admissible(variant)]] = False
    valued = np.nonzero(ok[owner])[0]
    osc = np.zeros(rows.shape[0])
    osc[valued] = val.oscillations(values, valued)
    k, terms = val.terms(variant, osc, valued)
    per = np.split(terms, np.searchsorted(owner[k], np.arange(1, len(chunk))))
    return [_ordered_sum(t) if good else None for t, good in zip(per, ok.tolist())]


def search_lower_bound(
    mu: AtomicMeasure,
    f,
    p: float,
    variant: Variant = Variant.CR,
    budget: int = 200,
    seed: int = 0,
    net: ConcentrationNet | None = None,
    reference: ReferenceFamily | None = None,
    collect: list | None = None,
):
    """Best admissible functional value over a deterministic candidate stream.

    The stream starts with structured families (atom-pair cubes, net cubes,
    the reference family), then interleaves seeded random candidates with
    local moves of the best family found so far (rescaling by factors of
    two and reshuffled assignments).  The sequence up to any budget is a
    prefix of the sequence for a larger budget, so the best value is
    monotone in the budget for a fixed seed.

    Moves are queued after every eighth candidate, so the candidates are
    valued in chunks of eight (pending moves first, then the stream), one
    valuation per chunk (``_value_chunk``), and then visited in order.  The
    stream yields arrays (``_Candidate``); a :class:`FamilyAssignment` is
    built only for the best family and for the admissible candidates
    appended to ``collect``, as ``(family, value)`` in stream order.  The
    stream comes from a fresh ``_SearchContext``; ``k_curve`` runs the same
    search with one context shared by its scales.
    """
    stream = _SearchContext(mu, seed).stream(net, None if reference is None else lambda: reference)
    return _search(mu, _values_of(f), p, variant, budget, seed, stream, collect)


def _search(mu: AtomicMeasure, values: np.ndarray, p: float, variant: Variant, budget: int, seed: int,
            stream, collect: list | None):
    """The search of :func:`search_lower_bound` over the given candidate stream."""
    gamma = _default_gamma()
    move_rng = np.random.default_rng(seed + 0x5EED)
    best_val = 0.0
    best = best_fa = None
    count = 0
    pending: list[_Candidate] = []
    last_mutated = None

    while count < budget:
        size = min(8, budget - count)
        chunk = pending[:size]
        del pending[:size]
        chunk.extend(itertools.islice(stream, size - len(chunk)))
        count += size
        for cand, val in zip(chunk, _value_chunk(chunk, variant, mu, values, p, gamma)):
            if val is None:
                continue
            if collect is not None:
                collect.append((cand.assignment(), val))
            if val > best_val:
                best_val, best = val, cand
        # after every eighth evaluation, queue mutations of the current best
        # (``last_mutated`` is None until there is a best)
        if count % 8 == 0 and best is not last_mutated:
            best_fa, last_mutated = best.assignment(), best
            pending.extend(_local_moves(best_fa, move_rng))
    if best is not last_mutated:
        best_fa = best.assignment()
    return best_val, best_fa


# ---------------------------------------------------------------------------
# K-functional curves


@dataclass
class KCurvePoint:
    t: float
    lower: float
    upper: float
    oracle: float | None = None


def k_curve_slack(points: list["KCurvePoint"]) -> float:
    """Largest lower/upper ratio over a curve.

    The lower column dominates the true K-functional only up to the
    necessity constant, so it may exceed the upper column by a bounded
    factor; this records it.
    """
    return max((pt.lower / pt.upper for pt in points if pt.upper > 0), default=0.0)


def build_pipeline(mu: AtomicMeasure, params: Params):
    """Net, anchored cover, partition and lacunae for a measure."""
    net = build_net(mu, params)
    cover = assign_anchors(build_whitney(net))
    return net, cover, PartitionOfUnity(cover), partition_lacunae(cover)


def upper_estimate(mu: AtomicMeasure, f, params: Params, pipeline=None) -> float:
    """Seminorm of the extension plus the exact residual norm, over the cover of ``pipeline``."""
    if pipeline is None:
        pipeline = build_pipeline(mu, params)
    _, cover, _, _ = pipeline
    dec = build_extension(f, mu, cover)
    return estimate_sobolev_seminorm(dec) + mu_norm_f2(dec)


def k_curve(
    mu: AtomicMeasure,
    f,
    p: float,
    t_grid=None,
    params: Params | None = None,
    budget: int = 40,
    seed: int = 0,
) -> list[KCurvePoint]:
    """Two-sided K-functional estimates over a grid of scales.

    For each ``t`` the measure is rescaled by ``t^-p``, the decomposition is
    rebuilt to give ``upper = t * (seminorm + residual norm)``, and the best
    family value gives ``lower = t * value^(1/p)``.  In one dimension the
    exact oracle column is filled as well.

    The scales share one search context (``_SearchContext``): the
    candidates that depend only on the positions and the seed are made once
    per curve.  A scale's reference family is built only if its search
    reaches it in the stream.
    """
    if params is None:
        params = Params(p=p)
    values = _values_of(f)
    if t_grid is None:
        t_grid = default_t_grid(mu, values, p)
    oracle_prob = None
    if mu.n == 1:
        from .oracle1d import OracleProblem, k_exact

        oracle_prob = OracleProblem.from_measure(mu, values, p)
    context = _SearchContext(mu, seed)
    out = []
    try:
        for t in t_grid:
            if not t > 0:
                raise ValueError("t grid must be positive")
            try:
                mu_t = mu.scaled(t ** (-p))
                net, cover, _, lacs = pipeline = build_pipeline(mu_t, params)
                upper = float(t) * upper_estimate(mu_t, values, params, pipeline)
                stream = context.stream(net, lambda: build_reference_family(mu_t, net, cover, lacs, params))
                val, _ = _search(mu_t, values, p, Variant.CR, budget, seed, stream, None)
                lower = float(t) * val ** (1.0 / p)
                oracle = None if oracle_prob is None else k_exact(oracle_prob, float(t))
            except Exception as exc:
                # name the failing scale and instance; the message and type stay as raised
                exc.add_note(f"k_curve: t={t:.9g}, m={mu.m}, n={mu.n}")
                raise
            out.append(KCurvePoint(float(t), lower, upper, oracle))
    finally:
        log.info(
            "k_curve: %d scales run, %d stream candidates made, %d served from the shared list, "
            "%d reference families built",
            len(out), context.made, context.served, context.references,
        )
    return out


def default_t_grid(mu: AtomicMeasure, values: np.ndarray, p: float, k: int = 32) -> np.ndarray:
    """Log-spaced grid around the knee where the two branch costs balance."""
    m_only = lp_norm(mu, values - float(np.dot(mu.weights, values) / mu.total_mass), p)
    if mu.n == 1 and mu.m > 1:
        from .oracle1d import OracleProblem, seminorm_of_values

        prob = OracleProblem.from_measure(mu, values, p)
        s_only = seminorm_of_values(prob, prob.f)
    else:
        s_only = 0.0
    if m_only <= 0 or s_only <= 0:
        knee = 1.0
    else:
        knee = m_only / s_only
    return np.geomspace(knee / 100.0, knee * 100.0, k)
