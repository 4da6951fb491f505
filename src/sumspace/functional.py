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

import logging
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .concentration import ConcentrationNet, Params, build_net
from .decompose import build_extension, estimate_sobolev_seminorm, mu_norm_f2
from .geometry import Cube, CubeFamily, greedy_disjoint, near_pairs
from .lacunae import Lacuna, partition_lacunae, project_lacuna
from .measure import AtomicMeasure, lp_norm
from .whitney import PartitionOfUnity, WhitneyCover, assign_anchors, build_whitney

__all__ = [
    "Variant",
    "FamilyAssignment",
    "FamilyValidationError",
    "admissible_members",
    "members_value",
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
        pool_size = len(self.pool) if self.pool is not None else k
        for name, m in (("prime", self.prime), ("dprime", self.dprime)):
            for j in m:
                if not 0 <= j < pool_size:
                    raise ValueError(f"{name} index {j} outside the pool")

    def pool_cube(self, j: int) -> Cube:
        return (self.pool if self.pool is not None else self.family)[j]

    def to_json_dict(self) -> dict:
        d = {
            "cubes": [
                {"c": list(map(float, q.center)), "r": float(q.half_side)}
                for q in self.family
            ],
            "prime": list(map(int, self.prime)),
            "dprime": list(map(int, self.dprime)),
        }
        if self.pool is not None:
            d["pool"] = [
                {"c": list(map(float, q.center)), "r": float(q.half_side)}
                for q in self.pool
            ]
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "FamilyAssignment":
        fam = CubeFamily([Cube(np.asarray(e["c"], float), float(e["r"])) for e in d["cubes"]])
        pool = None
        if "pool" in d:
            pool = CubeFamily(
                [Cube(np.asarray(e["c"], float), float(e["r"])) for e in d["pool"]]
            )
        return cls(fam, [int(i) for i in d["prime"]], [int(i) for i in d["dprime"]], pool)


def _conditions(fa: FamilyAssignment, variant: Variant, mu: AtomicMeasure, p: float,
                gamma: float, mass_mode: str) -> list:
    """The per-member admissibility conditions in checking order.

    Each is a pair: the mask of the members that meet it, and the message
    for a member ``k`` that does not.
    """
    if not gamma > 0:
        raise ValueError("dilation factor must be positive")
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    n = mu.n
    fam = fa.family
    pool = fa.pool if fa.pool is not None else fam
    fc, fh = fam.centers(), fam.halves()
    pc, ph = pool.centers(), pool.halves()
    names = ("Q'", "Q''")
    jp, jd = J = np.array([fa.prime, fa.dprime], dtype=np.intp)
    inside = np.all(np.abs(fc - pc[J]) + ph[J][..., None] <= (gamma * fh)[:, None], axis=2)
    out = [
        (inside[a], lambda k, name=name: f"{name} escapes gamma*Q with gamma={gamma:g}")
        for a, name in enumerate(names)
    ]
    if variant not in (Variant.V1, Variant.V4, Variant.VTH3, Variant.N11):
        return out
    used = np.unique(J)
    mass = np.zeros(len(pool))
    mass[used] = mu.mass_many(pc[used], ph[used])
    if variant in (Variant.V1, Variant.V4):
        diam = 2.0 * ph
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


def admissible_members(
    fa: FamilyAssignment,
    variant: Variant,
    mu: AtomicMeasure,
    p: float,
    gamma: float,
    mass_mode: str = "unit_sum",
) -> np.ndarray:
    """Per member, whether its pair is admissible alone: Q' and Q'' lie in ``gamma Q``
    and meet the variant's mass condition (see :func:`validate_family`)."""
    ok = np.ones(len(fa.family), dtype=bool)
    if len(fa.family):
        for meets, _ in _conditions(fa, variant, mu, p, gamma, mass_mode):
            ok &= meets
    return ok


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
    Meeting cubes are found by a ``near_pairs`` lookup; the error names the
    first member that meets another, or else the first member that fails
    :func:`admissible_members`, with its first failed condition.
    """
    fam = fa.family
    if len(fam) == 0:
        return
    c, h = fam.centers(), fam.halves()
    i, j = near_pairs(c, h)
    meet = (i != j) & np.all(np.abs(c[i] - c[j]) - (h[i] + h[j])[:, None] <= 0.0, axis=1)
    if meet.any():
        raise FamilyValidationError(int(fam.ids[i[meet].min()]), "family cubes are not pairwise disjoint")
    conditions = _conditions(fa, variant, mu, p, gamma, mass_mode)
    bad = np.nonzero(~np.logical_and.reduce([meets for meets, _ in conditions]))[0]
    if bad.size:
        k = int(bad[0])
        reason = next(message(k) for meets, message in conditions if not meets[k])
        raise FamilyValidationError(int(fam.ids[k]), reason)


def _pair_oscillation(mu: AtomicMeasure, values: np.ndarray, qp: Cube, qd: Cube, p: float) -> float:
    ip = mu.atoms_in(qp)
    id_ = mu.atoms_in(qd)
    if ip.size == 0 or id_.size == 0:
        return 0.0
    wp, wd = mu.weights[ip], mu.weights[id_]
    fp, fd = values[ip], values[id_]
    diff = np.abs(fp[:, None] - fd[None, :]) ** p
    return float(wp @ diff @ wd)


def _term_weight(
    variant: Variant, n: int, p: float, dq: float, dp_: float, dd: float, mp: float, md: float
) -> float:
    if variant is Variant.CR:
        return dq ** (n - p) / ((dp_ ** (n - p) + mp) * (dd ** (n - p) + md))
    if variant is Variant.V1:
        return (dp_ * dd / dq) ** (p - n)
    if variant is Variant.V4:
        denom = dp_ ** (p - n) * mp + dd ** (p - n) * md
        if denom == 0.0:
            return 0.0  # oscillation vanishes on null sets anyway
        return (dp_ * dd / dq) ** (p - n) / denom
    if variant in (Variant.VTH3, Variant.N11):
        denom = mp * md * dq ** (p - n) * (1.0 + dp_ ** (n - p) / mp + dd ** (n - p) / md)
        return 1.0 / denom
    raise ValueError(f"unknown variant {variant}")


def members_value(
    fa: FamilyAssignment, variant: Variant, mu: AtomicMeasure, values: np.ndarray, p: float, members
) -> float:
    """The oscillation sum over the given members, added in their order, without validation."""
    n = mu.n
    total = 0.0
    for k in members:
        q = fa.family[k]
        qp = fa.pool_cube(fa.prime[k])
        qd = fa.pool_cube(fa.dprime[k])
        mp, md = mu.mass(qp), mu.mass(qd)
        if variant in (Variant.CR, Variant.V1, Variant.V4) and (mp == 0.0 or md == 0.0):
            continue  # the double integral over a null set vanishes
        osc = _pair_oscillation(mu, values, qp, qd, p)
        if osc == 0.0:
            continue
        total += _term_weight(variant, n, p, q.diam, qp.diam, qd.diam, mp, md) * osc
    return total


def eval_family_functional(
    fa: FamilyAssignment,
    variant: Variant,
    mu: AtomicMeasure,
    f,
    p: float,
    gamma: float | None = None,
    mass_mode: str = "unit_sum",
    validate: bool = True,
) -> float:
    """Exact value of the oscillation sum for the given variant."""
    values = np.asarray(getattr(f, "values", f), dtype=float).ravel()
    if values.shape[0] != mu.m:
        raise ValueError("function values must align with the atoms")
    if gamma is None:
        gamma = Params(p=max(p, 1.0 + 1e-9)).gamma_value
    if validate:
        validate_family(fa, variant, mu, p, gamma, mass_mode)
    return members_value(fa, variant, mu, values, p, range(len(fa.family)))


# ---------------------------------------------------------------------------
# the measure-determined reference family


@dataclass
class WeightedPair:
    """One term ``lam * iint_{G x H} |f(x) - f(y)|^p dmu dmu`` of the linear form."""

    lam: float
    G: list[Cube]
    H: list[Cube]
    tag: str


@dataclass
class ReferenceFamily:
    assignment: FamilyAssignment
    pairs: list[WeightedPair]
    gamma_needed: float
    pool_multiplicity: int
    dropped: int
    meta: dict = field(default_factory=dict)


def _atoms_in_union(mu: AtomicMeasure, cubes: list[Cube]) -> np.ndarray:
    seen: set[int] = set()
    for q in cubes:
        seen.update(map(int, mu.atoms_in(q)))
    return np.array(sorted(seen), dtype=int)


def eval_weighted_pairs(pairs: list[WeightedPair], mu: AtomicMeasure, f, p: float) -> float:
    """Value of the weighted linear combination of set-pair oscillations."""
    values = np.asarray(getattr(f, "values", f), dtype=float).ravel()
    total = 0.0
    for pair in pairs:
        gi = _atoms_in_union(mu, pair.G)
        hi = _atoms_in_union(mu, pair.H)
        if gi.size == 0 or hi.size == 0:
            continue
        diff = np.abs(values[gi][:, None] - values[hi][None, :]) ** p
        total += pair.lam * float(mu.weights[gi] @ diff @ mu.weights[hi])
    return total


def _powers(x: np.ndarray, e: float) -> np.ndarray:
    """``x ** e`` elementwise by Python's float power, the rounding of scalar code."""
    return np.array([v**e for v in x.tolist()], dtype=float)


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
    ``i``.  Cubes meeting each other or a net cube are found by range joins
    (``near_pairs``), so the cost follows the number of such contacts.
    """
    p, n = params.p, mu.n
    eta = params.eta
    E, R = net.points, net.radii
    C, H = cover.centers, cover.halves
    anchors = cover.anchors
    if anchors is None:
        raise ValueError("cover has no anchors")
    tilde_cube = [Cube(E[i], float(R[i])) for i in range(net.size)]
    key_c = np.concatenate([E, C])
    key_h = np.concatenate([R, H])

    # Whitney cubes clear of every shrunken net cube: no net point e with
    # dist(Q, e) <= eta R(e) / 2
    thr = eta * R / 2.0
    rows, pts = near_pairs(C, H, E, thr)
    near = np.max(np.abs(E[pts] - C[rows]), axis=1) - H[rows] <= thr[pts]
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

    # pool: Q' keys, then Q'' keys, numbered in order of first appearance
    keys = np.concatenate([p_key, d_key])
    uniq, first = np.unique(keys, return_index=True)
    order = np.argsort(first)
    pool_keys = uniq[order]
    pool_id = np.empty(uniq.shape[0], dtype=np.intp)
    pool_id[order] = np.arange(uniq.shape[0])
    prime, dprime = np.split(pool_id[np.searchsorted(uniq, keys)], 2)
    away_cube = {i: cover.cube(i) for i in away.tolist()}
    pool_cubes = [
        tilde_cube[k] if k < net.size else away_cube[k - net.size] for k in pool_keys.tolist()
    ]
    fam = CubeFamily([Cube(c, hh) for c, hh in zip(kc, kh.tolist())])
    fa = FamilyAssignment(fam, prime.tolist(), dprime.tolist(), CubeFamily(pool_cubes))

    need = [np.max(np.abs(key_c[k] - kc) + key_h[k][:, None], axis=1) / kh for k in (p_key, d_key)]
    gamma_needed = max(1.0, float(np.max(need)))

    # covering multiplicity of the pool (sampled at cube corners and centers)
    mult = 1
    pc, ph = key_c[pool_keys], key_h[pool_keys]
    if pool_keys.shape[0] > 1:
        probes = np.concatenate([pc, pc + ph[:, None], pc - ph[:, None]], axis=0)
        at, cube = near_pairs(probes, np.zeros(probes.shape[0]), pc, ph)
        inside = np.all(np.abs(probes[at] - pc[cube]) <= ph[cube][:, None], axis=1)
        mult = int(np.bincount(at[inside]).max())

    # weighted set-pair list: anchored + net terms with the CR weight,
    # plus the lacuna terms (member union vs projected net cube, 1/mass)
    mass_keys = np.union1d(net_ids, pool_keys)
    key_mass = np.zeros(key_h.shape[0])
    key_mass[mass_keys] = mu.mass_many(key_c[mass_keys], key_h[mass_keys])
    mp, md = key_mass[p_key], key_mass[d_key]
    pool_pow = _powers(2.0 * ph, n - p)
    lam = _powers(2.0 * kh, n - p) / ((pool_pow[prime] + mp) * (pool_pow[dprime] + md))
    pairs = [
        WeightedPair(w, [pool_cubes[a]], [pool_cubes[b]], tags[k])
        for w, a, b, k in zip(lam.tolist(), prime.tolist(), dprime.tolist(), kept.tolist())
    ]
    for lac in lacunae:
        if lac.projection is None:
            project_lacuna(lac, net, cover)
        mass = float(key_mass[lac.projection])
        member_cubes = [away_cube[i] for i in lac.ids if i in away_cube]
        if not member_cubes or mass <= 0:
            continue
        k_cube = tilde_cube[lac.projection]
        pairs.append(WeightedPair(1.0 / mass, member_cubes, [k_cube], "lacuna"))

    kept_tags = [tags[k] for k in kept.tolist()]
    per_tag = {t: kept_tags.count(t) for t in ("net", "anchored", "residual")}
    log.info(
        "reference family: %d net, %d anchored, %d residual members, %d dropped, "
        "pool %d, multiplicity %d, gamma_needed %g, %d pairs",
        *per_tag.values(), dropped, len(pool_cubes), mult, gamma_needed, len(pairs),
    )
    return ReferenceFamily(
        assignment=fa,
        pairs=pairs,
        gamma_needed=gamma_needed,
        pool_multiplicity=mult,
        dropped=dropped,
        meta={"members": int(kept.shape[0]), "per_tag": per_tag},
    )


# ---------------------------------------------------------------------------
# lower-bound search


def _shrink_to_disjoint(cubes: list[Cube]) -> list[Cube] | None:
    """Shrink touching cubes by a relative 1e-12 so closed disjointness holds."""
    out = list(cubes)
    for _ in range(3):
        fam = CubeFamily(out)
        inter = fam.intersection_matrix()
        np.fill_diagonal(inter, False)
        if not inter.any():
            return out
        out = [Cube(q.center, q.half_side * (1 - 1e-12)) for q in out]
    return None


def _candidate_stream(mu: AtomicMeasure, p: float, seed: int, net: ConcentrationNet | None,
                      reference: ReferenceFamily | None):
    """Deterministic stream of candidate assignments; prefix-stable in budget."""
    rng = np.random.default_rng(seed)
    m = mu.m
    pos = mu.positions

    # worked single-cube families around atom-pair midpoints
    pair_alphas = (1.2, 1.02, 1.5, 2.0, 3.0, 6.0)
    for i in range(m):
        for j in range(i + 1, m):
            mid = (pos[i] + pos[j]) / 2.0
            sep = float(np.max(np.abs(pos[i] - pos[j])))
            if sep == 0.0:
                continue
            for a in pair_alphas:
                q = Cube(mid, a * sep / 2.0)
                yield FamilyAssignment(CubeFamily([q]), [0], [0]), None

    # the family around all atoms at once
    if m >= 1:
        c = mu.bounding_center()
        h = max(mu.bounding_half_width(), 1e-9)
        for a in (1.05, 1.5, 3.0):
            yield FamilyAssignment(CubeFamily([Cube(c, a * h)]), [0], [0]), None

    # net cubes paired with themselves
    if net is not None and net.size:
        cubes = [Cube(net.points[i], float(net.radii[i])) for i in range(net.size)]
        yield FamilyAssignment(
            CubeFamily(cubes), list(range(net.size)), list(range(net.size))
        ), None

    # the constructed reference family, admissible at its recorded dilation
    if reference is not None:
        yield reference.assignment, reference.gamma_needed * (1 + 1e-9)

    # random multi-cube families over atom midpoints at dyadic scales
    while True:
        k = int(rng.integers(1, 4))
        cubes = []
        for _ in range(k):
            i, j = rng.integers(0, m, size=2)
            base = (pos[i] + pos[j]) / 2.0 + rng.normal(scale=0.1, size=mu.n) * (
                np.max(np.abs(pos[i] - pos[j])) + 1e-3
            )
            sep = float(np.max(np.abs(pos[i] - pos[j]))) + 1e-3
            r = sep * 2.0 ** int(rng.integers(-2, 3)) * 0.6
            cubes.append(Cube(base, r))
        shrunk = _shrink_to_disjoint(cubes)
        if shrunk is None:
            continue
        kk = len(shrunk)
        prime = [int(rng.integers(0, kk)) for _ in range(kk)]
        dprime = [int(rng.integers(0, kk)) for _ in range(kk)]
        yield FamilyAssignment(CubeFamily(shrunk), prime, dprime), None


def _local_moves(fa: FamilyAssignment, rng: np.random.Generator):
    """Mutations of a family: rescaled cubes and reshuffled assignments."""
    out = []
    k = len(fa.family)
    if k == 0 or fa.pool is not None:
        return out
    for factor in (2.0, 0.5):
        cubes = [Cube(q.center, q.half_side * factor) for q in fa.family]
        shrunk = _shrink_to_disjoint(cubes)
        if shrunk is not None:
            out.append(FamilyAssignment(CubeFamily(shrunk), list(fa.prime), list(fa.dprime)))
    if k > 1:
        prime = [int(rng.integers(0, k)) for _ in range(k)]
        dprime = [int(rng.integers(0, k)) for _ in range(k)]
        out.append(FamilyAssignment(fa.family, prime, dprime))
    i = int(rng.integers(0, k))
    factor = float(rng.choice([2.0, 0.5]))
    cubes = [
        Cube(q.center, q.half_side * (factor if j == i else 1.0))
        for j, q in enumerate(fa.family)
    ]
    shrunk = _shrink_to_disjoint(cubes)
    if shrunk is not None:
        out.append(FamilyAssignment(CubeFamily(shrunk), list(fa.prime), list(fa.dprime)))
    return out


def search_lower_bound(
    mu: AtomicMeasure,
    f,
    p: float,
    variant: Variant = Variant.CR,
    budget: int = 200,
    seed: int = 0,
    gamma: float | None = None,
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
    """
    if gamma is None:
        gamma = Params(p=max(p, 1.0 + 1e-9)).gamma_value
    values = np.asarray(getattr(f, "values", f), dtype=float).ravel()
    move_rng = np.random.default_rng(seed + 0x5EED)
    best_val = 0.0
    best_fa = None
    count = 0
    pending: list[tuple[FamilyAssignment, float | None]] = []
    last_mutated = None
    stream = _candidate_stream(mu, p, seed, net, reference)

    def try_candidate(fa, gamma_override):
        nonlocal best_val, best_fa
        g = max(gamma, gamma_override) if gamma_override is not None else gamma
        try:
            val = eval_family_functional(fa, variant, mu, values, p, gamma=g)
        except FamilyValidationError:
            return
        if collect is not None:
            collect.append((fa, val))
        if val > best_val:
            best_val, best_fa = val, fa

    while count < budget:
        if pending:
            fa, g_over = pending.pop(0)
        else:
            fa, g_over = next(stream)
        count += 1
        try_candidate(fa, g_over)
        # after every eighth evaluation, queue mutations of the current best
        if count % 8 == 0 and best_fa is not None and best_fa is not last_mutated:
            pending.extend((m, None) for m in _local_moves(best_fa, move_rng))
            last_mutated = best_fa
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


def build_pipeline(mu: AtomicMeasure, params: Params, box_inflation: float = 4.0):
    """Net, anchored cover, partition and lacunae for a measure."""
    net = build_net(mu, params, box_inflation=box_inflation)
    cover = assign_anchors(build_whitney(net), net, params)
    pou = PartitionOfUnity(cover)
    lacs = partition_lacunae(cover, net)
    return net, cover, pou, lacs


def upper_estimate(mu: AtomicMeasure, f, params: Params, pipeline=None) -> float:
    """Seminorm of the extension plus the exact residual norm."""
    if pipeline is None:
        pipeline = build_pipeline(mu, params)
    net, cover, pou, _ = pipeline
    dec = build_extension(f, mu, net, cover, pou, params)
    return estimate_sobolev_seminorm(dec) + mu_norm_f2(dec)


def k_curve(
    mu: AtomicMeasure,
    f,
    p: float,
    t_grid=None,
    params: Params | None = None,
    budget: int = 40,
    seed: int = 0,
    with_oracle: bool = True,
) -> list[KCurvePoint]:
    """Two-sided K-functional estimates over a grid of scales.

    For each ``t`` the measure is rescaled by ``t^-p``, the decomposition is
    rebuilt to give ``upper = t * (seminorm + residual norm)``, and the best
    family value gives ``lower = t * value^(1/p)``.  In one dimension the
    exact oracle column is filled as well.
    """
    if params is None:
        params = Params(p=p)
    values = np.asarray(getattr(f, "values", f), dtype=float).ravel()
    if t_grid is None:
        t_grid = default_t_grid(mu, values, p)
    oracle_prob = None
    if with_oracle and mu.n == 1:
        from .oracle1d import OracleProblem, k_exact

        oracle_prob = OracleProblem.from_measure(mu, values, p)
    out = []
    for t in t_grid:
        if not t > 0:
            raise ValueError("t grid must be positive")
        mu_t = mu.scaled(t ** (-p))
        pipeline = build_pipeline(mu_t, params)
        net = pipeline[0]
        ref = build_reference_family(mu_t, net, pipeline[1], pipeline[3], params)
        upper = float(t) * upper_estimate(mu_t, values, params, pipeline)
        val, _ = search_lower_bound(
            mu_t, values, p, Variant.CR, budget=budget, seed=seed, net=net, reference=ref
        )
        lower = float(t) * val ** (1.0 / p)
        oracle = None if oracle_prob is None else k_exact(oracle_prob, float(t))
        out.append(KCurvePoint(float(t), lower, upper, oracle))
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
