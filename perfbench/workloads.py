"""Seeded inputs, operations and output checks of the benchmark workloads.

Operations call the package through module attributes
(``functional.build_pipeline``, not a name imported into this file), so the
spans that ``tracer.py`` installs by rebinding those attributes see them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from sumspace import functional, oracle1d
from sumspace.concentration import Params
from sumspace.instances import Instance
from sumspace.measure import AtomicMeasure

# acceptance pins (tests/test_acceptance.py): oracle <= upper, upper <= 60 oracle,
# lower <= 150 oracle; the 2d check uses lower <= 150 upper, which they imply
PIN_UPPER = 60.0
PIN_LOWER = 150.0
REL_SLACK = 1e-9
ORACLE_TOL = 1e-9  # sigma_norm_exact and k_exact certify 1e-9 * max(1, max|f|) (* t)
ZERO_NORM = 1e-9  # oracle values below this count as a constant function
SEARCH_BUDGET = 25  # the budget of acceptance criterion 6
P_POOL = (1.5, 2.0, 3.0)  # exponents of the 1d acceptance suite


@dataclass
class Row:
    """One bracket: an estimate, or one scale of a K-curve."""

    upper: float
    lower: float
    oracle: float | None
    oracle_tol: float = 0.0  # absolute accuracy the oracle certifies for this row


@dataclass
class Answer:
    rows: list[Row]
    fingerprint: str  # hashed into the answers digest


@dataclass
class Size:
    atoms: int  # m for the uniform measure, the side k of the k x k grid, else m_max
    t_points: int  # scales per K-curve
    block: int  # a run holds whole blocks of inputs; each block holds every stratum equally often
    op_s: float  # seconds per operation at the reference speed (see speed.py)


@dataclass
class Workload:
    name: str  # the "why" of each workload is in BENCHMARK.json
    sizes: dict[str, Size]
    make: Callable[[int, int, Size], Instance]  # (run seed, index, size)
    op: Callable[[Instance, Size], Answer]

    def op_count(self, seconds: float, size: Size) -> int:
        """Operations in a run of ``seconds`` at the reference speed, in whole blocks.

        The count depends only on ``seconds`` and the size, never on how fast
        the host is, so one seed always runs the same inputs and fails the
        same operations.
        """
        return size.block * max(1, round(seconds / (size.op_s * size.block)))


def _g(x: float | None) -> str:
    """The CLI's 9 significant digits."""
    return "-" if x is None else f"{x:.9g}"


def estimate(inst: Instance, size: Size) -> Answer:
    """Upper estimate, best lower family value and, in 1d, the exact norm."""
    mu, f, p = inst.mu, inst.f, inst.p
    prm = Params(p=p)
    pipeline = functional.build_pipeline(mu, prm)
    net, cover, _, lacs = pipeline
    upper = functional.upper_estimate(mu, f, prm, pipeline)
    ref = functional.build_reference_family(mu, net, cover, lacs, prm)
    val, _ = functional.search_lower_bound(
        mu, f, p, functional.Variant.CR, budget=SEARCH_BUDGET, seed=inst.seed,
        net=net, reference=ref,
    )
    lower = val ** (1.0 / p)
    oracle = None
    if mu.n == 1:
        prob = oracle1d.OracleProblem.from_measure(mu, f, p)
        oracle = oracle1d.sigma_norm_exact(prob)[0]
    h = hashlib.sha256(net.points.tobytes())
    h.update(net.radii.tobytes())
    h.update(f"{cover.size}|{_g(upper)}|{_g(lower)}|{_g(oracle)}".encode())
    tol = ORACLE_TOL * max(1.0, float(np.max(np.abs(f))))
    return Answer([Row(upper, lower, oracle, tol)], h.hexdigest())


def kcurve(inst: Instance, size: Size) -> Answer:
    """One K-curve over ``default_t_grid`` with ``size.t_points`` scales."""
    grid = functional.default_t_grid(inst.mu, inst.f, inst.p, k=size.t_points)
    pts = functional.k_curve(inst.mu, inst.f, inst.p, t_grid=grid)
    scale = max(1.0, float(np.max(np.abs(inst.f))))
    rows = [Row(pt.upper, pt.lower, pt.oracle, ORACLE_TOL * scale * pt.t) for pt in pts]
    text = ";".join(f"{_g(pt.t)}|{_g(pt.upper)}|{_g(pt.lower)}|{_g(pt.oracle)}" for pt in pts)
    return Answer(rows, hashlib.sha256(text.encode()).hexdigest())


def check(answer: Answer) -> tuple[list[str], list[str]]:
    """Broken invariants and broken pins, one line each.

    Invariants hold by construction: every value is finite, and the oracle,
    a minimum, does not exceed the upper estimate, the cost of one
    decomposition, beyond the oracle's certified accuracy.  An answer that
    breaks one is wrong.  The pins are the acceptance suite's empirical
    constants ("observed maxima with headroom"); breaking one is a defect to
    count, not a wrong answer.
    """
    wrong: list[str] = []
    over_pin: list[str] = []
    for k, r in enumerate(answer.rows):
        vals = [r.upper, r.lower] + ([] if r.oracle is None else [r.oracle])
        if not all(math.isfinite(v) for v in vals):
            wrong.append(f"row {k}: non-finite value {vals}")
            continue
        if r.oracle is None:
            if r.lower > PIN_LOWER * r.upper * (1 + REL_SLACK):
                over_pin.append(f"row {k}: lower {_g(r.lower)} > {PIN_LOWER} * upper {_g(r.upper)}")
            continue
        if r.oracle > r.upper * (1 + REL_SLACK) + r.oracle_tol:
            wrong.append(f"row {k}: oracle {_g(r.oracle)} > upper {_g(r.upper)}")
        if r.oracle > ZERO_NORM:
            if r.upper > PIN_UPPER * r.oracle:
                over_pin.append(f"row {k}: upper {_g(r.upper)} > {PIN_UPPER} * oracle {_g(r.oracle)}")
            if r.lower > PIN_LOWER * r.oracle:
                over_pin.append(f"row {k}: lower {_g(r.lower)} > {PIN_LOWER} * oracle {_g(r.oracle)}")
        elif r.lower > ZERO_NORM:
            over_pin.append(f"row {k}: lower {_g(r.lower)} > 0 where the oracle is 0")
    return wrong, over_pin


def _clustered_instance(seed: int, index: int, size: Size) -> Instance:
    """The recipe of ``instances.random_instance`` with m and p set by the index.

    Each run of m_max consecutive inputs holds every m from 1 to m_max
    once, in the order 1, m_max, 2, m_max - 1, ...; the exponent takes the
    next value of ``P_POOL`` with each such run, so a block of
    m_max * len(P_POOL) inputs holds every (m, p) pair once.  Only
    positions, weights and values depend on the seed: m and p drive the cost
    and the bracket, and drawing them freely spreads one run's figures far
    more than a run's length can average out.
    """
    rng = np.random.default_rng([seed, index])
    k = index % size.atoms
    m = k // 2 + 1 if k % 2 == 0 else size.atoms - k // 2
    p = P_POOL[(index // size.atoms) % len(P_POOL)]
    scale = float(2.0 ** rng.uniform(-1.0, 6.0))
    n_clusters = int(rng.integers(1, min(3, m) + 1))
    centers = rng.uniform(-1.0, 1.0, size=(n_clusters, 1)) * scale
    pos = centers[rng.integers(0, n_clusters, size=m)] + rng.normal(scale=0.03 * scale, size=(m, 1))
    weights = 2.0 ** rng.uniform(-2.0, 2.0, size=m)
    if rng.random() < 0.05:
        f = np.full(m, float(rng.normal()))
    else:
        f = rng.normal(size=m) * float(2.0 ** rng.uniform(-1.0, 1.0))
    mu, merged = AtomicMeasure.from_atoms(pos, weights, f)
    return Instance(mu, merged.values, p, index)


def _uniform_instance(seed: int, index: int, size: Size) -> Instance:
    rng = np.random.default_rng([seed, index])
    m = size.atoms
    pos = rng.uniform(0.0, 1.0, size=(m, 1))
    weights = 2.0 ** rng.uniform(-2.0, 2.0, size=m)
    mu, f = AtomicMeasure.from_atoms(pos, weights, rng.normal(size=m))
    return Instance(mu, f.values, 2.0, index)


def _grid_instance(seed: int, index: int, size: Size) -> Instance:
    k = size.atoms
    pos = np.array([[float(i), float(j)] for i in range(k) for j in range(k)])
    rng = np.random.default_rng([seed, index])
    return Instance(AtomicMeasure(pos, np.full(k * k, 100.0)), rng.normal(size=k * k), 3.0, index)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "suite1d",
            {"full": Size(12, 0, 36, 0.093), "tiny": Size(4, 0, 12, 0.05)},
            _clustered_instance,
            estimate,
        ),
        Workload(
            "large1d",
            {"full": Size(256, 0, 1, 2.9), "tiny": Size(16, 0, 1, 0.26)},
            _uniform_instance,
            estimate,
        ),
        Workload(
            "grid2d",
            {"full": Size(3, 0, 1, 3.45), "tiny": Size(2, 0, 1, 1.3)},
            _grid_instance,
            estimate,
        ),
        Workload(
            "kcurve1d",
            # two passes over the 30 (m, p) pairs: with one, how many curves of a run
            # fail, and so stop early, spread the rate by 0.10 across seeds
            {"full": Size(10, 4, 60, 0.43), "tiny": Size(4, 2, 12, 0.14)},
            _clustered_instance,
            kcurve,
        ),
    )
}
