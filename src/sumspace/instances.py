"""Seeded random instances used by the self test and the verification suites."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measure import AtomicMeasure

__all__ = ["Instance", "random_instance", "suite_1d", "suite_2d", "heavy_grid"]


@dataclass
class Instance:
    mu: AtomicMeasure
    f: np.ndarray
    p: float
    seed: int


def random_instance(
    seed: int,
    n: int,
    m_max: int,
    p_pool: tuple[float, ...],
    constant_share: float = 0.05,
) -> Instance:
    """Clustered atoms with log-uniform weights and Gaussian values."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, m_max + 1))
    scale = float(2.0 ** rng.uniform(-1.0, 6.0))
    n_clusters = int(rng.integers(1, min(3, m) + 1))
    centers = rng.uniform(-1.0, 1.0, size=(n_clusters, n)) * scale
    pos = np.empty((m, n))
    for i in range(m):
        c = centers[rng.integers(0, n_clusters)]
        pos[i] = c + rng.normal(scale=0.03 * scale, size=n)
    weights = 2.0 ** rng.uniform(-2.0, 2.0, size=m)
    if rng.random() < constant_share:
        f = np.full(m, float(rng.normal()))
    else:
        f = rng.normal(size=m) * float(2.0 ** rng.uniform(-1.0, 1.0))
    mu, merged_f = AtomicMeasure.from_atoms(pos, weights, f)
    p = float(rng.choice(p_pool))
    return Instance(mu, merged_f.values, p, seed)


def suite_1d(count: int = 200, base_seed: int = 1000) -> list[Instance]:
    return [
        random_instance(base_seed + i, 1, 12, (1.5, 2.0, 3.0)) for i in range(count)
    ]


def suite_2d(count: int = 50, base_seed: int = 5000) -> list[Instance]:
    return [
        random_instance(base_seed + i, 2, 8, (2.5, 3.0)) for i in range(count)
    ]


def heavy_grid(k: int, n: int = 2) -> AtomicMeasure:
    """``k^n`` atoms of weight 100 at the integer points of ``[0, k-1]^n``."""
    axes = np.meshgrid(*([np.arange(k, dtype=float)] * n), indexing="ij")
    pos = np.stack([a.ravel() for a in axes], axis=1)
    return AtomicMeasure(pos, np.full(pos.shape[0], 100.0))
