"""Finite atomic measures on R^n and the weighted Lp machinery over them.

An :class:`AtomicMeasure` is a finite list of weighted points; a function in
the measure's Lp space is just its vector of values at the atoms
(:class:`SampledFunction`).  Cube queries use closed-cube semantics: an atom
exactly on the boundary belongs to the cube, which makes the mass function
``r -> mu(Q(x, r))`` right-continuous.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geometry import Cube, meeting_pairs, segment_reduce

__all__ = [
    "AtomicMeasure",
    "SampledFunction",
    "average",
    "lp_norm",
    "load_measure",
    "load_function",
]


class MeasureFormatError(ValueError):
    pass


def _merge_duplicates(positions, weights, values):
    seen: dict[bytes, int] = {}
    keep_pos, keep_w, keep_v = [], [], []
    merge_map = np.zeros(positions.shape[0], dtype=int)
    for i in range(positions.shape[0]):
        key = positions[i].tobytes()
        if key in seen:
            j = seen[key]
            keep_w[j] += weights[i]
            if values is not None and abs(values[i] - keep_v[j]) > 1e-12:
                raise MeasureFormatError(
                    f"duplicate atom at {positions[i]} carries conflicting values "
                    f"{keep_v[j]} vs {values[i]}"
                )
            merge_map[i] = j
        else:
            seen[key] = len(keep_pos)
            merge_map[i] = len(keep_pos)
            keep_pos.append(positions[i])
            keep_w.append(float(weights[i]))
            if values is not None:
                keep_v.append(float(values[i]))
    merged_pos = np.array(keep_pos, dtype=float)
    merged_w = np.array(keep_w, dtype=float)
    merged_v = np.array(keep_v, dtype=float) if values is not None else None
    return merged_pos, merged_w, merged_v, merge_map


class AtomicMeasure:
    """Non-trivial non-negative finite atomic measure with exact cube queries.

    Cube queries go through one batched query, :meth:`cube_atoms`: the
    closed-cube join of the cubes with the atoms (``meeting_pairs``), so
    masses are exact.
    Sorted coordinates in 1d and a KD-tree in 2d serve the nearest atoms of
    the concentration radius.
    """

    def __init__(self, positions, weights):
        positions = np.atleast_2d(np.asarray(positions, dtype=float))
        weights = np.asarray(weights, dtype=float).ravel()
        if positions.shape[0] != weights.shape[0]:
            raise ValueError("positions and weights must align")
        if positions.shape[0] == 0:
            raise ValueError("measure must have at least one atom")
        if positions.shape[1] not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {positions.shape[1]}")
        if not np.all(np.isfinite(positions)):
            raise ValueError("atom positions must be finite")
        if not np.all(weights > 0.0) or not np.all(np.isfinite(weights)):
            raise ValueError("atom weights must be positive and finite")
        self.positions = positions
        self.weights = weights
        self.n = positions.shape[1]
        self.m = positions.shape[0]
        self.total_mass = float(weights.sum())
        # raw-file atom index -> merged atom index (identity unless duplicates merged)
        self.merge_map = np.arange(self.m, dtype=int)
        self._build_index()

    @classmethod
    def from_atoms(cls, positions, weights, values=None):
        """Build a measure, merging exactly duplicated positions.

        Weights of duplicates are summed; if ``values`` is given, duplicate
        values must agree within ``1e-12`` and the merged vector is returned
        alongside the measure.
        """
        positions = np.atleast_2d(np.asarray(positions, dtype=float))
        weights = np.asarray(weights, dtype=float).ravel()
        vals = None if values is None else np.asarray(values, dtype=float).ravel()
        if vals is not None and vals.shape[0] != positions.shape[0]:
            raise ValueError("values must align with atoms")
        pos, w, v, merge_map = _merge_duplicates(positions, weights, vals)
        mu = cls(pos, w)
        mu.merge_map = merge_map
        if values is None:
            return mu, None
        return mu, SampledFunction(v)

    def _build_index(self):
        # the concentration radius reads the nearest atoms from these
        if self.n == 1:
            self._order = np.argsort(self.positions[:, 0], kind="stable")
            self._sorted_x = self.positions[self._order, 0]
        else:
            self._tree = cKDTree(self.positions)

    def mass(self, cube: Cube) -> float:
        """Total weight inside the closed cube (exact)."""
        return float(self.mass_many(cube.center[None, :], [cube.half_side])[0])

    def cube_atoms(self, centers, halves) -> tuple[np.ndarray, np.ndarray]:
        """Pairs ``(k, i)`` of every atom ``i`` inside the closed cube ``Q(centers[k], halves[k])``.

        The pairs are the closed-cube join ``|x - c|_inf <= h`` of the cubes
        with the atoms (``meeting_pairs``), sorted by cube and then by atom.
        This is the only atom query: masses, averages and oscillation sums
        are all read from it.
        """
        C = np.atleast_2d(np.asarray(centers, dtype=float))
        H = np.asarray(halves, dtype=float).ravel()
        if not (C.size or H.size):
            C = C.reshape(0, self.n)  # an empty cube set has no dimension to check
        if C.shape != (H.shape[0], self.n):
            raise ValueError(f"expected {H.shape[0]} centers of dimension {self.n}, got {C.shape}")
        return meeting_pairs(C, H, self.positions, np.zeros(self.m))

    def mass_many(self, centers, halves) -> np.ndarray:
        """Masses of the closed cubes ``Q(centers[k], halves[k])``.

        The atoms of every cube come from ``cube_atoms``.  Each cube's
        weights are then summed in ascending atom order by numpy's own
        summation, one call per atom count, so every mass has the bits of
        ``weights[inside].sum()`` for that cube alone.
        """
        H = np.asarray(halves, dtype=float).ravel()
        rows, atoms = self.cube_atoms(centers, H)
        counts = np.bincount(rows, minlength=H.shape[0])
        return segment_reduce(counts, lambda w: w.sum(axis=1), self.weights[atoms])

    def scaled(self, factor: float) -> "AtomicMeasure":
        """Same atoms with all weights multiplied by ``factor > 0``."""
        if not factor > 0:
            raise ValueError("scale factor must be positive")
        return AtomicMeasure(self.positions, self.weights * factor)

    def bounding_half_width(self) -> float:
        lo = self.positions.min(axis=0)
        hi = self.positions.max(axis=0)
        return float(np.max(hi - lo)) / 2.0

    def bounding_center(self) -> np.ndarray:
        lo = self.positions.min(axis=0)
        hi = self.positions.max(axis=0)
        return (lo + hi) / 2.0

    def __repr__(self) -> str:  # pragma: no cover
        return f"AtomicMeasure(n={self.n}, m={self.m}, mass={self.total_mass:g})"


@dataclass
class SampledFunction:
    """Values of a function at the atoms of a bound measure, by index."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        if not np.all(np.isfinite(v)):
            raise ValueError("function values must be finite")
        self.values = v

    def __len__(self) -> int:
        return len(self.values)


def _values_of(f) -> np.ndarray:
    if isinstance(f, SampledFunction):
        return f.values
    return np.asarray(f, dtype=float).ravel()


def _check_bound(mu: AtomicMeasure, v: np.ndarray) -> None:
    if v.shape[0] != mu.m:
        raise ValueError(f"function has {v.shape[0]} values for {mu.m} atoms")


def average(mu: AtomicMeasure, f, cube: Cube) -> float:
    """Weighted mean of ``f`` over the atoms inside the cube."""
    v = _values_of(f)
    _check_bound(mu, v)
    _, idx = mu.cube_atoms(cube.center[None, :], [cube.half_side])
    if idx.size == 0:
        raise ValueError("average over mu-null set")
    w = mu.weights[idx]
    return float(np.dot(w, v[idx]) / w.sum())


def lp_norm(mu: AtomicMeasure, f, p: float) -> float:
    """``(sum_i w_i |f_i|^p)^(1/p)`` for ``p >= 1``."""
    if not p >= 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    v = _values_of(f)
    _check_bound(mu, v)
    return float(np.power(np.dot(mu.weights, np.abs(v) ** p), 1.0 / p))


def load_measure(path) -> AtomicMeasure:
    """Read a measure file ``{"n": 1, "atoms": [{"x": [...], "w": ...}, ...]}``."""
    with open(path) as fh:
        data = json.load(fh)
    try:
        n = int(data["n"])
        atoms = data["atoms"]
        positions = [a["x"] for a in atoms]
        weights = [a["w"] for a in atoms]
    except (KeyError, TypeError) as exc:
        raise MeasureFormatError(f"malformed measure file {path}: {exc}") from exc
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    if positions.shape[1] != n:
        raise MeasureFormatError(
            f"measure file declares n={n} but atoms have dimension {positions.shape[1]}"
        )
    mu, _ = AtomicMeasure.from_atoms(positions, weights)
    return mu


def load_function(path, mu: AtomicMeasure) -> SampledFunction:
    """Read ``{"values": [...]}`` aligned by index with the measure's atom file.

    Alignment is with the file the measure was loaded from; duplicate atoms
    must have carried equal values, which re-merging enforces.
    """
    with open(path) as fh:
        data = json.load(fh)
    try:
        values = np.asarray(data["values"], dtype=float).ravel()
    except (KeyError, TypeError) as exc:
        raise MeasureFormatError(f"malformed function file {path}: {exc}") from exc
    if values.shape[0] == mu.m:
        return SampledFunction(values)
    if values.shape[0] == mu.merge_map.shape[0]:
        # every atom's raw values in file order, each compared with the one before
        order = np.argsort(mu.merge_map, kind="stable")
        atom, v = mu.merge_map[order], values[order]
        again = atom[1:] == atom[:-1]
        bad = np.flatnonzero(again & (np.abs(v[:-1] - v[1:]) > 1e-12))
        if bad.size:
            k = bad[np.argmin(order[bad + 1])]  # the first disagreement in file order
            raise MeasureFormatError(
                f"values {v[k]} vs {v[k + 1]} disagree on merged atom {atom[k]}"
            )
        last = np.append(~again, True)
        merged = np.zeros(mu.m)
        merged[atom[last]] = v[last]
        return SampledFunction(merged)
    raise MeasureFormatError(
        f"function file has {values.shape[0]} values for {mu.m} atoms"
    )
