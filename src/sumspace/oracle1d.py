"""Exact one-dimensional ground truth by a certified convex minimization.

For prescribed values ``v`` at sorted sites ``x_1 < ... < x_m``, the smallest
possible Lp gradient norm over functions interpolating ``v`` is attained by
the piecewise-linear interpolant (constant outside the sites) and equals

    S(v) = ( sum_k |v_{k+1} - v_k|^p (x_{k+1} - x_k)^(1-p) )^(1/p),

by Hoelder's inequality applied segmentwise.  The sum-space norm of atom
values ``f`` is therefore the finite convex minimum of

    F(v) = S(v) + M(v),      M(v) = ( sum_i w_i |f_i - v_i|^p )^(1/p),

over ``v`` in R^m, and the K-functional at ``t`` is the minimum of
``M(v) + t S(v)``.  With ``a = w^(1/p)``, ``b = dx^(1/p - 1)`` and ``D`` the
difference matrix, both are ``min_v t_m ||a (f - v)||_p + t_s ||b D v||_p``.

**Certificate.**  Hoelder's inequality gives, for every ``U`` in R^(m-1) with
``g = D^T U`` and every ``v``,

    F(v) >= s <g, f>,    s = min(t_m / ||g / a||_q, t_s / ||U / b||_q),

(weak Fenchel duality; Boyd-Vandenberghe, Convex Optimization, ch. 5).  A
``U`` is built in O(m) from the residual side (``g = w sgn(r)|r|^(p-1)``
projected onto ``sum g = 0`` along ``w``, ``U = -cumsum(g)``) or from the gradient side
(``U = dx^(1-p) sgn(Dv)|Dv|^(p-1)``), and a point is accepted only when
``F(v)`` minus the larger bound, the duality gap, is within the tolerance.

**Solver.**  The two kinks of ``F`` are tried first: ``v = f`` (``M = 0``,
the small-``t`` end) and the constant at the weighted p-mean of ``f``
(``S = 0``, the large-``t`` end).  Otherwise damped Newton runs from the
p=2 smoother on an objective smoothed by ``|x|^p -> (x^2 + eps^2)^(p/2)``
(p != 2) and ``(sum c |x|^p + eps^p sum c)^(1/p)`` for both roots, with ``eps``
divided by 100 per round and the gap checked after every step.  The
Hessian is tridiagonal minus one rank-one term per root, so each step is one
banded solve with a 2x2 Woodbury correction, O(m).  For p < 2, components
whose Newton step crosses zero are stepped with the secant curvature instead.
``OracleConvergenceError`` carries the gap when no round certifies.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy import linalg, optimize

from .measure import _values_of

__all__ = ["OracleProblem", "sigma_norm_exact", "k_exact", "OracleConvergenceError"]

P_MAX = 8.0

# smoothing per round, relative to the spread of f; from 1e-16 on it is below
# double rounding except at exact zeros, where it keeps the curvature finite
_EPS_ROUNDS = tuple(1e-2 * 100.0**-k for k in range(12))
_NEWTON_MAX = 100  # Newton steps per round
_ARMIJO = 1e-4

log = logging.getLogger("sumspace.oracle1d")


class OracleConvergenceError(RuntimeError):
    """The solver ended with a duality gap above the tolerance."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"oracle minimization did not certify; duality gap {residual:g}")


@dataclass
class OracleProblem:
    """Sorted 1d sites with weights, target values, and the exponent."""

    x: np.ndarray
    w: np.ndarray
    f: np.ndarray
    p: float

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float).ravel()
        w = np.asarray(self.w, dtype=float).ravel()
        f = np.asarray(self.f, dtype=float).ravel()
        order = np.argsort(x, kind="stable")
        x, w, f = x[order], w[order], f[order]
        # merge exactly coincident sites
        keep_x, keep_w, keep_f = [x[0]], [w[0]], [f[0]]
        for i in range(1, len(x)):
            if x[i] == keep_x[-1]:
                keep_w[-1] += w[i]
                if abs(f[i] - keep_f[-1]) > 1e-12:
                    raise ValueError("coincident sites carry different values")
            else:
                keep_x.append(x[i])
                keep_w.append(w[i])
                keep_f.append(f[i])
        self.x = np.array(keep_x)
        self.w = np.array(keep_w)
        self.f = np.array(keep_f)
        if not np.all(self.w > 0):
            raise ValueError("weights must be positive")
        if not (1.0 < self.p <= P_MAX):
            raise ValueError(f"p must lie in (1, {P_MAX}], got {self.p}")

    @classmethod
    def from_measure(cls, mu, f, p: float) -> "OracleProblem":
        if mu.n != 1:
            raise ValueError("the exact oracle is one-dimensional")
        values = _values_of(f)
        return cls(mu.positions[:, 0], mu.weights, values, p)

    @property
    def m(self) -> int:
        return len(self.x)


def seminorm_of_values(prob: OracleProblem, v) -> float:
    """Minimal gradient Lp norm of an interpolant of ``v`` (piecewise linear)."""
    v = np.asarray(v, dtype=float)
    if prob.m == 1:
        return 0.0
    dv = np.abs(np.diff(v))
    dx = np.diff(prob.x)
    return float(np.sum(dv**prob.p * dx ** (1.0 - prob.p)) ** (1.0 / prob.p))


def data_misfit(prob: OracleProblem, v) -> float:
    v = np.asarray(v, dtype=float)
    return float(
        np.sum(prob.w * np.abs(prob.f - v) ** prob.p) ** (1.0 / prob.p)
    )


def _signed_power(x: np.ndarray, e: float) -> np.ndarray:
    return np.sign(x) * np.abs(x) ** e


def _root_parts(x: np.ndarray, c: np.ndarray, p: float, eps: float):
    """Smoothed ``N = (sum c phi(x) + eps^p sum c)^(1/p)`` and its derivatives.

    ``phi(x) = (x^2 + eps^2)^(p/2)``, or ``x^2`` at p=2.  Returns ``N``, the
    gradient ``gx``, the diagonal ``hx`` such that the Hessian in ``x`` is
    ``diag(hx) - (p - 1) / N * gx gx^T``, and the secant diagonal ``hsec``
    built from ``phi'(x) / x`` in place of ``phi''(x)``.
    """
    if p == 2.0:
        phi, d1, d2 = x * x, 2.0 * x, np.full_like(x, 2.0)
        sec = d2
    else:
        s2 = x * x + eps * eps
        phi = s2 ** (p / 2.0)
        sec = p * s2 ** (p / 2.0 - 1.0)
        d1 = sec * x
        d2 = sec * ((p - 1.0) * x * x + eps * eps) / s2
    n = float(np.dot(c, phi) + eps**p * c.sum()) ** (1.0 / p)
    k = n ** (1.0 - p) / p
    return n, k * c * d1, k * c * d2, k * c * sec


def _dt(u: np.ndarray) -> np.ndarray:
    """``D^T u`` for the forward difference ``D``."""
    return -np.diff(u, prepend=0.0, append=0.0)


def _banded(h_m: np.ndarray, h_s: np.ndarray) -> np.ndarray:
    """``diag(h_m) + D^T diag(h_s) D`` in the storage of ``solve_banded((1, 1), ...)``."""
    ab = np.zeros((3, len(h_m)))
    ab[0, 1:] = -h_s
    ab[1] = h_m
    ab[1, :-1] += h_s
    ab[1, 1:] += h_s
    ab[2, :-1] = -h_s
    return ab


def _newton_solve(h_m, h_s, grad, vecs, coef) -> np.ndarray | None:
    """Solve ``(diag(h_m) + D^T diag(h_s) D - V diag(coef) V^T) d = -grad``.

    One banded solve for the tridiagonal part ``T`` and a 2x2 Woodbury
    correction, ``(T - V C V^T)^-1 = T^-1 + Z (I - C V^T Z)^-1 C V^T T^-1``
    with ``Z = T^-1 V``.  Falls back to ``-T^-1 grad``, a descent direction
    because ``T`` dominates the Hessian, when the correction is singular or
    does not descend.  Returns None when ``T`` itself is numerically singular
    (curvatures many decades apart).
    """
    try:
        sol = linalg.solve_banded((1, 1), _banded(h_m, h_s), np.column_stack([-grad, vecs]))
    except np.linalg.LinAlgError:
        return None
    base, z = sol[:, 0], sol[:, 1:]
    cap = np.eye(2) - coef[:, None] * (vecs.T @ z)
    try:
        d = base + z @ np.linalg.solve(cap, coef * (vecs.T @ base))
    except np.linalg.LinAlgError:
        return base
    if np.all(np.isfinite(d)) and float(np.dot(grad, d)) < 0.0:
        return d
    return base


class _Solver:
    """``min_v t_m M(v) + t_s S(v)`` with its duality-gap certificate."""

    def __init__(self, prob: OracleProblem, t_s: float, t_m: float):
        self.prob, self.t_s, self.t_m = prob, t_s, t_m
        p = prob.p
        self.p, self.q = p, p / (p - 1.0)
        self.f, self.w = prob.f, prob.w
        self.dx = np.diff(prob.x)
        self.c = self.dx ** (1.0 - p)
        self.scale = float(np.ptp(prob.f))
        # <g, f> = <g, f - mid> for sum g = 0; centring keeps the digits
        self.f_mid = prob.f - 0.5 * (prob.f.max() + prob.f.min())
        self.newton_steps = self.rounds = 0

    def exact(self, v: np.ndarray) -> float:
        return self.t_m * data_misfit(self.prob, v) + self.t_s * seminorm_of_values(self.prob, v)

    def smoothed(self, v: np.ndarray, eps: float) -> float:
        return (
            self.t_m * _root_parts(v - self.f, self.w, self.p, eps)[0]
            + self.t_s * _root_parts(np.diff(v), self.c, self.p, eps)[0]
        )

    # -- certificate ---------------------------------------------------------

    def _bound(self, u: np.ndarray) -> float:
        """``s <D^T U, f>``: a lower bound on the minimum for any ``U``."""
        top = float(np.max(np.abs(u)))
        if not top > 0:
            return 0.0
        u = u / top
        g = _dt(u)
        q = self.q
        ng = float(np.sum(np.abs(g) ** q / self.w ** (q - 1.0)) ** (1.0 / q))
        nu = float(np.sum(np.abs(u) ** q / self.c ** (q - 1.0)) ** (1.0 / q))
        return min(self.t_m / ng, self.t_s / nu) * abs(float(np.dot(g, self.f_mid)))

    def lower_bound(self, v: np.ndarray) -> float:
        if len(v) == 1:
            return 0.0
        # residual side, projected onto sum g = 0 along w: heavy sites, where
        # the dual norm charges least, absorb the correction
        g = self.w * _signed_power(self.f - v, self.p - 1.0)
        u_m = -np.cumsum(g - g.sum() / self.w.sum() * self.w)[:-1]
        u_s = self.c * _signed_power(np.diff(v), self.p - 1.0)
        return max(self._bound(u_m), self._bound(u_s), 0.0)

    def gap(self, v: np.ndarray) -> tuple[float, float]:
        val = self.exact(v)
        return val, val - self.lower_bound(v)

    # -- candidates and Newton ----------------------------------------------

    def p_mean(self) -> float:
        """The constant minimizing ``M``: the root of sum w |f-c|^(p-1) sgn(f-c)."""
        f, w, p = self.f, self.w, self.p
        lo, hi = float(f.min()), float(f.max())
        if lo == hi:
            return lo
        return optimize.brentq(
            lambda c: float(np.dot(w, _signed_power(f - c, p - 1.0))),
            lo, hi, xtol=1e-15 * (hi - lo), rtol=4.0 * np.finfo(float).eps,
        )

    def start(self) -> np.ndarray:
        """The p=2 smoother ``(W + (t_s/t_m) D^T diag(1/dx) D)^-1 W f``."""
        ab = _banded(self.w, (self.t_s / self.t_m) / self.dx)
        return linalg.solve_banded((1, 1), ab, self.w * self.f)

    def direction(self, v: np.ndarray, eps: float):
        """Smoothed objective value, gradient and Newton direction (or None) at ``v``.

        For p < 2 the Newton step on ``|x|^p`` maps ``x`` to
        ``-x (2 - p) / (p - 1)``, which oscillates or diverges; components
        whose step crosses zero are stepped again with the secant curvature
        ``phi'(x) / x``, which majorizes ``phi`` and lands near zero.
        """
        p, t_m, t_s = self.p, self.t_m, self.t_s
        r, dv = v - self.f, np.diff(v)
        m_val, gm, hm, sec_m = _root_parts(r, self.w, p, eps)
        s_val, gs, hs, sec_s = _root_parts(dv, self.c, p, eps)
        grad_s = _dt(gs)
        grad = t_m * gm + t_s * grad_s
        vecs = np.column_stack([gm, grad_s])
        coef = np.array([t_m * (p - 1.0) / m_val, t_s * (p - 1.0) / s_val])
        d = _newton_solve(t_m * hm, t_s * hs, grad, vecs, coef)
        if d is not None and p < 2.0:
            cross_m = r * (r + d) < 0.0
            cross_s = dv * (dv + np.diff(d)) < 0.0
            if cross_m.any() or cross_s.any():
                hm = np.where(cross_m, sec_m, hm)
                hs = np.where(cross_s, sec_s, hs)
                d = _newton_solve(t_m * hm, t_s * hs, grad, vecs, coef)
        return t_m * m_val + t_s * s_val, grad, d

    def newton_round(self, v: np.ndarray, val: float, gap: float, eps: float, tol: float):
        """Newton on the objective smoothed at ``eps``, from ``v`` until the gap certifies.

        Takes and returns ``(value, v, gap)``, value and gap of the exact
        objective.  Far from the minimum, steps are Armijo-damped.  Near it,
        where the decrease in value drops below rounding, full steps are
        taken while the Newton decrement keeps halving; the gap, not the
        value, judges the result.
        """
        local = np.inf
        for _ in range(_NEWTON_MAX):
            if gap <= tol:
                break
            sval, grad, d = self.direction(v, eps)
            if d is None:
                break
            dec = -float(np.dot(grad, d))
            if not dec > 0.0:
                break
            if dec <= 1e-12 * sval:
                if not dec < 0.5 * local:
                    break
                local = dec
                v = v + d
            else:
                step = 1.0
                while self.smoothed(v + step * d, eps) > sval - _ARMIJO * step * dec:
                    step *= 0.5
                    if step < 1e-10:
                        return val, v, gap
                v = v + step * d
            self.newton_steps += 1
            val, gap = self.gap(v)
        return val, v, gap

    def solve(self, tol: float) -> tuple[float, np.ndarray, float]:
        """Certified ``(value, v, gap)``; raises if no smoothing round certifies."""
        best = None
        for v in (self.f.copy(), np.full(len(self.f), self.p_mean())):
            val, gap = self.gap(v)
            if gap <= tol and (best is None or val < best[0]):
                best = (val, v, gap)
        if best is not None:
            return best
        v = self.start()
        val, gap = self.gap(v)
        for eps in _EPS_ROUNDS:
            if gap <= tol:
                break
            self.rounds += 1
            val, v, gap = self.newton_round(v, val, gap, eps * self.scale, tol)
        if gap > tol:
            raise OracleConvergenceError(gap)
        return val, v, gap


def _minimize(prob: OracleProblem, t_s: float, t_m: float, tol: float):
    solver = _Solver(prob, t_s, t_m)

    def report(gap: float) -> None:
        log.info(
            "oracle: m %d, p %g, t %.6g, %d Newton steps, %d smoothing rounds, gap %.3g",
            prob.m, prob.p, t_s / t_m, solver.newton_steps, solver.rounds, gap,
        )

    try:
        val, v, gap = solver.solve(tol)
    except OracleConvergenceError as err:
        report(err.residual)
        raise
    report(gap)
    return val, v


def sigma_norm_exact(prob: OracleProblem):
    """Global minimum of ``S(v) + M(v)`` and its minimizer, certified to
    ``1e-9 max(1, max|f|)``."""
    scale = float(np.max(np.abs(prob.f))) if prob.m else 0.0
    val, v = _minimize(prob, t_s=1.0, t_m=1.0, tol=1e-9 * max(scale, 1.0))
    return float(val), v


def k_exact(prob: OracleProblem, t: float) -> float:
    """The interpolation K-functional ``min_v M(v) + t S(v)``."""
    tt = float(t)
    if not tt > 0:
        raise ValueError("t must be positive")
    scale = float(np.max(np.abs(prob.f))) if prob.m else 0.0
    val, _ = _minimize(prob, t_s=tt, t_m=1.0, tol=1e-9 * max(scale, 1.0) * min(tt, 1.0 + tt))
    return float(val)
