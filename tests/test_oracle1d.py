import logging
import math

import numpy as np
import pytest

from sumspace import oracle1d
from sumspace.instances import random_instance
from sumspace.measure import AtomicMeasure
from sumspace.oracle1d import (
    OracleConvergenceError,
    OracleProblem,
    _minimize,
    _Solver,
    data_misfit,
    k_exact,
    seminorm_of_values,
    sigma_norm_exact,
)

SQRT2_OVER_2 = math.sqrt(2.0) / 2.0


def two_atom(p=2.0):
    return OracleProblem([0.0, 1.0], [1.0, 1.0], [0.0, 1.0], p)


def test_single_site_is_zero():
    prob = OracleProblem([3.0], [2.0], [7.0], 2.0)
    val, v = sigma_norm_exact(prob)
    assert val == 0.0
    assert v[0] == 7.0


def test_constant_function_is_zero():
    prob = OracleProblem([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], [4.0, 4.0, 4.0], 1.5)
    val, _ = sigma_norm_exact(prob)
    assert val == 0.0


def test_two_atom_closed_form():
    # one-parameter reduction: minimize |1 - 2a| + a*sqrt(2), optimum a = 1/2
    val, v = sigma_norm_exact(two_atom())
    assert val == pytest.approx(SQRT2_OVER_2, abs=1e-8)


def test_two_atom_k_closed_form():
    prob = two_atom()
    for t in (0.1, 0.5, SQRT2_OVER_2, 5.0):
        assert k_exact(prob, t) == pytest.approx(min(t, SQRT2_OVER_2), abs=1e-7)


def test_k_small_t_limit_equals_interpolation_seminorm():
    prob = two_atom()
    s_full = seminorm_of_values(prob, prob.f)
    assert s_full == pytest.approx(1.0, abs=1e-14)
    for t in (1e-3, 1e-4):
        assert k_exact(prob, t) == pytest.approx(t * s_full, rel=1e-3)


def test_k_monotone_and_concave():
    rng = np.random.default_rng(2)
    prob = OracleProblem(
        np.sort(rng.uniform(-2, 2, 5)), rng.uniform(0.5, 2, 5), rng.normal(size=5), 2.0
    )
    ts = np.geomspace(1e-2, 1e2, 9)
    ks = np.array([k_exact(prob, t) for t in ts])
    assert np.all(np.diff(ks) >= -1e-9)
    mid = np.array([k_exact(prob, math.sqrt(ts[i] * ts[i + 1])) for i in range(len(ts) - 1)])
    # concavity in t: K at the geometric midpoint dominates the chord there
    for i in range(len(ts) - 1):
        t0, t1, tm = ts[i], ts[i + 1], math.sqrt(ts[i] * ts[i + 1])
        chord = ks[i] + (ks[i + 1] - ks[i]) * (tm - t0) / (t1 - t0)
        assert mid[i] >= chord - 1e-9 * max(1.0, ks[i + 1])


def test_route_equivalence_k_vs_scaled_measure():
    # K(t) = t * sigma_norm under mu / t^p across six decades
    rng = np.random.default_rng(5)
    x = np.sort(rng.uniform(-1, 1, 6))
    w = rng.uniform(0.5, 2.0, 6)
    f = rng.normal(size=6)
    p = 2.0
    prob = OracleProblem(x, w, f, p)
    for t in np.geomspace(1e-3, 1e3, 7):
        lhs = k_exact(prob, t)
        scaled = OracleProblem(x, w / t**p, f, p)
        rhs = t * sigma_norm_exact(scaled)[0]
        assert lhs == pytest.approx(rhs, rel=1e-7, abs=1e-12)


def test_objective_convexity_random():
    rng = np.random.default_rng(9)
    prob = OracleProblem(
        np.sort(rng.uniform(-3, 3, 7)), rng.uniform(0.2, 3, 7), rng.normal(size=7), 3.0
    )

    def F(v):
        return seminorm_of_values(prob, v) + data_misfit(prob, v)

    for _ in range(200):
        u = rng.normal(size=7)
        v = rng.normal(size=7)
        th = rng.random()
        assert F(th * u + (1 - th) * v) <= th * F(u) + (1 - th) * F(v) + 1e-10


def test_solver_optimality_by_perturbation():
    rng = np.random.default_rng(4)
    for seed in range(6):
        r = np.random.default_rng(seed)
        m = int(r.integers(2, 9))
        prob = OracleProblem(
            np.sort(r.uniform(-2, 2, m)), r.uniform(0.3, 2, m), r.normal(size=m),
            float(r.choice([1.5, 2.0, 3.0])),
        )
        val, v = sigma_norm_exact(prob)

        def F(u):
            return seminorm_of_values(prob, u) + data_misfit(prob, u)

        assert val == pytest.approx(F(v), rel=1e-12)
        for _ in range(60):
            d = rng.standard_normal(m)
            d *= (1e-4 * np.linalg.norm(v) + 1e-6) / np.linalg.norm(d)
            assert F(v + d) >= val - 1e-9


def test_minimizer_reproduces_decomposition():
    # the two summands at the optimum really are the norms of a decomposition
    prob = two_atom()
    val, v = sigma_norm_exact(prob)
    s = seminorm_of_values(prob, v)
    m = data_misfit(prob, v)
    assert s + m == pytest.approx(val, rel=1e-12)


def test_p_range_guard():
    with pytest.raises(ValueError):
        OracleProblem([0.0, 1.0], [1.0, 1.0], [0.0, 1.0], 9.0)
    with pytest.raises(ValueError):
        OracleProblem([0.0, 1.0], [1.0, 1.0], [0.0, 1.0], 1.0)


def test_duplicate_sites_merge():
    prob = OracleProblem([0.0, 0.0, 1.0], [1.0, 1.0, 1.0], [2.0, 2.0, 3.0], 2.0)
    assert prob.m == 2
    assert prob.w[0] == 2.0


def test_from_measure():
    mu = AtomicMeasure([[0.0], [1.0]], [1.0, 1.0])
    prob = OracleProblem.from_measure(mu, [0.0, 1.0], 2.0)
    val, _ = sigma_norm_exact(prob)
    assert val == pytest.approx(SQRT2_OVER_2, abs=1e-8)


def _random_problem(seed, m, p):
    r = np.random.default_rng(seed)
    return OracleProblem(
        np.sort(r.uniform(-2, 2, m)), r.uniform(0.3, 2, m), r.normal(size=m), p
    )


def test_dual_bound_below_every_objective_value():
    # weak duality: the bound built from any point is below F at any point
    rng = np.random.default_rng(11)
    for seed, p in enumerate((1.5, 2.0, 3.0, 8.0)):
        prob = _random_problem(seed, 9, p)
        for t in (1e-2, 1.0, 1e2):
            solver = _Solver(prob, t, 1.0)
            for _ in range(50):
                u, v = rng.normal(size=(2, prob.m)) * rng.uniform(0.01, 3.0)
                assert solver.lower_bound(u) <= solver.exact(v) + 1e-12
            assert solver.lower_bound(rng.normal(size=prob.m)) <= k_exact(prob, t) + 1e-12


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 8.0])
def test_minimizer_gap_within_tolerance(p):
    prob = _random_problem(int(10 * p), 8, p)
    scale = max(1.0, float(np.max(np.abs(prob.f))))
    for t in 10.0 ** np.arange(-4, 5):
        tol = 1e-9 * scale * min(t, 1.0 + t)
        val, v = _minimize(prob, t_s=t, t_m=1.0, tol=tol)
        solver = _Solver(prob, t, 1.0)
        assert val == solver.exact(v) == k_exact(prob, t)
        assert solver.gap(v)[1] <= tol
        if t == 1e-4:
            assert np.array_equal(v, prob.f)  # the M = 0 kink
        if t == 1e4:
            assert np.ptp(v) == 0.0  # the S = 0 kink


def test_suite_seed_1199_regression():
    # random probing accepted 1.44660796 here; the true minimum is 1.44643827
    inst = random_instance(1199, 1, 12, (1.5, 2.0, 3.0))
    val, _ = sigma_norm_exact(OracleProblem.from_measure(inst.mu, inst.f, inst.p))
    assert val <= 1.4464383 + 1e-9


def test_oracle_logs_one_info_line_per_solve(caplog):
    prob = _random_problem(3, 6, 1.5)
    with caplog.at_level(logging.INFO, logger="sumspace.oracle1d"):
        k_exact(prob, 0.5)
    (record,) = [r for r in caplog.records if r.name == "sumspace.oracle1d"]
    msg = record.getMessage()
    assert msg.startswith("oracle: m 6, p 1.5, t 0.5, ")
    assert "Newton steps" in msg and "smoothing rounds" in msg and ", gap " in msg
    caplog.clear()
    with caplog.at_level(logging.ERROR, logger="sumspace.oracle1d"):
        k_exact(prob, 0.5)
    assert not caplog.records


def test_convergence_error_carries_the_gap(monkeypatch):
    prob = _random_problem(3, 6, 1.5)
    solver = _Solver(prob, 0.5, 1.0)
    start_gap = solver.gap(solver.start())[1]
    monkeypatch.setattr(oracle1d, "_EPS_ROUNDS", ())
    with pytest.raises(OracleConvergenceError) as err:
        k_exact(prob, 0.5)
    assert err.value.residual == start_gap > 1e-9


@pytest.mark.parametrize("seed", [200, 314, 334])
def test_heavy_site_certifies(seed):
    # one site 1e6 times heavier than the rest at p = 1.5: its residual is ~0,
    # so the dual's zero-sum correction must go to it, and plain Newton
    # steps on |r|^1.5 oscillate around it
    r = np.random.default_rng(seed)
    x = np.sort(r.uniform(-1, 1, 15)) * 10 ** r.uniform(-2, 2)
    w = 2.0 ** r.uniform(-6, 6, 15)
    w[7] *= 1e6
    prob = OracleProblem(x, w, r.normal(size=15) * 10 ** r.uniform(-2, 1), 1.5)
    val, v = sigma_norm_exact(prob)
    assert val == pytest.approx(seminorm_of_values(prob, v) + data_misfit(prob, v), rel=1e-12)
    for t in (0.01, 0.1, 1.0, 10.0, 100.0):
        k_exact(prob, t)
