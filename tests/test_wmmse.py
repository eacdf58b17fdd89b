"""Optimizer tests: auxiliary identities, subproblem oracles, outer loop.

Subproblem solutions are checked three independent ways: a separable KKT
closed form (diagonal quadratic), a long-run solve by the projected-gradient
oracle in conftest, and an exhaustive 2-D grid search on the one-AP two-UE
case. Normalized objective comparisons follow
|f - f_ref| <= tol * max(1, |f_ref|).
"""

import dataclasses
import sys

import numpy as np
import pytest

from cfpower import se, wmmse
from cfpower.heuristics import equal_power
from cfpower.network import place_aps
from cfpower.pipeline import TEST_NAMESPACE, build_sample
from cfpower.se import PowerAllocation, SEParameters, effective_sinr
from cfpower.wmmse import (E_CLAMP, AuxiliaryUpdate, SolverConfig,
                           SubproblemResult, project_per_ap,
                           solve_subproblem, update_auxiliaries, utility,
                           wmmse_solve)
from conftest import per_ue_B

OMEGA_PF_HALF = 2.8853900817779268     # mpmath: -1 / (0.5 ln 0.5)
# the WmmseResult counters that two runs of the same solve must share
COUNTERS = ("converged", "n_outer", "admm_iters", "clamp_events",
            "subproblem_exhausted", "sign_flips", "final_flips")


def norm_close(f, f_ref, tol):
    return abs(f - f_ref) <= tol * max(1.0, abs(f_ref))


@pytest.fixture
def admm_tolerance(monkeypatch):
    """Sets ADMM's residual threshold and iteration cap for one test."""
    def tighten(eps_inner, max_iters):
        monkeypatch.setattr(wmmse, "_EPS_INNER", eps_inner)
        monkeypatch.setattr(wmmse, "_MAX_ADMM_ITERS", max_iters)
    return tighten


def off_scale_state(x0, p_max, rho=1e-3):
    """A cold ADMM start from x0 at an off-scale initial penalty."""
    return project_per_ap(x0, p_max), np.zeros_like(x0), rho


def subproblem_result(x, n_iters, converged, state=None):
    """A solve_subproblem result for iterate x of a reference solver."""
    return SubproblemResult(mu_raw=x, n_iters=n_iters, converged=converged,
                            n_flipped=int(np.sum(x < 0.0)), state=state)


def unit_params():
    # a = B = sigma2 = 1 puts e exactly at 1/2 for mu = 1
    return SEParameters(a=np.ones((1, 1)), B=np.ones((1, 1, 1, 1)),
                        sigma2=1.0, prelog=1.0, n_real=1000)


def test_auxiliary_frozen_point():
    params = unit_params()
    mu = np.ones((1, 1))
    aux = update_auxiliaries(params, mu, "sumse")
    assert aux.v[0] == pytest.approx(0.5, rel=1e-15)
    assert aux.e[0] == pytest.approx(0.5, rel=1e-15)
    assert aux.omega[0] == pytest.approx(2.0, rel=1e-15)
    assert aux.clamped == 0
    pf = update_auxiliaries(params, mu, "pf")
    assert pf.omega[0] == pytest.approx(OMEGA_PF_HALF, rel=1e-14)


def test_auxiliary_identities(synthetic_params):
    params = synthetic_params(K=4, L=3, seed=0, sigma2=0.5)
    rng = np.random.default_rng(1)
    mu = rng.uniform(0.05, 0.4, size=(4, 3))
    aux = update_auxiliaries(params, mu, "sumse")
    sig = np.einsum("kl,kl->k", params.a, mu)
    # e = 1 - v * sig is an exact consequence of the two definitions
    assert np.allclose(aux.e, 1.0 - aux.v * sig, rtol=1e-12)
    assert np.allclose(aux.omega, 1.0 / aux.e, rtol=1e-15)
    assert np.all((aux.e > 0.0) & (aux.e < 1.0))


def test_auxiliary_clamps_and_reports():
    params = unit_params()
    zero = update_auxiliaries(params, np.zeros((1, 1)), "sumse")
    assert zero.v[0] == 0.0
    assert zero.e[0] == pytest.approx(1.0 - 1e-12)
    assert zero.clamped == 1
    # noiseless single UE with B = a a^T drives e underneath the clamp
    tight = SEParameters(a=np.ones((1, 1)), B=np.ones((1, 1, 1, 1)),
                         sigma2=1e-30, prelog=1.0, n_real=1000)
    aux = update_auxiliaries(tight, np.ones((1, 1)), "sumse")
    assert aux.e[0] == pytest.approx(1e-12)
    assert aux.clamped == 1
    assert np.isfinite(aux.omega[0])


def test_auxiliary_rejects_unknown_objective(synthetic_params):
    params = synthetic_params(K=2, L=2, seed=2)
    mu = np.full((2, 2), 0.5)
    for call in (lambda: update_auxiliaries(params, mu, "maxmin"),
                 lambda: utility(params, mu, "maxmin")):
        with pytest.raises(ValueError, match="unknown objective 'maxmin'"):
            call()


def test_subproblem_matrices_match_loops(synthetic_params,
                                         subproblem_matrices):
    params = synthetic_params(K=3, L=2, seed=3, sigma2=0.2)
    rng = np.random.default_rng(4)
    omega = rng.uniform(0.5, 2.0, size=3)
    v = rng.uniform(0.1, 1.0, size=3)
    C, q = subproblem_matrices(params, omega, v)
    for i in range(3):
        ref = np.zeros((2, 2))
        for k in range(3):
            ref += omega[k] * v[k] ** 2 * params.B[k, i]
        assert np.allclose(C[i], ref, rtol=1e-12)
        assert np.allclose(C[i], C[i].T, atol=1e-15)
        assert np.linalg.eigvalsh(C[i]).min() >= -1e-12
        assert np.allclose(q[i], omega[i] * v[i] * params.a[i], rtol=1e-15)


def test_subproblem_matrices_reject_indefinite():
    # a large negative second moment cannot come from a covariance
    params = SEParameters(a=np.ones((1, 2)),
                          B=-np.eye(2).reshape(1, 1, 2, 2),
                          sigma2=1.0, prelog=1.0, n_real=1000)
    with pytest.raises(RuntimeError, match="indefinite"):
        solve_subproblem(params, np.ones(1), np.ones(1), 1.0)


def single_c_params(C):
    # K = 1 with omega = v = 1 makes the subproblem matrix B_00 itself
    L = C.shape[0]
    return SEParameters(a=np.ones((1, L)), B=C[None, None],
                        sigma2=1.0, prelog=1.0, n_real=1000)


def c_with_min_eigenvalue(relative):
    """A 3x3 C with eigenvalues (10, 3, relative * scale) in a random basis,
    scale being max(1, largest diagonal entry), as the guard defines it."""
    Q, _ = np.linalg.qr(np.random.default_rng(50).standard_normal((3, 3)))
    C = (Q * [10.0, 3.0, 0.0]) @ Q.T
    scale = max(1.0, float(np.diag(C).max()))
    return C + relative * scale * np.outer(Q[:, 2], Q[:, 2])


def test_subproblem_guard_passes_psd_up_to_the_floor():
    params = single_c_params(c_with_min_eigenvalue(-1e-10))
    res = solve_subproblem(params, np.ones(1), np.ones(1), 1.0)
    assert res.converged
    assert np.all(np.isfinite(res.mu_raw))


def test_subproblem_guard_raises_beyond_the_floor():
    params = single_c_params(c_with_min_eigenvalue(-1e-6))
    with pytest.raises(RuntimeError, match="indefinite"):
        solve_subproblem(params, np.ones(1), np.ones(1), 1.0)


def test_subproblem_guard_passes_rank_deficient_b():
    # B = a a^T is PSD of rank one: C is singular but not indefinite
    a = np.array([0.5, 1.0, 2.0])
    params = single_c_params(np.outer(a, a))
    res = solve_subproblem(params, np.ones(1), np.ones(1), 1.0)
    assert res.converged
    assert np.all(np.isfinite(res.mu_raw))


def test_project_per_ap():
    X = np.array([[3.0, 0.1], [4.0, 0.2]])
    P = project_per_ap(X, p_max=1.0)
    assert np.allclose(P[:, 0], [0.6, 0.8])
    assert np.allclose(P[:, 1], X[:, 1])
    assert np.allclose(project_per_ap(P, 1.0), P)
    # a budget other than 1 tells the radius sqrt(p_max) from p_max
    assert np.allclose(project_per_ap(X, p_max=4.0)[:, 0], [1.2, 1.6])


def diagonal_params(d, a_row):
    # K = 1 with diagonal B: the subproblem separates per AP column
    L = len(d)
    return SEParameters(a=np.asarray(a_row, float)[None, :],
                        B=np.diag(np.asarray(d, float))[None, None],
                        sigma2=1.0, prelog=1.0, n_real=1000)


# ADMM, then the projected-gradient oracle, each with its tolerance
@pytest.mark.parametrize("sub_cfg", [
    ("admm", dict(eps_inner=1e-10, max_iters=50000)),
    ("projected-gradient", dict(eps_inner=1e-11)),
])
def test_subproblem_separable_kkt(projected_gradient, subproblem_matrices,
                                  subproblem_objective, admm_tolerance,
                                  sub_cfg):
    d = [2.0, 0.5, 1.0]
    a_row = [0.6, 3.0, 1.0]
    params = diagonal_params(d, a_row)
    p_max = 1.0
    omega, v = np.array([1.3]), np.array([0.7])
    C, q = subproblem_matrices(params, omega, v)
    solver, tolerance = sub_cfg
    if solver == "admm":
        admm_tolerance(**tolerance)
        res = solve_subproblem(params, omega, v, p_max)
    else:
        res = subproblem_result(*projected_gradient(C, q, p_max,
                                                    **tolerance))
    # per column: argmin c mu^2 - 2 q mu over mu^2 <= P is min(q/c, sqrt(P))
    expected = np.minimum(q[0] / np.diag(C[0]), np.sqrt(p_max))
    assert res.converged
    assert np.allclose(np.abs(res.mu_raw[0]), expected, atol=1e-6)
    assert norm_close(subproblem_objective(C, q, res.mu_raw),
                      subproblem_objective(C, q, expected[None, :]), 1e-8)


def test_subproblem_unconstrained_interior(synthetic_params,
                                           subproblem_matrices,
                                           admm_tolerance):
    params = synthetic_params(K=3, L=2, seed=5)
    omega = np.array([1.0, 2.0, 0.5])
    v = np.array([0.3, 0.2, 0.4])
    C, q = subproblem_matrices(params, omega, v)
    admm_tolerance(eps_inner=1e-10, max_iters=50000)
    res = solve_subproblem(params, omega, v, p_max=1e9)
    for i in range(3):
        interior = np.linalg.solve(C[i], q[i])
        assert np.allclose(res.mu_raw[i], interior, atol=1e-6)


@pytest.mark.parametrize("seed", range(5))
def test_admm_agrees_with_long_run_gradient(synthetic_params,
                                            projected_gradient,
                                            subproblem_matrices,
                                            subproblem_objective,
                                            admm_tolerance, seed):
    params = synthetic_params(K=3, L=2, seed=10 + seed, sigma2=0.3)
    rng = np.random.default_rng(seed)
    omega = rng.uniform(0.5, 3.0, size=3)
    v = rng.uniform(0.1, 1.0, size=3)
    admm_tolerance(eps_inner=1e-9, max_iters=100000)
    admm = solve_subproblem(params, omega, v, 1.0)
    C, q = subproblem_matrices(params, omega, v)
    pg = subproblem_result(*projected_gradient(C, q, 1.0, eps_inner=1e-11))
    assert admm.converged and pg.converged
    assert norm_close(subproblem_objective(C, q, admm.mu_raw),
                      subproblem_objective(C, q, pg.mu_raw), 1e-6)
    assert np.allclose(admm.mu_raw, pg.mu_raw, atol=1e-4)


def test_admm_matches_grid_search(synthetic_params, subproblem_matrices,
                                  subproblem_objective, admm_tolerance):
    # one AP, two UEs: exhaustive search over the feasible disk
    params = synthetic_params(K=2, L=1, seed=20, sigma2=0.4)
    omega, v = np.array([1.2, 0.8]), np.array([0.5, 0.6])
    C, q = subproblem_matrices(params, omega, v)
    admm_tolerance(eps_inner=1e-9, max_iters=100000)
    res = solve_subproblem(params, omega, v, 1.0)
    r = 1.0
    g = np.linspace(-r, r, 2001)
    X, Y = np.meshgrid(g, g, indexing="ij")
    f = C[0, 0, 0] * X ** 2 + C[1, 0, 0] * Y ** 2 \
        - 2.0 * q[0, 0] * X - 2.0 * q[1, 0] * Y
    f = np.where(X ** 2 + Y ** 2 <= 1.0, f, np.inf)
    f_grid = float(f.min())
    f_admm = subproblem_objective(C, q, res.mu_raw)
    assert f_admm <= f_grid + 1e-9
    assert norm_close(f_admm, f_grid, 1e-3)


def test_subproblem_sign_flip_accounting(admm_tolerance):
    # strong positive coupling with a one-sided pull makes mu_2 negative
    params = SEParameters(a=np.array([[1.0, 0.0]]),
                          B=np.array([[1.0, 0.9], [0.9, 1.0]])[None, None],
                          sigma2=1.0, prelog=1.0, n_real=1000)
    admm_tolerance(eps_inner=1e-10, max_iters=50000)
    res = solve_subproblem(params, np.ones(1), np.ones(1), p_max=1e9)
    assert res.mu_raw[0, 1] < 0.0
    assert res.n_flipped == 1


def test_admm_solution_is_gradient_fixed_point(synthetic_params,
                                               subproblem_matrices,
                                               admm_tolerance):
    params = synthetic_params(K=3, L=2, seed=30)
    omega, v = np.ones(3), np.full(3, 0.4)
    C, q = subproblem_matrices(params, omega, v)
    admm_tolerance(eps_inner=1e-10, max_iters=100000)
    res = solve_subproblem(params, omega, v, 1.0)
    X = res.mu_raw
    step = 1.0 / (2.0 * float(np.linalg.eigvalsh(C)[:, -1].max()))
    G = 2.0 * (np.einsum("kab,kb->ka", C, X) - q)
    moved = project_per_ap(X - step * G, 1.0)
    assert np.allclose(moved, X, atol=1e-6)


def test_warm_start_reuses_state(synthetic_params, admm_tolerance):
    params = synthetic_params(K=3, L=2, seed=40)
    omega, v = np.ones(3), np.full(3, 0.3)
    admm_tolerance(eps_inner=1e-8, max_iters=20000)
    first = solve_subproblem(params, omega, v, 1.0)
    Z, U, rho = first.state
    assert np.array_equal(Z, first.mu_raw) and rho > 0.0
    second = solve_subproblem(params, omega, v, 1.0, state=first.state)
    assert second.n_iters <= first.n_iters
    assert np.allclose(second.mu_raw, first.mu_raw, atol=1e-6)


@pytest.mark.parametrize("objective", ["sumse", "pf"])
def test_outer_loop_on_real_sample(desk_sample, desk_cfg, assert_budget,
                                   solve_with_budget_excess, objective):
    params = desk_sample("rzf").params
    result, excess = solve_with_budget_excess(
        params, desk_cfg.p_max_dl, SolverConfig(objective=objective))
    assert result.converged
    diffs = np.diff(result.trace)
    assert diffs.min() >= -10.0 * wmmse._EPS_INNER
    assert result.trace.shape == (result.n_outer + 1,)
    assert excess <= 1e-9
    assert_budget(result.alloc.mu, desk_cfg.p_max_dl)
    assert result.utility == result.trace[-1]
    # the end-of-run sign flip leaves the trace untouched; it perturbs the
    # returned allocation through cross terms of the flipped entries, which
    # trade away some utility (antiphase transmission acted as interference
    # cancellation) in exchange for nonnegative coefficients
    u_out = utility(params, result.alloc.mu, objective)
    if result.final_flips == 0:
        assert u_out == result.utility
    else:
        assert np.isfinite(u_out)
        assert u_out == pytest.approx(result.utility, rel=0.25)
    assert np.all(result.alloc.mu >= 0.0)
    # the optimizer must beat its own equal-power starting point
    assert result.trace[-1] > result.trace[0]


def test_pf_lifts_the_weakest_ue(desk_sample, desk_cfg):
    params = desk_sample("rzf").params
    se = {}
    for objective in ("sumse", "pf"):
        res = wmmse_solve(params, desk_cfg.p_max_dl,
                          SolverConfig(objective=objective))
        sinr = effective_sinr(params, res.alloc.mu)
        se[objective] = params.prelog * np.log2(1.0 + sinr)
    assert se["pf"].min() > se["sumse"].min()
    assert se["sumse"].sum() >= se["pf"].sum()


def test_outer_loop_with_projected_gradient(desk_sample, desk_cfg,
                                           projected_gradient,
                                           subproblem_matrices, monkeypatch):
    def gradient_subproblem(params, omega, v, p_max, mu0, state):
        C, q = subproblem_matrices(params, omega, v)
        return subproblem_result(*projected_gradient(
            C, q, p_max, eps_inner=1e-8, x0=mu0))

    monkeypatch.setattr(wmmse, "solve_subproblem", gradient_subproblem)
    params = desk_sample("rzf").params
    result = wmmse_solve(params, desk_cfg.p_max_dl)
    assert result.converged
    assert np.diff(result.trace).min() >= -1e-6


def test_pf_requires_positive_initial_sinr():
    params = SEParameters(a=np.array([[1.0], [0.0]]),
                          B=np.stack([np.ones((2, 1, 1)),
                                      np.ones((2, 1, 1))]),
                          sigma2=1.0, prelog=1.0, n_real=1000)
    with pytest.raises(ValueError, match="positive"):
        wmmse_solve(params, 1.0, SolverConfig(objective="pf"))


def test_exhausted_outer_budget_is_reported(desk_sample, desk_cfg,
                                            monkeypatch):
    params = desk_sample("rzf").params
    monkeypatch.setattr(wmmse, "_MAX_OUTER", 1)
    monkeypatch.setattr(wmmse, "_EPS_OUTER", 1e-30)
    result = wmmse_solve(params, desk_cfg.p_max_dl)
    assert not result.converged
    assert result.n_outer == 1
    assert result.alloc.mu.shape == (desk_cfg.K, desk_cfg.L)


def test_solver_is_deterministic(desk_sample, desk_cfg):
    params = desk_sample("rzf").params
    a = wmmse_solve(params, desk_cfg.p_max_dl)
    b = wmmse_solve(params, desk_cfg.p_max_dl)
    assert np.array_equal(a.alloc.mu, b.alloc.mu)
    assert np.array_equal(a.trace, b.trace)


@pytest.mark.parametrize("objective", ["sumse", "pf"])
@pytest.mark.parametrize("precoder", ["mr", "rzf"])
def test_beta_keyword_leaves_the_solve_unchanged(desk_sample, desk_cfg,
                                                 precoder, objective):
    # the benchmark's allocate workload passes beta, evaluate does not: both
    # must run the same solve, from equal power
    sample = desk_sample(precoder)
    cfg = SolverConfig(objective=objective)
    P = desk_cfg.p_max_dl
    bench = wmmse_solve(sample.params, P, cfg, beta=sample.beta)
    plain = wmmse_solve(sample.params, P, cfg)
    assert np.array_equal(bench.trace, plain.trace)
    assert np.array_equal(bench.alloc.mu, plain.alloc.mu)
    assert ([getattr(bench, c) for c in COUNTERS]
            == [getattr(plain, c) for c in COUNTERS])
    start = equal_power(desk_cfg.K, desk_cfg.L, P).mu
    assert plain.trace[0] == utility(sample.params, start, objective)


def test_solver_config_validation():
    with pytest.raises(ValueError, match="unknown objective 'maxmin'"):
        SolverConfig(objective="maxmin")


def test_admm_iters_counts_every_subproblem(desk_sample, desk_cfg,
                                            monkeypatch):
    calls = []

    def recording(*args, **kwargs):
        result = solve_subproblem(*args, **kwargs)
        calls.append(result.n_iters)
        return result

    monkeypatch.setattr(wmmse, "solve_subproblem", recording)
    result = wmmse_solve(desk_sample("rzf").params, desk_cfg.p_max_dl)
    assert len(calls) == result.n_outer
    assert result.admm_iters == sum(calls) > result.n_outer


def identity_layout(params):
    """The same estimate with every UE its own direction (J = K)."""
    return dataclasses.replace(params, B=per_ue_B(params),
                               unit_of=np.arange(params.K))


def large_mr_params(large_cfg):
    """Test-namespace `large` MR drop 0 at 100 realizations."""
    return build_sample(large_cfg, place_aps(large_cfg, large_cfg.seed),
                        large_cfg.seed, TEST_NAMESPACE, 0, "mr", 100).params


@pytest.mark.parametrize("objective", ["sumse", "pf"])
def test_direction_matrices_give_the_per_ue_bytes(desk_sample, desk_cfg,
                                                  large_cfg, objective):
    # one subproblem matrix per direction, gathered per UE, must solve as
    # one per UE does; the SINR terms sum a direction's outer products
    # first, so the floats agree up to roundoff and every counter exactly
    cfg = SolverConfig(objective=objective)
    drops = [(desk_sample(precoder, index).params, desk_cfg.p_max_dl)
             for precoder in ("mr", "rzf") for index in (0, 1)]
    drops += [(large_mr_params(large_cfg), large_cfg.p_max_dl)]
    for params, p_max in drops:
        J = params.B.shape[1]
        assert J < params.K
        plain = wmmse_solve(identity_layout(params), p_max, cfg)
        # relabelled directions, B's blocks moved with their labels
        relabelled = dataclasses.replace(params,
                                         unit_of=(params.unit_of + 1) % J,
                                         B=np.roll(params.B, 1, axis=1))
        for layout in (params, relabelled):
            fast = wmmse_solve(layout, p_max, cfg)
            scale = np.abs(plain.alloc.mu).max()
            assert np.allclose(fast.alloc.mu, plain.alloc.mu, rtol=0.0,
                               atol=1e-12 * scale)
            assert len(fast.trace) == len(plain.trace)
            assert all(norm_close(f, f_ref, 1e-12)
                       for f, f_ref in zip(fast.trace, plain.trace))
            assert ([getattr(fast, c) for c in COUNTERS]
                    == [getattr(plain, c) for c in COUNTERS])


def test_inverses_and_psd_checks_run_once_per_direction(
        desk_sample, desk_cfg, large_cfg, monkeypatch):
    batches = []

    def recording(fn):
        def wrapped(stack, *args, **kwargs):
            batches.append(len(stack))
            return fn(stack, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(wmmse.np.linalg, "inv",
                        recording(wmmse.np.linalg.inv))
    monkeypatch.setattr(wmmse.np.linalg, "cholesky",
                        recording(wmmse.np.linalg.cholesky))
    desk = desk_sample("mr").params
    for params, p_max, size in [
            (large_mr_params(large_cfg), large_cfg.p_max_dl, 10),
            (desk, desk_cfg.p_max_dl, 3),
            (identity_layout(desk), desk_cfg.p_max_dl, desk_cfg.K)]:
        batches.clear()
        result = wmmse_solve(params, p_max)
        # one Cholesky per outer step, one inverse per subproblem at least
        assert len(batches) >= 2 * result.n_outer
        assert set(batches) == {size}


def test_predicted_start_extrapolates_within_budget():
    rng = np.random.default_rng(64)
    p_max = 0.5
    Z1, Z2 = (project_per_ap(0.25 * rng.standard_normal((5, 3)), p_max)
              for _ in range(2))
    U1, U2 = rng.standard_normal((2, 5, 3))
    # residual balancing moved rho between the two solves
    rho1, rho2 = 0.5, 2.0
    Z0, U0, rho0 = wmmse._predicted_start((Z2, U2, rho2), (Z1, U1, rho1),
                                          p_max)
    assert rho0 == rho2
    line = 2.0 * Z2 - Z1
    outside = np.sum(line ** 2, axis=0) > p_max
    assert outside.any() and not outside.all()
    assert np.all(np.sum(Z0 ** 2, axis=0) <= p_max * (1.0 + 1e-12))
    assert np.array_equal(Z0[:, ~outside], line[:, ~outside])
    # the unscaled dual rho U moves on the line through its last two values
    assert np.allclose(rho0 * U0, 2.0 * rho2 * U2 - rho1 * U1,
                       rtol=1e-12, atol=1e-12)
    # with no state before the last, the last is passed on as it is
    last = (Z2, U2, rho2)
    assert wmmse._predicted_start(last, None, p_max) is last
    assert wmmse._predicted_start(None, None, p_max) is None


def solves_with_and_without_prediction(monkeypatch, params, p_max, cfg):
    """(predicted, plain): wmmse_solve with its predicted ADMM starts, and
    with each subproblem started from the previous one's end state."""
    predicted = wmmse_solve(params, p_max, cfg)
    with monkeypatch.context() as patch:
        patch.setattr(wmmse, "_predicted_start",
                      lambda state, previous, p_max: state)
        plain = wmmse_solve(params, p_max, cfg)
    return predicted, plain


def assert_same_endpoint(predicted, plain):
    assert predicted.converged == plain.converged
    assert predicted.subproblem_exhausted == plain.subproblem_exhausted == 0
    # normalized: a PF utility can sit near zero
    assert norm_close(predicted.utility, plain.utility, 1e-5)


@pytest.mark.parametrize("objective", ["sumse", "pf"])
@pytest.mark.parametrize("precoder", ["mr", "rzf"])
def test_predicted_starts_keep_the_desk_endpoint(desk_sample, desk_cfg,
                                                 monkeypatch, precoder,
                                                 objective):
    for index in (0, 1):
        assert_same_endpoint(*solves_with_and_without_prediction(
            monkeypatch, desk_sample(precoder, index).params,
            desk_cfg.p_max_dl, SolverConfig(objective=objective)))


@pytest.mark.parametrize("objective", ["sumse", "pf"])
def test_predicted_starts_save_admm_iterations_at_large(large_cfg,
                                                        monkeypatch,
                                                        objective):
    predicted, plain = solves_with_and_without_prediction(
        monkeypatch, large_mr_params(large_cfg), large_cfg.p_max_dl,
        SolverConfig(objective=objective))
    assert_same_endpoint(predicted, plain)
    assert predicted.admm_iters < plain.admm_iters


# (n_outer, admm_iters) of desk drop 0 with every subproblem started from
# the prediction of the two before; other starts give other counts
WARM_START_COUNTS = {("mr", "sumse"): (13, 212), ("mr", "pf"): (11, 121),
                     ("rzf", "sumse"): (5, 112), ("rzf", "pf"): (9, 124)}


@pytest.mark.parametrize("objective", ["sumse", "pf"])
@pytest.mark.parametrize("precoder", ["mr", "rzf"])
def test_outer_loop_passes_admm_state_on(desk_sample, desk_cfg, monkeypatch,
                                         precoder, objective):
    calls = []

    def recording(*args, **kwargs):
        result = solve_subproblem(*args, **kwargs)
        calls.append((kwargs.get("state"), result))
        return result

    monkeypatch.setattr(wmmse, "solve_subproblem", recording)
    p_max = desk_cfg.p_max_dl
    result = wmmse_solve(desk_sample(precoder).params, p_max,
                         SolverConfig(objective=objective))
    assert len(calls) > 2
    assert calls[0][0] is None
    assert calls[1][0] is calls[0][1].state
    for (_, before), (_, last), (state, _) in zip(calls, calls[1:],
                                                   calls[2:]):
        (Z1, U1, rho1), (Z2, U2, rho2) = before.state, last.state
        Z0, U0, rho0 = state
        assert np.array_equal(Z0, project_per_ap(2.0 * Z2 - Z1, p_max))
        assert np.array_equal(U0, 2.0 * U2 - (rho1 / rho2) * U1)
        assert rho0 == rho2
    assert (result.n_outer, result.admm_iters) \
        == WARM_START_COUNTS[precoder, objective]


def rho_changes_in_admm():
    """(values, tracer): installed with sys.settrace, the tracer appends
    to `values` each new value that the local `rho` of a `wmmse._admm`
    frame takes, read line by line."""
    changes, last = [], {}

    def local(frame, event, arg):
        rho = frame.f_locals.get("rho")
        if rho is not None:
            if last.setdefault(id(frame), rho) != rho:
                changes.append(rho)
            last[id(frame)] = rho
        if event == "return":
            last.pop(id(frame), None)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code is wmmse._admm.__code__ else None

    return changes, tracer


@pytest.mark.parametrize("precoder", ["mr", "rzf"])
def test_one_inverse_per_subproblem_and_rho_change(desk_sample, desk_cfg,
                                                    monkeypatch, precoder):
    # residual balancing seldom moves rho inside a solve, so an off-scale
    # initial penalty on one more subproblem makes it fire
    params = desk_sample(precoder).params
    mu0 = np.full((desk_cfg.K, desk_cfg.L), np.sqrt(desk_cfg.p_max_dl
                                                   / desk_cfg.K))
    aux = update_auxiliaries(params, mu0, "sumse")
    eigh, inv = np.linalg.eigh, np.linalg.inv
    calls = {"eigh": 0, "inv": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", eigh))
    monkeypatch.setattr(np.linalg, "inv", counting("inv", inv))
    changes, tracer = rho_changes_in_admm()
    old_trace = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = wmmse_solve(params, desk_cfg.p_max_dl)
        off_scale = solve_subproblem(
            params, aux.omega, aux.v, desk_cfg.p_max_dl,
            state=off_scale_state(np.zeros_like(mu0), desk_cfg.p_max_dl))
    finally:
        sys.settrace(old_trace)
    assert result.n_outer > 1 and result.subproblem_exhausted == 0
    assert off_scale.converged
    assert changes, "residual balancing never moved rho"
    assert calls["eigh"] == 0
    assert calls["inv"] == result.n_outer + 1 + len(changes)


def eager_admm(q, C, p_max, x0, state):
    """`wmmse._admm` with every stopping norm taken on every iteration."""
    if state is None:
        state = (project_per_ap(x0, p_max), np.zeros_like(x0), wmmse._RHO)
    Z, U, rho = state
    Z, U = Z[:, :, None], U[:, :, None]
    eps = wmmse._EPS_INNER
    sqrt_n = np.sqrt(q.size)
    eye = np.eye(C.shape[-1])
    converged = False
    inv_rho = None
    for it in range(1, wmmse._MAX_ADMM_ITERS + 1):
        if rho != inv_rho:
            inv = np.linalg.inv(C + rho * eye)
            inv_q = inv @ q[:, :, None]
            rho_inv = rho * inv
            inv_rho = rho
        X = inv_q + rho_inv @ (Z - U)
        Xu = wmmse._RELAX * X + (1.0 - wmmse._RELAX) * Z + U
        Z_new = project_per_ap(Xu, p_max)
        r_norm = float(np.linalg.norm(X - Z_new))
        s_norm = rho * float(np.linalg.norm(Z_new - Z))
        Z = Z_new
        U = Xu - Z_new
        eps_pri = sqrt_n * eps + eps * max(float(np.linalg.norm(X)),
                                           float(np.linalg.norm(Z)))
        eps_dual = sqrt_n * eps + eps * rho * float(np.linalg.norm(U))
        if r_norm <= eps_pri and s_norm <= eps_dual:
            converged = True
            break
        if it % 10 == 0 and max(r_norm, s_norm) > 10.0 * min(r_norm, s_norm):
            factor = 2.0 if r_norm > s_norm else 0.5
            rho *= factor
            U /= factor
    Z, U = Z[:, :, 0], U[:, :, 0]
    return Z, it, converged, (Z, U, rho)


def assert_same_admm(lazy, eager):
    assert lazy[0].tobytes() == eager[0].tobytes()
    assert lazy[1:3] == eager[1:3]
    assert lazy[3][2] == eager[3][2]


@pytest.mark.parametrize("objective", ["sumse", "pf"])
@pytest.mark.parametrize("precoder", ["mr", "rzf"])
def test_lazy_stopping_matches_eager_loop(desk_sample, desk_cfg, monkeypatch,
                                          precoder, objective):
    admm, seen = wmmse._admm, []

    def checked(q, C, unit_of, *rest):
        # the eager loop inverts every UE's C_i, expanded from C's
        # one matrix per direction
        lazy = admm(q, C, unit_of, *rest)
        assert_same_admm(lazy, eager_admm(q, C[unit_of], *rest))
        seen.append(lazy[1])
        return lazy

    monkeypatch.setattr(wmmse, "_admm", checked)
    for index in (0, 1):
        sample = desk_sample(precoder, index)
        result = wmmse_solve(sample.params, desk_cfg.p_max_dl,
                             SolverConfig(objective=objective))
        assert result.converged
    assert len(seen) > 2
    # one off-scale penalty, where residual balancing moves rho
    aux = update_auxiliaries(sample.params, result.alloc.mu, objective)
    q, C = wmmse._subproblem(sample.params, aux.omega, aux.v)
    x0 = np.zeros_like(q)
    args = (desk_cfg.p_max_dl, x0, off_scale_state(x0, desk_cfg.p_max_dl))
    lazy = admm(q, C, sample.params.unit_of, *args)
    assert_same_admm(lazy, eager_admm(q, C[sample.params.unit_of], *args))
    assert lazy[2] and lazy[3][2] != 1e-3


# Reference implementation of the outer step as first written: the SINR
# terms as 3-operand einsums, C decomposed once for its PSD clip and again
# inside ADMM, whose x-update runs through two einsums per iteration. Its
# ADMM states take and give the package's (Z, U, rho) order, so the outer
# loop starts each reference subproblem from its own prediction.

def ref_sinr_terms(params, mu):
    sig = np.einsum("kl,kl->k", params.a, mu)
    return sig, np.einsum("il,kilm,im->k", mu, per_ue_B(params), mu)


def ref_update_auxiliaries(params, mu, objective, terms=None):
    # recomputes the terms it is handed, as the outer step first did
    sig, interf = ref_sinr_terms(params, mu)
    den = interf + params.sigma2
    e_raw = 1.0 - sig ** 2 / den
    e = np.clip(e_raw, E_CLAMP, 1.0 - E_CLAMP)
    omega = 1.0 / e if objective == "sumse" else -1.0 / (e * np.log(e))
    return AuxiliaryUpdate(v=sig / den, e=e, omega=omega,
                           clamped=int(np.sum(e != e_raw)))


def ref_effective_sinr(params, mu, terms=None):
    sig, interf = ref_sinr_terms(params, mu)
    return sig ** 2 / (interf - sig ** 2 + params.sigma2)


def ref_utility(params, mu, objective, terms=None):
    with np.errstate(divide="ignore"):
        rates = np.log2(1.0 + ref_effective_sinr(params, mu))
        return float(np.sum(rates if objective == "sumse"
                            else np.log(rates)))


def ref_subproblem_matrices(params, omega, v):
    C = np.einsum("k,kilm->ilm", omega * v ** 2, per_ue_B(params))
    C = 0.5 * (C + np.transpose(C, (0, 2, 1)))
    eigval, eigvec = np.linalg.eigh(C)
    eigval = np.clip(eigval, 0.0, None)
    C = np.einsum("iab,ib,icb->iac", eigvec, eigval, eigvec)
    C = 0.5 * (C + np.transpose(C, (0, 2, 1)))
    return C, (omega * v)[:, None] * params.a


def ref_project_per_ap(X, p_max):
    norms = np.linalg.norm(X, axis=0)
    return X * np.minimum(1.0, np.sqrt(p_max) / np.maximum(norms, 1e-300))


def ref_admm(C, q, p_max, x0, state):
    K, L = q.shape
    eigval, eigvec = np.linalg.eigh(C)
    eigval = np.clip(eigval, 0.0, None)
    eigvec_t = np.ascontiguousarray(np.transpose(eigvec, (0, 2, 1)))
    if state is None:
        rho = wmmse._RHO
        Z = ref_project_per_ap(x0, p_max)
        U = np.zeros_like(Z)
    else:
        Z, U, rho = state[0].copy(), state[1].copy(), state[2]
    eps = wmmse._EPS_INNER
    sqrt_n = np.sqrt(K * L)
    converged = False
    for it in range(1, wmmse._MAX_ADMM_ITERS + 1):
        rhs = q + rho * (Z - U)
        t = np.einsum("kab,kb->ka", eigvec_t, rhs)
        t /= eigval + rho
        X = np.einsum("kab,kb->ka", eigvec, t)
        Xu = wmmse._RELAX * X + (1.0 - wmmse._RELAX) * Z + U
        Z_new = ref_project_per_ap(Xu, p_max)
        r_norm = float(np.linalg.norm(X - Z_new))
        s_norm = rho * float(np.linalg.norm(Z_new - Z))
        Z = Z_new
        U = Xu - Z_new
        eps_pri = sqrt_n * eps + eps * max(float(np.linalg.norm(X)),
                                           float(np.linalg.norm(Z)))
        eps_dual = sqrt_n * eps + eps * rho * float(np.linalg.norm(U))
        if r_norm <= eps_pri and s_norm <= eps_dual:
            converged = True
            break
        if it % 10 == 0:
            if r_norm > 10.0 * s_norm:
                rho *= 2.0
                U *= 0.5
            elif s_norm > 10.0 * r_norm:
                rho *= 0.5
                U *= 2.0
    return Z, it, converged, (Z, U, rho)


def ref_solve_subproblem(params, omega, v, p_max, mu0, state):
    C, q = ref_subproblem_matrices(params, omega, v)
    return subproblem_result(*ref_admm(C, q, p_max, mu0, state))


@pytest.mark.parametrize("objective", ["sumse", "pf"])
@pytest.mark.parametrize("precoder", ["mr", "rzf"])
def test_outer_loop_matches_reference_step(desk_sample, desk_cfg,
                                           monkeypatch, precoder, objective):
    cfg = SolverConfig(objective=objective)
    for index in (0, 1):
        sample = desk_sample(precoder, index)
        fast = wmmse_solve(sample.params, desk_cfg.p_max_dl, cfg)
        with monkeypatch.context() as patch:
            patch.setattr(wmmse, "update_auxiliaries", ref_update_auxiliaries)
            patch.setattr(wmmse, "solve_subproblem", ref_solve_subproblem)
            patch.setattr(wmmse, "utility", ref_utility)
            patch.setattr(wmmse, "effective_sinr", ref_effective_sinr)
            ref = wmmse_solve(sample.params, desk_cfg.p_max_dl, cfg)
        assert fast.n_outer == ref.n_outer > 1
        assert fast.sign_flips == ref.sign_flips
        assert np.allclose(fast.alloc.mu, ref.alloc.mu, rtol=1e-10,
                           atol=1e-10 * np.abs(ref.alloc.mu).max())
        assert np.allclose(fast.trace, ref.trace, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("objective", ["sumse", "pf"])
def test_outer_loop_takes_sinr_terms_once_per_iterate(desk_sample, desk_cfg,
                                                      monkeypatch, objective):
    # the utility that ends an outer step and the auxiliary update that
    # starts the next share one evaluation; at the init, PF's positivity
    # check shares it too
    calls = []

    def counting(params, mu):
        calls.append(mu)
        return se.sinr_terms(params, mu)
    monkeypatch.setattr(wmmse, "sinr_terms", counting)
    sample = desk_sample("mr")
    result = wmmse_solve(sample.params, desk_cfg.p_max_dl,
                         SolverConfig(objective=objective))
    assert result.n_outer > 1
    assert len(calls) == result.n_outer + 1
