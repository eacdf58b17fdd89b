"""Acceptance suite: eleven numbered criteria, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
each test independently rebuilds what it needs and asserts both the stated
tolerance and its runtime budget. Criterion 4 carries a from-scratch
Monte-Carlo estimator of the hardening bound, written with plain loops and
its own random stream, so the package's vectorized estimator is checked
against an independent derivation end to end.
"""

import time

import numpy as np
import pytest

from cfpower import wmmse
from cfpower.allocator import predict_allocation, stack_models
from cfpower.config import NetworkConfig
from cfpower.heuristics import (equal_power, fractional_coefficients,
                                heuristic_allocation, side_info_ratios)
from cfpower.mlp import (DenseLayer, MlpModel, TrainConfig, build_model,
                         loss_and_grads, mse_loss, train, validation_split)
from cfpower.network import (build_statistics, drop_scenario, pathloss_beta,
                             place_aps)
from cfpower.pilots import assign_pilots
from cfpower.pipeline import (TEST_NAMESPACE, _bench_models, build_sample,
                              cmd_bench, cmd_evaluate, cmd_generate,
                              cmd_train)
from cfpower.precoding import compute_precoders
from cfpower.scaling import ScalerParams
from cfpower.se import BUDGET_SLACK, PowerAllocation, compute_se
from cfpower.wmmse import SolverConfig, solve_subproblem, wmmse_solve

pytestmark = pytest.mark.acceptance


def verdict(n, ok, budget_s, elapsed, detail):
    status = "PASS" if ok and elapsed < budget_s else "FAIL"
    print(f"[criterion {n:02d}] {status}  {detail}  "
          f"({elapsed:.1f} s of {budget_s:.0f} s budget)")
    assert ok, f"criterion {n}: {detail}"
    assert elapsed < budget_s, f"criterion {n} overran: {elapsed:.1f} s"


def norm_close(f, f_ref, tol):
    return abs(f - f_ref) <= tol * max(1.0, abs(f_ref))


def test_criterion_01_architecture_fidelity():
    t0 = time.perf_counter()
    counts = {
        "ddnn": build_model("ddnn", K=20).n_parameters(),
        "ddnn-si": build_model("ddnn-si", K=20).n_parameters(),
        "cdnn": build_model("cdnn", K=20, cluster_size=3,
                            member_aps=(0, 1, 2)).n_parameters(),
    }
    expected = {"ddnn": 5_557, "ddnn-si": 21_973, "cdnn": 246_207}
    ok = counts == expected
    verdict(1, ok, 1.0, time.perf_counter() - t0,
            f"parameter counts {counts}")


def test_criterion_02_optimizer_monotonicity(desk_cfg,
                                            solve_with_budget_excess):
    t0 = time.perf_counter()
    aps = place_aps(desk_cfg, desk_cfg.seed)
    slack = 10.0 * wmmse._EPS_INNER
    n_runs, worst_dip, worst_violation = 0, 0.0, 0.0
    for precoder in ("mr", "rzf"):
        for index in range(50):
            sample = build_sample(desk_cfg, aps, desk_cfg.seed,
                                  TEST_NAMESPACE, index, precoder,
                                  n_real=300)
            for objective in ("sumse", "pf"):
                res, excess = solve_with_budget_excess(
                    sample.params, desk_cfg.p_max_dl,
                    SolverConfig(objective=objective))
                n_runs += 1
                dips = np.diff(res.trace)
                worst_dip = max(worst_dip, float(-dips.min()))
                worst_violation = max(worst_violation, excess)
    ok = n_runs == 200 and worst_dip <= slack and worst_violation <= 1e-12
    verdict(2, ok, 300.0, time.perf_counter() - t0,
            f"{n_runs} runs, worst trace dip {worst_dip:.2e} "
            f"(slack {slack:.0e}), worst budget violation "
            f"{worst_violation:.2e}")


def test_criterion_03_subproblem_oracles(synthetic_params,
                                         projected_gradient,
                                         subproblem_matrices,
                                         subproblem_objective, monkeypatch):
    t0 = time.perf_counter()
    monkeypatch.setattr(wmmse, "_EPS_INNER", 1e-9)
    monkeypatch.setattr(wmmse, "_MAX_ADMM_ITERS", 100000)
    worst_pg = 0.0
    for seed in range(50):
        params = synthetic_params(K=3, L=2, seed=200 + seed, sigma2=0.3)
        rng = np.random.default_rng(seed)
        omega = rng.uniform(0.5, 3.0, size=3)
        v = rng.uniform(0.1, 1.0, size=3)
        admm = solve_subproblem(params, omega, v, 1.0)
        C, q = subproblem_matrices(params, omega, v)
        x, _, _ = projected_gradient(C, q, 1.0, eps_inner=1e-11)
        f_pg = subproblem_objective(C, q, x)
        f_admm = subproblem_objective(C, q, admm.mu_raw)
        gap = abs(f_admm - f_pg) / max(1.0, abs(f_pg))
        worst_pg = max(worst_pg, gap)

    worst_grid = 0.0
    g = np.linspace(-1.0, 1.0, 2001)
    X, Y = np.meshgrid(g, g, indexing="ij")
    disk = X ** 2 + Y ** 2 <= 1.0
    for seed in range(5):
        params = synthetic_params(K=2, L=1, seed=300 + seed, sigma2=0.4)
        rng = np.random.default_rng(seed)
        omega = rng.uniform(0.5, 2.0, size=2)
        v = rng.uniform(0.2, 0.8, size=2)
        C, q = subproblem_matrices(params, omega, v)
        admm = solve_subproblem(params, omega, v, 1.0)
        f = C[0, 0, 0] * X ** 2 + C[1, 0, 0] * Y ** 2 \
            - 2.0 * q[0, 0] * X - 2.0 * q[1, 0] * Y
        f_grid = float(np.where(disk, f, np.inf).min())
        f_admm = subproblem_objective(C, q, admm.mu_raw)
        assert f_admm <= f_grid + 1e-9
        gap = abs(f_admm - f_grid) / max(1.0, abs(f_grid))
        worst_grid = max(worst_grid, gap)

    ok = worst_pg <= 1e-6 and worst_grid <= 1e-3
    verdict(3, ok, 120.0, time.perf_counter() - t0,
            f"ADMM vs gradient gap {worst_pg:.2e} (<= 1e-6), "
            f"vs grid {worst_grid:.2e} (<= 1e-3)")


def tiny_contaminated_config():
    # two UEs forced onto one pilot so estimation faces contamination
    return NetworkConfig(L=2, K=2, N=2, area_m=500.0, tau_c=200, tau_p=1,
                         p_ul=0.1, p_max_dl=1.0,
                         noise_power=3.9810717055349694e-13,
                         pathloss_offset_db=-30.5, pathloss_exponent=36.7,
                         v_exponent=0.6,
                         correlation_model="local-scattering",
                         angular_spread_deg=15.0,
                         ap_placement="uniform-random", seed=11)


def scratch_bound_estimator(cfg, R, mu, n_mc, seed):
    """Hardening-bound SE from first principles, plain loops throughout.

    Re-derives the whole chain: correlated Rayleigh draws, despread pilot
    observations with every UE on one shared pilot, per-AP MMSE filtering,
    per-AP normalized MR precoders, effective-gain moments, and the bound.
    """
    K, L, N = R.shape[:3]
    p, tp, s2 = cfg.p_ul, cfg.tau_p, cfg.noise_power
    amp = np.sqrt(tp * p)
    # square roots and MMSE filters are fixed per (k, l); precompute
    roots = np.empty((K, L, N, N), dtype=complex)
    filters = np.empty((K, L, N, N), dtype=complex)
    for l in range(L):
        psi = s2 * np.eye(N, dtype=complex)
        for i in range(K):
            psi = psi + tp * p * R[i, l]
        psi_inv = np.linalg.inv(psi)
        for k in range(K):
            val, vec = np.linalg.eigh(R[k, l])
            roots[k, l] = (vec * np.sqrt(np.clip(val, 0.0, None))) \
                @ vec.conj().T
            filters[k, l] = amp * R[k, l] @ psi_inv
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((n_mc, K, L, N))
         + 1j * rng.standard_normal((n_mc, K, L, N))) / np.sqrt(2.0)
    pn = (rng.standard_normal((n_mc, L, N))
          + 1j * rng.standard_normal((n_mc, L, N))) * np.sqrt(s2 / 2.0)
    s_sum = np.zeros((K, L), dtype=complex)
    b_sum = np.zeros((K, K, L, L), dtype=complex)
    for n in range(n_mc):
        h = np.empty((K, L, N), dtype=complex)
        w = np.empty((K, L, N), dtype=complex)
        for l in range(L):
            for k in range(K):
                h[k, l] = roots[k, l] @ z[n, k, l]
            y = pn[n, l].copy()
            for i in range(K):
                y += amp * h[i, l]
            for k in range(K):
                est = filters[k, l] @ y
                w[k, l] = est / np.linalg.norm(est)
        g = np.empty((K, K, L), dtype=complex)
        for k in range(K):
            for i in range(K):
                for l in range(L):
                    g[k, i, l] = np.vdot(h[k, l], w[i, l])
            s_sum[k] += g[k, k]
        for k in range(K):
            for i in range(K):
                b_sum[k, i] += np.outer(g[k, i], g[k, i].conj())
    a = np.abs(s_sum) / n_mc
    B = (b_sum / n_mc).real
    se = np.empty(K)
    for k in range(K):
        sig = float(np.sum(a[k] * mu[k]))
        interf = 0.0
        for i in range(K):
            interf += float(mu[i] @ B[k, i] @ mu[i])
        sinr = sig ** 2 / (interf - sig ** 2 + s2)
        se[k] = cfg.prelog * np.log2(1.0 + sinr)
    return se


def test_criterion_04_bound_consistency(tiled):
    t0 = time.perf_counter()
    cfg = tiny_contaminated_config()
    aps = place_aps(cfg, cfg.seed)
    scen = drop_scenario(cfg, 501, aps)
    stats = build_statistics(cfg, scen)
    pil = assign_pilots(stats.beta, cfg.tau_p)
    n_real = 100_000
    batch = tiled.front_end(stats, pil, cfg, n_real, 502, 503)
    w = compute_precoders(batch, "mr", cfg.p_ul, cfg.noise_power)
    params = tiled.se_parameters(batch, w, cfg)
    alloc = equal_power(cfg.K, cfg.L, cfg.p_max_dl)
    se_pkg = compute_se(params, alloc)
    se_ref = scratch_bound_estimator(cfg, stats.R, alloc.mu, n_real,
                                     seed=504)
    rel = np.abs(se_pkg - se_ref) / se_ref
    ok = bool(np.all(rel <= 0.03))
    verdict(4, ok, 120.0, time.perf_counter() - t0,
            f"per-UE SE {np.round(se_pkg, 4)} vs scratch "
            f"{np.round(se_ref, 4)}, max rel diff {rel.max():.4f} "
            "(<= 0.03)")


def test_criterion_05_estimator_statistics(tiled):
    t0 = time.perf_counter()
    cfg = tiny_contaminated_config()
    aps = place_aps(cfg, cfg.seed)
    scen = drop_scenario(cfg, 601, aps)
    stats = build_statistics(cfg, scen)
    pil = assign_pilots(stats.beta, cfg.tau_p)
    n_real = 100_000
    batch = tiled.front_end(stats, pil, cfg, n_real, 602, 603)
    h_hat = tiled.estimates(batch)
    amp2 = cfg.tau_p * cfg.p_ul
    worst = 0.0
    for k in range(cfg.K):
        for l in range(cfg.L):
            psi = cfg.noise_power * np.eye(cfg.N, dtype=complex)
            for i in range(cfg.K):
                psi = psi + amp2 * stats.R[i, l]
            expected = amp2 * stats.R[k, l] @ np.linalg.inv(psi) \
                @ stats.R[k, l]
            hh = h_hat[:, k, l, :]
            sample_cov = hh.T @ hh.conj() / n_real
            err = np.linalg.norm(sample_cov - expected) \
                / np.linalg.norm(expected)
            worst = max(worst, float(err))
    ok = worst <= 0.05
    verdict(5, ok, 60.0, time.perf_counter() - t0,
            f"worst Frobenius-relative covariance error {worst:.4f} "
            "(<= 0.05)")


def test_criterion_06_heuristic_identities():
    t0 = time.perf_counter()
    worst_cols, worst_rows = 0.0, 0.0
    for seed in range(20):
        rng = np.random.default_rng(700 + seed)
        K = int(rng.integers(2, 9))
        L = int(rng.integers(1, 7))
        p_max = float(rng.uniform(0.2, 5.0))
        v = float(rng.uniform(0.3, 0.9))
        beta = 10.0 ** rng.uniform(-14.0, -7.0, size=(K, L))
        root = np.sqrt(p_max)
        rho1 = fractional_coefficients(beta, v, p_max)
        worst_cols = max(worst_cols,
                         float(np.abs(rho1.sum(axis=0) - root).max()))
        rho2 = side_info_ratios(beta, v, p_max)
        worst_rows = max(worst_rows,
                         float(np.abs(rho2.sum(axis=1) - root).max()))
    cfg = NetworkConfig()
    exact = (pathloss_beta(1.0, cfg.pathloss_offset_db, cfg.pathloss_exponent)
             == 10.0 ** (-30.5 / 10.0))
    ok = worst_cols <= 1e-12 and worst_rows <= 1e-12 and exact
    verdict(6, ok, 60.0, time.perf_counter() - t0,
            f"column-sum error {worst_cols:.2e}, row-sum error "
            f"{worst_rows:.2e} (<= 1e-12), 1 m pathloss exact: {exact}")


def test_criterion_07_ordering_reproduction(tmp_path, desk_cfg):
    t0 = time.perf_counter()
    ds = tmp_path / "train.cfds"
    cmd_generate(desk_cfg, 2000, "sumse", "rzf", ds, n_real=1000)
    models_dir = tmp_path / "models"
    cmd_train(ds, "cdnn", models_dir, TrainConfig(), cluster_size=4)
    report = cmd_evaluate(
        desk_cfg, ["wmmse-sumse", "cdnn", "heuristic", "equal"], 200,
        "rzf", n_real=1000, models_dir=models_dir)
    means = {s: report.mean_total_se(s) for s in report.strategies}
    ordered = (means["wmmse-sumse"] >= means["cdnn"]
               >= means["heuristic"] >= means["equal"])
    ratio = means["cdnn"] / means["wmmse-sumse"]
    ok = ordered and ratio >= 0.75
    verdict(7, ok, 1800.0, time.perf_counter() - t0,
            "mean total SE " +
            " >= ".join(f"{s}:{means[s]:.3f}" for s in report.strategies) +
            f"; cdnn/wmmse {ratio:.3f} (>= 0.75)")


def test_criterion_08_fairness_direction(desk_cfg):
    t0 = time.perf_counter()
    report = cmd_evaluate(desk_cfg, ["wmmse-sumse", "wmmse-pf"], 200, "mr",
                          n_real=1000)
    p10_sum = report.percentile_se("wmmse-sumse", 10.0)
    p10_pf = report.percentile_se("wmmse-pf", 10.0)
    ok = p10_pf > p10_sum
    verdict(8, ok, 600.0, time.perf_counter() - t0,
            f"10th-percentile per-UE SE: pf {p10_pf:.4f} > "
            f"sum-SE {p10_sum:.4f}")


def test_criterion_09_speed_ratio(large_cfg):
    """Learned inference is >= 5x faster than WMMSE and costs what its
    architecture implies.

    The speed clause is wall-clock against WMMSE. Between the learned
    variants the order is checked on multiply-accumulates per allocation,
    not on wall-clock time: at this size Python call overhead per layer
    (64 forward layers for ddnn, 80 for ddnn-si, 20 for cdnn) competes with
    BLAS arithmetic, so their measured order depends on the machine and
    flips from run to run. The measured means are printed, not asserted.
    """
    t0 = time.perf_counter()
    variants = ("ddnn", "ddnn-si", "cdnn")
    columns = ("sumse-mr", "sumse-rzf", "pf-mr", "pf-rzf")
    best = {s: {c: np.inf for c in columns}
            for s in ("wmmse",) + variants}
    for _ in range(3):
        res = cmd_bench(large_cfg, ["wmmse"] + list(variants),
                        n_repeats=5, n_real=300, cluster_size=4)
        for s, row in res.items():
            for c in columns:
                best[s][c] = min(best[s][c], row[c])
    ratios = {v: min(best["wmmse"][c] / best[v][c] for c in columns)
              for v in variants}
    mean_t = {v: np.mean([best[v][c] for c in columns]) for v in variants}
    fast_enough = all(r >= 5.0 for r in ratios.values())
    # the groups cmd_bench times: one single-row forward pass per model
    groups = {v: _bench_models(large_cfg, v, 4, None, large_cfg.seed)
              for v in variants}
    macs = {v: sum(layer.W.size for m in groups[v] for layer in m.layers)
            for v in variants}
    expected_macs = {"ddnn": 86_528, "ddnn-si": 346_624, "cdnn": 1_001_472}
    cost_order = macs["ddnn"] < macs["ddnn-si"] < macs["cdnn"]
    ok = fast_enough and macs == expected_macs and cost_order
    verdict(9, ok, 300.0, time.perf_counter() - t0,
            "worst wmmse/learned speedups " +
            ", ".join(f"{v}:{ratios[v]:.0f}x" for v in variants) +
            " (>= 5x); MACs per allocation " +
            ", ".join(f"{v}:{macs[v]:,} ({len(groups[v])} nets)"
                      for v in variants) +
            "; learned mean ms " +
            ", ".join(f"{v}:{1e3 * mean_t[v]:.2f}" for v in variants))


def test_criterion_10_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    layers = [DenseLayer(W=rng.normal(size=(2, 1)), b=rng.normal(size=2),
                         activation="elu"),
              DenseLayer(W=rng.normal(size=(2, 2)), b=rng.normal(size=2),
                         activation="tanh")]
    model = MlpModel(kind="ddnn", unit_id=0, member_aps=(0,), layers=layers)
    assert model.n_parameters() == 10
    X = rng.normal(size=(8, 1))
    Y = rng.normal(size=(8, 2))
    _, grads = loss_and_grads(model, X, Y)
    h = 1e-6
    worst = 0.0
    for li, layer in enumerate(model.layers):
        for arr, g in ((layer.W, grads[li][0]), (layer.b, grads[li][1])):
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + h
                up = mse_loss(model, X, Y)
                arr[idx] = orig - h
                dn = mse_loss(model, X, Y)
                arr[idx] = orig
                fd = (up - dn) / (2.0 * h)
                worst = max(worst,
                            abs(g[idx] - fd) / max(abs(fd), 1e-8))

    lin_rng = np.random.default_rng(7)
    K = 4
    M = lin_rng.uniform(0.05, 0.3, size=(K + 1, K))
    X_lin = lin_rng.uniform(0.0, 1.0, size=(10_000, K))
    Y_lin = X_lin @ M.T
    net = build_model("ddnn", K, seed=3)
    train_cfg = TrainConfig()
    rows, held = validation_split(len(X_lin), train_cfg.validation_fraction,
                                  train_cfg.seed)
    result = train(net, X_lin[rows], Y_lin[rows], train_cfg,
                   val=(X_lin[held], Y_lin[held]))
    val_mse = float(result.val_loss[-1])
    ok = worst <= 1e-4 and val_mse < 1e-4
    verdict(10, ok, 120.0, time.perf_counter() - t0,
            f"max gradient rel error {worst:.2e} (<= 1e-4), "
            f"linear-map val MSE {val_mse:.2e} (< 1e-4)")


def test_criterion_11_universal_feasibility(desk_cfg):
    t0 = time.perf_counter()
    assert BUDGET_SLACK == 1e-9
    aps = place_aps(desk_cfg, desk_cfg.seed)
    P = desk_cfg.p_max_dl
    worst = 0.0
    n_allocs = 0

    def audit(alloc):
        nonlocal worst, n_allocs
        per_ap = np.sum(alloc.mu ** 2, axis=0)
        worst = max(worst, float((per_ap.max() - P) / P))
        n_allocs += 1

    models = {}
    for kind, n_units in (("ddnn", desk_cfg.L), ("cdnn", 1)):
        group = []
        for unit in range(n_units):
            members = (unit,) if kind == "ddnn" else tuple(range(desk_cfg.L))
            m = build_model(kind, desk_cfg.K, unit_id=unit,
                            member_aps=members, cluster_size=len(members),
                            seed=(900, unit))
            m.scaler = ScalerParams(median=np.zeros(m.n_inputs),
                                    iqr=np.ones(m.n_inputs))
            group.append(m)
        models[kind] = stack_models(group)

    for index in range(10):
        sample = build_sample(desk_cfg, aps, desk_cfg.seed, TEST_NAMESPACE,
                              index, "rzf", n_real=300)
        for objective in ("sumse", "pf"):
            res = wmmse_solve(sample.params, P,
                              SolverConfig(objective=objective))
            audit(res.alloc)
        audit(heuristic_allocation(sample.beta, desk_cfg.v_exponent, P))
        audit(equal_power(desk_cfg.K, desk_cfg.L, P))
        for kind in models:
            audit(predict_allocation(models[kind], sample.beta, desk_cfg))

    # the container itself polices the same bound for every producer
    bad = np.full((desk_cfg.K, desk_cfg.L), np.sqrt(2.0 * P / desk_cfg.K))
    with pytest.raises(ValueError):
        PowerAllocation(mu=bad, p_max=P)

    ok = worst <= 1e-9
    verdict(11, ok, 300.0, time.perf_counter() - t0,
            f"{n_allocs} allocations audited, worst relative budget "
            f"overshoot {worst:.2e} (<= 1e-9); constructor guard active")
