"""Shared fixtures: preset configs, cached drops, synthetic SE parameters,
and the projected-gradient oracle for the WMMSE subproblem."""

import numpy as np
import pytest
from hypothesis import settings

from cfpower.cli import resolve_config
from cfpower.network import place_aps
from cfpower.pipeline import TEST_NAMESPACE, build_sample
from cfpower.se import SEParameters
from cfpower.wmmse import project_per_ap

# deterministic property-test runs, no wall-clock deadline on a busy box
settings.register_profile("suite", max_examples=25, deadline=None,
                          derandomize=True)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def desk_cfg():
    return resolve_config("desk")


@pytest.fixture(scope="session")
def large_cfg():
    return resolve_config("large")


@pytest.fixture(scope="session")
def desk_sample(desk_cfg):
    """Factory for desk-scale samples, cached per (precoder, index, n_real)."""
    cache = {}
    aps = place_aps(desk_cfg, desk_cfg.seed)

    def get(precoder="rzf", index=0, n_real=1000):
        key = (precoder, index, n_real)
        if key not in cache:
            cache[key] = build_sample(desk_cfg, aps, desk_cfg.seed,
                                      TEST_NAMESPACE, index, precoder, n_real)
        return cache[key]

    return get


def _synthetic(K, L, seed, sigma2=1.0, prelog=1.0, scale=1.0):
    """Random SE parameters with always-valid SINR denominators.

    B_kk carries a_k a_k^T plus a PSD part, so the interference quadratic
    can never undercut the coherent signal power, whatever the weights.
    """
    rng = np.random.default_rng(seed)
    a = scale * rng.uniform(0.5, 2.0, size=(K, L))
    B = np.empty((K, K, L, L))
    for k in range(K):
        for i in range(K):
            M = rng.standard_normal((L, L + 2))
            B[k, i] = scale ** 2 * 0.1 * (M @ M.T) / (L + 2)
        B[k, k] += np.outer(a[k], a[k])
    return SEParameters(a=a, B=B, sigma2=sigma2, prelog=prelog, n_real=1000)


@pytest.fixture(scope="session")
def synthetic_params():
    return _synthetic


def _assert_budget(mu, p_max, slack=1e-9):
    per_ap = np.sum(np.asarray(mu) ** 2, axis=0)
    assert float(per_ap.max()) <= p_max * (1.0 + slack), \
        f"per-AP power {per_ap.max():.12g} breaks budget {p_max:.12g}"


@pytest.fixture(scope="session")
def assert_budget():
    return _assert_budget


def _projected_gradient(C, q, p_max, eps_inner, max_iters=200000, x0=None):
    """Reference solver for min sum_i mu_i^T C_i mu_i - 2 q_i^T mu_i on the
    per-AP balls, from `subproblem_matrices` output: projected gradient with
    the fixed step 1 / (2 lambda_max), started from x0 (zeros by default).

    Returns (x, n_iters, converged); a gradient-map magnitude below
    eps_inner counts as stationary.
    """
    lam_max = float(np.linalg.eigvalsh(C)[:, -1].max())
    step = 1.0 / (2.0 * max(lam_max, 1e-300))
    X = project_per_ap(np.zeros_like(q) if x0 is None else x0, p_max)
    for it in range(1, max_iters + 1):
        G = 2.0 * (np.einsum("kab,kb->ka", C, X) - q)
        X_new = project_per_ap(X - step * G, p_max)
        delta = float(np.linalg.norm(X_new - X))
        X = X_new
        if delta / step <= eps_inner * max(1.0, float(np.linalg.norm(X))):
            return X, it, True
    return X, max_iters, False


@pytest.fixture(scope="session")
def projected_gradient():
    return _projected_gradient
