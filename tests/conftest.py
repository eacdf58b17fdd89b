"""Shared fixtures: preset configs, cached drops, synthetic SE parameters,
the WMMSE subproblem's quadratic forms and objective, its projected-gradient
oracle, a WMMSE solve that records the budget excess of its iterates, the
package's tile-by-tile front end gathered into whole arrays, and the
one-shot Monte-Carlo front end. `per_ue_B`, imported by the test modules,
expands an estimate's B per UE for oracles that index it as B_ki."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from cfpower import wmmse
from cfpower.cli import resolve_config
from cfpower.estimation import (ChannelBatch, ChannelDraw, DirectionLayout,
                                MmseEstimator, mmse_estimate, sample_channels)
from cfpower.heuristics import equal_power
from cfpower.network import build_statistics, drop_scenario, place_aps
from cfpower.pilots import assign_pilots
from cfpower.pipeline import TEST_NAMESPACE, build_sample, sample_seeds
from cfpower.precoding import compute_precoders
from cfpower.se import MomentSums, SEParameters, estimate_se_parameters
from cfpower.wmmse import (_subproblem, project_per_ap, solve_subproblem,
                           wmmse_solve)

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


def per_ue_B(params):
    """params.B expanded per UE: (K, K, L, L), B_ki = B[k, unit_of[i]]."""
    return np.take(params.B, params.unit_of, axis=1)


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


def _budget_excess(mu, p_max):
    """Relative excess of mu's largest per-AP power over p_max, or 0."""
    per_ap = np.add.reduce(mu * mu, axis=0)
    return float(max(0.0, (per_ap.max() - p_max) / p_max))


@pytest.fixture
def solve_with_budget_excess(monkeypatch):
    """wmmse_solve as (result, worst budget excess of its iterates).

    The iterates are the mu behind each trace entry: the equal-power start
    and the raw minimizer of every subproblem, recorded by wrapping
    `wmmse.solve_subproblem`.
    """
    excess = []

    def recording(params, omega, v, p_max, **kwargs):
        result = solve_subproblem(params, omega, v, p_max, **kwargs)
        excess.append(_budget_excess(result.mu_raw, p_max))
        return result

    monkeypatch.setattr(wmmse, "solve_subproblem", recording)

    def solve(params, p_max, cfg=None):
        start = equal_power(params.K, params.L, p_max).mu
        excess[:] = [_budget_excess(start, p_max)]
        return wmmse_solve(params, p_max, cfg), max(excess)
    return solve


def _subproblem_matrices(params, omega, v):
    """Quadratic forms (C, q) of the subproblem, C symmetrized, one C_i per
    UE.

    Both come from `wmmse._subproblem`, the C that ADMM works with, whose
    one matrix per direction is expanded here by `params.unit_of`;
    indefinite inputs raise there.
    """
    q, C = _subproblem(params, omega, v)
    return C[params.unit_of], q


@pytest.fixture(scope="session")
def subproblem_matrices():
    return _subproblem_matrices


def _subproblem_objective(C, q, mu):
    """f(mu) = sum_i mu_i^T C_i mu_i - 2 q_i^T mu_i."""
    quad = np.einsum("il,ilm,im->", mu, C, mu)
    lin = np.einsum("il,il->", q, mu)
    return float(quad - 2.0 * lin)


@pytest.fixture(scope="session")
def subproblem_objective():
    return _subproblem_objective


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


# The package's front end stage by stage, as `build_sample` runs it, with
# each tile copied out of the draws' reused buffers into whole arrays.

def _tiled_channels(stats, n_real, seed):
    draw = ChannelDraw(stats, n_real, seed)
    return np.concatenate([sample_channels(draw, tile).copy()
                           for tile in draw.tiles])


def _tiled_front_end(stats, pilots, cfg, n_real, chan_seed, noise_seed):
    """The whole (h, d) of a drop as one ChannelBatch."""
    draw = ChannelDraw(stats, n_real, chan_seed)
    est = MmseEstimator(stats, pilots, cfg, n_real, noise_seed)
    h, d = [], []
    for tile in draw.tiles:
        batch = mmse_estimate(sample_channels(draw, tile), est, tile)
        h.append(batch.h.copy())
        d.append(batch.d)
    return ChannelBatch(h=np.concatenate(h), d=np.concatenate(d),
                        layout=est.layout)


def _estimates(batch):
    """The (n, K, L, N) per-UE channel estimates that a batch's directions
    stand for: scale[k, l] d[:, unit_of[k], l]."""
    layout = batch.layout
    return layout.scale[:, :, None] * batch.d[:, layout.unit_of]


def _per_ue_batch(h, d):
    """A batch whose directions are its per-UE estimates d."""
    return ChannelBatch(h=h, d=d, layout=DirectionLayout.per_ue(
        *h.shape[1:3]))


def _se_parameters(batch, w, cfg):
    """(a, B) of a whole batch, added to the sums as one tile."""
    sums = MomentSums(batch.layout, batch.h.shape[0])
    return estimate_se_parameters(batch, w, sums).finish(cfg)


@pytest.fixture(scope="session")
def tiled():
    return SimpleNamespace(channels=_tiled_channels,
                           front_end=_tiled_front_end,
                           estimates=_estimates,
                           per_ue_batch=_per_ue_batch,
                           se_parameters=_se_parameters)


# The Monte-Carlo front end as one untiled pass, as it ran before the
# realization tiles: every stage holds its (n_real, K, L, N) output in full,
# and the reduction walks the 64-realization chunks of the whole batch.

def _oneshot_sample_channels(stats, n_real, seed):
    K, L, N = stats.R.shape[:3]
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((n_real, K, L, N))
         + 1j * rng.standard_normal((n_real, K, L, N))) / np.sqrt(2.0)
    eigval, eigvec = np.linalg.eigh(stats.R)
    eigval = np.clip(eigval, 0.0, None)
    sqrt_R = (eigvec * np.sqrt(eigval)[..., None, :]) @ np.swapaxes(
        eigvec.conj(), -1, -2)
    h = np.empty(z.shape, dtype=complex)
    np.matmul(z.transpose(1, 2, 0, 3), np.swapaxes(sqrt_R, -1, -2),
              out=h.transpose(1, 2, 0, 3))
    return h


def _oneshot_mmse_estimate(h, stats, pilots, cfg, noise_seed):
    """The drop's whole ChannelBatch. When every filter is c_kl I with
    c_kl > 0, its directions are the used pilots' signals and UE k's scale
    at AP l is c_kl; otherwise they are the per-UE estimates."""
    n_real, K, L, N = h.shape
    tau_p, p_ul, sigma2 = cfg.tau_p, cfg.p_ul, cfg.noise_power
    rng = np.random.default_rng(noise_seed)
    amp = np.sqrt(tau_p * p_ul)
    y = (rng.standard_normal((n_real, tau_p, L, N))
         + 1j * rng.standard_normal((n_real, tau_p, L, N)))
    y *= np.sqrt(sigma2 / 2.0)
    psi = np.empty((tau_p, L, N, N), dtype=complex)
    for t, group in enumerate(pilots.groups):
        psi[t] = sigma2 * np.eye(N)
        for i in group:
            y[:, t] += amp * h[:, i]
            psi[t] = psi[t] + tau_p * p_ul * stats.R[i]
    pilot_of = np.asarray(pilots.pilot_of, dtype=int)
    filters = amp * stats.R @ np.linalg.inv(psi)[pilot_of]
    c = filters[..., 0, 0].real
    if np.all(c > 0.0) and np.array_equal(filters,
                                          c[..., None, None] * np.eye(N)):
        used, unit_of = np.unique(pilot_of, return_inverse=True)
        return ChannelBatch(h=h, d=y[:, used],
                            layout=DirectionLayout(unit_of=unit_of, scale=c))
    h_hat = np.empty(h.shape, dtype=complex)
    np.matmul(y[:, pilot_of].transpose(1, 2, 0, 3),
              np.swapaxes(filters, -1, -2), out=h_hat.transpose(1, 2, 0, 3))
    return _per_ue_batch(h, h_hat)


def _oneshot_moments(h, w, unit_of=None):
    """(a, B) from the untiled 64-realization chunk loop; w holds one
    precoder per direction, UE k's is w[:, unit_of[k]] (k by default)."""
    n_real, K, L, N = h.shape
    J = w.shape[1]
    unit_of = np.arange(K) if unit_of is None else unit_of
    s_acc = np.zeros((K, L), dtype=complex)
    b_acc = np.zeros((K, J, L, L))
    for start in range(0, n_real, 64):
        hc = h[start:start + 64].conj().transpose(0, 2, 1, 3)
        wc = w[start:start + 64].transpose(0, 2, 3, 1)
        g = np.matmul(hc, wc)
        s_acc += g[:, :, np.arange(K), unit_of].sum(axis=0).T
        gv = np.ascontiguousarray(g.transpose(2, 3, 1, 0)).view(float)
        b_acc += np.matmul(gv, np.swapaxes(gv, -1, -2))
    return np.abs(s_acc / n_real), np.take(b_acc, unit_of, axis=1) / n_real


def _oneshot_sample(cfg, aps, master_seed, namespace, index, precoder,
                    n_real):
    """`build_sample`'s drop through the one-shot front end: (batch,
    params)."""
    drop_s, chan_s, noise_s = sample_seeds(master_seed, namespace, index)
    stats = build_statistics(cfg, drop_scenario(cfg, drop_s, aps))
    pilots = assign_pilots(stats.beta, cfg.tau_p)
    h = _oneshot_sample_channels(stats, n_real, chan_s)
    batch = _oneshot_mmse_estimate(h, stats, pilots, cfg, noise_s)
    w = compute_precoders(batch, precoder, cfg.p_ul, cfg.noise_power)
    a, B = _oneshot_moments(h, w, batch.layout.unit_of)
    return batch, SEParameters(a=a, B=B, sigma2=cfg.noise_power,
                               prelog=cfg.prelog, n_real=n_real)


@pytest.fixture(scope="session")
def oneshot():
    return SimpleNamespace(sample_channels=_oneshot_sample_channels,
                           mmse_estimate=_oneshot_mmse_estimate,
                           moments=_oneshot_moments,
                           sample=_oneshot_sample)
