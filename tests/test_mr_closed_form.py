"""Exact (a, B) for MR precoding on uncorrelated fading, as an oracle for the
Monte-Carlo estimator of whole drops.

With R_kl = beta_kl I the MMSE estimate of h_kl is a positive multiple of
the despread pilot signal y_tl, whose per-antenna variance is
psi_tl = sigma2 + tau_p p sum_{i on t} beta_il. So every UE on pilot t gets
the same unit-norm precoder u_tl = y_tl / ||y_tl|| at AP l, and
h_kl = c_kl y_tl + e_kl with c_kl = sqrt(tau_p p) beta_kl / psi_tl and e_kl
independent of y_tl. With G_N = Gamma(N + 1/2) / Gamma(N), E||y|| is
sqrt(psi) G_N and:

  a_kl         = sqrt(tau_p p) beta_kl G_N / sqrt(psi_{t(k) l})
  B_ki[l, l]   = beta_kl + (N - 1) tau_p p beta_kl^2 / psi_{t(k) l}
                 if t(i) = t(k), else beta_kl
  B_ki[l, m]   = a_kl a_km if t(i) = t(k), else 0        (l != m)

since channels, noise and precoders at different APs are independent
(Ngo et al., IEEE TWC 2017, give the mean-power-normalized version). Each
entry of the package's estimate is compared through z = (estimate - exact)
/ s, with s an upper bound on its standard error from the exact second
(and, on the diagonal of B, fourth) moments, so every z has a standard
deviation of at most about one.

The SE of an allocation is compared the same way. With S_k = a_k^T mu_k
and I_k = sum_i mu_i^T B_ki mu_i, 1 + SINR_k = (I_k + sigma2) / (I_k - S_k^2
+ sigma2), and the estimates of S_k and I_k are means over realizations of
sum_l mu_kl Re g_kkl and sum_i |sum_l mu_il g_kil|^2. Their sample
variances and covariance give the CLT standard error of the estimated SE
by the delta method.
"""

import math

import numpy as np
import pytest

from cfpower import pipeline
from cfpower.estimation import (ChannelDraw, MmseEstimator, mmse_estimate,
                                sample_channels)
from cfpower.heuristics import equal_power
from cfpower.network import build_statistics, drop_scenario, place_aps
from cfpower.pilots import assign_pilots
from cfpower.pipeline import TEST_NAMESPACE, build_sample, sample_seeds
from cfpower.precoding import compute_precoders
from cfpower.se import SEParameters, compute_se
from cfpower.wmmse import wmmse_solve
from conftest import per_ue_B


def closed_form(beta, pilot_of, cfg, pilot_sharing=True):
    """Exact (a, B) plus E|g_kil|^4, the fourth moment of the precoded
    channel on the diagonal of B. pilot_sharing=False is a mutant that
    drops the coherent terms between distinct UEs on one pilot."""
    K, L = beta.shape
    N, tau_p, p = cfg.N, cfg.tau_p, cfg.p_ul
    pilot_of = np.asarray(pilot_of)
    same = pilot_of[:, None] == pilot_of[None, :]
    psi = cfg.noise_power + tau_p * p * (same @ beta)     # psi_{t(k) l}
    if not pilot_sharing:
        same = np.eye(K, dtype=bool)
    gain = math.exp(math.lgamma(N + 0.5) - math.lgamma(N))
    a = math.sqrt(tau_p * p) * beta * gain / np.sqrt(psi)
    B = np.where(same[:, :, None, None],
                 (a[:, :, None] * a[:, None, :])[:, None], 0.0)
    coherent = beta + (N - 1) * tau_p * p * beta ** 2 / psi
    diag = np.where(same[:, :, None], coherent[:, None], beta[:, None])
    lines = np.arange(L)
    B[:, :, lines, lines] = diag
    # g = c ||y|| + e^H u with ||y||^2 ~ (psi / 2) chi2(2N), e^H u ~ CN(0, s)
    c = math.sqrt(tau_p * p) * beta / psi
    s = beta - tau_p * p * beta ** 2 / psi
    m4_coherent = (c ** 4 * psi ** 2 * N * (N + 1)
                   + 4.0 * c ** 2 * s * N * psi + 2.0 * s ** 2)
    # g ~ CN(0, beta) when the precoder comes from another pilot
    m4 = np.where(same[:, :, None], m4_coherent[:, None],
                  2.0 * beta[:, None] ** 2)
    return a, B, m4


def z_scores(params, a, B, m4):
    """Per-entry z of the estimated a and B against the exact values."""
    n = params.n_real
    K, L = a.shape
    d = np.diagonal(B, axis1=2, axis2=3)                  # (K, K, L)
    # a_kl estimates the mean of g_kkl, whose variance is B_kk[l,l] - a_kl^2
    za = (params.a - a) / np.sqrt((d[np.arange(K), np.arange(K)] - a ** 2)
                                  / n)
    # E[(Re g_l conj g_m)^2] <= E|g_l|^2 E|g_m|^2 (l != m), E|g_l|^4 (l = m)
    second = d[..., :, None] * d[..., None, :]
    second[..., np.arange(L), np.arange(L)] = m4
    return za, (per_ue_B(params) - B) / np.sqrt(second / n)


def within_bounds(z, n_independent):
    """Mean and largest |z| within bounds set by the entry counts.

    Entries share their realizations, so the mean is bounded through the
    number of independent channel vectors (K L), not of entries; the
    largest of M standard normals rarely exceeds sqrt(2 ln 2M).
    """
    mean_bound = 3.0 / math.sqrt(n_independent)
    max_bound = math.sqrt(2.0 * math.log(2.0 * z.size)) + 1.0
    return abs(float(z.mean())) <= mean_bound \
        and float(np.abs(z).max()) <= max_bound


def shares_a_pilot(pilot_of):
    return len(set(pilot_of)) < len(pilot_of)


def desk_drops(desk_sample):
    return [desk_sample("mr", index, 4000) for index in range(3)]


@pytest.fixture(scope="module")
def large_drop(large_cfg):
    return build_sample(large_cfg, place_aps(large_cfg, large_cfg.seed),
                        large_cfg.seed, TEST_NAMESPACE, 0, "mr", 1000)


def test_closed_form_matches_desk_drops(desk_sample, desk_cfg):
    for sample in desk_drops(desk_sample):
        assert shares_a_pilot(sample.pilot_of)
        za, zB = z_scores(sample.params,
                          *closed_form(sample.beta, sample.pilot_of,
                                       desk_cfg))
        K, L = za.shape
        assert within_bounds(za, K * L), (za.mean(), np.abs(za).max())
        assert within_bounds(zB, K * L), (zB.mean(), np.abs(zB).max())


def test_closed_form_matches_a_large_drop(large_drop, large_cfg):
    assert shares_a_pilot(large_drop.pilot_of)
    za, zB = z_scores(large_drop.params,
                      *closed_form(large_drop.beta, large_drop.pilot_of,
                                   large_cfg))
    K, L = za.shape
    assert za.size == K * L and zB.size == K * K * L * L
    assert within_bounds(za, K * L), (za.mean(), np.abs(za).max())
    assert within_bounds(zB, K * L), (zB.mean(), np.abs(zB).max())


def test_closed_form_without_pilot_sharing_fails(desk_sample, desk_cfg,
                                                 large_drop, large_cfg):
    for sample, cfg in ((desk_drops(desk_sample)[0], desk_cfg),
                        (large_drop, large_cfg)):
        _, zB = z_scores(sample.params,
                         *closed_form(sample.beta, sample.pilot_of, cfg,
                                      pilot_sharing=False))
        assert not within_bounds(zB, sample.params.K * sample.params.L)


def test_rotated_precoders_fail(desk_cfg, monkeypatch):
    # a phase per AP keeps every precoder unit-norm and every |E g|, but
    # turns the cross-AP moments a_kl a_km into a_kl a_km cos(phase gap)
    compute = pipeline.compute_precoders

    def rotated(batch, scheme, p_ul, sigma2):
        w = compute(batch, scheme, p_ul, sigma2)
        L = w.shape[2]
        return w * np.exp(1j * np.pi * np.arange(L) / L)[:, None]

    monkeypatch.setattr(pipeline, "compute_precoders", rotated)
    aps = place_aps(desk_cfg, desk_cfg.seed)
    sample = build_sample(desk_cfg, aps, desk_cfg.seed, TEST_NAMESPACE, 0,
                          "mr", 4000)
    za, zB = z_scores(sample.params,
                      *closed_form(sample.beta, sample.pilot_of, desk_cfg))
    K, L = za.shape
    assert within_bounds(za, K * L)
    assert not within_bounds(zB, K * L)


def per_realization_terms(cfg, index, n_real, mus):
    """Per allocation, realization and UE: sum_l mu_kl Re g_kkl and
    sum_i |sum_l mu_il g_kil|^2, with g_kil = h_kl^H w_il taken from the
    package's MR front end of test drop `index`, one tile at a time."""
    aps = place_aps(cfg, cfg.seed)
    drop_s, chan_s, noise_s = sample_seeds(cfg.seed, TEST_NAMESPACE, index)
    stats = build_statistics(cfg, drop_scenario(cfg, drop_s, aps))
    pilots = assign_pilots(stats.beta, cfg.tau_p)
    draw = ChannelDraw(stats, n_real, chan_s)
    est = MmseEstimator(stats, pilots, cfg, n_real, noise_s)
    signal = np.empty((len(mus), n_real, cfg.K))
    interference = np.empty_like(signal)
    for tile in draw.tiles:
        batch = mmse_estimate(sample_channels(draw, tile), est, tile)
        w = compute_precoders(batch, "mr", cfg.p_ul, cfg.noise_power)
        # UE i's precoder is its direction's
        w = w[:, batch.layout.unit_of]
        g = np.einsum("rkln,riln->rkil", batch.h.conj(), w)
        for j, mu in enumerate(mus):
            signal[j, tile] = np.einsum("rkkl,kl->rk", g, mu).real
            interference[j, tile] = np.sum(
                np.abs(np.einsum("rkil,il->rki", g, mu)) ** 2, axis=2)
    return signal, interference


def se_z_scores(sample, cfg, alloc, signal, interference,
                pilot_sharing=True):
    """Per-UE z of the SE under the Monte-Carlo (a, B) against the SE under
    the exact (a, B), with the delta-method standard error at the exact
    S_k and I_k."""
    a, B, _ = closed_form(sample.beta, sample.pilot_of, cfg, pilot_sharing)
    exact = SEParameters(a=a, B=B, sigma2=cfg.noise_power,
                         prelog=cfg.prelog, n_real=sample.params.n_real)
    mu = alloc.mu
    S = np.einsum("kl,kl->k", a, mu)
    I = np.einsum("il,kilm,im->k", mu, B, mu)
    D = I - S ** 2 + cfg.noise_power
    c = cfg.prelog / math.log(2.0)
    grad_s = c * 2.0 * S / D
    grad_i = c * (1.0 / (I + cfg.noise_power) - 1.0 / D)
    n = signal.shape[0]
    cov = np.stack([np.cov(signal[:, k], interference[:, k])
                    for k in range(cfg.K)])
    var = (grad_s ** 2 * cov[:, 0, 0] + grad_i ** 2 * cov[:, 1, 1]
           + 2.0 * grad_s * grad_i * cov[:, 0, 1]) / n
    return (compute_se(sample.params, alloc) - compute_se(exact, alloc)) \
        / np.sqrt(var)


def se_within_bounds(z):
    """The mean of the K z's has a standard deviation of at most one,
    however they correlate; the largest of K stays under sqrt(2 ln 2K)."""
    max_bound = math.sqrt(2.0 * math.log(2.0 * z.size)) + 1.0
    return abs(float(z.mean())) <= 3.0 \
        and float(np.abs(z).max()) <= max_bound


def se_cases(desk_sample, desk_cfg, large_drop, large_cfg):
    """(sample, cfg, test drop index) of the three desk drops and the large
    drop."""
    return [(sample, desk_cfg, index)
            for index, sample in enumerate(desk_drops(desk_sample))] \
        + [(large_drop, large_cfg, 0)]


def test_se_matches_the_closed_form(desk_sample, desk_cfg, large_drop,
                                    large_cfg):
    for sample, cfg, index in se_cases(desk_sample, desk_cfg, large_drop,
                                       large_cfg):
        # equal power, and the sum-SE WMMSE solution on the drop's
        # Monte-Carlo estimate
        allocs = [equal_power(cfg.K, cfg.L, cfg.p_max_dl),
                  wmmse_solve(sample.params, cfg.p_max_dl).alloc]
        signal, interference = per_realization_terms(
            cfg, index, sample.params.n_real, [a.mu for a in allocs])
        for j, alloc in enumerate(allocs):
            # the terms come from the realizations the estimate came from
            assert np.allclose(signal[j].mean(axis=0),
                               (sample.params.a * alloc.mu).sum(axis=1),
                               rtol=1e-3)
            z = se_z_scores(sample, cfg, alloc, signal[j], interference[j])
            assert se_within_bounds(z), (cfg.K, index, j, z)


def test_se_without_pilot_sharing_fails(desk_sample, desk_cfg, large_drop,
                                        large_cfg):
    # dropping the coherent interference between UEs on one pilot lifts
    # the exact SE of equal power far beyond the Monte-Carlo noise
    for sample, cfg, index in se_cases(desk_sample, desk_cfg, large_drop,
                                       large_cfg):
        alloc = equal_power(cfg.K, cfg.L, cfg.p_max_dl)
        signal, interference = per_realization_terms(
            cfg, index, sample.params.n_real, [alloc.mu])
        z = se_z_scores(sample, cfg, alloc, signal[0], interference[0],
                        pilot_sharing=False)
        assert not se_within_bounds(z)
