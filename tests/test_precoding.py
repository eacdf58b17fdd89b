"""Precoder directions: MR, RZF, and their limiting relations."""

import numpy as np
import pytest

from cfpower.config import NetworkConfig
from cfpower.estimation import (ChannelBatch, ChannelDraw, MmseEstimator,
                                mmse_estimate, sample_channels)
from cfpower.network import ChannelStatistics
from cfpower.pilots import assign_pilots
from cfpower.precoding import compute_precoders


def small_batch(K=3, L=2, N=2, n_real=50, seed=0, noise_power=0.3):
    cfg = NetworkConfig(L=L, K=K, N=N, area_m=300.0, tau_p=K,
                        ap_placement="uniform-random",
                        noise_power=noise_power)
    rng = np.random.default_rng(seed)
    R = np.zeros((K, L, N, N), dtype=complex)
    for k in range(K):
        for l in range(L):
            M = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
            R[k, l] = M @ M.conj().T / N
    beta = np.trace(R, axis1=-2, axis2=-1).real / N
    stats = ChannelStatistics(beta=beta, R=R)
    pilots = assign_pilots(beta, cfg.tau_p)
    # one tile at these sizes
    draw = ChannelDraw(stats, n_real, seed + 1)
    est = MmseEstimator(stats, pilots, cfg, n_real, seed + 2)
    (tile,) = draw.tiles
    return cfg, mmse_estimate(sample_channels(draw, tile), est, tile)


def test_all_precoders_are_unit_norm():
    cfg, batch = small_batch()
    for scheme in ("mr", "rzf"):
        w = compute_precoders(batch, scheme, cfg.p_ul, cfg.noise_power)
        assert w.shape == batch.d.shape
        norms = np.linalg.norm(w, axis=-1)
        assert np.allclose(norms, 1.0, atol=1e-12)


def test_mr_is_normalized_estimate():
    cfg, batch = small_batch()
    w = compute_precoders(batch, "mr", cfg.p_ul, cfg.noise_power)
    hh = batch.d
    expected = hh / np.linalg.norm(hh, axis=-1, keepdims=True)
    assert np.allclose(w, expected, atol=1e-12)


def test_rzf_matches_direct_solve():
    # independent route: loop realizations and APs, assemble the
    # regularized Gram matrix explicitly, and solve with plain linalg
    cfg, batch = small_batch(K=3, L=2, N=3, n_real=20)
    w = compute_precoders(batch, "rzf", cfg.p_ul, cfg.noise_power)
    hh = batch.d
    n_real, K, L, N = hh.shape
    for r in range(n_real):
        for l in range(L):
            A = cfg.noise_power * np.eye(N, dtype=complex)
            for i in range(K):
                hi = hh[r, i, l]
                A += cfg.p_ul * np.outer(hi, hi.conj())
            for k in range(K):
                direction = np.linalg.solve(A, cfg.p_ul * hh[r, k, l])
                direction /= np.linalg.norm(direction)
                assert np.allclose(w[r, k, l], direction, atol=1e-10)


def shared_pilot_batch(K=4, L=2, N=3, n_real=20, seed=5):
    # uncorrelated links, two UEs per pilot: every MMSE filter is c_kl I
    cfg = NetworkConfig(L=L, K=K, N=N, area_m=300.0, tau_p=K // 2,
                        ap_placement="uniform-random", noise_power=0.3)
    beta = np.random.default_rng(seed).uniform(0.2, 2.0, size=(K, L))
    stats = ChannelStatistics(beta=beta,
                              R=beta[:, :, None, None] * np.eye(N) + 0j)
    pilots = assign_pilots(beta, cfg.tau_p)
    draw = ChannelDraw(stats, n_real, seed + 1)
    est = MmseEstimator(stats, pilots, cfg, n_real, seed + 2)
    (tile,) = draw.tiles
    return cfg, mmse_estimate(sample_channels(draw, tile), est, tile)


@pytest.mark.parametrize("scheme", ["mr", "rzf"])
def test_per_pilot_precoders_match_per_ue_direct_solve(tiled, scheme):
    # one precoder per pilot; each UE's, solved from its own estimate over
    # the Gram matrix of all K estimates, must be its pilot's
    cfg, batch = shared_pilot_batch()
    n_real, J, L, N = batch.d.shape
    assert J == cfg.tau_p < cfg.K
    w = compute_precoders(batch, scheme, cfg.p_ul, cfg.noise_power)
    assert w.shape == batch.d.shape
    hh = tiled.estimates(batch)
    for r in range(n_real):
        for l in range(L):
            A = cfg.noise_power * np.eye(N, dtype=complex)
            for i in range(cfg.K):
                A += cfg.p_ul * np.outer(hh[r, i, l], hh[r, i, l].conj())
            for k in range(cfg.K):
                direction = hh[r, k, l] if scheme == "mr" \
                    else np.linalg.solve(A, cfg.p_ul * hh[r, k, l])
                direction = direction / np.linalg.norm(direction)
                assert np.allclose(w[r, batch.layout.unit_of[k], l],
                                   direction, rtol=0.0, atol=1e-10)


def test_rzf_single_ue_parallel_to_mr():
    cfg, batch = small_batch(K=1, L=2, N=3)
    w_mr = compute_precoders(batch, "mr", cfg.p_ul, cfg.noise_power)
    w_rzf = compute_precoders(batch, "rzf", cfg.p_ul, cfg.noise_power)
    # (c h h^H + s I)^-1 h is parallel to h, so directions coincide
    inner = np.abs(np.einsum("rkln,rkln->rkl", w_mr.conj(), w_rzf))
    assert np.allclose(inner, 1.0, atol=1e-10)


def test_rzf_approaches_mr_at_high_noise():
    cfg, batch = small_batch(K=3, L=2, N=2)
    w_mr = compute_precoders(batch, "mr", cfg.p_ul, cfg.noise_power)
    w_rzf = compute_precoders(batch, "rzf", cfg.p_ul, 1e9)
    inner = np.abs(np.einsum("rkln,rkln->rkl", w_mr.conj(), w_rzf))
    assert np.allclose(inner, 1.0, atol=1e-6)


def test_degenerate_estimate_gives_zero_precoder(caplog):
    cfg, batch = small_batch(K=2, L=1, N=2, n_real=4)
    hh = batch.d.copy()
    hh[:, 0, 0, :] = 0.0
    zeroed = ChannelBatch(h=batch.h, d=hh, layout=batch.layout)
    w = compute_precoders(zeroed, "mr", cfg.p_ul, cfg.noise_power)
    assert np.all(w[:, 0, 0, :] == 0.0)
    norms = np.linalg.norm(w[:, 1, 0, :], axis=-1)
    assert np.allclose(norms, 1.0)


def test_unknown_scheme_rejected():
    cfg, batch = small_batch(n_real=4)
    with pytest.raises(ValueError):
        compute_precoders(batch, "zf", cfg.p_ul, cfg.noise_power)
