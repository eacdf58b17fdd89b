"""Channel sampling and MMSE estimation against closed-form statistics.

The reference covariances come straight from the linear-Gaussian model: an
estimate from a despread pilot y = sum_group amp h_i + n has covariance
amp^2 R Psi^-1 R with Psi = sum_group amp^2 R_i + sigma2 I. Sample moments
at a few 10^4 realizations sit well inside the tolerances used here.

The package hands a drop out one realization tile at a time; the tests
here gather the tiles into whole arrays (`tiled` in `conftest.py`). The
batched implementation is also checked draw by draw against plain per-link
loops that share the random draw order, and at several tile sizes against
the one-shot front end in `conftest.py`.
"""

from dataclasses import replace

import numpy as np
import pytest

from cfpower import estimation
from cfpower.cli import resolve_config
from cfpower.config import NetworkConfig
from cfpower.estimation import (ChannelDraw, MmseEstimator, mmse_estimate,
                                realization_tiles, sample_channels)
from cfpower.network import (ChannelStatistics, build_statistics,
                             drop_scenario, place_aps)
from cfpower.pilots import assign_pilots


def stats_from_R(R_list):
    """Wrap explicit per-link correlation matrices, shape (K, L, N, N)."""
    R = np.asarray(R_list, dtype=complex)
    beta = np.trace(R, axis1=-2, axis2=-1).real / R.shape[-1]
    return ChannelStatistics(beta=beta, R=R)


def sample_cov(x):
    """(N, N) covariance E[h h^H] of realization-major complex vectors."""
    return x.T @ x.conj() / x.shape[0]


HANDY_R = np.array([[2.0, 0.5 + 0.3j], [0.5 - 0.3j, 1.0]])


def test_channel_sample_covariance(tiled):
    stats = stats_from_R([[HANDY_R]])
    h = tiled.channels(stats, n_real=200000, seed=3)[:, 0, 0, :]
    cov = sample_cov(h)
    err = np.linalg.norm(cov - HANDY_R) / np.linalg.norm(HANDY_R)
    assert err < 0.02
    # circular symmetry: mean and pseudo-covariance both vanish
    assert np.abs(h.mean(axis=0)).max() < 0.02
    assert np.linalg.norm(h.T @ h / h.shape[0]) < 0.02 * np.linalg.norm(HANDY_R)


def test_channel_samples_are_seeded(tiled):
    stats = stats_from_R([[HANDY_R]])
    a = tiled.channels(stats, 64, seed=5)
    b = tiled.channels(stats, 64, seed=5)
    c = tiled.channels(stats, 64, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        ChannelDraw(stats, 0, seed=1)


def _one_link_cfg(N=2, tau_p=2):
    return NetworkConfig(L=1, K=2, N=N, area_m=300.0, tau_p=tau_p,
                         correlation_model="uncorrelated")


def test_psi_matches_model(tiled):
    # the estimate is linear in the pilot observation, so two channel draws
    # under one noise seed differ by the filter applied to the change of
    # the group's channels alone: the noise cancels and Psi is pinned;
    # sigma2 is raised so that its share of Psi is visible
    cfg = replace(_one_link_cfg(tau_p=1), noise_power=0.3)
    R0 = HANDY_R
    R1 = 0.5 * np.eye(2, dtype=complex)
    stats = stats_from_R([[R0], [R1]])
    pilots = assign_pilots(stats.beta, cfg.tau_p)
    assert pilots.groups == ((0, 1),)
    b1 = tiled.front_end(stats, pilots, cfg, 128, 1, 2)
    b2 = tiled.front_end(stats, pilots, cfg, 128, 3, 2)
    h, h2 = b1.h, b2.h
    q = cfg.tau_p * cfg.p_ul
    psi = q * (R0 + R1) + cfg.noise_power * np.eye(2)
    dh = (h2 - h)[:, 0, 0, :] + (h2 - h)[:, 1, 0, :]
    for k, R in ((0, R0), (1, R1)):
        expected = dh @ (q * R @ np.linalg.inv(psi)).T
        got = (tiled.estimates(b2)[:, k, 0, :]
               - tiled.estimates(b1)[:, k, 0, :])
        assert np.allclose(got, expected, rtol=1e-10, atol=0.0)


def test_estimate_covariance_orthogonal_pilots(tiled):
    cfg = _one_link_cfg(tau_p=2)
    stats = stats_from_R([[HANDY_R], [0.7 * np.eye(2)]])
    # gains of order one dwarf the -124 dB noise, so scale sigma2 up to
    # make the estimation error visible
    cfg = replace(cfg, noise_power=0.3)
    pilots = assign_pilots(stats.beta, cfg.tau_p)
    batch = tiled.front_end(stats, pilots, cfg, 40000, 8, 9)
    q = cfg.tau_p * cfg.p_ul
    for k, R in ((0, HANDY_R), (1, 0.7 * np.eye(2))):
        psi = q * R + cfg.noise_power * np.eye(2)
        expected = q * R @ np.linalg.inv(psi) @ R
        cov = sample_cov(tiled.estimates(batch)[:, k, 0, :])
        err = np.linalg.norm(cov - expected) / np.linalg.norm(expected)
        assert err < 0.05


def test_estimate_covariance_with_contamination(tiled):
    cfg = replace(_one_link_cfg(tau_p=1), noise_power=0.3)
    R0, R1 = HANDY_R, 0.6 * np.eye(2, dtype=complex)
    stats = stats_from_R([[R0], [R1]])
    pilots = assign_pilots(stats.beta, cfg.tau_p)
    batch = tiled.front_end(stats, pilots, cfg, 40000, 10, 11)
    q = cfg.tau_p * cfg.p_ul
    psi = q * (R0 + R1) + cfg.noise_power * np.eye(2)
    expected = q * R0 @ np.linalg.inv(psi) @ R0
    cov = sample_cov(tiled.estimates(batch)[:, 0, 0, :])
    err = np.linalg.norm(cov - expected) / np.linalg.norm(expected)
    assert err < 0.05


def test_estimate_error_orthogonality(tiled):
    # E{h_hat (h - h_hat)^H} = 0 is the defining property of MMSE
    cfg = replace(_one_link_cfg(tau_p=2), noise_power=0.3)
    stats = stats_from_R([[HANDY_R], [0.7 * np.eye(2)]])
    pilots = assign_pilots(stats.beta, cfg.tau_p)
    batch = tiled.front_end(stats, pilots, cfg, 40000, 12, 13)
    est = tiled.estimates(batch)[:, 0, 0, :]
    err = batch.h[:, 0, 0, :] - est
    cross = est.conj().T @ err / est.shape[0]
    assert np.linalg.norm(cross) < 0.05 * np.linalg.norm(HANDY_R)


def test_scalar_channel_closed_form(tiled):
    # N=1: estimate variance is q beta^2 / (q beta + sigma2)
    cfg = NetworkConfig(L=1, K=1, N=1, area_m=300.0, tau_p=3,
                        noise_power=0.5)
    beta = 1.7
    stats = stats_from_R([[beta * np.eye(1)]])
    pilots = assign_pilots(stats.beta, cfg.tau_p)
    batch = tiled.front_end(stats, pilots, cfg, 60000, 14, 15)
    q = cfg.tau_p * cfg.p_ul
    c = q * beta ** 2 / (q * beta + cfg.noise_power)
    h_hat = tiled.estimates(batch)
    var = float(np.mean(np.abs(h_hat[:, 0, 0, 0]) ** 2))
    assert var == pytest.approx(c, rel=0.03)
    resid = float(np.mean(np.abs(batch.h[:, 0, 0, 0]
                                 - h_hat[:, 0, 0, 0]) ** 2))
    assert resid == pytest.approx(beta - c, rel=0.05)


def test_sharers_with_proportional_R_get_collinear_estimates(tiled):
    # R1 = 2 R0 on a shared pilot makes h_hat_1 exactly 2 h_hat_0
    cfg = _one_link_cfg(tau_p=1)
    R0 = HANDY_R
    stats = stats_from_R([[R0], [2.0 * R0]])
    pilots = assign_pilots(stats.beta, cfg.tau_p)
    batch = tiled.front_end(stats, pilots, cfg, 256, 16, 17)
    h_hat = tiled.estimates(batch)
    assert np.allclose(h_hat[:, 1, 0, :], 2.0 * h_hat[:, 0, 0, :],
                       rtol=1e-10)


def test_noise_seed_changes_estimates_only(tiled):
    cfg = _one_link_cfg(tau_p=2)
    stats = stats_from_R([[HANDY_R], [0.7 * np.eye(2)]])
    pilots = assign_pilots(stats.beta, cfg.tau_p)
    b1 = tiled.front_end(stats, pilots, cfg, 128, 18, 19)
    b2 = tiled.front_end(stats, pilots, cfg, 128, 18, 20)
    b3 = tiled.front_end(stats, pilots, cfg, 128, 18, 19)
    assert np.array_equal(b1.h, b2.h)
    assert not np.array_equal(b1.d, b2.d)
    assert np.array_equal(b1.d, b3.d)
    assert b1.h.shape[0] == 128


def reference_sample_channels(stats, n_real, seed):
    """Per-link loop: h_kl = R_kl^(1/2) z_kl with one eigh per link."""
    K, L, N = stats.R.shape[:3]
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((n_real, K, L, N))
         + 1j * rng.standard_normal((n_real, K, L, N))) / np.sqrt(2.0)
    h = np.empty_like(z)
    for k in range(K):
        for l in range(L):
            eigval, eigvec = np.linalg.eigh(stats.R[k, l])
            eigval = np.clip(eigval, 0.0, None)
            S = (eigvec * np.sqrt(eigval)) @ eigvec.conj().T
            h[:, k, l, :] = z[:, k, l, :] @ S.T
    return h


def reference_mmse_estimate(h, stats, pilots, cfg, noise_seed):
    """Per-link loop: h_hat_kl = amp R_kl Psi_tl^-1 y_tl."""
    n_real, K, L, N = h.shape
    tau_p, p_ul, sigma2 = cfg.tau_p, cfg.p_ul, cfg.noise_power
    rng = np.random.default_rng(noise_seed)
    amp = np.sqrt(tau_p * p_ul)
    y = (rng.standard_normal((n_real, tau_p, L, N))
         + 1j * rng.standard_normal((n_real, tau_p, L, N)))
    y *= np.sqrt(sigma2 / 2.0)
    for t, group in enumerate(pilots.groups):
        for i in group:
            y[:, t] += amp * h[:, i]
    h_hat = np.empty_like(h)
    for k in range(K):
        t = int(pilots.pilot_of[k])
        for l in range(L):
            P = sigma2 * np.eye(N, dtype=complex)
            for i in pilots.groups[t]:
                P = P + tau_p * p_ul * stats.R[i, l]
            A = amp * stats.R[k, l] @ np.linalg.inv(P)
            h_hat[:, k, l, :] = y[:, t, l, :] @ A.T
    return h_hat


def _desk_stats(correlation_model):
    cfg = replace(resolve_config("desk"),
                  correlation_model=correlation_model)
    stats = build_statistics(cfg, drop_scenario(cfg, 21, place_aps(cfg, 21)))
    return cfg, stats


def _mixed_stats():
    # local-scattering links with every third one replaced by beta I
    cfg, stats = _desk_stats("local-scattering")
    R = stats.R.copy()
    K, L, N = R.shape[:3]
    for k in range(K):
        for l in range(L):
            if (k * L + l) % 3 == 0:
                R[k, l] = stats.beta[k, l] * np.eye(N)
    return cfg, ChannelStatistics(beta=stats.beta, R=R)


@pytest.mark.parametrize("make", [
    lambda: _desk_stats("uncorrelated"),
    lambda: _desk_stats("local-scattering"),
    _mixed_stats,
], ids=["diagonal", "local-scattering", "mixed"])
def test_batched_estimation_matches_reference_loops(tiled, make):
    cfg, stats = make()
    pilots = assign_pilots(stats.beta, cfg.tau_p)
    batch = tiled.front_end(stats, pilots, cfg, 150, 22, 23)
    assert np.array_equal(batch.h,
                          reference_sample_channels(stats, 150, seed=22))
    ref = reference_mmse_estimate(batch.h, stats, pilots, cfg, noise_seed=23)
    assert np.allclose(tiled.estimates(batch), ref, rtol=1e-12, atol=0.0)


def test_tile_rule():
    # whole 64-realization chunks within the byte budget, at least one
    # chunk; a batch within the budget is one tile
    large, desk = resolve_config("large"), resolve_config("desk")
    shape = (large.K, large.L, large.N)
    tiles = realization_tiles(1000, *shape)
    assert [t.stop - t.start for t in tiles] == [64] * 15 + [40]
    assert [t.start for t in tiles] == list(range(0, 1000, 64))
    assert realization_tiles(1000, desk.K, desk.L, desk.N) == [slice(0, 1000)]
    # allocate's 100-realization drops fit the budget
    assert realization_tiles(100, *shape) == [slice(0, 100)]
    assert realization_tiles(200, *shape)[-1] == slice(192, 200)


@pytest.mark.parametrize("make", [
    lambda: _desk_stats("uncorrelated"),
    _mixed_stats,
], ids=["diagonal", "mixed"])
@pytest.mark.parametrize("n_real", [100, 300])
def test_tiled_stages_give_the_oneshot_bytes(monkeypatch, oneshot, make,
                                             n_real):
    cfg, stats = make()
    pilots = assign_pilots(stats.beta, cfg.tau_p)
    h_ref = oneshot.sample_channels(stats, n_real, 24)
    ref = oneshot.mmse_estimate(h_ref, stats, pilots, cfg, 25)
    row_bytes = h_ref[0].nbytes
    # tiles of 64, 128 and 192 realizations, then one tile
    for chunks in (1, 2, 3, None):
        budget = n_real * row_bytes if chunks is None \
            else chunks * estimation._CHUNK * row_bytes
        monkeypatch.setattr(estimation, "_TILE_BYTES", budget)
        draw = ChannelDraw(stats, n_real, 24)
        est = MmseEstimator(stats, pilots, cfg, n_real, 25)
        assert draw.tiles == realization_tiles(n_real, *h_ref.shape[1:])
        step = n_real if chunks is None else chunks * estimation._CHUNK
        assert draw.tiles[0] == slice(0, min(step, n_real))
        for tile in draw.tiles:
            h = sample_channels(draw, tile)
            assert np.array_equal(h, h_ref[tile])
            batch = mmse_estimate(h, est, tile)
            assert batch.h is h
            assert np.array_equal(batch.d, ref.d[tile])
        assert np.array_equal(est.layout.unit_of, ref.layout.unit_of)
        assert np.array_equal(est.layout.scale, ref.layout.scale)


def test_tiles_reuse_two_buffers_and_leave_none_behind(monkeypatch):
    cfg, stats = _desk_stats("uncorrelated")
    pilots = assign_pilots(stats.beta, cfg.tau_p)
    monkeypatch.setattr(estimation, "_TILE_BYTES", 1)
    draw = ChannelDraw(stats, 300, 26)
    est = MmseEstimator(stats, pilots, cfg, 300, 27)
    assert [t.stop - t.start for t in draw.tiles] == [64] * 4 + [44]
    bases = []
    for tile in draw.tiles:
        h = sample_channels(draw, tile)
        batch = mmse_estimate(h, est, tile)
        assert batch.h is h
        bases.append(h.base)
    # every tile's channels lie in the channel draw's one buffer
    assert all(b is bases[0] for b in bases) and bases[0].shape[0] == 64
    # after the last tile neither draw holds a generator, real half, buffer
    # or map, and the stages hold no tile array of their own
    for normals in (draw.normals, est.noise):
        assert all(v is None for v in (normals._rng, normals._re, normals._im,
                                       normals._z, normals._map))
    for stage in (draw, est):
        assert not any(isinstance(v, np.ndarray) and v.ndim > 1
                       for v in vars(stage).values())


def test_tiles_must_come_in_order(monkeypatch):
    cfg, stats = _desk_stats("uncorrelated")
    pilots = assign_pilots(stats.beta, cfg.tau_p)
    monkeypatch.setattr(estimation, "_TILE_BYTES", 1)
    draw = ChannelDraw(stats, 200, 28)
    est = MmseEstimator(stats, pilots, cfg, 200, 29)
    first, second = draw.tiles[:2]
    with pytest.raises(ValueError, match="order"):
        sample_channels(draw, second)
    h = sample_channels(draw, first)
    with pytest.raises(ValueError, match="order"):
        mmse_estimate(h, est, second)
    with pytest.raises(ValueError, match="order"):
        sample_channels(draw, first)
