"""Geometry and channel-statistics tests.

Frozen literals were produced by independent tools: mpmath at 50 digits for
the pathloss law, plain enumeration for wrap-around distances, and
Gauss-Hermite quadrature for the local-scattering correlation entries. The
package's vectorised torus metric is checked against a scalar, one-pair
reference kept here.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cfpower.config import NetworkConfig
from cfpower.network import (_WRAP_SHIFTS, MIN_DISTANCE_M, _local_scattering,
                             build_statistics, drop_scenario, pathloss_beta,
                             place_aps, wrap_displacements)

# mpmath (50 digits): 10^((-30.5 - 36.7 log10(353)) / 10)
PATHLOSS_353M = 3.9780187997294197e-13
# the urban-microcell law of NetworkConfig: -30.5 dB at 1 m, 36.7 dB/decade
UMI = (NetworkConfig().pathloss_offset_db, NetworkConfig().pathloss_exponent)


def wrap_displacement(p, q, area_m):
    """Scalar reference: displacement q - p to the image of q closest to p.

    Ties resolve to the first image in the fixed shift order.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    cand = q + _WRAP_SHIFTS * area_m - p
    idx = int(np.argmin(np.einsum("ij,ij->i", cand, cand)))
    return cand[idx]


def wrap_distance(p, q, area_m):
    """Scalar reference torus distance, floored at MIN_DISTANCE_M."""
    dx, dy = wrap_displacement(p, q, area_m)
    return max(math.hypot(dx, dy), MIN_DISTANCE_M)


def brute_force_wrap(p, q, area):
    """Reference torus distance: try all 9 images with plain arithmetic."""
    best = float("inf")
    for sx in (-area, 0.0, area):
        for sy in (-area, 0.0, area):
            d = math.hypot(q[0] + sx - p[0], q[1] + sy - p[1])
            best = min(best, d)
    return max(best, 1.0)


def test_wrap_distance_known_case():
    # dx wraps to 500 either way, dy wraps from 800 to 200
    d = wrap_distance((100.0, 100.0), (600.0, 900.0), 1000.0)
    assert d == pytest.approx(math.sqrt(290000.0), rel=1e-15)


def test_wrap_distance_matches_brute_force():
    rng = np.random.default_rng(7)
    for area in (250.0, 1000.0):
        pts = rng.uniform(0.0, area, size=(40, 2))
        for i in range(20):
            p, q = pts[2 * i], pts[2 * i + 1]
            assert wrap_distance(p, q, area) == pytest.approx(
                brute_force_wrap(p, q, area), rel=1e-12)


@given(st.tuples(st.floats(0.0, 1000.0), st.floats(0.0, 1000.0)),
       st.tuples(st.floats(0.0, 1000.0), st.floats(0.0, 1000.0)))
def test_wrap_distance_property(p, q):
    d = wrap_distance(p, q, 1000.0)
    assert d == pytest.approx(brute_force_wrap(p, q, 1000.0), rel=1e-12)
    # symmetric and bounded by the half-diagonal (or the floor)
    assert d == pytest.approx(wrap_distance(q, p, 1000.0), rel=1e-12)
    assert d <= math.hypot(500.0, 500.0) * (1 + 1e-12)


def test_wrap_distance_floor():
    assert wrap_distance((5.0, 5.0), (5.0, 5.0), 100.0) == MIN_DISTANCE_M
    assert wrap_distance((5.0, 5.0), (5.2, 5.1), 100.0) == MIN_DISTANCE_M


def test_wrap_displacement_tie_is_deterministic():
    # both images of q sit 500 away; the fixed shift order picks -500
    dx, dy = wrap_displacement((0.0, 0.0), (500.0, 0.0), 1000.0)
    assert (dx, dy) == (-500.0, 0.0)


# coordinates on the quarter-area lattice put exact half-area ties in play
_coord = st.one_of(st.floats(0.0, 1000.0),
                   st.sampled_from([0.0, 250.0, 500.0, 750.0, 1000.0]))
_point = st.tuples(_coord, _coord)


@given(st.lists(_point, min_size=1, max_size=5),
       st.lists(_point, min_size=1, max_size=7))
def test_wrap_displacements_match_scalar(origins, targets):
    disp, d2 = wrap_displacements(origins, targets, 1000.0)
    assert disp.shape == (len(origins), len(targets), 2)
    for i, p in enumerate(origins):
        for j, q in enumerate(targets):
            ref = wrap_displacement(p, q, 1000.0)
            assert np.array_equal(disp[i, j], ref)
            assert d2[i, j] == pytest.approx(ref @ ref, rel=1e-15)
            assert max(math.sqrt(d2[i, j]), MIN_DISTANCE_M) == pytest.approx(
                wrap_distance(p, q, 1000.0), rel=1e-12)


def test_wrap_displacements_tie_picks_first_image():
    # (500, 500) away on both axes: four images tie, the first is (-1, -1)
    disp, d2 = wrap_displacements([(0.0, 0.0)], [(500.0, 500.0)], 1000.0)
    assert tuple(disp[0, 0]) == (-500.0, -500.0)
    assert d2[0, 0] == 500000.0


def test_pathloss_frozen_values():
    assert pathloss_beta(353.0, *UMI) == pytest.approx(PATHLOSS_353M,
                                                       rel=1e-12)
    # at the 1 m floor the law reduces to the offset alone
    assert pathloss_beta(1.0, *UMI) == 10.0 ** (-30.5 / 10.0)


def test_pathloss_monotone_decreasing():
    d = np.linspace(1.0, 1400.0, 200)
    beta = pathloss_beta(d, *UMI)
    assert np.all(np.diff(beta) < 0.0)


def test_pathloss_rejects_below_floor():
    with pytest.raises(ValueError):
        pathloss_beta(0.5, *UMI)
    with pytest.raises(ValueError):
        pathloss_beta(np.array([10.0, 0.99]), *UMI)


def test_pathloss_vector_matches_scalar():
    d = np.array([1.0, 42.0, 353.0, 900.0])
    out = pathloss_beta(d, *UMI)
    for i, di in enumerate(d):
        assert out[i] == pathloss_beta(float(di), *UMI)


def test_grid_placement_large_preset(large_cfg):
    aps = place_aps(large_cfg, seed=0)
    assert aps.shape == (16, 2)
    assert tuple(aps[0]) == (125.0, 125.0)
    # cell centers of a 4 x 4 tiling of the kilometre square
    centers = {125.0, 375.0, 625.0, 875.0}
    assert set(aps[:, 0]) == centers and set(aps[:, 1]) == centers


def test_grid_placement_desk(desk_cfg):
    aps = place_aps(desk_cfg, seed=0)
    expected = {(125.0, 125.0), (375.0, 125.0), (125.0, 375.0), (375.0, 375.0)}
    assert {tuple(p) for p in aps} == expected


def test_uniform_placement_is_seeded():
    cfg = NetworkConfig(L=6, K=4, ap_placement="uniform-random")
    a = place_aps(cfg, seed=11)
    b = place_aps(cfg, seed=11)
    c = place_aps(cfg, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all((a >= 0.0) & (a <= cfg.area_m))


def test_drop_scenario_shapes_and_distances(desk_cfg):
    scen = drop_scenario(desk_cfg, 5, place_aps(desk_cfg, 5))
    assert scen.ue_positions.shape == (desk_cfg.K, 2)
    assert scen.distances.shape == (desk_cfg.K, desk_cfg.L)
    for k in range(desk_cfg.K):
        for l in range(desk_cfg.L):
            assert scen.distances[k, l] == pytest.approx(
                brute_force_wrap(scen.ue_positions[k],
                                 scen.ap_positions[l], desk_cfg.area_m),
                rel=1e-12)


def test_drop_scenario_deterministic_and_ap_passthrough(desk_cfg):
    aps = place_aps(desk_cfg, desk_cfg.seed)
    moved = np.random.default_rng(6).uniform(0.0, desk_cfg.area_m,
                                             size=aps.shape)
    s1 = drop_scenario(desk_cfg, 5, aps)
    s2 = drop_scenario(desk_cfg, 5, moved)
    # UEs draw first, so the AP layout never shifts the drop
    assert np.array_equal(s1.ue_positions, s2.ue_positions)
    assert np.array_equal(s1.ap_positions, aps)
    assert np.array_equal(s2.ap_positions, moved)
    assert not np.array_equal(s1.distances, s2.distances)
    again = drop_scenario(desk_cfg, 5, aps)
    assert np.array_equal(again.ue_positions, s1.ue_positions)
    assert np.array_equal(again.distances, s1.distances)
    with pytest.raises(ValueError):
        drop_scenario(desk_cfg, 5, aps[:2])


def test_drop_mean_is_uniform(desk_cfg):
    # 200 drops x K UEs x 2 coords; mean of U(0, 500) is 250 with a
    # standard error near 1.6 m, so 6 m is a > 3 sigma band
    coords = np.concatenate([
        drop_scenario(desk_cfg, s, place_aps(desk_cfg, s)).ue_positions.ravel()
        for s in range(200)])
    assert abs(coords.mean() - 250.0) < 6.0
    assert coords.min() >= 0.0 and coords.max() <= 500.0


def test_statistics_uncorrelated(desk_cfg):
    scen = drop_scenario(desk_cfg, 9, place_aps(desk_cfg, 9))
    stats = build_statistics(desk_cfg, scen)
    K, L, N = desk_cfg.K, desk_cfg.L, desk_cfg.N
    assert stats.R.shape == (K, L, N, N)
    expected = pathloss_beta(scen.distances, *UMI)
    assert np.allclose(stats.beta, expected, rtol=1e-14)
    for k in range(K):
        for l in range(L):
            assert np.allclose(stats.R[k, l],
                               stats.beta[k, l] * np.eye(N), atol=0.0)


def gauss_hermite_entry(beta, phi, spread, delta, nodes=80):
    """Quadrature reference for one correlation entry.

    The model linearizes the angle around phi, so the entry is the Gaussian
    average of exp(i arg (sin phi + d cos phi)) over d ~ N(0, spread^2),
    integrated here with probabilists' Gauss-Hermite nodes.
    """
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    arg = 2.0 * np.pi * 0.5 * delta
    vals = np.exp(1j * arg * (np.sin(phi) + spread * x * np.cos(phi)))
    return beta * np.sum(w * vals) / np.sqrt(2.0 * np.pi)


def test_local_scattering_matches_quadrature():
    cfg = NetworkConfig(L=1, K=1, N=4, area_m=400.0, tau_p=1,
                        correlation_model="local-scattering",
                        angular_spread_deg=15.0)
    scen = drop_scenario(cfg, 21, place_aps(cfg, 21))
    stats = build_statistics(cfg, scen)
    R = stats.R[0, 0]
    beta = stats.beta[0, 0]
    dx, dy = wrap_displacement(scen.ap_positions[0], scen.ue_positions[0],
                               cfg.area_m)
    phi = math.atan2(dy, dx)
    spread = math.radians(15.0)
    for n in range(4):
        for m in range(4):
            ref = gauss_hermite_entry(beta, phi, spread, n - m)
            assert R[n, m] == pytest.approx(ref, rel=1e-10)


def test_local_scattering_structure(desk_cfg):
    cfg = replace(desk_cfg, correlation_model="local-scattering")
    stats = build_statistics(cfg, drop_scenario(cfg, 2, place_aps(cfg, 2)))
    K, L, N = cfg.K, cfg.L, cfg.N
    for k in range(K):
        for l in range(L):
            R = stats.R[k, l]
            assert np.allclose(R, R.conj().T, atol=1e-18)
            eig = np.linalg.eigvalsh(R)
            assert eig.min() >= -1e-12 * stats.beta[k, l]
            # trace normalization survives the eigenvalue clip
            assert np.trace(R).real / N == pytest.approx(
                stats.beta[k, l], rel=1e-10)


def test_local_scattering_zero_spread_is_rank_one():
    cfg = NetworkConfig(L=1, K=2, N=4, area_m=300.0, tau_p=1,
                        correlation_model="local-scattering",
                        angular_spread_deg=1e-9)
    stats = build_statistics(cfg, drop_scenario(cfg, 4, place_aps(cfg, 4)))
    for k in range(2):
        R = stats.R[k, 0]
        eig = np.linalg.eigvalsh(R)
        beta = stats.beta[k, 0]
        assert eig[-1] == pytest.approx(4 * beta, rel=1e-6)
        assert abs(eig[-2]) < 1e-6 * beta


def closed_form_correlation(beta, phi, spread, n):
    """The local-scattering closed form before the PSD clip, per link."""
    m = np.arange(n)
    arg = 2.0 * np.pi * 0.5 * (m[:, None] - m[None, :])
    beta, phi = beta[..., None, None], phi[..., None, None]
    return beta * np.exp(1j * arg * np.sin(phi)) \
        * np.exp(-0.5 * (spread * arg * np.cos(phi)) ** 2)


def test_local_scattering_clips_only_indefinite_links():
    # at a 1 mrad spread the closed form is nearly rank one, and rounding
    # leaves some links' smallest eigenvalue below zero, not all of them
    rng = np.random.default_rng(8)
    beta = 10.0 ** rng.uniform(-12.0, -8.0, size=(6, 8))
    phi = rng.uniform(-np.pi, np.pi, size=(6, 8))
    spread, n = 1e-3, 4
    R = _local_scattering(beta, phi, spread, n)
    ref = closed_form_correlation(beta, phi, spread, n)
    # eigh, as the package decides; eigvalsh can round the sign otherwise
    indefinite = np.linalg.eigh(ref)[0][..., 0] < 0.0
    # the batch mixes clipped and untouched links
    assert 0 < indefinite.sum() < indefinite.size
    assert np.array_equal(R[~indefinite], ref[~indefinite])
    clipped = R[indefinite]
    assert not np.array_equal(clipped, ref[indefinite])
    assert np.allclose(np.trace(clipped, axis1=1, axis2=2).real,
                       n * beta[indefinite], rtol=1e-12, atol=0.0)
    assert np.all(np.linalg.eigvalsh(clipped)[:, 0]
                  >= -1e-15 * beta[indefinite])


def test_scenario_is_frozen(desk_cfg):
    scen = drop_scenario(desk_cfg, 1, place_aps(desk_cfg, 1))
    with pytest.raises(AttributeError):
        scen.distances = None
