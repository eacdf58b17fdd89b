"""Scenario geometry and large-scale channel statistics.

The service area is a square with wrap-around (torus) distances, so the
simulated patch behaves like the interior of a much larger network. Each
AP-UE link gets a large-scale gain from an urban-microcell pathloss law and
a spatial correlation matrix, either white (beta * I) or from a Gaussian
local-scattering profile for a half-wavelength uniform linear array.
`wrap_displacements` is the one torus metric: distances take it per (UE, AP)
pair, arrival angles per (AP, UE) pair. All links' correlation matrices are
built at once, with one batched eigendecomposition for their PSD clip.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import NetworkConfig

# distances below 1 m are floored so the pathloss law stays below 0 dB
MIN_DISTANCE_M = 1.0

# the 9 torus images of a point: the original plus 8 shifted copies
_WRAP_SHIFTS = np.array(
    [[i, j] for i in (-1.0, 0.0, 1.0) for j in (-1.0, 0.0, 1.0)]
)

ANTENNA_SPACING = 0.5  # in wavelengths, along the x axis


def wrap_displacements(origins, targets, area_m):
    """Nearest-image displacements target - origin on the torus.

    Returns (disp, d2): disp (len(origins), len(targets), 2) holds, for
    every pair, the displacement to the image of the target closest to the
    origin, and d2 its squared length. Ties resolve to the first image in
    the fixed shift order.
    """
    a = np.asarray(origins, dtype=float)[:, None, None, :]
    b = np.asarray(targets, dtype=float)[None, :, None, :]
    cand = b + _WRAP_SHIFTS[None, None, :, :] * area_m - a
    cand_d2 = np.einsum("abij,abij->abi", cand, cand)
    idx = np.argmin(cand_d2, axis=-1)
    i, j = np.indices(idx.shape, sparse=True)
    return cand[i, j, idx], cand_d2[i, j, idx]


def pathloss_beta(distance_m, offset_db, exponent_db):
    """Large-scale channel gain (linear) at the given distance in meters,
    for a median gain `offset_db` at 1 m and `exponent_db` dB per decade."""
    d = np.asarray(distance_m, dtype=float)
    if np.any(d < MIN_DISTANCE_M):
        raise ValueError("distance below the 1 m floor")
    beta_db = offset_db - exponent_db * np.log10(d)
    out = 10.0 ** (beta_db / 10.0)
    return float(out) if np.isscalar(distance_m) else out


@dataclass(frozen=True)
class Scenario:
    """One network drop: AP and UE positions plus wrap-around distances."""

    ap_positions: np.ndarray   # (L, 2)
    ue_positions: np.ndarray   # (K, 2)
    distances: np.ndarray      # (K, L)
    area_m: float


def place_aps(cfg: NetworkConfig, seed) -> np.ndarray:
    """AP coordinates, deterministic for grid placement, seeded otherwise.

    Grid placement puts APs at the centers of a sqrt(L) x sqrt(L) tiling of
    the square, so wrap-around spacing is uniform.
    """
    if cfg.ap_placement == "grid":
        # NetworkConfig rejects a grid of non-square L
        side = math.isqrt(cfg.L)
        step = cfg.area_m / side
        centers = step * (np.arange(side) + 0.5)
        xx, yy = np.meshgrid(centers, centers, indexing="xy")
        return np.column_stack([xx.ravel(), yy.ravel()])
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, cfg.area_m, size=(cfg.L, 2))


def drop_scenario(cfg: NetworkConfig, seed, ap_positions) -> Scenario:
    """Drop K UEs uniformly on the square around the given APs.

    AP positions are infrastructure, placed once per dataset by
    `place_aps`; the UEs draw from `seed` alone, so the layout never
    shifts them.
    """
    rng = np.random.default_rng(seed)
    ue = rng.uniform(0.0, cfg.area_m, size=(cfg.K, 2))
    ap = np.asarray(ap_positions, dtype=float)
    if ap.shape != (cfg.L, 2):
        raise ValueError(f"expected ({cfg.L}, 2) AP positions, got {ap.shape}")
    d2 = wrap_displacements(ue, ap, cfg.area_m)[1]
    dist = np.maximum(np.sqrt(d2), MIN_DISTANCE_M)
    return Scenario(ap_positions=ap, ue_positions=ue, distances=dist,
                    area_m=cfg.area_m)


@dataclass(frozen=True)
class ChannelStatistics:
    """Per-link second-order statistics for one drop."""

    beta: np.ndarray   # (K, L) large-scale gains, linear
    R: np.ndarray      # (K, L, N, N) complex spatial correlation, tr/N = beta


def _local_scattering(beta, phi, spread_rad, n_antennas):
    """Closed-form Gaussian angular-spread ULA correlations, trace = N*beta.

    beta and phi are arrays of one shape S; the result is (*S, N, N).
    """
    m = np.arange(n_antennas)
    arg = 2.0 * np.pi * ANTENNA_SPACING * (m[:, None] - m[None, :])
    beta, phi = beta[..., None, None], phi[..., None, None]
    R = beta * np.exp(1j * arg * np.sin(phi)) \
        * np.exp(-0.5 * (spread_rad * arg * np.cos(phi)) ** 2)
    # the closed form can be slightly indefinite; clip those links and
    # restore their trace
    eigval, eigvec = np.linalg.eigh(R)
    neg = eigval[..., 0] < 0.0
    if np.any(neg):
        val, vec = np.clip(eigval[neg], 0.0, None), eigvec[neg]
        clipped = (vec * val[:, None, :]) @ np.swapaxes(vec, -1, -2).conj()
        trace = np.trace(clipped, axis1=-2, axis2=-1).real
        R[neg] = clipped * (n_antennas * beta[neg] / trace[:, None, None])
    return R


def build_statistics(cfg: NetworkConfig, scenario: Scenario) -> ChannelStatistics:
    """Pathloss plus correlation matrices for every AP-UE pair."""
    beta = pathloss_beta(scenario.distances, cfg.pathloss_offset_db,
                         cfg.pathloss_exponent)
    if cfg.correlation_model == "uncorrelated":
        R = (beta[:, :, None, None] * np.eye(cfg.N)).astype(complex)
    else:
        # angle of arrival at each AP: displacement AP -> UE, as (K, L)
        disp = wrap_displacements(scenario.ap_positions,
                                  scenario.ue_positions, cfg.area_m)[0]
        phi = np.arctan2(disp[..., 1], disp[..., 0]).T
        R = _local_scattering(beta, phi, math.radians(cfg.angular_spread_deg),
                              cfg.N)
    return ChannelStatistics(beta=beta, R=R)
