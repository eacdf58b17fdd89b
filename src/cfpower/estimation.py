"""Channel realizations and per-AP MMSE channel estimation.

Channels are drawn as h = R^(1/2) z with z circularly-symmetric complex
Gaussian. Pilot observations at each AP are despread per pilot sequence,
so UEs sharing a pilot contaminate each other's estimates. Channel draws
and pilot-noise draws come from separate seeds.

Every per-link linear map (R^(1/2) and the MMSE filter) is applied to all
links of a realization tile at once by one batched matmul.

The Monte-Carlo front end runs in realization tiles (`realization_tiles`).
A tile is the largest whole number of the reduction's 64-realization
chunks whose (K, L, N) complex slice fits in 2 MiB, and a batch that fits
in 2 MiB is one tile: 64 realizations (1.3 MB) at `large`, a whole
1000-realization `desk` drop. Both draws keep the stream order of an
untiled draw: the real half is drawn in full, then the imaginary half tile
by tile, so no output bit depends on the tile size. At `large` with 1000
realizations the real halves are 10.2 MB (channels) and 5.1 MB (pilot
noise); besides them only `h`, `h_hat` (20.5 MB each) and tile-sized
temporaries exist.
"""

from dataclasses import dataclass

import numpy as np

from .config import NetworkConfig
from .network import ChannelStatistics
from .pilots import PilotAssignment


# realizations per reduction chunk, fixed for determinism (see se.py); 64
# was the fastest of 16..256 at the large preset. Every tile but the last is
# a whole number of chunks
_CHUNK = 64

# bytes of one tile's (K, L, N) complex slice; 2 MiB makes a `large` tile
# 64 realizations and a `desk` drop one tile
_TILE_BYTES = 2 ** 21


@dataclass(frozen=True)
class ChannelBatch:
    """Realizations of true and estimated channels for one drop."""

    h: np.ndarray        # (n_real, K, L, N) complex
    h_hat: np.ndarray    # (n_real, K, L, N) complex

    @property
    def n_real(self):
        return self.h.shape[0]


def realization_tiles(n_real, K, L, N):
    """Realization slices of the front end's tiles, in order."""
    row_bytes = 16 * K * L * N
    if n_real * row_bytes <= _TILE_BYTES:
        return [slice(0, n_real)]
    step = _CHUNK * max(1, _TILE_BYTES // (_CHUNK * row_bytes))
    return [slice(s, min(s + step, n_real)) for s in range(0, n_real, step)]


def _apply_per_link(x, M, out):
    """out[:, k, l] = M[k, l] @ x[:, k, l] for x and out (n, K, L, N) and
    M (K, L, N, N).

    The rows of one link lie K·L·N elements apart, so the product goes to a
    contiguous temporary and is copied over: tile after tile the temporary
    stays in cache, and a `large` drop took 16-18 ms per map against 27 ms
    for the product written in place.
    """
    out[...] = np.matmul(x.transpose(1, 2, 0, 3),
                         np.swapaxes(M, -1, -2)).transpose(2, 0, 1, 3)


def _sqrtm_psd(R):
    """Hermitian PSD square root of a stack of matrices via eigh."""
    eigval, eigvec = np.linalg.eigh(R)
    eigval = np.clip(eigval, 0.0, None)
    return (eigvec * np.sqrt(eigval)[..., None, :]) @ np.swapaxes(
        eigvec.conj(), -1, -2)


def _complex_normals(rng, shape, tiles):
    """Yield (tile, re + 1j im) per realization tile of a complex normal draw.

    The real half of the whole draw comes first, then the imaginary half
    tile by tile, which is the stream order of one untiled draw. The
    yielded array is a buffer reused by the next tile.
    """
    re = rng.standard_normal(shape)
    im = np.empty((tiles[0].stop,) + shape[1:])
    z = np.empty(im.shape, dtype=complex)
    for tile in tiles:
        n = tile.stop - tile.start
        rng.standard_normal(out=im[:n])
        np.multiply(1j, im[:n], out=z[:n])
        z[:n] += re[tile]
        yield tile, z[:n]


def sample_channels(stats: ChannelStatistics, n_real: int, seed) -> np.ndarray:
    """Draw (n_real, K, L, N) correlated Rayleigh channel realizations."""
    if n_real < 1:
        raise ValueError("n_real must be >= 1")
    K, L, N = stats.R.shape[:3]
    sqrt_R = _sqrtm_psd(stats.R)
    h = np.empty((n_real, K, L, N), dtype=complex)
    for tile, z in _complex_normals(np.random.default_rng(seed), h.shape,
                                    realization_tiles(*h.shape)):
        z /= np.sqrt(2.0)
        _apply_per_link(z, sqrt_R, h[tile])
    return h


def mmse_estimate(h: np.ndarray, stats: ChannelStatistics,
                  pilots: PilotAssignment, cfg: NetworkConfig,
                  noise_seed) -> ChannelBatch:
    """MMSE-estimate every AP-UE channel from contaminated pilot signals."""
    n_real, K, L, N = h.shape
    tau_p, p_ul, sigma2 = cfg.tau_p, cfg.p_ul, cfg.noise_power
    amp = np.sqrt(tau_p * p_ul)
    # psi[t, l] is the covariance of y_t at AP l, shared by the pilot group
    psi = np.empty((tau_p, L, N, N), dtype=complex)
    for t, group in enumerate(pilots.groups):
        psi[t] = sigma2 * np.eye(N)
        for i in group:
            psi[t] = psi[t] + tau_p * p_ul * stats.R[i]
    # cholesky doubles as the positive-definiteness assertion
    np.linalg.cholesky(psi)

    pilot_of = np.asarray(pilots.pilot_of, dtype=int)
    filters = amp * stats.R @ np.linalg.inv(psi)[pilot_of]
    h_hat = np.empty(h.shape, dtype=complex)
    # despread observation per (pilot, AP):
    # y_t = sum_{i in group t} sqrt(tau_p p) h_i + n,  n ~ CN(0, sigma2 I)
    for tile, y in _complex_normals(np.random.default_rng(noise_seed),
                                    (n_real, tau_p, L, N),
                                    realization_tiles(*h.shape)):
        y *= np.sqrt(sigma2 / 2.0)
        for t, group in enumerate(pilots.groups):
            for i in group:
                y[:, t] += amp * h[tile, i]
        _apply_per_link(y[:, pilot_of], filters, h_hat[tile])
    return ChannelBatch(h=h, h_hat=h_hat)
