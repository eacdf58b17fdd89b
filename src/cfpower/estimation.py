"""Channel realizations and per-AP MMSE channel estimation, tile by tile.

Channels are drawn as h = R^(1/2) z with z circularly-symmetric complex
Gaussian. Pilot observations at each AP are despread per pilot sequence,
so UEs sharing a pilot contaminate each other's estimates. Channel draws
and pilot-noise draws come from separate seeds.

Every per-link linear map (R^(1/2) and, unless every filter is a scalar,
the MMSE filter) is applied to all links of a realization tile at once by
one batched matmul.

The Monte-Carlo front end runs in realization tiles (`realization_tiles`).
A tile is the largest whole number of the reduction's 64-realization
chunks whose (K, L, N) complex slice fits in 2 MiB, and a batch that fits
in 2 MiB is one tile: 64 realizations (1.3 MB) at `large`, a whole
1000-realization `desk` drop. A drop's `ChannelDraw` and `MmseEstimator`
hand out one tile at a time, in realization order (`sample_channels`,
`mmse_estimate`), so no drop-sized channel or estimate array exists. Each
owns one draw, which holds its generator, its real half, one reused tile
buffer and its per-link map; the channels are mapped in place in that
buffer, the precoder directions in the tile's gather of the pilot
signals. Both draws keep the stream order of an untiled draw: the real
half is drawn in full with the first tile, then the imaginary half tile by
tile, so no output bit depends on the tile size. At `large` with 1000
realizations the real halves are 10.2 MB (channels) and 5.1 MB (pilot
noise), and each draw lets go of all it holds with its last tile.

Precoders are formed on J directions per tile, not on K estimates
(`DirectionLayout`). `MmseEstimator` picks the layout once per drop. When
every MMSE filter is a positive multiple c_kl I, as under uncorrelated
fading, UE k's estimate at AP l is c_kl y_t(k),l: pilot-sharing UEs have
parallel estimates and one unit-norm MR or RZF precoder, so the directions
are the despread signals of the used pilots (J = min(tau_p, K) under the
greedy assignment: 10 against K = 20 at `large`) and no filter is applied.
Otherwise the directions are the K per-UE estimates.
"""

from dataclasses import dataclass, field

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
class DirectionLayout:
    """How a drop's K channel estimates lie on J precoder directions.

    UE k's estimate at AP l is scale[k, l] d[:, unit_of[k], l] for a tile's
    directions d, with scale > 0, so UE k takes direction unit_of[k]'s
    unit-norm precoder. weight[j, l], the sum of scale[k, l]^2 over the UEs
    k of direction j, is direction j's share of AP l's RZF Gram matrix.
    """

    unit_of: np.ndarray  # (K,) int, onto range(J)
    scale: np.ndarray    # (K, L) float
    weight: np.ndarray = field(init=False)   # (J, L) float

    def __post_init__(self):
        weight = np.zeros((self.unit_of.max() + 1, self.scale.shape[1]))
        np.add.at(weight, self.unit_of, self.scale ** 2)
        object.__setattr__(self, "weight", weight)

    @classmethod
    def per_ue(cls, K: int, L: int) -> "DirectionLayout":
        """Each UE its own direction, its estimate itself."""
        return cls(unit_of=np.arange(K), scale=np.ones((K, L)))


@dataclass(frozen=True)
class ChannelBatch:
    """True channels and precoder directions of one realization tile.

    h is the channel draw's buffer, which the next tile overwrites; d is
    the tile's own array.
    """

    h: np.ndarray        # (n, K, L, N) complex
    d: np.ndarray        # (n, J, L, N) complex
    layout: DirectionLayout


def realization_tiles(n_real, K, L, N):
    """Realization slices of the front end's tiles, in order."""
    row_bytes = 16 * K * L * N
    if n_real * row_bytes <= _TILE_BYTES:
        return [slice(0, n_real)]
    step = _CHUNK * max(1, _TILE_BYTES // (_CHUNK * row_bytes))
    return [slice(s, min(s + step, n_real)) for s in range(0, n_real, step)]


def _apply_per_link(x, M):
    """x[:, k, l] = M[k, l] @ x[:, k, l], in place, for x (n, K, L, N) and
    M (K, L, N, N).

    The rows of one link lie K·L·N elements apart, so the product goes to a
    contiguous temporary and is copied back: tile after tile the temporary
    stays in cache, and a `large` drop took 16-18 ms per map against 27 ms
    for the product written in place.
    """
    x[...] = np.matmul(x.transpose(1, 2, 0, 3),
                       np.swapaxes(M, -1, -2)).transpose(2, 0, 1, 3)


def _sqrtm_psd(R):
    """Hermitian PSD square root of a stack of matrices via eigh."""
    eigval, eigvec = np.linalg.eigh(R)
    eigval = np.clip(eigval, 0.0, None)
    return (eigvec * np.sqrt(eigval)[..., None, :]) @ np.swapaxes(
        eigvec.conj(), -1, -2)


class _TiledDraw:
    """A complex normal draw of `shape` and the per-link map its tiles go
    through, handed out tile by tile.

    The real half of the whole draw comes with the first tile, then the
    imaginary half tile by tile, which is the stream order of one untiled
    draw. `take` returns the tile's normals, in a buffer that the next tile
    reuses, and the map; with the last tile the draw lets go of its
    generator, real half, buffers and map.
    """

    def __init__(self, seed, shape, per_link_map):
        self._rng = np.random.default_rng(seed)
        self._shape = shape
        self._done = 0          # realizations handed out
        self._map = per_link_map
        self._re = self._im = self._z = None

    def take(self, tile):
        if tile.start != self._done or tile.stop > self._shape[0]:
            raise ValueError("tiles must come in realization order")
        n = tile.stop - tile.start
        if self._done == 0:
            # the first tile is the largest
            self._re = self._rng.standard_normal(self._shape)
            self._im = np.empty((n,) + self._shape[1:])
            self._z = np.empty(self._im.shape, dtype=complex)
        im, z, per_link_map = self._im[:n], self._z[:n], self._map
        self._rng.standard_normal(out=im)
        np.multiply(1j, im, out=z)
        z += self._re[tile]
        self._done = tile.stop
        if self._done == self._shape[0]:
            self._rng = self._re = self._im = self._z = self._map = None
        return z, per_link_map


class ChannelDraw:
    """One drop's channel draw, which `sample_channels` hands out tile by
    tile; `tiles` are its realization tiles in order."""

    def __init__(self, stats: ChannelStatistics, n_real: int, seed):
        if n_real < 1:
            raise ValueError("n_real must be >= 1")
        shape = (n_real,) + stats.R.shape[:3]
        self.tiles = realization_tiles(*shape)
        self.normals = _TiledDraw(seed, shape, _sqrtm_psd(stats.R))


def sample_channels(draw: ChannelDraw, tile: slice) -> np.ndarray:
    """The (n, K, L, N) correlated Rayleigh channels of the next tile, in
    the draw's buffer."""
    z, sqrt_R = draw.normals.take(tile)
    z /= np.sqrt(2.0)
    _apply_per_link(z, sqrt_R)
    return z


def _mmse_filters(R, pilots, pilot_of, cfg):
    """amp R_kl Psi_tl^-1 per link, t the pilot of UE k."""
    tau_p, p_ul, sigma2 = cfg.tau_p, cfg.p_ul, cfg.noise_power
    L, N = R.shape[1], R.shape[2]
    # psi[t, l] is the covariance of y_t at AP l, shared by the pilot group
    psi = np.empty((tau_p, L, N, N), dtype=complex)
    for t, group in enumerate(pilots.groups):
        psi[t] = sigma2 * np.eye(N)
        for i in group:
            psi[t] = psi[t] + tau_p * p_ul * R[i]
    # cholesky doubles as the positive-definiteness assertion
    np.linalg.cholesky(psi)
    return np.sqrt(tau_p * p_ul) * R @ np.linalg.inv(psi)[pilot_of]


def _scalar_filters(filters):
    """c (K, L) when every filter is c_kl I with c_kl > 0, else None."""
    c = filters[..., 0, 0].real
    N = filters.shape[-1]
    if np.all(c > 0.0) and np.array_equal(filters,
                                          c[..., None, None] * np.eye(N)):
        return c
    return None


class MmseEstimator:
    """One drop's pilot noise, MMSE filters and direction layout, which
    `mmse_estimate` applies tile by tile.

    With scalar filters the directions are the used pilots' signals
    (`gather`) and no filter is applied; otherwise they are the per-UE
    estimates, the pilot signals gathered per UE and filtered.
    """

    def __init__(self, stats: ChannelStatistics, pilots: PilotAssignment,
                 cfg: NetworkConfig, n_real: int, noise_seed):
        K, L, N = stats.R.shape[:3]
        self.pilots = pilots
        self.cfg = cfg
        pilot_of = np.asarray(pilots.pilot_of, dtype=int)
        filters = _mmse_filters(stats.R, pilots, pilot_of, cfg)
        c = _scalar_filters(filters)
        if c is None:
            self.gather = pilot_of
            self.layout = DirectionLayout.per_ue(K, L)
        else:
            self.gather, unit_of = np.unique(pilot_of, return_inverse=True)
            self.layout = DirectionLayout(unit_of=unit_of, scale=c)
            filters = None
        self.noise = _TiledDraw(noise_seed, (n_real, cfg.tau_p, L, N),
                                filters)


def mmse_estimate(h: np.ndarray, est: MmseEstimator,
                  tile: slice) -> ChannelBatch:
    """The precoder directions of a tile from contaminated pilot signals;
    h is the tile's channels from `sample_channels`."""
    cfg = est.cfg
    # despread observation per (pilot, AP):
    # y_t = sum_{i in group t} sqrt(tau_p p) h_i + n,  n ~ CN(0, sigma2 I)
    y, filters = est.noise.take(tile)
    y *= np.sqrt(cfg.noise_power / 2.0)
    amp = np.sqrt(cfg.tau_p * cfg.p_ul)
    for t, group in enumerate(est.pilots.groups):
        for i in group:
            y[:, t] += amp * h[:, i]
    d = y[:, est.gather]
    if filters is not None:
        _apply_per_link(d, filters)
    return ChannelBatch(h=h, d=d, layout=est.layout)
