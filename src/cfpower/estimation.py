"""Channel realizations and per-AP MMSE channel estimation.

Channels are drawn as h = R^(1/2) z with z circularly-symmetric complex
Gaussian. Pilot observations at each AP are despread per pilot sequence,
so UEs sharing a pilot contaminate each other's estimates. Channel draws
and pilot-noise draws come from separate seeds.

Every per-link linear map (R^(1/2) and the MMSE filter) is applied to all
links at once by one batched matmul.
"""

from dataclasses import dataclass

import numpy as np

from .config import NetworkConfig
from .network import ChannelStatistics
from .pilots import PilotAssignment


@dataclass(frozen=True)
class ChannelBatch:
    """Realizations of true and estimated channels for one drop."""

    h: np.ndarray        # (n_real, K, L, N) complex
    h_hat: np.ndarray    # (n_real, K, L, N) complex

    @property
    def n_real(self):
        return self.h.shape[0]


def _apply_per_link(x, M):
    """out[:, k, l] = M[k, l] @ x[:, k, l] for x (n, K, L, N), M (K, L, N, N)."""
    out = np.empty(x.shape, dtype=complex)
    np.matmul(x.transpose(1, 2, 0, 3), np.swapaxes(M, -1, -2),
              out=out.transpose(1, 2, 0, 3))
    return out


def _sqrtm_psd(R):
    """Hermitian PSD square root of a stack of matrices via eigh."""
    eigval, eigvec = np.linalg.eigh(R)
    eigval = np.clip(eigval, 0.0, None)
    return (eigvec * np.sqrt(eigval)[..., None, :]) @ np.swapaxes(
        eigvec.conj(), -1, -2)


def sample_channels(stats: ChannelStatistics, n_real: int, seed) -> np.ndarray:
    """Draw (n_real, K, L, N) correlated Rayleigh channel realizations."""
    if n_real < 1:
        raise ValueError("n_real must be >= 1")
    K, L, N = stats.R.shape[:3]
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((n_real, K, L, N))
         + 1j * rng.standard_normal((n_real, K, L, N))) / np.sqrt(2.0)
    return _apply_per_link(z, _sqrtm_psd(stats.R))


def mmse_estimate(h: np.ndarray, stats: ChannelStatistics,
                  pilots: PilotAssignment, cfg: NetworkConfig,
                  noise_seed) -> ChannelBatch:
    """MMSE-estimate every AP-UE channel from contaminated pilot signals."""
    n_real, K, L, N = h.shape
    tau_p, p_ul, sigma2 = cfg.tau_p, cfg.p_ul, cfg.noise_power
    rng = np.random.default_rng(noise_seed)

    # despread observation per (pilot, AP):
    # y_t = sum_{i in group t} sqrt(tau_p p) h_i + n,  n ~ CN(0, sigma2 I)
    amp = np.sqrt(tau_p * p_ul)
    noise = (rng.standard_normal((n_real, tau_p, L, N))
             + 1j * rng.standard_normal((n_real, tau_p, L, N)))
    noise *= np.sqrt(sigma2 / 2.0)
    y = noise
    # psi[t, l] is the covariance of y_t at AP l, shared by the pilot group
    psi = np.empty((tau_p, L, N, N), dtype=complex)
    for t, group in enumerate(pilots.groups):
        psi[t] = sigma2 * np.eye(N)
        for i in group:
            y[:, t] += amp * h[:, i]
            psi[t] = psi[t] + tau_p * p_ul * stats.R[i]
    # cholesky doubles as the positive-definiteness assertion
    np.linalg.cholesky(psi)

    pilot_of = np.asarray(pilots.pilot_of, dtype=int)
    filters = amp * stats.R @ np.linalg.inv(psi)[pilot_of]
    return ChannelBatch(h=h, h_hat=_apply_per_link(y[:, pilot_of], filters))
