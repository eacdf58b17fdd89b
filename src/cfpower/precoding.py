"""Normalized per-AP precoding vectors from estimated channels."""

import logging

import numpy as np

from .estimation import ChannelBatch

log = logging.getLogger(__name__)

PRECODERS = ("mr", "rzf")

# norms below this are treated as a degenerate (zero) estimate
DEGENERATE_NORM = 1e-30


def compute_precoders(batch: ChannelBatch, scheme: str, p_ul: float,
                      sigma2: float) -> np.ndarray:
    """Unit-norm precoders, shape (n_real, K, L, N).

    mr:  w ~ h_hat
    rzf: w ~ (sum_i p_i h_hat_il h_hat_il^H + sigma2 I)^-1 p_k h_hat_kl

    Normalization is per coherence block, so every nonzero precoder has unit
    norm. Degenerate (zero) estimates give a zero precoder and a warning.
    """
    if scheme not in PRECODERS:
        raise ValueError(f"unknown precoding scheme {scheme!r}")
    hh = batch.h_hat
    n_real, K, L, N = hh.shape
    if scheme == "mr":
        w = hh.copy()
    else:
        # the estimates of all UEs per (realization, AP), as (r, L, N, K)
        rhs = np.moveaxis(hh, 1, 3)
        # per (realization, AP) regularized covariance of the estimates
        A = p_ul * np.matmul(rhs, np.swapaxes(rhs.conj(), -1, -2))
        A += sigma2 * np.eye(N)
        # solve A x = h_hat for all UEs at once
        x = np.linalg.solve(A, rhs)
        w = p_ul * np.moveaxis(x, 3, 1)
    norms = np.linalg.norm(w, axis=-1)
    degenerate = norms < DEGENERATE_NORM
    n_bad = int(degenerate.sum())
    if n_bad:
        log.warning("%d degenerate precoders left at zero", n_bad)
    safe = np.where(degenerate, 1.0, norms)
    w /= safe[..., None]
    w[degenerate] = 0.0
    return w
