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
    """Unit-norm precoders of the batch's directions, shape (n_real, J, L,
    N); UE k's precoder is w[:, unit_of[k]] (see `DirectionLayout`).

    mr:  w_j ~ d_j
    rzf: w_j ~ (p sum_i s_il d_il d_il^H + sigma2 I)^-1 p d_jl, with s the
         layout's Gram weights, so the Gram matrix is the sum over UEs of
         p h_hat h_hat^H

    Normalization is per coherence block, so every nonzero precoder has unit
    norm. Degenerate (zero) directions give a zero precoder and a warning.
    """
    if scheme not in PRECODERS:
        raise ValueError(f"unknown precoding scheme {scheme!r}")
    d = batch.d
    N = d.shape[-1]
    if scheme == "mr":
        w = d.copy()
    else:
        # the directions per (realization, AP), as (r, L, N, J)
        rhs = np.moveaxis(d, 1, 3)
        # per (realization, AP) regularized covariance of the estimates
        A = p_ul * np.matmul(rhs * batch.layout.weight.T[:, None],
                             np.swapaxes(rhs.conj(), -1, -2))
        A += sigma2 * np.eye(N)
        # solve A x = d for all directions at once
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
