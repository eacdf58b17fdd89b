"""Closed-form power allocation baselines driven by large-scale gains only.

Two fractional schemes share the same numerator beta^v but normalize along
different axes:

  per-AP coefficients   rho1_kl = sqrt(P) * beta_kl^v / sum_i beta_il^v
  per-UE ratios         rho2_kl = sqrt(P) * beta_kl^v / sum_l' beta_kl'^v

rho1 columns sum to sqrt(P) over UEs, rho2 rows sum to sqrt(P) over APs.
Both are scale-invariant in beta. The baseline allocator turns rho1 into a
budget-saturating allocation; equal power splits each AP budget evenly.
v and P have no defaults here: callers pass NetworkConfig's v_exponent and
p_max_dl.
"""

import numpy as np

from .se import PowerAllocation


def _fractional(beta, v, p_max, axis):
    """sqrt(P) * beta^v over its sum along `axis`: rho1 (axis 0) or rho2
    (axis 1)."""
    beta = np.asarray(beta, dtype=float)
    if np.any(beta <= 0.0):
        raise ValueError("beta must be strictly positive")
    num = beta ** v
    return np.sqrt(p_max) * num / num.sum(axis=axis, keepdims=True)


def fractional_coefficients(beta, v, p_max):
    """Per-AP normalized coefficients rho1, shape (K, L)."""
    return _fractional(beta, v, p_max, axis=0)


def side_info_ratios(beta, v, p_max):
    """Per-UE normalized ratios rho2, shape (K, L)."""
    return _fractional(beta, v, p_max, axis=1)


def heuristic_allocation(beta, v, p_max) -> PowerAllocation:
    """Fractional allocation rescaled to saturate every AP budget.

    The per-AP coefficients sum to sqrt(P) per column, so multiplying by
    sqrt(P) yields powers that sum to exactly P at each AP; mu is their
    square root.
    """
    rho = np.sqrt(p_max) * fractional_coefficients(beta, v, p_max)
    return PowerAllocation(mu=np.sqrt(rho), p_max=p_max)


def equal_power(K: int, L: int, p_max: float) -> PowerAllocation:
    """mu_kl = sqrt(P/K) everywhere: each AP splits its budget evenly."""
    mu = np.full((K, L), np.sqrt(p_max / K))
    return PowerAllocation(mu=mu, p_max=p_max)
