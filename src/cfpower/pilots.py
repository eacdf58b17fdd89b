"""Greedy pilot assignment.

The first min(tau_p, K) UEs take the orthogonal pilots in index order. Every
later UE finds its strongest AP (by large-scale gain) and joins the pilot
whose current co-users interfere least at that AP. Output is deterministic
in UE index order; ties resolve to the lowest pilot / AP index via argmax
and argmin semantics.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PilotAssignment:
    """Pilot index per UE plus per-pilot co-user groups."""

    pilot_of: np.ndarray     # (K,) int, pilot index in [0, tau_p)
    groups: tuple            # tuple of tuples: UE indices sharing each pilot


def assign_pilots(beta: np.ndarray, tau_p: int) -> PilotAssignment:
    """Assign pilots greedily from the (K, L) large-scale gain matrix."""
    beta = np.asarray(beta, dtype=float)
    K = beta.shape[0]
    if tau_p < 1:
        raise ValueError("tau_p must be >= 1")
    pilot_of = np.zeros(K, dtype=int)
    n_orth = min(tau_p, K)
    pilot_of[:n_orth] = np.arange(n_orth)
    # load[t, l]: contamination already parked on pilot t, seen at AP l,
    # summed in UE index order
    load = np.zeros((tau_p, beta.shape[1]))
    load[:n_orth] += beta[:n_orth]
    for k in range(n_orth, K):
        master = int(np.argmax(beta[k]))
        pilot_of[k] = int(np.argmin(load[:, master]))
        load[pilot_of[k]] += beta[k]
    groups = tuple(
        tuple(int(i) for i in np.flatnonzero(pilot_of == t))
        for t in range(tau_p)
    )
    return PilotAssignment(pilot_of=pilot_of, groups=groups)
