"""Greedy pilot assignment: hand-worked cases and structural invariants."""

import numpy as np
import pytest

from cfpower.pilots import assign_pilots


def test_orthogonal_when_pilots_cover_ues():
    beta = np.ones((3, 2))
    pa = assign_pilots(beta, tau_p=5)
    assert list(pa.pilot_of) == [0, 1, 2]
    assert pa.groups == ((0,), (1,), (2,), (), ())
    assert pa.groups[pa.pilot_of[1]] == (1,)


def test_hand_worked_contamination_case():
    # UE2's strongest AP is AP1 (0.9). Pilot 0 carries UE0 with gain 0.1
    # there, pilot 1 carries UE1 with 0.2, so UE2 joins pilot 0.
    beta = np.array([[1.0, 0.1],
                     [0.5, 0.2],
                     [0.3, 0.9]])
    pa = assign_pilots(beta, tau_p=2)
    assert list(pa.pilot_of) == [0, 1, 0]
    assert pa.groups == ((0, 2), (1,))
    assert pa.groups[pa.pilot_of[2]] == (0, 2)
    assert pa.groups[pa.pilot_of[1]] == (1,)


def test_hand_worked_case_prefers_other_pilot():
    # same geometry, but now UE0 is loud at AP1 (0.4 > 0.2): UE2 flips to
    # pilot 1
    beta = np.array([[1.0, 0.4],
                     [0.5, 0.2],
                     [0.3, 0.9]])
    pa = assign_pilots(beta, tau_p=2)
    assert list(pa.pilot_of) == [0, 1, 1]
    assert pa.groups == ((0,), (1, 2))


def test_tie_resolves_to_lowest_pilot():
    beta = np.ones((3, 2))
    pa = assign_pilots(beta, tau_p=2)
    # equal contamination on both pilots: argmin takes pilot 0
    assert list(pa.pilot_of) == [0, 1, 0]


def test_single_pilot_everyone_shares():
    beta = np.arange(1, 9, dtype=float).reshape(4, 2)
    pa = assign_pilots(beta, tau_p=1)
    assert list(pa.pilot_of) == [0, 0, 0, 0]
    assert pa.groups == ((0, 1, 2, 3),)


def test_tau_p_must_be_positive():
    with pytest.raises(ValueError):
        assign_pilots(np.ones((2, 2)), tau_p=0)


def test_groups_partition_the_ues():
    rng = np.random.default_rng(0)
    for seed in range(8):
        K, L, tau_p = 11, 3, 4
        beta = rng.lognormal(size=(K, L))
        pa = assign_pilots(beta, tau_p)
        seen = sorted(k for g in pa.groups for k in g)
        assert seen == list(range(K))
        for t, g in enumerate(pa.groups):
            for k in g:
                assert pa.pilot_of[k] == t


def test_greedy_choice_minimizes_master_load():
    # re-derive each later UE's choice independently from the definition
    rng = np.random.default_rng(5)
    K, L, tau_p = 9, 4, 3
    beta = rng.lognormal(size=(K, L))
    pa = assign_pilots(beta, tau_p)
    for k in range(tau_p, K):
        master = int(np.argmax(beta[k]))
        load = np.zeros(tau_p)
        for i in range(k):
            load[pa.pilot_of[i]] += beta[i, master]
        assert load[pa.pilot_of[k]] == load.min()


def test_assignment_is_deterministic():
    beta = np.random.default_rng(1).lognormal(size=(10, 4))
    a = assign_pilots(beta, 3)
    b = assign_pilots(beta, 3)
    assert np.array_equal(a.pilot_of, b.pilot_of)
    assert a.groups == b.groups


def loop_assign_pilots(beta, tau_p):
    """The greedy rule as a plain loop: each later UE sums, pilot by
    pilot, the gains of all earlier UEs at its master AP."""
    K = beta.shape[0]
    pilot_of = np.zeros(K, dtype=int)
    n_orth = min(tau_p, K)
    pilot_of[:n_orth] = np.arange(n_orth)
    for k in range(n_orth, K):
        master = int(np.argmax(beta[k]))
        load = np.zeros(tau_p)
        for i in range(k):
            load[pilot_of[i]] += beta[i, master]
        pilot_of[k] = int(np.argmin(load))
    return pilot_of


def test_assignment_matches_the_plain_loop():
    # random sizes, and gains drawn from a few integers so that master
    # APs and pilot loads tie
    rng = np.random.default_rng(11)
    for case in range(400):
        K = int(rng.integers(1, 40))
        L = int(rng.integers(1, 8))
        tau_p = int(rng.integers(1, 12))
        if case % 2:
            beta = rng.integers(0, 3, size=(K, L)).astype(float)
            beta[rng.integers(0, K)] = beta[0]
        else:
            beta = rng.lognormal(-20.0, 3.0, size=(K, L))
        assert np.array_equal(assign_pilots(beta, tau_p).pilot_of,
                              loop_assign_pilots(beta, tau_p)), case
