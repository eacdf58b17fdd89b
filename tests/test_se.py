"""Hardening-bound SE estimation and evaluation.

Independent oracles anchor the Monte-Carlo estimator. First, a scalar
maximum-ratio case where both coefficients are known in closed form: with a
CN(0, c) estimate the signal coefficient is the Rayleigh mean sqrt(pi c / 4)
and the second moment collapses to the full channel gain beta. The frozen
literals below were computed with mpmath at 50 digits for a 200 m link under
the desk preset's pilot and noise numbers. Second, a naive double-loop
estimator recomputes (a, B) entry by entry on small batches and must agree
to machine precision. Third, the running sums that `build_sample` adds its
tiles to must give the bytes of the one-shot front end in `conftest.py`,
whatever the tile size. Fourth, every realization's h_hat^H w must be real
and nonnegative, the phase convention that lets a be the modulus of the
mean; the reduction itself does not check it.
"""

import hashlib
import struct
from dataclasses import replace

import numpy as np
import pytest

from cfpower import estimation, pipeline, se
from cfpower.cli import resolve_config
from cfpower.config import NetworkConfig
from cfpower.estimation import ChannelBatch, DirectionLayout
from cfpower.network import (ChannelStatistics, build_statistics,
                             drop_scenario, place_aps)
from cfpower.pipeline import TEST_NAMESPACE, build_sample, sample_seeds
from cfpower.pilots import assign_pilots
from cfpower.precoding import compute_precoders
from cfpower.se import (BUDGET_SLACK, MomentSums, PowerAllocation,
                        SEParameters, compute_se, effective_sinr,
                        estimate_se_parameters)
from conftest import per_ue_B

BETA_200M = 3.2005153607261727e-12
C_200M = 2.2624427929150797e-12          # tau_p p beta^2 / (tau_p p beta + s2)
A_RAYLEIGH = 1.3330110330928612e-6       # sqrt(pi c / 4)


def test_rayleigh_mean_oracle(tiled):
    cfg = NetworkConfig(L=1, K=1, N=1, area_m=500.0, tau_p=3)
    stats = ChannelStatistics(beta=np.array([[BETA_200M]]),
                              R=BETA_200M * np.ones((1, 1, 1, 1), complex))
    pilots = assign_pilots(stats.beta, cfg.tau_p)
    batch = tiled.front_end(stats, pilots, cfg, 100000, 100, 101)
    w = compute_precoders(batch, "mr", cfg.p_ul, cfg.noise_power)
    params = tiled.se_parameters(batch, w, cfg)
    assert params.a[0, 0] == pytest.approx(A_RAYLEIGH, rel=0.01)
    # E|h^H w|^2 equals beta: the estimate contributes c, the error beta - c
    assert params.B[0, 0, 0, 0] == pytest.approx(BETA_200M, rel=0.01)
    assert params.sigma2 == cfg.noise_power
    assert params.prelog == cfg.prelog


def naive_estimates(h, w):
    """Entry-by-entry reference estimator with no shared indexing."""
    n, K, L, _ = h.shape
    a = np.zeros((K, L))
    B = np.zeros((K, K, L, L))
    for k in range(K):
        for l in range(L):
            vals = [np.vdot(h[r, k, l], w[r, k, l]) for r in range(n)]
            a[k, l] = abs(sum(vals) / n)
    for k in range(K):
        for i in range(K):
            for l in range(L):
                for m in range(L):
                    acc = 0.0 + 0.0j
                    for r in range(n):
                        gl = np.vdot(h[r, k, l], w[r, i, l])
                        gm = np.vdot(h[r, k, m], w[r, i, m])
                        acc += gl * np.conj(gm)
                    B[k, i, l, m] = (acc / n).real
    return a, B


def random_batch(n_real, K=2, L=2, N=2, seed=0):
    rng = np.random.default_rng(seed)
    shape = (n_real, K, L, N)
    h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    w /= np.linalg.norm(w, axis=-1, keepdims=True)
    return h, w


@pytest.mark.parametrize("n_real", [128, 300])
def test_estimator_matches_naive_loops(tiled, n_real):
    # 128 is an exact multiple of the realization chunk; 300 ends in a
    # partial chunk
    assert 128 % se._CHUNK == 0 and 300 % se._CHUNK != 0
    h, w = random_batch(n_real)
    cfg = NetworkConfig(L=2, K=2, N=2, area_m=300.0, tau_p=2,
                        ap_placement="uniform-random")
    params = tiled.se_parameters(tiled.per_ue_batch(h, w), w, cfg)
    a_ref, b_ref = naive_estimates(h, w)
    assert np.allclose(params.a, a_ref, rtol=1e-12, atol=1e-15)
    assert np.allclose(params.B, b_ref, rtol=1e-12, atol=1e-15)
    assert params.n_real == n_real


def test_estimator_input_guards():
    layout = DirectionLayout.per_ue(2, 2)
    with pytest.raises(ValueError, match="100"):
        MomentSums(layout, 99)
    h, w = random_batch(128)
    cfg = NetworkConfig(L=2, K=2, N=2, area_m=300.0, tau_p=2,
                        ap_placement="uniform-random")
    batch = ChannelBatch(h=h, d=w, layout=layout)
    with pytest.raises(ValueError, match="shape"):
        estimate_se_parameters(batch, w[:, :1], MomentSums(layout, 128))
    # extra realizations are not sliced away
    with pytest.raises(ValueError, match="shape"):
        estimate_se_parameters(batch, np.concatenate([w, w[:5]]),
                               MomentSums(layout, 128))
    # the sums expand B by their own layout, so a tile must carry it
    with pytest.raises(ValueError, match="layout"):
        estimate_se_parameters(batch, w, MomentSums(
            DirectionLayout.per_ue(2, 2), 128))
    # more realizations than the sums expect, or a tile after a partial
    # chunk, would change the chunking
    with pytest.raises(ValueError, match="chunks"):
        estimate_se_parameters(batch, w, MomentSums(layout, 127))
    sums = estimate_se_parameters(
        ChannelBatch(h=h[:100], d=w[:100], layout=layout), w[:100],
        MomentSums(layout, 128))
    with pytest.raises(ValueError, match="chunks"):
        estimate_se_parameters(
            ChannelBatch(h=h[100:], d=w[100:], layout=layout), w[100:], sums)
    # the estimate needs every realization
    with pytest.raises(ValueError, match="100 of 128"):
        sums.finish(cfg)


def test_estimator_takes_precoders_per_tile(oneshot):
    cfg = NetworkConfig(L=2, K=2, N=2, area_m=300.0, tau_p=2,
                        ap_placement="uniform-random")
    for n_real in (100, 300):
        h, w = random_batch(n_real, seed=4)
        a_ref, b_ref = oneshot.moments(h, w)
        # tiles of 64 and 192 realizations, then one tile
        for step in (se._CHUNK, 3 * se._CHUNK, n_real):
            layout = DirectionLayout.per_ue(2, 2)
            sums = MomentSums(layout, n_real)
            for start in range(0, n_real, step):
                tile = slice(start, start + step)
                estimate_se_parameters(
                    ChannelBatch(h=h[tile], d=w[tile], layout=layout),
                    w[tile], sums)
            params = sums.finish(cfg)
            assert np.array_equal(params.a, a_ref)
            assert np.array_equal(params.B, b_ref)


# (preset, correlation model, precoder, realizations); at 64-realization
# tiles every count here ends in a partial tile
FRONT_END_CASES = [
    ("large", "uncorrelated", "rzf", 1000),
    ("large", "local-scattering", "mr", 1000),
    ("large", "local-scattering", "rzf", 300),
    ("large", "uncorrelated", "mr", 100),
    ("desk", "uncorrelated", "rzf", 1000),
    ("desk", "local-scattering", "mr", 1000),
    ("desk", "local-scattering", "rzf", 300),
    ("desk", "uncorrelated", "mr", 100),
]


@pytest.mark.parametrize("preset,correlation,precoder,n_real",
                         FRONT_END_CASES)
def test_tiled_build_sample_gives_the_oneshot_bytes(
        monkeypatch, oneshot, preset, correlation, precoder, n_real):
    cfg = replace(resolve_config(preset), correlation_model=correlation)
    aps = place_aps(cfg, cfg.seed)
    index = 2
    batch_ref, ref = oneshot.sample(cfg, aps, cfg.seed, TEST_NAMESPACE,
                                    index, precoder, n_real)
    h = batch_ref.h
    seen = []
    reduce_tile = pipeline.estimate_se_parameters

    def spy(batch, w, sums):
        # the channel draw reuses its buffer, so the spy keeps copies
        seen.append((batch.h.copy(), batch.d))
        layouts.append(batch.layout)
        return reduce_tile(batch, w, sums)
    monkeypatch.setattr(pipeline, "estimate_se_parameters", spy)
    layouts = []
    row_bytes = h[0].nbytes
    sizes = set()
    # 64-realization tiles, 192-realization tiles, one tile
    for budget in (1, 3 * se._CHUNK * row_bytes, n_real * row_bytes):
        monkeypatch.setattr(estimation, "_TILE_BYTES", budget)
        tiles = estimation.realization_tiles(*h.shape)
        sizes.add(tiles[0].stop)
        sample = build_sample(cfg, aps, cfg.seed, TEST_NAMESPACE, index,
                              precoder, n_real)
        assert [t.shape[0] for t, _ in seen] == \
            [t.stop - t.start for t in tiles]
        assert np.array_equal(np.concatenate([t for t, _ in seen]), h)
        assert np.array_equal(np.concatenate([t for _, t in seen]),
                              batch_ref.d)
        # every tile carries the drop's one layout, the oracle's
        assert all(lay is layouts[0] for lay in layouts)
        assert np.array_equal(layouts[0].unit_of, batch_ref.layout.unit_of)
        assert np.array_equal(layouts[0].scale, batch_ref.layout.scale)
        seen.clear()
        layouts.clear()
        assert np.array_equal(sample.params.a, ref.a)
        assert np.array_equal(per_ue_B(sample.params), ref.B)
        assert sample.params.digest() == ref.digest()
    assert len(sizes) == (2 if n_real <= 192 else 3)


def relative_drift(params, ref):
    """Largest |a - a_ref| / a_ref, and largest |B - B_ref| over the entry's
    Cauchy-Schwarz bound sqrt(B_ref[k, i, l, l] B_ref[k, i, m, m])."""
    da = np.max(np.abs(params.a - ref.a) / ref.a)
    B, B_ref = per_ue_B(params), per_ue_B(ref)
    diag = np.diagonal(B_ref, axis1=2, axis2=3)
    bound = np.sqrt(diag[..., :, None] * diag[..., None, :])
    return da, np.max(np.abs(B - B_ref) / bound)


@pytest.mark.parametrize("precoder", ["mr", "rzf"])
@pytest.mark.parametrize("preset,n_real", [("desk", 1000), ("large", 300)])
def test_per_pilot_directions_give_the_per_ue_moments(monkeypatch, preset,
                                                      n_real, precoder):
    # uncorrelated fading makes every MMSE filter c_kl I, so the front end
    # precodes one direction per pilot; forced onto one direction per UE it
    # must give the same (a, B) up to roundoff
    cfg = resolve_config(preset)
    aps = place_aps(cfg, cfg.seed)
    n_dirs = []
    precode = pipeline.compute_precoders

    def spy(batch, *args):
        n_dirs.append(batch.d.shape[1])
        return precode(batch, *args)
    monkeypatch.setattr(pipeline, "compute_precoders", spy)
    samples = [build_sample(cfg, aps, cfg.seed, TEST_NAMESPACE, 1, precoder,
                            n_real)]
    monkeypatch.setattr(estimation, "_scalar_filters", lambda filters: None)
    samples.append(build_sample(cfg, aps, cfg.seed, TEST_NAMESPACE, 1,
                                precoder, n_real))
    per_pilot, per_ue = (s.params for s in samples)
    assert set(n_dirs) == {cfg.tau_p, cfg.K}
    # B is held once per pilot, J = tau_p blocks per UE, with no per-UE copy
    assert per_pilot.B.nbytes == cfg.K * cfg.tau_p * cfg.L ** 2 * 8
    assert np.array_equal(per_ue.unit_of, np.arange(cfg.K))
    # the solver views B as (K, J*L*L), which copies unless it is C-ordered
    assert per_pilot.B.flags.c_contiguous and per_ue.B.flags.c_contiguous
    assert max(relative_drift(per_pilot, per_ue)) <= 1e-10
    # pilot-sharing UEs have one precoder, so their B columns are one
    expanded = per_ue_B(per_pilot)
    for group in assign_pilots(samples[0].beta, cfg.tau_p).groups:
        for i in group[1:]:
            assert np.array_equal(expanded[:, i], expanded[:, group[0]])


def phase_faults(h_hat, w, unit_of):
    """Entries of h_hat_kl^H w_u(k),l, per realization, that are not real
    and nonnegative: |Im| above 1e-8 |Re|, or Re below zero."""
    z = np.einsum("rkln,rkln->rkl", h_hat.conj(), w[:, unit_of])
    return int(np.sum((np.abs(z.imag) > 1e-8 * np.abs(z.real))
                      | (z.real < 0.0)))


@pytest.mark.parametrize("precoder", ["mr", "rzf"])
@pytest.mark.parametrize("correlation", ["uncorrelated", "local-scattering"])
@pytest.mark.parametrize("preset", ["desk", "large"])
def test_precoders_give_real_nonnegative_signals(tiled, preset, correlation,
                                                 precoder):
    # a_kl = |E{h_kl^H w_kl}| is the bound's signal term only when the mean
    # is real and nonnegative. MR and RZF on MMSE estimates make every
    # realization's h_hat^H w so, and E{e^H w} = 0 for the error e
    cfg = replace(resolve_config(preset), correlation_model=correlation)
    drop_s, chan_s, noise_s = sample_seeds(cfg.seed, TEST_NAMESPACE, 0)
    stats = build_statistics(cfg, drop_scenario(cfg, drop_s,
                                                place_aps(cfg, cfg.seed)))
    pilots = assign_pilots(stats.beta, cfg.tau_p)
    batch = tiled.front_end(stats, pilots, cfg, 200, chan_s, noise_s)
    w = compute_precoders(batch, precoder, cfg.p_ul, cfg.noise_power)
    h_hat, unit_of = tiled.estimates(batch), batch.layout.unit_of
    assert phase_faults(h_hat, w, unit_of) == 0
    # the check sees a small rotation, and one AP's precoders negated,
    # which |mean| would hide
    rotated = np.exp(0.01j) * w
    assert phase_faults(h_hat, rotated, unit_of) > 0
    negated = w.copy()
    negated[:, :, 0] *= -1.0
    assert phase_faults(h_hat, negated, unit_of) > 0
    # a global phase moves neither the modulus nor the second moments
    clean = tiled.se_parameters(batch, w, cfg)
    turned = tiled.se_parameters(batch, rotated, cfg)
    assert max(relative_drift(turned, clean)) <= 1e-12


def loop_sinr_terms(params, mu):
    """Signal and interference entry by entry over (k, i, l, m)."""
    K, L = mu.shape
    B = per_ue_B(params)
    signal = np.zeros(K)
    interference = np.zeros(K)
    for k in range(K):
        for l in range(L):
            signal[k] += params.a[k, l] * mu[k, l]
        for i in range(K):
            for l in range(L):
                for m in range(L):
                    interference[k] += (mu[i, l] * B[k, i, l, m]
                                        * mu[i, m])
    return signal, interference


def test_sinr_terms_match_plain_loops(synthetic_params, desk_sample,
                                      desk_cfg):
    rng = np.random.default_rng(7)
    cases = [(synthetic_params(K=3, L=2, seed=8, sigma2=0.3),
              rng.uniform(0.0, 0.6, size=(3, 2))),
             (desk_sample("mr").params,
              rng.uniform(0.0, 0.3, size=(desk_cfg.K, desk_cfg.L)))]
    for params, mu in cases:
        signal, interference = se.sinr_terms(params, mu)
        ref_signal, ref_interference = loop_sinr_terms(params, mu)
        assert np.allclose(signal, ref_signal, rtol=1e-12, atol=0.0)
        assert np.allclose(interference, ref_interference, rtol=1e-12,
                           atol=0.0)


def test_jensen_gap_on_real_sample(desk_sample, desk_cfg):
    # B_kk - a_k a_k^T is a covariance, so it must stay PSD
    params = desk_sample("rzf").params
    B = per_ue_B(params)
    for k in range(desk_cfg.K):
        gap = B[k, k] - np.outer(params.a[k], params.a[k])
        eig = np.linalg.eigvalsh(0.5 * (gap + gap.T))
        assert eig.min() >= -1e-12 * max(eig.max(), 1e-300)


def test_sinr_positive_for_feasible_weights(desk_sample, desk_cfg):
    params = desk_sample("rzf").params
    rng = np.random.default_rng(0)
    mu = rng.uniform(0.0, 1.0, size=(desk_cfg.K, desk_cfg.L))
    mu *= np.sqrt(desk_cfg.p_max_dl) / np.linalg.norm(mu, axis=0)
    sinr = effective_sinr(params, mu)
    assert np.all(sinr > 0.0)
    se = compute_se(params, PowerAllocation(mu=mu, p_max=desk_cfg.p_max_dl))
    assert np.allclose(se, params.prelog * np.log2(1.0 + sinr))


def test_permutation_invariance(synthetic_params):
    params = synthetic_params(K=4, L=3, seed=1, sigma2=0.2)
    rng = np.random.default_rng(2)
    mu = rng.uniform(0.1, 0.5, size=(4, 3))
    perm = np.array([2, 0, 3, 1])
    permuted = SEParameters(a=params.a[perm],
                            B=params.B[perm][:, perm],
                            sigma2=params.sigma2, prelog=params.prelog,
                            n_real=params.n_real)
    sinr = effective_sinr(params, mu)
    sinr_p = effective_sinr(permuted, mu[perm])
    assert np.allclose(sinr_p, sinr[perm], rtol=1e-12)


def test_compute_se_guards(synthetic_params):
    params = synthetic_params(K=2, L=2, seed=3)
    alloc = PowerAllocation(mu=0.1 * np.ones((2, 2)), p_max=1.0)
    with pytest.raises(ValueError, match="shape"):
        compute_se(params, PowerAllocation(mu=0.1 * np.ones((3, 2)),
                                           p_max=1.0))
    # an all-zero B cannot explain a positive signal coefficient
    broken = SEParameters(a=params.a, B=np.zeros_like(params.B),
                          sigma2=params.sigma2, prelog=params.prelog,
                          n_real=params.n_real)
    with pytest.raises(RuntimeError, match="denominator"):
        compute_se(broken, alloc)


def test_allocation_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        PowerAllocation(mu=np.array([[-0.1, 0.2]]), p_max=1.0)
    with pytest.raises(ValueError, match="budget"):
        PowerAllocation(mu=np.array([[1.0], [1.0]]), p_max=1.0)
    with pytest.raises(ValueError, match="matrix"):
        PowerAllocation(mu=np.zeros(3), p_max=1.0)
    # the documented slack is tight: just inside passes, just outside fails
    inside = np.sqrt(1.0 * (1.0 + 0.5 * BUDGET_SLACK))
    outside = np.sqrt(1.0 * (1.0 + 4.0 * BUDGET_SLACK))
    PowerAllocation(mu=np.array([[inside]]), p_max=1.0)
    with pytest.raises(ValueError, match="budget"):
        PowerAllocation(mu=np.array([[outside]]), p_max=1.0)
    alloc = PowerAllocation(mu=np.array([[0.5, 0.3]]), p_max=1.0)
    assert np.allclose(alloc.mu ** 2, [[0.25, 0.09]])


def test_b_is_held_per_direction(desk_sample):
    params = desk_sample("rzf").params
    K, L, unit_of = params.K, params.L, params.unit_of
    # desk's six UEs share three pilots: three directions, one B block each
    assert params.B.shape == (K, 3, L, L)
    assert not unit_of.flags.writeable and not params.member.flags.writeable
    assert np.array_equal(params.member,
                          (np.arange(3)[:, None] == unit_of) * 1.0)
    # the digest hashes the per-UE expansion, whatever the labels
    expanded = np.take(params.B, unit_of, axis=1)
    head = struct.pack("<8sIIQdd", b"CFSEP001", K, L, params.n_real,
                       params.prelog, params.sigma2)
    body = params.a.astype("<f8").tobytes() + expanded.astype("<f8").tobytes()
    assert params.digest() == hashlib.sha256(head + body).hexdigest()
    relabelled = replace(params, unit_of=(unit_of + 1) % 3,
                         B=np.roll(params.B, 1, axis=1))
    assert relabelled.digest() == params.digest()
    # the identity by default, on the per-UE B
    plain = replace(params, unit_of=None, B=expanded)
    assert np.array_equal(plain.unit_of, np.arange(K))
    assert np.array_equal(plain.member, np.eye(K))
    assert plain.digest() == params.digest()
    # a NaN estimate is left to the solver's own checks
    B = params.B.copy()
    B[0] = np.nan
    assert np.isnan(replace(params, B=B).B[0]).all()
    for bad, message in [
            (dict(unit_of=unit_of[:-1]), "one integer direction per UE"),
            (dict(unit_of=unit_of.astype(float)),
             "one integer direction per UE"),
            (dict(unit_of=np.where(unit_of == 2, 3, unit_of)), "onto range"),
            (dict(unit_of=None), r"\(6, 6, 4, 4\)"),
            (dict(B=expanded), r"\(6, 3, 4, 4\)"),
            (dict(B=np.zeros((K, 3, L + 1, L + 1))), r"\(6, 3, 4, 4\)"),
            (dict(B=np.zeros((K, 4, L, L))), r"\(6, 3, 4, 4\)"),
            (dict(B=params.B[0]), r"\(6, 3, 4, 4\)"),
            (dict(a=params.a[0]), "K x L"),
            (dict(a=params.a[None]), "K x L")]:
        with pytest.raises(ValueError, match=message):
            replace(params, **bad)
    with pytest.raises(ValueError, match=r"\(1, 1, 2, 2\)"):
        SEParameters(a=np.ones((1, 2)), B=np.ones((1, 1, 3, 3)), sigma2=1.0,
                     prelog=1.0, n_real=10)


def test_identity_layout_takes_the_per_ue_gemv(synthetic_params,
                                               desk_sample):
    # on one direction per UE the membership product copies the outer
    # products, so the interference is the one GEMV over B as (K, K*L*L)
    per_pilot = desk_sample("mr").params
    identity = replace(per_pilot, unit_of=None, B=per_ue_B(per_pilot))
    rng = np.random.default_rng(11)
    for params in (synthetic_params(K=5, L=3, seed=12), identity):
        K, L = params.K, params.L
        mu = rng.uniform(0.0, 0.4, size=(K, L))
        outer = mu[:, :, None] * mu[:, None, :]
        want = params.B.reshape(K, -1) @ outer.ravel()
        assert se.sinr_terms(params, mu)[1].tobytes() == want.tobytes()
    # per direction the outer products are summed first: the same terms
    # up to roundoff
    got, want = se.sinr_terms(per_pilot, mu), se.sinr_terms(identity, mu)
    assert got[0].tobytes() == want[0].tobytes()
    assert np.allclose(got[1], want[1], rtol=1e-12, atol=0.0)


def test_se_parameters_are_read_only(desk_sample):
    params = desk_sample("rzf").params
    with pytest.raises(ValueError, match="read-only"):
        params.a[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        params.B[0, 0] += 1.0
    # the arrays handed in stay the caller's to write
    a, B = np.ones((1, 2)), np.ones((1, 1, 2, 2))
    own = SEParameters(a=a, B=B, sigma2=1.0, prelog=1.0, n_real=10)
    a[0, 0] = 2.0
    assert own.a[0, 0] == 2.0 and not own.a.flags.writeable
