"""Learned-allocation tests: features, labels, post-processing, containers.

The post-processing identity is checked end to end with constant-output
models: a model that emits exactly the optimal label row must reproduce the
optimal column, because the rescale factor collapses to one.

Per-unit loops serve as references for the layout rule that `features_for`
and `labels_for` apply as gathers.
"""

import json
import struct

import numpy as np
import pytest

from cfpower.allocator import (cluster_partition, features_for, labels_for,
                               load_model, model_features, model_layout,
                               predict_allocation, predict_from_features,
                               save_model, stack_models, to_db)
from cfpower.errors import DataFormatError
from cfpower.heuristics import fractional_coefficients, side_info_ratios
from cfpower.mlp import (MODEL_KINDS, MODEL_PLANS, DenseLayer, MlpModel,
                         build_model, forward, layer_plan)
from cfpower.network import place_aps
from cfpower.scaling import ScalerParams, apply_scaler, fit_scaler


def random_beta(K, L, seed):
    rng = np.random.default_rng(seed)
    return 10.0 ** rng.uniform(-13.0, -7.0, size=(K, L))


def per_ap_layout(L):
    return np.arange(L)[:, None]


def stacked_blocks(rows, members):
    """Reference layout rule: per unit, its member rows concatenated."""
    return np.stack([np.concatenate([rows[l] for l in aps])
                     for aps in members])


def reference_labels(mu, members):
    """Reference labels: per unit, the member mu columns, then the member
    totals, one column at a time."""
    return np.stack([np.concatenate([mu[:, l] for l in aps]
                                    + [[np.sum(mu[:, l] ** 2) for l in aps]])
                     for aps in members])


def constant_model(kind, K, unit_id, member_aps, row):
    """Model that outputs `row` for any input, with a pass-through scaler."""
    n_in = {"ddnn": K, "ddnn-si": 2 * K}.get(kind, K * len(member_aps))
    layer = DenseLayer(W=np.zeros((len(row), n_in)),
                       b=np.asarray(row, dtype=float), activation="linear")
    scaler = ScalerParams(median=np.zeros(n_in), iqr=np.ones(n_in))
    return MlpModel(kind=kind, unit_id=unit_id,
                    member_aps=tuple(member_aps), layers=[layer],
                    scaler=scaler)


def test_cluster_partition_sorts_geographically():
    ap = np.array([[10.0, 5.0], [0.0, 3.0], [0.0, 1.0], [10.0, 2.0]])
    clusters = cluster_partition(ap, 2)
    assert np.array_equal(clusters, [[2, 1], [3, 0]])


def test_cluster_partition_covers_all_aps():
    rng = np.random.default_rng(0)
    ap = rng.uniform(0.0, 1000.0, size=(16, 2))
    clusters = cluster_partition(ap, 4)
    assert clusters.shape == (4, 4)
    assert sorted(clusters.reshape(-1).tolist()) == list(range(16))


def test_cluster_partition_rejects_bad_sizes():
    ap = np.zeros((16, 2))
    with pytest.raises(ValueError):
        cluster_partition(ap, 3)
    with pytest.raises(ValueError):
        cluster_partition(ap, 0)


def test_ddnn_features_are_db_coefficients(desk_cfg):
    beta = random_beta(desk_cfg.K, desk_cfg.L, 1)
    rows = features_for("ddnn", beta, desk_cfg, per_ap_layout(desk_cfg.L))
    rho1 = fractional_coefficients(beta, desk_cfg.v_exponent,
                                   desk_cfg.p_max_dl)
    assert rows.shape == (desk_cfg.L, desk_cfg.K)
    assert np.allclose(rows, 10.0 * np.log10(rho1).T, rtol=1e-15)


def test_ddnn_si_features_concatenate_ratios(desk_cfg):
    beta = random_beta(desk_cfg.K, desk_cfg.L, 2)
    layout = per_ap_layout(desk_cfg.L)
    rows = features_for("ddnn-si", beta, desk_cfg, layout)
    K = desk_cfg.K
    assert rows.shape == (desk_cfg.L, 2 * K)
    assert np.allclose(rows[:, :K], features_for("ddnn", beta, desk_cfg,
                                                 layout))
    rho2 = side_info_ratios(beta, desk_cfg.v_exponent, desk_cfg.p_max_dl)
    assert np.allclose(rows[:, K:], 10.0 * np.log10(rho2).T, rtol=1e-15)


def test_cdnn_features_stack_member_blocks(desk_cfg):
    beta = random_beta(3, 4, 3)
    clusters = np.array([[2, 0], [1, 3]])
    rows = features_for("cdnn", beta, desk_cfg, clusters)
    assert rows.shape == (2, 6)
    assert np.allclose(rows[0], np.concatenate([to_db(beta[:, 2]),
                                                to_db(beta[:, 0])]))
    assert np.allclose(rows[1], np.concatenate([to_db(beta[:, 1]),
                                                to_db(beta[:, 3])]))


def test_features_for_dispatch(desk_cfg):
    beta = random_beta(desk_cfg.K, desk_cfg.L, 4)
    layout = per_ap_layout(desk_cfg.L)
    rho1 = fractional_coefficients(beta, desk_cfg.v_exponent,
                                   desk_cfg.p_max_dl)
    assert np.array_equal(features_for("ddnn", beta, desk_cfg, layout),
                          to_db(rho1).T)
    with pytest.raises(ValueError):
        features_for("mlp", beta, desk_cfg, layout)


def test_model_layout_gives_one_row_per_unit(desk_cfg):
    K, L = desk_cfg.K, desk_cfg.L
    beta = random_beta(K, L, 21)
    mu = feasible_mu(K, L, 1.0, 22)
    clusters = cluster_partition(place_aps(desk_cfg, seed=3), 2)
    assert np.array_equal(model_layout("cdnn", desk_cfg, 3, 2), clusters)
    for kind in ("ddnn", "ddnn-si"):
        assert np.array_equal(model_layout(kind, desk_cfg, 3, 2),
                              np.arange(L)[:, None])
    layout = model_layout("ddnn-si", desk_cfg, 3, 2)
    rho1 = fractional_coefficients(beta, desk_cfg.v_exponent,
                                   desk_cfg.p_max_dl)
    rho2 = side_info_ratios(beta, desk_cfg.v_exponent, desk_cfg.p_max_dl)
    assert np.array_equal(features_for("ddnn-si", beta, desk_cfg, layout),
                          np.concatenate([to_db(rho1).T, to_db(rho2).T],
                                         axis=1))
    assert np.array_equal(features_for("cdnn", beta, desk_cfg, clusters),
                          stacked_blocks(to_db(beta).T, clusters))
    assert np.array_equal(labels_for(mu, clusters),
                          reference_labels(mu, clusters))
    # a reordered layout reorders the rows
    flipped = layout[::-1]
    assert np.array_equal(features_for("ddnn", beta, desk_cfg, flipped),
                          features_for("ddnn", beta, desk_cfg, layout)[::-1])
    assert np.array_equal(labels_for(mu, flipped),
                          labels_for(mu, layout)[::-1])
    with pytest.raises(ValueError, match="kind"):
        model_layout("mlp", desk_cfg, 3, 2)


def test_model_features_follow_member_aps(desk_cfg):
    K, L = desk_cfg.K, desk_cfg.L
    beta = random_beta(K, L, 23)
    clusters = cluster_partition(place_aps(desk_cfg, seed=0), 2)
    cdnn = [build_model("cdnn", K, unit_id=j, member_aps=clusters[j],
                        cluster_size=2, seed=j) for j in range(len(clusters))]
    ddnn = [build_model("ddnn", K, unit_id=l, seed=l) for l in (2, 0, 3, 1)]
    for model in cdnn + ddnn:
        model.scaler = ScalerParams(median=np.zeros(model.n_inputs),
                                    iqr=np.ones(model.n_inputs))
    assert np.array_equal(model_features(stack_models(cdnn), beta, desk_cfg),
                          stacked_blocks(to_db(beta).T, clusters))
    rho1 = fractional_coefficients(beta, desk_cfg.v_exponent,
                                   desk_cfg.p_max_dl)
    assert np.array_equal(model_features(stack_models(ddnn), beta, desk_cfg),
                          to_db(rho1).T[[2, 0, 3, 1]])


def test_distributed_labels():
    mu = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
    rows = labels_for(mu, per_ap_layout(3))
    assert rows.shape == (3, 3)
    for l in range(3):
        assert np.allclose(rows[l, :2], mu[:, l])
        assert rows[l, 2] == pytest.approx(np.sum(mu[:, l] ** 2), rel=1e-15)


def test_clustered_labels_follow_cluster_order():
    mu = np.array([[0.1, 0.2], [0.3, 0.4]])
    rows = labels_for(mu, np.array([[1, 0]]))
    expected = np.concatenate([mu[:, 1], mu[:, 0],
                               [np.sum(mu[:, 1] ** 2),
                                np.sum(mu[:, 0] ** 2)]])
    assert np.allclose(rows[0], expected, rtol=1e-15)
    assert np.array_equal(labels_for(mu, per_ap_layout(2)),
                          reference_labels(mu, per_ap_layout(2)))


def feasible_mu(K, L, p_max, seed, fill=0.7):
    rng = np.random.default_rng(seed)
    mu = rng.uniform(0.1, 1.0, size=(K, L))
    return mu * np.sqrt(fill * p_max / np.sum(mu ** 2, axis=0))


@pytest.mark.parametrize("preset", ["desk", "large"])
@pytest.mark.parametrize("kind, layout_of", [
    ("ddnn", lambda cfg: per_ap_layout(cfg.L)),
    ("cdnn", lambda cfg: cluster_partition(place_aps(cfg, seed=0), 2)),
    ("cdnn", lambda cfg: cluster_partition(place_aps(cfg, seed=0),
                                           2)[::-1, ::-1]),
], ids=["per-ap", "cluster", "reversed"])
def test_postprocessing_identity(request, preset, kind, layout_of,
                                 assert_budget):
    # constant models emitting the exact label rows reproduce mu
    cfg = request.getfixturevalue(f"{preset}_cfg")
    K, L, P = cfg.K, cfg.L, cfg.p_max_dl
    mu = feasible_mu(K, L, P, seed=5)
    layout = layout_of(cfg)
    labels = labels_for(mu, layout)
    models = [constant_model(kind, K, i, layout[i], labels[i])
              for i in range(layout.shape[0])]
    alloc = predict_allocation(stack_models(models), random_beta(K, L, 6),
                               cfg)
    assert np.allclose(alloc.mu, mu, rtol=1e-12)
    assert_budget(alloc.mu, P)


@pytest.mark.parametrize("K", [6, 20])
def test_label_totals_are_the_per_ap_powers(K):
    # the same sum as PowerAllocation's per-AP power, to the bit; for
    # K >= 8 a column-by-column sum adds in another order
    mu = feasible_mu(K, 16, 1.0, seed=27)
    clusters = np.arange(16)[::-1].reshape(4, 4)
    rows = labels_for(mu, clusters)
    assert np.array_equal(rows[:, 4 * K:], np.sum(mu ** 2, axis=0)[clusters])
    assert np.array_equal(rows[:, :4 * K],
                          reference_labels(mu, clusters)[:, :4 * K])


def test_postprocessing_clamps_total(desk_cfg):
    # an over-budget total-power estimate saturates the AP at p_max
    K, L, P = desk_cfg.K, desk_cfg.L, desk_cfg.p_max_dl
    mu = feasible_mu(K, L, P, seed=9)
    labels = labels_for(mu, per_ap_layout(L))
    labels[:, -1] = 5.0 * P
    models = [constant_model("ddnn", K, l, (l,), labels[l])
              for l in range(L)]
    alloc = predict_allocation(stack_models(models), random_beta(K, L, 10),
                               desk_cfg)
    per_ap = np.sum(alloc.mu ** 2, axis=0)
    assert np.allclose(per_ap, P, rtol=1e-12)
    # direction is preserved even though the power was clamped
    assert np.allclose(alloc.mu / np.linalg.norm(alloc.mu, axis=0),
                       mu / np.linalg.norm(mu, axis=0), rtol=1e-12)


def test_postprocessing_zero_direction(desk_cfg, caplog):
    K, L, P = desk_cfg.K, desk_cfg.L, desk_cfg.p_max_dl
    mu = feasible_mu(K, L, P, seed=11)
    labels = labels_for(mu, per_ap_layout(L))
    labels[2, :] = 0.0
    models = [constant_model("ddnn", K, l, (l,), labels[l])
              for l in range(L)]
    with caplog.at_level("WARNING", logger="cfpower.allocator"):
        alloc = predict_allocation(stack_models(models),
                                   random_beta(K, L, 12), desk_cfg)
    assert np.all(alloc.mu[:, 2] == 0.0)
    assert np.allclose(alloc.mu[:, [0, 1, 3]], mu[:, [0, 1, 3]], rtol=1e-12)
    assert any("all-zero" in r.message for r in caplog.records)


def test_predict_errors(desk_cfg):
    K, L = desk_cfg.K, desk_cfg.L
    beta = random_beta(K, L, 13)
    labels = labels_for(feasible_mu(K, L, 1.0, 14), per_ap_layout(L))
    good = [constant_model("ddnn", K, l, (l,), labels[l]) for l in range(L)]
    mixed = list(good)
    mixed[1] = constant_model("ddnn-si", K, 1, (1,), labels[1])
    with pytest.raises(ValueError, match="mixed"):
        stack_models(mixed)
    bare = [constant_model("ddnn", K, l, (l,), labels[l]) for l in range(L)]
    for m in bare:
        m.scaler = None
    with pytest.raises(ValueError, match="scaler"):
        stack_models(bare)
    partial = stack_models(good[:-1])
    with pytest.raises(ValueError, match="cover"):
        predict_allocation(partial, beta, desk_cfg)
    with pytest.raises(ValueError, match="cover"):
        rows = model_features(partial, beta, desk_cfg)
        predict_from_features(partial, rows, K, L, desk_cfg.p_max_dl)


def test_predict_rejects_duplicate_member_aps(desk_cfg):
    K, L = desk_cfg.K, desk_cfg.L
    labels = labels_for(feasible_mu(K, L, 1.0, 24), per_ap_layout(L))
    group = [constant_model("ddnn", K, l, (l,), labels[l]) for l in range(L)]
    # a second model for AP 1 would silently overwrite the first one's column
    twice = group + [constant_model("ddnn", K, 1, (1,), 0.5 * labels[1])]
    with pytest.raises(ValueError, match="cover"):
        predict_allocation(stack_models(twice), random_beta(K, L, 25),
                           desk_cfg)
    # a duplicate in place of a missing AP keeps the count right
    swapped = group[:-1] + [constant_model("ddnn", K, 1, (1,), labels[1])]
    with pytest.raises(ValueError, match="cover"):
        predict_allocation(stack_models(swapped), random_beta(K, L, 25),
                           desk_cfg)


def test_random_weight_models_stay_feasible(desk_cfg, assert_budget):
    # untrained nets still produce valid allocations via post-processing
    K, L = desk_cfg.K, desk_cfg.L
    beta = random_beta(K, L, 15)
    feats = features_for("ddnn", beta, desk_cfg, per_ap_layout(L))
    scaler = fit_scaler(feats)
    models = []
    for l in range(L):
        m = build_model("ddnn", K, unit_id=l, seed=100 + l)
        m.scaler = scaler
        models.append(m)
    alloc = predict_allocation(stack_models(models), beta, desk_cfg)
    assert_budget(alloc.mu, desk_cfg.p_max_dl)
    assert np.all(alloc.mu >= 0.0)


def per_model_reference(models, beta, cfg):
    """Reference inference: each model on its own row, one forward pass per
    model, then a column-by-column decode."""
    K, P = cfg.K, cfg.p_max_dl
    expected = np.empty((K, cfg.L))
    for model in models:
        x = features_for(model.kind, beta, cfg, np.array([model.member_aps]))
        y = forward(model, apply_scaler(model.scaler, x))[0]
        c = len(model.member_aps)
        for j, l in enumerate(model.member_aps):
            direction = y[j * K:(j + 1) * K]
            norm = np.linalg.norm(direction)
            expected[:, l] = 0.0 if norm == 0.0 else \
                direction * (np.sqrt(min(y[c * K + j], P)) / norm)
    return expected


def standin_group(kind, cfg, seed, cluster_size=4):
    """Seeded random-weight models, one per unit of the layout."""
    models = []
    for unit, members in enumerate(model_layout(kind, cfg, 0, cluster_size)):
        model = build_model(kind, cfg.K, unit_id=unit, member_aps=members,
                            cluster_size=cluster_size, seed=seed + unit)
        model.scaler = ScalerParams(median=np.zeros(model.n_inputs),
                                    iqr=np.ones(model.n_inputs))
        models.append(model)
    return models


@pytest.mark.parametrize("kind", ["ddnn", "ddnn-si", "cdnn"])
def test_decode_matches_the_per_column_reference(large_cfg, kind):
    # the vectorised decode keeps the bits of a column-by-column decode
    models = standin_group(kind, large_cfg, 40)
    beta = random_beta(large_cfg.K, large_cfg.L, 41)
    alloc = predict_allocation(stack_models(models), beta, large_cfg)
    assert np.array_equal(alloc.mu, per_model_reference(models, beta,
                                                        large_cfg))


@pytest.mark.parametrize("order", ["layout", "reversed"])
@pytest.mark.parametrize("kind", ["ddnn", "ddnn-si", "cdnn"])
def test_stacked_inference_matches_the_per_model_loop(large_cfg, kind,
                                                      order):
    # one batched forward pass per kind keeps the bits of one pass per
    # model, with biases and a scaler that are not the identity
    rng = np.random.default_rng(42)
    models = standin_group(kind, large_cfg, 43)
    for model in models:
        for layer in model.layers:
            layer.b[:] = rng.uniform(-0.1, 0.3, layer.b.shape)
        n_f = model.n_inputs
        model.scaler = ScalerParams(median=rng.normal(-90.0, 5.0, n_f),
                                    iqr=rng.uniform(5.0, 20.0, n_f))
    if order == "reversed":
        models.reverse()
    group = stack_models(models)
    assert [m.unit_id for m in group] == [m.unit_id for m in models]
    for seed in range(44, 54):
        beta = random_beta(large_cfg.K, large_cfg.L, seed)
        assert np.array_equal(predict_allocation(group, beta, large_cfg).mu,
                              per_model_reference(models, beta, large_cfg))


def test_stack_models_copies_into_views(desk_cfg):
    models = standin_group("cdnn", desk_cfg, 55, cluster_size=2)
    weights = [layer.W for m in models for layer in m.layers]
    group = stack_models(models)
    assert len(group) == len(models)
    assert np.array_equal(group.members, [m.member_aps for m in models])
    for i, (view, model) in enumerate(zip(group, models)):
        for stack, own, layer in zip(group.layers, view.layers, model.layers):
            assert stack.W.shape == (len(models),) + layer.W.shape
            assert stack.b.shape == (len(models), 1, layer.b.size)
            assert np.shares_memory(own.W, stack.W)
            assert np.shares_memory(own.b, stack.b)
            assert np.array_equal(stack.W[i], layer.W)
            assert not np.shares_memory(layer.W, stack.W)
        assert np.shares_memory(view.scaler.median, group.scaler.median)
        assert np.shares_memory(view.scaler.iqr, group.scaler.iqr)
    # the given models keep their own arrays
    assert [layer.W for m in models for layer in m.layers] == weights


def test_stack_models_rejects_mixed_layer_plans(desk_cfg):
    models = standin_group("ddnn", desk_cfg, 56)
    wider = build_model("ddnn", desk_cfg.K + 1, unit_id=3, seed=57)
    wider.scaler = ScalerParams(median=np.zeros(wider.n_inputs),
                                iqr=np.ones(wider.n_inputs))
    with pytest.raises(ValueError, match="layer plan"):
        stack_models(models[:3] + [wider])
    with pytest.raises(ValueError, match="no models"):
        stack_models([])


def test_model_container_roundtrip(tmp_path):
    model = build_model("ddnn-si", K=4, unit_id=2, seed=17)
    rng = np.random.default_rng(18)
    model.scaler = fit_scaler(rng.normal(size=(50, 8)))
    path = tmp_path / "m.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.kind == model.kind
    assert loaded.unit_id == model.unit_id
    assert loaded.member_aps == model.member_aps
    assert len(loaded.layers) == len(model.layers)
    for la, lb in zip(loaded.layers, model.layers):
        assert np.array_equal(la.W, lb.W)
        assert np.array_equal(la.b, lb.b)
        assert la.activation == lb.activation
    assert np.array_equal(loaded.scaler.median, model.scaler.median)
    assert np.array_equal(loaded.scaler.iqr, model.scaler.iqr)
    # byte-stable: re-saving the loaded model reproduces the file exactly
    other = tmp_path / "m2.bin"
    save_model(loaded, other)
    assert path.read_bytes() == other.read_bytes()


@pytest.mark.parametrize("K", [1, 6, 20])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_every_buildable_model_loads_as_built(tmp_path, kind, K):
    # one member AP unless the kind serves a cluster, then clusters of 1-4
    *_, clustered = MODEL_PLANS[kind]
    path, again = tmp_path / "m.bin", tmp_path / "again.bin"
    for c in range(1, 5) if clustered else [1]:
        model = build_model(kind, K, unit_id=c, member_aps=range(c, 2 * c),
                            cluster_size=c, seed=c)
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.plan == model.plan == layer_plan(kind, K, c)
        assert loaded.member_aps == model.member_aps == tuple(range(c, 2 * c))
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()


def test_model_container_without_scaler(tmp_path):
    model = build_model("ddnn", K=3, seed=19)
    path = tmp_path / "m.bin"
    save_model(model, path)
    assert load_model(path).scaler is None


def test_model_container_rejects_unknown_kind(tmp_path):
    model = build_model("ddnn", K=3, seed=26)
    model.kind = "resnet"
    path = tmp_path / "m.bin"
    save_model(model, path)
    with pytest.raises(DataFormatError, match="kind"):
        load_model(path)


def test_model_container_checks_widths_against_member_aps(tmp_path):
    path = tmp_path / "m.bin"
    # build_model refuses the member lists of this model and the last one,
    # so both take the layers of a one-member model of their kind
    two_aps = MlpModel(kind="ddnn", unit_id=0, member_aps=(0, 1),
                       layers=build_model("ddnn", K=3, seed=28).layers)
    save_model(two_aps, path)
    with pytest.raises(DataFormatError, match="2 member APs"):
        load_model(path)
    # a cdnn model of 2 member APs emitting one AP's K+1 outputs
    cdnn = build_model("cdnn", K=3, member_aps=(2, 0), cluster_size=2,
                       seed=29)
    last = cdnn.layers[-1]
    cdnn.layers[-1] = DenseLayer(W=last.W[:4], b=last.b[:4],
                                 activation=last.activation)
    save_model(cdnn, path)
    with pytest.raises(DataFormatError, match="layer sizes"):
        load_model(path)
    # K = 3 from the outputs, but a ddnn-si input takes 2K = 6 features
    si = build_model("ddnn-si", K=3, seed=30)
    first = si.layers[0]
    si.layers[0] = DenseLayer(W=first.W[:, :5], b=first.b,
                              activation=first.activation)
    save_model(si, path)
    with pytest.raises(DataFormatError, match="layer sizes"):
        load_model(path)
    empty = MlpModel(kind="cdnn", unit_id=0, member_aps=(),
                     layers=build_model("cdnn", K=3, seed=31).layers)
    save_model(empty, path)
    with pytest.raises(DataFormatError, match="0 member APs"):
        load_model(path)


def test_model_container_corruption(tmp_path):
    model = build_model("ddnn", K=3, seed=20)
    path = tmp_path / "m.bin"
    save_model(model, path)
    blob = path.read_bytes()

    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"XXMLP001" + blob[8:])
    with pytest.raises(DataFormatError, match="container"):
        load_model(bad_magic)

    truncated = tmp_path / "short.bin"
    truncated.write_bytes(blob[:-8])
    with pytest.raises(DataFormatError, match="mismatch"):
        load_model(truncated)

    bad_json = tmp_path / "json.bin"
    bad_json.write_bytes(b"CFMLP001" + struct.pack("<I", 5) + b"notjs")
    with pytest.raises(DataFormatError, match="header"):
        load_model(bad_json)

    head = json.dumps({"format_version": 99}).encode()
    bad_version = tmp_path / "ver.bin"
    bad_version.write_bytes(b"CFMLP001" + struct.pack("<I", len(head)) + head)
    with pytest.raises(DataFormatError, match="version"):
        load_model(bad_version)
