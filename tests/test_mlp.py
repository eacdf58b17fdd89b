"""Network tests: layer plans, backprop vs finite differences, training.

The gradient oracle is plain central differencing, applied exhaustively to
every weight and bias of small hand-built models. The optimizer oracle is
`ReferenceAdam`, Adam written with fresh arrays for every temporary.
"""

import numpy as np
import pytest

from cfpower import mlp
from cfpower.errors import TrainingDivergedError
from cfpower.mlp import (DenseLayer, MlpModel, TrainConfig, _Adam,
                         build_model, forward, layer_plan, loss_and_grads,
                         mse_loss, train, validation_split)

# parameter totals at K = 20, cluster size 3, summed layer by layer
N_PARAMS_DDNN = 5_557
N_PARAMS_DDNN_SI = 21_973
N_PARAMS_CDNN = 246_207


def tiny_model(sizes, acts, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    layers = [DenseLayer(W=rng.normal(0.0, scale, size=(o, i)),
                         b=rng.normal(0.0, scale, size=o), activation=a)
              for i, o, a in zip(sizes[:-1], sizes[1:], acts)]
    return MlpModel(kind="ddnn", unit_id=0, member_aps=(0,), layers=layers)


def fd_grads(model, X, Y, h=1e-6):
    grads = []
    for layer in model.layers:
        gW = np.zeros_like(layer.W)
        for idx in np.ndindex(layer.W.shape):
            orig = layer.W[idx]
            layer.W[idx] = orig + h
            up = mse_loss(model, X, Y)
            layer.W[idx] = orig - h
            dn = mse_loss(model, X, Y)
            layer.W[idx] = orig
            gW[idx] = (up - dn) / (2.0 * h)
        gb = np.zeros_like(layer.b)
        for j in range(layer.b.size):
            orig = layer.b[j]
            layer.b[j] = orig + h
            up = mse_loss(model, X, Y)
            layer.b[j] = orig - h
            dn = mse_loss(model, X, Y)
            layer.b[j] = orig
            gb[j] = (up - dn) / (2.0 * h)
        grads.append((gW, gb))
    return grads


class ReferenceAdam:
    """Adam with bias correction, every temporary a fresh array."""

    def __init__(self, layers, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = [(np.zeros_like(l.W), np.zeros_like(l.b)) for l in layers]
        self.v = [(np.zeros_like(l.W), np.zeros_like(l.b)) for l in layers]

    def step(self, layers, grads, lr):
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for i, (layer, (gW, gb)) in enumerate(zip(layers, grads)):
            mW, mb = self.m[i]
            vW, vb = self.v[i]
            mW += (1.0 - self.beta1) * (gW - mW)
            mb += (1.0 - self.beta1) * (gb - mb)
            vW += (1.0 - self.beta2) * (gW ** 2 - vW)
            vb += (1.0 - self.beta2) * (gb ** 2 - vb)
            layer.W -= lr * (mW / c1) / (np.sqrt(vW / c2) + self.eps)
            layer.b -= lr * (mb / c1) / (np.sqrt(vb / c2) + self.eps)


def assert_grads_match(analytic, numeric, rtol=1e-4):
    for (gW, gb), (fW, fb) in zip(analytic, numeric):
        assert np.all(np.abs(gW - fW) <= rtol * np.abs(fW) + 1e-8)
        assert np.all(np.abs(gb - fb) <= rtol * np.abs(fb) + 1e-8)


def test_frozen_parameter_counts():
    assert build_model("ddnn", K=20).n_parameters() == N_PARAMS_DDNN
    assert build_model("ddnn-si", K=20).n_parameters() == N_PARAMS_DDNN_SI
    cdnn = build_model("cdnn", K=20, cluster_size=3, member_aps=(0, 1, 2))
    assert cdnn.n_parameters() == N_PARAMS_CDNN


def test_layer_plan_shapes():
    sizes, acts = layer_plan("ddnn", K=20)
    assert sizes == [20, 32, 64, 32, 21]
    assert acts == ["linear", "tanh", "tanh", "relu"]
    sizes, acts = layer_plan("ddnn-si", K=20)
    assert sizes == [40, 64, 128, 64, 32, 21]
    sizes, acts = layer_plan("cdnn", K=20, cluster_size=3)
    assert sizes == [60, 128, 512, 256, 128, 63]
    assert acts[-1] == "relu"
    with pytest.raises(ValueError):
        layer_plan("cnn", K=20)
    with pytest.raises(ValueError):
        build_model("cnn", K=20)


def test_gradients_ten_parameter_model():
    # (1*2 + 2) + (2*2 + 2) = 10 parameters
    model = tiny_model([1, 2, 2], ["elu", "tanh"], seed=0)
    assert model.n_parameters() == 10
    rng = np.random.default_rng(1)
    X = rng.normal(size=(8, 1))
    Y = rng.normal(size=(8, 2))
    _, grads = loss_and_grads(model, X, Y)
    assert_grads_match(grads, fd_grads(model, X, Y))


def test_gradients_all_activations():
    model = tiny_model([3, 4, 3, 2], ["elu", "tanh", "relu"], seed=2)
    rng = np.random.default_rng(3)
    X = rng.normal(size=(16, 3))
    Y = np.abs(rng.normal(size=(16, 2)))
    # keep relu preactivations away from the kink so differencing is clean
    z = X
    for layer in model.layers:
        z = z @ layer.W.T + layer.b
        if layer.activation == "relu":
            assert np.abs(z).min() > 1e-3
        z = np.where(z > 0, z, np.expm1(z)) if layer.activation == "elu" \
            else (np.tanh(z) if layer.activation == "tanh"
                  else np.maximum(z, 0.0))
    loss, grads = loss_and_grads(model, X, Y)
    assert loss == pytest.approx(mse_loss(model, X, Y), rel=1e-12)
    assert_grads_match(grads, fd_grads(model, X, Y))


def test_gradients_linear_layer_closed_form():
    # single linear layer: d/dW mean((XW^T + b - Y)^2) has a textbook form
    model = tiny_model([3, 2], ["linear"], seed=4)
    rng = np.random.default_rng(5)
    X = rng.normal(size=(10, 3))
    Y = rng.normal(size=(10, 2))
    _, grads = loss_and_grads(model, X, Y)
    resid = X @ model.layers[0].W.T + model.layers[0].b - Y
    scale = 2.0 / (10 * 2)
    assert np.allclose(grads[0][0], scale * resid.T @ X, rtol=1e-12)
    assert np.allclose(grads[0][1], scale * resid.sum(axis=0), rtol=1e-12)


def test_activation_values():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    elu = MlpModel(kind="ddnn", unit_id=0, member_aps=(0,),
                   layers=[DenseLayer(np.eye(5), np.zeros(5), "elu")])
    assert np.allclose(forward(elu, x),
                       np.where(x > 0, x, np.expm1(x)), rtol=1e-15)
    relu = MlpModel(kind="ddnn", unit_id=0, member_aps=(0,),
                    layers=[DenseLayer(np.eye(5), np.zeros(5), "relu")])
    assert np.allclose(forward(relu, x), np.maximum(x, 0.0))
    tanh = MlpModel(kind="ddnn", unit_id=0, member_aps=(0,),
                    layers=[DenseLayer(np.eye(5), np.zeros(5), "tanh")])
    assert np.allclose(forward(tanh, x), np.tanh(x), rtol=1e-15)


def test_forward_trivial_cases():
    model = build_model("ddnn", K=4, seed=0)
    for layer in model.layers:
        layer.W[:] = 0.0
        layer.b[:] = 0.0
    assert np.array_equal(forward(model, np.ones(4)), np.zeros(5))
    ident = MlpModel(kind="ddnn", unit_id=0, member_aps=(0,),
                     layers=[DenseLayer(np.eye(3), np.zeros(3), "linear")])
    x = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(forward(ident, x), x)


def test_forward_outputs_nonnegative():
    model = build_model("ddnn", K=6, seed=9)
    rng = np.random.default_rng(10)
    out = forward(model, rng.normal(size=(10_000, 6)))
    assert out.min() >= 0.0


def test_forward_single_matches_batch():
    model = build_model("ddnn-si", K=3, seed=11)
    rng = np.random.default_rng(12)
    X = rng.normal(size=(5, 6))
    batch = forward(model, X)
    assert batch.shape == (5, 4)
    for i in range(5):
        # matmul kernels may round differently by batch shape
        assert np.allclose(forward(model, X[i]), batch[i], rtol=1e-12)


def test_mse_loss_is_grand_mean():
    model = tiny_model([2, 2], ["linear"], seed=13)
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    Y = np.zeros((2, 2))
    pred = forward(model, X)
    assert mse_loss(model, X, Y) == pytest.approx(np.mean(pred ** 2),
                                                  rel=1e-15)


def test_training_learns_linear_map():
    rng = np.random.default_rng(7)
    K = 4
    M = rng.uniform(0.05, 0.3, size=(K + 1, K))
    X = rng.uniform(0.0, 1.0, size=(10_000, K))
    Y = X @ M.T
    model = build_model("ddnn", K, seed=3)
    cfg = TrainConfig()
    rows, held = validation_split(len(X), cfg.validation_fraction, cfg.seed)
    res = train(model, X[rows], Y[rows], cfg, val=(X[held], Y[held]))
    assert res.val_loss[-1] < 1e-4
    assert res.train_loss.shape == (60,)
    # smoothed curve must trend down; small blips are tolerated
    w = np.convolve(res.train_loss, np.ones(5) / 5, "valid")
    assert np.all(np.diff(w) <= 0.05 * w[:-1])
    assert w[-1] < w[0]


def test_training_is_bitwise_deterministic():
    rng = np.random.default_rng(20)
    X = rng.uniform(0.0, 1.0, size=(600, 3))
    Y = np.abs(rng.normal(size=(600, 4)))
    cfg = TrainConfig(epochs=8, seed=2)
    rows, held = validation_split(len(X), cfg.validation_fraction, cfg.seed)
    results = []
    for _ in range(2):
        model = build_model("ddnn", K=3, seed=5)
        res = train(model, X[rows], Y[rows], cfg, val=(X[held], Y[held]))
        results.append((model, res))
    for la, lb in zip(results[0][0].layers, results[1][0].layers):
        assert np.array_equal(la.W, lb.W)
        assert np.array_equal(la.b, lb.b)
    assert np.array_equal(results[0][1].train_loss, results[1][1].train_loss)
    assert np.array_equal(results[0][1].val_loss, results[1][1].val_loss)


def test_validation_split_rule():
    train_idx, val_idx = validation_split(10_000, 0.1, 0)
    assert val_idx.size == 1000 and train_idx.size == 9000
    assert sorted(np.r_[train_idx, val_idx]) == list(range(10_000))
    assert np.array_equal(validation_split(10_000, 0.1, 0)[1], val_idx)
    assert not np.array_equal(validation_split(10_000, 0.1, 1)[1], val_idx)
    # at least one row is held out whenever a share is asked for
    assert validation_split(3, 0.01, 0)[1].size == 1
    for n, fraction in ((1, 0.5), (12, 0.0)):
        train_idx, val_idx = validation_split(n, fraction, 0)
        assert val_idx.size == 0 and sorted(train_idx) == list(range(n))


def test_training_divergence_guard():
    # unbounded linear model: an absurd step size overflows the loss
    rng = np.random.default_rng(21)
    X = rng.uniform(1.0, 2.0, size=(32, 1))
    Y = np.zeros((32, 1))
    model = tiny_model([1, 1], ["linear"], seed=6)
    with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError):
        train(model, X, Y, TrainConfig(epochs=2, batch_size=16, lr=1e160))


def test_divergence_in_the_last_step_is_caught_by_validation():
    # one minibatch: its loss is finite, and the only step overflows the
    # loss on every row without overflowing the weights
    rng = np.random.default_rng(21)
    X = rng.uniform(1.0, 2.0, size=(32, 1))
    Y = np.zeros((32, 1))
    model = tiny_model([1, 1], ["linear"], seed=6)
    with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError):
        train(model, X[4:], Y[4:], TrainConfig(epochs=1, batch_size=32,
                                               lr=1e300),
              val=(X[:4], Y[:4]))
    assert np.all(np.isfinite(model.layers[0].W))


def test_divergence_in_the_last_step_is_caught_without_validation():
    # the same single overflowing step, with no validation rows to score
    rng = np.random.default_rng(21)
    X = rng.uniform(1.0, 2.0, size=(32, 1))
    Y = np.zeros((32, 1))
    model = tiny_model([1, 1], ["linear"], seed=6)
    with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError):
        train(model, X, Y, TrainConfig(epochs=1, batch_size=32, lr=1e300))
    assert np.all(np.isfinite(model.layers[0].W))


def test_training_input_validation():
    model = build_model("ddnn", K=2, seed=0)
    with pytest.raises(ValueError):
        train(model, np.zeros((3, 2)), np.zeros((4, 3)))
    with pytest.raises(ValueError):
        train(model, np.zeros((0, 2)), np.zeros((0, 3)))


def test_explicit_validation_set():
    rng = np.random.default_rng(22)
    X = rng.uniform(size=(400, 2))
    Y = 0.1 + 0.2 * X @ np.ones((3, 2)).T * 0.5
    model = build_model("ddnn", K=2, seed=1)
    X_val, Y_val = X[:40], Y[:40]
    res = train(model, X[40:], Y[40:], TrainConfig(epochs=5),
                val=(X_val, Y_val))
    assert np.all(np.isfinite(res.val_loss))
    assert res.val_loss[-1] == pytest.approx(mse_loss(model, X_val, Y_val),
                                             rel=1e-12)


@pytest.mark.parametrize("kind", ["ddnn", "ddnn-si", "cdnn"])
def test_in_place_adam_matches_reference(kind):
    K = 5
    models = [build_model(kind, K, cluster_size=3, seed=30) for _ in range(2)]
    fast, ref = _Adam(models[0].layers), ReferenceAdam(models[1].layers)
    rng = np.random.default_rng(31)
    for step in range(25):
        # gradients over several decades, the learning rate dropped midway
        grads = [(rng.normal(size=l.W.shape) * 10.0 ** rng.integers(-6, 2),
                  rng.normal(size=l.b.shape) * 10.0 ** rng.integers(-6, 2))
                 for l in models[0].layers]
        lr = 1e-3 if step < 15 else 1e-4
        fast.step(models[0].layers, grads, lr)
        ref.step(models[1].layers, grads, lr)
    for i, (la, lb) in enumerate(zip(models[0].layers, models[1].layers)):
        assert np.array_equal(la.W, lb.W) and np.array_equal(la.b, lb.b)
        for state_fast, state_ref in ((fast.m[i], ref.m[i]),
                                      (fast.v[i], ref.v[i])):
            assert np.array_equal(state_fast[0], state_ref[0])
            assert np.array_equal(state_fast[1], state_ref[1])


def test_learning_rate_drops_at_drop_epoch(monkeypatch):
    # one linear unit far below its target: every gradient has the same sign
    # and nearly the same size, so each Adam step moves the bias by the rate
    model = tiny_model([1, 1], ["linear"], seed=40, scale=0.0)
    X, Y = np.ones((4, 1)), np.full((4, 1), 1e6)
    biases = []

    def recording_loss_and_grads(model_, X_, Y_):
        biases.append(float(model_.layers[0].b[0]))
        return loss_and_grads(model_, X_, Y_)

    monkeypatch.setattr(mlp, "loss_and_grads", recording_loss_and_grads)
    # one minibatch, so one Adam step, per epoch
    cfg = TrainConfig(epochs=5, batch_size=4, lr=1e-3, drop_epoch=3)
    train(model, X, Y, cfg)
    steps = np.diff(biases + [float(model.layers[0].b[0])])
    expected = [cfg.lr] * 3 + [cfg.lr * mlp.LR_DROP_FACTOR] * 2
    assert steps == pytest.approx(expected, rel=1e-6)


def _training_set(n=600, K=3, seed=32):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n, K))
    return X, np.abs(rng.normal(size=(n, K + 1)))


@pytest.mark.parametrize("with_val", [True, False])
def test_training_scores_only_validation_rows(monkeypatch, with_val):
    X, Y = _training_set()
    val = (X[:60], Y[:60]) if with_val else None
    scored = []

    def counting_mse_loss(model, X_, Y_):
        scored.append((X_, Y_))
        return mse_loss(model, X_, Y_)

    monkeypatch.setattr(mlp, "mse_loss", counting_mse_loss)
    cfg = TrainConfig(epochs=6, batch_size=128)
    train(build_model("ddnn", K=3, seed=33), X[60:], Y[60:], cfg, val=val)
    assert len(scored) == (cfg.epochs if with_val else 0)
    assert all(Xs is val[0] and Ys is val[1] for Xs, Ys in scored)


def test_train_loss_is_row_weighted_minibatch_mean(monkeypatch):
    X, Y = _training_set()
    batches = []

    def recording_loss_and_grads(model, X_, Y_):
        loss, grads = loss_and_grads(model, X_, Y_)
        batches.append((loss, X_.shape[0]))
        return loss, grads

    monkeypatch.setattr(mlp, "loss_and_grads", recording_loss_and_grads)
    # 600 rows in batches of 256: two full batches and one of 88 rows
    cfg = TrainConfig(epochs=4, batch_size=256)
    res = train(build_model("ddnn", K=3, seed=34), X, Y, cfg)
    assert len(batches) == 3 * cfg.epochs
    for epoch in range(cfg.epochs):
        total = 0.0
        for loss, rows in batches[3 * epoch:3 * epoch + 3]:
            total += loss * rows
        assert res.train_loss[epoch] == total / len(X)
    assert np.all(np.isnan(res.val_loss))
