"""Small dense networks with hand-rolled backprop and Adam.

Three fixed layouts, one per kind, map heuristic features to square-root
power outputs. Every model emits, per AP it serves, K direction components
plus one total transmit power estimate, all through a final relu so outputs
are nonnegative. `MODEL_PLANS` is the single home of the layouts and
`ACTIVATIONS` of the activations: every other list of kinds or activations
in the package is derived from them.

Training is floating-point deterministic: seeded uniform fan-in init,
seeded shuffles, sequential minibatches. Adam runs with fixed constants,
and its learning rate falls by LR_DROP_FACTOR at TrainConfig.drop_epoch.
`forward` and the gradients of `loss_and_grads` run the same layer loop,
`_layer_outputs`; the gradients call it directly, not through `forward`.
An epoch's training loss is the row-weighted mean of its minibatch losses,
each taken before that minibatch's Adam step (as Keras reports `loss`); no
extra pass scores the training rows. The validation loss scores the
held-out rows after the epoch's last step.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import TrainingDivergedError
from .scaling import ScalerParams

# kind -> (feature blocks per member AP, as named in
# `allocator._FEATURE_BLOCKS`, hidden widths, activations, serves a cluster)
MODEL_PLANS = {
    "ddnn": (("rho1",), (32, 64, 32), ("linear", "tanh", "tanh", "relu"),
             False),
    "ddnn-si": (("rho1", "rho2"), (64, 128, 64, 32),
                ("linear", "elu", "tanh", "tanh", "relu"), False),
    "cdnn": (("beta",), (128, 512, 256, 128),
             ("linear", "elu", "tanh", "tanh", "relu"), True),
}
MODEL_KINDS = tuple(MODEL_PLANS)

# name -> (activation of z, derivative at (z, a = activation(z))); a None
# derivative is all ones, and the gradient skips its multiply
ACTIVATIONS = {
    "linear": (lambda z: z, None),
    "tanh": (np.tanh, lambda z, a: 1.0 - a ** 2),
    "relu": (lambda z: np.maximum(z, 0.0),
             lambda z, a: (z > 0.0).astype(float)),
    "elu": (lambda z: np.where(z > 0.0, z, np.expm1(z)),
            lambda z, a: np.where(z > 0.0, 1.0, a + 1.0)),
}

# the learning rate is multiplied by this from TrainConfig.drop_epoch on
LR_DROP_FACTOR = 0.1


def layer_plan(kind: str, K: int, cluster_size: int = 1):
    """(sizes, activations) for a model kind at K UEs with `cluster_size`
    member APs, which must be 1 unless the kind serves a cluster: the one
    ValueError for an unknown kind or a member count it does not take."""
    if kind not in MODEL_PLANS:
        raise ValueError(f"unknown model kind {kind!r}")
    inputs, hidden, acts, clustered = MODEL_PLANS[kind]
    c = cluster_size
    if c < 1 or (c != 1 and not clustered):
        raise ValueError(f"{kind} model with {c} member APs")
    return [len(inputs) * c * K, *hidden, c * (K + 1)], list(acts)


@dataclass
class DenseLayer:
    W: np.ndarray        # (out, in)
    b: np.ndarray        # (out,)
    activation: str


@dataclass
class MlpModel:
    kind: str
    unit_id: int             # AP index (distributed) or cluster index
    member_aps: tuple        # AP indices whose powers this model emits
    layers: list
    scaler: Optional[ScalerParams] = None

    @property
    def n_inputs(self):
        return self.layers[0].W.shape[1]

    @property
    def plan(self):
        """(sizes, activations) in `layer_plan`'s form."""
        return ([self.n_inputs] + [l.W.shape[0] for l in self.layers],
                [l.activation for l in self.layers])

    def n_parameters(self) -> int:
        return int(sum(layer.W.size + layer.b.size for layer in self.layers))


def build_model(kind: str, K: int, unit_id: int = 0, member_aps=None,
                cluster_size: int = 1, seed=0) -> MlpModel:
    """Fresh model with uniform fan-in-scaled weights and zero biases,
    serving `member_aps` (default: `unit_id` alone) on `layer_plan`'s plan
    for that many members. A kind that serves a cluster raises ValueError
    unless `cluster_size` is that count; the others ignore it."""
    members = tuple(map(int, (unit_id,) if member_aps is None else member_aps))
    sizes, acts = layer_plan(kind, K, len(members))
    *_, clustered = MODEL_PLANS[kind]
    if clustered and cluster_size != len(members):
        raise ValueError(f"cluster size {cluster_size} differs from "
                         f"{len(members)} member APs")
    rng = np.random.default_rng(seed)
    layers = []
    for n_in, n_out, act in zip(sizes[:-1], sizes[1:], acts):
        bound = 1.0 / np.sqrt(n_in)
        W = rng.uniform(-bound, bound, size=(n_out, n_in))
        layers.append(DenseLayer(W=W, b=np.zeros(n_out), activation=act))
    return MlpModel(kind=kind, unit_id=unit_id, member_aps=members,
                    layers=layers)


def _layer_outputs(layers, a):
    """(activations, pre-activations) per layer; activations[0] is a."""
    acts, pre = [a], []
    for layer in layers:
        z = a @ np.swapaxes(layer.W, -1, -2)
        z += layer.b
        a = ACTIVATIONS[layer.activation][0](z)
        pre.append(z)
        acts.append(a)
    return acts, pre


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Network output for a batch of rows x (rows, in).

    `model` may also hold (n, out, in) weight stacks and (n, 1, out) bias
    stacks, as a `ModelGroup` does; x is then (n, rows, in) and slice i
    runs through network i, one batched matmul per layer. Each slice runs
    the BLAS call a single network runs, so the bits are the same.
    """
    return _layer_outputs(model.layers, np.asarray(x, dtype=float))[0][-1]


def mse_loss(model: MlpModel, X: np.ndarray, Y: np.ndarray) -> float:
    """Mean squared error over batch rows and output components."""
    pred = forward(model, X)
    return float(np.mean((pred - Y) ** 2))


def loss_and_grads(model: MlpModel, X: np.ndarray, Y: np.ndarray):
    """MSE and its gradients w.r.t. every weight and bias."""
    n, d_out = Y.shape
    acts, pre = _layer_outputs(model.layers, X)
    resid = acts[-1] - Y
    loss = float(np.mean(resid ** 2))
    delta = (2.0 / (n * d_out)) * resid
    grads = []
    for idx in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[idx]
        # release each layer's outputs once its delta is formed: held to
        # the end, they set training's memory peak
        z, a = pre.pop(), acts.pop()
        if (derivative := ACTIVATIONS[layer.activation][1]) is not None:
            delta *= derivative(z, a)
        del z, a
        gW = delta.T @ acts[idx]
        gb = delta.sum(axis=0)
        grads.append((gW, gb))
        if idx > 0:
            delta = delta @ layer.W
    grads.reverse()
    return loss, grads


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 60
    batch_size: int = 256
    lr: float = 1e-3
    drop_epoch: int = 40          # 0-based epoch of the LR_DROP_FACTOR drop
    validation_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch size must be >= 1")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation fraction must lie in [0, 1)")


@dataclass(frozen=True)
class TrainResult:
    train_loss: np.ndarray    # per-epoch row-weighted mean minibatch MSE
    val_loss: np.ndarray      # per-epoch end-of-epoch MSE on validation rows


class _Adam:
    """Standard Adam with bias correction, updated in place.

    Per parameter array P with gradient g, in this operation order:
    m += (1 - beta1)(g - m), v += (1 - beta2)(g^2 - v) and
    P -= (lr (m / c1)) / (sqrt(v / c2) + eps), with the constants of
    Kingma & Ba (2015). Temporaries live in two flat scratch arrays sized
    to the largest parameter array, shared by all layers as views. They are
    made per step: kept across steps, they would sit on top of the gradient
    pass, which sets training's memory peak.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, layers):
        self.t = 0
        self.m = [(np.zeros_like(l.W), np.zeros_like(l.b)) for l in layers]
        self.v = [(np.zeros_like(l.W), np.zeros_like(l.b)) for l in layers]
        self._size = max(max(l.W.size, l.b.size) for l in layers)

    def step(self, layers, grads, lr):
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        scratch = np.empty(self._size), np.empty(self._size)
        for layer, g, m, v in zip(layers, grads, self.m, self.v):
            self._update(layer.W, g[0], m[0], v[0], c1, c2, lr, scratch)
            self._update(layer.b, g[1], m[1], v[1], c1, c2, lr, scratch)

    def _update(self, P, g, m, v, c1, c2, lr, scratch):
        s, d = (buf[:P.size].reshape(P.shape) for buf in scratch)
        np.subtract(g, m, out=s)
        s *= 1.0 - self.beta1
        m += s
        np.square(g, out=s)
        s -= v
        s *= 1.0 - self.beta2
        v += s
        np.divide(m, c1, out=s)
        s *= lr
        np.divide(v, c2, out=d)
        np.sqrt(d, out=d)
        d += self.eps
        s /= d
        P -= s


def validation_split(n: int, fraction: float, seed: int):
    """(train_idx, val_idx): a seeded permutation of n rows whose first
    max(1, round(fraction * n)) rows are held out when fraction > 0 and
    n >= 2; otherwise val_idx is empty and train_idx holds every row.
    """
    perm = np.random.default_rng(seed).permutation(n)
    n_val = max(1, int(round(fraction * n))) if fraction > 0 and n >= 2 else 0
    return perm[n_val:], perm[:n_val]


# train's finite checks report divergence; numpy's warnings would repeat it
@np.errstate(over="ignore", invalid="ignore")
def train(model: MlpModel, X: np.ndarray, Y: np.ndarray,
          cfg: Optional[TrainConfig] = None, val=None) -> TrainResult:
    """Adam-train the model in place on pre-scaled features.

    Every row of (X, Y) is a training row. `val` is (X_val, Y_val), split
    off beforehand (see validation_split); without it the validation curve
    stays NaN. The training curve holds each epoch's minibatch losses
    weighted by batch rows. cfg.seed seeds the minibatch shuffles. Raises
    TrainingDivergedError on a non-finite minibatch or validation loss, or,
    without `val`, when a parameter array's sum of squares is not finite
    after the last epoch.
    """
    if cfg is None:
        cfg = TrainConfig()
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape[0] != Y.shape[0] or X.shape[0] == 0:
        raise ValueError("need matching, nonempty feature and label rows")
    rng = np.random.default_rng(cfg.seed)
    n = X.shape[0]
    opt = _Adam(model.layers)
    train_curve = np.empty(cfg.epochs)
    val_curve = np.full(cfg.epochs, np.nan)
    for epoch in range(cfg.epochs):
        lr = cfg.lr * (LR_DROP_FACTOR if epoch >= cfg.drop_epoch else 1.0)
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            loss, grads = loss_and_grads(model, X[batch], Y[batch])
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}")
            total += loss * len(batch)
            opt.step(model.layers, grads, lr)
        train_curve[epoch] = total / n
        if val is not None:
            val_curve[epoch] = mse_loss(model, val[0], val[1])
            # the only loss taken after the epoch's last step
            if not np.isfinite(val_curve[epoch]):
                raise TrainingDivergedError(
                    f"non-finite validation loss at epoch {epoch}")
    # without validation rows no loss follows the last step, so the
    # parameters are checked instead: each array's sum of squares must be
    # finite, since a weight of -1e300 is finite but squares past the range
    if val is None and not all(np.isfinite(np.vdot(p, p))
                               for layer in model.layers
                               for p in (layer.W, layer.b)):
        raise TrainingDivergedError(
            "parameter overflow after the last epoch")
    return TrainResult(train_loss=train_curve, val_loss=val_curve)
