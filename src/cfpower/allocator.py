"""Learned power allocation around the MLP models.

Every model serves one unit of its kind's layout (`model_layout`): the
(n_units, members) array of AP indices, one geographic cluster per cdnn
unit and one AP per ddnn/ddnn-si unit (a distributed unit is a one-member
unit). One rule maps a unit to its model's inputs and outputs:

  inputs   the member APs' feature blocks, in member order
  outputs  the member APs' mu columns (K entries each), in member order,
           then the member APs' total transmit powers sum_k mu_kl^2 in watts

Training labels follow the output rule exactly. The feature block of AP l
depends on the kind (all on the dB scale, robust-scaled with the scaler
stored in each model):

  ddnn     the K per-AP fractional coefficients of AP l
  ddnn-si  those K coefficients plus the K per-UE ratios (side information
           available centrally), concatenated
  cdnn     the K raw large-scale gains of AP l

so features, labels and outputs are gathers and scatters of per-AP tables
on the layout.

Inference runs a kind's models as one `ModelGroup` (from `stack_models`,
or from `pipeline.load_models`, which fills it while it reads the files).
Per layer the group holds one (n_units, out, in) weight stack and one
(n_units, 1, out) bias stack, plus (n_units, 1, F) scaler median and IQR
stacks; every model's W, b, median and IQR are views into them, so the
weights exist once. One `apply_scaler` and one `forward` call then serve
every unit of the kind. A group must hold one kind, one layer plan and a
scaler per model, and its units must cover every AP exactly once.

Post-processing guarantees feasibility: each member's K outputs form a
direction, its total-power output is clamped to the budget, and the column
is rescaled so its power equals the clamped total. A zero direction yields
a zero column and a warning.

Model container (little-endian): magic "CFMLP001", uint32 header length,
a sorted-key JSON header (format_version, kind, unit_id, member_aps,
layer_sizes, activations, scaler median/iqr or null), then all weights as
raw float64: per layer, W row-major then b.
"""

import json
import logging
import os
import struct
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .config import NetworkConfig
from .container import check_fields, json_kind_ok, read_json_header
from .errors import DataFormatError
from .heuristics import fractional_coefficients, side_info_ratios
from .mlp import (ACTIVATIONS, MODEL_KINDS, DenseLayer, MlpModel, forward,
                  layer_plan)
from .network import place_aps
from .scaling import ScalerParams, apply_scaler
from .se import PowerAllocation

log = logging.getLogger(__name__)

MAGIC = b"CFMLP001"
FORMAT_VERSION = 1


def to_db(x: np.ndarray) -> np.ndarray:
    """Power-style dB scale used for every learned feature."""
    return 10.0 * np.log10(x)


def cluster_partition(ap_positions: np.ndarray, cluster_size: int):
    """Geographic clusters: APs sorted by (x, y), chunked into blocks.

    Returns an (L / cluster_size, cluster_size) int array of AP indices.
    """
    ap = np.asarray(ap_positions, dtype=float)
    L = ap.shape[0]
    if cluster_size < 1 or L % cluster_size != 0:
        raise ValueError(f"cluster size {cluster_size} must divide L = {L}")
    order = np.lexsort((ap[:, 1], ap[:, 0]))
    return order.reshape(L // cluster_size, cluster_size)


def model_layout(kind: str, cfg: NetworkConfig, seed, cluster_size: int):
    """(n_units, members) AP indices served by each model of a kind.

    One unit per AP for the distributed kinds; for cdnn, the geographic
    clusters of the APs placed under `seed`.
    """
    if kind in ("ddnn", "ddnn-si"):
        return np.arange(cfg.L)[:, None]
    if kind == "cdnn":
        return cluster_partition(place_aps(cfg, seed), cluster_size)
    raise ValueError(f"unknown model kind {kind!r}")


def _feature_table(kind: str, beta: np.ndarray,
                   cfg: NetworkConfig) -> np.ndarray:
    """(L, F) feature blocks in dB, one row per AP."""
    if kind == "cdnn":
        return to_db(beta).T
    rho1 = to_db(fractional_coefficients(beta, cfg.v_exponent,
                                         cfg.p_max_dl)).T
    if kind == "ddnn":
        return rho1
    if kind == "ddnn-si":
        rho2 = side_info_ratios(beta, cfg.v_exponent, cfg.p_max_dl)
        return np.concatenate([rho1, to_db(rho2).T], axis=1)
    raise ValueError(f"unknown model kind {kind!r}")


def features_for(kind: str, beta: np.ndarray, cfg: NetworkConfig,
                 members: np.ndarray) -> np.ndarray:
    """One raw feature row per unit of the layout `members`."""
    table = _feature_table(kind, beta, cfg)
    return table[members].reshape(len(members), -1)


def labels_for(mu: np.ndarray, members: np.ndarray) -> np.ndarray:
    """One label row per unit of the layout `members`: the member mu
    columns, then the member totals."""
    totals = np.sum(mu ** 2, axis=0)
    columns = mu.T[members].reshape(len(members), -1)
    return np.concatenate([columns, totals[members]], axis=1)


@dataclass(frozen=True, eq=False)
class ModelGroup(Sequence):
    """One kind's models with their weights stacked; see the module
    docstring. Indexes and iterates as its `MlpModel`s, and `forward`
    takes it as one model whose layers are stacks."""

    models: tuple
    layers: list            # DenseLayer stacks, W (n, out, in), b (n, 1, out)
    scaler: ScalerParams    # median and IQR stacks, (n, 1, F)
    members: np.ndarray     # (n, c) member APs, one row per model
    aps: tuple              # every member AP, sorted

    def __getitem__(self, index):
        return self.models[index]

    def __len__(self):
        return len(self.models)

    def __iter__(self):
        return iter(self.models)


def stack_models(models, n_models=None) -> ModelGroup:
    """The models, in the order given, as one `ModelGroup`.

    Each model's arrays are copied into new stacks, and the group holds new
    `MlpModel`s whose arrays are views into them; the given models are left
    alone. `models` may be an iterator of `n_models` items, each copied in
    as it arrives and released before the next one is drawn, so at most one
    whole model besides the stacks is ever held. Raises ValueError for an
    empty group, mixed kinds, mixed layer plans or a model without a scaler.
    """
    if n_models is None:
        models = list(models)
        n_models = len(models)
    views = []
    for model in models:
        plan = ([model.n_inputs] + [l.W.shape[0] for l in model.layers],
                [l.activation for l in model.layers])
        if not views:
            kind, (sizes, acts) = model.kind, plan
            layers = [DenseLayer(W=np.empty((n_models, n_out, n_in)),
                                 b=np.empty((n_models, 1, n_out)),
                                 activation=act)
                      for n_in, n_out, act in zip(sizes[:-1], sizes[1:],
                                                  acts)]
            median, iqr = (np.empty((n_models, 1, sizes[0])),
                           np.empty((n_models, 1, sizes[0])))
        elif model.kind != kind:
            raise ValueError("mixed model kinds in one allocation")
        elif plan != (sizes, acts):
            raise ValueError(f"layer plan {plan} differs from the group's "
                             f"{(sizes, acts)}")
        if model.scaler is None:
            raise ValueError("model has no fitted scaler")
        views.append(_copy_into(model, len(views), layers, median, iqr))
        # the next model may be parsed from a file only after this one is
        # gone: the stacks hold its only copy from here on
        del model
    if not views:
        raise ValueError("no models in the group")
    members = np.array([m.member_aps for m in views])
    return ModelGroup(models=tuple(views), layers=layers,
                      scaler=ScalerParams(median=median, iqr=iqr),
                      members=members,
                      aps=tuple(sorted(members.reshape(-1).tolist())))


def _copy_into(model, i, layers, median, iqr) -> MlpModel:
    """Copy a model into row i of the stacks; return its model of views.

    A function of its own, so no loop variable outlives the copy.
    """
    own = []
    for stack, layer in zip(layers, model.layers):
        stack.W[i], stack.b[i, 0] = layer.W, layer.b
        own.append(DenseLayer(W=stack.W[i], b=stack.b[i, 0],
                              activation=layer.activation))
    median[i, 0], iqr[i, 0] = model.scaler.median, model.scaler.iqr
    return MlpModel(kind=model.kind, unit_id=model.unit_id,
                    member_aps=tuple(model.member_aps), layers=own,
                    scaler=ScalerParams(median=median[i, 0], iqr=iqr[i, 0]))


def check_cover(group: ModelGroup, L: int):
    """ValueError unless the group's units cover APs 0..L-1 once each."""
    if group.aps != tuple(range(L)):
        raise ValueError(f"models do not cover every AP exactly once: "
                         f"they serve APs {list(group.aps)} of L = {L}")


def model_features(models: ModelGroup, beta: np.ndarray, cfg: NetworkConfig):
    """One raw (unscaled) feature row per model of the group, in order."""
    return features_for(models[0].kind, beta, cfg, models.members)


def predict_from_features(models: ModelGroup, rows, K: int, L: int,
                          p_max: float) -> PowerAllocation:
    """Scale, run and post-process one pre-built feature row per model of
    the group: one `apply_scaler` and one `forward` call for all of them."""
    check_cover(models, L)
    x = apply_scaler(models.scaler, np.asarray(rows)[:, None, :])
    y = forward(models, x)[:, 0, :]
    n_units, c = models.members.shape
    directions = y[:, :c * K].reshape(n_units * c, K)
    totals = y[:, c * K:].reshape(-1)
    # a stack of vector-vector products runs one BLAS dot per column, the
    # same sum as np.linalg.norm of one vector (a reduction along axis 1
    # would sum in another order)
    norms = np.sqrt(directions[:, None, :] @ directions[:, :, None])[:, 0, 0]
    zero = norms == 0.0
    scale = np.sqrt(np.minimum(totals, p_max)) / np.where(zero, 1.0, norms)
    columns = directions * scale[:, None]
    columns[zero] = 0.0
    mu = np.empty((K, L))
    mu[:, models.members.reshape(-1)] = columns.T
    if np.any(zero):
        log.warning("%d AP columns predicted as all-zero", np.sum(zero))
    return PowerAllocation(mu=mu, p_max=p_max)


def predict_allocation(models: ModelGroup, beta: np.ndarray,
                       cfg: NetworkConfig) -> PowerAllocation:
    """Run every model on its features and assemble a feasible allocation.

    `models` is a `ModelGroup` (see `stack_models`) of one model per AP
    (distributed kinds) or per cluster (cdnn); each model knows the APs it
    serves, so any order works as long as the union covers all APs exactly
    once.
    """
    rows = model_features(models, beta, cfg)
    return predict_from_features(models, rows, cfg.K, cfg.L, cfg.p_max_dl)


def save_model(model: MlpModel, path):
    """Write the self-describing binary container (byte-stable)."""
    header = {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "unit_id": model.unit_id,
        "member_aps": list(model.member_aps),
        "layer_sizes": [model.layers[0].W.shape[1]]
                       + [l.W.shape[0] for l in model.layers],
        "activations": [l.activation for l in model.layers],
        "scaler_median": (None if model.scaler is None
                          else model.scaler.median.tolist()),
        "scaler_iqr": (None if model.scaler is None
                       else model.scaler.iqr.tolist()),
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(head)))
        fh.write(head)
        # one array at a time, straight from its buffer when it is already
        # contiguous little-endian float64
        for layer in model.layers:
            for arr in (layer.W, layer.b):
                fh.write(np.ascontiguousarray(arr, dtype="<f8").data)


_HEADER_FIELDS = {"kind": str, "unit_id": int, "member_aps": list,
                  "layer_sizes": list, "activations": list,
                  "scaler_median": (list, type(None)),
                  "scaler_iqr": (list, type(None))}


def _parse_model(blob: bytes) -> MlpModel:
    header, off = read_json_header(blob, MAGIC, FORMAT_VERSION, "model")
    check_fields(header, _HEADER_FIELDS, "model")
    sizes, acts = header["layer_sizes"], header["activations"]
    if (len(sizes) < 2 or len(acts) != len(sizes) - 1
            or not all(json_kind_ok(n, int) and n >= 1 for n in sizes)
            or not all(a in ACTIVATIONS for a in acts)
            or not all(json_kind_ok(i, int) for i in header["member_aps"])):
        raise DataFormatError("inconsistent model header")
    kind, aps = header["kind"], header["member_aps"]
    if kind not in MODEL_KINDS:
        raise DataFormatError(f"unknown model kind {kind!r}")
    if not aps or (kind != "cdnn" and len(aps) != 1):
        raise DataFormatError(f"{kind} model with {len(aps)} member APs")
    # K follows from the output width: K outputs plus a total per member
    plan, _ = layer_plan(kind, sizes[-1] // len(aps) - 1, len(aps))
    if (sizes[0], sizes[-1]) != (plan[0], plan[-1]):
        raise DataFormatError(
            f"layer sizes {sizes[0]} -> {sizes[-1]} do not fit a {kind} "
            f"model of {len(aps)} member APs")
    n_weights = sum(n_in * n_out + n_out
                    for n_in, n_out in zip(sizes[:-1], sizes[1:]))
    if len(blob) - off != 8 * n_weights:
        raise DataFormatError("weight payload size mismatch")
    # views into the blob: its buffer is the model's only copy
    weights = np.frombuffer(blob, dtype="<f8", offset=off)
    layers = []
    pos = 0
    for n_in, n_out, act in zip(sizes[:-1], sizes[1:], acts):
        W = weights[pos:pos + n_in * n_out].reshape(n_out, n_in)
        pos += n_in * n_out
        b = weights[pos:pos + n_out]
        pos += n_out
        layers.append(DenseLayer(W=W, b=b, activation=act))
    median, iqr = header["scaler_median"], header["scaler_iqr"]
    scaler = None
    if median is not None or iqr is not None:
        if not (isinstance(median, list) and isinstance(iqr, list)
                and len(median) == len(iqr) == sizes[0]
                and all(json_kind_ok(x, float) for x in median + iqr)):
            raise DataFormatError("inconsistent model scaler")
        scaler = ScalerParams(median=np.asarray(median, dtype=float),
                              iqr=np.asarray(iqr, dtype=float))
    return MlpModel(kind=kind, unit_id=header["unit_id"],
                    member_aps=tuple(aps),
                    layers=layers, scaler=scaler)


def load_model(path) -> MlpModel:
    """The model in a file; its weights are writable views of one buffer
    that holds the file."""
    with open(path, "rb") as fh:
        blob = bytearray(os.fstat(fh.fileno()).st_size)
        del blob[fh.readinto(blob):]
    try:
        return _parse_model(blob)
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
