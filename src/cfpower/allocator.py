"""Learned power allocation around the MLP models.

Feature recipes (all on the dB scale, robust-scaled with the scaler stored
in each model):

  ddnn     per AP l: the K per-AP fractional coefficients for that AP
  ddnn-si  per AP l: those K coefficients plus the K per-UE ratios (side
           information available centrally), concatenated
  cdnn     per cluster: raw large-scale gains of the cluster's APs,
           one K-block per member AP in cluster order

Each model serves the member APs of one unit of its kind's layout
(`model_layout`): one AP for the distributed kinds, one geographic cluster
for cdnn. Features and labels come as one row per unit.

Labels mirror the outputs: per served AP, the K optimal mu entries followed
by that AP's total transmit power sum_k mu_kl^2 in watts (cdnn emits all mu
blocks first, then the member totals).

Post-processing guarantees feasibility: the first K outputs form a
direction, the total-power output is clamped to the budget, and the column
is rescaled so its power equals the clamped total. A zero direction yields
a zero column and a warning.

Model container (little-endian): magic "CFMLP001", uint32 header length,
a sorted-key JSON header (format_version, kind, unit_id, member_aps,
layer_sizes, activations, scaler median/iqr or null), then all weights as
raw float64: per layer, W row-major then b.
"""

import json
import logging
import struct

import numpy as np

from .config import NetworkConfig
from .container import check_fields, json_kind_ok, read_json_header
from .errors import DataFormatError
from .heuristics import fractional_coefficients, side_info_ratios
from .mlp import ACTIVATIONS, MODEL_KINDS, DenseLayer, MlpModel, forward
from .network import place_aps
from .scaling import ScalerParams, apply_scaler
from .se import PowerAllocation

log = logging.getLogger(__name__)

_MAGIC = b"CFMLP001"
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


def ddnn_features(beta: np.ndarray, cfg: NetworkConfig) -> np.ndarray:
    """(L, K) rows of per-AP heuristic coefficients in dB."""
    rho1 = fractional_coefficients(beta, cfg.v_exponent, cfg.p_max_dl)
    return to_db(rho1).T


def ddnn_si_features(beta: np.ndarray, cfg: NetworkConfig) -> np.ndarray:
    """(L, 2K) rows: per-AP coefficients then per-UE ratios, in dB."""
    rho1 = fractional_coefficients(beta, cfg.v_exponent, cfg.p_max_dl)
    rho2 = side_info_ratios(beta, cfg.v_exponent, cfg.p_max_dl)
    return np.concatenate([to_db(rho1).T, to_db(rho2).T], axis=1)


def cdnn_features(beta: np.ndarray, clusters: np.ndarray) -> np.ndarray:
    """(n_clusters, cK) rows of raw member-AP gains in dB."""
    blocks = [to_db(beta[:, aps].T).reshape(-1) for aps in clusters]
    return np.stack(blocks)


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


def features_for(kind: str, beta: np.ndarray, cfg: NetworkConfig,
                 members: np.ndarray) -> np.ndarray:
    """One raw feature row per unit of the layout `members`."""
    if kind == "ddnn":
        return ddnn_features(beta, cfg)[members[:, 0]]
    if kind == "ddnn-si":
        return ddnn_si_features(beta, cfg)[members[:, 0]]
    if kind == "cdnn":
        return cdnn_features(beta, members)
    raise ValueError(f"unknown model kind {kind!r}")


def distributed_labels(mu: np.ndarray) -> np.ndarray:
    """(L, K+1) rows: mu column then its total power in watts."""
    totals = np.sum(mu ** 2, axis=0)
    return np.concatenate([mu.T, totals[:, None]], axis=1)


def clustered_labels(mu: np.ndarray, clusters: np.ndarray) -> np.ndarray:
    """(n_clusters, c(K+1)) rows: member mu blocks, then member totals."""
    rows = []
    for aps in clusters:
        cols = [mu[:, l] for l in aps]
        totals = [np.sum(mu[:, l] ** 2) for l in aps]
        rows.append(np.concatenate(cols + [np.asarray(totals)]))
    return np.stack(rows)


def labels_for(kind: str, mu: np.ndarray, members: np.ndarray) -> np.ndarray:
    """One label row per unit of the layout `members`."""
    if kind in ("ddnn", "ddnn-si"):
        return distributed_labels(mu)[members[:, 0]]
    if kind == "cdnn":
        return clustered_labels(mu, members)
    raise ValueError(f"unknown model kind {kind!r}")


def _column_from_outputs(direction, total, p_max):
    """Feasible mu column from K direction outputs and a power estimate."""
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        return np.zeros_like(direction), True
    power = min(float(total), p_max)
    return direction * (np.sqrt(power) / norm), False


def model_features(models, beta: np.ndarray, cfg: NetworkConfig):
    """One raw (unscaled) feature row per model, in model order."""
    members = np.array([m.member_aps for m in models])
    return features_for(models[0].kind, beta, cfg, members)


def predict_from_features(models, rows, K: int, L: int,
                          p_max: float) -> PowerAllocation:
    """Scale, run and post-process one pre-built feature row per model."""
    kind = models[0].kind
    if sorted(l for m in models for l in m.member_aps) != list(range(L)):
        raise ValueError("models do not cover every AP exactly once")
    mu = np.empty((K, L))
    zero_columns = 0
    for model, x in zip(models, rows):
        if model.kind != kind:
            raise ValueError("mixed model kinds in one allocation")
        if model.scaler is None:
            raise ValueError("model has no fitted scaler")
        y = forward(model, apply_scaler(model.scaler, x))
        aps = model.member_aps
        for j, l in enumerate(aps):
            direction = y[j * K:(j + 1) * K]
            total = y[len(aps) * K + j]
            col, was_zero = _column_from_outputs(direction, total, p_max)
            zero_columns += was_zero
            mu[:, l] = col
    if zero_columns:
        log.warning("%d AP columns predicted as all-zero", zero_columns)
    return PowerAllocation(mu=mu, p_max=p_max)


def predict_allocation(models, beta: np.ndarray,
                       cfg: NetworkConfig) -> PowerAllocation:
    """Run every model on its features and assemble a feasible allocation.

    `models` holds one model per AP (distributed kinds) or per cluster
    (cdnn); each model knows the APs it serves, so any order works as long
    as the union covers all APs exactly once.
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
    payload = b"".join(
        np.ascontiguousarray(arr, dtype="<f8").tobytes()
        for layer in model.layers for arr in (layer.W, layer.b))
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(head)))
        fh.write(head)
        fh.write(payload)


_HEADER_FIELDS = {"kind": str, "unit_id": int, "member_aps": list,
                  "layer_sizes": list, "activations": list,
                  "scaler_median": (list, type(None)),
                  "scaler_iqr": (list, type(None))}


def _parse_model(blob: bytes) -> MlpModel:
    header, off = read_json_header(blob, _MAGIC, FORMAT_VERSION, "model")
    check_fields(header, _HEADER_FIELDS, "model")
    sizes, acts = header["layer_sizes"], header["activations"]
    if (len(sizes) < 2 or len(acts) != len(sizes) - 1
            or not all(json_kind_ok(n, int) and n >= 1 for n in sizes)
            or not all(a in ACTIVATIONS for a in acts)
            or not all(json_kind_ok(i, int) for i in header["member_aps"])):
        raise DataFormatError("inconsistent model header")
    if header["kind"] not in MODEL_KINDS:
        raise DataFormatError(f"unknown model kind {header['kind']!r}")
    n_weights = sum(n_in * n_out + n_out
                    for n_in, n_out in zip(sizes[:-1], sizes[1:]))
    if len(blob) - off != 8 * n_weights:
        raise DataFormatError("weight payload size mismatch")
    weights = np.frombuffer(blob, dtype="<f8", offset=off)
    layers = []
    pos = 0
    for n_in, n_out, act in zip(sizes[:-1], sizes[1:], acts):
        W = weights[pos:pos + n_in * n_out].reshape(n_out, n_in).copy()
        pos += n_in * n_out
        b = weights[pos:pos + n_out].copy()
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
    return MlpModel(kind=header["kind"], unit_id=header["unit_id"],
                    member_aps=tuple(header["member_aps"]),
                    layers=layers, scaler=scaler)


def load_model(path) -> MlpModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return _parse_model(blob)
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
