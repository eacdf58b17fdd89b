"""Corrupt containers fail with DataFormatError and nothing else.

Valid CFMLP001 and CFDSET01 blobs are truncated, byte-flipped or
extended at random, then parsed the way the package reads them. A parse may
succeed (a flipped weight is still a weight), but the only exception allowed
to escape is DataFormatError. Hand-built blobs pin the escapes a
random-mutation probe once found (struct, JSON, Unicode, key and config
errors) and header fields of the wrong type or shape, which must fail at
load time rather than at first use.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfpower.allocator import load_model, save_model
from cfpower.config import NetworkConfig
from cfpower.dataset import (DatasetFile, DatasetHeader, SampleRecord,
                             record_size)
from cfpower.errors import DataFormatError
from cfpower.mlp import DenseLayer, MlpModel
from cfpower.scaling import ScalerParams

CFG = NetworkConfig(L=2, K=2, N=1, area_m=100.0, tau_p=2,
                    ap_placement="uniform-random")


def _model_blob(path):
    # tiny layers keep the header a large share of the blob: a ddnn-si
    # model at K = 1, with 2K inputs and K + 1 outputs
    rng = np.random.default_rng(0)
    layers = [DenseLayer(W=rng.standard_normal((3, 2)), b=np.zeros(3),
                         activation="tanh"),
              DenseLayer(W=rng.standard_normal((2, 3)), b=np.ones(2),
                         activation="relu")]
    model = MlpModel(kind="ddnn-si", unit_id=1, member_aps=(1,), layers=layers,
                     scaler=ScalerParams(median=np.array([0.5, -1.0]),
                                         iqr=np.array([2.0, 3.0])))
    save_model(model, path)
    return path.read_bytes()


def _dataset_blob(path):
    header = DatasetHeader(config=CFG, objective="sumse", precoder="rzf",
                           n_samples=2, n_real=200, master_seed=7)
    ds = DatasetFile.create(path, header)
    for index in range(2):
        ds.append(SampleRecord(
            index=index, beta=np.full((2, 2), 1e-9), pilot_of=np.arange(2),
            mu=np.full((2, 2), 0.25), digest=bytes(range(32)),
            converged=True, subproblem_exhausted=False, n_outer=3,
            clamp_events=0, sign_flips=1, final_utility=1.5))
    return path.read_bytes()


def _read_model(path):
    load_model(path)


def _read_dataset(path):
    ds = DatasetFile.open(path)
    records = list(ds)
    assert len(records) == len(ds)
    for index in range(len(ds)):
        ds.read(index)


READERS = {"model": _read_model, "dataset": _read_dataset}


@pytest.fixture(scope="module")
def valid_blobs(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    return {"model": _model_blob(root / "m.cfmlp"),
            "dataset": _dataset_blob(root / "d.cfds")}


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "blob.bin"


def test_valid_blobs_parse(valid_blobs, scratch_file):
    for kind, blob in valid_blobs.items():
        scratch_file.write_bytes(blob)
        READERS[kind](scratch_file)


# positions land in the first 300 bytes (magic, lengths, JSON headers) half
# of the time, anywhere in the blob otherwise
_POSITION = st.one_of(st.integers(0, 299), st.integers(0, 1 << 20))
_MUTATION = st.one_of(
    st.tuples(st.just("truncate"), _POSITION),
    st.tuples(st.just("flip"),
              st.lists(st.tuples(_POSITION, st.integers(1, 255)),
                       min_size=1, max_size=4)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=64)),
)


def _mutate(blob, mutation):
    op, arg = mutation
    if op == "truncate":
        return blob[:arg % len(blob)]
    if op == "extend":
        return blob + arg
    out = bytearray(blob)
    for pos, mask in arg:
        out[pos % len(out)] ^= mask
    return bytes(out)


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(max_examples=300)
@given(mutation=_MUTATION)
def test_mutated_containers_raise_only_data_format_error(
        valid_blobs, scratch_file, kind, mutation):
    scratch_file.write_bytes(_mutate(valid_blobs[kind], mutation))
    try:
        READERS[kind](scratch_file)
    except DataFormatError:
        pass


def _framed(magic, head, payload=b""):
    if not isinstance(head, bytes):
        head = json.dumps(head).encode()
    return magic + struct.pack("<I", len(head)) + head + payload


def _dataset_head(**changes):
    head = json.loads(DatasetHeader(
        config=CFG, objective="sumse", precoder="rzf", n_samples=2,
        n_real=200, master_seed=7).to_bytes()[12:])
    head.update(changes)
    return head


def _model_head(**changes):
    head = {"format_version": 1, "kind": "ddnn", "unit_id": 0,
            "member_aps": [0], "layer_sizes": [1, 1],
            "activations": ["relu"], "scaler_median": None,
            "scaler_iqr": None}
    head.update(changes)
    return head


@pytest.mark.parametrize("kind, blob", [
    ("model", b"CFMLP001\x00"),
    ("model", _framed(b"CFMLP001", [1, 2])),
    ("model", _framed(b"CFMLP001", {"format_version": 1})),
    ("model", _framed(b"CFMLP001", _model_head(), b"\x00" * 13)),
    ("model", _framed(b"CFMLP001", b"\xff\xfe{}")),
    ("model", _framed(b"CFMLP001", _model_head(layer_sizes=["1", 1]),
                      b"\x00" * 16)),
    ("model", _framed(b"CFMLP001", _model_head(activations=["gelu"]),
                      b"\x00" * 16)),
    ("model", _framed(b"CFMLP001", _model_head(scaler_median=[0.0]),
                      b"\x00" * 16)),
    ("model", _framed(b"CFMLP001", {"format_version": 1}, b"x" * 100)[:20]),
    ("dataset", b"CFDSET01\x01"),
    ("dataset", _framed(b"CFDSET01", b"\xff\xfe{}")),
    ("dataset", _framed(b"CFDSET01", [1])),
    ("dataset", _framed(b"CFDSET01", {"format_version": 1})),
    ("dataset", _framed(b"CFDSET01",
                        _dataset_head(config=dict(CFG.to_dict(), K=0)))),
    ("dataset", _framed(b"CFDSET01",
                        _dataset_head(config=dict(CFG.to_dict(), K=2.0)),
                        b"\x00" * record_size(2, 2))),
    ("dataset", _framed(b"CFDSET01", _dataset_head(config=[["K", 2]]))),
    ("dataset", _framed(b"CFDSET01", _dataset_head(n_samples="2"))),
], ids=lambda v: None if isinstance(v, bytes) else v)
def test_malformed_blobs_are_data_format_errors(tmp_path, kind, blob):
    path = tmp_path / "blob.bin"
    path.write_bytes(blob)
    with pytest.raises(DataFormatError):
        READERS[kind](path)
