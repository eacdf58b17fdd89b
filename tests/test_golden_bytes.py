"""Exact bytes of the files the package writes.

Round-trip tests pass whatever the separator, key order or framing is, as
long as the reader agrees with the writer. These tests pin the bytes
themselves, on hand-built inputs: a dataset header plus one record, a small
model file, and the three CSVs of an evaluation report.
"""

import hashlib
import os
import pathlib

import numpy as np

from cfpower.allocator import save_model
from cfpower.config import NetworkConfig
from cfpower.dataset import DatasetHeader, SampleRecord, pack_record
from cfpower.mlp import DenseLayer, MlpModel
from cfpower.pipeline import EvalReport
from cfpower.scaling import ScalerParams

# what the package wrote when these tests were added: a change here is a
# change of file format
HEADER_JSON = (
    b'{"config":{"K":2,"L":2,"N":1,"angular_spread_deg":15.0,'
    b'"ap_placement":"uniform-random","area_m":100.0,'
    b'"correlation_model":"uncorrelated","noise_power":3.981071705534969e-13,'
    b'"p_max_dl":1.0,"p_ul":0.1,"pathloss_exponent":36.7,'
    b'"pathloss_offset_db":-30.5,"seed":1,"tau_c":200,"tau_p":2,'
    b'"v_exponent":0.6},"format_version":1,"master_seed":7,"n_real":200,'
    b'"n_samples":3,"objective":"sumse","precoder":"rzf"}')
DATASET_SHA256 = (
    "5e4c17c265266ecbb3dbdafcb3c2b19e60313dda23efa5ee2bd39e5684c50a7f")
MODEL_SHA256 = (
    "aee0e19a99dfae2b05c1fd4b220e3e4d5c84557e5bb1fabf3185bef8c284807e")

PER_UE_CSV = (
    "drop,strategy,ue,se\r\n"
    "0,wmmse-sumse,0,1.5\r\n"
    "0,wmmse-sumse,1,0.25\r\n"
    "1,wmmse-sumse,0,2.0\r\n"
    "1,wmmse-sumse,1,0.125\r\n"
    "0,equal,0,1.0\r\n"
    "0,equal,1,0.5\r\n"
    "1,equal,0,0.75\r\n"
    "1,equal,1,0.3333333333333333\r\n")
CDF_CSV = (
    "strategy,se,cdf\r\n"
    "wmmse-sumse,0.125,0.25\r\n"
    "wmmse-sumse,0.25,0.5\r\n"
    "wmmse-sumse,1.5,0.75\r\n"
    "wmmse-sumse,2.0,1.0\r\n"
    "equal,0.3333333333333333,0.25\r\n"
    "equal,0.5,0.5\r\n"
    "equal,0.75,0.75\r\n"
    "equal,1.0,1.0\r\n")
SUMMARY_CSV = (
    "strategy,mean_total_se,mean_min_se,p10_se,mean_alloc_seconds,"
    "converged,n_outer_p50,n_outer_p90,subproblem_exhausted\r\n"
    "wmmse-sumse,1.9375,0.1875,0.1625,0.0125,2,7.5,9.1,0\r\n"
    "equal,1.2916666666666665,0.41666666666666663,0.3833333333333333,"
    "2e-06,,,,\r\n")


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def test_dataset_header_and_record_bytes():
    cfg = NetworkConfig(L=2, K=2, N=1, area_m=100.0, tau_p=2,
                        ap_placement="uniform-random")
    header = DatasetHeader(config=cfg, objective="sumse", precoder="rzf",
                           n_samples=3, n_real=200, master_seed=7)
    record = SampleRecord(
        index=0, beta=np.array([[1e-9, 2e-9], [3e-9, 4e-9]]),
        pilot_of=np.array([1, 0]), mu=np.array([[0.25, 0.5], [0.75, 1.0]]),
        digest=bytes(range(32)), converged=True, subproblem_exhausted=False,
        n_outer=3, clamp_events=1, sign_flips=2, final_utility=1.5)
    blob = header.to_bytes()
    assert blob[:12] == b"CFDSET01" + (len(blob) - 12).to_bytes(4, "little")
    assert blob[12:] == HEADER_JSON
    assert sha256(blob + pack_record(record)) == DATASET_SHA256


def test_model_file_bytes(tmp_path):
    layers = [DenseLayer(W=np.arange(6.0).reshape(3, 2) / 8.0,
                         b=np.array([0.5, -0.5, 0.0]), activation="tanh"),
              DenseLayer(W=-np.arange(6.0).reshape(2, 3) / 4.0,
                         b=np.array([1.0, 2.0]), activation="relu")]
    model = MlpModel(kind="ddnn-si", unit_id=1, member_aps=(1,),
                     layers=layers,
                     scaler=ScalerParams(median=np.array([0.5, -1.0]),
                                         iqr=np.array([2.0, 3.0])))
    path = tmp_path / "m.cfmlp"
    save_model(model, path)
    assert sha256(path.read_bytes()) == MODEL_SHA256


def test_evaluation_csv_text(tmp_path):
    report = EvalReport(
        strategies=["wmmse-sumse", "equal"],
        se={"wmmse-sumse": np.array([[1.5, 0.25], [2.0, 0.125]]),
            "equal": np.array([[1.0, 0.5], [0.75, 1.0 / 3.0]])},
        alloc_seconds={"wmmse-sumse": 0.0125, "equal": 2e-6},
        digests=["00", "11"],
        solver={"wmmse-sumse": {"converged": 2, "n_outer_p50": 7.5,
                                "n_outer_p90": 9.1,
                                "subproblem_exhausted": 0}})
    paths = report.write_csvs(tmp_path)
    assert [os.path.basename(p) for p in paths] == [
        "per_ue_se.csv", "cdf.csv", "summary.csv"]
    texts = [pathlib.Path(p).read_bytes().decode("utf-8") for p in paths]
    assert texts == [PER_UE_CSV, CDF_CSV, SUMMARY_CSV]

