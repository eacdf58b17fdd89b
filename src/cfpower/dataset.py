"""Binary training-set container with fixed-size records.

Layout (little-endian): magic "CFDSET01", uint32 header length, sorted-key
JSON header (format_version, always FORMAT_VERSION; config snapshot,
objective, precoder, n_samples target, n_real, master_seed), then one
fixed-size record per sample in index order. `record_dtype` is the record
layout: one unaligned little-endian numpy structured dtype that packing,
unpacking and the record size all read.

Fixed records make generation resumable: the completed count is read off
the file size, and regeneration with the same master seed reproduces the
remaining records bit for bit. Readers reject a torn trailing record; only
generation's resume path cuts one (`read_layout` measures it).
"""

import json
import os
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import NetworkConfig, config_from_dict
from .container import check_fields, read_json_header
from .errors import ConfigError, DataFormatError

MAGIC = b"CFDSET01"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class SampleRecord:
    index: int
    beta: np.ndarray        # (K, L)
    pilot_of: np.ndarray    # (K,)
    mu: np.ndarray          # (K, L) optimizer output
    digest: bytes           # sha256 of the SE parameter container
    converged: bool
    subproblem_exhausted: bool
    n_outer: int
    clamp_events: int
    sign_flips: int
    final_utility: float


@lru_cache(maxsize=16)
def record_dtype(K: int, L: int) -> np.dtype:
    """The record layout at K UEs and L APs; fields are SampleRecord's."""
    return np.dtype([
        ("index", "<u4"), ("converged", "u1"), ("subproblem_exhausted", "u1"),
        ("n_outer", "<u2"),                   # saturates at 0xFFFF
        ("clamp_events", "<u4"), ("sign_flips", "<u4"),
        ("final_utility", "<f8"), ("beta", "<f8", (K, L)),
        ("pilot_of", "<i4", (K,)), ("mu", "<f8", (K, L)),
        # sha256 of the SE parameters; S32 would strip trailing NULs
        ("digest", "V32")])


def record_size(K: int, L: int) -> int:
    return record_dtype(K, L).itemsize


def pack_record(rec: SampleRecord) -> bytes:
    dtype = record_dtype(*rec.beta.shape)
    fields = {**rec.__dict__, "n_outer": min(rec.n_outer, 0xFFFF)}
    return np.array(tuple(fields[name] for name in dtype.names),
                    dtype=dtype).tobytes()


def unpack_record(blob: bytes, K: int, L: int) -> SampleRecord:
    r = np.frombuffer(blob, dtype=record_dtype(K, L), count=1)[0]
    f = dict(zip(r.dtype.names, r.item()))
    return SampleRecord(**{
        **f, "beta": f["beta"].copy(), "mu": f["mu"].copy(),
        "pilot_of": f["pilot_of"].astype(int),
        "converged": bool(f["converged"]),
        "subproblem_exhausted": bool(f["subproblem_exhausted"])})


@dataclass(frozen=True)
class DatasetHeader:
    config: NetworkConfig
    objective: str
    precoder: str
    n_samples: int
    n_real: int
    master_seed: int

    def to_bytes(self) -> bytes:
        payload = {
            "format_version": FORMAT_VERSION,
            "config": self.config.to_dict(),
            "objective": self.objective,
            "precoder": self.precoder,
            "n_samples": self.n_samples,
            "n_real": self.n_real,
            "master_seed": self.master_seed,
        }
        head = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode()
        return MAGIC + struct.pack("<I", len(head)) + head


_HEADER_FIELDS = {"config": dict, "objective": str, "precoder": str,
                  "n_samples": int, "n_real": int, "master_seed": int}


def _parse_header(blob: bytes):
    payload, start = read_json_header(blob, MAGIC, FORMAT_VERSION, "dataset")
    check_fields(payload, _HEADER_FIELDS, "dataset")
    try:
        config = config_from_dict(payload["config"])
    except ConfigError as exc:
        raise DataFormatError(f"bad dataset config: {exc}") from exc
    header = DatasetHeader(config=config,
                           objective=payload["objective"],
                           precoder=payload["precoder"],
                           n_samples=payload["n_samples"],
                           n_real=payload["n_real"],
                           master_seed=payload["master_seed"])
    return header, start


def read_layout(path):
    """(header, data start, bytes of a torn record past the last whole one).

    A torn record is what an append interrupted mid-write leaves behind.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read(1 << 20)
        size = os.path.getsize(path)
    except OSError as exc:
        raise DataFormatError(f"cannot read dataset {path}: {exc}") from exc
    header, start = _parse_header(blob)
    cfg = header.config
    return header, start, (size - start) % record_size(cfg.K, cfg.L)


class DatasetFile:
    """Reader / appender over the container; records stay in index order."""

    def __init__(self, path, header: DatasetHeader, data_start: int):
        self.path = path
        self.header = header
        self._start = data_start
        cfg = header.config
        self._rec_size = record_size(cfg.K, cfg.L)

    @classmethod
    def create(cls, path, header: DatasetHeader) -> "DatasetFile":
        blob = header.to_bytes()
        with open(path, "wb") as fh:
            fh.write(blob)
        return cls(path, header, len(blob))

    @classmethod
    def open(cls, path) -> "DatasetFile":
        header, start, torn = read_layout(path)
        if torn:
            raise DataFormatError(f"{path}: trailing partial record")
        return cls(path, header, start)

    def __len__(self) -> int:
        return (os.path.getsize(self.path) - self._start) // self._rec_size

    def append(self, rec: SampleRecord):
        if rec.index != len(self):
            raise DataFormatError(
                f"record index {rec.index} breaks the append order")
        with open(self.path, "ab") as fh:
            fh.write(pack_record(rec))

    def read(self, index: int) -> SampleRecord:
        if not 0 <= index < len(self):
            raise IndexError(index)
        cfg = self.header.config
        with open(self.path, "rb") as fh:
            fh.seek(self._start + index * self._rec_size)
            blob = fh.read(self._rec_size)
        return unpack_record(blob, cfg.K, cfg.L)

    def __iter__(self):
        cfg = self.header.config
        with open(self.path, "rb") as fh:
            fh.seek(self._start)
            while True:
                blob = fh.read(self._rec_size)
                if not blob:
                    return
                yield unpack_record(blob, cfg.K, cfg.L)
