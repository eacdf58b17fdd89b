"""Binary training-set container with fixed-size records.

Layout (little-endian): magic "CFDSET01", uint32 header length, sorted-key
JSON header (format_version, config snapshot, objective, precoder,
n_samples target, n_real, master_seed), then one fixed-size record per
sample in index order:

  uint32 index | uint8 converged | uint8 subproblem_exhausted flag |
  uint16 n_outer | uint32 clamp_events | uint32 sign_flips |
  float64 final_utility | beta (K*L f8) | pilot_of (K i4) | mu (K*L f8) |
  sha256 digest of the SE parameter container (32 bytes)

Fixed records make generation resumable: the completed count is read off
the file size, and regeneration with the same master seed reproduces the
remaining records bit for bit. Readers reject a torn trailing record; only
generation's resume path cuts one (`read_layout` measures it).
"""

import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .config import NetworkConfig, config_from_dict
from .container import check_fields, read_json_header
from .errors import ConfigError, DataFormatError

_MAGIC = b"CFDSET01"
FORMAT_VERSION = 1

_FIXED = struct.Struct("<IBBHIId")


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


def record_size(K: int, L: int) -> int:
    return _FIXED.size + 8 * K * L + 4 * K + 8 * K * L + 32


def pack_record(rec: SampleRecord) -> bytes:
    head = _FIXED.pack(rec.index, int(rec.converged),
                       int(rec.subproblem_exhausted),
                       min(rec.n_outer, 0xFFFF), rec.clamp_events,
                       rec.sign_flips, rec.final_utility)
    return (head
            + np.ascontiguousarray(rec.beta, dtype="<f8").tobytes()
            + np.ascontiguousarray(rec.pilot_of, dtype="<i4").tobytes()
            + np.ascontiguousarray(rec.mu, dtype="<f8").tobytes()
            + rec.digest)


def unpack_record(blob: bytes, K: int, L: int) -> SampleRecord:
    index, conv, exhausted, n_outer, clamps, flips, util = \
        _FIXED.unpack_from(blob, 0)
    off = _FIXED.size
    beta = np.frombuffer(blob, dtype="<f8", count=K * L, offset=off)
    off += 8 * K * L
    pilots = np.frombuffer(blob, dtype="<i4", count=K, offset=off)
    off += 4 * K
    mu = np.frombuffer(blob, dtype="<f8", count=K * L, offset=off)
    off += 8 * K * L
    digest = blob[off:off + 32]
    return SampleRecord(index=index, beta=beta.reshape(K, L).copy(),
                        pilot_of=pilots.astype(int),
                        mu=mu.reshape(K, L).copy(), digest=digest,
                        converged=bool(conv),
                        subproblem_exhausted=bool(exhausted),
                        n_outer=n_outer, clamp_events=clamps,
                        sign_flips=flips, final_utility=util)


@dataclass(frozen=True)
class DatasetHeader:
    config: NetworkConfig
    objective: str
    precoder: str
    n_samples: int
    n_real: int
    master_seed: int
    format_version: int = FORMAT_VERSION

    def to_bytes(self) -> bytes:
        payload = {
            "format_version": self.format_version,
            "config": self.config.to_dict(),
            "objective": self.objective,
            "precoder": self.precoder,
            "n_samples": self.n_samples,
            "n_real": self.n_real,
            "master_seed": self.master_seed,
        }
        head = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode()
        return _MAGIC + struct.pack("<I", len(head)) + head


_HEADER_FIELDS = {"config": dict, "objective": str, "precoder": str,
                  "n_samples": int, "n_real": int, "master_seed": int}


def _parse_header(blob: bytes):
    payload, start = read_json_header(blob, _MAGIC, FORMAT_VERSION, "dataset")
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
