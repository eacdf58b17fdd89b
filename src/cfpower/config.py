"""Network configuration: one flat key = value file describes a deployment.

The file format is intentionally primitive so configs can be written by hand
and diffed: one `key = value` pair per line, `#` starts a comment, blank
lines ignored. Unknown keys are rejected, and so is a number that is not
finite. Missing keys fall back to the urban-microcell defaults below.
"""

import math
from dataclasses import dataclass, fields

from .container import json_kind_ok
from .errors import ConfigError

CORRELATION_MODELS = ("uncorrelated", "local-scattering")
AP_PLACEMENTS = ("grid", "uniform-random")

# -94 dBm thermal noise over 20 MHz with a 7 dB noise figure, in watts
NOISE_POWER_94_DBM = 10.0 ** (-12.4)


@dataclass(frozen=True)
class NetworkConfig:
    """Static parameters of one cell-free deployment."""

    L: int = 16                   # access points
    K: int = 20                   # user equipments
    N: int = 4                    # antennas per AP
    area_m: float = 1000.0        # side of the wrap-around square (m)
    tau_c: int = 200              # coherence block length (samples)
    tau_p: int = 10               # pilot sequence length (samples)
    p_ul: float = 0.1             # per-UE uplink pilot power (W)
    p_max_dl: float = 1.0         # per-AP downlink power budget (W)
    noise_power: float = NOISE_POWER_94_DBM   # sigma^2 (W)
    pathloss_offset_db: float = -30.5         # median gain at 1 m (dB)
    pathloss_exponent: float = 36.7           # dB per decade of distance
    v_exponent: float = 0.6       # fractional allocation exponent
    correlation_model: str = "uncorrelated"
    angular_spread_deg: float = 15.0          # local-scattering only
    ap_placement: str = "grid"
    seed: int = 1                 # master seed for derived randomness

    def __post_init__(self):
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite")
        if self.L < 1 or self.K < 1 or self.N < 1:
            raise ConfigError("L, K, N must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.area_m <= 0:
            raise ConfigError("area_m must be positive")
        if not 1 <= self.tau_p <= self.tau_c:
            raise ConfigError("need 1 <= tau_p <= tau_c")
        if self.p_ul <= 0 or self.p_max_dl <= 0 or self.noise_power <= 0:
            raise ConfigError("powers must be positive")
        if self.v_exponent <= 0:
            raise ConfigError("v_exponent must be positive")
        if self.correlation_model not in CORRELATION_MODELS:
            raise ConfigError(f"unknown correlation_model {self.correlation_model!r}")
        if self.angular_spread_deg < 0:
            raise ConfigError("angular_spread_deg must be >= 0")
        if self.ap_placement not in AP_PLACEMENTS:
            raise ConfigError(f"unknown ap_placement {self.ap_placement!r}")
        if self.ap_placement == "grid":
            side = math.isqrt(self.L)
            if side * side != self.L:
                raise ConfigError("grid placement needs a square L")

    @property
    def tau_d(self) -> int:
        """Downlink data samples per coherence block."""
        return self.tau_c - self.tau_p

    @property
    def prelog(self) -> float:
        return self.tau_d / self.tau_c

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_FIELD_TYPES = {f.name: f.type for f in fields(NetworkConfig)}


def _parse_value(key, raw):
    kind = _FIELD_TYPES[key]
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    return raw


def config_from_dict(values: dict) -> NetworkConfig:
    unknown = set(values) - set(_FIELD_TYPES)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, value in values.items():
        if not json_kind_ok(value, _FIELD_TYPES[key]):
            raise ConfigError(f"bad value for {key}: {value!r}")
    return NetworkConfig(**values)


def load_config(path) -> NetworkConfig:
    """Parse a key = value config file into a NetworkConfig."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, raw)
    return config_from_dict(values)


def save_config(cfg: NetworkConfig, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# cfpower network configuration\n")
        for f in fields(NetworkConfig):
            fh.write(f"{f.name} = {getattr(cfg, f.name)}\n")
