"""Hardening-bound spectral efficiency: parameter estimation and evaluation.

With square-root power weights mu (K x L) the achievable downlink SE of UE k
is prelog * log2(1 + SINR_k) with

    SINR_k = (a_k^T mu_k)^2 / (sum_i mu_i^T B_ki mu_i - (a_k^T mu_k)^2 + sigma2)

where a_kl is the modulus of the mean signal coefficient E{h_kl^H w_kl} and
B_ki collects the second moments Re E{h_kl^H w_il w_im^H h_km}. Both are
Monte-Carlo estimates over channel realizations; everything downstream
(optimizer, heuristics, learned allocators) consumes only (a, B, sigma2).

The Monte-Carlo reduction runs over fixed 64-realization chunks in
realization order. Per chunk, g = h^H w is one batched (K, N) @ (N, K)
matmul per (realization, AP), and B takes one real Gram product per (k, i)
pair. Summation order is fixed by the chunk size and by the BLAS kernels,
so the same batch on the same BLAS build and CPU gives the same bytes.
Dataset bytes and SE digests may differ between BLAS builds or CPUs. As
measured on one x86_64 OpenBLAS build, a `large` drop's digest was the same
at 1 and 2 OpenBLAS threads. Another chunk size moves (a, B) in the last
bits. The chunk bounds memory: its g is 6.6 MB at `large`, where a full
(n_real, K, K, L) g would be 102 MB.

The chunks are walked in the front end's realization tiles
(`estimation.realization_tiles`), which the tile size cannot reorder:
`pipeline.build_sample` carries each tile through channels, estimates and
precoders and then adds it to one running `MomentSums`, so neither a full
channel array nor a full precoder array exists. The Gram products take one
k at a time, so the float copy of g is 0.3 MB at `large`. One `large` RZF
drop at 1000 realizations peaks at 31.9 MB under tracemalloc (1.6 x the
20.5 MB a full `h` would take); the real halves of its two random draws
are 15.4 MB of it.

Binary container layout (little-endian): magic "CFSEP001", then
K, L as uint32, n_real as uint64, prelog, sigma2 as float64, then the a
payload (K*L float64, row-major) and the B payload (K*K*L*L float64,
row-major in (k, i, l, m)).
"""

import hashlib
import logging
import struct
from dataclasses import dataclass, field

import numpy as np

from .config import NetworkConfig
from .errors import DataFormatError, NumericalError
from .estimation import _CHUNK, ChannelBatch

log = logging.getLogger(__name__)

MAGIC = b"CFSEP001"
_HEADER = struct.Struct("<8sIIQdd")

# tolerated relative slack on the per-AP power budget
BUDGET_SLACK = 1e-9


@dataclass(frozen=True)
class PowerAllocation:
    """Square-root power weights mu (K x L) with their per-AP budget."""

    mu: np.ndarray
    p_max: float

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        object.__setattr__(self, "mu", mu)
        if mu.ndim != 2:
            raise ValueError("mu must be a K x L matrix")
        if np.any(mu < 0.0):
            raise ValueError("mu must be elementwise nonnegative")
        per_ap = np.sum(mu ** 2, axis=0)
        if np.any(per_ap > self.p_max * (1.0 + BUDGET_SLACK)):
            worst = float(per_ap.max())
            raise ValueError(
                f"per-AP power {worst:.6g} exceeds budget {self.p_max:.6g}")

    @property
    def rho(self) -> np.ndarray:
        """Allocated powers in watts, rho = mu^2."""
        return self.mu ** 2


@dataclass(frozen=True, eq=False)
class SEParameters:
    """Monte-Carlo estimates of the hardening-bound coefficients."""

    a: np.ndarray        # (K, L) nonnegative signal coefficients
    B: np.ndarray        # (K, K, L, L) interference second moments
    sigma2: float
    prelog: float
    n_real: int
    imag_residue: float = field(default=0.0, compare=False)

    def __post_init__(self):
        # read-only views: a consumer that writes into the estimate raises
        # at once instead of skewing every later use of it
        for name in ("a", "B"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    def __eq__(self, other):
        # byte identity over the serialized payload; the residue is a
        # diagnostic and deliberately excluded
        if not isinstance(other, SEParameters):
            return NotImplemented
        return self.to_bytes() == other.to_bytes()

    @property
    def K(self):
        return self.a.shape[0]

    @property
    def L(self):
        return self.a.shape[1]

    def to_bytes(self) -> bytes:
        head = _HEADER.pack(MAGIC, self.K, self.L, self.n_real,
                            self.prelog, self.sigma2)
        body_a = np.ascontiguousarray(self.a, dtype="<f8").tobytes()
        body_b = np.ascontiguousarray(self.B, dtype="<f8").tobytes()
        return head + body_a + body_b

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SEParameters":
        if len(blob) < _HEADER.size:
            raise DataFormatError("truncated SE parameter container")
        magic, K, L, n_real, prelog, sigma2 = _HEADER.unpack_from(blob, 0)
        if magic != MAGIC:
            raise DataFormatError("bad magic for SE parameter container")
        need = _HEADER.size + 8 * (K * L + K * K * L * L)
        if len(blob) != need:
            raise DataFormatError("SE parameter container has wrong size")
        off = _HEADER.size
        a = np.frombuffer(blob, dtype="<f8", count=K * L, offset=off)
        off += 8 * K * L
        B = np.frombuffer(blob, dtype="<f8", count=K * K * L * L, offset=off)
        return cls(a=a.reshape(K, L).copy(),
                   B=B.reshape(K, K, L, L).copy(),
                   sigma2=sigma2, prelog=prelog, n_real=n_real)

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "SEParameters":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())

    def digest(self) -> str:
        return hashlib.sha256(self.to_bytes()).hexdigest()


class MomentSums:
    """Running Monte-Carlo sums of one drop's (a, B), which
    `estimate_se_parameters` adds realization tiles to in order; `finish`
    turns them into the estimate once all n_real are in."""

    def __init__(self, K: int, L: int, n_real: int):
        if n_real < 100:
            raise ValueError(
                "need at least 100 realizations for stable estimates")
        self.n_real = n_real
        self.n_seen = 0
        self.signal = np.zeros((K, L), dtype=complex)
        self.imag_sq = np.zeros((K, L))
        self.second = np.zeros((K, K, L, L))

    def finish(self, cfg: NetworkConfig) -> SEParameters:
        """a_kl = |mean g[k, k, l]|, B_ki[l, m] = Re mean(g[k,i,l] conj
        g[k,i,m]) and the imaginary-residue diagnostic."""
        n_real = self.n_real
        if self.n_seen != n_real:
            raise ValueError(f"sums hold {self.n_seen} of {n_real} "
                             "realizations")
        mean_sig = self.signal / n_real
        a = np.abs(mean_sig)
        B = self.second / n_real
        # per-entry ratios are recorded. The warning asks whether the
        # imaginary means are Monte-Carlo noise: without a rotation error,
        # each squared mean over its squared standard error is about
        # chi-square(1), so their sum T over the M entries with spread
        # stays near M
        ratio = np.abs(mean_sig.imag) / np.maximum(a, 1e-300)
        worst = float(ratio.max()) if a.size else 0.0
        se2 = (self.imag_sq / n_real - mean_sig.imag ** 2) / (n_real - 1)
        spread = se2 > 0.0
        t_stat = float(np.sum(mean_sig.imag[spread] ** 2 / se2[spread]))
        n_dof = int(spread.sum())
        if t_stat > n_dof + 6.0 * np.sqrt(2.0 * n_dof):
            log.warning("imaginary residue of %.3g squared standard errors "
                        "over %d signal means; rotation convention may be "
                        "off for this precoder", t_stat, n_dof)
        return SEParameters(a=a, B=B, sigma2=cfg.noise_power,
                            prelog=cfg.prelog, n_real=n_real,
                            imag_residue=worst)


def estimate_se_parameters(batch: ChannelBatch, w: np.ndarray,
                           sums: MomentSums) -> MomentSums:
    """Add a tile's realizations to the running (a, B) sums; returns sums.

    The per-realization scalar g[k, i, l] = h_kl^H w_il carries everything
    (see `MomentSums.finish`); `w` holds the tile's precoders. The tile
    runs in fixed-size chunks and every tile but the last holds whole
    chunks, so the sums do not depend on the tiles (see the module
    docstring).
    """
    h = batch.h
    n, K, L, N = h.shape
    if w.shape != h.shape:
        raise ValueError("precoders and channels must share a shape")
    if sums.n_seen % _CHUNK or sums.n_seen + n > sums.n_real:
        raise ValueError(f"a tile of {n} realizations does not follow "
                         f"{sums.n_seen} of {sums.n_real} in whole chunks")
    for start in range(0, n, _CHUNK):
        # g[r, l, k, i] = h_kl^H w_il: one (K, N) @ (N, K) product per
        # (realization, AP)
        hc = h[start:start + _CHUNK].conj().transpose(0, 2, 1, 3)
        wc = w[start:start + _CHUNK].transpose(0, 2, 3, 1)
        g = np.matmul(hc, wc)
        g_kk = np.diagonal(g, axis1=2, axis2=3)
        sums.signal += g_kk.sum(axis=0).T
        sums.imag_sq += (g_kk.imag ** 2).sum(axis=0).T
        # the float view interleaves Re and Im along the realization axis,
        # so one real Gram product per (k, i) gives Re(G_ki^H G_ki); one k
        # at a time, the copy stays in cache
        for k in range(K):
            gv = np.ascontiguousarray(
                g[:, :, k].transpose(2, 1, 0)).view(float)
            sums.second[k] += np.matmul(gv, np.swapaxes(gv, -1, -2))
    sums.n_seen += n
    return sums


def sinr_terms(params: SEParameters, mu: np.ndarray) -> tuple:
    """Signal a_k^T mu_k and interference sum_i mu_i^T B_ki mu_i per UE."""
    signal = np.einsum("kl,kl->k", params.a, mu)
    # one GEMV of B, as (K, K*L*L), on the flattened outer products mu_i mu_i^T
    outer = mu[:, :, None] * mu[:, None, :]
    return signal, params.B.reshape(params.K, -1) @ outer.ravel()


def effective_sinr(params: SEParameters, mu: np.ndarray,
                   terms=None) -> np.ndarray:
    """Hardening-bound SINR per UE for the weight matrix mu; `terms` is
    sinr_terms(params, mu) when the caller already has it."""
    sig, interf = sinr_terms(params, mu) if terms is None else terms
    return sig ** 2 / (interf - sig ** 2 + params.sigma2)


def compute_se(params: SEParameters, alloc: PowerAllocation) -> np.ndarray:
    """Per-UE spectral efficiency (bit/s/Hz) of a feasible allocation."""
    mu = alloc.mu
    if mu.shape != (params.K, params.L):
        raise ValueError("allocation shape does not match parameters")
    sig, interf = sinr_terms(params, mu)
    den = interf - sig ** 2 + params.sigma2
    if np.any(den < params.sigma2 * (1.0 - 1e-9)):
        raise NumericalError("SINR denominator below the noise floor; "
                             "SE parameters are inconsistent")
    return params.prelog * np.log2(1.0 + sig ** 2 / den)
