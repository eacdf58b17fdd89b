"""Hardening-bound spectral efficiency: parameter estimation and evaluation.

With square-root power weights mu (K x L) the achievable downlink SE of UE k
is prelog * log2(1 + SINR_k) with

    SINR_k = (a_k^T mu_k)^2 / (sum_i mu_i^T B_ki mu_i - (a_k^T mu_k)^2 + sigma2)

where a_kl is the modulus of the mean signal coefficient E{h_kl^H w_kl} and
B_ki collects the second moments Re E{h_kl^H w_il w_im^H h_km}. Both are
Monte-Carlo estimates over channel realizations; everything downstream
(optimizer, heuristics, learned allocators) consumes only (a, B, sigma2).
The bound needs that mean real and nonnegative, which MR and RZF on MMSE
estimates give by construction (see `MomentSums.finish`).

The Monte-Carlo reduction runs over fixed 64-realization chunks in
realization order, on the precoders of the tile's J directions
(`estimation.DirectionLayout`): UE i's precoder is that of direction
u(i) = unit_of[i]. Per chunk, g[k, j] = h_k^H w_j is one batched (K, N) @
(N, J) matmul per (realization, AP), a_k takes g[k, u(k)], and B takes one
real Gram product per (k, j) pair; B_ki is then B_k,u(i). When every
estimate is a positive multiple of its pilot signal (uncorrelated fading),
J is the number of used pilots and pilot-sharing UEs share one column of g;
otherwise J = K and u is the identity. The estimate stores B once per
direction, (K, J, L, L), and keeps u as `SEParameters.unit_of`: 0.41 MB at
`large`, half the per-UE (K, K, L, L) array, which only the digest below
expands; the digest does not hash u. Summation order
is fixed by the chunk size and by the BLAS kernels, so the same batch on
the same BLAS build and CPU gives the same bytes. Dataset bytes and SE
digests may differ between BLAS builds or CPUs. As measured on one x86_64
OpenBLAS build, a `large` drop's digest was the same at 1 and 2 OpenBLAS
threads. Another chunk size moves (a, B) in the last bits. The chunk bounds
memory: its g is 3.3 MB at `large` (J = 10), where a full (n_real, K, J, L)
g would be 51 MB.

The chunks are walked in the front end's realization tiles
(`estimation.realization_tiles`), which the tile size cannot reorder:
`pipeline.build_sample` carries each tile through channels, directions and
precoders and then adds it to one running `MomentSums`, so neither a full
channel array nor a full precoder array exists. The Gram products take one
k at a time, so the float copy of g is 0.16 MB at `large`. One `large` RZF
drop at 1000 realizations peaks at 25.6 MB under tracemalloc (1.25 x the
20.5 MB a full `h` would take); the real halves of its two random draws
are 15.4 MB of it.

Digest layout: `SEParameters.digest` is the sha256 of these bytes
(little-endian): "CFSEP001", then K, L as uint32, n_real as uint64, prelog,
sigma2 as float64, then a (K*L float64, row-major) and B per UE (K*K*L*L
float64, row-major in (k, i, l, m)). Datasets and evaluation reports store it.
"""

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

from .config import NetworkConfig
from .errors import NumericalError
from .estimation import _CHUNK, ChannelBatch, DirectionLayout

MAGIC = b"CFSEP001"
_HEADER = struct.Struct("<8sIIQdd")

# the fewest realizations a drop's (a, B) is estimated from
MIN_N_REAL = 100

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


@dataclass(frozen=True, eq=False)
class SEParameters:
    """Monte-Carlo estimates of the hardening-bound coefficients.

    B holds one block per direction, B_ki = B[k, unit_of[i]], and member
    is the (J, K) 0/1 matrix of unit_of[i] == j. unit_of is the drop's
    `DirectionLayout.unit_of` (J = 10 for K = 20 UEs at `large`); its
    default, the identity, makes B the per-UE (K, K, L, L) array. Only
    `digest` sees B expanded per UE, and it ignores unit_of.
    """

    a: np.ndarray        # (K, L) nonnegative signal coefficients
    B: np.ndarray        # (K, J, L, L) interference second moments
    sigma2: float
    prelog: float
    n_real: int
    unit_of: np.ndarray = None   # (K,) int onto range(J); None: identity
    member: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if np.ndim(self.a) != 2:
            raise ValueError("a must be a K x L matrix")
        K, L = np.shape(self.a)
        if self.unit_of is None:
            object.__setattr__(self, "unit_of", np.arange(K))
        unit_of = np.asarray(self.unit_of)
        if unit_of.shape != (K,) or unit_of.dtype.kind not in "iu":
            raise ValueError("unit_of must hold one integer direction per UE")
        J = len(set(unit_of.tolist()))
        member = (np.arange(J)[:, None] == unit_of) * 1.0
        if not member.any(axis=0).all():   # a UE in no direction < J
            raise ValueError("unit_of must map onto range(J)")
        if np.shape(self.B) != (K, J, L, L):
            raise ValueError(f"B must be (K, J, L, L) = {(K, J, L, L)}")
        object.__setattr__(self, "member", member)
        # read-only views: a consumer that writes into the estimate raises
        # at once instead of skewing every later use of it
        for name in ("a", "B", "unit_of", "member"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @property
    def K(self):
        return self.a.shape[0]

    @property
    def L(self):
        return self.a.shape[1]

    def digest(self) -> str:
        """sha256 of the layout above; B goes in one per-UE row at a time."""
        sha = hashlib.sha256(_HEADER.pack(MAGIC, self.K, self.L, self.n_real,
                                          self.prelog, self.sigma2))
        sha.update(np.ascontiguousarray(self.a, dtype="<f8"))
        for row in self.B:
            sha.update(row.take(self.unit_of, axis=0).astype("<f8"))
        return sha.hexdigest()


class MomentSums:
    """Running Monte-Carlo sums of one drop's (a, B) over the drop's
    direction layout, which `estimate_se_parameters` adds realization tiles
    to in order; `finish` turns them into the estimate once all n_real are
    in."""

    def __init__(self, layout: DirectionLayout, n_real: int):
        if n_real < MIN_N_REAL:
            raise ValueError(f"need at least {MIN_N_REAL} realizations for "
                             "stable estimates")
        (K, L), J = layout.scale.shape, layout.weight.shape[0]
        self.layout = layout
        self.n_real = n_real
        self.n_seen = 0
        self.signal = np.zeros((K, L), dtype=complex)
        # the sums of B_kj per direction j; UE i's B_ki is B_k,unit_of[i]
        self.second = np.zeros((K, J, L, L))

    def finish(self, cfg: NetworkConfig) -> SEParameters:
        """a_kl = |mean g[k, u(k), l]| and B[k, j, l, m] = Re mean(g[k,j,l]
        conj g[k,j,m]), u being the layout's unit_of. The modulus is the mean
        itself: MR and RZF on MMSE estimates make each realization's
        h_hat^H w real and nonnegative, and E{e^H w} = 0 for the estimation
        error e; `tests/test_se.py` checks this per realization."""
        n_real = self.n_real
        if self.n_seen != n_real:
            raise ValueError(f"sums hold {self.n_seen} of {n_real} "
                             "realizations")
        return SEParameters(a=np.abs(self.signal / n_real),
                            B=self.second / n_real, sigma2=cfg.noise_power,
                            prelog=cfg.prelog, n_real=n_real,
                            unit_of=self.layout.unit_of)


def estimate_se_parameters(batch: ChannelBatch, w: np.ndarray,
                           sums: MomentSums) -> MomentSums:
    """Add a tile's realizations to the running (a, B) sums; returns sums.

    The per-realization scalar g[k, j, l] = h_kl^H w_jl of UE k and
    direction j carries everything (see `MomentSums.finish`); `w` holds the
    tile's precoders, one per direction. The tile runs in fixed-size chunks
    and every tile but the last holds whole chunks, so the sums do not
    depend on the tiles (see the module docstring).
    """
    h = batch.h
    n, K, L, N = h.shape
    if w.shape != batch.d.shape or w.shape[0] != n:
        raise ValueError("precoders, directions and channels must share a "
                         "shape")
    if batch.layout is not sums.layout:
        raise ValueError("the tile's direction layout is not the sums'")
    if sums.n_seen % _CHUNK or sums.n_seen + n > sums.n_real:
        raise ValueError(f"a tile of {n} realizations does not follow "
                         f"{sums.n_seen} of {sums.n_real} in whole chunks")
    ks, unit_of = np.arange(K), sums.layout.unit_of
    for start in range(0, n, _CHUNK):
        # g[r, l, k, j] = h_kl^H w_jl: one (K, N) @ (N, J) product per
        # (realization, AP)
        hc = h[start:start + _CHUNK].conj().transpose(0, 2, 1, 3)
        wc = w[start:start + _CHUNK].transpose(0, 2, 3, 1)
        g = np.matmul(hc, wc)
        sums.signal += g[:, :, ks, unit_of].sum(axis=0).T
        # the float view interleaves Re and Im along the realization axis,
        # so one real Gram product per (k, j) gives Re(G_kj^H G_kj); one k
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
    # outer products mu_i mu_i^T summed per direction, one GEMV of B
    outer = (mu[:, :, None] * mu[:, None, :]).reshape(params.K, -1)
    per_dir = params.member @ outer
    return signal, params.B.reshape(params.K, -1) @ per_dir.ravel()


def _sinr(params: SEParameters, mu: np.ndarray, terms=None) -> tuple:
    """Hardening-bound SINR per UE and its denominator; `terms` is
    sinr_terms(params, mu) when the caller already has it."""
    sig, interf = sinr_terms(params, mu) if terms is None else terms
    sig2 = sig * sig
    den = interf - sig2 + params.sigma2
    return sig2 / den, den


def effective_sinr(params: SEParameters, mu: np.ndarray,
                   terms=None) -> np.ndarray:
    """Hardening-bound SINR per UE for the weight matrix mu; `terms` is
    sinr_terms(params, mu) when the caller already has it."""
    return _sinr(params, mu, terms)[0]


def compute_se(params: SEParameters, alloc: PowerAllocation) -> np.ndarray:
    """Per-UE spectral efficiency (bit/s/Hz) of a feasible allocation."""
    mu = alloc.mu
    if mu.shape != (params.K, params.L):
        raise ValueError("allocation shape does not match parameters")
    sinr, den = _sinr(params, mu)
    if np.any(den < params.sigma2 * (1.0 - 1e-9)):
        raise NumericalError("SINR denominator below the noise floor; "
                             "SE parameters are inconsistent")
    return params.prelog * np.log2(1.0 + sinr)
