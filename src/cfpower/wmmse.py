"""Weighted-MMSE power optimization under per-AP budgets.

The outer loop alternates closed-form auxiliary updates with a convex
quadratic subproblem in the square-root powers mu (K x L):

  receiver coefficient   v_k = a_k^T mu_k / (sum_i mu_i^T B_ki mu_i + sigma2)
  MSE                    e_k = 1 - (a_k^T mu_k)^2 / (same denominator)
  weight                 omega_k = 1/e_k          (sum-SE)
                         omega_k = -1/(e_k ln e_k) (proportional fairness)

  subproblem             min  sum_i mu_i^T C_i mu_i - 2 q_i^T mu_i
                         s.t. sum_k mu_kl^2 <= P for every AP l
  with                   C_i = sum_k omega_k v_k^2 B_ki,  q_i = omega_i v_i a_i

The subproblem equals the weighted-MSE objective up to an additive constant,
so exact subproblem solutions make the utility nondecreasing. The loop
starts from equal power, mu_kl = sqrt(P / K). Iteration stops when the
squared difference of successive utilities drops below _EPS_OUTER, or
after _MAX_OUTER outer steps.

The subproblem is solved by over-relaxed scaled-dual ADMM on the per-AP
ball constraints only (Boyd et al., "Distributed Optimization and
Statistical Learning via the Alternating Direction Method of Multipliers",
2011, sec. 3.4.3; Eckstein & Bertsekas, Math. Prog. 1992). With alpha =
_RELAX:

  x-update   X = (C_i + rho I)^-1 (q_i + rho (Z - U)_i)
  relax      Xh = alpha X + (1 - alpha) Z
  z-update   Z' = projection of Xh + U onto the per-AP balls
  u-update   U' = Xh + U - Z'

ADMM starts cold at rho = _RHO. The primal residual stays X - Z'.
Iteration stops when both residuals pass the absolute-plus-relative
thresholds at _EPS_INNER, or after _MAX_ADMM_ITERS iterations; the norms
behind them are taken only when the primal residual has passed a cheap
upper bound on its threshold.
Negative entries of a solution are flipped to their positive counterparts
afterwards (the balls are sign-symmetric, so feasibility is preserved). The
test-suite checks ADMM against a long-run projected-gradient oracle of its
own, and the lazy stopping test against an eager loop that takes every norm
on every iteration. Normalized objective comparisons there use
|f(mu) - f(ref)| <= tol * max(1, |f(ref)|).

Each outer step forms the C_i once and checks them for corrupt (indefinite)
inputs with one batched Cholesky factorization of C_i shifted by a small
multiple of their largest diagonal entry. ADMM builds its x-update operator
(C_i + rho I)^-1 as one batched inverse and rebuilds it only when residual
balancing moves rho; no eigendecomposition is taken, and the test suite's
oracles work on the same C. SINR terms come from se.sinr_terms, once per
mu: the utility that ends an outer step and the auxiliary update that
starts the next share them.
"""

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import NumericalError
from .heuristics import equal_power
from .se import PowerAllocation, SEParameters, effective_sinr, sinr_terms

log = logging.getLogger(__name__)

OBJECTIVES = ("sumse", "pf")

E_CLAMP = 1e-12

# relative eigenvalue floor below which C is considered corrupt; the scale
# is max(1, largest diagonal entry of any C_i)
_EIG_FLOOR = -1e-8

# ADMM over-relaxation factor alpha (Boyd et al., 2011, sec. 3.4.3); 1.3-1.6
# all cut iterations on the package's presets, 1.8 took more than 1.0
_RELAX = 1.5
# ADMM: initial penalty (adapted by residual balancing), absolute and
# relative residual threshold, iteration cap per subproblem
_RHO = 1.0
_EPS_INNER = 1e-6
_MAX_ADMM_ITERS = 4000
# outer loop: threshold on the squared utility step, cap on outer steps
_EPS_OUTER = 1e-4
_MAX_OUTER = 500


@dataclass(frozen=True)
class SolverConfig:
    objective: str = "sumse"

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")


class AuxiliaryUpdate(NamedTuple):
    v: np.ndarray
    e: np.ndarray
    omega: np.ndarray
    clamped: int


def update_auxiliaries(params: SEParameters, mu: np.ndarray,
                       objective: str, terms=None) -> AuxiliaryUpdate:
    """Closed-form v / e / omega updates for fixed mu.

    e is clamped to [E_CLAMP, 1 - E_CLAMP] before the weights; the clamp
    count is reported so the caller can track degenerate UEs. `terms` is
    sinr_terms(params, mu) when the caller already has it.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    sig, interf = sinr_terms(params, mu) if terms is None else terms
    den = interf + params.sigma2
    v = sig / den
    e_raw = 1.0 - sig ** 2 / den
    e = np.clip(e_raw, E_CLAMP, 1.0 - E_CLAMP)
    clamped = int(np.sum(e != e_raw))
    omega = 1.0 / e if objective == "sumse" else -1.0 / (e * np.log(e))
    return AuxiliaryUpdate(v=v, e=e, omega=omega, clamped=clamped)


def _plus_diagonal(C, shift):
    """C_i + shift * I for every matrix of the stack, without an identity."""
    out = C.copy()
    out.reshape(len(C), -1)[:, ::C.shape[-1] + 1] += shift
    return out


def _subproblem(params, omega, v):
    """q and the symmetrized C, checked to be PSD up to the floor."""
    # C_i = sum_k omega_k v_k^2 B_ki: one GEMV on B as (K, K*L*L)
    K, L = params.a.shape
    C = ((omega * v ** 2) @ params.B.reshape(K, -1)).reshape(K, L, L)
    C = 0.5 * (C + np.swapaxes(C, 1, 2))
    # C + |floor| * scale * I is positive definite iff no eigenvalue of C
    # lies below floor * scale
    scale = max(float(np.diagonal(C, axis1=1, axis2=2).max()), 1.0)
    try:
        np.linalg.cholesky(_plus_diagonal(C, -_EIG_FLOOR * scale))
    except np.linalg.LinAlgError:
        raise NumericalError(
            "subproblem matrix is indefinite beyond tolerance") from None
    q = (omega * v)[:, None] * params.a
    return q, C


def project_per_ap(X: np.ndarray, p_max: float) -> np.ndarray:
    """Project each AP column onto the ball of radius sqrt(p_max)."""
    norms = np.sqrt((X * X).sum(axis=0))
    scale = np.minimum(1.0, np.sqrt(p_max) / np.maximum(norms, 1e-300))
    return X * scale[None, :]


@dataclass(frozen=True)
class SubproblemResult:
    mu_raw: np.ndarray   # feasible solver output, before any sign flip
    n_iters: int
    converged: bool
    n_flipped: int
    state: tuple         # ADMM's (Z, U, rho), the next call's warm start


def _norm(x):
    """Frobenius norm as np.linalg.norm computes it, without its overhead."""
    return math.sqrt(np.vdot(x, x))


def _admm(q, C, p_max, x0, state):
    """Scaled-dual ADMM; `state` is the (Z, U, rho) warm start or None.

    The stopping norms are taken lazily. While the primal residual r
    exceeds an upper bound on eps_pri, the primal test fails without
    them: after projection ||Z|| <= sqrt(L) * radius, and ||X|| <= ||Z|| + r.
    The dual residual and ||U|| are taken only when the primal test passes
    or residual balancing needs them.
    """
    if state is None:
        state = (project_per_ap(x0, p_max), np.zeros_like(x0), _RHO)
    Z, U, rho = state
    eps = _EPS_INNER
    sqrt_n = np.sqrt(q.size)
    radius = np.sqrt(p_max)
    # eps_pri <= pri_cap + eps * r, with slack for the projection's rounding
    pri_cap = sqrt_n * eps + eps * math.sqrt(q.shape[1]) * radius * (1 + 1e-9)
    converged = False
    it = 0
    inv_rho = None
    for it in range(1, _MAX_ADMM_ITERS + 1):
        if rho != inv_rho:
            # x-update operator (C + rho I)^-1, one batched inverse
            inv = np.linalg.inv(_plus_diagonal(C, rho))
            inv_rho = rho
        X = np.matmul(inv, (q + rho * (Z - U))[:, :, None])[:, :, 0]
        # over-relaxed z- and u-updates run on alpha X + (1 - alpha) Z
        Xu = _RELAX * X + (1.0 - _RELAX) * Z + U
        # projection of each AP column onto the ball of radius sqrt(p_max)
        norms = np.sqrt(np.add.reduce(Xu * Xu, axis=0))
        Z_new = Xu * np.minimum(1.0, radius / np.maximum(norms, 1e-300))
        r_norm = _norm(X - Z_new)
        U = Xu - Z_new
        balance = it % 10 == 0
        primal = (r_norm <= pri_cap + eps * r_norm
                  and r_norm <= sqrt_n * eps + eps * max(_norm(X),
                                                         _norm(Z_new)))
        if primal or balance:
            s_norm = rho * _norm(Z_new - Z)
        Z = Z_new
        if primal and s_norm <= sqrt_n * eps + eps * rho * _norm(U):
            converged = True
            break
        # residual balancing keeps the penalty near the problem's scale
        if balance and max(r_norm, s_norm) > 10.0 * min(r_norm, s_norm):
            factor = 2.0 if r_norm > s_norm else 0.5
            rho *= factor
            U /= factor
    return Z, it, converged, (Z, U, rho)


def solve_subproblem(params: SEParameters, omega: np.ndarray, v: np.ndarray,
                     p_max: float, mu0=None,
                     state=None) -> SubproblemResult:
    """Solve the convex subproblem for fixed (omega, v) by ADMM.

    The returned mu_raw is feasible for every AP budget; its negative
    entries are counted in n_flipped (np.abs(mu_raw) is the nonnegative
    solution). Without `state`, ADMM starts cold from mu0 (zeros by
    default) at rho = _RHO; pass a previous result's `state`, or any
    (Z, U, rho), to start it from those iterates instead.
    """
    q, C = _subproblem(params, omega, v)
    if mu0 is None:
        mu0 = np.zeros_like(q)
    x, n_iters, converged, state = _admm(q, C, p_max, mu0, state)
    return SubproblemResult(mu_raw=x, n_iters=n_iters, converged=converged,
                            n_flipped=int(np.sum(x < 0.0)), state=state)


def utility(params: SEParameters, mu: np.ndarray, objective: str,
            terms=None) -> float:
    """Network utility of mu: sum of SEs (sumse) or sum of their logs (pf).

    Expressed without the prelog factor, which shifts or scales the utility
    by a constant and does not move the optimizer. `terms` is
    sinr_terms(params, mu) when the caller already has it.
    """
    sinr = effective_sinr(params, mu, terms)
    with np.errstate(divide="ignore"):
        rates = np.log2(1.0 + sinr)
        if objective == "sumse":
            return float(np.sum(rates))
        if objective == "pf":
            return float(np.sum(np.log(rates)))
    raise ValueError(f"unknown objective {objective!r}")


@dataclass(frozen=True)
class WmmseResult:
    alloc: PowerAllocation
    trace: np.ndarray          # utility at init and after each outer step
    violations: np.ndarray     # max relative budget excess per trace entry
    converged: bool
    n_outer: int
    admm_iters: int            # subproblem iterations over all outer steps
    clamp_events: int
    subproblem_exhausted: int
    sign_flips: int            # negative entries seen across subproblem runs
    final_flips: int           # negative entries flipped once at the end

    @property
    def utility(self) -> float:
        return float(self.trace[-1])


def wmmse_solve(params: SEParameters, p_max: float,
                cfg: Optional[SolverConfig] = None, beta=None) -> WmmseResult:
    """Run the outer loop from equal power to convergence and return the
    final allocation.

    Iterates live on the sign-relaxed problem: each outer step keeps the raw
    subproblem minimizer, which is what makes the utility trace nondecreasing
    up to the subproblem tolerance. Negative entries are flipped positive
    once, after the loop; flipping preserves every power budget but is not
    part of the monotone trajectory.

    With the PF objective every UE must have a strictly positive SINR at
    equal power. `beta` is not read. It stays only because the benchmark's
    allocate workload (perfbench/workloads.py) passes it, and that call
    changes only together with the benchmark.
    """
    if cfg is None:
        cfg = SolverConfig()
    mu = equal_power(*params.a.shape, p_max).mu
    # the SINR terms of each mu serve the utility that ends one outer step
    # and the auxiliary update that starts the next
    terms = sinr_terms(params, mu)
    if cfg.objective == "pf" and np.any(
            effective_sinr(params, mu, terms) <= 0.0):
        raise ValueError("PF requires a strictly positive SINR per UE at init")

    def max_violation(m):
        per_ap = np.sum(m ** 2, axis=0)
        return float(max(0.0, (per_ap.max() - p_max) / p_max))

    trace = [utility(params, mu, cfg.objective, terms)]
    violations = [max_violation(mu)]
    clamp_events = exhausted = admm_iters = sign_flips = 0
    converged = False
    n_outer = 0
    state = None
    for n_outer in range(1, _MAX_OUTER + 1):
        aux = update_auxiliaries(params, mu, cfg.objective, terms)
        clamp_events += aux.clamped
        result = solve_subproblem(params, aux.omega, aux.v, p_max, mu0=mu,
                                  state=state)
        state = result.state
        exhausted += int(not result.converged)
        admm_iters += result.n_iters
        sign_flips += result.n_flipped
        mu = result.mu_raw
        terms = sinr_terms(params, mu)
        trace.append(utility(params, mu, cfg.objective, terms))
        violations.append(max_violation(mu))
        if (trace[-1] - trace[-2]) ** 2 < _EPS_OUTER:
            converged = True
            break
    if not converged:
        log.warning("outer loop exhausted %d iterations", _MAX_OUTER)
    final_flips = int(np.sum(mu < 0.0))
    alloc = PowerAllocation(mu=np.abs(mu), p_max=p_max)
    return WmmseResult(alloc=alloc, trace=np.asarray(trace),
                       violations=np.asarray(violations),
                       converged=converged, n_outer=n_outer,
                       admm_iters=admm_iters, clamp_events=clamp_events,
                       subproblem_exhausted=exhausted,
                       sign_flips=sign_flips, final_flips=final_flips)
