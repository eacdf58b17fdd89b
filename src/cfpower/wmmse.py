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

The table `_OBJECTIVES` holds each objective's weight omega(e) and utility
of the rates r_k = log2(1 + SINR_k): sum_k r_k (sum-SE), sum_k ln r_k (PF).

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
  z-update   Z' = project_per_ap(Xh + U), onto the per-AP balls
  u-update   U' = Xh + U - Z'

The first subproblem starts ADMM cold at rho = _RHO, the second from the
first one's end state (Z, U, rho). Every later one starts from a linear
prediction of the last two end states (warm starts as in Boyd et al.,
2011, extrapolated):

  Z0 = project_per_ap(2 Z_t - Z_t-1),   U0 = 2 U_t - U_t-1 rho_t-1 / rho_t,
  rho0 = rho_t

so the unscaled dual rho U moves on a line even when residual balancing
has moved rho. Only the start changes: each subproblem is still solved to
_EPS_INNER. The primal residual stays X - Z'. Iteration stops when both
residuals pass the absolute-plus-relative thresholds at _EPS_INNER, or
after _MAX_ADMM_ITERS iterations; the norms behind them are taken only
when the primal residual has passed a cheap upper bound on its threshold.
Negative entries of a solution are flipped to their positive counterparts
afterwards (the balls are sign-symmetric, so feasibility is preserved). The
test-suite checks ADMM against a long-run projected-gradient oracle of its
own, and the lazy stopping test against an eager loop that takes every norm
on every iteration. Normalized objective comparisons there use
|f(mu) - f(ref)| <= tol * max(1, |f(ref)|).

C_i depends on i only through the direction u(i) = params.unit_of[i] (B_ki
= params.B[k, u(i)]), so there are J distinct C_i: 10 for the 20 UEs at
`large`, 3 for 6 at `desk`, K when the layout is the identity. Each outer
step forms the J matrices with one GEMV over B's (K, J*L*L) view and
checks them for corrupt (indefinite) inputs with one batched Cholesky
factorization of C shifted by a small multiple of their largest diagonal
entry. ADMM builds its x-update operators (C_i + rho I)^-1 q_i and rho
(C_i + rho I)^-1 from one batched inverse of the J matrices, gathered per
UE, and rebuilds them only when residual balancing moves rho; no
eigendecomposition is taken, and the test suite's oracles work on the same
C, expanded per UE. SINR terms come from se.sinr_terms, once per mu: the
utility that ends an outer step and the auxiliary update that starts the
next share them.
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

# objective -> (weight omega of the clamped MSE e, utility of the rates)
_OBJECTIVES = {
    "sumse": (lambda e: 1.0 / e, np.add.reduce),
    "pf": (lambda e: -1.0 / (e * np.log(e)),
           lambda r: np.add.reduce(np.log(r))),
}
OBJECTIVES = tuple(_OBJECTIVES)

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


def _objective(name: str):
    """The (weight, utility) pair of an objective; ValueError if unknown."""
    try:
        return _OBJECTIVES[name]
    except KeyError:
        raise ValueError(f"unknown objective {name!r}") from None


@dataclass(frozen=True)
class SolverConfig:
    objective: str = "sumse"

    def __post_init__(self):
        _objective(self.objective)


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
    weight, _ = _objective(objective)
    sig, interf = sinr_terms(params, mu) if terms is None else terms
    v = sig / (interf + params.sigma2)
    # e = 1 - sig^2 / den = 1 - v sig
    e_raw = 1.0 - v * sig
    e = np.minimum(np.maximum(e_raw, E_CLAMP), 1.0 - E_CLAMP)
    clamped = int(np.count_nonzero(e != e_raw))
    return AuxiliaryUpdate(v=v, e=e, omega=weight(e), clamped=clamped)


def _plus_diagonal(C, shift):
    """C_i + shift * I for every matrix of the stack, without an identity."""
    out = C.copy()
    out.reshape(len(C), -1)[:, ::C.shape[-1] + 1] += shift
    return out


def _subproblem(params, omega, v):
    """q and the symmetrized C of each direction, checked to be PSD up to
    the floor; UE i's matrix is C[params.unit_of[i]]."""
    # C_j = sum_k omega_k v_k^2 B[k, j]: one GEMV on B as (K, J*L*L)
    K, L = params.a.shape
    w = omega * v
    C = ((w * v) @ params.B.reshape(K, -1)).reshape(-1, L, L)
    C = 0.5 * (C + np.swapaxes(C, 1, 2))
    # C + |floor| * scale * I is positive definite iff no eigenvalue of C
    # lies below floor * scale
    scale = max(float(np.diagonal(C, axis1=1, axis2=2).max()), 1.0)
    try:
        np.linalg.cholesky(_plus_diagonal(C, -_EIG_FLOOR * scale))
    except np.linalg.LinAlgError:
        raise NumericalError(
            "subproblem matrix is indefinite beyond tolerance") from None
    q = w[:, None] * params.a
    return q, C


def project_per_ap(X: np.ndarray, p_max: float) -> np.ndarray:
    """Project each AP column onto the ball of radius sqrt(p_max) > 0."""
    # radius / max(norm, radius) is 1 inside the ball, radius / norm outside;
    # reduced over axis 0, X may carry trailing unit axes
    radius = math.sqrt(p_max)
    norms = np.sqrt(np.add.reduce(X * X, axis=0))
    return X * (radius / np.maximum(norms, radius))


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


def _admm(q, C, unit_of, p_max, x0, state):
    """Scaled-dual ADMM; `state` is the (Z, U, rho) warm start or None.

    The iterates run as (K, L, 1) stacks of columns, the layout of the
    batched x-update: X = (C + rho I)^-1 q + rho (C + rho I)^-1 (Z - U),
    whose two operators are formed once per penalty. C holds one matrix
    per direction; its inverses are taken once each and gathered per UE
    by unit_of.
    The stopping norms are taken lazily. While the primal residual r
    exceeds an upper bound on eps_pri, the primal test fails without
    them: after projection ||Z|| <= sqrt(L) * radius, and ||X|| <= ||Z|| + r.
    The dual residual and ||U|| are taken only when the primal test passes
    or residual balancing needs them.
    """
    if state is None:
        state = (project_per_ap(x0, p_max), np.zeros_like(x0), _RHO)
    Z, U, rho = state
    Z, U = Z[:, :, None], U[:, :, None]
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
            # x-update operators from one batched inverse of C + rho I
            inv = np.linalg.inv(_plus_diagonal(C, rho))[unit_of]
            inv_q = inv @ q[:, :, None]
            rho_inv = rho * inv
            inv_rho = rho
        X = inv_q + rho_inv @ (Z - U)
        # over-relaxed z- and u-updates run on alpha X + (1 - alpha) Z
        Xu = _RELAX * X + (1.0 - _RELAX) * Z + U
        Z_new = project_per_ap(Xu, p_max)
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
    Z, U = Z[:, :, 0], U[:, :, 0]
    return Z, it, converged, (Z, U, rho)


def _predicted_start(state, previous, p_max):
    """ADMM's next start, extrapolated from its last two end states.

    Z0 = project_per_ap(2 Z_t - Z_t-1) and U0 = 2 U_t - U_t-1 rho_t-1 / rho_t:
    the scaled dual U is rescaled so that the unscaled dual rho U moves
    linearly when rho has changed. With no state before the last, the last
    state is passed on as it is.
    """
    if previous is None:
        return state
    Z, U, rho = state
    Z1, U1, rho1 = previous
    return (project_per_ap(2.0 * Z - Z1, p_max),
            2.0 * U - (rho1 / rho) * U1, rho)


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
    x, n_iters, converged, state = _admm(q, C, params.unit_of, p_max, mu0,
                                         state)
    return SubproblemResult(mu_raw=x, n_iters=n_iters, converged=converged,
                            n_flipped=int(np.count_nonzero(x < 0.0)),
                            state=state)


def utility(params: SEParameters, mu: np.ndarray, objective: str,
            terms=None) -> float:
    """Network utility of mu: sum of SEs (sumse) or sum of their logs (pf).

    Expressed without the prelog factor, which shifts or scales the utility
    by a constant and does not move the optimizer. `terms` is
    sinr_terms(params, mu) when the caller already has it. Under PF a zero
    rate gives -inf with numpy's divide warning, which `wmmse_solve`
    silences once per solve.
    """
    _, of_rates = _objective(objective)
    return float(of_rates(np.log2(1.0 + effective_sinr(params, mu, terms))))


@dataclass(frozen=True)
class WmmseResult:
    alloc: PowerAllocation
    trace: np.ndarray          # utility at init and after each outer step
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

    clamp_events = exhausted = admm_iters = sign_flips = 0
    converged = False
    n_outer = 0
    # ADMM's end states of the last two subproblems
    state = previous = None
    # a zero rate is a utility of -inf under PF, not a warning
    with np.errstate(divide="ignore"):
        trace = [utility(params, mu, cfg.objective, terms)]
        for n_outer in range(1, _MAX_OUTER + 1):
            aux = update_auxiliaries(params, mu, cfg.objective, terms)
            clamp_events += aux.clamped
            result = solve_subproblem(
                params, aux.omega, aux.v, p_max, mu0=mu,
                state=_predicted_start(state, previous, p_max))
            previous, state = state, result.state
            exhausted += int(not result.converged)
            admm_iters += result.n_iters
            sign_flips += result.n_flipped
            mu = result.mu_raw
            terms = sinr_terms(params, mu)
            trace.append(utility(params, mu, cfg.objective, terms))
            if (trace[-1] - trace[-2]) ** 2 < _EPS_OUTER:
                converged = True
                break
    if not converged:
        log.warning("outer loop exhausted %d iterations", _MAX_OUTER)
    final_flips = int(np.count_nonzero(mu < 0.0))
    alloc = PowerAllocation(mu=np.abs(mu), p_max=p_max)
    return WmmseResult(alloc=alloc, trace=np.asarray(trace),
                       converged=converged, n_outer=n_outer,
                       admm_iters=admm_iters, clamp_events=clamp_events,
                       subproblem_exhausted=exhausted,
                       sign_flips=sign_flips, final_flips=final_flips)
