"""Expectation-maximization point estimation.

The E-step takes, per gene, the posterior covariance Sigma_i and mean
M_i of the latent weight vector from the model's rank-1 BetaGaussian,
plus the expected squared residual S_i; the M-step updates (rho, K,
Lambda) in closed form. The ascent target is the beta-marginalized
log-likelihood from the model module (the updates carry no prior terms),
which is non-decreasing across iterations. The fit stops when it changes
by less than rel_tol relative, or after max_iter iterations; the trace
records which.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .model import BetaGaussian, Dataset, ModelParams, marginal_loglik

__all__ = ["EmState", "EmTrace", "em_fit", "em_step"]


@dataclass
class EmState:
    """Current point estimate with the E-step cache."""

    params: ModelParams
    Sigma: np.ndarray  # (V, d, d)
    M: np.ndarray  # (V, d)
    S: np.ndarray  # (V,)


@dataclass
class EmTrace:
    """Per-iteration log-likelihood and parameter path, and why the fit stopped."""

    loglik: np.ndarray  # (n,)
    K: np.ndarray  # (n, d)
    rho: np.ndarray  # (n,)
    converged: bool

    def __len__(self) -> int:
        return len(self.loglik)

    @property
    def stop_reason(self) -> str:
        return "tolerance" if self.converged else "max_iter"


def _estep(params: ModelParams, ds: Dataset, plan: linalg.ExecPlan):
    cov0 = linalg.inverse_batched(params.Lam)

    def kernel(lo, hi):
        D = ds.D[lo:hi]
        x = ds.r[lo:hi] - ds.mu[lo:hi]
        q = BetaGaussian(cov0, params.rho, D)
        m = q.mean(params.K, x)
        sigma = q.cov()
        second = m[:, :, None] * m[:, None, :] + sigma
        s = (x - np.einsum("vi,vi->v", D, m)) ** 2 + q.quad()
        return sigma, m, s, linalg.reduce_sum(m), linalg.reduce_sum(second), linalg.reduce_sum(s)

    parts = plan.map(kernel, ds.V)
    sigma = np.concatenate([p[0] for p in parts])
    m = np.concatenate([p[1] for p in parts])
    s = np.concatenate([p[2] for p in parts])
    sum_m = linalg.tree_combine([p[3] for p in parts])
    sum_second = linalg.tree_combine([p[4] for p in parts])
    sum_s = float(linalg.tree_combine([p[5] for p in parts]))
    return sigma, m, s, sum_m, sum_second, sum_s


def em_step(state: EmState, ds: Dataset, plan: linalg.ExecPlan | None = None) -> EmState:
    """One E-step plus joint M-step."""
    plan = plan or linalg.ExecPlan()
    V = ds.V
    sigma, m, s, sum_m, sum_second, sum_s = _estep(state.params, ds, plan)
    if sum_s <= 0.0:
        raise linalg.NumericError("non-positive residual sum in M-step")
    rho_new = V / sum_s
    k_new = sum_m / V
    lam_inv = sum_second / V - np.outer(k_new, k_new)
    lam_inv = 0.5 * (lam_inv + lam_inv.T)
    lam_new = linalg.spd_jitter_retry(linalg.inverse_batched, lam_inv, "M-step precision")
    lam_new = 0.5 * (lam_new + lam_new.T)
    params = ModelParams(K=k_new, Lam=lam_new, rho=float(rho_new))
    return EmState(params=params, Sigma=sigma, M=m, S=s)


def em_fit(
    ds: Dataset,
    init: ModelParams,
    max_iter: int = 1000,
    rel_tol: float = 1e-10,
    plan: linalg.ExecPlan | None = None,
) -> tuple[ModelParams, EmTrace]:
    """Iterate until the marginal log-likelihood settles.

    Returns the final parameters and the per-iteration trace (evaluated
    after each update). The fit has converged when an iteration changes
    the log-likelihood by less than rel_tol relative.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    plan = plan or linalg.ExecPlan()
    state = EmState(params=init, Sigma=np.empty(0), M=np.empty(0), S=np.empty(0))
    lls, ks, rhos = [], [], []
    prev = marginal_loglik(ds, init)
    converged = False
    for _ in range(max_iter):
        state = em_step(state, ds, plan)
        ll = marginal_loglik(ds, state.params)
        lls.append(ll)
        ks.append(state.params.K)
        rhos.append(state.params.rho)
        if abs(ll - prev) < rel_tol * abs(ll):
            converged = True
            break
        prev = ll
    trace = EmTrace(loglik=np.array(lls), K=np.stack(ks), rho=np.array(rhos), converged=converged)
    return state.params, trace
