"""Expectation-maximization point estimation on per-class sufficient statistics.

Genes that share a difference profile D_c share the posterior of their
latent weight vector up to its mean, so an iteration runs on the profile
classes of the dataset (model.ProfileClasses: count n_c, mean xbar_c and
centred sum of squares ss_c of x_i = r_i - mu_i) and costs O(C d^3),
whatever the number of genes V. With A = Lambda^-1, a_c = A D_c,
s_c = D_c^T a_c, g_c = 1 + rho s_c, c_c = rho / g_c and y_i = x_i - D_c^T K,
the E-step of gene i in class c is

    M_i     = K + c_c y_i a_c
    Sigma_i = A - c_c a_c a_c^T
    S_i     = y_i^2 / g_c^2 + s_c / g_c     (expected squared residual)

and the M-step sets rho = V / sum S_i, K = mean M_i and Lambda^-1 to the
scatter of M about the new K plus sum n_c Sigma_c, over V. Every sum is a
closed form in the class statistics, taken about the class means, so no
per-gene array is built while fitting. The ascent target is the
beta-marginalized log-likelihood from the model module (the updates carry
no prior terms), which is non-decreasing across iterations. The fit stops
when it changes by less than rel_tol relative, or after max_iter
iterations; the trace records which.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .model import BetaGaussian, Dataset, ModelParams, ProfileClasses, marginal_loglik

__all__ = ["EmState", "EmTrace", "em_fit", "em_step"]


@dataclass
class EmState:
    """Current point estimate with the per-gene E-step values."""

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


def _update(params: ModelParams, cl: ProfileClasses) -> tuple[ModelParams, BetaGaussian, np.ndarray]:
    """One E-step plus joint M-step on the class statistics.

    Returns the new parameters, the beta Gaussians of the classes at the
    old ones, and D_c^T K.
    """
    K, rho, n, V = params.K, params.rho, cl.n, cl.V
    q = BetaGaussian(linalg.inverse_batched(params.Lam), rho, cl.D)
    t = cl.D @ K
    ybar = cl.xbar - t
    g = 1.0 + rho * q.s
    sum_s = float(np.sum((cl.ss + n * ybar**2) / g**2 + n * q.quad()))
    if sum_s <= 0.0:
        raise linalg.NumericError("non-positive residual sum in M-step")
    cy = q.c * ybar
    k_new = K + (n * cy) @ q.a / V
    # the class means of M about the new K, the scatter of M within each
    # class, and the covariances
    e = (K - k_new) + cy[:, None] * q.a
    lam_inv = (
        np.einsum("c,ci,cj->ij", n, e, e)
        + np.einsum("c,ci,cj->ij", q.c**2 * cl.ss, q.a, q.a)
        + np.einsum("c,cij->ij", n, q.cov())
    ) / V
    lam_inv = 0.5 * (lam_inv + lam_inv.T)
    lam_new = linalg.spd_jitter_retry(linalg.inverse_batched, lam_inv, "M-step precision")
    lam_new = 0.5 * (lam_new + lam_new.T)
    return ModelParams(K=k_new, Lam=lam_new, rho=V / sum_s), q, t


def em_step(state: EmState, ds: Dataset) -> EmState:
    """One E-step plus joint M-step, with the per-gene E-step values."""
    cl = ds.classes
    params, q, t = _update(state.params, cl)
    k = cl.index
    y = ds.r - ds.mu - t[k]
    m = state.params.K + (q.c[k] * y)[:, None] * q.a[k]
    s = (y / (1.0 + state.params.rho * q.s[k])) ** 2 + q.quad()[k]
    return EmState(params=params, Sigma=q.cov()[k], M=m, S=s)


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
    the log-likelihood by less than rel_tol relative. An iteration costs
    O(C d^3) on the class statistics, so it runs on the calling thread;
    plan is accepted for the interface the other backends share and does
    not change the result.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    cl = ds.classes
    params = init
    lls, ks, rhos = [], [], []
    prev = marginal_loglik(ds, init)
    converged = False
    for _ in range(max_iter):
        params = _update(params, cl)[0]
        ll = marginal_loglik(ds, params)
        lls.append(ll)
        ks.append(params.K)
        rhos.append(params.rho)
        if abs(ll - prev) < rel_tol * abs(ll):
            converged = True
            break
        prev = ll
    trace = EmTrace(loglik=np.array(lls), K=np.stack(ks), rho=np.array(rhos), converged=converged)
    return params, trace
