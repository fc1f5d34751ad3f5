"""Gibbs sampler over the model's full conditionals.

Update order per iteration: Lambda (Wishart), K given the new Lambda
(Gaussian), all per-gene beta vectors in parallel (Gaussians), then rho
(Gamma). The Lambda step uses the beta and K values most recently in
state. The beta Gaussians are the model's BetaGaussian around
A = Lambda^-1, which the K step has already formed; each draw applies
the Cholesky factor of its covariance in closed form, so no per-gene
matrix is built or factored.
Per-gene sampling uses one independent random stream per gene, so a
chain is reproducible for any worker count and permuting genes together
with their streams permutes nothing observable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .model import BetaGaussian, Dataset, HyperParams
from .samplers import (
    GammaParams,
    RngStream,
    RngStreamSet,
    WishartParams,
    sample_gamma,
    sample_mvn,
    sample_wishart,
)

__all__ = [
    "Chain",
    "ChainConfig",
    "ChainState",
    "ess",
    "gibbs_diagnostics",
    "gibbs_run",
    "gibbs_step",
    "k_full_conditional",
    "lambda_full_conditional",
    "overdispersed_init",
    "rho_full_conditional",
    "split_rhat",
]


@dataclass
class ChainState:
    """Current draw of every unknown."""

    K: np.ndarray
    Lam: np.ndarray
    rho: float
    beta: np.ndarray  # (V, d)


@dataclass(frozen=True)
class ChainConfig:
    iterations: int = 10_000
    burn_in: int = 2_000
    thin: int = 1
    seed: int = 0

    def __post_init__(self):
        if not (self.iterations > self.burn_in >= 0):
            raise ValueError("need iterations > burn_in >= 0")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")

    @property
    def kept(self) -> int:
        return (self.iterations - self.burn_in) // self.thin


@dataclass
class Chain:
    """Kept samples after burn-in and thinning."""

    K: np.ndarray  # (kept, d)
    Lam: np.ndarray  # (kept, d, d)
    rho: np.ndarray  # (kept,)
    config: ChainConfig


def k_full_conditional(
    hp: HyperParams, lam: np.ndarray, beta_sum: np.ndarray, V: int
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of K given Lambda and the summed betas.

    With V = 0 this reduces to the prior: mean K0, covariance (q0 Lam)^-1.
    """
    mean = (hp.q0 * hp.K0 + beta_sum) / (hp.q0 + V)
    cov = linalg.inverse_batched((hp.q0 + V) * lam)
    return mean, cov


def lambda_full_conditional(
    hp: HyperParams, K: np.ndarray, beta_scatter: np.ndarray, V: int
) -> WishartParams:
    """Wishart parameters of Lambda given K and the beta scatter about K.

    The accumulated matrix (prior rate + K deviation + scatter) is the
    rate; its inverse is the sampling scale. Degrees of freedom n0+V+1.
    """
    dk = K - hp.K0
    rate = hp.Lambda0_inv + hp.q0 * np.outer(dk, dk) + beta_scatter
    rate = 0.5 * (rate + rate.T)
    scale = linalg.spd_jitter_retry(linalg.inverse_batched, rate, "Lambda conditional rate")
    return WishartParams(hp.n0 + V + 1, 0.5 * (scale + scale.T))


def rho_full_conditional(hp: HyperParams, ssr: float, V: int) -> GammaParams:
    """Gamma parameters of rho given the exact squared residual sum."""
    return GammaParams(hp.a0 + 0.5 * V, hp.b0 + 0.5 * ssr)


def gibbs_step(
    rng: RngStream,
    state: ChainState,
    ds: Dataset,
    hp: HyperParams,
    streams: RngStreamSet | None = None,
    plan: linalg.ExecPlan | None = None,
) -> ChainState:
    """One full scan: Lambda, K, all betas, rho."""
    plan = plan or linalg.ExecPlan()
    V, d = ds.V, ds.dim
    if streams is None:
        # Standalone calls: per-gene streams under the driver's seed, at a
        # disjoint id range, positioned at the driver's current block so
        # successive calls never reuse draws.
        streams = RngStreamSet(
            rng.seed,
            np.arange(V, dtype=np.uint64) + np.uint64((rng.stream_id + 1) * 1_000_000),
            _block=rng._block,
        )

    # Lambda first, from the betas and K most recently in state.
    def scatter_kernel(lo, hi):
        dev = state.beta[lo:hi] - state.K
        return linalg.reduce_sum(np.einsum("vi,vj->vij", dev, dev))

    beta_scatter = linalg.tree_combine(plan.map(scatter_kernel, V))
    lam = sample_wishart(rng, lambda_full_conditional(hp, state.K, beta_scatter, V))

    # K given the fresh Lambda.
    beta_sum = linalg.tree_combine(plan.map(lambda lo, hi: linalg.reduce_sum(state.beta[lo:hi]), V))
    k_mean, k_cov = k_full_conditional(hp, lam, beta_sum, V)
    K = sample_mvn(rng, k_mean, k_cov, mode="cov")

    # All betas in parallel: precision Lam + rho D D^T around
    # A = Lam^-1 = (q0 + V) k_cov, one stream per gene.
    cov0 = (hp.q0 + V) * k_cov
    u = streams.normals(d)

    def beta_kernel(lo, hi):
        q = BetaGaussian(cov0, state.rho, ds.D[lo:hi])
        return q.draw(q.mean(K, ds.r[lo:hi] - ds.mu[lo:hi]), u[lo:hi])

    beta = np.concatenate(plan.map(beta_kernel, V))

    # rho from the exact residuals under the fresh betas.
    def resid_kernel(lo, hi):
        resid = ds.r[lo:hi] - ds.mu[lo:hi] - np.einsum("vi,vi->v", ds.D[lo:hi], beta[lo:hi])
        return linalg.reduce_sum(resid**2)

    ssr = float(linalg.tree_combine(plan.map(resid_kernel, V)))
    rho = sample_gamma(rng, rho_full_conditional(hp, ssr, V))
    return ChainState(K=K, Lam=lam, rho=float(rho), beta=beta)


def overdispersed_init(rng: RngStream, ds: Dataset, hp: HyperParams, inflate: float = 4.0) -> ChainState:
    """Random starting point wider than the prior, for multi-chain R-hat checks.

    K scatters around K0 at `inflate` times the Lambda0-implied scale, rho
    is jittered multiplicatively, and the betas start at the drawn K.
    """
    d = ds.dim
    scale = np.sqrt(np.diag(hp.Lambda0_inv))
    K = hp.K0 + inflate * scale * rng.normals(d)
    rho = (hp.a0 / hp.b0) * np.exp(inflate * 0.5 * float(rng.normals(1)[0]))
    return ChainState(
        K=K,
        Lam=hp.Lambda0.copy(),
        rho=float(rho),
        beta=np.broadcast_to(K, (ds.V, d)).copy(),
    )


def gibbs_run(
    rng: RngStream,
    ds: Dataset,
    hp: HyperParams,
    config: ChainConfig,
    plan: linalg.ExecPlan | None = None,
    init: ChainState | None = None,
) -> Chain:
    """Run a chain from the prior means and keep per config.

    The driving stream is (config.seed, 0); gene streams live under the
    same seed at a disjoint stream-id range. Pass ``init`` (for example
    from overdispersed_init) to start elsewhere.
    """
    plan = plan or linalg.ExecPlan()
    V, d = ds.V, ds.dim
    state = init or ChainState(
        K=hp.K0.copy(),
        Lam=hp.Lambda0.copy(),
        rho=hp.a0 / hp.b0,
        beta=np.broadcast_to(hp.K0, (V, d)).copy(),
    )
    streams = RngStreamSet.for_batch(config.seed, V, base=1_000_000)
    kept_k = np.empty((config.kept, d))
    kept_lam = np.empty((config.kept, d, d))
    kept_rho = np.empty(config.kept)
    n_kept = 0
    for it in range(config.iterations):
        state = gibbs_step(rng, state, ds, hp, streams=streams, plan=plan)
        if it >= config.burn_in and (it - config.burn_in + 1) % config.thin == 0 and n_kept < config.kept:
            kept_k[n_kept] = state.K
            kept_lam[n_kept] = state.Lam
            kept_rho[n_kept] = state.rho
            n_kept += 1
    return Chain(K=kept_k[:n_kept], Lam=kept_lam[:n_kept], rho=kept_rho[:n_kept], config=config)


def _autocorr(x: np.ndarray, max_lag: int) -> np.ndarray:
    x = x - x.mean()
    n = len(x)
    denom = float(x @ x)
    if denom == 0.0:
        return np.full(max_lag + 1, np.nan)
    return np.array([float(x[: n - k] @ x[k:]) / denom for k in range(max_lag + 1)])


def ess(x: np.ndarray) -> float:
    """Effective sample size via positive-autocorrelation truncation."""
    n = len(x)
    rho = _autocorr(x, min(n - 2, 1000))
    if np.any(np.isnan(rho)):
        return np.nan
    s = 0.0
    for k in range(1, len(rho)):
        if rho[k] <= 0.0:
            break
        s += rho[k]
    return n / (1.0 + 2.0 * s)


def split_rhat(x: np.ndarray) -> float:
    """Potential scale reduction over the two halves of one chain."""
    n = len(x) // 2
    halves = np.stack([x[:n], x[n : 2 * n]])
    within = halves.var(axis=1, ddof=1).mean()
    between = n * halves.mean(axis=1).var(ddof=1)
    if within == 0.0:
        return np.nan
    var_plus = (n - 1) / n * within + between / n
    return float(np.sqrt(var_plus / within))


def gibbs_diagnostics(chain: Chain) -> dict[str, dict[str, float]]:
    """Per-parameter ESS and split-Rhat for the kept draws.

    Constant (zero-variance) chains yield NaN diagnostics, flagged via
    the 'degenerate' entry.
    """
    if chain.rho.shape[0] < 100:
        raise ValueError("need at least 100 kept samples for diagnostics")
    out: dict[str, dict[str, float]] = {}
    series = {"rho": chain.rho}
    for j in range(chain.K.shape[1]):
        series[f"K{j + 1}"] = chain.K[:, j]
    d = chain.Lam.shape[1]
    for i in range(d):
        for j in range(i, d):
            series[f"Lam{i + 1}{j + 1}"] = chain.Lam[:, i, j]
    for name, x in series.items():
        e = ess(x)
        r = split_rhat(x)
        out[name] = {
            "ess": e,
            "rhat": r,
            "degenerate": float(np.isnan(e) or np.isnan(r)),
        }
    return out
