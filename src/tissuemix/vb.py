"""Coordinate-ascent variational engine.

The posterior over (rho, beta, K, Lambda) is approximated by a factored
form Q(rho) Q(beta) Q(K, Lambda) whose blocks stay in their prior
families: Gamma for rho, per-gene Gaussians for beta, and Gaussian-Wishart
for (K, Lambda). One sweep updates the blocks in a fixed order
(expectations, rho, beta, then K/Lambda); the evidence lower bound is
non-decreasing across sweeps and is used as the convergence criterion.

Plain sweeps contract slowly on the reference regime (about 0.995 per
sweep at V=4000), so vb_fit wraps them in a safeguarded SQUAREM outer
loop (Varadhan & Roland 2008, Scand. J. Stat. 35:335). It extrapolates
the global block (K mean, Q(Lambda) rate, log b_rho) over two plain
sweeps, recomputes beta from the extrapolated globals, and keeps the
result only if the bound after one more sweep is at least the bound of
the plain pair. The fit's max_iter counts sweep evaluations: accepted
states plus rejected extrapolations.

Each Q(beta_i) is the model's BetaGaussian around A = E[Lambda]^-1,
which is the Q(Lambda) rate over n0+V, so the beta block and the bound
need no inversion per gene. Per-gene work is batched and may be chunked
across worker threads; all reductions use the fixed-tree contract, so
results are bit-identical for any worker count. vb_fit sweeps the genes
in an order set by their data, so its result is also bit-identical for
any order of the input genes.

A fitted Q is reported in closed form (vb_summary: t marginals for K and
the full weights, Gamma for rho) and sampled by Bartlett draws of Lambda
(vb_posterior_sample), whose cost does not grow with V.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import digamma, gammaincinv, gammaln, multigammaln, stdtrit

from . import linalg
from .model import BetaGaussian, Dataset, HyperParams, full_weights
from .samplers import GammaParams, RngStream, WishartParams, sample_gamma, wishart_factors

__all__ = [
    "VbState",
    "VbTrace",
    "vb_elbo",
    "vb_fit",
    "vb_init",
    "vb_posterior_sample",
    "vb_step",
    "vb_summary",
]

LOG_2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True)
class VbState:
    """All variational parameters plus cached expectations.

    lam0l_inv is the accumulated Wishart rate of Q(Lambda). Q(beta_i) is
    BetaGaussian(beta_cov0, beta_rho, D_i) with mean mu_beta[i]: beta_cov0
    and beta_rho are the E[Lambda]^-1 and E[rho] the beta block was
    computed with, which a sweep takes before it updates Q(Lambda).
    lam_beta and e_bbt are that block's per-gene precisions and second
    moments.
    """

    a_rho: float
    b_rho: float
    mu_beta: np.ndarray  # (V, d)
    lam_beta: np.ndarray  # (V, d, d) per-gene precisions
    k0k: np.ndarray  # (d,) mean of Q(K | Lambda)
    lam0l_inv: np.ndarray  # (d, d) Wishart rate of Q(Lambda)
    e_bbt: np.ndarray  # (V, d, d) second moments of beta
    e_rho: float
    beta_cov0: np.ndarray  # (d, d)
    beta_rho: float

    @property
    def dim(self) -> int:
        return self.k0k.shape[0]

    @property
    def V(self) -> int:
        return self.mu_beta.shape[0]


@dataclass
class VbTrace:
    """One row per accepted state, plus how the fit spent and ended its budget.

    sweep[i] is the number of sweep evaluations made when row i was
    recorded; sweeps is the total, including the stabilising sweeps of
    rejected extrapolations, which are counted in rejected and never
    written as rows.
    """

    elbo: np.ndarray
    delta_k0k: np.ndarray
    delta_rho: np.ndarray
    delta_lam: np.ndarray
    sweep: np.ndarray
    sweeps: int
    rejected: int
    converged: bool

    def __len__(self) -> int:
        return len(self.elbo)

    @property
    def stop_reason(self) -> str:
        return "tolerance" if self.converged else "max_iter"


def vb_init(ds: Dataset, hp: HyperParams) -> VbState:
    """Start every block at its prior values.

    Q(beta_i) starts at the prior N(K0, Lambda0^-1), which is the
    BetaGaussian with A = Lambda0^-1 and rho = 0. The stored Wishart rate
    of Q(Lambda) also starts at Lambda0 (the rate is the quantity the
    sweep accumulates), and the rho block at (a0, b0).
    """
    if hp.dim != ds.dim:
        raise ValueError(f"hyperparams dim {hp.dim} != dataset dim {ds.dim}")
    V, d = ds.V, ds.dim
    cov0 = hp.Lambda0_inv
    return VbState(
        a_rho=hp.a0,
        b_rho=hp.b0,
        mu_beta=np.broadcast_to(hp.K0, (V, d)).copy(),
        lam_beta=np.broadcast_to(hp.Lambda0, (V, d, d)).copy(),
        k0k=hp.K0.copy(),
        lam0l_inv=hp.Lambda0.copy(),
        e_bbt=np.broadcast_to(np.outer(hp.K0, hp.K0) + cov0, (V, d, d)).copy(),
        e_rho=hp.a0 / hp.b0,
        beta_cov0=cov0,
        beta_rho=0.0,
    )


def _resid_chunk(state: VbState, ds: Dataset, lo: int, hi: int) -> float:
    """sum_i [(r-mu)^2 - 2(r-mu) D^T E[beta] + D^T E[beta beta^T] D] over genes lo..hi."""
    rm = ds.r[lo:hi] - ds.mu[lo:hi]
    D = ds.D[lo:hi]
    quad = np.einsum("vi,vij,vj->v", D, state.e_bbt[lo:hi], D)
    cross = np.einsum("vi,vi->v", D, state.mu_beta[lo:hi])
    return linalg.reduce_sum(rm**2 - 2.0 * rm * cross + quad)


def _resid_moment_sums(state: VbState, ds: Dataset, plan: linalg.ExecPlan) -> float:
    """The expected squared residual, summed over all genes."""
    return float(linalg.tree_combine(plan.map(lambda lo, hi: _resid_chunk(state, ds, lo, hi), ds.V)))


def _global_expectations(lam0l_inv, b_rho: float, ds: Dataset, hp: HyperParams):
    """E[Lambda], a_rho and E[rho] of the global block."""
    lam0l = linalg.spd_jitter_retry(linalg.inverse_batched, lam0l_inv, "Q(Lambda) rate inversion")
    a_rho = hp.a0 + 0.5 * ds.V
    return (hp.n0 + ds.V) * lam0l, a_rho, a_rho / b_rho


def _beta_block(ds: Dataset, cov0, e_lam, k0k, e_rho: float, plan: linalg.ExecPlan):
    """Optimal Q(beta) for the given E[Lambda] = cov0^-1, E[K] and E[rho].

    Batched over genes; returns the per-gene precisions, means and second
    moments, plus the fixed-tree sums of the means and second moments.
    E[Lambda]^-1 E[Lambda K] is k0k, so that is the mean of a gene with
    D_i = 0.
    """

    def beta_kernel(lo, hi):
        D = ds.D[lo:hi]
        q = BetaGaussian(cov0, e_rho, D)
        mu_b = q.mean(k0k, ds.r[lo:hi] - ds.mu[lo:hi])
        lam_b = e_lam + e_rho * (D[:, :, None] * D[:, None, :])
        e_bbt = mu_b[:, :, None] * mu_b[:, None, :] + q.cov()
        return lam_b, mu_b, e_bbt, linalg.reduce_sum(mu_b), linalg.reduce_sum(e_bbt)

    parts = plan.map(beta_kernel, ds.V)
    return (
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]),
        np.concatenate([p[2] for p in parts]),
        linalg.tree_combine([p[3] for p in parts]),
        linalg.tree_combine([p[4] for p in parts]),
    )


def vb_step(state: VbState, ds: Dataset, hp: HyperParams, plan: linalg.ExecPlan | None = None) -> VbState:
    """One full coordinate-ascent sweep in the fixed block order."""
    plan = plan or linalg.ExecPlan()
    qv = hp.q0 + ds.V

    # rho block (the residual sum carries the current beta moments), with
    # the expectations of the current Q(K, Lambda) block.
    b_rho = hp.b0 + 0.5 * _resid_moment_sums(state, ds, plan)
    e_lam, a_rho, e_rho = _global_expectations(state.lam0l_inv, b_rho, ds, hp)

    # beta block, batched over genes.
    cov0 = state.lam0l_inv / (hp.n0 + ds.V)
    lam_beta, mu_beta, e_bbt, sum_mu, sum_bbt = _beta_block(ds, cov0, e_lam, state.k0k, e_rho, plan)

    # K / Lambda block from the refreshed beta moments.
    k0k = (sum_mu + hp.q0 * hp.K0) / qv
    lam0_inv = hp.Lambda0_inv
    lam0l_inv = (
        lam0_inv
        + sum_bbt
        + hp.q0 * np.outer(hp.K0, hp.K0)
        - qv * np.outer(k0k, k0k)
    )
    lam0l_inv = 0.5 * (lam0l_inv + lam0l_inv.T)

    return VbState(
        a_rho=a_rho,
        b_rho=b_rho,
        mu_beta=mu_beta,
        lam_beta=lam_beta,
        k0k=k0k,
        lam0l_inv=lam0l_inv,
        e_bbt=e_bbt,
        e_rho=e_rho,
        beta_cov0=cov0,
        beta_rho=e_rho,
    )


def _wishart_log_norm(dof: float, scale: np.ndarray) -> float | None:
    """Log normalizer of Wishart(dof, scale); None when the density is improper."""
    d = scale.shape[0]
    if dof <= d - 1:
        return None
    _, logdet = np.linalg.slogdet(scale)
    return 0.5 * dof * d * np.log(2.0) + 0.5 * dof * logdet + multigammaln(0.5 * dof, d)


def _e_log_det_lam(dof: float, scale: np.ndarray) -> float:
    d = scale.shape[0]
    _, logdet = np.linalg.slogdet(scale)
    return float(np.sum(digamma(0.5 * (dof + 1 - np.arange(1, d + 1)))) + d * np.log(2.0) + logdet)


def vb_elbo(state: VbState, ds: Dataset, hp: HyperParams, plan: linalg.ExecPlan | None = None) -> float:
    """Exact lower bound on the log evidence under the current Q.

    When the Wishart prior is improper (dof <= dim - 1, as with the
    defaults for three or more networks), its log normalizer is omitted
    and the bound is defined up to an additive constant; differences
    across sweeps, which drive convergence detection, are unaffected.
    """
    plan = plan or linalg.ExecPlan()
    V, d = ds.V, ds.dim
    nu = hp.n0 + V
    qv = hp.q0 + V
    S = linalg.inverse_batched(state.lam0l_inv)  # scale of Q(Lambda)
    e_rho = state.a_rho / state.b_rho
    e_lnrho = float(digamma(state.a_rho) - np.log(state.b_rho))
    e_lnlam = _e_log_det_lam(nu, S)

    def gene_kernel(lo, hi):
        q = BetaGaussian(state.beta_cov0, state.beta_rho, ds.D[lo:hi])
        dev = state.mu_beta[lo:hi] - state.k0k
        scatter = linalg.reduce_sum(q.cov() + dev[:, :, None] * dev[:, None, :])
        return _resid_chunk(state, ds, lo, hi), scatter, linalg.reduce_sum(q.logdet())

    parts = plan.map(gene_kernel, V)
    resid_sum = linalg.tree_combine([p[0] for p in parts])
    scatter_sum = linalg.tree_combine([p[1] for p in parts])
    logdet_sigma_sum = linalg.tree_combine([p[2] for p in parts])

    # Likelihood and beta prior.
    t_lik = 0.5 * V * (e_lnrho - LOG_2PI) - 0.5 * e_rho * resid_sum
    t_beta = (
        0.5 * V * e_lnlam
        - 0.5 * V * d * LOG_2PI
        - 0.5 * (nu * float(np.trace(S @ scatter_sum)) + V * d / qv)
    )

    # K and Lambda priors.
    dk = state.k0k - hp.K0
    t_k = (
        0.5 * d * np.log(hp.q0)
        - 0.5 * d * LOG_2PI
        + 0.5 * e_lnlam
        - 0.5 * hp.q0 * (nu * float(dk @ S @ dk) + d / qv)
    )
    lam0_inv = hp.Lambda0_inv
    t_lam = 0.5 * (hp.n0 - d - 1) * e_lnlam - 0.5 * nu * float(np.trace(lam0_inv @ S))
    z_prior = _wishart_log_norm(hp.n0, hp.Lambda0)
    if z_prior is not None:
        t_lam -= z_prior

    # rho prior.
    t_rho = (
        hp.a0 * np.log(hp.b0)
        - gammaln(hp.a0)
        + (hp.a0 - 1.0) * e_lnrho
        - hp.b0 * e_rho
    )

    # Entropies (negative E[ln Q]).
    h_beta = 0.5 * logdet_sigma_sum + 0.5 * V * d * (1.0 + LOG_2PI)
    h_rho = (
        state.a_rho
        - np.log(state.b_rho)
        + gammaln(state.a_rho)
        + (1.0 - state.a_rho) * digamma(state.a_rho)
    )
    e_lnq_k = 0.5 * d * np.log(qv) - 0.5 * d * LOG_2PI + 0.5 * e_lnlam - 0.5 * d
    z_q = _wishart_log_norm(nu, S)
    if z_q is None:
        raise linalg.NumericError("Q(Lambda) is improper; dataset too small")
    e_lnq_lam = 0.5 * (nu - d - 1) * e_lnlam - 0.5 * nu * d - z_q

    return float(t_lik + t_beta + t_k + t_lam + t_rho + h_beta + h_rho - e_lnq_k - e_lnq_lam)


def _rel_delta(new, old) -> float:
    denom = max(float(np.max(np.abs(old))), 1e-300)
    return float(np.max(np.abs(np.asarray(new) - np.asarray(old)))) / denom


def _global_block(state: VbState) -> np.ndarray:
    """(K mean, upper triangle of the Q(Lambda) rate, log b_rho) as one vector."""
    iu = np.triu_indices(state.dim)
    return np.concatenate([state.k0k, state.lam0l_inv[iu], [np.log(state.b_rho)]])


def _squarem_point(
    cycle: list[VbState], ds: Dataset, hp: HyperParams, plan: linalg.ExecPlan
) -> VbState | None:
    """SQUAREM extrapolation of the global block over two plain sweeps.

    cycle holds the states before, between and after the two sweeps. The
    step length is the S3 rule of Varadhan & Roland (2008), at least one
    (alpha = -1 gives back the last state's globals). The beta block of
    the returned state is recomputed from the extrapolated globals. None
    when the extrapolated Q(Lambda) rate is not positive definite.
    """
    t0, t1, t2 = (_global_block(s) for s in cycle)
    r = t1 - t0
    v = t2 - t1 - r
    vv = float(v @ v)
    alpha = min(-np.sqrt(float(r @ r) / vv), -1.0) if vv > 0.0 else -1.0
    theta = t0 - 2.0 * alpha * r + alpha**2 * v

    d = ds.dim
    rate = np.zeros((d, d))
    rate[np.triu_indices(d)] = theta[d:-1]
    rate = rate + np.triu(rate, 1).T
    b_rho = float(np.exp(theta[-1]))
    if not (np.all(np.isfinite(theta)) and np.isfinite(b_rho)):
        return None
    try:
        np.linalg.cholesky(rate)
    except np.linalg.LinAlgError:
        return None

    k0k = theta[:d]
    e_lam, a_rho, e_rho = _global_expectations(rate, b_rho, ds, hp)
    cov0 = rate / (hp.n0 + ds.V)
    lam_beta, mu_beta, e_bbt, _, _ = _beta_block(ds, cov0, e_lam, k0k, e_rho, plan)
    return VbState(
        a_rho=a_rho,
        b_rho=b_rho,
        mu_beta=mu_beta,
        lam_beta=lam_beta,
        k0k=k0k,
        lam0l_inv=rate,
        e_bbt=e_bbt,
        e_rho=e_rho,
        beta_cov0=cov0,
        beta_rho=e_rho,
    )


def _canonical_order(ds: Dataset) -> np.ndarray:
    """Gene order set by each gene's data: r, then mu, then the D row.

    The fixed-tree sums round differently for different gene orders, and
    each SQUAREM extrapolation scales such last-bit differences by up to
    the square of its step length. Fitting in this order makes the fit
    independent of the order in which the genes are given.
    """
    return np.lexsort([*ds.D.T[::-1], ds.mu, ds.r])


def _take_genes(state: VbState, index: np.ndarray) -> VbState:
    """The state with its per-gene blocks reordered by index."""
    return replace(
        state,
        mu_beta=state.mu_beta[index],
        lam_beta=state.lam_beta[index],
        e_bbt=state.e_bbt[index],
    )


def vb_fit(
    ds: Dataset,
    hp: HyperParams,
    max_iter: int = 300,
    rel_tol: float = 1e-8,
    plan: linalg.ExecPlan | None = None,
    compute_elbo: bool = True,
    param_tol: float = 1e-10,
) -> tuple[VbState, VbTrace]:
    """Iterate sweeps until the bound (or parameter movement) settles.

    With compute_elbo=True the sweeps run inside a safeguarded SQUAREM
    outer loop: after every two plain sweeps the global block is
    extrapolated (see _squarem_point) and given one stabilising sweep.
    That state is accepted only if its bound is at least the bound after
    the two plain sweeps; otherwise it is counted as rejected and the fit
    continues from the plain state, so the recorded bound never
    decreases. The stop rule is a plain sweep changing the bound by less
    than rel_tol relative.

    With compute_elbo=False there is no bound to safeguard with: plain
    sweeps run until the largest relative parameter delta falls below
    param_tol.

    max_iter bounds the accepted rows plus the rejected extrapolations,
    and so the sweep evaluations.

    The sweeps run on the genes in the order of _canonical_order; the
    returned per-gene blocks are in the order of ds.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    plan = plan or linalg.ExecPlan()
    order = _canonical_order(ds)
    ds = Dataset(r=ds.r[order], mu=ds.mu[order], D=ds.D[order], n_networks=ds.n_networks)
    state = vb_init(ds, hp)
    elbo = None  # bound of `state`; the prior start is never evaluated
    rows = []  # (sweep, elbo, delta_k0k, delta_rho, delta_lam) per accepted state
    cycle = [state]  # accepted plain states since the last extrapolation
    sweeps = rejected = 0
    converged = False

    def row(new, new_elbo):
        return (
            sweeps,
            new_elbo,
            _rel_delta(new.k0k, state.k0k),
            _rel_delta(new.a_rho / new.b_rho, state.a_rho / state.b_rho),
            _rel_delta(new.lam0l_inv, state.lam0l_inv),
        )

    while not converged and len(rows) + rejected < max_iter:
        if len(cycle) == 3:
            new, new_elbo = None, np.nan
            try:
                point = _squarem_point(cycle, ds, hp, plan)
                if point is not None:
                    sweeps += 1
                    new = vb_step(point, ds, hp, plan)
                    new_elbo = vb_elbo(new, ds, hp, plan)
            except (linalg.BatchItemError, linalg.NumericError):
                pass  # a numerically broken extrapolation is a rejected one
            if new_elbo >= elbo:
                rows.append(row(new, new_elbo))
                state, elbo = new, new_elbo
            else:
                rejected += 1
            cycle = [state]
            continue
        new = vb_step(state, ds, hp, plan)
        sweeps += 1
        new_elbo = vb_elbo(new, ds, hp, plan) if compute_elbo else np.nan
        rows.append(row(new, new_elbo))
        if compute_elbo:
            converged = elbo is not None and abs(new_elbo - elbo) < rel_tol * abs(new_elbo)
            cycle.append(new)
        else:
            converged = max(rows[-1][2:]) < param_tol
        state, elbo = new, new_elbo

    cols = list(zip(*rows))
    trace = VbTrace(
        elbo=np.array(cols[1]),
        delta_k0k=np.array(cols[2]),
        delta_rho=np.array(cols[3]),
        delta_lam=np.array(cols[4]),
        sweep=np.array(cols[0], dtype=int),
        sweeps=sweeps,
        rejected=rejected,
        converged=converged,
    )
    return _take_genes(state, np.argsort(order)), trace


def vb_posterior_sample(
    rng: RngStream,
    state: VbState,
    hp: HyperParams,
    V: int,
    n_samples: int,
) -> dict[str, np.ndarray]:
    """Joint draws of (K, Lambda, rho) from the fitted Q.

    Lambda = F F^T from the Bartlett factors F of Wishart(n0+V, scale)
    (samplers.wishart_factors), then K = k0k + F^-T u / sqrt(q0+V), a
    draw from N(k0k, ((q0+V) Lambda)^-1) by one triangular solve per
    draw, then rho from its Gamma block. The stream is read in a fixed
    number of calls whatever V and n_samples (gamma rejection rounds
    aside). Returns arrays 'K' (n, d), 'Lambda' (n, d, d), 'rho' (n,).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    d = state.dim
    scale = linalg.inverse_batched(state.lam0l_inv)
    F = wishart_factors(rng, WishartParams(hp.n0 + V, scale), n_samples)
    lam = F @ F.transpose(0, 2, 1)
    lam = 0.5 * (lam + lam.transpose(0, 2, 1))
    # Back substitution for F^T x = u; row i of F^T is column i of F.
    u = rng.normals(n_samples * d).reshape(n_samples, d)
    x = np.empty_like(u)
    for i in reversed(range(d)):
        x[:, i] = (u[:, i] - np.sum(F[:, i + 1 :, i] * x[:, i + 1 :], axis=1)) / F[:, i, i]
    k_draws = state.k0k + x / np.sqrt(hp.q0 + V)
    rho_draws = sample_gamma(rng, GammaParams(state.a_rho, state.b_rho), size=n_samples)
    return {"K": k_draws, "Lambda": lam, "rho": np.asarray(rho_draws)}


def _t_marginal(loc: float, scale: float, dof: float) -> dict:
    half = float(stdtrit(dof, 0.975)) * scale
    return {"mode": float(loc), "mean": float(loc), "ci95": [float(loc - half), float(loc + half)]}


def vb_summary(state: VbState, hp: HyperParams, V: int) -> dict:
    """Mode, mean and central 95% interval of each marginal of the fitted Q.

    Same shape as analysis.summarize, but exact rather than estimated from
    draws. Under Q, K is multivariate t with nu - d + 1 degrees of
    freedom (nu = n0 + V), location k0k and scale matrix
    lam0l_inv / ((nu - d + 1)(q0 + V)); each full weight is an affine map
    of K, so it is univariate t with the same degrees of freedom. rho is
    Gamma(a_rho, b_rho), whose mode is (a_rho - 1)/b_rho (0 when
    a_rho <= 1). Lambda_mean is nu lam0l_inv^-1.
    """
    d = state.dim
    nu = hp.n0 + V
    dof = nu - d + 1
    scale = state.lam0l_inv / (dof * (hp.q0 + V))
    J = np.vstack([np.eye(d), -np.ones((1, d))])  # full weights = e_last + J K
    loc = full_weights(state.k0k)
    sd = np.sqrt(np.diag(J @ scale @ J.T))  # the first d are the sds of K
    a, b = float(state.a_rho), float(state.b_rho)
    lo, hi = gammaincinv(a, [0.025, 0.975]) / b
    weights = {f"w{j + 1}": _t_marginal(loc[j], sd[j], dof) for j in range(d + 1)}
    weights["mode_vector"] = [float(m) for m in loc]
    return {
        "parameters": {
            **{f"K{j + 1}": _t_marginal(loc[j], sd[j], dof) for j in range(d)},
            "rho": {"mode": max(a - 1.0, 0.0) / b, "mean": a / b, "ci95": [float(lo), float(hi)]},
            "Lambda_mean": (nu * linalg.inverse_batched(state.lam0l_inv)).tolist(),
        },
        "full_weights": weights,
    }
