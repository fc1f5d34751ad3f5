"""Hierarchical model types, the raw-profile transform, and synthetic data.

The observation model: each gene i carries one normalized expression
reading r_i and an expression profile d_i of length N (one activity value
per network in the ensemble). With the weight vector constrained to sum
to one, the working representation drops the last component:

    mu_i = d_{i,N}
    D_i  = (d_{i,1} - d_{i,N}, ..., d_{i,N-1} - d_{i,N})^T

    r_i      ~ N(D_i^T beta_i + mu_i, 1/rho)
    beta_i   ~ N(K, Lambda^-1)

with priors rho ~ Gamma(a0, b0), K | Lambda ~ N(K0, (q0 Lambda)^-1),
Lambda ~ Wishart(dof n0, scale Lambda0). The population-level weight
vector of interest is K (length N-1), completed by 1 - sum(K).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .samplers import RngStream

__all__ = [
    "BetaGaussian",
    "Dataset",
    "ExpressionProfile",
    "HyperParams",
    "ModelParams",
    "ProfileClasses",
    "RawRecord",
    "default_hyperparams",
    "from_raw",
    "full_weights",
    "marginal_loglik",
    "random_profiles",
    "synth_generate",
    "transform",
    "untransform",
]

REFERENCE_LAMBDA_INV = np.array([[0.01, 0.005], [0.005, 0.008]])


def _freeze(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=dtype)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ExpressionProfile:
    """Per-network activity of one gene-linked output (length N).

    A single-network profile (length 1) is representable, but building a
    Dataset requires at least two networks.
    """

    d: np.ndarray
    gene: str | None = None

    def __post_init__(self):
        d = np.asarray(self.d, dtype=np.float64)
        if d.ndim != 1 or d.shape[0] < 1:
            raise ValueError("profile must be a non-empty vector")
        if not np.all(np.isfinite(d)):
            raise ValueError("profile contains non-finite entries")
        object.__setattr__(self, "d", _freeze(d))

    @property
    def n_networks(self) -> int:
        return self.d.shape[0]


@dataclass(frozen=True)
class RawRecord:
    """One gene: normalized expression ratio plus its profile."""

    r: float
    profile: ExpressionProfile

    def __post_init__(self):
        if not np.isfinite(self.r):
            raise ValueError("expression reading must be finite")


@dataclass(frozen=True)
class Dataset:
    """Observed layer after the working transform.

    r and mu have length V; D is the (V, N-1) batch of difference
    profiles. Immutable and safe to share across threads.
    """

    r: np.ndarray
    mu: np.ndarray
    D: np.ndarray
    n_networks: int

    def __post_init__(self):
        r = _freeze(np.atleast_1d(self.r))
        mu = _freeze(np.atleast_1d(self.mu))
        D = _freeze(np.atleast_2d(self.D))
        if r.shape[0] == 0:
            raise ValueError("empty dataset")
        if not (r.shape[0] == mu.shape[0] == D.shape[0]):
            raise ValueError("inconsistent lengths")
        if D.shape[1] != self.n_networks - 1:
            raise ValueError(f"D width {D.shape[1]} != n_networks-1 = {self.n_networks - 1}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "D", D)

    @property
    def V(self) -> int:
        return self.r.shape[0]

    @property
    def dim(self) -> int:
        """Working dimension N-1."""
        return self.D.shape[1]

    @cached_property
    def classes(self) -> ProfileClasses:
        """The genes grouped by their D row, computed on first use."""
        return ProfileClasses.of(self)


@dataclass(frozen=True)
class ProfileClasses:
    """The genes of a Dataset grouped by their difference profile D_i.

    Genes that share a D row share every per-gene quantity of the model
    but their reading, so EM and the marginal log-likelihood need the data
    only through each class's count n_c, mean xbar_c of x_i = r_i - mu_i
    and centred sum of squares ss_c = sum (x_i - xbar_c)^2. With
    y_i = x_i - D_c^T K, the class sum of y_i^2 is then
    ss_c + n_c (xbar_c - D_c^T K)^2, which, unlike sums of x and x^2, does
    not cancel when the readings sit far from zero.
    Binary profiles of N networks give at most 2^N - 1 classes;
    real-valued profiles give one class per gene, on the same path.

    The classes come in lexicographic order of the D rows, and each class
    sums its x sorted by value, so every figure is bit-identical under
    any permutation of the genes. Immutable and safe to share.
    """

    D: np.ndarray  # (C, d) distinct D rows
    index: np.ndarray  # (V,) class of each gene
    n: np.ndarray  # (C,) genes per class, as floats
    xbar: np.ndarray  # (C,)
    ss: np.ndarray  # (C,)

    @classmethod
    def of(cls, ds: Dataset) -> ProfileClasses:
        # one sort orders the genes by D row (first column first, as
        # np.unique(axis=0) does) and by x within each row
        x = ds.r - ds.mu
        order = np.lexsort((x, *ds.D.T[::-1]))
        D = ds.D[order]
        first = np.ones(ds.V, dtype=bool)
        first[1:] = np.any(D[1:] != D[:-1], axis=1)
        starts = np.flatnonzero(first)
        counts = np.diff(np.append(starts, ds.V))
        index = np.empty(ds.V, dtype=np.intp)
        index[order] = np.cumsum(first) - 1
        xs = x[order]
        xbar = np.add.reduceat(xs, starts) / counts
        ss = np.add.reduceat((xs - np.repeat(xbar, counts)) ** 2, starts)
        return cls(
            D=_freeze(D[starts]),
            index=_freeze(index, np.intp),
            n=_freeze(counts),
            xbar=_freeze(xbar),
            ss=_freeze(ss),
        )

    @property
    def C(self) -> int:
        return self.D.shape[0]

    @property
    def V(self) -> int:
        return self.index.shape[0]


@dataclass(frozen=True)
class HyperParams:
    """Fixed prior constants."""

    a0: float
    b0: float
    q0: float
    n0: int
    K0: np.ndarray
    Lambda0: np.ndarray
    # Lambda0^-1, which every VB sweep and Gibbs step reads: computed once.
    Lambda0_inv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.a0 > 0 and self.b0 > 0 and self.q0 > 0 and self.n0 >= 1):
            raise ValueError("hyperparameters must be positive")
        K0 = _freeze(np.atleast_1d(self.K0))
        Lambda0 = _freeze(np.atleast_2d(self.Lambda0))
        if Lambda0.shape != (K0.shape[0], K0.shape[0]):
            raise ValueError("Lambda0 shape inconsistent with K0")
        linalg.cholesky_batched(Lambda0)  # SPD check
        object.__setattr__(self, "K0", K0)
        object.__setattr__(self, "Lambda0", Lambda0)
        object.__setattr__(self, "Lambda0_inv", _freeze(linalg.inverse_batched(Lambda0)))
        object.__setattr__(self, "n0", int(self.n0))

    @property
    def dim(self) -> int:
        return self.K0.shape[0]


@dataclass(frozen=True)
class ModelParams:
    """One point in parameter space: weight mean K, precision matrix, rho."""

    K: np.ndarray
    Lam: np.ndarray
    rho: float

    def __post_init__(self):
        K = _freeze(np.atleast_1d(self.K))
        Lam = _freeze(np.atleast_2d(self.Lam))
        if Lam.shape != (K.shape[0], K.shape[0]):
            raise ValueError("Lam shape inconsistent with K")
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        linalg.cholesky_batched(Lam)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "Lam", Lam)


def transform(records) -> Dataset:
    """Build the working Dataset from raw (r_i, d_i) records."""
    records = list(records)
    if not records:
        raise ValueError("no records")
    n = records[0].profile.n_networks
    if n < 2:
        raise ValueError("datasets need at least 2 networks")
    for i, rec in enumerate(records):
        if rec.profile.n_networks != n:
            raise ValueError(f"record {i} has {rec.profile.n_networks} networks, expected {n}")
    return from_raw(np.array([rec.r for rec in records]), np.stack([rec.profile.d for rec in records]))


def from_raw(r: np.ndarray, d: np.ndarray) -> Dataset:
    """Build the working Dataset from readings r (V,) and raw profiles d (V, N)."""
    mu = d[:, -1].copy()
    D = d[:, :-1] - mu[:, None]
    return Dataset(r=r, mu=mu, D=D, n_networks=d.shape[1])


def untransform(ds: Dataset) -> np.ndarray:
    """Reconstruct the raw (V, N) profile matrix from a Dataset."""
    d = np.empty((ds.V, ds.n_networks))
    d[:, -1] = ds.mu
    d[:, :-1] = ds.D + ds.mu[:, None]
    return d


def default_hyperparams(N: int) -> HyperParams:
    """Weakly informative defaults for an ensemble of N networks.

    For N = 3 the precision prior scale is the inverse of the reference
    covariance [[0.01, 0.005], [0.005, 0.008]]; other N fall back to the
    inverse of 0.01*I. K0 entries are 1/3 (nearly irrelevant at
    q0 = 0.001).
    """
    if N < 2:
        raise ValueError("need at least 2 networks")
    dim = N - 1
    if N == 3:
        lam0 = np.linalg.inv(REFERENCE_LAMBDA_INV)
    else:
        lam0 = np.linalg.inv(0.01 * np.eye(dim))
    return HyperParams(a0=0.5, b0=0.5, q0=0.001, n0=1, K0=np.full(dim, 1.0 / 3.0), Lambda0=lam0)


def full_weights(K: np.ndarray) -> np.ndarray:
    """Append the implied last weight 1 - sum(K)."""
    K = np.atleast_1d(np.asarray(K, dtype=np.float64))
    return np.concatenate([K, [1.0 - K.sum()]])


def random_profiles(
    rng: RngStream, V: int, N: int, include_constant: bool = True
) -> list[ExpressionProfile]:
    """V binary profiles drawn uniformly from {0,1}^N.

    Constant profiles (all networks agree) have D_i = 0 and carry no
    weight information, but they pin down the observation precision: a
    gene whose networks all agree reads r_i ~ N(mu_i, 1/rho) exactly.
    With binary profiles and N = 3 the non-constant classes alone leave
    (rho, Lambda) on a flat likelihood ridge, so constants are included
    by default; pass include_constant=False to draw only informative-
    for-K profiles.
    """
    if N < 2 or N > 62:
        raise ValueError("N must be in [2, 62]")
    n_codes = 2**N
    out = []
    while len(out) < V:
        u = rng.uniforms(V - len(out))
        codes = np.minimum((u * n_codes).astype(np.int64), n_codes - 1)
        if not include_constant:
            codes = codes[(codes != 0) & (codes != n_codes - 1)]
        for c in codes:
            bits = [(int(c) >> k) & 1 for k in range(N)]
            out.append(ExpressionProfile(np.array(bits, dtype=np.float64)))
    return out[:V]


def synth_generate(rng: RngStream, truth: ModelParams, profiles) -> Dataset:
    """Simulate one reading per profile under the generative model."""
    profiles = list(profiles)
    if not profiles:
        raise ValueError("no profiles")
    dim = truth.K.shape[0]
    if profiles[0].n_networks != dim + 1:
        raise ValueError(
            f"profiles have {profiles[0].n_networks} networks but truth implies {dim + 1}"
        )
    ds0 = transform([RawRecord(0.0, p) for p in profiles])
    V = ds0.V
    cov = linalg.inverse_batched(truth.Lam)
    L = linalg.cholesky_batched(cov)
    z = rng.normals(V * dim).reshape(V, dim)
    beta = truth.K + z @ L.T
    eps = rng.normals(V) / np.sqrt(truth.rho)
    r = np.einsum("vd,vd->v", ds0.D, beta) + ds0.mu + eps
    return Dataset(r=r, mu=ds0.mu, D=ds0.D, n_networks=ds0.n_networks)


def marginal_loglik(ds: Dataset, p: ModelParams) -> float:
    """Log-likelihood with the per-gene latent weights integrated out.

    Each gene contributes log N(r_i | D_i^T K + mu_i, 1/rho + D_i^T
    Lambda^-1 D_i). This is the ascent target of the EM iteration. The
    sum is taken per profile class (Dataset.classes): the genes of class c
    share s2_c = 1/rho + D_c^T Lambda^-1 D_c, and their squared residuals
    sum to ss_c + n_c (xbar_c - D_c^T K)^2.
    """
    cl = ds.classes
    s2 = 1.0 / p.rho + np.einsum("cd,de,ce->c", cl.D, linalg.inverse_batched(p.Lam), cl.D)
    ybar = cl.xbar - cl.D @ p.K
    terms = cl.n * np.log(2.0 * np.pi * s2) + (cl.ss + cl.n * ybar**2) / s2
    return -0.5 * float(np.sum(terms))


class BetaGaussian:
    """The Gaussians over beta_i with precision Lambda + rho D_i D_i^T.

    All genes share A = Lambda^-1, so each gene's Gaussian is a rank-1
    change of A (Sherman-Morrison). With a_i = A D_i, s_i = D_i^T a_i and
    c_i = rho / (1 + rho s_i):

        mean_i            = m0 + c_i (x_i - D_i^T m0) a_i
        Sigma_i           = A - c_i a_i a_i^T
        log det Sigma_i   = log det A - log1p(rho s_i)
        D_i^T Sigma_i D_i = s_i / (1 + rho s_i)

    where x_i = r_i - mu_i and m0 = A Lambda K is the mean of a gene
    whose profile carries no information (D_i = 0). VB and Gibbs take
    their beta block from here gene by gene, and EM once per profile class
    (D holds the class rows), so none of them builds, inverts or factors a
    d x d matrix per gene; cov() materializes the (V, d, d) covariances
    only for the callers that store or sum them.
    """

    def __init__(self, A: np.ndarray, rho: float, D: np.ndarray):
        self.A = A
        self.rho = rho
        self.D = D
        self.a = D @ A.T
        self.s = np.einsum("vi,vi->v", D, self.a)
        self.c = rho / (1.0 + rho * self.s)

    def mean(self, m0: np.ndarray, x: np.ndarray) -> np.ndarray:
        return m0 + (self.c * (x - self.D @ m0))[:, None] * self.a

    def cov(self) -> np.ndarray:
        return self.A - self.c[:, None, None] * (self.a[:, :, None] * self.a[:, None, :])

    def logdet(self) -> np.ndarray:
        sign, logdet_a = np.linalg.slogdet(self.A)
        if sign <= 0:
            raise linalg.NumericError("non-PD beta covariance")
        return logdet_a - np.log1p(self.rho * self.s)

    def quad(self) -> np.ndarray:
        """D_i^T Sigma_i D_i."""
        return self.s / (1.0 + self.rho * self.s)

    def draw(self, mean: np.ndarray, u: np.ndarray) -> np.ndarray:
        """mean_i + chol(Sigma_i) u_i per gene, given standard normals u (V, d).

        With L = chol(A) and w_i = L^T D_i, chol(Sigma_i) is
        L chol(I - c_i w_i w_i^T), and the inner factor has a closed form:
        with e_j = 1 + rho sum_{k>j} w_k^2 and f_j = e_j + rho w_j^2, its
        diagonal is sqrt(e_j / f_j) and its entry (i, j) below the
        diagonal is -rho w_i w_j / sqrt(e_j f_j). Nothing divides by s_i,
        so a gene with D_i = 0 gets mean_i + L u_i.
        """
        L = np.linalg.cholesky(self.A)
        w = self.D @ L
        w2 = w * w
        e = np.zeros_like(w)
        e[:, :-1] = np.cumsum(w2[:, :0:-1], axis=1)[:, ::-1]
        e = 1.0 + self.rho * e
        f = e + self.rho * w2
        below = np.zeros_like(w)
        below[:, 1:] = np.cumsum((w * u / np.sqrt(e * f))[:, :-1], axis=1)
        return mean + (np.sqrt(e / f) * u - self.rho * w * below) @ L.T
