"""Posterior summarization: Gaussian-kernel density estimates and modes.

Marginals are one-dimensional KDEs per component; the last weight's
marginal is formed by applying the deterministic completion 1 - sum(K)
to every sample before density estimation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import full_weights

__all__ = [
    "DensityGrid",
    "KdeModel",
    "kde_density",
    "kde_fit",
    "kde_grid",
    "kde_mode",
    "summarize",
]

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class KdeModel:
    """Samples plus a Gaussian-kernel bandwidth (scalar, one dimension)."""

    samples: np.ndarray
    bandwidth: float

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64)
        if s.ndim != 1 or s.shape[0] < 2:
            raise ValueError("need at least 2 one-dimensional samples")
        if not np.all(np.isfinite(s)):
            raise ValueError("samples contain non-finite values")
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")
        object.__setattr__(self, "samples", s)


@dataclass(frozen=True)
class DensityGrid:
    x: np.ndarray
    density: np.ndarray
    mode: float

    @property
    def integral(self) -> float:
        return float(np.trapezoid(self.density, self.x))


def kde_fit(samples, bandwidth: float | None = None) -> KdeModel:
    """Fit a 1-d Gaussian KDE; the default bandwidth is Scott's rule.

    Scott's rule: h = n^(-1/(d+4)) * sigma_hat with d = 1. Degenerate
    (zero-variance) samples need an explicit bandwidth.
    """
    s = np.asarray(samples, dtype=np.float64)
    if s.ndim != 1 or s.shape[0] < 2:
        raise ValueError("need at least 2 one-dimensional samples")
    if bandwidth is None:
        sd = float(np.std(s, ddof=1))
        if sd == 0.0:
            raise ValueError("zero-variance samples: pass an explicit bandwidth")
        bandwidth = sd * len(s) ** (-1.0 / 5.0)
    return KdeModel(samples=s, bandwidth=float(bandwidth))


def kde_density(model: KdeModel, x) -> np.ndarray:
    """Density values at the query points, chunked to bound memory.

    Kernel exponents are clamped at -700, where exp is still a normal
    number (about 1e-304): numpy's exp is tens of times slower on results
    in the subnormal range, and a term that small changes no density
    above about 1e-280, which covers every point within a few bandwidths
    of a sample.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    h = model.bandwidth
    out = np.empty_like(x)
    norm = 1.0 / (len(model.samples) * h * np.sqrt(2.0 * np.pi))
    step = max(1, 16_000_000 // max(len(model.samples), 1))
    for lo in range(0, len(x), step):
        z = (x[lo : lo + step, None] - model.samples[None, :]) / h
        out[lo : lo + step] = norm * np.exp(np.maximum(-0.5 * z**2, -700.0)).sum(axis=1)
    return out


def _grid_bounds(model: KdeModel, lo: float | None, hi: float | None) -> tuple[float, float]:
    """The given bounds, defaulting to the samples padded by 4 bandwidths."""
    if lo is None:
        lo = float(model.samples.min()) - 4.0 * model.bandwidth
    if hi is None:
        hi = float(model.samples.max()) + 4.0 * model.bandwidth
    return lo, hi


def kde_grid(model: KdeModel, lo: float | None = None, hi: float | None = None, n: int = 512) -> DensityGrid:
    """Evaluate on a grid spanning the samples padded by 4 bandwidths.

    The mode is kde_mode's, refined from this grid's own densities.
    """
    lo, hi = _grid_bounds(model, lo, hi)
    x = np.linspace(lo, hi, n)
    dens = kde_density(model, x)
    return DensityGrid(x=x, density=dens, mode=_refine_mode(model, x, dens)[0])


def kde_mode(
    model: KdeModel,
    n: int = 512,
    lo: float | None = None,
    hi: float | None = None,
) -> tuple[float, bool]:
    """Grid argmax refined by three golden-section steps.

    Returns (mode, multimodal) where the flag marks density ties within
    1e-12 at separated grid cells; the lowest-coordinate mode is returned
    in that case.
    """
    lo, hi = _grid_bounds(model, lo, hi)
    x = np.linspace(lo, hi, n)
    return _refine_mode(model, x, kde_density(model, x))


def _refine_mode(model: KdeModel, x: np.ndarray, dens: np.ndarray) -> tuple[float, bool]:
    """kde_mode from the densities dens on the grid x."""
    n = len(x)
    if n < 256:
        raise ValueError("grid resolution must be >= 256")
    best = int(np.argmax(dens))
    near_ties = np.nonzero(dens >= dens[best] - 1e-12)[0]
    multimodal = bool(np.any(np.diff(near_ties) > 1))
    best = int(near_ties[0])
    a = x[max(best - 1, 0)]
    b = x[min(best + 1, n - 1)]
    c = b - _GOLDEN * (b - a)
    d_ = a + _GOLDEN * (b - a)
    fc = kde_density(model, np.array([c]))[0]
    fd = kde_density(model, np.array([d_]))[0]
    for _ in range(3):
        if fc > fd:
            b, d_, fd = d_, c, fc
            c = b - _GOLDEN * (b - a)
            fc = kde_density(model, np.array([c]))[0]
        else:
            a, c, fc = c, d_, fd
            d_ = a + _GOLDEN * (b - a)
            fd = kde_density(model, np.array([d_]))[0]
    return float(0.5 * (a + b)), multimodal


def _central_interval(x: np.ndarray, mass: float = 0.95) -> tuple[float, float]:
    alpha = 0.5 * (1.0 - mass)
    return float(np.quantile(x, alpha)), float(np.quantile(x, 1.0 - alpha))


def summarize(samples: dict[str, np.ndarray], bandwidth: float | None = None) -> dict:
    """Mode / mean / central 95% interval per parameter, plus full weights.

    ``samples`` carries 'K' (n, d) and 'rho' (n,); 'Lambda' (n, d, d) is
    summarized by its mean. Needs at least 100 samples.
    """
    K = np.asarray(samples["K"], dtype=np.float64)
    rho = np.asarray(samples["rho"], dtype=np.float64)
    if K.shape[0] < 100:
        raise ValueError("need at least 100 samples")
    w = np.apply_along_axis(full_weights, 1, K)
    report: dict = {"parameters": {}, "full_weights": {}}
    for j in range(K.shape[1]):
        x = K[:, j]
        trivial = float(np.std(x, ddof=1)) == 0.0
        mode = float(x[0]) if trivial else kde_mode(kde_fit(x, bandwidth))[0]
        lo, hi = _central_interval(x)
        report["parameters"][f"K{j + 1}"] = {
            "mode": mode,
            "mean": float(x.mean()),
            "ci95": [lo, hi],
        }
    modes = []
    for j in range(w.shape[1]):
        x = w[:, j]
        trivial = float(np.std(x, ddof=1)) == 0.0
        mode = float(x[0]) if trivial else kde_mode(kde_fit(x, bandwidth))[0]
        lo, hi = _central_interval(x)
        report["full_weights"][f"w{j + 1}"] = {
            "mode": mode,
            "mean": float(x.mean()),
            "ci95": [lo, hi],
        }
        modes.append(mode)
    report["full_weights"]["mode_vector"] = modes
    trivial = float(np.std(rho, ddof=1)) == 0.0
    rho_mode = float(rho[0]) if trivial else kde_mode(kde_fit(rho, bandwidth))[0]
    lo, hi = _central_interval(rho)
    report["parameters"]["rho"] = {"mode": rho_mode, "mean": float(rho.mean()), "ci95": [lo, hi]}
    if "Lambda" in samples:
        lam = np.asarray(samples["Lambda"], dtype=np.float64)
        report["parameters"]["Lambda_mean"] = lam.mean(axis=0).tolist()
    return report
