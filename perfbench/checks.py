"""Checks on what the program wrote.

Each check compares an artifact against a computation made here, apart
from the program, or against a property the method must have; none
compares against a stored copy of earlier output. A check returns a list
of failure messages, empty when the artifact passes.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from workloads import REFERENCE_COV

# The fits run with the CLI's default prior (no --hyperparams): n0 = 1.
PRIOR_N0 = 1
# Relative slack on a bound or log-likelihood step, as in acceptance
# criteria C04 and C05.
ASCENT_SLACK = 1e-9
# Largest |z| of a Wishart draw mean against its expectation. Three
# entries are tested per fit; a correct sampler fails one with
# probability below 2e-6.
Z_DRAWS = 5.0
# Full weights may lie this many standard errors (from the Fisher
# information at the generating parameters) from the generating weights.
Z_WEIGHTS = 6.0
# fibro56: estimates may lie this many Gibbs posterior sds from the Gibbs
# posterior mean, and the generating weights this many.
SD_AGREE = 2.5
SD_TRUTH = 4.0


def read_table(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(x) for x in row] for row in rows[1:] if row])


def column(path: Path, name: str) -> np.ndarray:
    header, data = read_table(path)
    return data[:, header.index(name)]


def lambda_draws(path: Path) -> np.ndarray:
    header, data = read_table(path)
    d = sum(1 for h in header if h.startswith("K"))
    cols = [header.index(f"Lam{i + 1}{j + 1}") for i in range(d) for j in range(d)]
    return data[:, cols].reshape(-1, d, d)


def k_draws(path: Path) -> np.ndarray:
    header, data = read_table(path)
    return data[:, [i for i, h in enumerate(header) if h.startswith("K")]]


def load_report(outdir: Path) -> dict:
    with open(outdir / "report.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- profiles ----------------------------------------------------------------


def _directives(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split("#", 1)[0].split() for line in lines if line.split("#", 1)[0].strip()]


def evaluate_netlist(netlist: Path, fault: Path, stimulus: Path) -> dict[str, int]:
    """Output bits of one faulty copy under one stimulus.

    Precedence, as the netlist format defines it: a stuck-at fault, then a
    drug (forces 0), then the gate logic.
    """
    gates, outputs = {}, []
    for words in _directives(netlist):
        if words[0] == "gate":
            text = " ".join(words[1:])
            name, expr = (s.strip() for s in text.split("=", 1))
            op, args = expr.split("(", 1)
            gates[name] = (op.strip().upper(), [a.strip() for a in args.rstrip(")").split(",")])
        elif words[0] == "output":
            outputs.append(words[1])
    stuck = {w[1]: int(w[2]) for w in _directives(fault)}
    assigned = {w[1]: int(w[2]) for w in _directives(stimulus) if w[0] == "set"}
    drugs = {w[1] for w in _directives(stimulus) if w[0] == "drug"}
    values: dict[str, int] = {}

    def value(node: str) -> int:
        if node not in values:
            if node in stuck:
                values[node] = stuck[node]
            elif node in drugs:
                values[node] = 0
            elif node in assigned:
                values[node] = assigned[node]
            else:
                op, args = gates[node]
                bits = [value(a) for a in args]
                values[node] = {
                    "AND": int(all(bits)),
                    "OR": int(any(bits)),
                    "NOT": 1 - bits[0],
                    "BUF": bits[0],
                }[op]
        return values[node]

    return {out: value(out) for out in outputs}


def profiles(table: np.ndarray, netlist: Path, faults, stimuli) -> list[str]:
    """The program's profile table is the netlist's (stimulus, output) bits,
    and it covers every non-constant three-network class."""
    expected = []
    for stim in stimuli:
        per_fault = [evaluate_netlist(netlist, f, stim) for f in faults]
        expected += [[pf[out] for pf in per_fault] for out in per_fault[0]]
    expected = np.array(expected, dtype=float)
    failures = []
    if table.shape != expected.shape or not np.array_equal(table, expected):
        failures.append("profile table differs from an independent evaluation of the netlist")
    classes = {tuple(row) for row in table.astype(int).tolist()}
    missing = [c for c in np.ndindex(2, 2, 2) if 0 < sum(c) < 3 and c not in classes]
    if table.shape[1] == 3 and missing:
        failures.append(f"profile classes {missing} are missing")
    return failures


# -- dataset -----------------------------------------------------------------


def dataset(ds, r: np.ndarray, d: np.ndarray) -> list[str]:
    """read_dataset_csv returns the generated readings and profiles bit for bit."""
    mu = d[:, -1]
    D = d[:, :-1] - mu[:, None]
    same = (
        ds.n_networks == d.shape[1]
        and np.array_equal(ds.r, r)
        and np.array_equal(ds.mu, mu)
        and np.array_equal(ds.D, D)
    )
    return [] if same else ["read_dataset_csv does not return the generated readings and profiles"]


# -- fits --------------------------------------------------------------------


def marginal_loglik(r, d, K, Lam, rho) -> float:
    """sum_i log N(r_i | D_i^T K + mu_i, 1/rho + D_i^T Lam^-1 D_i)."""
    mu = d[:, -1]
    D = d[:, :-1] - mu[:, None]
    s2 = 1.0 / rho + np.einsum("vd,de,ve->v", D, np.linalg.inv(Lam), D)
    resid = r - mu - D @ np.asarray(K)
    return math.fsum(-0.5 * (np.log(2.0 * np.pi * s2) + resid**2 / s2))


def em(outdir: Path, r: np.ndarray, d: np.ndarray) -> list[str]:
    """The log-likelihood trace never decreases, and its last value is the
    closed-form log-likelihood at the reported estimates."""
    failures = []
    ll = column(outdir / "trace.csv", "loglik")
    if np.any(np.diff(ll) < -ASCENT_SLACK * np.abs(ll[1:])):
        failures.append("EM log-likelihood decreased")
    est = load_report(outdir)["estimates"]
    own = marginal_loglik(r, d, est["K"], np.array(est["Lambda"]), est["rho"])
    if not abs(own - ll[-1]) <= 1e-10 * abs(own):
        failures.append(f"EM trace ends at {ll[-1]!r}; the reported estimates give {own!r}")
    return failures


def vb(outdir: Path, V: int) -> list[str]:
    """The bound never decreases, the fit converged, and the mean of the
    Lambda draws matches the fitted Wishart's mean."""
    failures = []
    elbo = column(outdir / "trace.csv", "elbo")
    if np.any(np.diff(elbo) < -ASCENT_SLACK * np.abs(elbo[1:])):
        failures.append("VB bound decreased")
    report = load_report(outdir)
    if report.get("converged") is not True:
        failures.append(f"VB fit did not converge (stop: {report.get('stop_reason')})")
    nu = PRIOR_N0 + V
    mean = np.array(report["estimates"]["Lambda_mean"])
    S = mean / nu
    draws = lambda_draws(outdir / "samples.csv")
    var = nu * (S**2 + np.outer(np.diag(S), np.diag(S)))
    z = (draws.mean(axis=0) - mean) / np.sqrt(var / len(draws))
    worst = float(np.max(np.abs(np.triu(z))))
    if not worst <= Z_DRAWS:
        failures.append(f"VB Lambda draws: mean is {worst:.1f} sd from the fitted mean")
    return failures


def gibbs(outdir: Path, kept: int) -> list[str]:
    """(iterations - burn-in)/thin draws, every Lambda SPD, every rho > 0."""
    failures = []
    lam = lambda_draws(outdir / "samples.csv")
    rho = column(outdir / "samples.csv", "rho")
    if len(lam) != kept:
        failures.append(f"Gibbs kept {len(lam)} draws, expected {kept}")
    asym = np.abs(lam - lam.transpose(0, 2, 1)).max(axis=(1, 2))
    if np.any(asym > 1e-12 * np.abs(lam).max(axis=(1, 2))):
        failures.append("a Gibbs Lambda draw is not symmetric")
    elif np.any(np.linalg.eigvalsh(lam).min(axis=1) <= 0.0):
        failures.append("a Gibbs Lambda draw is not positive definite")
    if not np.all(rho > 0.0):
        failures.append("a Gibbs rho draw is not positive")
    return failures


def weight_se(d: np.ndarray, rho: float) -> np.ndarray:
    """Standard errors of the full weights from the Fisher information of K
    at the generating parameters: I = sum_i D_i D_i^T / s_i^2, with
    s_i^2 = 1/rho + D_i^T Lambda^-1 D_i. It shrinks as 1/sqrt(V)."""
    mu = d[:, -1]
    D = d[:, :-1] - mu[:, None]
    s2 = 1.0 / rho + np.einsum("vd,de,ve->v", D, REFERENCE_COV, D)
    cov_k = np.linalg.inv(np.einsum("vd,ve,v->de", D, D, 1.0 / s2))
    J = np.vstack([np.eye(len(cov_k)), -np.ones(len(cov_k))])
    return np.sqrt(np.diag(J @ cov_k @ J.T))


def weights_near_truth(weights: dict[str, list], truth: np.ndarray, se: np.ndarray) -> list[str]:
    """Each method's full weights lie within Z_WEIGHTS standard errors."""
    failures = []
    for method, w in weights.items():
        z = np.abs(np.asarray(w) - truth) / se
        if not np.all(z <= Z_WEIGHTS):
            failures.append(f"{method} full weights {np.round(w, 4).tolist()} are {z.max():.1f} se from the truth")
    return failures


def weights_agree(weights: dict[str, list], gibbs_k: np.ndarray, truth: np.ndarray) -> list[str]:
    """The methods agree within SD_AGREE Gibbs posterior sds of the Gibbs
    mean, and the generating weights lie within SD_TRUTH of it."""
    w = np.column_stack([gibbs_k, 1.0 - gibbs_k.sum(axis=1)])
    mean, sd = w.mean(axis=0), w.std(axis=0, ddof=1)
    failures = []
    for method, est in weights.items():
        z = np.abs(np.asarray(est) - mean) / sd
        if not np.all(z <= SD_AGREE):
            failures.append(f"{method} full weights are {z.max():.1f} Gibbs sds from the Gibbs mean")
    z = np.abs(truth - mean) / sd
    if not np.all(z <= SD_TRUTH):
        failures.append(f"generating weights are {z.max():.1f} Gibbs sds from the Gibbs mean")
    return failures


# -- density -----------------------------------------------------------------


def density(outdir: Path) -> list[str]:
    """Every density integrates to 1 by the trapezoid rule, and every mode
    lies within one grid step of its grid's maximum."""
    failures = []
    modes = json.loads((outdir / "modes.json").read_text(encoding="utf-8"))
    for name, mode in modes.items():
        _, grid = read_table(outdir / f"density_{name}.csv")
        x, y = grid[:, 0], grid[:, 1]
        area = float(np.sum(np.diff(x) * (y[1:] + y[:-1]) / 2.0))
        if not abs(area - 1.0) <= 1e-3:
            failures.append(f"density_{name} integrates to {area:.6f}")
        step = float(x[1] - x[0])
        if not abs(mode - x[np.argmax(y)]) <= step * (1.0 + 1e-9):
            failures.append(f"mode of {name} is not within one grid step of its grid's maximum")
    if not modes:
        failures.append("modes.json is empty")
    return failures


# -- parallel ----------------------------------------------------------------


def identical_estimates(parallel: dict[str, dict], serial: dict[str, dict]) -> list[str]:
    """Two-worker estimates equal serial ones bit for bit (JSON floats are
    written with repr, so equal text means equal doubles)."""
    return [
        f"{method}: two-worker estimates differ from serial ones"
        for method in parallel
        if json.dumps(parallel[method], sort_keys=True) != json.dumps(serial[method], sort_keys=True)
    ]
