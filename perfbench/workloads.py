"""Workloads of the tissuemix benchmark and the inputs each one fits.

Every workload takes its profile table from a Boolean netlist in
``netlists/``, built with ``tissuemix profiles`` and read back with the
program's profile reader. The readings are then drawn by the benchmark's
own seeded generator (numpy's PCG64, never the program's streams) from the
model's equations:

    beta_i ~ N(K, Lambda^-1),   r_i = D_i^T beta_i + mu_i + eps_i,
    eps_i ~ N(0, 1/rho),        mu_i = d_iN,  D_i = d_i[:N-1] - mu_i,

and written as the dataset CSV that ``tissuemix fit`` reads. A change to
how the program consumes its random streams therefore cannot change the
inputs.
"""

from __future__ import annotations

import contextlib
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NETLISTS = Path(__file__).resolve().parent / "netlists"
STEPS = ("vb", "em", "gibbs", "density")

# Covariance of the per-gene weights (the inverse of the reference Lambda).
# The benchmark keeps its own copy so that the program cannot move it.
REFERENCE_COV = np.array([[0.01, 0.005], [0.005, 0.008]])

# Stop rules. Near the CLI default (rel-tol 1e-8) the bound moves by
# little more than its rounding, so the number of VB sweep evaluations to
# the stop is set by rounding: over seeds 21-25 at V=32000 it ranges
# 65-137 at 1e-7 and 48-54 at 1e-5. EM reaches its 300-iteration cap on
# most inputs at 1e-8 (and needs 78 to over 1000 iterations at 1e-5, by
# input), so the benchmark always runs the 300.
VB_REL_TOL = "1e-5"
EM_REL_TOL = "0"
# Some 56-gene fits need more than the default 300 VB sweep evaluations
# even at 1e-5: 8 of 1600 fibro56 datasets (seeds 1-200), at most 539.
VB_MAX_ITER = "2000"


@dataclass(frozen=True)
class Workload:
    name: str
    netlist: str  # directory under netlists/: netlist.txt, fault<q>.txt, stim<s>.txt
    genes: int | None  # None: one gene per profile; else drawn uniformly from the table
    K: tuple[float, float]
    rho: float
    workers: int  # 1 runs serially; more runs --parallel parallel --workers n
    vb_samples: int | None  # None: the CLI default (10k draws)
    gibbs_iterations: int | None  # None: the CLI default (10k)
    gibbs_burn_in: int | None  # None: the CLI default (2k for chains over 2k)
    # Methods whose full weights are checked against the generating ones;
    # empty: the methods are checked against each other (see checks.py).
    truth_methods: tuple[str, ...]
    # Passes each step runs in a round, for vb, em, gibbs and density. Each
    # pass fits a dataset of its own, so that the median time of a short
    # step covers several datasets (the KDE's cost depends on the shape of
    # the draws; see README).
    passes: tuple[int, int, int, int]

    @property
    def kept_draws(self) -> int:
        """Gibbs draws kept, from the CLI defaults the workload relies on."""
        iterations = 10_000 if self.gibbs_iterations is None else self.gibbs_iterations
        burn_in = self.gibbs_burn_in
        if burn_in is None:
            burn_in = 2_000 if iterations > 2_000 else 0
        return iterations - burn_in

    @property
    def full_weights(self) -> np.ndarray:
        return np.array([*self.K, 1.0 - sum(self.K)])


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's real-data shape: 56 genes, the paper's weights and rho.
        Workload(
            name="fibro56", netlist="fibro56", genes=None, K=(0.6676, 0.2782), rho=5.26,
            workers=1, vb_samples=None, gibbs_iterations=None, gibbs_burn_in=None,
            truth_methods=(), passes=(8, 8, 1, 8),
        ),
        # The acceptance suite's reference regime.
        Workload(
            name="ref4k", netlist="classes8", genes=4000, K=(0.1, 0.3), rho=100.0,
            workers=1, vb_samples=None, gibbs_iterations=2000, gibbs_burn_in=500,
            truth_methods=("vb", "em", "gibbs"), passes=(2, 3, 1, 2),
        ),
        # Wide input on two worker threads; a short chain, see README.
        Workload(
            name="wide32k-par2", netlist="classes8", genes=32000, K=(0.1, 0.3), rho=100.0,
            workers=2, vb_samples=200, gibbs_iterations=100, gibbs_burn_in=0,
            truth_methods=("vb", "em"), passes=(2, 1, 1, 25),
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """One dataset of a run."""

    dataset: Path
    r: np.ndarray  # (V,) readings as generated
    d: np.ndarray  # (V, N) raw profiles as generated


def netlist_files(w: Workload) -> tuple[Path, list[Path], list[Path]]:
    base = NETLISTS / w.netlist
    return base / "netlist.txt", sorted(base.glob("fault*.txt")), sorted(base.glob("stim*.txt"))


def draw_readings(rng: np.random.Generator, d: np.ndarray, K, rho: float) -> np.ndarray:
    """One reading per profile row under the generative model."""
    mu = d[:, -1]
    D = d[:, :-1] - mu[:, None]
    beta = np.asarray(K) + rng.standard_normal(D.shape) @ np.linalg.cholesky(REFERENCE_COV).T
    return np.einsum("vd,vd->v", D, beta) + mu + rng.standard_normal(len(d)) / np.sqrt(rho)


def write_dataset(path: Path, r: np.ndarray, d: np.ndarray) -> None:
    header = "r," + ",".join(f"d_{q + 1}" for q in range(d.shape[1]))
    lines = [header] + [
        ",".join(repr(float(x)) for x in (ri, *di)) for ri, di in zip(r, d)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def setup(w: Workload, seed: int, workdir: Path) -> tuple[np.ndarray, list[Inputs]]:
    """Import the program, build the profile table and write the datasets.

    This is everything a run does before its first fit, so it is what
    setup_s times. Returns the profile table and one dataset per pass.
    """
    from tissuemix import cli

    workdir.mkdir(parents=True, exist_ok=True)
    netlist, faults, stimuli = netlist_files(w)
    profiles_csv = workdir / "profiles.csv"
    argv = ["profiles", "--netlist", str(netlist), "--out", str(profiles_csv)]
    argv += [a for f in faults for a in ("--fault", str(f))]
    argv += [a for s in stimuli for a in ("--stimulus", str(s))]
    with contextlib.redirect_stdout(sys.stderr):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"tissuemix profiles exited {rc}")
    table = np.stack([p.d for p in cli.read_profiles_csv(str(profiles_csv))])
    datasets = []
    for k in range(max(w.passes[:3])):
        rng = np.random.default_rng([seed, zlib.crc32(w.name.encode()), k])
        d = table if w.genes is None else table[rng.integers(0, len(table), w.genes)]
        r = draw_readings(rng, d, w.K, w.rho)
        path = workdir / f"dataset{k}.csv"
        write_dataset(path, r, d)
        datasets.append(Inputs(dataset=path, r=r, d=d))
    return table, datasets


def fit_argv(w: Workload, method: str, inputs: Inputs, seed: int, out: Path, serial: bool) -> list[str]:
    argv = ["fit", "--method", method, "--dataset", str(inputs.dataset), "--seed", str(seed)]
    if w.workers > 1 and not serial:
        argv += ["--parallel", "parallel", "--workers", str(w.workers)]
    if method == "vb":
        argv += ["--rel-tol", VB_REL_TOL, "--max-iter", VB_MAX_ITER]
        if w.vb_samples is not None:
            argv += ["--samples", str(w.vb_samples)]
    elif method == "em":
        argv += ["--rel-tol", EM_REL_TOL]
    else:
        if w.gibbs_iterations is not None:
            argv += ["--iterations", str(w.gibbs_iterations)]
        if w.gibbs_burn_in is not None:
            argv += ["--burn-in", str(w.gibbs_burn_in)]
    return argv + ["--out", str(out)]


def schedule(w: Workload, datasets: list[Inputs], seed: int, outdir: Path,
             once: bool = False, serial: bool = False):
    """A round as (step, argv) in run order.

    Pass k fits dataset k with the program seed seed + k into
    outdir/pass<k>/<method>; density reads the VB draws of pass j, the last
    pass up to k that ran VB, and writes outdir/pass<j>/density. With once,
    every step runs in one pass; serial runs the fits alone, on one thread.
    """
    passes = dict(zip(STEPS, (1,) * len(STEPS) if once else w.passes))
    for k in range(max(passes.values())):
        for method in ("vb", "em", "gibbs"):
            if k < passes[method]:
                out = outdir / f"pass{k}" / method
                yield method, fit_argv(w, method, datasets[k], seed + k, out, serial)
        if not serial and k < passes["density"]:
            src = outdir / f"pass{min(k, passes['vb'] - 1)}"
            yield "density", ["density", "--samples", str(src / "vb" / "samples.csv"),
                              "--out", str(src / "density")]
