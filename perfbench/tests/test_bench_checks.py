"""Each benchmark check passes on real artifacts and rejects a corrupted one.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

The artifacts come from the program itself on a small dataset built the
way the benchmark builds its inputs; each test corrupts one copy.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import workloads  # noqa: E402
from tissuemix import cli  # noqa: E402

SMALL = replace(
    workloads.WORKLOADS["ref4k"], name="small", genes=300, vb_samples=200,
    gibbs_iterations=150, gibbs_burn_in=50, passes=(1, 1, 1, 1),
)
SEED = 5


@pytest.fixture(scope="module")
def made(tmp_path_factory):
    """Inputs and one round of artifacts for SMALL."""
    root = tmp_path_factory.mktemp("made")
    with contextlib.redirect_stderr(io.StringIO()):
        table, (inputs,) = workloads.setup(SMALL, SEED, root / "inputs")
    with contextlib.redirect_stdout(io.StringIO()):
        for _, argv in workloads.schedule(SMALL, [inputs], SEED, root / "round"):
            assert cli.main(argv) == 0
    return table, inputs, root / "round" / "pass0"


@pytest.fixture
def art(made, tmp_path):
    """A private copy of the round's artifacts."""
    _, inputs, outdir = made
    shutil.copytree(outdir, tmp_path / "round")
    return inputs, tmp_path / "round"


def edit_column(path: Path, name: str, fn) -> None:
    """Rewrite one CSV column through fn(values) -> values."""
    header, data = checks.read_table(path)
    j = header.index(name)
    data[:, j] = fn(data[:, j].copy())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([[repr(float(x)) for x in row] for row in data])


def edit_report(outdir: Path, fn) -> None:
    report = checks.load_report(outdir)
    fn(report)
    (outdir / "report.json").write_text(json.dumps(report), encoding="utf-8")


def fit_weights(outdir: Path) -> dict:
    return {m: checks.load_report(outdir / m)["estimates"]["full_weights"] for m in ("vb", "em", "gibbs")}


def test_untouched_artifacts_pass(made):
    table, inputs, outdir = made
    netlist, faults, stimuli = workloads.netlist_files(SMALL)
    assert checks.profiles(table, netlist, faults, stimuli) == []
    assert checks.dataset(cli.read_dataset_csv(str(inputs.dataset)), inputs.r, inputs.d) == []
    assert checks.vb(outdir / "vb", len(inputs.r)) == []
    assert checks.em(outdir / "em", inputs.r, inputs.d) == []
    assert checks.gibbs(outdir / "gibbs", SMALL.kept_draws) == []
    assert checks.density(outdir / "density") == []
    se = checks.weight_se(inputs.d, SMALL.rho)
    assert checks.weights_near_truth(fit_weights(outdir), SMALL.full_weights, se) == []
    gibbs_k = checks.k_draws(outdir / "gibbs" / "samples.csv")
    w = fit_weights(outdir)
    assert checks.weights_agree({"vb": w["vb"], "em": w["em"]}, gibbs_k, SMALL.full_weights) == []
    est = {m: checks.load_report(outdir / m)["estimates"] for m in ("vb", "em", "gibbs")}
    assert checks.identical_estimates(est, json.loads(json.dumps(est))) == []


def test_profiles_rejects_a_flipped_bit_and_a_missing_class(made):
    table, _, _ = made
    netlist, faults, stimuli = workloads.netlist_files(SMALL)
    flipped = table.copy()
    flipped[3, 1] = 1.0 - flipped[3, 1]
    assert checks.profiles(flipped, netlist, faults, stimuli)
    keep = [i for i, row in enumerate(table.tolist()) if row != [0.0, 1.0, 1.0]]
    failures = checks.profiles(table[keep], netlist, faults, stimuli)
    assert any("missing" in f for f in failures)


def test_dataset_rejects_a_changed_reading(made, tmp_path):
    _, inputs, _ = made
    text = inputs.dataset.read_text(encoding="utf-8").splitlines()
    r0 = float(text[1].split(",")[0])
    text[1] = ",".join([repr(float(np.nextafter(r0, np.inf)))] + text[1].split(",")[1:])
    path = tmp_path / "dataset.csv"
    path.write_text("\n".join(text) + "\n", encoding="utf-8")
    assert checks.dataset(cli.read_dataset_csv(str(path)), inputs.r, inputs.d)


def test_em_rejects_a_decrease_and_a_wrong_estimate(art):
    inputs, outdir = art
    em_dir = outdir / "em"
    shutil.copytree(em_dir, outdir / "em2")
    edit_column(em_dir / "trace.csv", "loglik", lambda ll: np.r_[ll[:-1], ll[-2] - 1e-6 * abs(ll[-2])])
    assert any("decreased" in f for f in checks.em(em_dir, inputs.r, inputs.d))
    edit_report(outdir / "em2", lambda rep: rep["estimates"].update(rho=rep["estimates"]["rho"] * 1.001))
    assert any("estimates give" in f for f in checks.em(outdir / "em2", inputs.r, inputs.d))


@pytest.mark.parametrize("corruption", ["decrease", "unconverged", "draws"])
def test_vb_rejects(art, corruption):
    inputs, outdir = art
    vb_dir = outdir / "vb"
    if corruption == "decrease":
        edit_column(vb_dir / "trace.csv", "elbo", lambda e: np.r_[e[:-1], e[-2] - 1e-6 * abs(e[-2])])
    elif corruption == "unconverged":
        edit_report(vb_dir, lambda rep: rep.update(converged=False, stop_reason="max_iter"))
    else:
        edit_column(vb_dir / "samples.csv", "Lam11", lambda x: x * 1.05)
    assert checks.vb(vb_dir, len(inputs.r))


@pytest.mark.parametrize("corruption", ["missing", "asymmetric", "indefinite", "rho"])
def test_gibbs_rejects(art, corruption):
    _, outdir = art
    path = outdir / "gibbs" / "samples.csv"
    if corruption == "missing":
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    elif corruption == "asymmetric":
        edit_column(path, "Lam12", lambda x: np.r_[x[:-1], x[-1] * 1.001])
    elif corruption == "indefinite":
        edit_column(path, "Lam12", lambda x: np.r_[x[:-1], 1e9])
        edit_column(path, "Lam21", lambda x: np.r_[x[:-1], 1e9])
    else:
        edit_column(path, "rho", lambda x: np.r_[x[:-1], -x[-1]])
    assert checks.gibbs(outdir / "gibbs", SMALL.kept_draws)


def test_weights_near_truth_rejects_a_shift(made):
    _, inputs, outdir = made
    se = checks.weight_se(inputs.d, SMALL.rho)
    weights = fit_weights(outdir)
    weights["em"] = (np.array(weights["em"]) + 7 * se * np.array([1, -1, 0])).tolist()
    assert checks.weights_near_truth(weights, SMALL.full_weights, se)


def test_weights_agree_rejects_an_outlier_and_a_far_truth(made):
    _, _, outdir = made
    gibbs_k = checks.k_draws(outdir / "gibbs" / "samples.csv")
    w = fit_weights(outdir)
    sd = np.column_stack([gibbs_k, 1 - gibbs_k.sum(axis=1)]).std(axis=0, ddof=1)
    far = (np.array(w["vb"]) + 4 * sd * np.array([1, 0, -1])).tolist()
    assert checks.weights_agree({"vb": far, "em": w["em"]}, gibbs_k, SMALL.full_weights)
    truth = SMALL.full_weights + 10 * sd * np.array([1, -1, 0])
    assert checks.weights_agree({"vb": w["vb"], "em": w["em"]}, gibbs_k, truth)


@pytest.mark.parametrize("corruption", ["mass", "mode"])
def test_density_rejects(art, corruption):
    _, outdir = art
    den = outdir / "density"
    if corruption == "mass":
        edit_column(den / "density_w1.csv", "density", lambda y: y * 1.01)
    else:
        modes = json.loads((den / "modes.json").read_text(encoding="utf-8"))
        _, grid = checks.read_table(den / "density_rho.csv")
        modes["rho"] += 2.5 * (grid[1, 0] - grid[0, 0])
        (den / "modes.json").write_text(json.dumps(modes), encoding="utf-8")
    assert checks.density(den)


def test_identical_estimates_rejects_one_ulp(made):
    _, _, outdir = made
    est = {m: checks.load_report(outdir / m)["estimates"] for m in ("vb", "em", "gibbs")}
    other = json.loads(json.dumps(est))
    other["em"]["rho"] = float(np.nextafter(other["em"]["rho"], np.inf))
    assert checks.identical_estimates(est, other)
