#!/usr/bin/env python3
"""Benchmark of tissuemix: per-method `tissuemix fit` times on three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ref4k --seed 1 --seconds 5 --trace 0

The process is one workload run. It times the set-up in fresh child
processes, builds its inputs (see workloads.py), then runs whole rounds of
`tissuemix fit --method vb|em|gibbs` and `tissuemix density`, called
in-process through `cli.main`, until --seconds have passed (at least one
round). Every round's artifacts are checked (see checks.py). The last
line of standard output is the result as JSON: with --trace 0 the
end-to-end metrics, medians over the rounds; with --trace 1 one untraced
round and one traced round, whose spans give the per-layer metrics and
whose extra wall time is the tracing overhead.

Exits 2 without a result when the checkout holds no tissuemix sources,
and 1 when a command cannot run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import checks
import workloads
from tracer import CHUNK, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / "runs"
SETUP_PROBES = 5  # fresh processes timed for setup_s; the median is reported

END_TO_END = {
    "setup_s": "s",
    "vb_fit_s": "s",
    "em_fit_s": "s",
    "gibbs_fit_s": "s",
    "density_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, how the traced round gives it).
# "busy": summed span time of the layer function; "calls": span count;
# "count": a work counter; "self": span time not covered by child spans;
# "report": a figure the program wrote to report.json.
PER_LAYER = {
    "samplers.normals.count": ("count", "count"),
    "samplers.normals.s": ("s", "busy"),
    "samplers.uniforms.count": ("count", "count"),
    "samplers.uniforms.s": ("s", "busy"),
    "samplers.sample_wishart.calls": ("count", "calls"),
    "samplers.sample_wishart.s": ("s", "busy"),
    "samplers.sample_gamma.s": ("s", "busy"),
    "samplers.sample_mvn.s": ("s", "busy"),
    "vb.vb_fit.s": ("s", "busy"),
    "vb.vb_step.calls": ("count", "calls"),
    "vb.vb_step.s": ("s", "busy"),
    "vb.vb_elbo.calls": ("count", "calls"),
    "vb.vb_elbo.s": ("s", "busy"),
    "vb.sweeps": ("count", "report"),
    "vb.rejected": ("count", "report"),
    "vb.vb_posterior_sample.s": ("s", "busy"),
    "em.em_fit.s": ("s", "busy"),
    "em.em_step.calls": ("count", "calls"),
    "em.em_step.s": ("s", "busy"),
    "em.iterations": ("count", "report"),
    "gibbs.gibbs_run.s": ("s", "busy"),
    "gibbs.gibbs_step.calls": ("count", "calls"),
    "gibbs.gibbs_step.s": ("s", "busy"),
    "gibbs.gibbs_diagnostics.s": ("s", "busy"),
    "gibbs.ess_k_min": ("count", "report"),
    "gibbs.ess_rho": ("count", "report"),
    "linalg.inverse_batched.calls": ("count", "calls"),
    "linalg.inverse_batched.items": ("count", "count"),
    "linalg.inverse_batched.s": ("s", "busy"),
    "linalg.cholesky_batched.calls": ("count", "calls"),
    "linalg.cholesky_batched.s": ("s", "busy"),
    "linalg.gemm_batched.s": ("s", "busy"),
    "linalg.reduce_sum.calls": ("count", "calls"),
    "linalg.reduce_sum.s": ("s", "busy"),
    "linalg.spd_jitter_retry.retries": ("count", "count"),
    "linalg.ExecPlan.map.calls": ("count", "calls"),
    "linalg.ExecPlan.map.s": ("s", "busy"),
    "linalg.ExecPlan.map.chunk_busy_s": ("s", "busy"),
    "model.transform.s": ("s", "busy"),
    "model.marginal_loglik.calls": ("count", "calls"),
    "model.marginal_loglik.s": ("s", "busy"),
    "analysis.summarize.s": ("s", "busy"),
    "analysis.kde_density.calls": ("count", "calls"),
    "analysis.kde_density.s": ("s", "busy"),
    "boolnet.parse_netlist.s": ("s", "busy"),
    "boolnet.profiles_for_ensemble.s": ("s", "busy"),
    "boolnet.evaluate.calls": ("count", "calls"),
    "cli.read_dataset_csv.s": ("s", "busy"),
    "cli.read_profiles_csv.s": ("s", "busy"),
    "cli.fit.self_s": ("s", "self"),
    "cli.density.self_s": ("s", "self"),
    "trace.overhead_s": ("s", "overhead"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=5.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def probe_setup(args, workdir: Path) -> list[float]:
    """Time from the start of a fresh process until its inputs are built,
    as in a run before its first fit. The child reports when it is done on
    the system-wide monotonic clock."""
    times = []
    for k in range(SETUP_PROBES):
        argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--setup-probe", str(workdir / f"probe{k}")]
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120)
        times.append(float(done.stdout.split()[-1]) - start)
    return times


class Run:
    """One workload run: its datasets, the commands it ran and what failed."""

    def __init__(self, w, seed: int, datasets):
        self.w, self.seed, self.datasets = w, seed, datasets
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0

    def round(self, outdir: Path, once: bool = False, serial: bool = False) -> dict[str, list[float]]:
        """Run one round (see workloads.schedule); the wall time of every
        command, by step."""
        times: dict[str, list[float]] = {}
        for step, argv in workloads.schedule(self.w, self.datasets, self.seed, outdir, once, serial):
            times.setdefault(step, []).append(self.command(argv))
        return times

    def command(self, argv: list[str]) -> float:
        from tissuemix import cli

        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            rc = cli.main(argv)
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            self.failures.append(f"tissuemix {' '.join(argv)} exited {rc}")
        return elapsed

    def check(self, outdir: Path) -> None:
        """Check what each pass of the round left in outdir/pass<k>."""
        w = self.w
        for k, inputs in enumerate(self.datasets):
            passdir = outdir / f"pass{k}"
            ran = [m for m in ("vb", "em", "gibbs", "density") if (passdir / m).is_dir()]
            if "vb" in ran:
                self.failures += checks.vb(passdir / "vb", len(inputs.r))
            if "em" in ran:
                self.failures += checks.em(passdir / "em", inputs.r, inputs.d)
            if "gibbs" in ran:
                self.failures += checks.gibbs(passdir / "gibbs", w.kept_draws)
            if "density" in ran:
                self.failures += checks.density(passdir / "density")
            weights = {m: checks.load_report(passdir / m)["estimates"]["full_weights"]
                       for m in ran if m != "density"}
            if w.truth_methods:
                se = checks.weight_se(inputs.d, w.rho)
                self.failures += checks.weights_near_truth(
                    {m: v for m, v in weights.items() if m in w.truth_methods}, w.full_weights, se)
            elif "gibbs" in ran:
                gibbs_k = checks.k_draws(passdir / "gibbs" / "samples.csv")
                self.failures += checks.weights_agree(
                    {m: v for m, v in weights.items() if m != "gibbs"}, gibbs_k, w.full_weights)


def layer_metrics(tracer, outdir: Path, overhead: float) -> dict:
    busy, calls, counts = tracer.busy(), tracer.calls(), tracer.counts
    vb_report = checks.load_report(outdir / "pass0" / "vb")
    diag = checks.load_report(outdir / "pass0" / "gibbs")["estimates"]["diagnostics"]
    reports = {
        "vb.sweeps": vb_report["iterations"],
        "vb.rejected": vb_report["rejected_steps"],
        "em.iterations": checks.load_report(outdir / "pass0" / "em")["iterations"],
        "gibbs.ess_k_min": min(v["ess"] for k, v in diag.items() if k.startswith("K")),
        "gibbs.ess_rho": diag["rho"]["ess"],
    }
    out = {}
    for name, (unit, kind) in PER_LAYER.items():
        span = name.rsplit(".", 1)[0]
        if kind == "busy":
            value = busy.get(CHUNK if name.endswith("chunk_busy_s") else span, 0.0)
        elif kind == "calls":
            value = calls.get(span, 0)
        elif kind == "count":
            value = counts.get(name, 0)
        elif kind == "self":
            value = tracer.self_time(span)
        elif kind == "report":
            value = reports[name]
        else:
            value = overhead
        if not math.isfinite(value):
            raise ValueError(f"{name} is {value}")
        out[name] = {"value": value, "unit": unit}
    return out


def run(args, workdir: Path) -> dict:
    w = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    setup_times = [] if tracer else probe_setup(args, workdir)
    with tracer or contextlib.nullcontext():
        table, datasets = workloads.setup(w, args.seed, workdir / "inputs")
    from tissuemix import cli

    bench = Run(w, args.seed, datasets)
    netlist, faults, stimuli = workloads.netlist_files(w)
    bench.failures += checks.profiles(table, netlist, faults, stimuli)
    for inputs in datasets:
        bench.failures += checks.dataset(cli.read_dataset_csv(str(inputs.dataset)), inputs.r, inputs.d)

    rounds = []
    if tracer:
        plain_dir, outdir = workdir / "plain", workdir / "traced"
        plain = bench.round(plain_dir, once=True)
        bench.check(plain_dir)
        with tracer:
            traced = bench.round(outdir, once=True)
        bench.check(outdir)
    else:
        outdir = workdir / "round"
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            rounds.append(bench.round(outdir))
            bench.check(outdir)

    if w.workers > 1:
        # Outside the timed rounds: the same fits on one thread must give
        # the same estimates bit for bit.
        serial_dir = workdir / "serial"
        bench.round(serial_dir, once=True, serial=True)
        bench.failures += checks.identical_estimates(
            *({m: checks.load_report(d / "pass0" / m)["estimates"] for m in ("vb", "em", "gibbs")}
              for d in (outdir, serial_dir))
        )

    if tracer:
        overhead = sum(map(sum, traced.values())) - sum(map(sum, plain.values()))
        metrics = layer_metrics(tracer, outdir, overhead)
        RUNS.mkdir(exist_ok=True)
        tracer.write(RUNS / f"{workdir.name}.spans.csv.gz")
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": median(setup_times),
            **{f"{step}_fit_s": median(t for r in rounds for t in r[step]) for step in ("vb", "em", "gibbs")},
            "density_s": median(t for r in rounds for t in r["density"]),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    for failure in bench.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    return {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tissuemix" / "cli.py").is_file():
        print(f"perfbench: no tissuemix sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workloads.setup(workloads.WORKLOADS[args.workload], args.seed, Path(args.setup_probe))
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0
    workdir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
