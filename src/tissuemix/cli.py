"""Command-line surface: synth, profiles, fit, density, bench.

File formats
------------
Dataset CSV: header ``r,d_1,...,d_N``, one row per gene, UTF-8, LF line
endings, '.' decimal. A truth sidecar JSON (``<out>.truth.json``) records
the generating parameters and seed. Hyperparameters JSON mirrors the
HyperParams fields; an omitted file means defaults for the dataset's N.

Exit codes: 0 ok, 2 usage, 3 numeric failure, 4 I/O failure,
5 bench serial/parallel mismatch.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
import warnings
from statistics import median

import numpy as np

from . import analysis, boolnet, em, gibbs, linalg, model, vb
from .samplers import RngStream

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4
EXIT_BENCH_MISMATCH = 5

WORKERS_ENV = "TISSUEMIX_WORKERS"


class UsageError(ValueError):
    pass


# -- file formats ------------------------------------------------------------


def write_dataset_csv(path: str, ds: model.Dataset) -> None:
    raw = model.untransform(ds)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["r"] + [f"d_{q + 1}" for q in range(ds.n_networks)])
    for i in range(ds.V):
        writer.writerow([repr(float(ds.r[i]))] + [repr(float(x)) for x in raw[i]])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def read_dataset_csv(path: str) -> model.Dataset:
    with open(path, encoding="utf-8", newline="") as fh:
        header = next(csv.reader([fh.readline()]), None)
        if not header or header[0] != "r" or len(header) < 3:
            raise UsageError(f"{path}: expected header r,d_1,...,d_N")
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                body = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2)
            except ValueError as exc:
                # numpy's advice after a ';' is about its own API, not the file
                raise UsageError(f"{path}: {str(exc).split(';')[0]}") from None
    if body.shape[0] == 0:
        raise UsageError(f"{path}: no records")
    if body.shape[1] != len(header):
        raise UsageError(f"{path}: rows have {body.shape[1]} fields, expected {len(header)}")
    if not np.all(np.isfinite(body)):
        raise UsageError(f"{path}: non-finite reading or profile entry")
    return model.from_raw(body[:, 0], body[:, 1:])


def read_hyperparams(path: str | None, N: int) -> model.HyperParams:
    if path is None:
        return model.default_hyperparams(N)
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    try:
        return model.HyperParams(
            a0=raw["a0"],
            b0=raw["b0"],
            q0=raw["q0"],
            n0=raw["n0"],
            K0=np.asarray(raw["K0"], dtype=float),
            Lambda0=np.asarray(raw["Lambda0"], dtype=float),
        )
    except KeyError as exc:
        raise UsageError(f"{path}: missing hyperparameter {exc.args[0]!r}") from None


def write_profiles_csv(path: str, profiles) -> None:
    n = profiles[0].n_networks
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["gene"] + [f"d_{q + 1}" for q in range(n)])
    for i, p in enumerate(profiles):
        writer.writerow([p.gene or f"g{i + 1}"] + [repr(float(x)) for x in p.d])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def read_profiles_csv(path: str) -> list[model.ExpressionProfile]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "gene":
            raise UsageError(f"{path}: expected header gene,d_1,...,d_N")
        out = []
        for row in reader:
            if row:
                out.append(model.ExpressionProfile(np.array(row[1:], dtype=float), gene=row[0]))
    if not out:
        raise UsageError(f"{path}: no profiles")
    return out


def _write_csv(path: str, header: list[str], columns) -> None:
    """Write the header, then one row per index of the equal-length columns.

    Columns go through np.asarray(...).tolist(), so every value is written
    as a Python object: a float as its repr, which reads back exactly.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*(np.asarray(col).tolist() for col in columns)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- execution plumbing ------------------------------------------------------


def _plan(args) -> linalg.ExecPlan:
    workers = args.workers
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV, "1"))
    if args.parallel == "serial":
        workers = 1
    elif workers <= 1:
        workers = os.cpu_count() or 1
    return linalg.ExecPlan(workers=workers)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--parallel", choices=["serial", "parallel"], default="serial")
    p.add_argument("--workers", type=int, default=None, help=f"worker count (overrides ${WORKERS_ENV})")


def _parse_lambda(spec: str, dim: int) -> np.ndarray:
    if spec == "default":
        if dim == 2:
            return np.linalg.inv(model.REFERENCE_LAMBDA_INV)
        return np.linalg.inv(0.01 * np.eye(dim))
    with open(spec, encoding="utf-8") as fh:
        return np.asarray(json.load(fh), dtype=float)


# -- subcommands -------------------------------------------------------------


def cmd_synth(args) -> int:
    if args.genes <= 0:
        raise UsageError("--genes must be positive")
    true_k = np.array([float(x) for x in args.true_k.split(",")])
    N = len(true_k) + 1
    if args.networks is not None and args.networks != N:
        raise UsageError(f"--networks {args.networks} inconsistent with --true-k of length {len(true_k)}")
    lam = _parse_lambda(args.lam, N - 1)
    truth = model.ModelParams(K=true_k, Lam=lam, rho=args.rho)
    rng = RngStream(args.seed)
    if args.profiles == "random":
        profiles = model.random_profiles(rng, args.genes, N)
    else:
        profiles = read_profiles_csv(args.profiles)
        if len(profiles) < args.genes:
            profiles = [profiles[i % len(profiles)] for i in range(args.genes)]
        profiles = profiles[: args.genes]
    ds = model.synth_generate(rng, truth, profiles)
    write_dataset_csv(args.out, ds)
    _write_json(
        args.out + ".truth.json",
        {
            "K": true_k.tolist(),
            "full_weights": model.full_weights(true_k).tolist(),
            "rho": args.rho,
            "Lambda": lam.tolist(),
            "seed": args.seed,
            "V": args.genes,
            "N": N,
        },
    )
    print(f"wrote {args.out} (V={ds.V}, N={ds.n_networks})")
    return EXIT_OK


def cmd_profiles(args) -> int:
    with open(args.netlist, encoding="utf-8") as fh:
        net = boolnet.parse_netlist(fh.read())
    if not args.fault:
        raise UsageError("need at least one --fault file (one per network)")
    faults = []
    for path in args.fault:
        with open(path, encoding="utf-8") as fh:
            faults.append(boolnet.parse_fault(fh.read()))
    stimuli = []
    for path in args.stimulus:
        with open(path, encoding="utf-8") as fh:
            stimuli.append(boolnet.parse_stimulus(fh.read()))
    gene_map = {}
    if args.gene_map:
        with open(args.gene_map, encoding="utf-8") as fh:
            gene_map = json.load(fh)
    profiles = boolnet.profiles_for_ensemble(net, faults, stimuli, gene_map)
    write_profiles_csv(args.out, profiles)
    print(f"wrote {args.out} ({len(profiles)} profiles x {len(faults)} networks)")
    return EXIT_OK


def _fit_vb(ds, hp, args, plan):
    rng = RngStream(args.seed)
    t0 = time.perf_counter()
    state, trace = vb.vb_fit(ds, hp, max_iter=args.max_iter, rel_tol=args.rel_tol, plan=plan)
    wall = time.perf_counter() - t0
    samples = vb.vb_posterior_sample(rng, state, hp, ds.V, args.samples)
    report = vb.vb_summary(state, hp, ds.V)
    d = ds.dim
    files = {
        "trace.csv": (
            ["iteration", "elbo", "delta_k0k", "delta_rho", "delta_lam"],
            [trace.sweep, trace.elbo, trace.delta_k0k, trace.delta_rho, trace.delta_lam],
        ),
        "samples.csv": (
            [f"K{j + 1}" for j in range(d)]
            + ["rho"]
            + [f"Lam{i + 1}{j + 1}" for i in range(d) for j in range(d)],
            [*samples["K"].T, samples["rho"], *samples["Lambda"].reshape(-1, d * d).T],
        ),
    }
    estimates = {
        "K": state.k0k.tolist(),
        "full_weights": report["full_weights"]["mode_vector"],
        "rho": report["parameters"]["rho"]["mode"],
        "Lambda_mean": report["parameters"]["Lambda_mean"],
        "summary": report,
    }
    run = {
        "iterations": trace.sweeps,
        "rejected_steps": trace.rejected,
        "converged": trace.converged,
        "stop_reason": trace.stop_reason,
    }
    return estimates, wall, run, files


def _fit_em(ds, hp, args, plan):
    init = model.ModelParams(K=hp.K0, Lam=hp.Lambda0, rho=hp.a0 / hp.b0)
    t0 = time.perf_counter()
    params, trace = em.em_fit(ds, init, max_iter=args.max_iter, rel_tol=args.rel_tol, plan=plan)
    wall = time.perf_counter() - t0
    files = {
        "trace.csv": (
            ["iteration", "loglik"] + [f"K{j + 1}" for j in range(ds.dim)] + ["rho"],
            [np.arange(1, len(trace) + 1), trace.loglik, *trace.K.T, trace.rho],
        )
    }
    estimates = {
        "K": params.K.tolist(),
        "full_weights": model.full_weights(params.K).tolist(),
        "rho": params.rho,
        "Lambda": params.Lam.tolist(),
    }
    run = {
        "iterations": len(trace),
        "converged": trace.converged,
        "stop_reason": trace.stop_reason,
        "profile_classes": ds.classes.C,
    }
    return estimates, wall, run, files


def _fit_gibbs(ds, hp, args, plan):
    burn_in = args.burn_in
    if burn_in is None:
        burn_in = 2_000 if args.iterations > 2_000 else 0
    cfg = gibbs.ChainConfig(
        iterations=args.iterations, burn_in=burn_in, thin=args.thin, seed=args.seed
    )
    t0 = time.perf_counter()
    chain = gibbs.gibbs_run(RngStream(args.seed), ds, hp, cfg, plan=plan)
    wall = time.perf_counter() - t0
    d = ds.dim
    steps = np.arange(1, chain.K.shape[0] + 1)
    files = {
        "trace.csv": (
            ["iteration"] + [f"K{j + 1}" for j in range(d)] + ["rho"],
            [steps, *chain.K.T, chain.rho],
        ),
        "samples.csv": (
            ["iteration"]
            + [f"K{j + 1}" for j in range(d)]
            + ["rho"]
            + [f"Lam{i + 1}{j + 1}" for i in range(d) for j in range(d)],
            [steps, *chain.K.T, chain.rho, *chain.Lam.reshape(-1, d * d).T],
        ),
    }
    k_mean = chain.K.mean(axis=0)
    estimates = {
        "K": k_mean.tolist(),
        "full_weights": model.full_weights(k_mean).tolist(),
        "rho": float(chain.rho.mean()),
        "Lambda_mean": chain.Lam.mean(axis=0).tolist(),
    }
    if chain.K.shape[0] >= 100:
        estimates["diagnostics"] = gibbs.gibbs_diagnostics(chain)
    return estimates, wall, {"iterations": chain.config.iterations}, files


def _retain_freed_memory() -> None:
    """Have glibc keep freed blocks of up to 32 MB in the heap.

    By default glibc hands a freed block above its mmap threshold back to
    the kernel, and the threshold only rises after a block that large is
    freed. The per-step temporaries of EM and Gibbs at V=32000 (about
    1 MB each) are then faulted in afresh on every step: 100 Gibbs steps
    at V=32000 on two workers take about 116k minor page faults, against
    about 5k with these settings, which are the values glibc's own rule
    reaches once a 32 MB block has been freed. The setting is
    process-wide and lasts for the life of the process; other C libraries
    are left as they are.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def cmd_fit(args) -> int:
    if args.method == "vb" and args.samples < 1:
        raise UsageError("--samples must be >= 1")
    _retain_freed_memory()
    t_read = time.perf_counter()
    ds = read_dataset_csv(args.dataset)
    hp = read_hyperparams(args.hyperparams, ds.n_networks)
    plan = _plan(args)
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    runners = {"vb": _fit_vb, "em": _fit_em, "gibbs": _fit_gibbs}
    t_fit = time.perf_counter()
    estimates, wall, run, files = runners[args.method](ds, hp, args, plan)
    t_write = time.perf_counter()
    for name, (header, columns) in files.items():
        _write_csv(os.path.join(outdir, name), header, columns)
    t_end = time.perf_counter()
    report = {
        "method": args.method,
        "estimates": estimates,
        **run,
        "wall_clock_sec": wall,
        "timings": {"read_s": t_fit - t_read, "fit_s": t_write - t_fit, "write_s": t_end - t_write},
        "seed": args.seed,
        "config": {
            k: v
            for k, v in vars(args).items()
            if k not in ("func",) and not k.startswith("_")
        },
    }
    _write_json(os.path.join(outdir, "report.json"), report)
    print(f"{args.method}: full weights = {np.round(estimates['full_weights'], 4).tolist()} ({wall:.2f}s)")
    return EXIT_OK


def cmd_density(args) -> int:
    with open(args.samples, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = np.array([[float(x) for x in row] for row in reader if row])
    os.makedirs(args.out, exist_ok=True)
    k_cols = [i for i, name in enumerate(header) if name.startswith("K") and name[1:].isdigit()]
    rho_col = header.index("rho")
    K = rows[:, k_cols]
    w = np.column_stack([K, 1.0 - K.sum(axis=1)])
    modes = {}
    series = {f"w{j + 1}": w[:, j] for j in range(w.shape[1])}
    series["rho"] = rows[:, rho_col]
    for j in range(K.shape[1]):
        series[f"K{j + 1}"] = K[:, j]
    for name, x in series.items():
        kde = analysis.kde_fit(x, args.bandwidth)
        grid = analysis.kde_grid(kde, n=args.grid)
        _write_csv(os.path.join(args.out, f"density_{name}.csv"), ["x", "density"], [grid.x, grid.density])
        modes[name] = grid.mode
    _write_json(os.path.join(args.out, "modes.json"), modes)
    print(f"wrote densities for {sorted(series)} to {args.out}")
    return EXIT_OK


def _bench_once(ds, hp, args, workers: int) -> tuple[float, dict]:
    plan = linalg.ExecPlan(workers=workers)
    t0 = time.perf_counter()
    if args.method == "vb":
        state, _ = vb.vb_fit(
            ds, hp, max_iter=args.iterations, plan=plan, compute_elbo=False, param_tol=0.0
        )
        est = {"K": state.k0k, "rho": state.a_rho / state.b_rho}
    elif args.method == "em":
        init = model.ModelParams(K=hp.K0, Lam=hp.Lambda0, rho=hp.a0 / hp.b0)
        params, _ = em.em_fit(ds, init, max_iter=args.iterations, rel_tol=0.0, plan=plan)
        est = {"K": params.K, "rho": params.rho}
    else:
        cfg = gibbs.ChainConfig(iterations=args.iterations, burn_in=0, thin=1, seed=args.seed)
        chain = gibbs.gibbs_run(RngStream(args.seed), ds, hp, cfg, plan=plan)
        est = {"K": chain.K.mean(axis=0), "rho": float(chain.rho.mean())}
    return time.perf_counter() - t0, est


def _agree(a: dict, b: dict, tol: float = 1e-8) -> bool:
    for key in a:
        x, y = np.asarray(a[key], dtype=float), np.asarray(b[key], dtype=float)
        denom = np.maximum(np.abs(x), 1e-300)
        if np.any(np.abs(x - y) / denom > tol):
            return False
    return True


def cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    modes = args.modes.split(",")
    for m in modes:
        if m not in ("serial", "parallel"):
            raise UsageError(f"unknown mode {m!r}")
    workers_parallel = args.workers or int(os.environ.get(WORKERS_ENV, "0")) or (os.cpu_count() or 1)
    hp = model.default_hyperparams(3)
    lam = np.linalg.inv(model.REFERENCE_LAMBDA_INV)
    truth = model.ModelParams(K=np.array([0.1, 0.3]), Lam=lam, rho=100.0)
    rows = []
    for size in sizes:
        rng = RngStream(args.seed)
        ds = model.synth_generate(rng, truth, model.random_profiles(rng, size, 3))
        results: dict[str, tuple[float, dict]] = {}
        for mode in modes:
            workers = 1 if mode == "serial" else workers_parallel
            times = []
            est = None
            _bench_once(ds, hp, args, workers)  # warm-up discarded
            for _ in range(args.reps):
                t, est = _bench_once(ds, hp, args, workers)
                times.append(t)
            results[mode] = (median(times), est)
        if "serial" in results and "parallel" in results:
            if not _agree(results["serial"][1], results["parallel"][1]):
                print(f"size {size}: serial and parallel estimates disagree beyond 1e-8", file=sys.stderr)
                return EXIT_BENCH_MISMATCH
        for mode in modes:
            t, _ = results[mode]
            speedup = results["serial"][0] / t if "serial" in results and t > 0 else float("nan")
            rows.append([size, mode, t, speedup])
    _write_csv(args.out, ["size", "mode", "seconds", "speedup_vs_serial"], list(zip(*rows)))
    for size, mode, t, s in rows:
        print(f"{args.method} V={size} {mode}: {t:.3f}s (speedup {s:.2f})")
    return EXIT_OK


# -- entry point -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tissuemix", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic dataset CSV + truth sidecar")
    sp.add_argument("--genes", type=int, required=True)
    sp.add_argument("--networks", type=int, default=None)
    sp.add_argument("--true-k", required=True, help="comma-separated first N-1 weights")
    sp.add_argument("--rho", type=float, default=100.0)
    sp.add_argument("--lambda", dest="lam", default="default", help="'default' or JSON matrix file")
    sp.add_argument("--profiles", default="random", help="'random' or a profiles CSV")
    sp.add_argument("--out", required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_synth)

    pp = sub.add_parser("profiles", help="expression profiles from a netlist + faults + stimuli")
    pp.add_argument("--netlist", required=True)
    pp.add_argument("--fault", action="append", default=[], help="fault file, one per network")
    pp.add_argument("--stimulus", action="append", default=[], required=False)
    pp.add_argument("--gene-map", default=None, help="JSON output->gene map")
    pp.add_argument("--out", required=True)
    _add_common(pp)
    pp.set_defaults(func=cmd_profiles)

    fp = sub.add_parser("fit", help="fit a dataset with vb, gibbs, or em")
    fp.add_argument("--method", choices=["vb", "gibbs", "em"], required=True)
    fp.add_argument("--dataset", required=True)
    fp.add_argument("--hyperparams", default=None)
    fp.add_argument("--out", required=True, help="output directory")
    fp.add_argument("--max-iter", type=int, default=300)
    fp.add_argument("--rel-tol", type=float, default=1e-8)
    fp.add_argument("--samples", type=int, default=10_000, help="posterior draws (vb)")
    fp.add_argument("--iterations", type=int, default=10_000, help="chain length (gibbs)")
    fp.add_argument("--burn-in", type=int, default=None, help="default: 2000, or 0 for short chains")
    fp.add_argument("--thin", type=int, default=1)
    _add_common(fp)
    fp.set_defaults(func=cmd_fit)

    dp = sub.add_parser("density", help="KDE marginals + modes from a samples CSV")
    dp.add_argument("--samples", required=True)
    dp.add_argument("--out", required=True, help="output directory")
    dp.add_argument("--bandwidth", type=float, default=None)
    dp.add_argument("--grid", type=int, default=512)
    _add_common(dp)
    dp.set_defaults(func=cmd_density)

    bp = sub.add_parser("bench", help="serial vs parallel wall-clock sweep")
    bp.add_argument("--sizes", default="4000,5000,6000,7000,8000")
    bp.add_argument("--method", choices=["vb", "gibbs", "em"], default="vb")
    bp.add_argument("--iterations", type=int, default=50)
    bp.add_argument("--modes", default="serial,parallel")
    bp.add_argument("--reps", type=int, default=5)
    bp.add_argument("--out", default="bench.csv")
    _add_common(bp)
    bp.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except boolnet.NetlistError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (linalg.NumericError, linalg.BatchItemError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
