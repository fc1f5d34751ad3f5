"""Spans and counts at the tissuemix layer boundaries, from outside the program.

Tracer.install() replaces the public functions of each module with
wrappers, at every module attribute through which the program calls them
(a function imported by name, such as ``gibbs.sample_wishart``, is
wrapped there as well as in ``samplers``), and uninstall() puts the
originals back. Each wrapped call keeps a span: name, start, end and the
index of its parent span. A chunk that ExecPlan.map hands to a worker
thread is a span whose parent is the map call. Spans and counts stay in
memory until the run writes them out.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# (module, attribute) -> span name. Methods are given as "Class.method".
WRAPPED = {
    ("samplers", "RngStream.normals"): "samplers.normals",
    ("samplers", "RngStreamSet.normals"): "samplers.normals",
    ("samplers", "RngStream.uniforms"): "samplers.uniforms",
    ("samplers", "sample_wishart"): "samplers.sample_wishart",
    ("gibbs", "sample_wishart"): "samplers.sample_wishart",
    ("samplers", "sample_gamma"): "samplers.sample_gamma",
    ("gibbs", "sample_gamma"): "samplers.sample_gamma",
    ("vb", "sample_gamma"): "samplers.sample_gamma",
    ("samplers", "sample_mvn"): "samplers.sample_mvn",
    ("gibbs", "sample_mvn"): "samplers.sample_mvn",
    ("vb", "vb_fit"): "vb.vb_fit",
    ("vb", "vb_step"): "vb.vb_step",
    ("vb", "vb_elbo"): "vb.vb_elbo",
    ("vb", "vb_posterior_sample"): "vb.vb_posterior_sample",
    ("em", "em_fit"): "em.em_fit",
    ("em", "em_step"): "em.em_step",
    ("gibbs", "gibbs_run"): "gibbs.gibbs_run",
    ("gibbs", "gibbs_step"): "gibbs.gibbs_step",
    ("gibbs", "gibbs_diagnostics"): "gibbs.gibbs_diagnostics",
    ("linalg", "inverse_batched"): "linalg.inverse_batched",
    ("linalg", "cholesky_batched"): "linalg.cholesky_batched",
    ("linalg", "gemm_batched"): "linalg.gemm_batched",
    ("linalg", "reduce_sum"): "linalg.reduce_sum",
    ("linalg", "spd_jitter_retry"): "linalg.spd_jitter_retry",
    ("linalg", "ExecPlan.map"): "linalg.ExecPlan.map",
    ("model", "transform"): "model.transform",
    ("model", "marginal_loglik"): "model.marginal_loglik",
    ("em", "marginal_loglik"): "model.marginal_loglik",
    ("analysis", "summarize"): "analysis.summarize",
    ("analysis", "kde_density"): "analysis.kde_density",
    ("boolnet", "parse_netlist"): "boolnet.parse_netlist",
    ("boolnet", "profiles_for_ensemble"): "boolnet.profiles_for_ensemble",
    ("boolnet", "evaluate"): "boolnet.evaluate",
    ("cli", "read_dataset_csv"): "cli.read_dataset_csv",
    ("cli", "read_profiles_csv"): "cli.read_profiles_csv",
    ("cli", "cmd_fit"): "cli.fit",
    ("cli", "cmd_density"): "cli.density",
}

CHUNK = "linalg.ExecPlan.map.chunk"


def _items(name, args, kwargs) -> dict[str, int]:
    """Work counts a call adds, beyond the call itself."""
    if name in ("samplers.normals", "samplers.uniforms"):
        per_stream = args[1] if len(args) > 1 else next(iter(kwargs.values()))
        streams = len(getattr(args[0], "stream_ids", (0,)))
        return {f"{name}.count": int(per_stream) * streams}
    if name == "linalg.inverse_batched":
        a = args[0] if args else kwargs["A"]
        return {f"{name}.items": a.shape[0] if getattr(a, "ndim", 0) == 3 else 1}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, thread id)
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, parent: int | None = None) -> tuple[int, int]:
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else -1
        with self._lock:
            idx = len(self.spans)
            self.spans.append(None)
        stack.append(idx)
        return idx, parent

    def _exit(self, idx: int, name: str, t0: float, parent: int) -> None:
        t1 = perf_counter()
        self._stack().pop()
        self.spans[idx] = (name, t0, t1, parent, threading.get_ident())

    def _count(self, counts: dict[str, int]) -> None:
        with self._lock:
            self.counts.update(counts)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, parent = self._enter()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx, name, t0, parent)
            extra = _items(name, args, kwargs)
            if extra:
                self._count(extra)
            return result

        return traced

    def wrap_spd_retry(self, name: str, fn):
        """Count the op calls after the first one: each is a jitter retry."""
        inner = self.wrap(name, fn)

        def traced(op, A, context=""):
            calls = 0

            def counted(x):
                nonlocal calls
                calls += 1
                return op(x)

            try:
                return inner(counted, A, context)
            finally:
                self._count({f"{name}.retries": max(calls - 1, 0)})

        return functools.wraps(fn)(traced)

    def wrap_map(self, name: str, fn):
        """ExecPlan.map, with one child span per chunk in whichever thread runs it."""
        tracer = self

        def traced(plan, chunk_fn, n):
            map_idx, parent = tracer._enter()
            t0 = perf_counter()

            def chunk(lo, hi):
                idx, _ = tracer._enter(parent=map_idx)
                c0 = perf_counter()
                try:
                    return chunk_fn(lo, hi)
                finally:
                    tracer._exit(idx, CHUNK, c0, map_idx)

            try:
                return fn(plan, chunk, n)
            finally:
                tracer._exit(map_idx, name, t0, parent)

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        # Import every module before wrapping any: a module imported later
        # would bind the wrapper, not the function, to a name it imports.
        modules = {m: importlib.import_module(f"tissuemix.{m}") for m, _ in WRAPPED}
        for (module_name, attr), name in WRAPPED.items():
            module = modules[module_name]
            owner, _, leaf = attr.rpartition(".")
            target = getattr(module, owner) if owner else module
            original = getattr(target, leaf)
            if name == "linalg.ExecPlan.map":
                wrapped = self.wrap_map(name, original)
            elif name == "linalg.spd_jitter_retry":
                wrapped = self.wrap_spd_retry(name, original)
            else:
                wrapped = self.wrap(name, original)
            self._saved.append((target, leaf, original))
            setattr(target, leaf, wrapped)

    def uninstall(self) -> None:
        for target, leaf, original in reversed(self._saved):
            setattr(target, leaf, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- summaries -----------------------------------------------------------

    def busy(self) -> dict[str, float]:
        """Per span name: summed duration of the calls not nested in a call
        of the same name (so a recursive or re-entrant call counts once)."""
        out: dict[str, float] = defaultdict(float)
        for name, t0, t1, parent, _ in self.spans:
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                out[name] += t1 - t0
        return out

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def self_time(self, name: str) -> float:
        """Summed duration of the spans named `name`, minus the part of each
        that its child spans cover."""
        children = defaultdict(list)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0 and self.spans[parent][0] == name:
                children[parent].append((t0, t1))
        total = 0.0
        for idx, (name_s, t0, t1, _, _) in enumerate(self.spans):
            if name_s != name:
                continue
            covered, end = 0.0, t0
            for c0, c1 in sorted(children[idx]):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            total += (t1 - t0) - covered
        return total

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["index", "name", "start", "end", "parent", "thread"])
            for idx, (name, t0, t1, parent, thread) in enumerate(self.spans):
                writer.writerow([idx, name, repr(t0), repr(t1), parent, thread])
