"""In-memory span recorder that wraps the package's public functions.

``Tracer.install`` replaces every public function of every package module
with a timing wrapper, in every module namespace that holds it, so calls made
through names that one module imported from another (``from .linalg import
symmetric_eig_min``) are recorded too.  Nothing under ``src/`` changes; the
originals are put back by ``uninstall``.

A span is ``(name, start, end, parent, iteration)`` with ``name`` of the form
``<module>.<function>``.  Spans stay in memory until the run writes them out.
A span's self time is its duration minus the time its direct children cover;
calls are single-threaded, so children nest inside their parent.
"""

from __future__ import annotations

import functools
import os
import time
import types
from collections import defaultdict

MODULES = (
    "cli", "diagnostics", "experiments", "fileio", "linalg",
    "problems", "probopt", "sampling", "solver",
)

# linalg functions and the LAPACK factorization each one performs.
FACTORIZATIONS = {
    "linalg.symmetric_eig_min": "eigh",
    "linalg.symmetric_eigensystem": "eigh",
    "linalg.spectral_radius": "eigvals",
    "linalg.top_singular_triplet": "svd",
    "linalg.orthonormal_range_basis": "qr",
    "linalg.lu_solve": "lu",
    "linalg.is_invertible": "lu",
}


def _count_rays(tracer, args, result):
    tracer.count("problems.rays", result.shape[0])


def _count_operator(tracer, args, result):
    tracer.count("problems.operator_bytes", result.a.nbytes + result.v.nbytes)


def _count_mtx(tracer, args, result):
    tracer.count("fileio.mtx_bytes", os.path.getsize(args[0]))


def _count_run(tracer, args, result):
    tracer.last_p = args[1]
    tracer.count("solver.steps", result.logged_k[-1])
    tracer.count("solver.log_points", len(result.logged_k))


def _count_replicates(tracer, args, result):
    tracer.count("solver.replicate_steps", result.logged_k[-1] * result.final_x.shape[0])


def _count_probopt(tracer, args, result):
    tracer.count("probopt.iterations", len(result.objective_evals) - 1)
    tracer.count("probopt.degenerate_iterations", len(result.degenerate_iterations))


# Counts taken from a call's arguments and result, keyed by span name.
COUNTERS = {
    "problems.parallel_beam_matrix": _count_rays,
    "problems.ct_mismatch_pair": _count_operator,
    "problems.assemble_consistent": _count_operator,
    "problems.assemble_inconsistent": _count_operator,
    "problems.assemble_underdetermined": _count_operator,
    "problems.assemble_scaled_for_probopt": _count_operator,
    "fileio.write_matrix_market": _count_mtx,
    "solver.run": _count_run,
    "solver.run_replicates": _count_replicates,
    "probopt.optimize_probabilities": _count_probopt,
}


class Tracer:
    """Span and counter store for one traced run."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.iterations: list[int] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.iteration = -1
        self.last_p = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.iterations.append(self.iteration)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, name, value):
        self.counters[self.iteration][name] += value

    def wrap(self, name, fn):
        tracer = self
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                counter(tracer, args, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap the public functions of the package's modules everywhere they are bound."""
        package = self.package
        modules = [package] + [getattr(package, name) for name in MODULES]
        wrapped = {}
        for module in modules[1:]:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, value in vars(module).items():
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrapped[id(value)] = self.wrap(f"{short}.{attr}", value)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    self._patch(module, attr, wrapped[id(value)])
        sampler = package.sampling.DiscreteSampler
        self._patch(sampler, "__init__", self.wrap("sampling.DiscreteSampler", sampler.__init__))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the durations of direct children."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        selfs = list(durations)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                selfs[parent] -= durations[idx]
        return durations, selfs

    def write_csv(self, path):
        _, selfs = self.self_times()
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent,iteration,self_s\n")
            for idx, name in enumerate(self.names):
                fh.write(
                    f"{idx},{name},{self.starts[idx] - t0:.9f},{self.ends[idx] - t0:.9f},"
                    f"{self.parents[idx]},{self.iterations[idx]},{selfs[idx]:.9f}\n"
                )
