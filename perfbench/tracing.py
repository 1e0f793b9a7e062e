"""Span tracing for the benchmark's traced run, installed from outside the package.

``installed(tracer)`` wraps every public function of the ``opradius`` modules
(the layers) and the ``numpy.linalg`` LAPACK entry points beneath them (the
kernel layer). A function is wrapped under every name that binds it, so
``from .radii import numerical_radius`` in ``cli`` and ``extremal`` is traced
too. Each call records a span (name, start, end, parent, thread id); spans
opened on the ``extremal`` thread pool's workers attach to the open
``extremal.scaling_experiment`` span. Leaving the context restores every
original binding.

``layer_metrics(spans)`` reduces the spans of one repeat to the per-layer
metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import itertools
import math
import statistics
import threading
import time
from dataclasses import dataclass

import numpy as np

LAYERS = ("cli", "extremal", "radii", "linalg", "unitary", "bounds")
# cli.run is the body of cli.main; a span of its own would hide main's self time.
SKIPPED = {"cli.run"}
KERNELS = ("eigvalsh", "eigh", "inv", "solve", "eigvals")
POOL_SPAN = "extremal.scaling_experiment"
RADIUS_SPANS = ("radii.numerical_radius", "radii.rho_radius")
CERTIFICATES = ("extremal.check_symmetry", "extremal.check_norm",
                "extremal.check_real_parts", "extremal.certificate_31",
                "extremal.certificate_32")
# Metrics that count work; they repeat exactly from run to run.
EXACT_COUNTS = ("radii.numerical_radius.calls", "radii.support_evals",
                "radii.sphere_maximize.calls", "linalg.singular_values.calls",
                "linalg.inverse.calls", "linalg.polar.calls",
                "unitary.distance_to_unitaries.calls", "bounds.psi_rho_upper.calls",
                "kernel.eigvalsh.matrices", "kernel.eigh.matrices",
                "kernel.gflop_computed", "kernel.max_batch_mb")
# Square sizes the workloads solve: random_suite 2..8, paper_scaling 12..68,
# paper_verify 100.
SIZES = tuple(range(2, 9)) + tuple(range(12, 69, 8)) + (100,)

# Real flops per n x n matrix (Golub & Van Loan, Matrix Computations, 4th ed.),
# times 4 for complex input. Computed from shapes, not counted.
_FLOPS = {
    "eigvalsh": lambda n: 4.0 / 3.0 * n ** 3,
    "eigh": lambda n: 9.0 * n ** 3,
    "inv": lambda n: 2.0 * n ** 3,
    "solve": lambda n: 2.0 / 3.0 * n ** 3 + 2.0 * n ** 3,
    "eigvals": lambda n: 10.0 * n ** 3,
}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    info: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; thread safe under the interpreter lock.

    A call that raises records no span; the workloads raise nowhere. Every
    span of a radius function or kernel carries its annotation in `info`.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pool_parent: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, annotate=None):
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._pool_parent
            sid = next(self._ids)
            stack.append(sid)
            if name == POOL_SPAN:
                self._pool_parent = sid
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if name == POOL_SPAN:
                    self._pool_parent = None
            info = annotate(args, kwargs, result) if annotate else None
            self.spans.append(Span(sid, name, start, end, parent,
                                   threading.get_ident(), info))
            return result
        return traced


def _kernel_info(kernel: str):
    flops = _FLOPS[kernel]

    def annotate(args, kwargs, result):
        a = np.asarray(args[0])
        n = a.shape[-1]
        matrices = math.prod(a.shape[:-2])
        factor = 4.0 if np.iscomplexobj(a) else 1.0
        return {"n": n, "matrices": matrices, "bytes": a.nbytes,
                "flops": factor * flops(n) * matrices}
    return annotate


def _radius_info(fn):
    signature = inspect.signature(fn)

    def annotate(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"exact": bool(result.exact), "gap": float(result.tolerance),
                "tol": float(bound.arguments.get("tol", math.nan))}
    return annotate


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every public opradius function and LAPACK kernel through `tracer`."""
    package = importlib.import_module("opradius")
    modules = [importlib.import_module(f"opradius.{layer}") for layer in LAYERS]
    wrapped: dict[int, tuple[object, object]] = {}
    for layer, module in zip(LAYERS, modules):
        for attr in module.__all__:
            fn = getattr(module, attr)
            name = f"{layer}.{attr}"
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and name not in SKIPPED):
                annotate = _radius_info(fn) if name in RADIUS_SPANS else None
                wrapped[id(fn)] = (fn, tracer.wrap(name, fn, annotate))
    patches = []
    for module in [package, *modules]:
        for attr, value in list(vars(module).items()):
            entry = wrapped.get(id(value))
            if entry is not None and entry[0] is value:
                patches.append((module, attr, value))
                setattr(module, attr, entry[1])
    for kernel in KERNELS:
        fn = getattr(np.linalg, kernel)
        patches.append((np.linalg, kernel, fn))
        setattr(np.linalg, kernel, tracer.wrap(f"kernel.{kernel}", fn,
                                               _kernel_info(kernel)))
    try:
        yield tracer
    finally:
        for module, attr, value in reversed(patches):
            setattr(module, attr, value)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced repeat, as name -> (value, unit)."""
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def calls(name):
        return float(len(by_name.get(name, ())))

    def busy(*names):
        return float(sum(s.duration for name in names for s in by_name.get(name, ())))

    def self_time(name):
        total = 0.0
        for s in by_name.get(name, ()):
            kids = [(max(c.start, s.start), min(c.end, s.end))
                    for c in children.get(s.id, ())]
            total += s.duration - _covered([k for k in kids if k[1] > k[0]])
        return total

    def inside_numerical_radius(span):
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == "radii.numerical_radius":
                return True
        return False

    kernel_spans = [s for k in KERNELS for s in by_name.get(f"kernel.{k}", ())]
    support_evals = sum(s.info["matrices"] for s in kernel_spans
                        if s.name in ("kernel.eigvalsh", "kernel.eigh")
                        and inside_numerical_radius(s))
    ratios = [s.info["gap"] / s.info["tol"]
              for s in by_name.get("radii.numerical_radius", ())]
    # radius results handed to callers outside radii: rho_radius(rho=2)
    # returns its inner numerical_radius result, which is counted once
    results = [s for name in RADIUS_SPANS for s in by_name.get(name, ())
               if s.parent not in by_id or by_id[s.parent].name not in RADIUS_SPANS]
    pool = by_name.get(POOL_SPAN, ())
    pool_wall = sum(s.duration for s in pool)
    pool_children = sum(c.duration for s in pool for c in children.get(s.id, ()))

    def kernel_sum(kernel, key):
        return float(sum(s.info[key] for s in by_name.get(f"kernel.{kernel}", ())))

    metrics: dict[str, tuple[float, str]] = {
        "radii.numerical_radius.calls": (calls("radii.numerical_radius"), "count"),
        "radii.numerical_radius.s": (busy("radii.numerical_radius"), "s"),
        "radii.support_evals": (float(support_evals), "count"),
        "radii.gap_over_tol": (statistics.median(ratios) if ratios else 0.0, "ratio"),
        "radii.sphere_maximize.calls": (calls("radii.sphere_maximize"), "count"),
        "radii.sphere_maximize.s": (busy("radii.sphere_maximize"), "s"),
        "radii.exact_ratio": (sum(s.info["exact"] for s in results) / len(results)
                              if results else 0.0, "ratio"),
        "extremal.build.s": (busy("extremal.build"), "s"),
        "extremal.certificates.s": (busy(*CERTIFICATES), "s"),
        "extremal.scaling_experiment.self_s": (self_time(POOL_SPAN), "s"),
        "extremal.scaling_experiment.parallelism": (
            pool_children / pool_wall if pool_wall > 0 else 0.0, "ratio"),
    }
    for name in ("linalg.singular_values", "linalg.inverse", "linalg.polar",
                 "unitary.distance_to_unitaries", "bounds.psi_rho_upper"):
        metrics[f"{name}.calls"] = (calls(name), "count")
        metrics[f"{name}.s"] = (busy(name), "s")
    metrics["cli.random_test.self_s"] = (self_time("cli.random_test"), "s")
    metrics["cli.main.self_s"] = (self_time("cli.main"), "s")
    for kernel in ("eigvalsh", "eigh"):
        metrics[f"kernel.{kernel}.matrices"] = (kernel_sum(kernel, "matrices"), "count")
        metrics[f"kernel.{kernel}.s"] = (busy(f"kernel.{kernel}"), "s")
    per_size: dict[int, list[float]] = {}
    for s in by_name.get("kernel.eigvalsh", ()):
        acc = per_size.setdefault(s.info["n"], [0.0, 0.0])
        acc[0] += s.duration
        acc[1] += s.info["matrices"]
    for n in SIZES:
        seconds, count = per_size.get(n, (0.0, 0.0))
        metrics[f"kernel.eigvalsh.ms_per_matrix.n{n}"] = (
            1e3 * seconds / count if count else 0.0, "ms")
    metrics["kernel.gflop_computed"] = (
        # fsum: pool threads record spans in varying order, and a plain
        # float sum would then differ in its last bits between runs
        math.fsum(s.info["flops"] for s in kernel_spans) / 1e9,
        "GFLOP")
    metrics["kernel.max_batch_mb"] = (
        max((s.info["bytes"] for s in kernel_spans), default=0) / 1e6, "MB")
    return metrics

