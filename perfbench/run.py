"""Benchmark of the opradius paper runs, driven in-process through opradius.cli.

    python3 perfbench/run.py                      # every workload, every metric
    python3 perfbench/run.py --workload paper_verify --seed 3 --seconds 30 --trace 0

One run of a workload is a closed loop with one client: it repeats the
workload's CLI invocations, each repeat starting when the previous one has
returned, until the next repeat would end past ``--seconds`` (at least two
repeats, so their output bytes can be compared). Every output is checked.
With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced repeats and reports the per-layer metrics.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# sibling modules: the script's own directory is on sys.path
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OPRADIUS_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SETUP_SAMPLES = 7
FINGERPRINT_PREFIX = "fingerprint: "


def import_cli():
    """Import opradius.cli from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import opradius.cli as cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import opradius from {SRC}: {exc}")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported opradius from {cli.__file__}, not {SRC}")
    return cli


# ---------------------------------------------------------------------------
# machine fingerprint
# ---------------------------------------------------------------------------


def _blas_threads() -> int | None:
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import numpy as np
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        names = sorted(f for f in os.listdir(libs) if "openblas" in f)
    except OSError:
        return None
    for name in names:
        lib = ctypes.CDLL(os.path.join(libs, name))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def fingerprint() -> dict:
    import numpy as np
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas_name = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# running and checking
# ---------------------------------------------------------------------------


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Ledger:
    """Correctness checks attempted and failed, with the names of failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, name: str, passed: bool) -> None:
        self.attempted += 1
        if not passed:
            self.failures.append(name)

    def extend(self, checks) -> None:
        for name, passed in checks:
            self.add(name, passed)


def run_repeat(cli, wl: workloads.Workload) -> tuple[float, float, list[str], list[int]]:
    """One repeat: every invocation of `wl` in order. Returns wall, cpu, outputs, codes."""
    outputs, codes = [], []
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    for argv in wl.invocations:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            codes.append(cli.main(list(argv)))
        outputs.append(buf.getvalue())
    wall = time.perf_counter() - t0
    return wall, _cpu_seconds() - cpu0, outputs, codes


def check_repeat(ledger: Ledger, wl, outputs, codes, first, label: str) -> None:
    for argv, code in zip(wl.invocations, codes):
        ledger.add(f"{label}.exit_code[{' '.join(argv)}]", code == 0)
    ledger.extend(wl.check(outputs))
    if first is not None:
        ledger.add(f"{label}.identical_bytes", outputs == first)


def measure(cli, wl, seconds: float, traced: bool, ledger: Ledger):
    """Closed loop over repeats of `wl`; returns plain walls, cpus and traced results.

    Traced runs alternate untraced and traced repeats. A repeat starts only if
    the median repeat so far would still end within `seconds`, once the
    minimum (two untraced, or one of each kind when traced) is reached.
    """
    walls, cpus, traced_runs = [], [], []
    first = None
    start = time.perf_counter()
    while True:
        use_trace = traced and len(walls) > len(traced_runs)
        if use_trace:
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                wall, _, outputs, codes = run_repeat(cli, wl)
            traced_runs.append((wall, tracing.layer_metrics(tracer.spans)))
            check_repeat(ledger, wl, outputs, codes, first, "traced")
        else:
            wall, cpu, outputs, codes = run_repeat(cli, wl)
            walls.append(wall)
            cpus.append(cpu)
            check_repeat(ledger, wl, outputs, codes, first, "untraced")
        if first is None:
            first = outputs
        done = len(traced_runs) >= 1 if traced else len(walls) >= 2
        elapsed = time.perf_counter() - start
        typical = statistics.median(walls + [w for w, _ in traced_runs])
        if done and elapsed + typical > seconds:
            return walls, cpus, traced_runs


def measure_setup(name: str, seed: int, smoke: bool) -> list[float]:
    """Seconds from a fresh interpreter's start to its workload being ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=120)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0 or proc.stdout != b"ready\n":
            raise SystemExit("error: set-up probe failed: "
                             + proc.stderr.decode(errors="replace"))
    return samples


def _quartiles(values: list[float]) -> tuple[float, float]:
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def run_workload(args) -> dict:
    cli = import_cli()
    wl = workloads.prepare(args.workload, args.seed, args.smoke)
    ledger = Ledger()
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  smoke {int(wl.smoke)}")
    print(FINGERPRINT_PREFIX + json.dumps(fingerprint(), sort_keys=True))
    setup = None if args.trace else measure_setup(wl.name, args.seed, wl.smoke)

    # warm-up: the smoke size of the same workload, so lazy set-up in numpy
    # and LAPACK is done before timing; its outputs are checked like any other
    warm = workloads.prepare(wl.name, args.seed, smoke=True)
    _, _, outputs, codes = run_repeat(cli, warm)
    check_repeat(ledger, warm, outputs, codes, None, "warmup")

    walls, cpus, traced_runs = measure(cli, wl, args.seconds, bool(args.trace), ledger)
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        layers = [m for _, m in traced_runs]
        for name in layers[0]:
            metrics[name] = (statistics.median(m[name][0] for m in layers),
                             layers[0][name][1])
        if len(layers) > 1:
            ledger.add("traced.exact_counts_repeat", all(
                m[name] == layers[0][name] for m in layers for name in tracing.EXACT_COUNTS))
        traced_wall = statistics.median(w for w, _ in traced_runs)
        metrics["trace.overhead_s"] = (traced_wall - statistics.median(walls), "s")
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics["wall_s"] = (statistics.median(walls), "s")
        metrics["cpu_s"] = (statistics.median(cpus), "s")
        metrics["peak_rss_mb"] = (peak, "MB")
        metrics["setup_s"] = (statistics.median(setup), "s")
        for name, values in (("wall_s", walls), ("cpu_s", cpus), ("setup_s", setup)):
            q1, q3 = _quartiles(values)
            print(f"{name:<12} median {statistics.median(values):.6g} s  "
                  f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
        print(f"{'peak_rss_mb':<12} {peak:.6g} MB (peak resident set of this process)")
    failed = len(ledger.failures)
    print(f"{'fail_ratio':<12} {failed / ledger.attempted:.6g} "
          f"({failed} failed of {ledger.attempted} checks)")
    for name in ledger.failures[:20]:
        print(f"  FAILED {name}")
    return {
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process, so each reports its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=600)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        for key in ("attempted", "failed"):
            combined[key] += result[key]
        combined["correct"] = combined["correct"] and result["correct"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
            print(f"  {name}.{metric} = {entry['value']:.6g} {entry['unit']}")
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per run (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest size of each workload, for tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        import_cli()
        workloads.prepare(args.workload, args.seed, args.smoke)
        print("ready")
        return 0
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
