"""Exact work counts of the north-star runs, the pins of tests/test_work.py.

    python tools/work_counts.py [OUT]

Each run of RUNS goes through `opradius.cli.main` in this process with the
dense kernels of KERNELS wrapped. Per (kernel, size, dtype) it records the
matrices solved (a stack of k matrices counts k) and the calls taken; an SVD
with vectors is recorded as the kernel "svd_uv", apart from the values-only
"svd". Per run it records the flops of all matrices by the per-kernel weights
of FLOPS, a complex matrix weighted 4: the cost ratio of complex to real
LAPACK arithmetic. OUT defaults to tests/data/work_counts.json, which
tests/test_work.py reads as its pins. The counts are exact and do not depend
on timing, so regenerating the file gives the same bytes; a change that adds
work shows as a larger count, one that removes work as a smaller one.

Run it with `src` on PYTHONPATH, from any directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from fractions import Fraction

import numpy as np

KERNELS = ("svd", "inv", "solve", "eigvalsh", "eigh")
# real flops of one n x n matrix, (c3, c2) for c3 n^3 + c2 n^2 (Golub & Van
# Loan, Matrix Computations, 4th ed.): every solve here has one right-hand side
FLOPS = {
    "eigvalsh": (Fraction(4, 3), 0),
    "eigh": (9, 0),
    "inv": (2, 0),
    "solve": (Fraction(2, 3), 2),
    "svd": (Fraction(8, 3), 0),
    "svd_uv": (21, 0),
}
# random-test draws 200 samples of dims 2-8 at the default seed
RUNS = (
    "extremal scaling --kmin 1 --kmax 18",
    "extremal verify --n 148",
    "extremal verify --n 252",
    "extremal verify --n 500",
    "random-test --rho 1 --samples 200",
    "random-test --rho 1.5 --samples 200",
    "random-test --rho 2 --samples 200",
)
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "tests", "data", "work_counts.json")


@contextlib.contextmanager
def counting():
    """Wrap every kernel of KERNELS in numpy.linalg for the duration; yields
    the dict {(kernel, size, dtype): [matrices, calls]} they fill."""
    counts = {}
    originals = {name: getattr(np.linalg, name) for name in KERNELS}

    def counted(name, kernel):
        def wrapper(a, *args, **kwargs):
            shape = np.shape(a)
            # svd(a, full_matrices, compute_uv, ...)
            uv = name == "svd" and kwargs.get("compute_uv", args[1:2] != (False,))
            key = (name + "_uv" if uv else name, int(shape[-1]), np.asarray(a).dtype.name)
            entry = counts.setdefault(key, [0, 0])
            entry[0] += int(np.prod(shape[:-2]))
            entry[1] += 1
            return kernel(a, *args, **kwargs)
        return wrapper

    try:
        for name, kernel in originals.items():
            setattr(np.linalg, name, counted(name, kernel))
        yield counts
    finally:
        for name, kernel in originals.items():
            setattr(np.linalg, name, kernel)


def record(counts: dict) -> dict:
    """The JSON record of one run's counts: its rows [kernel, size, dtype,
    matrices, calls] in sorted order, its per-kernel [matrices, calls] and
    its total flops by FLOPS, rounded to an integer."""
    rows = [[*key, *value] for key, value in sorted(counts.items())]
    kernels = {}
    for name, _, _, matrices, calls in rows:
        total = kernels.setdefault(name, [0, 0])
        total[0] += matrices
        total[1] += calls
    flops = 0
    for name, size, dtype, matrices, _ in rows:
        c3, c2 = FLOPS[name]
        flops += (matrices * (c3 * size ** 3 + c2 * size ** 2)
                  * (4 if dtype.startswith("complex") else 1))
    return {"rows": rows, "kernels": kernels, "flops": round(flops)}


def count(run: str) -> dict:
    """The record of one run of RUNS, which must exit 0."""
    from opradius import cli

    with counting() as counts, contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(run.split())
    if code != 0:
        raise RuntimeError(f"{run!r} exited {code}")
    return record(counts)


def render(records: dict) -> str:
    """The records as JSON, one row per line."""
    runs = []
    for run, rec in records.items():
        rows = ",\n".join(f"   {json.dumps(row)}" for row in rec["rows"])
        runs.append(f' {json.dumps(run)}: {{\n  "rows": [\n{rows}\n  ],\n'
                    f'  "kernels": {json.dumps(rec["kernels"], sort_keys=True)},\n'
                    f'  "flops": {rec["flops"]}\n }}')
    return "{\n" + ",\n".join(runs) + "\n}\n"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out = argv[0] if argv else OUT
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(render({run: count(run) for run in RUNS}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
