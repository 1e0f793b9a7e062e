"""Command-line front end: reproducible experiments, reports, and artifacts.

Subcommands
    gap               distance to the unitary group plus the radius-driven bound
    bounds            tabulate the envelope functions as CSV/JSON
    range             sample the numerical-range boundary of a matrix file
    random-test       randomized falsification sweep of the norm bound
    extremal verify   build one family member and run every certificate
    extremal scaling  norm-excess versus radius-excess table and slope fit

Exit codes: 0 all embedded checks pass, 1 a numerical check failed (named on
stderr), 2 usage or input errors. Artifacts are written atomically (temp file
in the target directory, then rename). Default runs are bit-reproducible for
the same numpy, BLAS build and CPU kernel, and on BLAS builds other than
OpenBLAS for the same BLAS thread count: the seed defaults to DEFAULT_SEED and
all reductions are ordered. main() runs every subcommand on one OpenBLAS
thread, so on OpenBLAS the thread count is no condition.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from . import extremal, radii
from .bounds import _check_rho
from .linalg import (_check_count, _check_invertible, _inverse, _serial_blas,
                     atomic_write, load_matrix, matrix_to_payload,
                     singular_values)
# numerical_radius stays bound here: perfbench's tracer self-test patches it.
from .radii import (DEFAULT_SEED, _check_tol, _streamed,
                    numerical_radius, range_boundary, rho_radii)  # noqa: F401
from .unitary import (_distance_violated, _excesses, _norm_violated,
                      stampfli_gap_bound)

__all__ = ["main", "random_test", "RandomTestSummary", "DEFAULT_SEED"]

_FORMATS = ("csv", "json", "text")


@dataclass(frozen=True)
class _Result:
    """A subcommand's output in every format and its failed-check messages,
    which main() renders, writes and maps to the exit code."""

    header: str
    rows: list
    payload: dict
    text: str
    trailer: str | None = None
    failures: tuple[str, ...] = ()


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _csv_lines(header: str, rows, trailer: str | None = None) -> str:
    lines = [header]
    lines.extend(",".join(_fmt_float(c) if isinstance(c, float) else str(c)
                          for c in row) for row in rows)
    if trailer is not None:
        lines.append(trailer)
    return "\n".join(lines) + "\n"


def _records(header: str, rows) -> list[dict]:
    """The JSON rows of a table: each row keyed by the CSV header's names."""
    keys = header.split(",")
    return [dict(zip(keys, row)) for row in rows]


# ---------------------------------------------------------------------------
# gap
# ---------------------------------------------------------------------------


def _cmd_gap(ns) -> _Result:
    a = load_matrix(ns.matrix)
    rho = _check_rho(float(ns.rho))
    # one SVD without vectors: the distance reads only the singular values,
    # and the inverse refuses a singular A from them
    s = singular_values(a)
    distance, norm_excess, inverse_excess = _excesses(s)
    w, w_inv = (est.value for est in rho_radii([a, _inverse(a, s)], rho, tol=ns.tol))
    # the bound reads only the larger radius, which is >= 1 for an invertible
    # matrix; the smaller may lie below 1, as w(0.5 I) = 0.5 does
    bound = stampfli_gap_bound(max(w, 1.0), max(w_inv, 1.0), rho)
    report = {
        "rho": rho,
        "w": w,
        "w_inv": w_inv,
        "distance": distance,
        "norm_excess": norm_excess,
        "inverse_excess": inverse_excess,
        "bound": bound,
    }
    failures = ((f"distance {distance:.12g} exceeds bound {bound:.12g}",)
                if _distance_violated(distance, bound) else ())
    return _Result(",".join(report), [tuple(report.values())], report,
                   "".join(f"{k} = {_fmt_float(v)}\n" for k, v in report.items()),
                   failures=failures)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def _cmd_bounds(ns) -> _Result:
    curve = bounds_mod.bound_curve(ns.rho, ns.r_min, ns.r_max, ns.steps)
    header = "r,X,psi_upper,psi_lower,asymptotic"
    rows = [(r.r, r.x_value, r.psi_upper, r.psi_lower, r.asymptotic)
            for r in curve.rows]
    payload = {"rho": curve.rho, "rows": _records(header, rows)}
    head = " ".join(f"{k:>22}" for k in header.split(",")) + "\n"
    body = "".join(" ".join(f"{c:>22.15g}" for c in row) + "\n" for row in rows)
    return _Result(header, rows, payload, head + body)


# ---------------------------------------------------------------------------
# range
# ---------------------------------------------------------------------------


def _cmd_range(ns) -> _Result:
    a = load_matrix(ns.matrix)
    points = range_boundary(a, samples=ns.samples)
    header = "theta,support_value,re,im"
    rows = [(p.theta, p.support_value, p.boundary_point.real, p.boundary_point.imag)
            for p in points]
    payload = {"samples": ns.samples, "rows": _records(header, rows)}
    return _Result(header, rows, payload,
                   "".join(f"{r[0]:.12g} {r[1]:.12g} {r[2]:.12g} {r[3]:.12g}\n"
                           for r in rows))


# ---------------------------------------------------------------------------
# random-test
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleRecord:
    index: int
    dim: int
    r: float
    norm: float
    bound: float
    ratio: float
    violated: bool


@dataclass(frozen=True)
class RandomTestSummary:
    rho: float
    samples: int
    dim_min: int
    dim_max: int
    seed: int
    violations: int
    gap_violations: int
    max_ratio: float
    worst_index: int
    worst_case: np.ndarray
    records: tuple[SampleRecord, ...]


def _gaussian(parts: np.ndarray) -> np.ndarray:
    """Complex Gaussian dim x dim matrices of entries of mean 0 and variance
    1/dim from standard normal parts of shape (..., 2, dim, dim), the real
    parts first: elementwise, so a stack gives each matrix its own bits."""
    re, im = parts[..., 0, :, :], parts[..., 1, :, :]
    return (re + 1j * im) / np.sqrt(2.0 * parts.shape[-1])


def _draws(samples: int, dim_min: int, dim_max: int, seed: int):
    """(index, dim, matrix, singular values, inverse) of every sample, in
    index order, each on its own substream keyed by (seed, index): its dim,
    then one (2, dim, dim) normal draw per matrix (_gaussian). A near-singular
    draw is redrawn on the same substream, at most 100 draws a sample, so the
    inverse radius stays meaningful; every accepted sample then passes
    _check_invertible.

    Samples are made in blocks whose matrices and inverses reach
    radii._BLOCK_BYTES, the budget by which _streamed sweeps them. Per size,
    a block's first draws take one stacked SVD without vectors and its
    accepted matrices one stacked inverse; a redraw takes its own SVD. A
    stacked kernel solves each matrix as a call on that matrix alone does,
    so no value depends on the blocks.
    """
    block, size = [], 0
    for i in range(samples):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        dim = int(rng.integers(dim_min, dim_max + 1))
        block.append((i, dim, rng))
        # the sample and its inverse, as _streamed counts them
        size += 2 * 16 * dim * dim
        if size >= radii._BLOCK_BYTES or i == samples - 1:
            yield from _drawn(block)
            block, size = [], 0


def _drawn(block: list) -> list:
    """_draws' tuples of a block of (index, dim, generator), one stack per size."""
    sizes = {}
    for k, (_, dim, _) in enumerate(block):
        sizes.setdefault(dim, []).append(k)
    out = [None] * len(block)
    for dim, ks in sizes.items():
        rngs = [block[k][2] for k in ks]
        mats = _gaussian(np.stack([rng.standard_normal((2, dim, dim)) for rng in rngs]))
        svs = np.linalg.svd(mats, compute_uv=False)
        for j in np.flatnonzero(~(svs[:, -1] > 1e-8 * svs[:, 0])):
            for _ in range(99):
                mats[j] = _gaussian(rngs[j].standard_normal((2, dim, dim)))
                svs[j] = singular_values(mats[j])
                if svs[j, -1] > 1e-8 * svs[j, 0]:
                    break
            else:
                raise RuntimeError("could not draw a well-conditioned sample")
        for sv in svs:
            _check_invertible(sv)
        for k, a, sv, a_inv in zip(ks, mats, svs, np.linalg.inv(mats)):
            out[k] = block[k][0], dim, a, sv, a_inv
    return out


def random_test(dim_min: int, dim_max: int, samples: int, rho: float,
                seed: int = DEFAULT_SEED, tol: float = 1e-8) -> RandomTestSummary:
    """Randomized falsification sweep of ||A|| <= psi_rho_upper(r).

    Each sample draws a complex Gaussian matrix on its own deterministic
    substream keyed by (seed, index), rescales it so the matrix and its
    inverse share the same rho-radius r, and checks the norm bound and, at
    every rho as in gap, its unitary-distance consequence by the rules of
    unitary._norm_violated and _distance_violated. Samples and inverses are
    made in blocks, one stacked SVD and one stacked inverse per size (_draws),
    and streamed through the radii's blocks, one lockstep sweep each; every
    stacked kernel solves each matrix as its own call would and every radius
    is its own sweep, so blocks never change a record. Each sample's one SVD
    serves its invertibility check, its norm and its unitary distance, which
    scale with it. samples and dim_min must be integers >= 1 and dim_max one
    >= dim_min, capped at extremal.MAX_DIM; rho and tol go through the same
    checks as in rho_radii, before any sample is drawn.
    """
    samples = _check_count("samples", samples, 1)
    dim_min = _check_count("dim_min", dim_min, 1)
    dim_max = _check_count("dim_max", dim_max, dim_min, extremal.MAX_DIM)
    rho = _check_rho(rho)
    tol = _check_tol(tol)
    gap_violations = 0
    max_ratio = -np.inf
    worst = None
    worst_index = -1
    records = []
    jobs = (((i, dim, a, s), [a, a_inv], [None, None])
            for i, dim, a, s, a_inv in _draws(samples, dim_min, dim_max, seed))
    for (i, dim, a, s), (est, est_inv) in _streamed(jobs, rho, tol):
        w, w_inv = est.value, est_inv.value
        t = math.sqrt(w_inv / w)
        r = max(1.0, math.sqrt(w * w_inv))
        norm = t * float(s[0])
        bound = bounds_mod.psi_rho_upper(rho, r)
        ratio = norm / bound
        gap_violations += _distance_violated(_excesses(t * s)[0], bound - 1.0)
        if ratio > max_ratio:
            max_ratio = ratio
            worst = t * a
            worst_index = i
        records.append(SampleRecord(i, dim, r, norm, bound, float(ratio),
                                    _norm_violated(norm, bound)))
    return RandomTestSummary(
        rho=rho, samples=samples, dim_min=dim_min, dim_max=dim_max, seed=seed,
        violations=sum(rec.violated for rec in records), gap_violations=gap_violations,
        max_ratio=float(max_ratio), worst_index=worst_index, worst_case=worst,
        records=tuple(records))


def _cmd_random_test(ns) -> _Result:
    summary = random_test(ns.dim_min, ns.dim_max, ns.samples, float(ns.rho),
                          seed=ns.seed, tol=ns.tol)
    rows = [(r.index, r.dim, r.r, r.norm, r.bound, r.ratio, int(r.violated))
            for r in summary.records]
    payload = {
        "rho": summary.rho,
        "samples": summary.samples,
        "dim_min": summary.dim_min,
        "dim_max": summary.dim_max,
        "seed": summary.seed,
        "violations": summary.violations,
        "gap_violations": summary.gap_violations,
        "max_ratio": summary.max_ratio,
        "worst_index": summary.worst_index,
        "worst_case": matrix_to_payload(summary.worst_case),
    }
    text = (f"rho = {summary.rho}\nsamples = {summary.samples}\n"
            f"violations = {summary.violations}\n"
            f"gap_violations = {summary.gap_violations}\n"
            f"max_ratio = {_fmt_float(summary.max_ratio)}\n"
            f"worst_index = {summary.worst_index}\n")
    failures = ((f"{summary.violations} norm violations, "
                 f"{summary.gap_violations} gap violations",)
                if summary.violations or summary.gap_violations else ())
    return _Result("index,dim,r,norm,bound,ratio,violated", rows, payload, text,
                   failures=failures)


# ---------------------------------------------------------------------------
# extremal verify / scaling
# ---------------------------------------------------------------------------


def _cmd_extremal_verify(ns) -> _Result:
    reports = extremal.verify(ns.n, ns.tol)
    failures = tuple(f"{rep.label}.{name}" for rep in reports
                     for name in rep.failures())
    checks = [[(c.name, c.value, c.bound, c.passed, c.slack) for c in rep.checks]
              for rep in reports]
    payload = {"n": ns.n, "all_pass": not failures,
               "reports": [{"label": rep.label, "n": rep.n, "all_pass": rep.all_pass,
                            "checks": _records("name,value,bound,pass,slack", tuples)}
                           for rep, tuples in zip(reports, checks)]}
    rows = [(rep.label, name, value, bound, int(passed), slack)
            for rep, tuples in zip(reports, checks)
            for name, value, bound, passed, slack in tuples]
    lines = [f"n = {ns.n}"]
    lines += [f"{'PASS' if passed else 'FAIL'}  {label}.{name}: "
              f"value={_fmt_float(value)} bound={_fmt_float(bound)}"
              for label, name, value, bound, passed, _ in rows]
    lines.append("FAILURES PRESENT" if failures else "all passed")
    return _Result("report,check,value,bound,pass,slack", rows, payload,
                   "\n".join(lines) + "\n", failures=failures)


def _cmd_extremal_scaling(ns) -> _Result:
    table = extremal.scaling_experiment(ns.kmin, ns.kmax, radius_tol=ns.tol)
    header = "n,eps,delta,w,w_inv"
    rows = [(r.n, r.eps, r.delta, r.w, r.w_inv) for r in table.rows]
    # a single row fits no slope: JSON has null for it, not NaN
    payload = {"kmin": ns.kmin, "kmax": ns.kmax,
               "slope": table.slope if len(rows) >= 2 else None,
               "rows": _records(header, rows)}
    lines = [f"{'n':>6} {'eps':>24} {'delta':>24} {'w':>24} {'w_inv':>24}"]
    lines += [f"{n:>6} " + " ".join(f"{c:>24.15g}" for c in row)
              for n, *row in rows]
    lines.append(f"slope = {_fmt_float(table.slope)}")
    return _Result(header, rows, payload, "\n".join(lines) + "\n",
                   trailer=f"# slope={_fmt_float(table.slope)}",
                   failures=tuple(table.failures()))


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, default_fmt: str,
                default_tol: float | None) -> None:
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"PRNG seed (default {DEFAULT_SEED})")
    parser.add_argument("--tol", type=float, default=default_tol,
                        help="radius tolerance override")
    parser.add_argument("--out", default=None, help="write output to this file")
    parser.add_argument("--format", choices=_FORMATS, default=default_fmt,
                        dest="fmt", help=f"output format (default {default_fmt})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opradius",
        description="Numerical radii, rho-radii, and distance to the unitary group.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gap", help="distance to the unitaries plus the psi bound")
    p.add_argument("--matrix", required=True, help="matrix JSON file")
    p.add_argument("--rho", type=float, default=2.0)
    _add_common(p, "json", 1e-8)
    p.set_defaults(func="_cmd_gap")

    p = sub.add_parser("bounds", help="tabulate the bound envelopes")
    p.add_argument("--rho", type=float, default=2.0)
    p.add_argument("--r-min", type=float, default=1.0)
    p.add_argument("--r-max", type=float, default=2.0)
    p.add_argument("--steps", type=int, default=101)
    _add_common(p, "csv", None)
    p.set_defaults(func="_cmd_bounds")

    p = sub.add_parser("range", help="sample the numerical-range boundary")
    p.add_argument("--matrix", required=True, help="matrix JSON file")
    p.add_argument("--samples", type=int, default=256)
    _add_common(p, "csv", None)
    p.set_defaults(func="_cmd_range")

    p = sub.add_parser("random-test", help="randomized norm-bound falsification")
    p.add_argument("--rho", type=float, default=2.0)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--dim-min", type=int, default=2)
    p.add_argument("--dim-max", type=int, default=8)
    _add_common(p, "json", 1e-8)
    p.set_defaults(func="_cmd_random_test")

    p = sub.add_parser("extremal", help="extremal-family commands")
    esub = p.add_subparsers(dest="extremal_command", required=True)

    pv = esub.add_parser("verify", help="run every certificate for one n")
    pv.add_argument("--n", type=int, required=True)
    pv.add_argument("--json", action="store_true", help="shorthand for --format json")
    _add_common(pv, "text", 1e-8)
    pv.set_defaults(func="_cmd_extremal_verify")

    ps = esub.add_parser("scaling", help="norm excess vs radius excess table")
    ps.add_argument("--kmin", type=int, required=True)
    ps.add_argument("--kmax", type=int, required=True)
    _add_common(ps, "csv", 1e-6)
    ps.set_defaults(func="_cmd_extremal_scaling")

    return parser


# build_parser() of the first main() call, reused by later calls in-process;
# it names each subcommand's handler, which main() looks up at every call
_parser = None


def main(argv=None) -> int:
    """Parse argv, execute the subcommand, write its result in the chosen
    format, and map failed checks and errors to exit codes."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        ns = _parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    try:
        if ns.tol is not None:
            _check_tol(ns.tol)
        with _serial_blas():
            result = globals()[ns.func](ns)
        fmt = "json" if getattr(ns, "json", False) else ns.fmt
        if fmt == "csv":
            text = _csv_lines(result.header, result.rows, result.trailer)
        elif fmt == "json":
            text = json.dumps(result.payload, indent=2, allow_nan=False) + "\n"
        else:
            text = result.text
        if ns.out:
            atomic_write(ns.out, text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError, MemoryError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if result.failures:
        print("check failed: " + ", ".join(result.failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
