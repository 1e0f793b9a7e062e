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
in the target directory, then rename). Default runs are bit-reproducible: the
seed defaults to DEFAULT_SEED and all reductions are ordered.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from . import extremal
from .linalg import (_inverse, atomic_write, inverse, load_matrix,
                     matrix_to_payload, singular_values)
# numerical_radius stays bound here: perfbench's tracer self-test patches it.
from .radii import (DEFAULT_SEED, _check_rho, numerical_radius,  # noqa: F401
                    range_boundary, rho_radii)
from .unitary import _excesses, distance_to_unitaries, stampfli_gap_bound

__all__ = ["main", "run", "random_test", "RandomTestSummary", "DEFAULT_SEED"]

_FORMATS = ("csv", "json", "text")
# Bytes of sampled matrices and inverses that random_test holds at once; it
# certifies them block by block, so large --dim-max runs stream.
_BLOCK_BYTES = 2**20


@dataclass(frozen=True)
class _Result:
    """A subcommand's output in every format and its failed-check messages,
    which run() renders, writes and maps to the exit code."""

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


# ---------------------------------------------------------------------------
# gap
# ---------------------------------------------------------------------------


def _cmd_gap(ns) -> _Result:
    a = load_matrix(ns.matrix)
    rho = float(ns.rho)
    w, w_inv = (max(est.value, 1.0)
                for est in rho_radii([a, inverse(a)], rho, tol=ns.tol))
    gap = distance_to_unitaries(a)
    bound = stampfli_gap_bound(w, w_inv, rho)
    report = {
        "rho": rho,
        "w": w,
        "w_inv": w_inv,
        "distance": gap.distance,
        "norm_excess": gap.norm_excess,
        "inverse_excess": gap.inverse_excess,
        "bound": bound,
    }
    failures = ((f"distance {gap.distance:.12g} exceeds bound {bound:.12g}",)
                if gap.distance > bound + 1e-8 else ())
    return _Result(",".join(report), [tuple(report.values())], report,
                   "".join(f"{k} = {_fmt_float(v)}\n" for k, v in report.items()),
                   failures=failures)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def _cmd_bounds(ns) -> _Result:
    curve = bounds_mod.bound_curve(ns.rho, ns.r_min, ns.r_max, ns.steps)
    rows = [(r.r, r.x_value, r.psi_upper, r.psi_lower, r.asymptotic)
            for r in curve.rows]
    payload = {
        "rho": curve.rho,
        "rows": [{"r": r.r, "X": r.x_value, "psi_upper": r.psi_upper,
                  "psi_lower": r.psi_lower, "asymptotic": r.asymptotic}
                 for r in curve.rows],
    }
    head = f"{'r':>22} {'X':>22} {'psi_upper':>22} {'psi_lower':>22} {'asymptotic':>22}\n"
    body = "".join(" ".join(f"{c:>22.15g}" for c in row) + "\n" for row in rows)
    return _Result("r,X,psi_upper,psi_lower,asymptotic", rows, payload, head + body)


# ---------------------------------------------------------------------------
# range
# ---------------------------------------------------------------------------


def _cmd_range(ns) -> _Result:
    a = load_matrix(ns.matrix)
    points = range_boundary(a, samples=ns.samples)
    rows = [(p.theta, p.support_value, p.boundary_point.real, p.boundary_point.imag)
            for p in points]
    payload = {"samples": ns.samples,
               "rows": [{"theta": r[0], "support_value": r[1],
                         "re": r[2], "im": r[3]} for r in rows]}
    return _Result("theta,support_value,re,im", rows, payload,
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


def _sample_matrix(rng: np.random.Generator,
                   dim: int) -> tuple[np.ndarray, np.ndarray]:
    # complex Gaussian entries, mean 0 and variance 1/dim, returned with their
    # singular values; redraw the rare near-singular sample so the inverse
    # radius stays meaningful
    for _ in range(100):
        a = (rng.standard_normal((dim, dim))
             + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0 * dim)
        s = singular_values(a)
        if s[-1] > 1e-8 * s[0]:
            return a, s
    raise RuntimeError("could not draw a well-conditioned sample")


def _draws(samples: int, dim_min: int, dim_max: int, seed: int):
    """(index, dim, matrix, singular values) of every sample, each on its own
    substream."""
    for i in range(samples):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        dim = int(rng.integers(dim_min, dim_max + 1))
        yield (i, dim, *_sample_matrix(rng, dim))


def _blocks(draws):
    """Consecutive draws whose matrices and inverses fit _BLOCK_BYTES."""
    block, size = [], 0
    for draw in draws:
        cost = 2 * 16 * draw[1] ** 2
        if block and size + cost > _BLOCK_BYTES:
            yield block
            block, size = [], 0
        block.append(draw)
        size += cost
    if block:
        yield block


def _block_radii(block, rho: float, tol: float) -> list[tuple[float, float]]:
    """(w_rho(A), w_rho(A^-1)) per draw, from one lockstep sweep per size."""
    radii = [None] * len(block)
    for dim in sorted({draw[1] for draw in block}):
        group = [j for j, draw in enumerate(block) if draw[1] == dim]
        mats = [block[j][2] for j in group]
        inverses = [_inverse(*block[j][2:]) for j in group]
        ests = rho_radii(mats + inverses, rho, tol=tol)
        for pos, j in enumerate(group):
            radii[j] = (ests[pos].value, ests[len(group) + pos].value)
    return radii


def random_test(dim_min: int, dim_max: int, samples: int, rho: float,
                seed: int = DEFAULT_SEED, tol: float = 1e-8) -> RandomTestSummary:
    """Randomized falsification sweep of ||A|| <= psi_rho_upper(r).

    Each sample draws a complex Gaussian matrix on its own deterministic
    substream keyed by (seed, index), rescales it so the matrix and its
    inverse share the same rho-radius r, and checks the norm bound with
    1e-6 relative slack. At rho = 2 the unitary-distance consequence
    distance <= bound - 1 + 1e-8 is checked as well. Samples are certified
    in blocks of bounded size, with one rho_radii sweep per matrix size.
    Each sample's one SVD serves its invertibility check, its norm and its
    unitary distance, which scale with it. rho is checked and clamped into
    [1, 2] by the same check as rho_radii.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not 1 <= dim_min <= dim_max:
        raise ValueError("need 1 <= dim_min <= dim_max")
    rho = _check_rho(rho)
    violations = 0
    gap_violations = 0
    max_ratio = -np.inf
    worst = None
    worst_index = -1
    records = []
    for block in _blocks(_draws(samples, dim_min, dim_max, seed)):
        for (i, dim, a, s), (w, w_inv) in zip(block, _block_radii(block, rho, tol)):
            t = np.sqrt(w_inv / w)
            r = max(1.0, float(np.sqrt(w * w_inv)))
            norm = float(t * s[0])
            bound = bounds_mod.psi_rho_upper(rho, r)
            ratio = norm / bound
            violated = norm > bound * (1.0 + 1e-6)
            if rho == 2.0 and max(_excesses(t * s)) > bound - 1.0 + 1e-8:
                gap_violations += 1
            if violated:
                violations += 1
            if ratio > max_ratio:
                max_ratio = ratio
                worst = t * a
                worst_index = i
            records.append(SampleRecord(i, dim, r, norm, bound, float(ratio), violated))
    return RandomTestSummary(
        rho=rho, samples=samples, dim_min=dim_min, dim_max=dim_max, seed=seed,
        violations=violations, gap_violations=gap_violations,
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
    payload = {"n": ns.n, "all_pass": not failures,
               "reports": [rep.to_dict() for rep in reports]}
    rows = [(rep.label, c.name, c.value, c.bound, int(c.passed), c.slack)
            for rep in reports for c in rep.checks]
    lines = [f"n = {ns.n}"]
    lines += [f"{'PASS' if c.passed else 'FAIL'}  {rep.label}.{c.name}: "
              f"value={_fmt_float(c.value)} bound={_fmt_float(c.bound)}"
              for rep in reports for c in rep.checks]
    lines.append("FAILURES PRESENT" if failures else "all passed")
    return _Result("report,check,value,bound,pass,slack", rows, payload,
                   "\n".join(lines) + "\n", failures=failures)


def _cmd_extremal_scaling(ns) -> _Result:
    table = extremal.scaling_experiment(ns.kmin, ns.kmax, radius_tol=ns.tol)
    failures = []
    for row in table.rows:
        if abs(row.delta - 1.0 / (8.0 * np.sqrt(row.n))) > 1e-11:
            failures.append(f"norm excess identity at n={row.n}")
        for name, w in (("w", row.w), ("w_inv", row.w_inv)):
            if w > 1.0 + row.eps + 1e-8:
                failures.append(f"{name} bound at n={row.n}")
    payload = {
        "kmin": ns.kmin, "kmax": ns.kmax, "slope": table.slope,
        "rows": [{"n": r.n, "eps": r.eps, "delta": r.delta,
                  "w": r.w, "w_inv": r.w_inv} for r in table.rows],
    }
    lines = [f"{'n':>6} {'eps':>24} {'delta':>24} {'w':>24} {'w_inv':>24}"]
    lines += [f"{r.n:>6} {r.eps:>24.15g} {r.delta:>24.15g} "
              f"{r.w:>24.15g} {r.w_inv:>24.15g}" for r in table.rows]
    lines.append(f"slope = {_fmt_float(table.slope)}")
    return _Result("n,eps,delta,w,w_inv",
                   [(r.n, r.eps, r.delta, r.w, r.w_inv) for r in table.rows],
                   payload, "\n".join(lines) + "\n",
                   trailer=f"# slope={_fmt_float(table.slope)}",
                   failures=tuple(failures))


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
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser("bounds", help="tabulate the bound envelopes")
    p.add_argument("--rho", type=float, default=2.0)
    p.add_argument("--r-min", type=float, default=1.0)
    p.add_argument("--r-max", type=float, default=2.0)
    p.add_argument("--steps", type=int, default=101)
    _add_common(p, "csv", None)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("range", help="sample the numerical-range boundary")
    p.add_argument("--matrix", required=True, help="matrix JSON file")
    p.add_argument("--samples", type=int, default=256)
    _add_common(p, "csv", None)
    p.set_defaults(func=_cmd_range)

    p = sub.add_parser("random-test", help="randomized norm-bound falsification")
    p.add_argument("--rho", type=float, default=2.0)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--dim-min", type=int, default=2)
    p.add_argument("--dim-max", type=int, default=8)
    _add_common(p, "json", 1e-8)
    p.set_defaults(func=_cmd_random_test)

    p = sub.add_parser("extremal", help="extremal-family commands")
    esub = p.add_subparsers(dest="extremal_command", required=True)

    pv = esub.add_parser("verify", help="run every certificate for one n")
    pv.add_argument("--n", type=int, required=True)
    pv.add_argument("--json", action="store_true", help="shorthand for --format json")
    _add_common(pv, "text", 1e-8)
    pv.set_defaults(func=_cmd_extremal_verify)

    ps = esub.add_parser("scaling", help="norm excess vs radius excess table")
    ps.add_argument("--kmin", type=int, required=True)
    ps.add_argument("--kmax", type=int, required=True)
    _add_common(ps, "csv", 1e-6)
    ps.set_defaults(func=_cmd_extremal_scaling)

    return parser


def run(argv=None) -> int:
    """Parse argv, execute the subcommand, write its result in the chosen
    format, and map failed checks and errors to exit codes."""
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    if ns.tol is not None and not 1e-12 <= ns.tol <= 1e-2:
        print("error: --tol must lie in [1e-12, 1e-2]", file=sys.stderr)
        return 2
    try:
        result = ns.func(ns)
        fmt = "json" if getattr(ns, "json", False) else ns.fmt
        if fmt == "csv":
            text = _csv_lines(result.header, result.rows, result.trailer)
        elif fmt == "json":
            text = json.dumps(result.payload, indent=2) + "\n"
        else:
            text = result.text
        if ns.out:
            atomic_write(ns.out, text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if result.failures:
        print("check failed: " + ", ".join(result.failures), file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
