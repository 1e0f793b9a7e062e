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
from .radii import (DEFAULT_SEED, numerical_radius,  # noqa: F401
                    range_boundary, rho_radii)
from .unitary import _excesses, distance_to_unitaries, stampfli_gap_bound

__all__ = ["main", "run", "random_test", "RandomTestSummary", "RunConfig",
           "DEFAULT_SEED"]

_FORMATS = ("csv", "json", "text")
# Bytes of sampled matrices and inverses that random_test holds at once; it
# certifies them block by block, so large --dim-max runs stream.
_BLOCK_BYTES = 2**20


@dataclass(frozen=True)
class RunConfig:
    """Common knobs shared by every subcommand."""

    seed: int = DEFAULT_SEED
    tol: float | None = None
    out: str | None = None
    fmt: str = "text"


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _emit(text: str, out: str | None) -> None:
    if out:
        atomic_write(out, text)
    else:
        sys.stdout.write(text)


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


def _cmd_gap(cfg: RunConfig, ns) -> int:
    a = load_matrix(ns.matrix)
    rho = float(ns.rho)
    tol = cfg.tol if cfg.tol is not None else 1e-8
    w, w_inv = (max(est.value, 1.0)
                for est in rho_radii([a, inverse(a)], rho, tol=tol))
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
    if cfg.fmt == "csv":
        keys = list(report)
        _emit(_csv_lines(",".join(keys), [tuple(report[k] for k in keys)]), cfg.out)
    elif cfg.fmt == "text":
        _emit("".join(f"{k} = {_fmt_float(v)}\n" for k, v in report.items()), cfg.out)
    else:
        _emit(json.dumps(report, indent=2) + "\n", cfg.out)
    if gap.distance > bound + 1e-8:
        print(f"check failed: distance {gap.distance:.12g} exceeds "
              f"bound {bound:.12g}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def _cmd_bounds(cfg: RunConfig, ns) -> int:
    curve = bounds_mod.bound_curve(ns.rho, ns.r_min, ns.r_max, ns.steps)
    rows = [(r.r, r.x_value, r.psi_upper, r.psi_lower, r.asymptotic)
            for r in curve.rows]
    if cfg.fmt == "json":
        payload = {
            "rho": curve.rho,
            "rows": [{"r": r.r, "X": r.x_value, "psi_upper": r.psi_upper,
                      "psi_lower": r.psi_lower, "asymptotic": r.asymptotic}
                     for r in curve.rows],
        }
        _emit(json.dumps(payload, indent=2) + "\n", cfg.out)
    elif cfg.fmt == "text":
        head = f"{'r':>22} {'X':>22} {'psi_upper':>22} {'psi_lower':>22} {'asymptotic':>22}\n"
        body = "".join(" ".join(f"{c:>22.15g}" for c in row) + "\n" for row in rows)
        _emit(head + body, cfg.out)
    else:
        _emit(_csv_lines("r,X,psi_upper,psi_lower,asymptotic", rows), cfg.out)
    return 0


# ---------------------------------------------------------------------------
# range
# ---------------------------------------------------------------------------


def _cmd_range(cfg: RunConfig, ns) -> int:
    a = load_matrix(ns.matrix)
    points = range_boundary(a, samples=ns.samples)
    rows = [(p.theta, p.support_value, p.boundary_point.real, p.boundary_point.imag)
            for p in points]
    if cfg.fmt == "json":
        payload = {"samples": ns.samples,
                   "rows": [{"theta": r[0], "support_value": r[1],
                             "re": r[2], "im": r[3]} for r in rows]}
        _emit(json.dumps(payload, indent=2) + "\n", cfg.out)
    elif cfg.fmt == "text":
        _emit("".join(f"{r[0]:.12g} {r[1]:.12g} {r[2]:.12g} {r[3]:.12g}\n"
                      for r in rows), cfg.out)
    else:
        _emit(_csv_lines("theta,support_value,re,im", rows), cfg.out)
    return 0


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
    unitary distance, which scale with it.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not 1 <= dim_min <= dim_max:
        raise ValueError("need 1 <= dim_min <= dim_max")
    if not 1.0 <= rho <= 2.0:
        raise ValueError("rho must lie in [1, 2]")
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


def _cmd_random_test(cfg: RunConfig, ns) -> int:
    tol = cfg.tol if cfg.tol is not None else 1e-8
    summary = random_test(ns.dim_min, ns.dim_max, ns.samples, float(ns.rho),
                          seed=cfg.seed, tol=tol)
    if cfg.fmt == "csv":
        rows = [(r.index, r.dim, r.r, r.norm, r.bound, r.ratio, int(r.violated))
                for r in summary.records]
        _emit(_csv_lines("index,dim,r,norm,bound,ratio,violated", rows), cfg.out)
    elif cfg.fmt == "text":
        _emit(
            f"rho = {summary.rho}\nsamples = {summary.samples}\n"
            f"violations = {summary.violations}\n"
            f"gap_violations = {summary.gap_violations}\n"
            f"max_ratio = {_fmt_float(summary.max_ratio)}\n"
            f"worst_index = {summary.worst_index}\n", cfg.out)
    else:
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
        _emit(json.dumps(payload, indent=2) + "\n", cfg.out)
    if summary.violations or summary.gap_violations:
        print(f"check failed: {summary.violations} norm violations, "
              f"{summary.gap_violations} gap violations", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# extremal verify / scaling
# ---------------------------------------------------------------------------


def _verify_reports(n: int, tol: float) -> list[extremal.CertificateReport]:
    fam = extremal.build(n)
    residual = extremal.check_symmetry(fam)
    symmetry = extremal.CertificateReport(
        "rotation_symmetry", n,
        (extremal.CertificateCheck("conjugation_residual", residual, 1e-13,
                                   residual <= 1e-13, 1e-13 - residual),))
    cos_bound = float(1.0 / np.cos(np.pi / n))
    w, w_inv = (est.value for est in extremal.family_radii(fam, tol))
    radius = extremal.CertificateReport(
        "radius_bound", n,
        (extremal.CertificateCheck("w", w, cos_bound, w <= cos_bound + 1e-8,
                                   cos_bound - w),
         extremal.CertificateCheck("w_inv", w_inv, cos_bound,
                                   w_inv <= cos_bound + 1e-8, cos_bound - w_inv)))
    return [
        symmetry,
        extremal.check_norm(fam),
        extremal.check_real_parts(fam),
        extremal.certificate_31(fam),
        extremal.certificate_32(fam),
        radius,
    ]


def _cmd_extremal_verify(cfg: RunConfig, ns) -> int:
    tol = cfg.tol if cfg.tol is not None else 1e-8
    fmt = "json" if ns.json else cfg.fmt
    reports = _verify_reports(ns.n, tol)
    ok = all(rep.all_pass for rep in reports)
    if fmt == "json":
        payload = {"n": ns.n, "all_pass": ok,
                   "reports": [rep.to_dict() for rep in reports]}
        _emit(json.dumps(payload, indent=2) + "\n", cfg.out)
    elif fmt == "csv":
        rows = [(rep.label, c.name, c.value, c.bound, int(c.passed), c.slack)
                for rep in reports for c in rep.checks]
        _emit(_csv_lines("report,check,value,bound,pass,slack", rows), cfg.out)
    else:
        lines = [f"n = {ns.n}"]
        for rep in reports:
            for c in rep.checks:
                tag = "PASS" if c.passed else "FAIL"
                lines.append(f"{tag}  {rep.label}.{c.name}: "
                             f"value={_fmt_float(c.value)} bound={_fmt_float(c.bound)}")
        lines.append("all passed" if ok else "FAILURES PRESENT")
        _emit("\n".join(lines) + "\n", cfg.out)
    if not ok:
        failing = [f"{rep.label}.{name}" for rep in reports
                   for name in rep.failures()]
        print("check failed: " + ", ".join(failing), file=sys.stderr)
        return 1
    return 0


def _cmd_extremal_scaling(cfg: RunConfig, ns) -> int:
    tol = cfg.tol if cfg.tol is not None else 1e-6
    table = extremal.scaling_experiment(ns.kmin, ns.kmax, radius_tol=tol)
    failures = []
    for row in table.rows:
        if abs(row.delta - 1.0 / (8.0 * np.sqrt(row.n))) > 1e-11:
            failures.append(f"norm excess identity at n={row.n}")
        if row.w > 1.0 + row.eps + 1e-8:
            failures.append(f"w bound at n={row.n}")
        if row.w_inv > 1.0 + row.eps + 1e-8:
            failures.append(f"w_inv bound at n={row.n}")
    if cfg.fmt == "json":
        payload = {
            "kmin": ns.kmin, "kmax": ns.kmax, "slope": table.slope,
            "rows": [{"n": r.n, "eps": r.eps, "delta": r.delta,
                      "w": r.w, "w_inv": r.w_inv} for r in table.rows],
        }
        _emit(json.dumps(payload, indent=2) + "\n", cfg.out)
    elif cfg.fmt == "text":
        lines = [f"{'n':>6} {'eps':>24} {'delta':>24} {'w':>24} {'w_inv':>24}"]
        lines += [f"{r.n:>6} {r.eps:>24.15g} {r.delta:>24.15g} "
                  f"{r.w:>24.15g} {r.w_inv:>24.15g}" for r in table.rows]
        lines.append(f"slope = {_fmt_float(table.slope)}")
        _emit("\n".join(lines) + "\n", cfg.out)
    else:
        rows = [(r.n, r.eps, r.delta, r.w, r.w_inv) for r in table.rows]
        _emit(_csv_lines("n,eps,delta,w,w_inv", rows,
                         trailer=f"# slope={_fmt_float(table.slope)}"), cfg.out)
    if failures:
        print("check failed: " + ", ".join(failures), file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, default_fmt: str) -> None:
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"PRNG seed (default {DEFAULT_SEED})")
    parser.add_argument("--tol", type=float, default=None,
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
    _add_common(p, "json")
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser("bounds", help="tabulate the bound envelopes")
    p.add_argument("--rho", type=float, default=2.0)
    p.add_argument("--r-min", type=float, default=1.0)
    p.add_argument("--r-max", type=float, default=2.0)
    p.add_argument("--steps", type=int, default=101)
    _add_common(p, "csv")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("range", help="sample the numerical-range boundary")
    p.add_argument("--matrix", required=True, help="matrix JSON file")
    p.add_argument("--samples", type=int, default=256)
    _add_common(p, "csv")
    p.set_defaults(func=_cmd_range)

    p = sub.add_parser("random-test", help="randomized norm-bound falsification")
    p.add_argument("--rho", type=float, default=2.0)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--dim-min", type=int, default=2)
    p.add_argument("--dim-max", type=int, default=8)
    _add_common(p, "json")
    p.set_defaults(func=_cmd_random_test)

    p = sub.add_parser("extremal", help="extremal-family commands")
    esub = p.add_subparsers(dest="extremal_command", required=True)

    pv = esub.add_parser("verify", help="run every certificate for one n")
    pv.add_argument("--n", type=int, required=True)
    pv.add_argument("--json", action="store_true", help="shorthand for --format json")
    _add_common(pv, "text")
    pv.set_defaults(func=_cmd_extremal_verify)

    ps = esub.add_parser("scaling", help="norm excess vs radius excess table")
    ps.add_argument("--kmin", type=int, required=True)
    ps.add_argument("--kmax", type=int, required=True)
    _add_common(ps, "csv")
    ps.set_defaults(func=_cmd_extremal_scaling)

    return parser


def run(argv=None) -> int:
    """Parse argv, execute the subcommand, map errors to exit codes."""
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    cfg = RunConfig(seed=ns.seed, tol=ns.tol, out=ns.out, fmt=ns.fmt)
    if cfg.tol is not None and not 1e-12 <= cfg.tol <= 1e-2:
        print("error: --tol must lie in [1e-12, 1e-2]", file=sys.stderr)
        return 2
    try:
        return ns.func(cfg, ns)
    except (ValueError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
