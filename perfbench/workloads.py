"""The benchmark's workloads and the correctness checkers for their outputs.

A workload is a fixed list of CLI invocations (argument lists for
``opradius.cli.main``). One repeat runs every invocation of the list in order;
the checkers below turn the captured stdout of a repeat into named pass/fail
checks. Every checker treats output it cannot parse as a failed check, so a
corrupted output always counts against ``fail_ratio``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

NAMES = ("paper_scaling", "paper_verify", "random_suite")
# kmax 8 (n up to 68) and n = 100 take 4 to 5 s a repeat on 2 cores, so a
# 30 s run holds about six repeats. At kmax 12 and n = 148 (about 17 s) a run
# held two, and the median wall time of ten runs spread by 11%.
SCALING_KMAX = 8
VERIFY_N = 100
RANDOM_SAMPLES = 200
RANDOM_RHOS = ("1", "1.5", "2")

# The paper's 1/4-power law, with room for the finite-n fit.
SLOPE_RANGE = (0.22, 0.28)
DELTA_TOL = 1e-11
# Float roundoff allowance on the proven bound w <= 1/cos(pi/n).
COS_BOUND_SLACK = 1e-12

Check = tuple[str, bool]


@dataclass(frozen=True)
class Workload:
    """One workload: its CLI invocations and the checker for their outputs."""

    name: str
    invocations: tuple[tuple[str, ...], ...]
    check: Callable[[list[str]], list[Check]]
    smoke: bool


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def prepare(name: str, seed: int, smoke: bool = False) -> Workload:
    """Build the invocations and reference data of workload `name`.

    The family workloads are fixed by the paper and ignore `seed`; the random
    suite feeds it to ``random-test --seed``.
    """
    reference = load_reference()
    if name == "paper_scaling":
        kmax = 2 if smoke else SCALING_KMAX
        tol = reference["scaling"]["tol"]
        rows = {row["n"]: row for row in reference["scaling"]["rows"]}
        expected = [8 * k + 4 for k in range(1, kmax + 1)]
        argv = ("extremal", "scaling", "--kmin", "1", "--kmax", str(kmax),
                "--format", "csv")
        return Workload(name, (argv,),
                        lambda outs: check_scaling(outs[0], expected, rows, tol),
                        smoke)
    if name == "paper_verify":
        n = 12 if smoke else VERIFY_N
        names = reference["verify_checks"]
        argv = ("extremal", "verify", "--n", str(n), "--format", "json")
        return Workload(name, (argv,),
                        lambda outs: check_verify(outs[0], n, names), smoke)
    if name == "random_suite":
        samples = 5 if smoke else RANDOM_SAMPLES
        argvs = tuple(("random-test", "--rho", rho, "--dim-min", "2",
                       "--dim-max", "8", "--samples", str(samples),
                       "--seed", str(seed)) for rho in RANDOM_RHOS)

        def check(outs: list[str]) -> list[Check]:
            return [c for rho, out in zip(RANDOM_RHOS, outs)
                    for c in check_random(out, float(rho), samples, seed)]
        return Workload(name, argvs, check, smoke)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def check_scaling(text: str, expected_ns: list[int], reference: dict,
                  tol: float) -> list[Check]:
    """Checks on ``extremal scaling --format csv`` output."""
    try:
        lines = text.splitlines()
        if lines[0] != "n,eps,delta,w,w_inv" or not lines[-1].startswith("# slope="):
            raise ValueError("unexpected header or trailer")
        slope = float(lines[-1].split("=", 1)[1])
        rows = []
        for line in lines[1:-1]:
            n, _eps, delta, w, w_inv = line.split(",")
            rows.append((int(n), float(delta), float(w), float(w_inv)))
    except (ValueError, IndexError):
        return [("scaling.parse", False)]
    checks = [("scaling.parse", True),
              ("scaling.rows", [r[0] for r in rows] == expected_ns),
              ("scaling.slope", SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1])]
    for n, delta, w, w_inv in rows:
        bound = 1.0 / math.cos(math.pi / n)
        ref = reference.get(n)
        checks.append((f"scaling.delta.n{n}",
                       abs(delta - 1.0 / (8.0 * math.sqrt(n))) <= DELTA_TOL))
        for key, value in (("w", w), ("w_inv", w_inv)):
            checks.append((f"scaling.{key}_bound.n{n}",
                           value <= bound + COS_BOUND_SLACK))
            checks.append((f"scaling.{key}_reference.n{n}",
                           ref is not None and abs(value - ref[key]) <= tol))
    return checks


def check_verify(text: str, n: int, expected: list[str]) -> list[Check]:
    """Checks on ``extremal verify --format json`` output."""
    try:
        payload = json.loads(text)
        present = {f"{rep['label']}.{c['name']}"
                   for rep in payload["reports"] for c in rep["checks"]}
        all_pass = payload["all_pass"] is True
        same_n = payload["n"] == n
    except (ValueError, KeyError, TypeError):
        return [("verify.parse", False)]
    checks = [("verify.parse", True), ("verify.n", same_n),
              ("verify.all_pass", all_pass)]
    checks.extend((f"verify.present.{name}", name in present) for name in expected)
    return checks


def check_random(text: str, rho: float, samples: int, seed: int) -> list[Check]:
    """Checks on ``random-test --format json`` output at one rho."""
    tag = f"random.rho{rho:g}"
    try:
        payload = json.loads(text)
        fields = (payload["rho"], payload["samples"], payload["seed"],
                  payload["violations"], payload["gap_violations"])
    except (ValueError, KeyError, TypeError):
        return [(f"{tag}.parse", False)]
    got_rho, got_samples, got_seed, violations, gap_violations = fields
    return [(f"{tag}.parse", True),
            (f"{tag}.run", got_rho == rho and got_samples == samples
             and got_seed == seed),
            (f"{tag}.violations", violations == 0),
            (f"{tag}.gap_violations", gap_violations == 0)]
