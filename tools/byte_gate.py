"""Compare the CLI output of two opradius source trees, invocation by invocation.

    python tools/byte_gate.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts. Every
invocation of INVOCATIONS below runs once per side, each in its own `python -m
opradius.cli` process with that side's `src` first on PYTHONPATH. The list
covers every subcommand in every format, the paper's largest family runs and
the usage-error paths; its comments give the reason for each group. Input
matrices are written once to a temporary directory that both sides share, so
file paths in messages agree.

One line per invocation says whether stdout (followed by the `--out` file,
if any), the stderr text and the exit code match; differing stderr is printed
for both sides. A differing stdout is followed by how far it moved: the
largest relative change among its numbers when the text between them
matches, else `layout differs`. The exit status is 1 if anything differs,
else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np

FORMATS = ("csv", "json", "text")
# "{GAUSS}", "{SYMMETRIC}", "{WITNESS}", "{SINGULAR}", "{HUGE}", "{BIG}",
# "{OVER}", "{BIGINT}", "{MISSING}" stand for input files and "{OUT}" for an artifact path of the
# running side.
INVOCATIONS = (
    # every subcommand in every format, gap and random-test at rho 1, 1.5 and 2
    [["gap", "--matrix", "{GAUSS}", "--rho", rho, "--format", fmt]
     for rho in ("1", "1.5", "2") for fmt in FORMATS]
    + [["bounds", "--rho", "1.5", "--r-min", "1", "--r-max", "1.3", "--steps", "7",
        "--format", fmt] for fmt in FORMATS]
    # the default rho 2 table, whose psi_lower is its X column, and a
    # rho 1.5 table where r^2 and the product under X_rho's root overflow
    + [["bounds", "--format", "csv"],
       ["bounds", "--rho", "1.5", "--r-min", "1e100", "--r-max", "1e300", "--steps", "3",
        "--format", "csv"]]
    + [["range", "--matrix", "{GAUSS}", "--samples", "32", "--format", fmt]
       for fmt in FORMATS]
    + [["random-test", "--rho", rho, "--samples", "20", "--format", fmt]
       for rho in ("1", "1.5", "2") for fmt in FORMATS]
    # samples up to 40 x 40 (at rho 1 on the stacked-SVD path): 40 fit one
    # 2 MiB block of the radii's streaming, 120 take three
    + [["random-test", "--rho", rho, "--samples", samples, "--dim-min", "30",
        "--dim-max", "40", "--format", "csv"]
       for samples in ("40", "120") for rho in ("1", "1.5", "2")]
    # the rho-pencil near rho = 1 and below its middle
    + [["gap", "--matrix", "{GAUSS}", "--rho", "1.000001", "--format", "csv"],
       ["random-test", "--rho", "1.25", "--samples", "20", "--format", "csv"]]
    # a complex symmetric matrix and its inverse: the real S_theta path and
    # its witness pass on the full circle
    + [["gap", "--matrix", "{SYMMETRIC}", "--rho", rho, "--format", "csv"]
       for rho in ("2", "1.5")]
    # the smallest tol, where the rounding guard's tol/2 cap binds and the
    # end-case interval bounds decide when an owner stops
    + [["random-test", "--rho", rho, "--samples", "30", "--tol", "1e-12",
        "--format", "csv"] for rho in ("2", "1.5")]
    + [["extremal", "verify", "--n", "12", "--format", fmt] for fmt in FORMATS]
    + [["extremal", "verify", "--n", "12", "--json"]]
    + [["extremal", "scaling", "--kmin", "1", "--kmax", "3", "--format", fmt]
       for fmt in FORMATS]
    # the benchmark's two family workloads, then the paper's largest runs
    + [["extremal", "verify", "--n", "100", "--format", "csv"],
       ["extremal", "scaling", "--kmin", "1", "--kmax", "8", "--format", "csv"],
       ["extremal", "verify", "--n", "500", "--format", "csv"],
       ["extremal", "scaling", "--kmin", "1", "--kmax", "18", "--format", "csv"]]
    # members up to n = 500 = MAX_DIM, each past the block budget alone
    + [["extremal", "scaling", "--kmin", "60", "--kmax", "62", "--format", "csv"]]
    # a tight scaling table in json: every member's claim is measured against
    # tol/2 = 5e-10, and more than one refinement round runs per member
    + [["extremal", "scaling", "--kmin", "2", "--kmax", "6", "--tol", "1e-9",
        "--format", "json"]]
    # usage errors, then two --out artifacts
    + [
        ["gap", "--matrix", "{WITNESS}", "--tol", "0.5"],
        ["random-test", "--samples", "2", "--tol", "1e-13"],
        ["gap", "--matrix", "{WITNESS}", "--rho", "2.5"],
        ["random-test", "--samples", "2", "--rho", "0.5"],
        ["bounds", "--rho", "2.5"],
        ["bounds", "--rho", "0.5"],
        ["extremal", "verify", "--n", "13"],
        ["gap", "--matrix", "{SINGULAR}"],
        ["gap", "--matrix", "{MISSING}"],
        ["range", "--matrix", "{MISSING}"],
        ["bounds", "--r-min", "0.5", "--steps", "3"],
        ["bounds", "--r-min", "nan", "--steps", "3"],
        ["bounds", "--r-max", "nan", "--steps", "3"],
        ["bounds", "--r-max", "inf", "--steps", "3"],
        # count errors, one per counted argument of the CLI
        ["random-test", "--samples", "0"],
        ["random-test", "--dim-min", "5", "--dim-max", "3"],
        ["bounds", "--steps", "0"],
        ["range", "--matrix", "{GAUSS}", "--samples", "4"],
        ["extremal", "scaling", "--kmin", "3", "--kmax", "2"],
        # entries beyond the radii's input limit ({HUGE} = 1e308 I), at every
        # rho, and for float64 itself ({BIGINT}, a JSON integer beyond its
        # range); the range of {HUGE}, sampled at unit scale, stays finite
        ["gap", "--matrix", "{HUGE}", "--rho", "1.5"],
        ["gap", "--matrix", "{HUGE}", "--rho", "2"],
        ["gap", "--matrix", "{HUGE}", "--rho", "1", "--format", "csv"],
        ["range", "--matrix", "{HUGE}", "--samples", "8", "--format", "csv"],
        ["gap", "--matrix", "{BIGINT}"],
        # radii near 1e200 ({BIG} = 1e200 {GAUSS}), inside the input limit:
        # the envelope's r^2 and discriminant overflow float64 while the
        # bound itself does not
        ["gap", "--matrix", "{BIG}", "--rho", "1.5", "--format", "csv"],
        ["gap", "--matrix", "{BIG}", "--rho", "1.5", "--format", "json"],
        ["gap", "--matrix", "{BIG}", "--rho", "2", "--format", "csv"],
        ["gap", "--matrix", "{BIG}", "--rho", "2", "--format", "json"],
        # support values beyond float64 ({OVER} = 1.7e308 in every entry),
        # though each entry is finite
        ["range", "--matrix", "{OVER}", "--samples", "8", "--format", "csv"],
        ["bounds", "--steps", "5", "--out", "{OUT}"],
        ["random-test", "--rho", "1.5", "--samples", "10", "--out", "{OUT}"],
    ]
)


def _payload(a: np.ndarray) -> str:
    a = np.asarray(a, dtype=np.complex128)
    return json.dumps({"dim": a.shape[0], "re": a.real.ravel().tolist(),
                       "im": a.imag.ravel().tolist()})


def write_inputs(directory: str) -> dict[str, str]:
    """The input files of INVOCATIONS, by placeholder name."""
    rng = np.random.default_rng(2011)
    gauss = (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))) / np.sqrt(12)
    files = {"GAUSS": gauss, "SYMMETRIC": (gauss + gauss.T) / 2,
             "WITNESS": np.array([[1.0, 1.5], [0.0, -1.0]]),
             "SINGULAR": np.zeros((2, 2)), "HUGE": 1e308 * np.eye(2),
             "BIG": 1e200 * gauss, "OVER": np.full((3, 3), 1.7e308)}
    texts = {name: _payload(a) for name, a in files.items()}
    # a JSON integer beyond float64's range
    texts["BIGINT"] = json.dumps({"dim": 2, "re": [10**400, 0, 0, 1], "im": [0] * 4})
    paths = {"MISSING": os.path.join(directory, "missing.json")}
    for name, text in texts.items():
        paths[name] = os.path.join(directory, f"{name.lower()}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    return paths


def run_side(src: str, argv: list[str], workdir: str) -> tuple[bytes, str, int]:
    """(stdout followed by any --out file, stderr, exit code) of one run."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-m", "opradius.cli", *argv],
                          capture_output=True, env=env, cwd=workdir, timeout=600)
    stdout = proc.stdout
    if "--out" in argv:
        out = argv[argv.index("--out") + 1]
        if os.path.exists(out):
            with open(out, "rb") as fh:
                stdout += fh.read()
            os.unlink(out)
    return stdout, proc.stderr.decode("utf-8", "replace"), proc.returncode


# a decimal number; splitting on it with the group kept puts numbers at the
# odd indices and the text between them at the even ones
NUMBER = re.compile(rb"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def drift(parent: bytes, change: bytes) -> str:
    """How far change's output moved from parent's: the largest relative
    change among the numbers if the text between them matches."""
    p_parts, c_parts = NUMBER.split(parent), NUMBER.split(change)
    if len(p_parts) != len(c_parts) or p_parts[::2] != c_parts[::2]:
        return "layout differs"
    worst = 0.0
    for p, c in zip(map(float, p_parts[1::2]), map(float, c_parts[1::2])):
        if p != c:
            worst = max(worst, abs(c - p) / abs(p) if p else float("inf"))
    return f"largest relative change {worst:.2g}"


def check_source(src: str) -> None:
    """Exit with a message unless `import opradius` resolves into src."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    found = subprocess.run([sys.executable, "-c", "import opradius; print(opradius.__file__)"],
                           capture_output=True, text=True, env=env).stdout.strip()
    if not found.startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"error: opradius from {src!r} imports as {found or 'nothing'!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    ns = parser.parse_args(argv)
    for src in (ns.parent_src, ns.change_src):
        check_source(src)
    mismatches = 0
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(tmp)
        for template in INVOCATIONS:
            results = []
            for side in ("parent", "change"):
                argv_side = [arg.format(**paths, OUT=os.path.join(tmp, f"{side}.out"))
                             for arg in template]
                results.append(run_side(getattr(ns, f"{side}_src"), argv_side, tmp))
            (p_out, p_err, p_code), (c_out, c_err, c_code) = results
            same = (p_out == c_out, p_err == c_err, p_code == c_code)
            mismatches += not all(same)
            marks = " ".join(f"{name}={'same' if ok else 'DIFF'}"
                             for name, ok in zip(("stdout", "stderr", "exit"), same))
            label = " ".join(template).format(**{k: k for k in (*paths, "OUT")})
            print(f"{marks} [{p_code}/{c_code}]  {label}")
            if not same[0]:
                print(f"    stdout: {drift(p_out, c_out)}")
            if not same[1]:
                print(f"    parent stderr: {p_err.rstrip()}")
                print(f"    change stderr: {c_err.rstrip()}")
    print(f"{len(INVOCATIONS) - mismatches}/{len(INVOCATIONS)} invocations identical")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
