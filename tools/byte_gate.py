"""Compare the CLI output of two opradius source trees, invocation by invocation.

    python tools/byte_gate.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts. Every
invocation of a fixed list runs once per side, each in its own
`python -m opradius.cli` process with that side's `src` first on PYTHONPATH.
The list covers every subcommand in csv, json and text (`gap` and
`random-test` at rho 1, 1.5 and 2), `random-test --samples 40 --dim-min 30
--dim-max 40` in csv at rho 1, 1.5 and 2, whose samples fill more than one
block (about 4 s per side; at rho 1 they run on the stacked-SVD path),
the benchmark's two family runs and the paper's largest ones (`extremal
verify --n 500` and `extremal scaling --kmin 1 --kmax 18`, about a second
each), the usage-error paths and two `--out` artifacts. Input matrices are written once to a temporary directory that
both sides share, so file paths in messages agree.

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
# "{GAUSS}", "{WITNESS}", "{SINGULAR}", "{MISSING}" stand for input files and
# "{OUT}" for an artifact path of the running side.
INVOCATIONS = (
    [["gap", "--matrix", "{GAUSS}", "--rho", rho, "--format", fmt]
     for rho in ("1", "1.5", "2") for fmt in FORMATS]
    + [["bounds", "--rho", "1.5", "--r-min", "1", "--r-max", "1.3", "--steps", "7",
        "--format", fmt] for fmt in FORMATS]
    + [["range", "--matrix", "{GAUSS}", "--samples", "32", "--format", fmt]
       for fmt in FORMATS]
    + [["random-test", "--rho", rho, "--samples", "20", "--format", fmt]
       for rho in ("1", "1.5", "2") for fmt in FORMATS]
    # samples up to 40 x 40, which random-test certifies in several blocks
    + [["random-test", "--rho", rho, "--samples", "40", "--dim-min", "30",
        "--dim-max", "40", "--format", "csv"] for rho in ("1", "1.5", "2")]
    + [["extremal", "verify", "--n", "12", "--format", fmt] for fmt in FORMATS]
    + [["extremal", "verify", "--n", "12", "--json"]]
    + [["extremal", "scaling", "--kmin", "1", "--kmax", "3", "--format", fmt]
       for fmt in FORMATS]
    # the benchmark's two family workloads, then the paper's largest runs
    + [["extremal", "verify", "--n", "100", "--format", "csv"],
       ["extremal", "scaling", "--kmin", "1", "--kmax", "8", "--format", "csv"],
       ["extremal", "verify", "--n", "500", "--format", "csv"],
       ["extremal", "scaling", "--kmin", "1", "--kmax", "18", "--format", "csv"]]
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
    files = {"GAUSS": gauss, "WITNESS": np.array([[1.0, 1.5], [0.0, -1.0]]),
             "SINGULAR": np.zeros((2, 2))}
    paths = {"MISSING": os.path.join(directory, "missing.json")}
    for name, a in files.items():
        paths[name] = os.path.join(directory, f"{name.lower()}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(_payload(a))
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
