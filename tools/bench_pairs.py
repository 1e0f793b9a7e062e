"""Benchmark a parent revision against this working tree in alternating pairs.

    python tools/bench_pairs.py PARENT_REV --pairs N --seed0 S --out BENCH_<pr>.json

The parent's `src` and `perfbench` are extracted with `git archive PARENT_REV
src perfbench | tar -x` into a temporary directory; the change is the working
tree that holds this script. Pair i = 1..N runs `perfbench/run.py --seed
S+i-1` once on each side, the parent first in odd pairs and the change first in
even ones, so drift of the machine's speed falls on both sides alike. Then
each side makes one `--trace 1` run at seed S+N for the per-layer metrics.

The JSON file has, per side, the commit, the machine fingerprint, the failed
and attempted checks summed over the pairs, the median and quartiles of every
end-to-end metric over the pairs and the traced run's result; and, per
end-to-end metric, the number of pairs in which the change measured lower.
The raw stdout of every run goes to `<out stem>.parent.txt` and
`<out stem>.change.txt`. Nothing is written when a run fails or when the two
sides' fingerprints differ, because then their numbers are not comparable.

`--seconds` and `--smoke` are passed on to run.py (`--pairs 1 --seconds 1
--smoke` is a quick check of the tool itself).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
END_TO_END = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")
FINGERPRINT_PREFIX = "fingerprint: "


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def extract(rev: str, directory: str) -> None:
    """Write rev's src and perfbench into directory."""
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev, "src", "perfbench"],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", directory], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"error: git archive {rev} failed")


def run(tree: str, seed: int, ns, trace: int) -> tuple[str, dict]:
    """(stdout, final JSON result) of one perfbench/run.py run in tree."""
    cmd = [sys.executable, "perfbench/run.py", "--seed", str(seed),
           "--seconds", str(ns.seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd + (["--smoke"] if ns.smoke else []), cwd=tree,
                          capture_output=True, text=True, timeout=3600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(cmd)} in {tree} exited with "
                         f"{proc.returncode}:\n{proc.stderr}")
    return proc.stdout, json.loads(lines[-1])


def fingerprints(stdout: str) -> set[str]:
    return {line[len(FINGERPRINT_PREFIX):] for line in stdout.splitlines()
            if line.startswith(FINGERPRINT_PREFIX)}


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(commit: str, fingerprint: str, results: list[dict], trace_seed: int,
              trace: dict) -> dict:
    """One side's block of the JSON file."""
    names = [name for name in results[0]["metrics"] if name.rsplit(".", 1)[-1] in END_TO_END]
    median, quartiles = {}, {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        median[name] = {"value": statistics.median(values),
                        "unit": results[0]["metrics"][name]["unit"]}
        quartiles[name] = _quartiles(values)
    return {
        "commit": commit,
        "fingerprint": json.loads(fingerprint),
        "failed_checks": sum(r["failed"] for r in results),
        "attempted_checks": sum(r["attempted"] for r in results),
        "median_end_to_end": median,
        "quartiles_end_to_end": quartiles,
        "trace_seed": trace_seed,
        "trace": trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_rev")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=9101)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", required=True, help="BENCH_<pr>.json to write")
    ns = parser.parse_args(argv)
    if ns.pairs < 1:
        parser.error("--pairs must be >= 1")
    parent_commit = _git("rev-parse", "--verify", ns.parent_rev + "^{commit}")
    head = _git("rev-parse", "HEAD")
    dirty = _git("status", "--porcelain", "--", "src", "perfbench")
    change_commit = f"working tree over {head}" if dirty else head
    seeds = [ns.seed0 + i for i in range(ns.pairs)]
    trace_seed = ns.seed0 + ns.pairs
    stdout = {"parent": [], "change": []}
    results = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as parent_tree:
        extract(parent_commit, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                print(f"pair {i + 1}/{ns.pairs}  seed {seed}  {side}", file=sys.stderr)
                out, result = run(trees[side], seed, ns, 0)
                stdout[side].append(out)
                results[side].append(result)
        traces = {}
        for side in ("parent", "change"):
            print(f"trace  seed {trace_seed}  {side}", file=sys.stderr)
            out, traces[side] = run(trees[side], trace_seed, ns, 1)
            stdout[side].append(out)
    seen = fingerprints("".join(stdout["parent"] + stdout["change"]))
    if len(seen) != 1:
        print("error: the fingerprints differ, so nothing is written:\n  "
              + "\n  ".join(sorted(seen)), file=sys.stderr)
        return 1
    fingerprint = seen.pop()
    commits = {"parent": parent_commit, "change": change_commit}
    report = {
        "command": f"python3 perfbench/run.py --seed SEED ({ns.seconds:g} s per "
                   f"workload, every workload{', smoke' if ns.smoke else ''})",
        "pairs": ns.pairs,
        "seeds": seeds,
        "order": f"parent first in odd pairs (seeds {seeds[0]}, "
                 f"{seeds[0] + 2}, ...), change first in even ones",
    }
    for side in ("parent", "change"):
        report[side] = summarize(commits[side], fingerprint, results[side],
                                 trace_seed, traces[side])
    report["change_lower_in_pairs"] = {
        name: sum(c["metrics"][name]["value"] < p["metrics"][name]["value"]
                  for p, c in zip(results["parent"], results["change"]))
        for name in report["parent"]["median_end_to_end"]}
    stem = os.path.splitext(ns.out)[0]
    for side in ("parent", "change"):
        with open(f"{stem}.{side}.txt", "w", encoding="utf-8") as fh:
            fh.write("".join(stdout[side]))
    with open(ns.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report, indent=2) + "\n")
    for name, lower in report["change_lower_in_pairs"].items():
        p = report["parent"]["median_end_to_end"][name]
        c = report["change"]["median_end_to_end"][name]
        print(f"{name:<28} parent {p['value']:.6g}  change {c['value']:.6g} {p['unit']}"
              f"  change lower in {lower}/{ns.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
