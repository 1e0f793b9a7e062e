"""Compare two saved outputs of run.py, or flag them when their machines differ.

    python3 perfbench/run.py --workload paper_verify --seed 1 > before.txt
    python3 perfbench/run.py --workload paper_verify --seed 1 > after.txt
    python3 perfbench/compare.py before.txt after.txt

Prints each metric's change and whether it is worse than the bound that
BENCHMARK.json fixes for it. Outputs whose machine fingerprints differ (CPU
count or affinity, BLAS library or threads, numpy or Python version, thread
environment variables) are not compared: the command names the differing
fields and exits with code 1. One pair of runs is a first look; a claimed gain
needs the repeated pairs described in README.md.
"""

from __future__ import annotations

import json
import os
import sys

from run import FINGERPRINT_PREFIX, ROOT


def read(path: str) -> tuple[list[dict], dict]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    prints = [json.loads(line[len(FINGERPRINT_PREFIX):]) for line in lines
              if line.startswith(FINGERPRINT_PREFIX)]
    if not prints or not lines:
        raise SystemExit(f"error: {path} is not an output of run.py")
    return prints, json.loads(lines[-1])


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        raise SystemExit(__doc__)
    (base_prints, base), (new_prints, new) = read(argv[0]), read(argv[1])
    differing = sorted({key for a in base_prints for b in new_prints
                        for key in a.keys() | b.keys() if a.get(key) != b.get(key)})
    if differing:
        print("not compared: machine fingerprints differ in " + ", ".join(differing))
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    rules = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for name, entry in base["metrics"].items():
        if name not in new["metrics"]:
            continue
        before, after = entry["value"], new["metrics"][name]["value"]
        rule = rules.get(name) or rules.get(name.split(".", 1)[-1], {})
        change = after / before - 1.0 if before else float("nan")
        worse = change if rule.get("better") == "lower" else -change
        verdict = ""
        if "bound" in rule:
            verdict = "WORSE than bound" if worse > rule["bound"] else "within bound"
        print(f"{name:<48} {before:>14.6g} -> {after:<14.6g} {change:+8.2%} "
              f"{entry['unit']:<6} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
