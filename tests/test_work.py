"""Exact work counts of the north-star runs.

Each run goes through `cli.main` with numpy's dense kernels wrapped, counting
per (kernel, size, dtype) the matrices solved (a stack of k matrices counts
k) and the calls taken, and per run the flop total by per-kernel weights,
complex weighted 4. The pins are tests/data/work_counts.json, which `python
tools/work_counts.py` writes from the same counter. Wall times on a shared
machine resolve about 10% at best; these counts are exact. A change that adds
work to a run fails here; one that removes work regenerates the file, which
lowers the pins.
"""

import importlib.util
import json
import os

import pytest

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "work_counts.py")
_spec = importlib.util.spec_from_file_location("work_counts", TOOL)
work_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(work_counts)

with open(os.path.join(os.path.dirname(__file__), "data", "work_counts.json"),
          encoding="utf-8") as _fh:
    PINS = json.load(_fh)


def test_pins_cover_every_run():
    assert list(PINS) == list(work_counts.RUNS)


@pytest.mark.parametrize("run", list(PINS))
def test_work_is_at_most_its_pin(run, capsys):
    got, pin = work_counts.count(run), PINS[run]
    capsys.readouterr()
    pinned = {tuple(row[:3]): row[3:] for row in pin["rows"]}
    over = {key: (value, pinned.get(key, [0, 0]))
            for key, value in ((tuple(row[:3]), row[3:]) for row in got["rows"])
            if any(g > p for g, p in zip(value, pinned.get(key, [0, 0])))}
    assert over == {}, f"[matrices, calls] against pin: {over}"
    assert got["flops"] <= pin["flops"]


def test_family_runs_take_no_inv_or_eigh():
    # the DFT gives A^-1, ||A|| and F, and one shifted solve each witness:
    # a scaling row takes no svd, inv or eigh, verify only its 4 norm SVDs
    scaling = PINS["extremal scaling --kmin 1 --kmax 18"]["kernels"]
    assert set(scaling) == {"eigvalsh", "solve"}
    for n in (148, 252, 500):
        assert PINS[f"extremal verify --n {n}"]["kernels"] == {
            "eigvalsh": [7, 7], "solve": [2, 2], "svd": [4, 4]}


def test_random_runs_take_one_svd_and_inv_call_per_size():
    # the draws take their SVDs and inverses in one stacked call per size,
    # dims 2-8, and the radii at rho 1 their SVDs with vectors apart
    for rho in ("1", "1.5", "2"):
        rows = PINS[f"random-test --rho {rho} --samples 200"]["rows"]
        calls = {(k, n): c for k, n, _, _, c in rows if k in ("svd", "inv")}
        assert calls == {(k, n): 1 for k in ("svd", "inv") for n in range(2, 9)}


def test_regenerating_gives_identical_bytes():
    records = {run: work_counts.record(
        {(k, n, dtype): [m, c] for k, n, dtype, m, c in rec["rows"]})
        for run, rec in PINS.items()}
    with open(os.path.join(os.path.dirname(__file__), "data", "work_counts.json"),
              encoding="utf-8") as fh:
        assert work_counts.render(records) == fh.read()
