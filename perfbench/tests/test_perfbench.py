"""Self-tests of the benchmark: checkers, tracer and smoke runs; no timing asserts.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

cli = run.import_cli()


def outputs_of(wl):
    _, _, outputs, codes = run.run_repeat(cli, wl)
    assert codes == [0] * len(wl.invocations)
    return outputs


@pytest.fixture(scope="module")
def smoke():
    """Smoke workloads with one untraced repeat's outputs."""
    result = {}
    for name in workloads.NAMES:
        wl = workloads.prepare(name, seed=5, smoke=True)
        result[name] = (wl, outputs_of(wl))
    return result


def failed(checks):
    return [name for name, passed in checks if not passed]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_outputs_pass(smoke, name):
    wl, outputs = smoke[name]
    checks = wl.check(outputs)
    assert len(checks) > 3
    assert failed(checks) == []


def _corruptions(name, text):
    """Corrupted variants of one invocation's output."""
    yield text[: len(text) // 2]
    yield "garbage\n"
    if name == "paper_scaling":
        header, first, *rest = text.splitlines(keepends=True)
        n, eps, delta, w, w_inv = first.rstrip("\n").split(",")
        yield header + ",".join([n, eps, repr(float(delta) * (1 + 1e-6)), w, w_inv]) + "\n" + "".join(rest)
        yield header + ",".join([n, eps, delta, repr(float(w) + 1e-3), w_inv]) + "\n" + "".join(rest)
        yield header + "".join(rest)
        yield text.replace("# slope=", "# slope=9", 1)
    elif name == "paper_verify":
        payload = json.loads(text)
        payload["all_pass"] = False
        yield json.dumps(payload)
        payload = json.loads(text)
        payload["reports"][0]["checks"].pop()
        yield json.dumps(payload)
    else:
        payload = json.loads(text)
        payload["violations"] = 1
        yield json.dumps(payload)
        payload = json.loads(text)
        payload["gap_violations"] = 2
        yield json.dumps(payload)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_corrupted_output_counts_as_failure(smoke, name):
    wl, outputs = smoke[name]
    for index, text in enumerate(outputs):
        for bad in _corruptions(name, text):
            corrupted = list(outputs)
            corrupted[index] = bad
            assert failed(wl.check(corrupted)), (name, index, bad[:80])


def test_ledger_counts_failures_and_changed_bytes(smoke):
    wl, outputs = smoke["paper_verify"]
    ledger = run.Ledger()
    run.check_repeat(ledger, wl, outputs, [0], outputs, "a")
    assert ledger.failures == []
    bad = [outputs[0].replace("true", "false", 1)]
    run.check_repeat(ledger, wl, bad, [1], outputs, "b")
    assert "b.identical_bytes" in ledger.failures
    assert any("exit_code" in f for f in ledger.failures)
    assert ledger.attempted > len(ledger.failures) > 0


def traced_run(wl):
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        outputs = outputs_of(wl)
    return outputs, tracer.spans, tracing.layer_metrics(tracer.spans)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_smoke_counts_repeat_and_bytes_match(smoke, name):
    wl, plain = smoke[name]
    out1, spans, first = traced_run(wl)
    out2, _, second = traced_run(wl)
    assert out1 == plain and out2 == plain
    for metric in tracing.EXACT_COUNTS:
        assert first[metric] == second[metric], metric
    assert first["kernel.eigvalsh.matrices"][0] > 0
    names = {s.name for s in spans}
    assert "cli.main" in names
    ids = {s.id for s in spans}
    assert all(s.parent is None or s.parent in ids for s in spans)
    assert sum(s.parent is None for s in spans) == len(wl.invocations)


def test_tracer_is_removed_after_the_traced_run():
    import numpy as np
    import opradius.cli
    import opradius.extremal
    before = (np.linalg.eigvalsh, opradius.cli.numerical_radius,
              opradius.extremal.numerical_radius)
    with tracing.installed(tracing.Tracer()):
        assert opradius.cli.numerical_radius is not before[1]
        assert opradius.extremal.numerical_radius is not before[2]
    assert (np.linalg.eigvalsh, opradius.cli.numerical_radius,
            opradius.extremal.numerical_radius) == before


def test_pool_worker_spans_attach_to_scaling_experiment():
    wl = workloads.prepare("paper_scaling", seed=0, smoke=True)
    _, spans, metrics = traced_run(wl)
    pool = [s for s in spans if s.name == tracing.POOL_SPAN]
    assert len(pool) == 1
    rows = [s for s in spans if s.name == "extremal.build"]
    assert len(rows) == 2 and all(s.parent == pool[0].id for s in rows)
    assert metrics["radii.numerical_radius.calls"][0] == 4
    assert metrics["radii.exact_ratio"][0] == 1.0
    assert metrics["radii.support_evals"][0] > 0
    assert 0 < metrics["radii.gap_over_tol"][0] <= 1


def test_random_suite_layers():
    wl = workloads.prepare("random_suite", seed=3, smoke=True)
    _, _, metrics = traced_run(wl)
    # 5 samples per rho: rho 1.5 runs sphere ascent for A and its inverse,
    # rho 2 the certified sweep, so half of the radius results are exact
    assert metrics["radii.sphere_maximize.calls"][0] == 10
    assert metrics["radii.numerical_radius.calls"][0] == 10
    assert metrics["radii.exact_ratio"][0] == 0.5
    assert metrics["bounds.psi_rho_upper.calls"][0] == 15
    assert metrics["unitary.distance_to_unitaries.calls"][0] == 5
    assert metrics["linalg.polar.calls"][0] == 5


def test_covered_merges_overlaps():
    assert tracing._covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == 3.0
    assert tracing._covered([]) == 0.0


def test_command_prints_result_line():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "paper_verify",
         "--seed", "2", "--seconds", "0", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_command_fails_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith((".py", ".json")):
            (bench / name).write_bytes(open(os.path.join(BENCH, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_flags_different_fingerprints(tmp_path):
    import compare
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
    prints = [run.fingerprint(), dict(run.fingerprint(), blas_threads=-1)]
    paths = []
    for i, fp in enumerate(prints):
        path = tmp_path / f"out{i}.txt"
        path.write_text(run.FINGERPRINT_PREFIX + json.dumps(fp) + "\n"
                        + json.dumps(result) + "\n")
        paths.append(str(path))
    assert compare.main([paths[0], paths[0]]) == 0
    assert compare.main(paths) == 1
