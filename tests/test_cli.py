import json
import math
import os
import re
import stat
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import opradius
from opradius import bounds, cli, extremal, linalg, radii
from opradius.cli import main, random_test
from opradius.radii import numerical_radius, rho_radius
from opradius.unitary import distance_to_unitaries


def csv_by_blas_threads(argv):
    """The csv stdout of the CLI run argv with one BLAS thread and with two,
    each in a fresh process."""
    src = os.path.dirname(os.path.dirname(opradius.__file__))
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "opradius.cli", *argv, "--format", "csv"],
            capture_output=True, env=env, timeout=300, check=True)
        outs.append(proc.stdout)
    return outs


@pytest.fixture()
def witness_file(tmp_path):
    w, _ = bounds.lower_witness(1.25)
    path = tmp_path / "witness.json"
    linalg.save_matrix(path, w)
    return str(path)


class TestGap:
    def test_report_keys_and_values(self, witness_file, tmp_path, capsys):
        out = tmp_path / "gap.json"
        assert main(["gap", "--matrix", witness_file, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert set(report) == {"rho", "w", "w_inv", "distance", "norm_excess",
                               "inverse_excess", "bound"}
        assert report["distance"] == pytest.approx(1.0, abs=1e-10)
        assert report["w"] == pytest.approx(1.25, abs=1e-8)
        assert report["bound"] == pytest.approx(1.0 + math.sqrt(3.0), abs=1e-7)

    def test_stdout_json(self, witness_file, capsys):
        assert main(["gap", "--matrix", witness_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["distance"] <= report["bound"]

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["gap", "--matrix", str(tmp_path / "nope.json")]) == 2

    def test_singular_matrix_is_usage_error(self, tmp_path):
        path = tmp_path / "sing.json"
        linalg.save_matrix(path, np.zeros((2, 2)))
        assert main(["gap", "--matrix", str(path)]) == 2

    def test_huge_radii_keep_a_finite_bound(self, tmp_path, capsys):
        # radii near 1e200: the envelope's intermediates overflow, its value
        # does not, so every format reports a finite bound
        rng = np.random.default_rng(2011)
        gauss = (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))) / np.sqrt(12)
        path = tmp_path / "big.json"
        linalg.save_matrix(path, 1e200 * gauss)
        for rho in ("1.5", "2"):
            assert main(["gap", "--matrix", str(path), "--rho", rho]) == 0
            report = json.loads(capsys.readouterr().out)
            assert 1e200 < report["bound"] < 1e201
            assert report["distance"] <= report["bound"]

    def test_bound_beyond_float64_is_usage_error(self, tmp_path, capsys):
        # w = 5e307 passes the input limit, but psi(w) - 1 is about 2e308
        path = tmp_path / "edge.json"
        linalg.save_matrix(path, np.array([[5e307]]))
        for fmt in ("csv", "json", "text"):
            assert main(["gap", "--matrix", str(path), "--format", fmt]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: bound envelope exceeds the float64 range\n"

    def test_failed_bound_exits_1_after_the_report(self, witness_file, capsys,
                                                   monkeypatch):
        monkeypatch.setattr(cli, "stampfli_gap_bound", lambda *args: 0.0)
        assert main(["gap", "--matrix", witness_file]) == 1
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["bound"] == 0.0
        assert report["distance"] == pytest.approx(1.0, abs=1e-10)
        assert captured.err.startswith("check failed: distance ")

    def test_gap_echoes_the_clamped_rho(self, witness_file, capsys):
        # gap clamps like random-test: it reports and bounds at rho = 2,
        # which the text format prints as "2"
        outs = []
        for rho in ("2.0000000000001", "2"):
            assert main(["gap", "--matrix", witness_file, "--rho", rho,
                         "--format", "text"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0].startswith("rho = 2\n")
        assert outs[0] == outs[1]

    def test_prints_radii_below_one(self, tmp_path, capsys):
        # only the bound clamps the radii up to 1; w(0.5 I) = 0.5 and
        # w(2 I) = 2 are printed as certified
        path = tmp_path / "half.json"
        linalg.save_matrix(path, 0.5 * np.eye(2))
        assert main(["gap", "--matrix", str(path), "--format", "text"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:3] == ["w = 0.5", "w_inv = 2"]

    @pytest.mark.parametrize("rho, svds", [("2", 1), ("1.5", 1), ("1", 2)])
    def test_one_svd_of_a(self, rho, svds, witness_file, monkeypatch):
        # the unitary distance's SVD also refuses a singular A, so the inverse
        # takes none; at rho = 1 the radii take one stacked SVD of A and A^-1
        calls = []
        svd = np.linalg.svd

        def counting_svd(m, *args, **kwargs):
            calls.append(np.shape(m))
            return svd(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        assert main(["gap", "--matrix", witness_file, "--rho", rho]) == 0
        assert len(calls) == svds

    @pytest.mark.parametrize("payload", [
        {"dim": True, "re": [1.0], "im": [0.0]},
        {"dim": 1, "re": [{"a": 1}], "im": [0.0]},
        {"dim": 1, "re": ["1.5"], "im": [0.0]},
        {"dim": 1, "re": [1.5], "im": [True]},
        {"dim": 2, "re": [10**400, 0, 0, 1], "im": [0, 0, 0, 0]}],
        ids=["bool-dim", "dict-entry", "string-entry", "bool-entry", "huge-int-entry"])
    def test_malformed_matrix_file_is_usage_error(self, payload, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert main(["gap", "--matrix", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: matrix payload ")


class TestVerdictRules:
    # each rule passes a value just inside its allowance and fails one just
    # outside, at every site that applies it

    @pytest.mark.parametrize("inside", [True, False])
    @pytest.mark.parametrize("site", ["gap", "random-test"])
    def test_distance_rule_at_every_site(self, site, inside, witness_file, capsys,
                                         monkeypatch):
        # the gap bound psi - 1 sits this far below the distance
        below = 0.99e-8 if inside else 1.01e-8
        if site == "gap":
            distance = distance_to_unitaries(linalg.load_matrix(witness_file)).distance
            monkeypatch.setattr(cli, "stampfli_gap_bound", lambda *args: distance - below)
            assert main(["gap", "--matrix", witness_file]) == (0 if inside else 1)
            assert capsys.readouterr().err == (
                "" if inside else
                f"check failed: distance {distance:.12g} exceeds bound "
                f"{distance - below:.12g}\n")
            return
        # the sample's distance, read where random_test takes it
        distances = []
        excesses = cli._excesses
        monkeypatch.setattr(cli, "_excesses",
                            lambda s: distances.append(excesses(s)[0]) or excesses(s))
        random_test(2, 2, 1, 2.0)
        monkeypatch.setattr(cli.bounds_mod, "psi_rho_upper",
                            lambda rho, r: 1.0 + distances[0] - below)
        summary = random_test(2, 2, 1, 2.0)
        assert (summary.violations, summary.gap_violations) == (0, 0 if inside else 1)

    @pytest.mark.parametrize("inside", [True, False])
    def test_norm_rule(self, inside, monkeypatch):
        norm = random_test(2, 2, 1, 2.0).records[0].norm
        psi = norm / (1.0 + (0.99e-6 if inside else 1.01e-6))
        monkeypatch.setattr(cli.bounds_mod, "psi_rho_upper", lambda rho, r: psi)
        summary = random_test(2, 2, 1, 2.0)
        assert summary.records[0].violated is not inside
        assert summary.violations == (0 if inside else 1)


class TestBounds:
    def test_csv_shape(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["bounds", "--rho", "2", "--r-min", "1", "--r-max", "1.5",
                     "--steps", "11", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "r,X,psi_upper,psi_lower,asymptotic"
        assert len(lines) == 12
        first = [float(c) for c in lines[1].split(",")]
        assert first == [1.0, 1.0, 1.0, 1.0, 1.0]

    def test_psi_lower_is_the_x_column_at_rho_two(self, capsys):
        # at rho = 2 the lower envelope is X(r), the row's own X
        assert main(["bounds", "--format", "csv"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 101
        assert [row[3] for row in rows] == [row[1] for row in rows]

    def test_json_schema(self, capsys):
        assert main(["bounds", "--steps", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"rho", "rows"}
        assert set(payload["rows"][0]) == {"r", "X", "psi_upper", "psi_lower",
                                           "asymptotic"}

    @pytest.mark.parametrize("flag, value", [("--r-min", "nan"), ("--r-max", "nan"),
                                             ("--r-max", "inf")])
    def test_non_finite_r_is_usage_error(self, flag, value, capsys):
        # these used to print NaN rows and exit 0
        assert main(["bounds", flag, value, "--steps", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: r must be ")


class TestRange:
    def test_csv_columns_and_invariant(self, witness_file, tmp_path):
        out = tmp_path / "range.csv"
        assert main(["range", "--matrix", witness_file, "--samples", "16",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "theta,support_value,re,im"
        assert len(lines) == 17
        for line in lines[1:]:
            theta, support, re, im = (float(c) for c in line.split(","))
            assert support == pytest.approx(
                (np.exp(1j * theta) * complex(re, im)).real, abs=1e-9)

    def test_support_values_beyond_float64_are_usage_error(self, tmp_path, capsys):
        path = tmp_path / "over.json"
        linalg.save_matrix(path, np.full((3, 3), 1.7e308))
        assert main(["range", "--matrix", str(path), "--samples", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: radius bracket is not finite: matrix "
                                "entries too large for float64\n")

    def test_bad_samples_is_usage_error(self, witness_file):
        assert main(["range", "--matrix", witness_file, "--samples", "4"]) == 2


class TestRandomTest:
    def test_small_run_json(self, tmp_path):
        out = tmp_path / "rt.json"
        assert main(["random-test", "--samples", "5", "--seed", "7",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"rho", "samples", "dim_min", "dim_max", "seed",
                                "violations", "gap_violations", "max_ratio",
                                "worst_index", "worst_case"}
        assert payload["violations"] == 0
        worst = linalg.matrix_from_payload(payload["worst_case"])
        assert worst.shape[0] == payload["worst_case"]["dim"]

    def test_summary_determinism(self):
        a = random_test(2, 5, 8, 1.5, seed=11)
        b = random_test(2, 5, 8, 1.5, seed=11)
        assert a.max_ratio == b.max_ratio
        assert [r.ratio for r in a.records] == [r.ratio for r in b.records]

    def test_witness_injection_ratio(self):
        # the 2x2 witness at r = 5/4 scores exactly 2 / (2 + sqrt 3) through
        # the same quantities random_test uses
        w, _ = bounds.lower_witness(1.25)
        wa = numerical_radius(w, tol=1e-10).value
        r = max(1.0, wa)  # A is self-inverse, so both radii agree
        ratio = linalg.singular_values(w)[0] / bounds.psi_rho_upper(2.0, r)
        assert ratio == pytest.approx(2.0 / (2.0 + math.sqrt(3.0)), abs=1e-9)

    @pytest.mark.parametrize("rho", [1.5, 2.0])
    def test_records_match_single_matrix_radii(self, rho):
        # the lockstep sweeps per block give each sample exactly the radii of
        # its own rho_radius calls
        summary = random_test(2, 5, 16, rho, seed=13)
        assert {rec.dim for rec in summary.records} == {2, 3, 4, 5}
        draws = list(cli._draws(16, 2, 5, 13))
        assert len(draws) == len(summary.records)
        for rec, (i, dim, a, s) in zip(summary.records, draws):
            # each draw on its own substream, keyed by (seed, index)
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=13, spawn_key=(i,)))
            assert rec.index == i and dim == int(rng.integers(2, 6))
            np.testing.assert_array_equal(s, linalg.singular_values(a))
            w = rho_radius(a, rho, tol=1e-8).value
            w_inv = rho_radius(linalg.inverse(a), rho, tol=1e-8).value
            assert rec.dim == dim
            assert rec.r == max(1.0, float(np.sqrt(w * w_inv)))
            # ||tA|| = t ||A||, from the draw's own SVD
            t = np.sqrt(w_inv / w)
            assert rec.norm == float(t * s[0])
            scaled = linalg.singular_values(t * a)[0]
            assert rec.norm == pytest.approx(scaled, rel=1e-14, abs=0)

    def test_blocks_do_not_change_records(self, monkeypatch):
        whole = random_test(2, 5, 16, 1.5, seed=17)
        calls = []
        radii_call = radii._radii

        def spy(mats, *args, **kwargs):
            calls.append(len(mats))
            return radii_call(mats, *args, **kwargs)

        # room for three 5 x 5 samples and their inverses per block
        budget = 3 * 2 * 16 * 5 * 5
        monkeypatch.setattr(radii, "_BLOCK_BYTES", budget)
        monkeypatch.setattr(radii, "_radii", spy)
        blocked = random_test(2, 5, 16, 1.5, seed=17)
        # a block is swept once its samples and inverses reach the budget
        want, size = [0], 0
        for rec in whole.records:
            want[-1] += 2
            size += 2 * 16 * rec.dim ** 2
            if size >= budget:
                want, size = want + [0], 0
        assert calls == [c for c in want if c] == [12, 10, 10]
        assert blocked.records == whole.records
        assert (blocked.max_ratio, blocked.worst_index) == (whole.max_ratio,
                                                            whole.worst_index)
        assert blocked.worst_case.tobytes() == whole.worst_case.tobytes()

    @pytest.mark.parametrize("rho", ["2", "1.5", "1"])
    def test_failed_bound_exits_1_and_counts_both(self, rho, capsys, monkeypatch):
        # a norm bound of 1 fails every sample, and at every rho its unitary
        # distance consequence bound - 1 = 0 does too
        monkeypatch.setattr(cli.bounds_mod, "psi_rho_upper", lambda rho, r: 1.0)
        assert main(["random-test", "--samples", "3", "--rho", rho]) == 1
        assert capsys.readouterr().err == (
            "check failed: 3 norm violations, 3 gap violations\n")

    def test_validation(self):
        with pytest.raises(ValueError, match="samples"):
            random_test(2, 4, 0, 2.0)
        with pytest.raises(ValueError, match="dim"):
            random_test(5, 4, 3, 2.0)
        with pytest.raises(ValueError, match="rho"):
            random_test(2, 4, 3, 2.5)
        with pytest.raises(ValueError, match="tol"):
            random_test(2, 4, 3, 2.0, tol=0.5)
        # dim_min 2.5 would draw a 2 x 2 sample and report dim_min 2.5, and
        # samples True would run one sample and report samples: true
        for counts, name in [((2.5, 4.5, 3), "dim_min"), ((2, 4, 3.0), "samples"),
                             ((2, 4.0, 3), "dim_max"), ((2, 3, True), "samples"),
                             ((True, True, 3), "dim_min"), ((2, True, 3), "dim_max")]:
            with pytest.raises(ValueError, match=f"{name} must be an integer >= "):
                random_test(*counts, 2.0)

    def test_dim_max_is_capped_before_any_draw(self, monkeypatch, capsys):
        # dim_max 100000 would ask for a 160 GB draw: refused before any
        draws = []
        monkeypatch.setattr(cli, "_draws", lambda *args: draws.append(args) or iter(()))
        with pytest.raises(ValueError, match="dim_max is capped at 500, got 501"):
            random_test(2, 501, 3, 2.0)
        assert main(["random-test", "--samples", "3", "--dim-max", "100000"]) == 2
        assert "dim_max is capped at 500" in capsys.readouterr().err
        assert draws == []

    def test_gives_up_after_100_singular_draws(self, monkeypatch):
        draws = []

        def singular(a):
            draws.append(a)
            return np.array([1.0, 0.0])

        monkeypatch.setattr(cli, "singular_values", singular)
        with pytest.raises(RuntimeError, match="well-conditioned"):
            random_test(2, 2, 1, 2.0)
        assert len(draws) == 100

    @pytest.mark.parametrize("rho, message", [
        ("2.5", "error: rho must lie in [1, 2], got 2.5; "
                "the rho > 2 regime is unsupported\n"),
        ("0.5", "error: rho must lie in [1, 2], got 0.5\n")], ids=["2.5", "0.5"])
    def test_bad_rho_is_named_like_gap(self, rho, message, witness_file, capsys):
        # random-test and gap reject rho through the one check rho_radii uses
        for argv in (["random-test", "--rho", rho],
                     ["gap", "--matrix", witness_file, "--rho", rho]):
            assert main(argv) == 2
            assert capsys.readouterr().err == message

    def test_bytes_do_not_depend_on_blas_threads(self):
        # README's reproducibility contract: at rho 1.5 the csv is the same
        # with one BLAS thread and with two, run in fresh processes
        one, two = csv_by_blas_threads(["random-test", "--rho", "1.5", "--samples", "200"])
        assert len(one.splitlines()) == 201
        assert one == two

    def test_rho_within_rounding_of_two_is_clamped(self):
        # like rho_radii, random_test accepts rho within 1e-12 of [1, 2] and
        # clamps it
        near = random_test(2, 3, 2, 2.0 + 1e-13)
        exact = random_test(2, 3, 2, 2.0)
        assert near.rho == 2.0
        assert near.records == exact.records

    def test_pencil_eigensolves(self, monkeypatch):
        # the benchmark's rho = 1.5 run: 11,648 matrices under the cosine
        # minorant, 7,962 under the pencil's own
        solved = []
        eigvalsh = np.linalg.eigvalsh

        def spy(m, *args, **kwargs):
            solved.append(np.shape(m)[0])
            return eigvalsh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        random_test(2, 8, 200, 1.5, seed=1)
        assert sum(solved) <= 8_000

class TestExtremalVerify:
    def test_n12_passes(self, capsys):
        assert main(["extremal", "verify", "--n", "12"]) == 0
        assert "all passed" in capsys.readouterr().out

    def test_largest_member_passes(self, capsys):
        assert main(["extremal", "verify", "--n", "500"]) == 0
        assert capsys.readouterr().out.endswith("all passed\n")

    def test_congruence_violation_exit_2(self, capsys):
        assert main(["extremal", "verify", "--n", "13"]) == 2
        assert "8k" in capsys.readouterr().err

    def test_failed_check_exits_1_and_is_named(self, capsys, monkeypatch):
        monkeypatch.setattr(extremal, "check_symmetry", lambda fam: 1.0)
        assert main(["extremal", "verify", "--n", "12", "--format", "text"]) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert any(line.startswith("FAIL  rotation_symmetry.conjugation_residual")
                   for line in lines)
        assert lines[-1] == "FAILURES PRESENT"
        assert captured.err == "check failed: rotation_symmetry.conjugation_residual\n"

    def test_json_flag(self, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["extremal", "verify", "--n", "12", "--json",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["all_pass"] is True
        labels = {rep["label"] for rep in payload["reports"]}
        assert labels == {"rotation_symmetry", "norm_identity",
                          "hermitian_part_bound", "hermitian_part_certificate",
                          "inverse_hermitian_part_certificate", "radius_bound"}


class TestExtremalScaling:
    def test_csv_layout_and_checks(self, tmp_path):
        out = tmp_path / "scaling.csv"
        assert main(["extremal", "scaling", "--kmin", "1", "--kmax", "2",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n,eps,delta,w,w_inv"
        assert len(lines) == 4
        assert lines[-1].startswith("# slope=")
        row = lines[1].split(",")
        assert int(row[0]) == 12
        assert float(row[2]) == pytest.approx(1.0 / (8.0 * math.sqrt(12)), abs=1e-11)

    def test_byte_identical_reruns(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(["extremal", "scaling", "--kmin", "1", "--kmax", "2",
                     "--seed", "7", "--out", str(first)]) == 0
        assert main(["extremal", "scaling", "--kmin", "1", "--kmax", "2",
                     "--seed", "7", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_bad_range_exit_2(self):
        assert main(["extremal", "scaling", "--kmin", "3", "--kmax", "1"]) == 2

    def test_failed_identity_exits_1_and_is_named(self, capsys, monkeypatch):
        monkeypatch.setattr(extremal, "_norm_excess", lambda n: 0.0)
        assert main(["extremal", "scaling", "--kmin", "1", "--kmax", "2"]) == 1
        assert "norm excess identity at n=12" in capsys.readouterr().err

    def test_failed_radius_bound_exits_1_and_is_named(self, capsys, monkeypatch):
        scaling_experiment = extremal.scaling_experiment

        def inflated(*args, **kwargs):
            table = scaling_experiment(*args, **kwargs)
            rows = (replace(table.rows[0], w=2.0),) + table.rows[1:]
            return replace(table, rows=rows)

        monkeypatch.setattr(extremal, "scaling_experiment", inflated)
        assert main(["extremal", "scaling", "--kmin", "1", "--kmax", "2"]) == 1
        assert capsys.readouterr().err == "check failed: w bound at n=12\n"

    def test_single_row_json_slope_is_null(self, capsys):
        # RFC 8259 has no NaN; the csv trailer and the text keep "nan"
        assert main(["extremal", "scaling", "--kmin", "1", "--kmax", "1",
                     "--format", "json"]) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert payload["slope"] is None and len(payload["rows"]) == 1
        assert main(["extremal", "scaling", "--kmin", "1", "--kmax", "1"]) == 0
        assert capsys.readouterr().out.endswith("# slope=nan\n")

    def test_json_refuses_non_finite_numbers(self, monkeypatch, capsys):
        # no subcommand can print NaN or Infinity as json
        monkeypatch.setattr(cli, "_cmd_bounds", lambda ns: cli._Result(
            "x", [], {"x": float("inf")}, ""))
        assert main(["bounds", "--format", "json"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    def test_table_to_n68_does_not_depend_on_blas_threads(self):
        # README's reproducibility contract: the benchmark's table, n = 12
        # to 68, whose A^-1 and ||A|| come from the DFT, prints the same csv
        # with one BLAS thread and with two
        one, two = csv_by_blas_threads(["extremal", "scaling", "--kmin", "1", "--kmax", "8"])
        assert len(one.splitlines()) == 10
        assert one == two

    def test_brackets_do_not_depend_on_blas_threads(self):
        # the scaling bytes may differ between one BLAS thread and two, but
        # each radius lies within its certified tolerance (the default --tol
        # 1e-6) of the true value, so the two runs' brackets overlap
        src = os.path.dirname(os.path.dirname(opradius.__file__))
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run(
                [sys.executable, "-m", "opradius.cli", "extremal", "scaling",
                 "--kmin", "1", "--kmax", "18", "--format", "json"],
                capture_output=True, env=env, timeout=300, check=True)
            runs.append(json.loads(proc.stdout)["rows"])
        one, two = runs
        assert [r["n"] for r in one] == [r["n"] for r in two] == list(range(12, 149, 8))
        for r1, r2 in zip(one, two):
            assert abs(r1["w"] - r2["w"]) <= 1e-6
            assert abs(r1["w_inv"] - r2["w_inv"]) <= 1e-6
            for row in (r1, r2):
                assert abs(row["delta"] - 1 / (8 * math.sqrt(row["n"]))) <= 1e-11


class TestCommonFlags:
    def test_tol_validation(self, witness_file, capsys):
        assert main(["gap", "--matrix", witness_file, "--tol", "0.5"]) == 2
        # the library's own range check words the error
        assert capsys.readouterr().err == (
            "error: tol must lie in [1e-12, 0.01], got 0.5\n")

    def test_unknown_subcommand_exit_2(self):
        assert main(["frobnicate"]) == 2

    def test_help_exit_0(self):
        assert main(["--help"]) == 0

    def test_parser_is_built_once(self, witness_file, capsys, monkeypatch):
        # in-process calls reuse the first call's parser, and each still
        # gives the bytes and exit code of a call in a fresh process
        runs = (["bounds", "--steps", "3"], ["bounds", "--steps", "x"],
                ["gap", "--matrix", witness_file, "--format", "csv"])
        src = os.path.dirname(os.path.dirname(opradius.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        fresh = [subprocess.run([sys.executable, "-m", "opradius.cli", *argv],
                                capture_output=True, env=env, timeout=300)
                 for argv in runs]
        built = []
        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser",
                            lambda: built.append(1) or build_parser())
        for argv, proc in zip(runs, fresh):
            code = main(argv)
            out, err = capsys.readouterr()
            assert (out.encode(), err.encode(), code) == (
                proc.stdout, proc.stderr, proc.returncode)
        assert [p.returncode for p in fresh] == [0, 2, 0]
        assert built == [1]

    def test_out_writes_atomically(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["bounds", "--steps", "2", "--out", str(out)]) == 0
        assert out.exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_artifacts_get_the_umask_mode(self, tmp_path):
        # the mode open(path, "w") would give a new file, also on overwrite
        old = os.umask(0o022)
        try:
            out = tmp_path / "curve.csv"
            matrix = tmp_path / "m.json"
            for _ in range(2):
                assert main(["bounds", "--steps", "2", "--out", str(out)]) == 0
                linalg.save_matrix(matrix, np.eye(2))
                for path in (out, matrix):
                    assert stat.S_IMODE(path.stat().st_mode) == 0o644
        finally:
            os.umask(old)


# argv, then the schema README documents: csv header, json keys and a
# pattern for the first text line. "MATRIX" stands for a matrix file.
SCHEMAS = {
    "gap": (["gap", "--matrix", "MATRIX"],
            "rho,w,w_inv,distance,norm_excess,inverse_excess,bound",
            {"rho", "w", "w_inv", "distance", "norm_excess", "inverse_excess",
             "bound"},
            r"rho = 2"),
    "bounds": (["bounds", "--steps", "3"],
               "r,X,psi_upper,psi_lower,asymptotic", {"rho", "rows"},
               r" +r +X +psi_upper +psi_lower +asymptotic"),
    "range": (["range", "--matrix", "MATRIX", "--samples", "8"],
              "theta,support_value,re,im", {"samples", "rows"},
              r"0 \S+ \S+ \S+"),
    "random-test": (["random-test", "--samples", "4"],
                    "index,dim,r,norm,bound,ratio,violated",
                    {"rho", "samples", "dim_min", "dim_max", "seed", "violations",
                     "gap_violations", "max_ratio", "worst_index", "worst_case"},
                    r"rho = 2\.0"),
    "extremal-verify": (["extremal", "verify", "--n", "12"],
                        "report,check,value,bound,pass,slack",
                        {"n", "all_pass", "reports"}, r"n = 12"),
    "extremal-scaling": (["extremal", "scaling", "--kmin", "1", "--kmax", "1"],
                         "n,eps,delta,w,w_inv", {"kmin", "kmax", "slope", "rows"},
                         r" +n +eps +delta +w +w_inv"),
}


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
@pytest.mark.parametrize("name", list(SCHEMAS))
def test_every_subcommand_in_every_format(name, fmt, witness_file, tmp_path,
                                          capsys):
    argv, header, keys, first_text_line = SCHEMAS[name]
    argv = [witness_file if arg == "MATRIX" else arg for arg in argv]
    argv += ["--format", fmt]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "artifact"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == stdout.encode("utf-8")
    if fmt == "csv":
        assert stdout.split("\n")[0] == header
    elif fmt == "json":
        assert set(json.loads(stdout)) == keys
    else:
        assert re.fullmatch(first_text_line, stdout.split("\n")[0])
