import json
import os
import random
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from relprime import arith
from relprime.cli import _decimal, _decimal_by_halves, main
from relprime.counting import count_relprime, count_relprime_k
from relprime.setphi import subset_phi

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_plain_sequence(self, capsys):
        code, out, _ = run(capsys, "compute", "f", "--n", "1..10", "--format", "plain")
        assert code == 0
        assert out.strip() == "1 2 5 11 26 53 116 236 488 983"

    def test_single_phi(self, capsys):
        code, out, _ = run(capsys, "compute", "phi", "--n", "6")
        assert code == 0
        assert out.strip() == "54"

    def test_fk(self, capsys):
        code, out, _ = run(capsys, "compute", "fk", "--n", "4", "--k", "2")
        assert code == 0
        assert out.strip() == "5"

    def test_psi(self, capsys):
        code, out, _ = run(capsys, "compute", "psi", "--n", "6", "--d", "2")
        assert code == 0
        assert out.strip() == "6"

    def test_psi_rejects_non_divisor(self, capsys):
        code, _, err = run(capsys, "compute", "psi", "--n", "6", "--d", "4")
        assert code == 2
        assert "divide" in err

    def test_arity_enforced(self, capsys):
        assert run(capsys, "compute", "fk", "--n", "4")[0] == 2
        assert run(capsys, "compute", "f", "--n", "4", "--k", "2")[0] == 2
        assert run(capsys, "compute", "psi", "--n", "6")[0] == 2
        assert run(capsys, "compute", "phi", "--n", "6", "--d", "2")[0] == 2

    def test_rejects_bad_n(self, capsys):
        assert run(capsys, "compute", "f", "--n", "0")[0] == 2
        assert run(capsys, "compute", "f", "--n", "5..x")[0] == 2
        assert run(capsys, "compute", "f", "--n", "9..5")[0] == 2

    def test_json_records(self, capsys):
        code, out, _ = run(capsys, "compute", "fk", "--n", "3..5", "--k", "2", "--format", "json")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        for line, n in zip(lines, (3, 4, 5)):
            rec = json.loads(line)
            assert rec["n"] == n
            assert rec["k"] == 2
            assert rec["method"] == "formula"
            assert int(rec["value"]) >= 0
            assert rec["elapsed_ms"] >= 0.0

    def test_bfile_round_trip(self, capsys):
        code, out, _ = run(capsys, "compute", "f", "--n", "1..12", "--format", "bfile")
        assert code == 0
        from relprime.counting import count_relprime

        lines = out.splitlines()
        assert len(lines) == 12
        for expected_n, line in enumerate(lines, start=1):
            n_text, value_text = line.split(" ")
            assert int(n_text) == expected_n
            assert int(value_text) == count_relprime(expected_n)

    def test_plain_output_deterministic(self, capsys):
        first = run(capsys, "compute", "phi", "--n", "1..40")
        second = run(capsys, "compute", "phi", "--n", "1..40")
        assert first == second

    def test_comma_list(self, capsys):
        code, out, _ = run(capsys, "compute", "f", "--n", "2,4,10")
        assert code == 0
        assert out.strip() == "2 11 983"

    def test_rejects_bad_k_and_d(self, capsys):
        assert run(capsys, "compute", "fk", "--n", "5", "--k", "0")[0] == 2
        assert run(capsys, "compute", "phik", "--n", "5", "--k", "-1")[0] == 2
        assert run(capsys, "compute", "psi", "--n", "6", "--d", "0")[0] == 2
        code, out, err = run(capsys, "compute", "psi", "--n", "6,7", "--d", "2")
        assert (code, out) == (2, "")
        assert "divide" in err


# 2^14300 has 4305 decimal digits, just past CPython's default limit of
# 4300; the expected values are compared as Decimals, which never go
# through int-to-string conversion, so the limit stays as it is.
@pytest.mark.parametrize(
    "argv,expected",
    [
        (("f", "--n", "14300"), lambda: count_relprime(14300)),
        (("fk", "--n", "15000", "--k", "7500", "--format", "json"),
         lambda: count_relprime_k(15000, 7500)),
        (("phi", "--n", "20000", "--format", "json"), lambda: subset_phi(20000)),
        (("psi", "--n", "43002", "--d", "3", "--format", "bfile"), lambda: subset_phi(14334)),
    ],
)
def test_values_past_digit_limit(capsys, argv, expected):
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "compute", *argv)
    assert code == 0
    if "json" in argv:
        text = json.loads(out)["value"]
    else:
        text = out.split()[-1]
    assert len(text) > 4300
    assert Decimal(text) == Decimal(expected())
    assert sys.get_int_max_str_digits() == limit


class TestDecimal:
    def test_split_conversion_matches_str(self):
        rng = random.Random(5)
        for bits in (1, 255, 256, 257, 1000, 4096, 9999):
            for _ in range(5):
                value = rng.getrandbits(bits) | 1 << (bits - 1)
                assert _decimal_by_halves(value) == str(value)
                assert _decimal_by_halves(-value) == str(-value)
        assert _decimal_by_halves(10**3000) == "1" + "0" * 3000

    def test_digit_limit_boundary(self):
        for value in (10**4300 - 1, 10**4300, -(10**4300), (1 << 14300) - 1):
            text = _decimal(value)
            assert Decimal(text) == Decimal(value)
            assert text.lstrip("-")[0] != "0"
        assert len(_decimal(10**4300)) == 4301
        assert _decimal(0) == "0"


class TestVerify:
    @pytest.mark.parametrize(
        "suite,n_max",
        [
            ("recursions", 60),
            ("divisor-sums", 60),
            ("bounds", 60),
            ("asymptotics", 60),
            ("oracle", 10),
            ("affine", 50),
            ("closed-forms", 40),
        ],
    )
    def test_suites_pass(self, capsys, suite, n_max):
        code, out, _ = run(capsys, "verify", suite, "--n-max", str(n_max))
        assert code == 0
        assert "checks passed" in out

    def test_summary_counts_each_n(self, capsys):
        code, out, _ = run(capsys, "verify", "recursions", "--n-max", "50")
        assert code == 0
        assert out.strip() == "recursions: 50 checks passed"

    def test_oracle_suite_scans_once_per_n(self, capsys, monkeypatch):
        from relprime import oracle

        scans = []
        full_scan = oracle.gcd_histogram
        monkeypatch.setattr(oracle, "gcd_histogram", lambda n: scans.append(n) or full_scan(n))
        code, out, _ = run(capsys, "verify", "oracle", "--n-max", "8")
        assert code == 0
        assert out.strip() == "oracle: 8 checks passed"
        assert scans == list(range(1, 9))

    def test_unknown_suite(self, capsys):
        assert run(capsys, "verify", "everything")[0] == 2

    @pytest.mark.parametrize("suite", ["recursions", "divisor-sums", "bounds", "oracle"])
    @pytest.mark.parametrize("k_max", ["0", "-3"])
    def test_k_max_below_one_is_usage_error(self, capsys, suite, k_max):
        # It would skip every k-restricted check and still report success.
        code, out, err = run(capsys, "verify", suite, "--n-max", "5", "--k-max", k_max)
        assert code == 2
        assert out == ""
        assert f"--k-max must be >= 1, got {k_max}" in err

    def test_k_max_of_one_runs(self, capsys):
        code, out, _ = run(capsys, "verify", "recursions", "--n-max", "5", "--k-max", "1")
        assert code == 0
        assert out.strip() == "recursions: 5 checks passed"

    def test_oracle_guard(self, capsys):
        code, _, err = run(capsys, "verify", "oracle", "--n-max", "30")
        assert code == 2
        assert "n-max" in err

    def test_env_lowers_oracle_guard(self, capsys, monkeypatch):
        monkeypatch.setenv("RELPRIME_ORACLE_MAX", "8")
        assert run(capsys, "verify", "oracle", "--n-max", "10")[0] == 2
        assert run(capsys, "verify", "oracle", "--n-max", "8")[0] == 0

    def test_env_never_raises_guard(self, capsys, monkeypatch):
        monkeypatch.setenv("RELPRIME_ORACLE_MAX", "999")
        assert run(capsys, "verify", "oracle", "--n-max", "27")[0] == 2

    def test_env_must_be_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("RELPRIME_ORACLE_MAX", "many")
        assert run(capsys, "verify", "oracle", "--n-max", "5")[0] == 2

    def test_internal_error_is_not_a_usage_error(self, capsys, monkeypatch):
        from relprime import counting

        def broken(n):
            raise ValueError("fault inside a computation")

        monkeypatch.setattr(counting, "verify_recursion", broken)
        with pytest.raises(ValueError, match="fault inside"):
            main(["verify", "recursions", "--n-max", "5"])

    def test_identity_failure_exits_one(self, capsys, monkeypatch):
        # A failed check is a correctness bug (exit 1), not a usage error.
        from relprime import counting

        monkeypatch.setattr(counting, "verify_recursion", lambda n: n < 3)
        code, out, _ = run(capsys, "verify", "recursions", "--n-max", "10")
        assert code == 1
        assert "FAIL" in out and "n=3" in out


class TestAffine:
    def test_canon(self, capsys):
        code, out, _ = run(capsys, "affine", "canon", "--set", "2,8,11,20")
        assert code == 0
        assert out.strip() == "C={0,2,3,6} D={0,3,4,6} representative={0,2,3,6}"

    def test_equiv_true(self, capsys):
        code, out, _ = run(
            capsys, "affine", "equiv", "--set", "2,8,11,20", "--set", "-4,10,17,38"
        )
        assert code == 0
        assert out.strip() == "true"

    def test_equiv_false(self, capsys):
        code, out, _ = run(capsys, "affine", "equiv", "--set", "0,1", "--set", "0,1,2")
        assert code == 0
        assert out.strip() == "false"

    def test_profile(self, capsys):
        code, out, _ = run(capsys, "affine", "profile", "--set", "0,1,3")
        assert code == 0
        assert out.strip() == "s=6 d=7"

    def test_dist(self, capsys):
        code, out, _ = run(capsys, "affine", "dist", "--n", "1")
        assert code == 0
        assert out.strip() == "1:2 3:1"

    def test_dist_inequivalent(self, capsys):
        code, out, _ = run(capsys, "affine", "dist", "--n", "1", "--inequivalent")
        assert code == 0
        assert out.strip() == "1:1 3:1"

    def test_dist_with_cardinality(self, capsys):
        code, out, _ = run(capsys, "affine", "dist", "--n", "4", "--k", "2")
        assert code == 0
        assert out.strip() == "3:10"

    def test_dist_guard(self, capsys):
        assert run(capsys, "affine", "dist", "--n", "21")[0] == 2
        assert run(capsys, "affine", "dist", "--n", "-1")[0] == 2
        assert run(capsys, "affine", "dist", "--n", "4", "--k", "0")[0] == 2

    def test_malformed_set(self, capsys):
        assert run(capsys, "affine", "canon", "--set", "1,,2")[0] == 2
        assert run(capsys, "affine", "canon", "--set", "a,b")[0] == 2

    def test_arity(self, capsys):
        assert run(capsys, "affine", "equiv", "--set", "1,2")[0] == 2
        assert run(capsys, "affine", "canon")[0] == 2
        assert run(capsys, "affine", "dist")[0] == 2


class TestBench:
    def test_small_run(self, capsys):
        code, out, _ = run(capsys, "bench", "--n", "12", "--reps", "2")
        assert code == 0
        assert "n=12" in out and "speedup=" in out

    def test_guard(self, capsys):
        assert run(capsys, "bench", "--n", "30")[0] == 2

    def test_env_guard(self, capsys, monkeypatch):
        monkeypatch.setenv("RELPRIME_ORACLE_MAX", "10")
        assert run(capsys, "bench", "--n", "12")[0] == 2

    def test_rejects_bad_reps(self, capsys):
        assert run(capsys, "bench", "--n", "8", "--reps", "0")[0] == 2

    def test_each_repetition_starts_cold(self, capsys, monkeypatch):
        clears = []
        monkeypatch.setattr(arith._mertens, "clear", lambda: clears.append(1))
        arith._divisor_weights(12)
        monkeypatch.setattr(arith, "_central", (7, 35))
        code, _, _ = run(capsys, "bench", "--n", "12,13", "--reps", "3")
        assert code == 0
        assert len(clears) == 6
        # The last repetition found no weights left over from the one before.
        assert arith._quotient_weights.cache_info().hits == 0
        assert arith._divisor_weights.cache_info().currsize == 0
        assert arith._central == (0, 1)

    def test_each_oracle_repetition_scans(self, capsys, monkeypatch):
        from relprime import oracle

        scans = []
        full_scan = oracle.gcd_histogram
        monkeypatch.setattr(oracle, "gcd_histogram", lambda n: scans.append(n) or full_scan(n))
        code, _, _ = run(capsys, "bench", "--n", "12,13", "--reps", "3")
        assert code == 0
        assert scans == [12, 12, 12, 13, 13, 13]

    def test_value_mismatch_exits_one(self, capsys, monkeypatch):
        from relprime import oracle

        monkeypatch.setattr(oracle, "enumerate_relprime", lambda n: -1)
        code, _, err = run(capsys, "bench", "--n", "8", "--reps", "1")
        assert code == 1
        assert "MISMATCH" in err


class TestTopLevel:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()  # swallow the usage text

    def test_module_invocation(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "relprime", "compute", "f", "--n", "5"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "26"
