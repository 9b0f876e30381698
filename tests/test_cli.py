import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from relprime import affine, arith, cli
from relprime.cli import _decimal, _decimal_by_halves, main
from relprime.counting import count_relprime, count_relprime_k
from relprime.setphi import residual_bound, subset_phi, subset_phi_k, subset_psi

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

    @pytest.mark.parametrize(
        "argv,module,name,expected",
        [
            ("f --n 7", "counting", "count_relprime", "7000"),
            ("fk --n 7 --k 2", "counting", "count_relprime_k", "7002"),
            ("phi --n 7", "setphi", "subset_phi", "7000"),
            ("phik --n 7 --k 2", "setphi", "subset_phi_k", "7002"),
            ("psi --n 7 --d 7", "setphi", "subset_psi", "7007"),
        ],
    )
    def test_runs_the_count_bound_in_its_module(
        self, capsys, monkeypatch, argv, module, name, expected
    ):
        from relprime import counting, setphi

        monkeypatch.setattr(
            {"counting": counting, "setphi": setphi}[module], name,
            lambda n, *option: 1000 * n + sum(option),
        )
        assert run(capsys, "compute", *argv.split()) == (0, f"{expected}\n", "")

    def test_rejects_bad_k_and_d(self, capsys):
        assert run(capsys, "compute", "fk", "--n", "5", "--k", "0")[0] == 2
        assert run(capsys, "compute", "phik", "--n", "5", "--k", "-1")[0] == 2
        assert run(capsys, "compute", "psi", "--n", "6", "--d", "0")[0] == 2
        code, out, err = run(capsys, "compute", "psi", "--n", "6,7", "--d", "2")
        assert (code, out) == (2, "")
        assert "divide" in err

    @pytest.mark.parametrize("function,count", [("f", count_relprime), ("phi", subset_phi)])
    def test_keeps_no_value(self, monkeypatch, cold_known, function, count):
        # Each value is dropped once printed: what the run still holds
        # afterwards is well under the size of the values it printed.
        from relprime import counting, setphi

        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            main(["compute", function, "--n", "1..10"])  # imports and the kernel's first tables
            tracemalloc.start()
            try:
                assert main(["compute", function, "--n", "1..3000"]) == 0
                held, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            values = sum(sys.getsizeof(count(n)) for n in range(1, 3001))
            assert held < values / 2, (held, values)
            # Only the identity checks fill a memo of counts.
            assert counting._known.cache_info().currsize == 0
            assert setphi._known.cache_info().currsize == 0
            assert main(["verify", "recursions", "--n-max", "50"]) == 0
            assert counting._known.cache_info().currsize > 0


def _mask_elapsed(out: str) -> str:
    return re.sub(r'"elapsed_ms": [^}]+}', '"elapsed_ms": MASKED}', out)


class TestComputeBytes:
    """compute's exact output and error bytes."""

    @pytest.mark.parametrize(
        "argv,expected",
        [
            ("fk --n 3..5 --k 2 --format json",
             '{"n": 3, "k": 2, "value": "3", "method": "formula", "elapsed_ms": MASKED}\n'
             '{"n": 4, "k": 2, "value": "5", "method": "formula", "elapsed_ms": MASKED}\n'
             '{"n": 5, "k": 2, "value": "9", "method": "formula", "elapsed_ms": MASKED}\n'),
            ("psi --n 6,12 --d 2 --format json",
             '{"n": 6, "d": 2, "value": "6", "method": "formula", "elapsed_ms": MASKED}\n'
             '{"n": 12, "d": 2, "value": "54", "method": "formula", "elapsed_ms": MASKED}\n'),
            ("phik --n 6 --k 2 --format json",
             '{"n": 6, "k": 2, "value": "11", "method": "formula", "elapsed_ms": MASKED}\n'),
            ("f --n 3 --format json",
             '{"n": 3, "value": "5", "method": "formula", "elapsed_ms": MASKED}\n'),
            ("phi --n 1..6", "1 2 6 12 30 54\n"),
            ("fk --n 2..4 --k 3 --format plain", "0 1 4\n"),
            ("f --n 8..10 --format bfile", "8 236\n9 488\n10 983\n"),
            ("phik --n 4,6 --k 3 --format bfile", "4 4\n6 19\n"),
            ("psi --n 4,6 --d 2 --format bfile", "4 2\n6 6\n"),
        ],
    )
    def test_output_lines(self, capsys, argv, expected):
        code, out, err = run(capsys, "compute", *argv.split())
        assert (code, _mask_elapsed(out), err) == (0, expected, "")
        for line in out.splitlines() if "json" in argv else ():
            assert json.loads(line)["elapsed_ms"] >= 0.0

    @pytest.mark.parametrize(
        "argv,message",
        [
            ("fk --n 5 --k 0", "--k must be >= 1, got 0"),
            ("phik --n 0 --k -1", "--k must be >= 1, got -1"),
            ("psi --n 6 --d 0", "--d must be >= 1, got 0"),
            ("psi --n x --d 0", "--d must be >= 1, got 0"),
            ("fk --n 0 --k 1", "n must be >= 1, got 0"),
            ("psi --n 0 --d 4", "n must be >= 1, got 0"),
            ("psi --n 6,8 --d 4", "psi requires d | n; 4 does not divide 6"),
            ("psi --n 8,6 --d 4", "psi requires d | n; 4 does not divide 6"),
            ("f --n 5..x", "range end must be an integer, got 'x'"),
            ("f --n a..3", "range start must be an integer, got 'a'"),
            ("f --n 9..5", "empty range '9..5'"),
            ("f --n 1,,2", "n must be an integer, got ''"),
        ],
    )
    def test_usage_errors(self, capsys, argv, message):
        assert run(capsys, "compute", *argv.split()) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv,message",
        [
            ("f --n 51", "n must be <= 50, got 51"),
            ("phi --n 1..51", "range end must be <= 50, got 51"),
            ("fk --n 60..70 --k 2", "range start must be <= 50, got 60"),
            ("phik --n 3,40..50,51 --k 2", "n must be <= 50, got 51"),
            ("psi --n 102 --d 2", "n must be <= 50, got 102"),
        ],
    )
    def test_n_past_the_cap(self, capsys, monkeypatch, argv, message):
        from relprime import cli

        # A lowered cap, so that no failure here can build a large range.
        monkeypatch.setattr(cli, "COMPUTE_MAX_N", 50)
        assert run(capsys, "compute", *argv.split()) == (2, "", f"error: {message}\n")

    def test_n_at_the_cap(self, capsys, monkeypatch):
        from relprime import cli

        monkeypatch.setattr(cli, "COMPUTE_MAX_N", 50)
        assert run(capsys, "compute", "f", "--n", "49..50", "--format", "bfile") == (
            0, f"49 {count_relprime(49)}\n50 {count_relprime(50)}\n", ""
        )
        # bench's cap is the enumeration guard, whatever COMPUTE_MAX_N is.
        assert run(capsys, "bench", "--n", "1..51") == (
            2, "", "error: range end must be <= 40, got 51\n"
        )

    @pytest.mark.parametrize(
        "command,total",
        [
            ("compute f --n 1..14", 105),
            ("compute phi --n 50,51", 101),
            ("compute fk --n 1..10,1..10 --k 2", 110),
            ("compute psi --n 1..50,1..50 --d 1", 2550),
            ("bench --n 1..14", 105),  # before the enumeration guard
        ],
    )
    def test_n_past_the_total(self, capsys, monkeypatch, command, total):
        from relprime import cli

        # Lowered caps, so that no failure here can build a large list.
        monkeypatch.setattr(cli, "COMPUTE_MAX_N", 60)
        monkeypatch.setattr(cli, "COMPUTE_MAX_TOTAL_N", 100)
        assert run(capsys, *command.split()) == (
            2, "", f"error: the requested n must sum to <= 100, got {total}\n"
        )

    def test_n_at_the_total(self, capsys, monkeypatch):
        from relprime import cli

        monkeypatch.setattr(cli, "COMPUTE_MAX_TOTAL_N", 100)
        expected = " ".join(str(count_relprime(n)) for n in (*range(1, 14), 9))
        assert run(capsys, "compute", "f", "--n", "1..13,9") == (0, expected + "\n", "")

    def test_total_admits_the_documented_requests(self):
        from relprime import cli

        assert cli.COMPUTE_MAX_TOTAL_N >= 10_000 * 10_001 // 2  # 1..10000
        assert cli.COMPUTE_MAX_TOTAL_N >= cli.COMPUTE_MAX_N
        assert cli.COMPUTE_MAX_TOTAL_N < 14_142 * 14_143 // 2  # README: 1..14141 is the top

    def test_elapsed_times_the_count_only(self, capsys, monkeypatch):
        from types import SimpleNamespace

        from relprime import cli, counting

        clock = [0.0]

        def advance(seconds, result):
            clock[0] += seconds
            return result

        monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
        monkeypatch.setattr(counting, "count_relprime_k", lambda n, k: advance(0.25, n))
        monkeypatch.setattr(cli, "_decimal", lambda value: advance(1000.0, str(value)))
        code, out, _ = run(capsys, "compute", "fk", "--n", "7,9", "--k", "2", "--format", "json")
        assert code == 0
        assert out == (
            '{"n": 7, "k": 2, "value": "7", "method": "formula", "elapsed_ms": 250.0}\n'
            '{"n": 9, "k": 2, "value": "9", "method": "formula", "elapsed_ms": 250.0}\n'
        )


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

    def test_path_depends_on_size_not_on_the_limit(self, monkeypatch):
        # (1 << b) - 1 has 640 digits at b = 2126 and 641 at 2127 (640 is
        # the lowest limit CPython accepts), 4300 at 14284 and 4301 at 14285.
        limit = sys.get_int_max_str_digits()
        values = [(1 << b) - 1 for b in (2126, 2127, 14284, 14285, 45_000, 1_000_000)]
        try:
            sys.set_int_max_str_digits(0)
            expected = [str(v) for v in values]
            split = []

            def by_halves(value, inner=_decimal_by_halves):
                split.append(value)
                return inner(value)

            monkeypatch.setattr(cli, "_decimal_by_halves", by_halves)
            for lowered, absent in ((0, False), (0, True), (640, False), (limit, False)):
                with monkeypatch.context() as m:
                    if absent:  # CPython 3.10 before 3.10.7 has no limit
                        m.delattr(sys, "get_int_max_str_digits")
                    sys.set_int_max_str_digits(lowered)
                    split.clear()
                    assert [cli._decimal(v) for v in values] == expected
                    assert split == [v for v, text in zip(values, expected)
                                     if len(text) > 4300 or 0 < lowered < len(text)]
        finally:
            sys.set_int_max_str_digits(limit)


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
            ("kernels", 60),
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

    @pytest.mark.parametrize("suite", ["recursions", "divisor-sums"])
    def test_identity_suites_ask_for_no_zero_terms(self, capsys, monkeypatch, cold_known, suite):
        # f_k(q) and Phi_k(q) vanish for q < k; the identities skip those terms.
        from relprime import counting, setphi

        asked = []
        for module, name in ((counting, "count_relprime_k"), (setphi, "subset_phi_k")):
            count = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda n, k, count=count: asked.append((n, k)) or count(n, k)
            )
        code, out, _ = run(capsys, "verify", suite, "--n-max", "300")
        assert (code, out) == (0, f"{suite}: 300 checks passed\n")
        assert len(asked) > 300
        assert [(n, k) for n, k in asked if k > n] == []

    def test_oracle_suite_scans_once_per_n(self, capsys, monkeypatch):
        from relprime import oracle

        scans = []
        full_scan = oracle.gcd_histogram
        monkeypatch.setattr(oracle, "gcd_histogram", lambda n: scans.append(n) or full_scan(n))
        code, out, _ = run(capsys, "verify", "oracle", "--n-max", "8")
        assert code == 0
        assert out.strip() == "oracle: 8 checks passed"
        assert scans == list(range(1, 9))

    @pytest.mark.parametrize(
        "suite,summary",
        [
            ("oracle", "oracle: 40 checks passed"),
            ("recursions", "recursions: 1000 checks passed"),
            ("divisor-sums", "divisor-sums: 1000 checks passed"),
            ("bounds", "bounds: 1000 checks passed"),
            ("asymptotics", "asymptotics: 999 checks passed"),
            ("affine", "affine: 1000 checks passed"),
            ("closed-forms", "closed-forms: 13 checks passed"),
            ("kernels", "kernels: 999 checks passed"),
        ],
    )
    def test_default_n_max(self, capsys, suite, summary):
        # Without --n-max a suite runs to 1000, or to its cap if that is lower.
        assert run(capsys, "verify", suite) == (0, f"{summary}\n", "")

    def test_unknown_suite(self, capsys):
        assert run(capsys, "verify", "everything")[0] == 2

    def test_parser_lists_the_rows_of_the_table(self, capsys):
        from relprime.checks import SUITES

        code, out, err = run(capsys, "verify", "--help")
        assert (code, err) == (0, "")
        usage, _, n_max, k_max = out.splitlines()
        assert usage == f"usage: relprime verify {'|'.join(SUITES)} [--option value]..."
        assert n_max.endswith("; optional for " + ", ".join(SUITES))
        # The --k-max help names the rows that sample k, and only those.
        assert k_max.endswith(
            "; optional for " + ", ".join(name for name, (row, _) in SUITES.items()
                                          if "k-max" in row)
        )

    def test_the_oracle_cap_is_the_enumeration_guard(self):
        from relprime import checks, oracle

        assert checks.SUITES["oracle"][0]["n-max"] == (False, 1, oracle.ORACLE_MAX)

    def test_every_other_suite_has_one_cap(self):
        from relprime import checks

        caps = {name: row["n-max"][2] for name, (row, _) in checks.SUITES.items()
                if name != "oracle"}
        assert set(caps.values()) == {checks.VERIFY_MAX_N}, caps

    @pytest.mark.parametrize("suite", ["asymptotics", "kernels"])
    def test_a_suite_that_would_check_nothing_is_a_usage_error(self, capsys, suite):
        # Both start at n = 2, so --n-max 1 would report 0 checks as a success.
        assert run(capsys, "verify", suite, "--n-max", "1") == (
            2, "", "error: --n-max must be >= 2, got 1\n"
        )
        assert run(capsys, "verify", suite, "--n-max", "2") == (
            0, f"{suite}: 1 checks passed\n", ""
        )

    @pytest.mark.parametrize("suite", ["recursions", "divisor-sums", "bounds", "oracle", "kernels"])
    @pytest.mark.parametrize("k_max", ["0", "-3"])
    def test_k_max_below_one_is_usage_error(self, capsys, suite, k_max):
        # It would skip every k-restricted check and still report success.
        code, out, err = run(capsys, "verify", suite, "--n-max", "5", "--k-max", k_max)
        assert code == 2
        assert out == ""
        assert f"--k-max must be >= 1, got {k_max}" in err

    @pytest.mark.parametrize("suite", ["affine", "closed-forms"])
    @pytest.mark.parametrize("k_max", ["3", "0", "-3", "x"])
    def test_a_suite_that_samples_no_k_refuses_k_max(self, capsys, suite, k_max):
        # Before any value is read, so every value is refused the same way,
        # and so is a bad --n-max given with it.
        refused = (2, "", f"error: verify {suite} does not take '--k-max'\n")
        assert run(capsys, "verify", suite, "--k-max", k_max) == refused
        assert run(capsys, "verify", suite, "--n-max", "0", "--k-max", k_max) == refused

    @pytest.mark.parametrize("suite", [
        "recursions", "divisor-sums", "bounds", "asymptotics", "oracle", "affine", "closed-forms",
        "kernels",
    ])
    def test_a_row_samples_k_iff_its_suite_reads_k(self, capsys, monkeypatch, cold_known, suite):
        # With both k-restricted counts wrong at k = 2, a suite that samples k
        # fails, and passes when --k-max 1 keeps it below 2; one that samples
        # none passes and refuses --k-max.
        from relprime import checks, counting, setphi

        for module, name in ((counting, "count_relprime_k"), (setphi, "subset_phi_k")):
            count = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda n, k, count=count: count(n, k) + (k == 2) * 10**6
            )
        row, _ = checks.SUITES[suite]
        code, out, err = run(capsys, "verify", suite, "--n-max", "12")
        capped = run(capsys, "verify", suite, "--n-max", "12", "--k-max", "1")
        if "k-max" in row:
            assert (code, err) == (1, "")
            assert out.startswith(f"{suite}: FAIL after ") and out.endswith(", k=2\n"), out
            assert capped == (0, f"{suite}: {13 - row['n-max'][1]} checks passed\n", "")
        else:
            assert (code, out.endswith(" checks passed\n"), err) == (0, True, "")
            assert capped == (2, "", f"error: verify {suite} does not take '--k-max'\n")

    def test_k_max_of_one_runs(self, capsys):
        code, out, _ = run(capsys, "verify", "recursions", "--n-max", "5", "--k-max", "1")
        assert code == 0
        assert out.strip() == "recursions: 5 checks passed"

    def test_oracle_guard(self, capsys):
        code, _, err = run(capsys, "verify", "oracle", "--n-max", "41")
        assert code == 2
        assert "n-max" in err

    def test_oracle_caps_ignore_the_environment(self, capsys, monkeypatch):
        # RELPRIME_ORACLE_MAX once lowered these caps; only arguments count now.
        monkeypatch.setenv("RELPRIME_ORACLE_MAX", "8")
        assert run(capsys, "verify", "oracle", "--n-max", "10") == (
            0, "oracle: 10 checks passed\n", ""
        )
        code, out, err = run(capsys, "bench", "--n", "12")
        assert (code, out.startswith("n=12 "), err) == (0, True, "")

    def test_internal_error_is_not_a_usage_error(self, capsys, monkeypatch):
        from relprime import counting

        def broken(n, k):
            raise ValueError("fault inside a computation")

        monkeypatch.setattr(counting, "verify_recursion", broken)
        with pytest.raises(ValueError, match="fault inside"):
            main(["verify", "recursions", "--n-max", "5"])

    def test_identity_failure_exits_one(self, capsys, monkeypatch):
        # A failed check is a correctness bug (exit 1), not a usage error.
        from relprime import counting

        monkeypatch.setattr(counting, "verify_recursion", lambda n, k: n < 3)
        code, out, _ = run(capsys, "verify", "recursions", "--n-max", "10")
        assert code == 1
        assert "FAIL" in out and "n=3" in out

    def test_a_wrong_count_fails_the_recursions(self, capsys, monkeypatch, cold_known):
        from relprime import counting

        def off_at_12(q, k):
            return count_relprime_k(q, k) + (q == 12)

        monkeypatch.setattr(counting, "count_relprime_k", off_at_12)
        assert run(capsys, "verify", "recursions", "--n-max", "50") == (
            1,
            "recursions: FAIL after 11 passing checks: count recursion failed at n=12, k=1\n",
            "",
        )

    @pytest.mark.parametrize(
        "suite,module,name,broken,failure",
        [
            # Each folded check, failing at k = None, then only at a size k.
            ("recursions", "counting", "verify_recursion", lambda n, k: n < 4,
             "3 passing checks: count recursion failed at n=4"),
            ("recursions", "counting", "verify_recursion", lambda n, k: k is None or k < 3,
             "2 passing checks: count recursion failed at n=3, k=3"),
            ("divisor-sums", "setphi", "verify_divisor_sum", lambda n, k: n < 5,
             "4 passing checks: divisor sum failed at n=5"),
            ("divisor-sums", "setphi", "verify_divisor_sum", lambda n, k: k != 2,
             "1 passing checks: divisor sum failed at n=2, k=2"),
            # Each folded suite under a wrong count, unrestricted, then of size k.
            ("recursions", "counting", "count_relprime", lambda n: count_relprime(n) + (n == 4),
             "3 passing checks: count recursion failed at n=4"),
            ("recursions", "counting", "count_relprime_k",
             lambda n, k: count_relprime_k(n, k) + (n == 4 and k == 2),
             "3 passing checks: count recursion failed at n=4, k=2"),
            ("divisor-sums", "setphi", "subset_phi", lambda n: subset_phi(n) + (n == 4),
             "3 passing checks: divisor sum failed at n=4"),
            ("divisor-sums", "setphi", "subset_phi_k",
             lambda n, k: subset_phi_k(n, k) + (n == 4 and k == 2),
             "3 passing checks: divisor sum failed at n=4, k=2"),
            ("bounds", "counting", "count_relprime", lambda n: -1,
             "1 passing checks: sandwich violated at n=2"),
            ("bounds", "counting", "count_relprime_k", lambda n, k: -1,
             "0 passing checks: sandwich violated at n=1, k=1"),
            ("asymptotics", "setphi", "residual_bound", lambda n, k: -1,
             "0 passing checks: residual envelope violated at n=2"),
            ("asymptotics", "setphi", "residual_bound",
             lambda n, k: residual_bound(n) if k is None else -1 if n > 6 else 1 << n,
             "5 passing checks: residual envelope violated at n=7, k=1"),
            ("asymptotics", "setphi", "subset_phi", lambda n: subset_phi(n) + (n == 5) * 10**6,
             "3 passing checks: residual envelope violated at n=5"),
            ("asymptotics", "setphi", "subset_phi_k",
             lambda n, k: subset_phi_k(n, k) + (n == 5 and k == 2) * 10**6,
             "3 passing checks: residual envelope violated at n=5, k=2"),
            ("oracle", "counting", "count_relprime", lambda n: count_relprime(n) + (n == 4),
             "3 passing checks: count formula disagrees with enumeration at n=4"),
            ("oracle", "setphi", "subset_phi", lambda n: subset_phi(n) + (n == 4),
             "3 passing checks: subset phi disagrees with enumeration at n=4"),
            ("oracle", "counting", "count_relprime_k",
             lambda n, k: count_relprime_k(n, k) + (k == 3),
             "2 passing checks: count formula disagrees at n=3, k=3"),
            ("oracle", "setphi", "subset_phi_k", lambda n, k: subset_phi_k(n, k) + (k == 3),
             "2 passing checks: subset phi disagrees at n=3, k=3"),
            ("oracle", "setphi", "subset_psi", lambda n, d: subset_psi(n, d) + (d == 3),
             "2 passing checks: subset psi disagrees at n=3, d=3"),
            # f(6) loses its (-1, 2) term; Phi(6) is untouched, so 6 | Phi(6) still holds.
            ("kernels", "counting", "_quotient_weights",
             lambda n: arith._quotient_weights(n)[n == 6:],
             "4 passing checks: f step disagrees with Phi at n=6"),
            # Phi(6) loses its (1, 1) term: 54 - 1 is not a multiple of 6.
            ("kernels", "setphi", "_divisor_weights", lambda n: arith._divisor_weights(n)[n == 6:],
             "4 passing checks: Phi not divisible by n at n=6"),
            ("kernels", "counting", "count_relprime_k",
             lambda n, k: count_relprime_k(n, k) + (n == 6 and k == 1),
             "4 passing checks: f_k steps disagree with Phi_k at n=6, k=1"),
        ],
    )
    def test_failure_messages(self, capsys, monkeypatch, cold_known, suite, module, name, broken,
                              failure):
        from relprime import counting, setphi

        monkeypatch.setattr({"counting": counting, "setphi": setphi}[module], name, broken)
        code, out, err = run(capsys, "verify", suite, "--n-max", "10")
        assert (code, out, err) == (1, f"{suite}: FAIL after {failure}\n", "")


def _randint_choice_trials(count):
    """The affine suite's sets and maps, drawn with randint and choice, which draw
    through Random._randbelow as the suite does."""
    rng = random.Random(20070103)
    dilations = [v for v in range(-6, 7) if v != 0]
    for _ in range(count):
        size = rng.randint(1, 8)
        base = set()
        while len(base) < size:
            base.add(rng.randint(-30, 30))
        q = rng.randint(1, 6)
        p = rng.choice(dilations)
        anchor = rng.randint(-10, 10)
        w = rng.randint(-10, 10)
        a = [q * r + anchor for r in base]
        yield sorted(a), Fraction(p, q), Fraction(w * q - p * anchor, q)


def _representative_wrong_at_size_4(a, canonical_form=affine.canonical_form):
    form = canonical_form(a)
    return form._replace(representative=form.base) if len(form.base) == 4 else form


def _profile_off_by_one_from_size_5(a, invariant_profile=affine.invariant_profile):
    # Off by one on sets of size >= 5 that span more than 64, which an
    # affine map can change.
    profile = invariant_profile(a)
    wide = len(set(a)) >= 5 and max(a) - min(a) > 64
    return profile._replace(sumset_size=profile.sumset_size + wide)


def _not_idempotent_on_bases(a, canonical_form=affine.canonical_form):
    form = canonical_form(a)
    return form._replace(base=form.mirror) if tuple(a) == form.base else form


class TestAffineSuite:
    def test_trials_and_checks_are_kept(self, capsys, monkeypatch):
        # The same sets and maps as randint and choice drew, and per trial one
        # map, three canonical forms and two profiles, each through the module.
        maps, calls = [], {"canonical_form": 0, "invariant_profile": 0}

        def recorded(a, x, y, inner=affine.affine_map):
            maps.append((sorted(a), x, y))
            return inner(a, x, y)

        monkeypatch.setattr(affine, "affine_map", recorded)
        for name in calls:
            def counted(a, name=name, inner=getattr(affine, name)):
                calls[name] += 1
                return inner(a)

            monkeypatch.setattr(affine, name, counted)
        assert run(capsys, "verify", "affine", "--n-max", "10000") == (
            0, "affine: 10000 checks passed\n", ""
        )
        assert maps == list(_randint_choice_trials(10_000))
        assert calls == {"canonical_form": 30_000, "invariant_profile": 20_000}

    @pytest.mark.parametrize(
        "name,mutant,failure",
        [
            ("canonical_form", _representative_wrong_at_size_4, "representative not preserved"),
            ("invariant_profile", _profile_off_by_one_from_size_5,
             "invariant profile not preserved"),
            ("canonical_form", _not_idempotent_on_bases, "canonicalization not idempotent"),
        ],
    )
    def test_each_check_catches_its_mutant(self, capsys, monkeypatch, name, mutant, failure):
        monkeypatch.setattr(affine, name, mutant)
        code, out, err = run(capsys, "verify", "affine", "--n-max", "500")
        assert (code, err) == (1, "")
        assert re.fullmatch(
            rf"affine: FAIL after \d+ passing checks: {failure} for \[-?\d+(, -?\d+)*\]\n", out
        ), out


class TestAffine:
    def test_canon(self, capsys):
        code, out, _ = run(capsys, "affine", "canon", "--set", "2,8,11,20")
        assert code == 0
        assert out.strip() == "C={0,2,3,6} D={0,3,4,6} representative={0,2,3,6}"

    def test_canon_prints_elements_past_the_int_string_limit(self, capsys):
        # Each element has 4300 digits, but the base holds their 4301-digit difference.
        elements = "-" + "9" * 4300 + ",0,1" + "0" * 4299
        code, out, err = run(capsys, "affine", "canon", "--set", elements)
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            form = affine.canonical_form([int(e) for e in elements.split(",")])
            assert max(len(str(e)) for e in form.base) == 4301
            expected = " ".join(
                f"{label}={{{','.join(str(e) for e in part)}}}"
                for label, part in zip(("C", "D", "representative"), form)
            )
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out, err) == (0, expected + "\n", "")

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

    @pytest.mark.parametrize(
        "elements,expected",
        [
            ("0,1,2,2048", (0, "s=9 d=11\n", "")),  # at the cap
            ("2048,0,1,2,2048", (0, "s=9 d=11\n", "")),  # at it, once deduplicated
            ("0,1,2,3,2047", (0, "s=12 d=15\n", "")),  # past it, on bitsets
            ("0,1,2,3,2048", (2, "", "error: affine profile takes at most 4 elements\n")),
        ],
    )
    def test_profile_cap(self, capsys, monkeypatch, elements, expected):
        monkeypatch.setattr(affine, "PROFILE_MAX_ELEMENTS", 4)  # lowered, so sets stay small
        assert run(capsys, "affine", "profile", "--set", elements) == expected

    def test_dist_guard(self, capsys):
        assert run(capsys, "affine", "dist", "--n", "21")[0] == 2
        assert run(capsys, "affine", "dist", "--n", "-1")[0] == 2
        assert run(capsys, "affine", "dist", "--n", "4", "--k", "0")[0] == 2

    def test_malformed_set(self, capsys):
        assert run(capsys, "affine", "canon", "--set", "1,,2")[0] == 2
        assert run(capsys, "affine", "canon", "--set", "a,b")[0] == 2
        # An element too long for int() is named by its length, not echoed.
        code, _, err = run(capsys, "affine", "profile", "--set", "0,1,1" + "0" * 5000)
        assert code == 2
        assert err == "error: set element has 5001 digits, more than the int-string limit allows\n"
        # Any other bad element is quoted alone, cut to a short prefix.
        code, _, err = run(capsys, "affine", "profile", "--set", "0,x" + "0" * 5000)
        assert code == 2
        assert err.startswith("error: set element must be an integer, got 'x000") and len(err) < 80

    def test_arity(self, capsys):
        assert run(capsys, "affine", "equiv", "--set", "1,2")[0] == 2
        assert run(capsys, "affine", "canon")[0] == 2
        assert run(capsys, "affine", "dist")[0] == 2
        assert run(capsys, "affine", "dist", "--n", "3", "--set", "1,2")[0] == 2


class TestBench:
    def test_small_run(self, capsys):
        code, out, _ = run(capsys, "bench", "--n", "12", "--reps", "2")
        assert code == 0
        assert "n=12" in out and "speedup=" in out

    def test_guard(self, capsys):
        assert run(capsys, "bench", "--n", "41")[0] == 2

    def test_rejects_bad_reps(self, capsys):
        assert run(capsys, "bench", "--n", "8", "--reps", "0")[0] == 2

    def test_reps_at_the_cap(self, capsys):
        code, out, err = run(capsys, "bench", "--n", "8", "--reps", str(cli.BENCH_MAX_REPS))
        assert (code, out.startswith("n=8 formula_ms="), err) == (0, True, "")

    @pytest.fixture
    def small_bound(self, monkeypatch):
        from relprime import oracle

        # Lowered, so that the bound is 3 * 2^5, and each n counts as
        # 2^max(ceil(n/2), 1): 2 up to n = 2, then 4, 8, 16 and 32 at n = 10.
        monkeypatch.setattr(oracle, "ORACLE_MAX", 10)
        monkeypatch.setattr(cli, "BENCH_MAX_REPS", 3)

    @pytest.mark.parametrize(
        "argv,lines", [("--n 10 --reps 3", 1), ("--n 8,8 --reps 3", 2), ("--n 1..6,1,1 --reps 3", 8)]
    )
    def test_work_at_the_bound(self, capsys, small_bound, argv, lines):
        code, out, err = run(capsys, "bench", *argv.split())
        assert (code, out.count(" speedup="), err) == (0, lines, "")

    @pytest.mark.parametrize("argv", ["--n 10,1 --reps 3", "--n 1..10 --reps 3", "--n 10,10 --reps 2"])
    def test_work_past_the_bound(self, capsys, small_bound, argv):
        assert run(capsys, "bench", *argv.split()) == (
            2, "", "error: --reps times the sum of 2^max(ceil(n/2), 1) must be <= 3 * 2^5\n"
        )

    def test_documented_requests_are_within_the_bound(self, capsys, monkeypatch):
        from relprime import oracle

        # The formula stands in for the enumeration, so only the bound is at stake.
        monkeypatch.setattr(oracle, "enumerate_relprime", count_relprime)
        assert run(capsys, "bench", "--n", "40", "--reps", "100")[0] == 0
        assert run(capsys, "bench", "--n", ",".join(["32"] * 1600), "--reps", "1")[0] == 0
        assert run(capsys, "bench", "--n", "1..32", "--reps", "50")[0] == 0
        assert run(capsys, "bench", "--n", "40,1", "--reps", "100") == (
            2, "", "error: --reps times the sum of 2^max(ceil(n/2), 16) must be <= 100 * 2^20\n"
        )
        assert run(capsys, "bench", "--n", "1..32", "--reps", "51")[0] == 2
        # No n counts for less than 1/16 of one at the guard.
        assert run(capsys, "bench", "--n", ",".join(["1"] * 1600), "--reps", "1")[0] == 0
        assert run(capsys, "bench", "--n", ",".join(["1"] * 1601), "--reps", "1")[0] == 2

    def test_many_small_n_are_refused(self, capsys):
        # Each n has a fixed cost: 8000 of n = 1 at the --reps cap ran for
        # about a minute under a bound of --reps times the sum of 2^n.
        code, out, err = run(capsys, "bench", "--n", ",".join(["1"] * 8000), "--reps", "100")
        assert (code, out, err.count("\n")) == (2, "", 1)
        assert len(err) < 100

    def test_each_repetition_starts_cold(self, capsys, monkeypatch):
        sieves = []
        sieve = arith.mobius_sieve
        monkeypatch.setattr(arith, "mobius_sieve", lambda limit: sieves.append(limit) or sieve(limit))
        arith._divisor_weights(12)
        arith._divisors(12)
        monkeypatch.setattr(arith, "_central", (7, 35))
        code, _, _ = run(capsys, "bench", "--n", "12,13", "--reps", "3")
        assert code == 0
        # Each repetition sieves the Mertens table again from [0, 1].
        assert len(sieves) == 6
        # The last repetition found no weights left over from the one before.
        assert arith._quotient_weights.cache_info().hits == 0
        assert arith._divisor_weights.cache_info().currsize == 0
        assert arith._divisors.cache_info().currsize == 0
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


# Every integer argument: its command with {} for the value, the name its
# messages use, and the values just past its bounds with the bound each breaks.
_INTEGER_ARGUMENTS = [
    ("compute f --n {}", "n", [("0", ">= 1"), ("10000001", "<= 10000000")]),
    ("compute f --n {}..5", "range start", [("0", ">= 1"), ("10000001", "<= 10000000")]),
    ("compute f --n 1..{}", "range end", [("0", ">= 1"), ("10000001", "<= 10000000")]),
    ("compute fk --n 5 --k {}", "--k", [("0", ">= 1")]),
    ("compute psi --n 6 --d {}", "--d", [("0", ">= 1"), ("10000001", "<= 10000000")]),
    ("verify recursions --n-max {}", "--n-max", [("0", ">= 1"), ("10001", "<= 10000")]),
    ("verify oracle --n-max {}", "--n-max", [("0", ">= 1"), ("41", "<= 40")]),
    ("verify recursions --n-max 5 --k-max {}", "--k-max", [("0", ">= 1")]),
    ("affine dist --n {}", "--n", [("-1", ">= 0"), ("21", "<= 20")]),
    ("affine dist --n 4 --k {}", "--k", [("0", ">= 1")]),
    ("bench --n 8 --reps {}", "--reps", [("0", ">= 1"), ("101", "<= 100")]),
    ("affine profile --set 0,{}", "set element", []),
]
_LONG = "1" + "0" * 5000


def _integer_cases():
    for command, what, past in _INTEGER_ARGUMENTS:
        yield pytest.param(
            command.format(_LONG),
            f"{what} has 5001 digits, more than the int-string limit allows",
            id=command.format("<5001 digits>"),
        )
        yield pytest.param(
            command.format("1.5" + "0" * 5000),
            f"{what} must be an integer, got '1.500000000000000000...'",
            id=command.format("<1.5 and 5000 zeros>"),
        )
        for value, bound in past:
            yield pytest.param(command.format(value), f"{what} must be {bound}, got {value}",
                               id=command.format(value))


class TestIntegerArguments:
    """One parser reads every integer; its errors are one short line."""

    @pytest.mark.parametrize("command,message", list(_integer_cases()))
    def test_bad_value_is_one_short_line(self, capsys, command, message):
        code, out, err = run(capsys, *command.split())
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert len(err.encode()) < 100

    def test_long_value_past_the_bound_is_cut(self, capsys):
        # 4000 digits pass int(); the value is still shown cut short.
        code, _, err = run(capsys, "compute", "f", "--n", "9" * 4000)
        assert (code, err) == (2, "error: n must be <= 10000000, got 99999999999999999999...\n")
        code, _, err = run(capsys, "compute", "psi", "--n", "6", "--d", "9" * 4000)
        assert (code, err) == (2, "error: --d must be <= 10000000, got 99999999999999999999...\n")
        # int() strips the spaces of each end, so the range is read, and found empty.
        code, _, err = run(capsys, "compute", "f", "--n", "9" + " " * 5000 + "..1")
        assert (code, err) == (2, "error: empty range '9" + " " * 19 + "...'\n")

    def test_d_at_the_cap(self, capsys):
        assert run(capsys, "compute", "psi", "--n", "10000000", "--d", "10000000") == (0, "1\n", "")

    @pytest.mark.parametrize(
        "argv,value",
        [
            (["fk", "--n", "6", "--k", "+2"], count_relprime_k(6, 2)),
            (["fk", "--n", "6", "--k", "0_2"], count_relprime_k(6, 2)),
            (["f", "--n", " 6 "], count_relprime(6)),
        ],
    )
    def test_int_spellings_are_kept(self, capsys, argv, value):
        # What int() accepts, as argparse's type=int did.
        assert run(capsys, "compute", *argv) == (0, f"{value}\n", "")

    def test_dist_options_belong_to_dist(self, capsys):
        # TestOptionRows refuses each one alone.  Here they are refused before
        # the --set count is checked, and the first one given is named.
        assert run(capsys, "affine", "canon", "--inequivalent") == (
            2, "", "error: affine canon does not take '--inequivalent'\n"
        )
        assert run(capsys, "affine", "canon", "--set", "1,2", "--k", "3", "--n", "3") == (
            2, "", "error: affine canon does not take '--k'\n"
        )


# What each action takes besides what every action of its command takes
# (compute's --format), and which of those it requires.  verify's rows
# follow from relprime.checks.SUITES.
_TAKES = {
    ("compute", "f"): ({"--n"}, set()),
    ("compute", "fk"): ({"--n", "--k"}, {"--k"}),
    ("compute", "phi"): ({"--n"}, set()),
    ("compute", "phik"): ({"--n", "--k"}, {"--k"}),
    ("compute", "psi"): ({"--n", "--d"}, {"--d"}),
    ("affine", "canon"): ({"--set"}, {"--set"}),
    ("affine", "dist"): ({"--n", "--k", "--inequivalent"}, {"--n"}),
    ("affine", "equiv"): ({"--set"}, {"--set"}),
    ("affine", "profile"): ({"--set"}, {"--set"}),
}


def _rows():
    from relprime.checks import SUITES

    rows = dict(_TAKES)
    for suite, (row, _) in SUITES.items():
        rows["verify", suite] = ({f"--{option}" for option in row}, set())
    return rows


def _command_options(command):
    """How the rows of command read each option that an action may refuse.

    compute's --format is taken by every action of its command.
    """
    return {f"--{option}": kind for row in cli._rows(command).values()
            for option, kind in row.items() if option != "format"}


def _walk():
    """Each option of each action, given with every option the action takes.

    Each option that has a value gets "x", which no parse accepts, so a
    refusal must come before any value is read.
    """
    for (command, action), (takes, _) in sorted(_rows().items()):
        options = _command_options(command)
        given = {option: [] if options[option] == (False, "flag") else ["x"] for option in options}
        for option in options:
            argv = [arg for other in sorted(takes | {option}) for arg in (other, *given[other])]
            yield pytest.param(command, action, option, option in takes, argv,
                               id=f"{command} {action} {option}")


def _valid(how):
    """The words of a valid value for an option read as how says: none for a
    flag, and the lowest, the first choice or 1 for the others."""
    kind = how[1]
    if kind == "flag":
        return []
    if isinstance(kind, tuple):
        return [kind[0]]
    return [str(kind)] if isinstance(kind, int) else ["1"]


def _options_taken():
    """Each option of each row, with the words that name the row's action."""
    for command in ("compute", "verify", "affine", "bench"):
        for action, row in cli._rows(command).items():
            words = [command, action] if action else [command]
            for option in row:
                yield pytest.param(words, row, option, id=" ".join([*words, f"--{option}"]))


class TestOptionRows:
    """One loop refuses, requires and reads the options of every action."""

    @pytest.mark.parametrize("command,action,option,taken,argv", list(_walk()))
    def test_each_option(self, capsys, command, action, option, taken, argv):
        code, out, err = run(capsys, command, action, *argv)
        assert (code, out) == (2, "")
        if taken:
            assert " does not take " not in err
        else:
            assert err == f"error: {command} {action} does not take '{option}'\n"
            assert len(err.encode()) < 100

    @pytest.mark.parametrize("command,action,option", [
        (command, action, option)
        for (command, action), (_, required) in sorted(_rows().items())
        for option in sorted(required)
    ])
    def test_a_required_option_left_out(self, capsys, command, action, option):
        base = ["--n", "x"] if command == "compute" else []
        assert run(capsys, command, action, *base) == (
            2, "", f"error: {command} {action} requires {option}\n"
        )

    @pytest.mark.parametrize("command,option", [
        ("compute", "--k"), ("compute", "--d"),
        ("affine", "--set"), ("affine", "--n"), ("affine", "--k"), ("affine", "--inequivalent"),
    ])
    def test_help_names_the_actions_that_take_an_option(self, capsys, command, option):
        code, out, err = run(capsys, command, "--help")
        assert (code, err) == (0, "")
        (line,) = [line for line in out.splitlines() if line.startswith(f"  {option} ")]
        required = line.partition("; required for ")[2]
        actions = {action for (c, action) in _TAKES if c == command}
        assert set(re.findall(r"[a-z]+", line)) & actions == {
            action for (c, action), (takes, _) in _TAKES.items() if c == command and option in takes
        }
        assert set(re.findall(r"[a-z]+", required)) & actions == {
            action for (c, action), (_, needs) in _TAKES.items() if c == command and option in needs
        }

    @pytest.mark.parametrize("command,action,option,count", [
        (command, action, option, how[1]) for command in ("compute", "verify", "affine", "bench")
        for action, row in cli._rows(command).items()
        for option, (_, *how) in row.items() if how[0] == "sets"
    ])
    def test_help_counts_each_set(self, capsys, command, action, option, count):
        # Each action that takes sets is named with the count its row gives.
        (line,) = [line for line in run(capsys, command, "--help")[1].splitlines()
                   if line.startswith(f"  --{option} ")]
        assert f" {action} ({('one', 'two')[count - 1]})" in line

    @pytest.mark.parametrize("words,row,option", list(_options_taken()))
    def test_each_option_is_read_once(self, capsys, words, row, option):
        # With the row's required options at a valid value, the option given
        # once runs and given once more is refused; --set, one past its count.
        name, kind = " ".join(words), row[option][1]
        count = row[option][2] if kind == "sets" else 1
        base = [arg for other, (required, *_) in row.items() if required and other != option
                for arg in (f"--{other}", *_valid(row[other]))]
        given = [f"--{option}", *_valid(row[option])]
        assert run(capsys, *words, *base, *given * count)[0] == 0
        code, out, err = run(capsys, *words, *base, *given * (count + 1))
        refusal = (f"{name} requires exactly {('one', 'two')[count - 1]} --{option}"
                   if kind == "sets" else f"{name} takes --{option} once")
        assert (code, out, err) == (2, "", f"error: {refusal}\n")
        assert len(err.encode()) < 100


def _bounded():
    """Each bounded integer or n list of each row, with what its row requires
    besides it, each at its lowest, and its lowest and highest values."""
    for command in ("compute", "verify", "affine", "bench"):
        for action, row in cli._rows(command).items():
            ends = {option: (1, how[1]) if how[0] == "n" else tuple(how)
                    for option, (_, *how) in row.items()
                    if how[0] == "n" or len(how) == 2 and how[0] != "sets"}
            for option, (lowest, highest) in ends.items():
                base = [arg for other, (required, *_) in row.items() if required and other != option
                        for arg in (f"--{other}", str(ends[other][0]))]
                words = [command, action] if action else [command]
                yield pytest.param(words, base, option, lowest, highest,
                                   id=" ".join([*words, f"--{option}"]))


class TestBounds:
    """The ends of every bounded value are read, and one step past each is refused."""

    @pytest.mark.parametrize("words,base,option,lowest,highest", list(_bounded()))
    def test_ends_are_read(self, words, base, option, lowest, highest):
        # _parse counts nothing, so even the highest n is read at once.
        for end in (lowest, highest):
            if end is not None:
                argv = [*words, *base, f"--{option}", str(end)]
                assert cli._parse(argv)[2][option] in (end, [end])

    @pytest.mark.parametrize("words,base,option,lowest,highest", list(_bounded()))
    def test_one_step_past_is_refused(self, capsys, words, base, option, lowest, highest):
        for end, step in ((lowest, -1), (highest, 1)):
            if end is not None:
                code, out, err = run(capsys, *words, *base, f"--{option}", str(end + step))
                assert (code, out, err.count("\n")) == (2, "", 1)
                assert len(err.encode()) < 100 and err.endswith(f", got {end + step}\n")


_X01 = "\\x01" * 10


class TestTopLevel:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run(capsys) == (2, "", "error: no command given\n")

    @pytest.mark.parametrize(
        "argv,message",
        [
            ("frobnicate", "unknown command 'frobnicate'"),
            ("compute", "no compute action given"),
            ("compute x --n 5", "unknown compute action 'x'"),
            ("compute --n 5 f", "unknown compute action '--n'"),
            ("verify everything", "unknown verify action 'everything'"),
            ("compute f", "compute f requires --n"),
            ("compute f --k 2", "compute f does not take '--k'"),
            ("compute f --n", "n must be an integer, got ''"),
            ("compute phi --n=", "n must be an integer, got ''"),
            ("compute f --n 5 7", "compute f does not take '7'"),
            ("compute f --n 5 -x", "compute f does not take '-x'"),
            ("compute f --n 5 --n-max 7", "compute f does not take '--n-max'"),
            ("compute f --n 5 --format", "--format must be plain, json or bfile, got ''"),
            ("compute f --n 5 --format xml", "--format must be plain, json or bfile, got 'xml'"),
            ("verify recursions --n-m 5", "verify recursions does not take '--n-m'"),
            ("verify recursions --n 5", "verify recursions does not take '--n'"),
            ("verify recursions --k-max", "--k-max must be an integer, got ''"),
            ("affine dist --n 5 --inequivalent=1", "affine dist does not take '--inequivalent=1'"),
            # An option is read once: a repeat is refused before either value is read.
            ("affine dist --inequivalent --n 1 --inequivalent", "affine dist takes --inequivalent once"),
            ("affine dist --n 3 --inequivalent --inequivalent", "affine dist takes --inequivalent once"),
            ("compute f --n 4 --n 5", "compute f takes --n once"),
            ("compute f --n x --n 5", "compute f takes --n once"),
            ("compute f --n 0 --n 5", "compute f takes --n once"),
            ("compute f --n 3 --format json --format plain", "compute f takes --format once"),
            ("compute f --n 5 --format xml --format plain", "compute f takes --format once"),
            ("verify oracle --n-max 41 --n-max 7", "verify oracle takes --n-max once"),
            ("bench --n 99 --n 5 --reps 1", "bench takes --n once"),
            ("affine canon --set", "set element must be an integer, got ''"),
            ("bench", "bench requires --n"),
            ("bench --n 5 --k 2", "bench does not take '--k'"),
            ("bench --n 5 --reps", "--reps must be an integer, got ''"),
            ("bench --n 0 --reps 0", "--reps must be >= 1, got 0"),  # the row's order
            # Escaped to ASCII before it is cut, so each control or wide
            # character counts for its whole escape.
            ("compute f --n " + "\x01" * 30, f"n must be an integer, got '{_X01}...'"),
            ("compute f --n 5 " + "\x01" * 30, f"compute f does not take '{_X01}...'"),
            ("affine canon --set 1," + "\x01" * 30,
             f"set element must be an integer, got '{_X01}...'"),
            ("compute f --n " + "\U0001f600" * 30,
             "n must be an integer, got '" + "\\U0001f600" * 4 + "...'"),
        ],
    )
    def test_a_bad_command_line_is_one_short_line(self, capsys, argv, message):
        code, out, err = run(capsys, *argv.split())
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert len(err.encode()) < 100

    def test_a_bad_word_is_quoted_cut_short(self, capsys):
        assert run(capsys, "compute", "f", "--n", "5", "x\n" * 50) == (
            2, "", "error: compute f does not take 'x\\nx\\nx\\nx\\nx\\nx\\nx\\nx\\nx\\nx\\n...'\n"
        )
        code, out, err = run(capsys, "y" * 5000)
        assert (code, out, err) == (2, "", "error: unknown command 'yyyyyyyyyyyyyyyyyyyy...'\n")

    @pytest.mark.parametrize(
        "argv,expected",
        [
            ("compute f --n=1..5", "1 2 5 11 26\n"),
            ("compute fk --k=2 --n 4", "5\n"),
            ("affine equiv --set -4,10,17,38 --set=2,8,11,20", "true\n"),
            ("verify recursions --n-max=5 --k-max=1", "recursions: 5 checks passed\n"),
            ("bench --reps=1 --n 8", "n=8 "),
        ],
    )
    def test_option_spellings(self, capsys, argv, expected):
        code, out, err = run(capsys, *argv.split())
        assert (code, out[:len(expected)], err) == (0, expected, "")

    @pytest.mark.parametrize("argv", [
        "--help", "-h", "frobnicate --help", "compute --help", "compute -h", "compute f -h",
        "compute f --n 5 --help", "verify --help", "verify oracle --n-max 0 -h", "affine --help",
        "bench --help", "bench --n 99 --help", "affine canon --set -h",
    ])
    def test_help(self, capsys, argv):
        # Anywhere on the line, even as an option's value, before any other word is read.
        command = argv.split()[0]
        code, out, err = run(capsys, *argv.split())
        assert (code, err) == (0, "")
        if command in ("compute", "verify", "affine", "bench"):
            assert out.startswith(f"usage: relprime {command} ")
        else:
            assert out == run(capsys, "--help")[1]
            assert [line.split()[0] for line in out.splitlines()[1:]] == [
                "compute", "verify", "affine", "bench"
            ]

    def test_help_lines_come_from_the_rows(self, capsys):
        # Every option of a command has one help line, and only those.
        for command in ("compute", "verify", "affine", "bench"):
            lines = run(capsys, command, "--help")[1].splitlines()[2:]
            options = [line.split()[0] for line in lines]
            rows = cli._rows(command).values()
            assert sorted(options) == sorted({f"--{option}" for row in rows for option in row})
        assert run(capsys, "bench", "--help")[1].splitlines()[2:] == [
            "  --n     n value, range a..b, or comma list; required",
            "  --reps  timing repetitions, 3 if not given; optional",
        ]
        assert run(capsys, "affine", "--help")[1].splitlines()[2] == (
            "  --set           comma-separated integers; "
            "required for canon (one), equiv (two), profile (one)"
        )
        assert run(capsys, "verify", "--help")[1].splitlines()[2].startswith(
            "  --n-max  upper end of the check range (trial count for the affine suite; "
            "closed-forms runs its 13 checks whatever it is); "
        )
        assert run(capsys, "verify", "--help")[1].splitlines()[3] == (
            "  --k-max  largest k checked; "
            "optional for recursions, divisor-sums, bounds, asymptotics, oracle, kernels"
        )

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

    def test_output_ignores_the_int_string_limit(self):
        outputs = set()
        for digits in (None, "0", "640"):
            env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
            if digits is not None:
                env["PYTHONINTMAXSTRDIGITS"] = digits
            proc = subprocess.run(
                [sys.executable, "-m", "relprime", "compute", "phi", "--n", "300000"],
                capture_output=True, env={**env, "PYTHONPATH": str(SRC)}, check=True,
            )
            outputs.add(proc.stdout)
        assert len(outputs) == 1
        assert len(outputs.pop()) == 90_309 + 1  # digits and the newline

    def test_closed_pipe_exits_quietly(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "relprime", "compute", "f", "--n", "1..6000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        head = proc.stdout.read(5)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), err) == (141, b"")
        assert b"1 2 5 11".startswith(head)

    def test_closed_pipe_stops_the_count(self, monkeypatch, tmp_path):
        # Each value is written as it is computed, so the first failed write
        # ends the run before the next n is counted.
        from relprime import counting

        class ClosedPipe(io.StringIO):
            def __init__(self, fd):
                super().__init__()
                self.fd = fd

            def write(self, text):
                raise BrokenPipeError

            def fileno(self):
                return self.fd

        counted = []
        monkeypatch.setattr(counting, "count_relprime", lambda n: counted.append(n) or n)
        monkeypatch.setattr(sys, "argv", ["relprime", "compute", "f", "--n", "1..50"])
        with open(tmp_path / "stdout", "w") as target:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(target.fileno()))
            with pytest.raises(SystemExit) as exc:
                cli.entry_point()
        assert (exc.value.code, counted) == (141, [1])

    @pytest.mark.parametrize(
        "argv,code,out",
        [
            (["compute", "f", "--n", "5"], 0, "26\n"),
            (["compute", "f", "--n", "0"], 2, ""),
        ],
    )
    def test_entry_point_exit_code(self, capsys, monkeypatch, argv, code, out):
        from relprime import cli

        monkeypatch.setattr(sys, "argv", ["relprime", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.entry_point()
        assert (exc.value.code, capsys.readouterr().out) == (code, out)


_README = (SRC.parent / "README.md").read_text()


def _readme_cli_examples():
    """(command, output lines) for each example in the README's CLI block.

    bench is left out: it prints timings, which differ from run to run.
    """
    block = _README.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    examples = [example.splitlines() for example in block.strip().split("\n\n")]
    return [(command, output) for command, *output in examples if " bench " not in command]


_README_EXAMPLES = _readme_cli_examples()


@pytest.mark.parametrize(
    "command,output", _README_EXAMPLES, ids=[command for command, _ in _README_EXAMPLES]
)
def test_readme_cli_examples(capsys, command, output):
    prog, *argv = command.split()
    assert prog == "relprime"
    code, out, err = run(capsys, *argv)
    expected = _mask_elapsed("".join(line + "\n" for line in output))
    assert (code, _mask_elapsed(out), err) == (0, expected, "")


def test_readme_suite_table_is_the_rows():
    from relprime.checks import SUITES

    head = "| suite | lowest `--n-max` | cap | `--n-max` default | `--k-max` |\n|---|---|---|---|---|\n"
    read = {}
    for line in _README.split(head, 1)[1].split("\n\n", 1)[0].splitlines():
        names, lowest, cap, default, k_max = (cell.strip() for cell in line.strip("|").split("|"))
        for name in re.findall(r"`([a-z-]+)`", names.split("(")[0]):
            assert name not in read
            read[name] = (int(lowest), int(cap), cap if default == "the cap" else default, k_max)
    assert read == {
        name: (lowest, cap, str(min(cli._DEFAULT_N_MAX, cap)), "taken" if "k-max" in row else "refused")
        for name, (row, _) in SUITES.items() for _, lowest, cap in [row["n-max"]]
    }


def test_readme_caps_table_is_at_the_caps():
    # Each row that names a cap is read by the parser, or by its words, and
    # checked against the cap in the rows or in the module that holds it.
    from relprime.checks import SUITES

    head = "| command | wall time | peak RSS |\n|---|---|---|\n"
    checked = []
    for line in _README.split(head, 1)[1].split("\n\n", 1)[0].splitlines():
        command, note = re.fullmatch(r"\| `([^`]*)`([^|]*)\|.*", line).groups()
        if "elements" in note:  # a profile: its set is too long to write out
            (size,) = re.findall(r"with (\d+) random elements", note)
            assert int(size) == affine.PROFILE_MAX_ELEMENTS
            checked.append("profile")
            continue
        if not re.search("cap|longest", note):
            continue
        name, action, options = cli._parse(command.split())
        if name == "compute" and "longest range from 1" in note:
            ns = options["n"]
            assert ns == list(range(1, len(ns) + 1))
            assert sum(ns) <= cli.COMPUTE_MAX_TOTAL_N < sum(ns) + len(ns) + 1
            checked.append("range")
        elif name == "compute":
            assert max(options["n"]) == cli.COMPUTE_MAX_N
            checked.append(f"compute {action}")
        elif name == "verify":
            assert options["n-max"] == SUITES[action][0]["n-max"][2]
            checked.append(f"verify {action}")
        elif name == "affine":
            assert options["n"] == affine.DIST_MAX_N
            checked.append("dist")
        else:
            assert options["reps"] == cli.BENCH_MAX_REPS
            checked.append("reps")
    assert sorted(set(checked)) == sorted([
        "profile", "range", "compute f", "compute phi", "dist", "reps",
        *(f"verify {suite}" for suite in SUITES if suite != "closed-forms"),
    ])


def test_readme_says_what_each_affine_action_takes():
    rows = cli._rows("affine")
    sets = {action: row["set"][2] for action, row in rows.items() if "set" in row}
    one, two = ([action for action, count in sets.items() if count == n] for n in (1, 2))
    takes = [f"`--{option}`" + (", which it requires," if required else "")
             for option, (required, *_) in rows["dist"].items()]
    assert sorted([*sets, "dist"]) == sorted(rows)
    sentence = (f"`affine {one[0]}` and `affine {one[1]}` take one `--set`, and `affine {two[0]}` "
                f"two. `affine dist` takes {' '.join(takes[:-1])} and {takes[-1]}.")
    assert sentence in " ".join(_README.split())
