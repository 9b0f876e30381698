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
from relprime.setphi import subset_phi, subset_phi_k, subset_psi

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
            ("fk --n 5", "function fk requires --k"),
            ("phik --n 5 --d 1", "function phik requires --k"),
            ("f --n 4 --k 2", "function f does not take --k"),
            ("f --n 5 --k 0", "function f does not take --k"),
            ("psi --n 6 --d 0 --k 1", "function psi does not take --k"),
            ("psi --n 6", "function psi requires --d"),
            ("phi --n 6 --d 2", "function phi does not take --d"),
            ("phi --n 6 --d 0", "function phi does not take --d"),
            ("fk --n 5 --k 0 --d 3", "function fk does not take --d"),
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
        assert run(capsys, "bench", "--n", "1..51") == (
            2, "", "error: range end must be <= 50, got 51\n"
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

    def test_parser_lists_the_rows_of_the_table(self):
        from relprime.checks import SUITES

        verify = cli.build_parser()._subparsers._group_actions[0].choices["verify"]
        (suite,) = [action for action in verify._actions if action.dest == "suite"]
        assert list(suite.choices) == sorted(SUITES)
        # The --k-max help names the rows that sample no k, and only those.
        (k_max,) = [action for action in verify._actions if action.dest == "k_max"]
        assert {name for name in SUITES if name in k_max.help} == {
            name for name, row in SUITES.items() if not row[2]
        }

    def test_the_oracle_cap_is_the_enumeration_guard(self):
        from relprime import checks, oracle

        assert checks.SUITES["oracle"][:2] == (1, oracle.ORACLE_MAX)

    def test_every_other_suite_has_one_cap(self):
        from relprime import checks

        caps = {name: row[1] for name, row in checks.SUITES.items() if name != "oracle"}
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
        # Before its value is read, so every value is refused the same way.
        code, out, err = run(capsys, "verify", suite, "--k-max", k_max)
        assert (code, out) == (2, "")
        assert err == f"error: verify {suite} samples no k; it does not take --k-max\n"
        # --n-max is checked first, and its message is unchanged.
        assert run(capsys, "verify", suite, "--n-max", "0", "--k-max", k_max) == (
            2, "", "error: --n-max must be >= 1, got 0\n"
        )

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
        lowest, _, samples_k, _ = checks.SUITES[suite]
        code, out, err = run(capsys, "verify", suite, "--n-max", "12")
        capped = run(capsys, "verify", suite, "--n-max", "12", "--k-max", "1")
        if samples_k:
            assert (code, err) == (1, "")
            assert out.startswith(f"{suite}: FAIL after ") and out.endswith(", k=2\n"), out
            assert capped == (0, f"{suite}: {13 - lowest} checks passed\n", "")
        else:
            assert (code, out.endswith(" checks passed\n"), err) == (0, True, "")
            assert capped == (
                2, "", f"error: verify {suite} samples no k; it does not take --k-max\n"
            )

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
            ("recursions", "counting", "verify_recursion", lambda n: n < 4,
             "3 passing checks: count recursion failed at n=4"),
            ("recursions", "counting", "verify_recursion_k", lambda n, k: k < 3,
             "2 passing checks: count recursion failed at n=3, k=3"),
            ("divisor-sums", "setphi", "verify_divisor_sum", lambda n: n < 5,
             "4 passing checks: divisor sum failed at n=5"),
            ("divisor-sums", "setphi", "verify_divisor_sum_k", lambda n, k: k != 2,
             "1 passing checks: divisor sum failed at n=2, k=2"),
            ("bounds", "counting", "count_relprime", lambda n: -1,
             "1 passing checks: sandwich violated at n=2"),
            ("bounds", "counting", "count_relprime_k", lambda n, k: -1,
             "0 passing checks: sandwich violated at n=1, k=1"),
            ("asymptotics", "setphi", "residual_bound", lambda n: -1,
             "0 passing checks: residual envelope violated at n=2"),
            ("asymptotics", "setphi", "residual_bound_k", lambda n, k: -1 if n > 6 else 1 << n,
             "5 passing checks: residual envelope violated at n=7, k=1"),
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
    def test_failure_messages(self, capsys, monkeypatch, suite, module, name, broken, failure):
        from relprime import counting, setphi

        monkeypatch.setattr({"counting": counting, "setphi": setphi}[module], name, broken)
        code, out, err = run(capsys, "verify", suite, "--n-max", "10")
        assert (code, out, err) == (1, f"{suite}: FAIL after {failure}\n", "")


def _randint_choice_trials(count):
    """The affine suite's sets and maps, drawn with randint and choice as they once were."""
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
        for flag in ("--n", "--k"):
            assert run(capsys, "affine", "canon", "--set", "1,2", flag, "3") == (
                2, "", "error: affine canon takes --set, not --n/--k\n"
            )
        for action, sets in (("canon", ["1,2"]), ("equiv", ["1,2", "3,4"]), ("profile", ["1,2"])):
            argv = [arg for s in sets for arg in ("--set", s)]
            assert run(capsys, "affine", action, *argv, "--inequivalent") == (
                2, "", f"error: affine {action} does not take --inequivalent\n"
            )
        # The earlier checks keep their messages.
        assert run(capsys, "affine", "canon", "--inequivalent") == (
            2, "", "error: affine canon requires exactly one --set\n"
        )
        assert run(capsys, "affine", "canon", "--set", "1,2", "--n", "3", "--inequivalent") == (
            2, "", "error: affine canon takes --set, not --n/--k\n"
        )


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


def _readme_cli_examples():
    """(command, output lines) for each example in the README's CLI block.

    bench is left out: it prints timings, which differ from run to run.
    """
    text = (SRC.parent / "README.md").read_text()
    block = text.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
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
