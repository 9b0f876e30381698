"""Tests of the benchmark's own code: references, generator, checker.

Run with: python -m pytest perfbench/tests
"""

import io
import itertools
from contextlib import redirect_stdout

import pytest

import checker
import run
import workloads
from relprime import affine, oracle
from relprime.cli import main as cli_main

A085945_FIRST_TEN = [1, 2, 5, 11, 26, 53, 116, 236, 488, 983]


@pytest.fixture(scope="module")
def ref():
    return checker.Reference()


def test_reference_reproduces_a085945(ref):
    assert [ref.f(n) for n in range(1, 11)] == A085945_FIRST_TEN


@pytest.mark.parametrize("n", range(1, 21))
def test_references_match_oracle(ref, n):
    assert ref.f(n) == oracle.enumerate_relprime(n)
    assert ref.phi(n) == oracle.enumerate_subset_phi(n)
    for d in checker.divisors(n):
        assert ref.psi(n, d) == oracle.enumerate_subset_psi(n, d)
    for k in sorted({1, 2, 3, n // 2, n} - {0}):
        assert ref.fk(n, k) == oracle.enumerate_relprime_k(n, k)
        assert ref.phik(n, k) == oracle.enumerate_subset_phi_k(n, k)


@pytest.mark.parametrize("n", range(0, 11))
def test_affine_classes_match_canonicalization(n):
    assert checker.affine_classes(n) == sum(
        affine.sumset_size_distribution(n, inequivalent_only=True).values())
    for k in range(1, n + 3):
        assert checker.affine_classes(n, k) == sum(
            affine.sumset_size_distribution(n, k=k, inequivalent_only=True).values())


def test_divisors():
    for n in range(1, 200):
        assert checker.divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests(workload):
    def first(seed):
        return list(itertools.islice(workloads.requests(workload, seed), 60))

    assert first(7) == first(7)
    assert first(7) != first(8)


def test_compute_mix_has_a_fixed_share_over_the_digit_limit(ref):
    chk = checker.Checker()
    reqs = list(itertools.islice(workloads.requests("compute", 3), 24))
    assert sum(chk.over_limit(argv) for argv in reqs) == 6


def _cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


CASES = [
    ["compute", "f", "--n", "1..30", "--format", "plain"],
    ["compute", "fk", "--k", "3", "--n", "5..40", "--format", "json"],
    ["compute", "phik", "--k", "2", "--n", "1..30", "--format", "bfile"],
    ["compute", "psi", "--d", "3", "--n", "3,6,9,300", "--format", "json"],
    ["compute", "phi", "--n", "4000", "--format", "plain"],
    ["verify", "recursions", "--n-max", "40"],
    ["verify", "closed-forms", "--n-max", "10"],
    ["verify", "asymptotics", "--n-max", "30"],
    ["affine", "dist", "--n", "7"],
    ["affine", "dist", "--n", "8", "--k", "3", "--inequivalent"],
    ["bench", "--n", "8..10", "--reps", "1"],
]


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv[:3]))
def test_checker_accepts_real_output_and_rejects_corruption(argv):
    chk = checker.Checker()
    code, out = _cli(argv)
    assert chk.check(argv, code, out, "").ok
    # Change the last digit of the last value: 5 -> 6, anything else -> 5.
    if '"value"' in out:
        pos = out.rindex('", "method"') - 1
    else:
        pos = max(i for i, ch in enumerate(out) if ch.isdigit())
    bad = out[:pos] + ("6" if out[pos] == "5" else "5") + out[pos + 1:]
    if argv[0] == "bench":  # timings are free text; drop a line instead
        bad = "\n".join(out.splitlines()[:-1]) + "\n"
    verdict = chk.check(argv, code, bad, "")
    assert not verdict.ok and verdict.cause.startswith("wrong_output")


def test_corrupted_output_counts_as_failed():
    chk = checker.Checker()
    argv = ["compute", "f", "--n", "1..10", "--format", "plain"]
    good = chk.check(argv, 0, "1 2 5 11 26 53 116 236 488 983\n", "")
    bad = chk.check(argv, 0, "1 2 5 11 26 53 116 236 488 984\n", "")

    def e2e(failures):
        verdicts = [bad] * failures + [good] * (20 - failures)
        records = [run.record(i, argv, run.Run(0, 0.1 + i / 100, 20.0, "", ""), v)
                   for i, v in enumerate(verdicts)]
        return run.end_to_end(records, [0.1])

    metrics, notes = e2e(2)
    assert notes["failed_ratio"] == pytest.approx(2 / 20)
    assert metrics["ok_ratio"] == pytest.approx(18 / 20)
    # Failures rank above every success: with ten or fewer of them the
    # tail (ten samples beyond it) is a success, with eleven a failure.
    assert metrics["latency_tail_s"] < 1.0
    assert e2e(10)[0]["latency_tail_s"] < 1.0
    assert e2e(11)[0]["latency_tail_s"] > run.FAILED_PENALTY_S


def test_digit_limit_exit_is_a_failure_with_its_cause():
    chk = checker.Checker()
    argv = ["compute", "f", "--n", "20000", "--format", "plain"]
    stderr = "error: Exceeds the limit (4300 digits) for integer string conversion\n"
    verdict = chk.check(argv, 2, "", stderr)
    assert (verdict.ok, verdict.cause, verdict.over_limit) == (False, "digit_limit", True)
    assert chk.check(["compute", "f", "--n", "14000"], 2, "", stderr).over_limit is False


def test_long_values_are_matched_without_str():
    value = 10**5000 + 123456789
    text = "1" + "0" * 4991 + "123456789"
    assert checker.matches(text, value)
    middle = text[:2500] + "1" + text[2501:]
    assert not checker.matches(middle, value)
    assert not checker.matches(text + "0", value)


def test_tail_is_the_maximum_of_a_short_sample():
    assert [run.tail_index(n) for n in (1, 5, 11, 12, 40)] == [0, 4, 0, 1, 29]


def test_fixed_work_runs_whole_size_cycles_whatever_the_seed():
    assert run.fixed_rounds("verify", 35) is None
    assert [run.fixed_rounds("compute", s) for s in (1, 35, 60)] == [3, 12, 21]
