"""Benchmark of the relprime CLI, one fresh process per request.

    python3 perfbench/run.py --workload compute|verify|enumerate \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  One client sends the seeded requests
of perfbench/workloads.py in a closed loop, one at a time, each as a new
`python -m relprime ...` process, until the requests have taken S
seconds of wall time.  A workload with failures known at this commit
(compute, whose values past 4300 digits exit 2) instead runs a fixed
number of whole rounds, sized so that they take about S seconds at the
nominal round cost in NOMINAL_ROUND_S: then every run, whatever the
machine's speed, attempts and fails exactly as many requests.  Every
output is checked by perfbench/checker.py outside the timed region.

--trace 0 reports the end-to-end metrics:
  setup_s         median wall time of `compute f --n 1` (interpreter start
                  plus importing relprime.cli), over SETUP_RUNS runs spread
                  over the measurement
  ok_per_s        correct requests / summed request wall time
  latency_p50_s   median request wall time, spawn to exit
  latency_tail_s  the highest percentile with TAIL_BEYOND samples beyond it
  ok_ratio        correct requests / attempted requests (1 - failed ratio)
  peak_rss_mb     largest peak RSS of any request's process (os.wait4)
A failed request counts as FAILED_PENALTY_S plus its wall time in both
latency metrics, so it ranks above every success and a percentile that
lands on a failure reads as more than FAILED_PENALTY_S.

--trace 1 runs the first TRACE_ROUNDS rounds of the workload (one cycle
of its nominal sizes; --seconds does not apply), each request twice,
plainly and under perfbench/trace_child.py.  It reports per-layer
metrics summed over the traced runs, which for a given seed cover the
same requests on every run, plus the tracing overhead (traced / plain
wall time).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Per-request records (argv, exit
code, wall and CPU time, peak RSS, failure cause) and, when traced, the
spans go to perfbench/results/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_ARGV = ["compute", "f", "--n", "1"]
SETUP_RUNS = 15
SIZE_CYCLE = 3  # rounds after which every template has used each nominal size
TRACE_ROUNDS = SIZE_CYCLE
# Wall seconds of one round at this commit, for the workloads that run a
# fixed number of rounds (2-vCPU x86-64 VM, CPython 3.11).
NOMINAL_ROUND_S = {"compute": 2.7}
TRACE_BUDGET_S = 150.0  # stop tracing early rather than pass the exit deadline
TAIL_BEYOND = 10
REQUEST_TIMEOUT_S = 60.0
FAILED_PENALTY_S = REQUEST_TIMEOUT_S
# Variables that would change what the program computes or accepts.  The
# digit limit in particular stays at CPython's default, so the defect it
# exposes stays visible.
SCRUBBED_ENV = ("PYTHONPATH", "PYTHONINTMAXSTRDIGITS", "RELPRIME_ORACLE_MAX")

UNITS = {
    "setup_s": "s", "ok_per_s": "1/s", "latency_p50_s": "s", "latency_tail_s": "s",
    "ok_ratio": "ratio", "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "cli.self_s": "s", "cli.decimal_s": "s", "cli.decimal_bits": "bits",
    "cli.digit_limit_failures": "count",
    "arith.sieve_s": "s", "arith.sieve_calls": "count", "arith.sieve_limit_max": "count",
    "arith.binomial_calls": "count", "arith.divisors_calls": "count",
    "counting.f_s": "s", "counting.fk_s": "s", "counting.recursion_s": "s",
    "counting.terms": "count", "counting.cache_hits": "count",
    "counting.cache_misses": "count", "counting.cache_entries": "count",
    "setphi.phi_s": "s", "setphi.phik_s": "s", "setphi.divisor_sum_s": "s",
    "setphi.terms": "count", "setphi.cache_hits": "count",
    "setphi.cache_misses": "count", "setphi.cache_entries": "count",
    "oracle.enumerate_s": "s", "oracle.calls": "count", "oracle.masks_scanned": "count",
    "oracle.useful_ratio": "ratio",
    "affine.dist_s": "s", "affine.dist_masks": "count", "affine.canonical_calls": "count",
    "affine.canonical_s": "s", "affine.kept_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Run:
    code: int | None  # None when killed at REQUEST_TIMEOUT_S
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str
    cpu_s: float = 0.0  # user + system time of the process


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(cmd: list[str], env: dict[str, str]) -> Run:
    """Run cmd to completion; time it from spawn to exit, read its rusage."""
    with tempfile.TemporaryFile(dir=RESULTS) as out, tempfile.TemporaryFile(dir=RESULTS) as err:
        killed = threading.Event()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)

        def kill() -> None:
            killed.set()
            proc.kill()

        timer = threading.Timer(REQUEST_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.join()
        out.seek(0)
        err.seek(0)
        return Run(
            code=None if killed.is_set() else proc.returncode,
            wall_s=wall,
            rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out.read().decode(errors="replace"),
            stderr=err.read().decode(errors="replace"),
            cpu_s=usage.ru_utime + usage.ru_stime,
        )


def cli_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "relprime", *argv]


class SetupProbe:
    """Wall times of a CLI run that does no counting work.

    The first run is not kept: it writes the bytecode cache.  The kept
    runs are spread over the whole measurement, so that their median
    averages over the machine's changing speed."""

    def __init__(self, env: dict[str, str], chk: checker.Checker) -> None:
        self.env, self.chk, self.walls = env, chk, []
        self._run()
        self.walls.clear()

    def _run(self) -> None:
        run = spawn(cli_cmd(SETUP_ARGV), self.env)
        verdict = self.chk.check(SETUP_ARGV, run.code, run.stdout, run.stderr)
        if not verdict.ok:
            raise SystemExit(f"set-up request failed ({verdict.cause}): {run.stderr.strip()}")
        self.walls.append(run.wall_s)

    def due(self, spent: float, seconds: float) -> None:
        """Probe until SETUP_RUNS runs are spread evenly over the budget."""
        while len(self.walls) < SETUP_RUNS and spent >= seconds * len(self.walls) / SETUP_RUNS:
            self._run()

    def finish(self) -> None:
        while len(self.walls) < SETUP_RUNS:
            self._run()


def record(i: int, argv: list[str], run: Run, verdict: checker.Verdict) -> dict:
    return {
        "id": i, "argv": argv, "exit_code": run.code, "wall_s": run.wall_s, "cpu_s": run.cpu_s,
        "peak_rss_mb": run.rss_mb, "ok": verdict.ok, "cause": verdict.cause,
        "over_limit": verdict.over_limit,
    }


def tail_index(n: int) -> int:
    """Index in an ascending sample of the highest percentile that still
    has TAIL_BEYOND samples beyond it (the maximum when there are too few)."""
    return n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1


def end_to_end(records: list[dict], setup: list[float]) -> tuple[dict, dict]:
    latencies = sorted(r["wall_s"] + (0.0 if r["ok"] else FAILED_PENALTY_S) for r in records)
    ok = sum(r["ok"] for r in records)
    tail = tail_index(len(latencies))
    metrics = {
        "setup_s": statistics.median(setup),
        "ok_per_s": ok / sum(r["wall_s"] for r in records),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": latencies[tail],
        "ok_ratio": ok / len(records),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
    }
    notes = {
        "tail_rank": tail + 1,
        "tail_percentile": 100.0 * (tail + 1) / len(latencies),
        "samples": len(latencies),
        "failed_ratio": 1.0 - metrics["ok_ratio"],
        "over_limit_share": sum(r["over_limit"] for r in records) / len(records),
        "causes": _causes(records),
    }
    return metrics, notes


def _causes(records: list[dict]) -> dict[str, int]:
    out: dict[str, int] = {}
    for r in records:
        if r["cause"]:
            key = r["cause"].split(":")[0]
            out[key] = out.get(key, 0) + 1
    return out


def per_layer(traces: list[dict], plain_s: float, traced_s: float) -> dict:
    stats: dict[str, list] = {}
    counters: dict[str, int] = {}
    for trace in traces:
        for name, (calls, total, own) in trace["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        for name, value in trace["counters"].items():
            if name == "arith.sieve_limit_max":
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value

    def calls(name: str) -> int:
        return stats.get(name, [0])[0]

    def total(*names: str) -> float:
        return sum(stats.get(name, [0, 0.0])[1] for name in names)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    oracle = [name for name in stats if name.startswith("oracle.")]
    layers = {
        "cli.self_s": stats.get("cli.main", [0, 0.0, 0.0])[2],
        "cli.decimal_s": total("cli.decimal"),
        "cli.decimal_bits": counters.get("cli.decimal_bits", 0),
        "cli.digit_limit_failures": counters.get("cli.digit_limit_failures", 0),
        "arith.sieve_s": total("arith.mobius_sieve"),
        "arith.sieve_calls": calls("arith.mobius_sieve"),
        "arith.sieve_limit_max": counters.get("arith.sieve_limit_max", 0),
        "arith.binomial_calls": calls("arith.binomial"),
        "arith.divisors_calls": calls("arith.divisors"),
        "counting.f_s": total("counting.count_relprime"),
        "counting.fk_s": total("counting.count_relprime_k"),
        "counting.recursion_s": total("counting.verify_recursion", "counting.verify_recursion_k"),
        "setphi.phi_s": total("setphi.subset_phi"),
        "setphi.phik_s": total("setphi.subset_phi_k"),
        "setphi.divisor_sum_s": total("setphi.verify_divisor_sum", "setphi.verify_divisor_sum_k"),
        "oracle.enumerate_s": total(*oracle),
        "oracle.calls": sum(calls(name) for name in oracle),
        "oracle.masks_scanned": counters.get("oracle.masks_scanned", 0),
        "oracle.useful_ratio": ratio(counters.get("oracle.useful_masks", 0),
                                     counters.get("oracle.masks_scanned", 0)),
        "affine.dist_s": total("affine.sumset_size_distribution"),
        "affine.dist_masks": counters.get("affine.dist_masks", 0),
        "affine.canonical_calls": calls("affine.canonical_form"),
        "affine.canonical_s": total("affine.canonical_form"),
        "affine.kept_ratio": ratio(counters.get("affine.kept", 0),
                                   counters.get("affine.canonicalized", 0)),
        "trace.overhead_ratio": ratio(traced_s, plain_s),
    }
    for layer in ("counting", "setphi"):
        misses = counters.get(f"{layer}.cache_misses", 0)
        layers[f"{layer}.terms"] = counters.get(f"{layer}.terms", 0)
        layers[f"{layer}.cache_hits"] = counters.get(f"{layer}.calls", 0) - misses
        layers[f"{layer}.cache_misses"] = misses
        layers[f"{layer}.cache_entries"] = counters.get(f"{layer}.cache_entries", 0)
    return {name: layers[name] for name in LAYER_UNITS}


def fixed_rounds(workload: str, seconds: float) -> int | None:
    """Whole rounds a fixed-work workload runs for `seconds`, in whole
    size cycles; None for a workload that runs until `seconds` are spent."""
    if workload not in NOMINAL_ROUND_S:
        return None
    cycles = round(seconds / (SIZE_CYCLE * NOMINAL_ROUND_S[workload]))
    return SIZE_CYCLE * max(1, cycles)


def timed_run(args, env, chk) -> tuple[dict, list[dict], dict]:
    setup = SetupProbe(env, chk)
    records: list[dict] = []
    spent = 0.0
    n_rounds = fixed_rounds(args.workload, args.seconds)
    if n_rounds is None:
        todo, budget = workloads.requests(args.workload, args.seed), args.seconds
    else:
        batches = itertools.islice(workloads.rounds(args.workload, args.seed), n_rounds)
        todo = itertools.chain.from_iterable(batches)
        budget = n_rounds * NOMINAL_ROUND_S[args.workload]
    for i, argv in enumerate(todo):
        setup.due(spent, budget)
        if n_rounds is None and spent >= budget:
            break
        run = spawn(cli_cmd(argv), env)
        spent += run.wall_s
        records.append(record(i, argv, run, chk.check(argv, run.code, run.stdout, run.stderr)))
    setup.finish()
    metrics, notes = end_to_end(records, setup.walls)
    notes["setup_runs_s"] = setup.walls
    return {name: (metrics[name], UNITS[name]) for name in UNITS}, records, notes


def traced_run(args, env, chk) -> tuple[dict, list[dict], dict]:
    SetupProbe(env, chk)  # checks that the program runs, writes the bytecode cache
    records: list[dict] = []
    traces: list[dict] = []
    spans: list[list] = []
    plain_s = traced_s = 0.0
    trace_file = RESULTS / f".trace-{os.getpid()}.json"
    runner = str(HERE / "trace_child.py")
    batches = itertools.islice(workloads.rounds(args.workload, args.seed), TRACE_ROUNDS)
    for i, argv in enumerate(itertools.chain.from_iterable(batches)):
        if plain_s + traced_s >= TRACE_BUDGET_S:
            break
        plain = spawn(cli_cmd(argv), env)
        traced = spawn([sys.executable, runner, str(trace_file), *argv], env)
        plain_s += plain.wall_s
        traced_s += traced.wall_s
        verdicts = [chk.check(argv, run.code, run.stdout, run.stderr) for run in (plain, traced)]
        rec = record(i, argv, plain, verdicts[0])
        rec.update(traced_wall_s=traced.wall_s, traced_exit_code=traced.code,
                   traced_cause=verdicts[1].cause, ok=verdicts[0].ok and verdicts[1].ok,
                   cause=verdicts[0].cause or verdicts[1].cause)
        records.append(rec)
        if trace_file.exists():
            trace = json.loads(trace_file.read_text())
            trace_file.unlink()
            traces.append(trace)
            spans.extend([i, *span] for span in trace["spans"])
    layers = per_layer(traces, plain_s, traced_s)
    notes = {"spans": spans, "span_fields": ["request", "name", "start_s", "end_s", "parent"]}
    return {name: (layers[name], LAYER_UNITS[name]) for name in LAYER_UNITS}, records, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "relprime" / "cli.py").is_file():
        print(f"error: no relprime sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    env = child_env()
    chk = checker.Checker()
    run = traced_run if args.trace else timed_run
    metrics, records, notes = run(args, env, chk)

    failed = sum(not r["ok"] for r in records)
    correct = not any(str(r.get(key)).startswith("wrong_output")
                      for r in records for key in ("cause", "traced_cause"))
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"args": vars(args), "result": result, "notes": notes,
                               "requests": records}))
    print(f"workload {args.workload}, seed {args.seed}: {len(records)} requests, "
          f"{failed} failed {_causes(records) or ''}; records in {out.relative_to(ROOT)}")
    if not args.trace:
        print(f"latency_tail_s is p{notes['tail_percentile']:.1f} "
              f"(rank {notes['tail_rank']} of {notes['samples']}); failed_ratio "
              f"{notes['failed_ratio']:.4f}; share over {checker.DIGIT_LIMIT} digits "
              f"{notes['over_limit_share']:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
