"""salemunits benchmark: one workload, one closed loop, one process.

    python3 bench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

With ``--trace 0`` it runs rounds of the workload's calls until
``--seconds`` is spent, with set-up (import plus every plan, cold), each call
and the replay of its certificates interleaved, and reports medians.  With
``--trace 1`` it runs one untraced pass here and one traced pass in a child
process (``tracer.py``), and reports the per-layer metrics of the traced pass
plus the tracing overhead.  Every call and replay is checked against
``reference.json``.

The output is one ``metric <name> <value> <unit>`` line per metric, the
host line, and as the last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md for the workloads
and what each metric should show.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

import workloads

SETUPS_PER_ROUND = 20
MIN_REPLAY_S = 0.3  # each call's report bytes are replayed until that took this long
RUN_LIMIT_S = 170  # the whole run, traced child included, ends within this
COVERAGE_TOLERANCE = 0.05


def host_info() -> dict:
    revision = "unknown"
    if (workloads.ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=workloads.ROOT, capture_output=True, text=True, timeout=10
            )
            if proc.returncode == 0:
                revision = proc.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "host": platform.node(),
        "python": platform.python_version(),
        "git": revision,
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def rounds_of(tasks: list, rng: random.Random):
    """The tasks, reshuffled for each round, without end."""
    while True:
        rng.shuffle(tasks)
        yield from tasks


def sample_setup(workload: str) -> float:
    """Seconds for one cold set-up.  The calls keep running on the package they were prepared with."""
    kept = {name: module for name, module in sys.modules.items() if name.partition(".")[0] == "salemunits"}
    gc.collect()  # the modules of the previous set-up are garbage; a new process has none
    start = time.perf_counter()
    workloads.setup(workload)
    elapsed = time.perf_counter() - start
    sys.modules.update(kept)
    return elapsed


def run_untraced(workload: str, seed: int, seconds: float, reference: dict):
    """Rounds of the workload's calls, interleaved with set-ups, until ``seconds`` is spent.

    Each round runs every call once, and ``SETUPS_PER_ROUND`` cold set-ups,
    in a seeded order; the first round always ends, the last one stops when
    the longest task so far would not fit.  The calls run on one package
    instance, imported before the first round.  A call is one solve sample;
    the certificates it made are then replayed from its report bytes until
    that took ``MIN_REPLAY_S``, one verify sample a replay.  ``setup_s`` is
    the median set-up; ``solve_s`` and ``verify_s`` sum the median sample of
    each call.
    """
    rng = random.Random(seed)
    calls = list(workloads.WORKLOADS[workload])
    expected = workloads.expected_of(workload, reference)
    setup_s: list[float] = []
    solve_s: dict[str, list[float]] = {call.key: [] for call in calls}
    verify_s: dict[str, list[float]] = {call.key: [] for call in calls}
    attempted = failed = 0
    problems: list[str] = []
    longest = 0.0
    su = workloads.setup(workload)
    prepared = {call.key: call.prepare(su) for call in calls}
    tasks = [None] * SETUPS_PER_ROUND + calls  # None is a set-up
    begin = time.perf_counter()
    for done, call in enumerate(rounds_of(tasks, rng)):
        if done >= len(tasks) and time.perf_counter() - begin + longest > seconds:
            break
        start = time.perf_counter()
        if call is None:
            setup_s.append(sample_setup(workload))
        else:
            gc.collect()
            t0 = time.perf_counter()
            result = workloads.solve(su, call, prepared[call.key])
            solve_s[call.key].append(time.perf_counter() - t0)
            got, data = workloads.outputs_of(su, call, result)
            scores = [workloads.score_call(call.key, expected[call.key], got)]
            replayed = 0.0
            while data is not None and replayed < MIN_REPLAY_S:
                t0 = time.perf_counter()
                verdicts = workloads.replay_verdicts(su, data)
                verify_s[call.key].append(time.perf_counter() - t0)
                replayed += verify_s[call.key][-1]
                scores.append(workloads.score_replay(call.key, expected[call.key], verdicts))
            for a, f, p in scores:
                attempted, failed, problems = attempted + a, failed + f, problems + p
        longest = max(longest, time.perf_counter() - start)
    replayed_keys = [key for key, values in verify_s.items() if values]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "solve_s": (sum(statistics.median(values) for values in solve_s.values()), "s"),
        "verify_s": (sum(statistics.median(verify_s[key]) for key in replayed_keys), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    notes = [f"rounds {done / len(tasks):.2f}, set-ups {len(setup_s)}, replays {sum(len(v) for v in verify_s.values())}"]
    return metrics, attempted, failed, problems, notes


def run_traced(workload: str, seed: int, reference: dict, started: float):
    su = workloads.setup(workload)
    result = workloads.run_pass(su, workload, random.Random(seed))
    attempted, failed, problems = workloads.score(workload, reference, result)
    child = [sys.executable, str(workloads.BENCH_DIR / "tracer.py"), "--workload", workload, "--seed", str(seed)]
    timeout = RUN_LIMIT_S - (time.perf_counter() - started)
    proc = subprocess.run(child, capture_output=True, text=True, timeout=max(timeout, 1))
    if proc.returncode != 0:
        raise RuntimeError(f"traced run failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    traced = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {name: (value, unit) for name, (value, unit) in traced["metrics"].items()}
    metrics["trace.overhead"] = (traced["solve_s"] / result.solve_s, "ratio")
    coverage = metrics["salem.stage_coverage"][0]
    attempted += 1
    if abs(coverage - 1) > COVERAGE_TOLERANCE:
        problems.append(f"salem.stage_coverage {coverage:.4f} is not within {COVERAGE_TOLERANCE} of 1")
        failed += 1
    notes = [f"untraced solve_s {result.solve_s:.3f}", f"traced solve_s {traced['solve_s']:.3f}"]
    return (metrics, attempted + traced["attempted"], failed + traced["failed"], problems + traced["problems"], notes)


def main() -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description="salemunits benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        reference = workloads.load_reference()
        workloads.expected_of(args.workload, reference)
        workloads.import_fresh()
    except (workloads.SetupError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            out = run_traced(args.workload, args.seed, reference, started)
        else:
            out = run_untraced(args.workload, args.seed, args.seconds, reference)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    metrics, attempted, failed, problems, notes = out

    print(f"host {json.dumps(host_info(), sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: " + "; ".join(notes))
    for line in problems[:20]:
        print(f"MISMATCH {line}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(f"metric error_rate {failed / attempted if attempted else 1.0:.6g} ratio")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
