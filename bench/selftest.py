"""Self-test of the benchmark itself (not of salemunits).

    python3 bench/selftest.py

It checks that:

1. a pass of ``precision`` matches the reference, and corrupting one alpha
   digit, in the reference or in the report bytes that are replayed, makes
   the error rate positive;
2. every count the traced run reports repeats exactly across two traced runs
   with different seeds, each in its own process;
3. each mode reports exactly the metrics ``BENCHMARK.json`` names for it;
4. in a directory holding only ``BENCHMARK.json`` and ``bench/``, the
   benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
import tempfile

import workloads

EXACT_UNITS = ("count", "bits")


def _flip_last_digit(alpha: str) -> str:
    return alpha[:-1] + ("1" if alpha[-1] != "1" else "2")


def check_reference() -> list[str]:
    errors = []
    su = workloads.import_fresh()
    reference = workloads.load_reference()
    result = workloads.run_pass(su, "precision", random.Random(0))
    attempted, failed, problems = workloads.score("precision", reference, result)
    if failed:
        errors.append(f"clean pass of precision failed {failed}/{attempted}: {problems[:3]}")

    corrupted = copy.deepcopy(reference)
    key = workloads.CertifyTrace(12, 9, 3, 1000).key
    record = corrupted["precision"][key]["result"]
    record[1] = _flip_last_digit(record[1])
    if workloads.score("precision", corrupted, result)[1] == 0:
        errors.append("a corrupted alpha digit in the reference went unnoticed")

    payload = json.loads(result.payloads[key])
    entry = payload["certificates"][0]
    entry["alpha"] = _flip_last_digit(entry["alpha"])
    result.replays[key] = workloads.replay(su, workloads.report_bytes(payload))
    if workloads.score("precision", reference, result)[1] == 0:
        errors.append("a corrupted alpha digit in the replayed report went unnoticed")
    return errors


def _run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(workloads.BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: run exited {proc.returncode}: {proc.stderr[-300:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(kind: str) -> set[str]:
    with open(workloads.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def check_metric_names() -> list[str]:
    got = set(_run("precision", 1, 0)["metrics"])
    if got != _declared("end_to_end"):
        return [f"untraced metrics {sorted(got)} differ from BENCHMARK.json end_to_end"]
    return []


def check_exact_counts(workload: str) -> list[str]:
    first, second = _run(workload, 1, 1), _run(workload, 2, 1)
    errors = []
    if set(first["metrics"]) != _declared("per_layer"):
        errors.append(f"{workload}: traced metrics differ from BENCHMARK.json per_layer")
    for run in (first, second):
        if not run["correct"]:
            errors.append(f"{workload}: traced run not correct ({run['failed']}/{run['attempted']} failed)")
    for name, metric in first["metrics"].items():
        if metric["unit"] in EXACT_UNITS and metric["value"] != second["metrics"][name]["value"]:
            errors.append(f"{workload}: {name} differs: {metric['value']} vs {second['metrics'][name]['value']}")
    return errors


def check_bare_directory() -> list[str]:
    with tempfile.TemporaryDirectory(prefix=".bench-selftest-", dir=workloads.ROOT) as tmp:
        shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(workloads.BENCH_DIR, f"{tmp}/bench", ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=tmp, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    errors = check_reference() + check_bare_directory() + check_metric_names()
    for name in workloads.WORKLOADS:
        errors += check_exact_counts(name)
    for line in errors:
        print(f"FAIL {line}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
