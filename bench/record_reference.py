"""Record the reference outputs every benchmark run is checked against.

Run once, at the commit whose outputs are taken as correct:

    python3 bench/record_reference.py

It runs one pass of each workload and writes ``bench/reference.json``: for
each call, the sha256 of its report bytes, every alpha string with the sha256
of its certificate JSON, and every rejection as (check, value).  It refuses to
write when any produced certificate fails its own replay.
"""

from __future__ import annotations

import json
import random
import sys

import workloads


def main() -> int:
    su = workloads.import_fresh()
    reference = {}
    for name in workloads.WORKLOADS:
        result = workloads.run_pass(su, name, random.Random(0))
        for key, verdicts in result.replays.items():
            if not isinstance(verdicts, list) or any(verdicts):
                print(f"{name}: {key} does not replay: {verdicts!r}", file=sys.stderr)
                return 1
        for key, outputs in result.outputs.items():
            if "error" in outputs:
                print(f"{name}: {key} raised {outputs['error']}", file=sys.stderr)
                return 1
        reference[name] = {call.key: result.outputs[call.key] for call in workloads.WORKLOADS[name]}
        print(f"{name}: solve {result.solve_s:.2f} s, verify {result.verify_s:.2f} s")
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
