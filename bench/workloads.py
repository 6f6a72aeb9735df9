"""Workload definitions, single calls and passes, and the reference check.

A workload is a fixed list of calls into the public salemunits API.  A call
is solved (the certification, timed as ``solve_s``), its result encoded to
report JSON bytes, and every certificate in them replayed from those bytes
(the read path, timed as ``verify_s``).  ``run.py`` interleaves single calls
and replays; a pass (``run_pass``) runs every call once and then every replay
once, for the traced run and for recording references.  The seed only fixes
the order of calls and replays: the inputs themselves are fixed, because
committed reference outputs exist for exactly these calls
(``reference.json``, recorded with ``record_reference.py``).

Operations, as counted in ``attempted``/``failed``: one candidate a decided by
a search, one report's bytes, one ``certify_trace`` or ``certify_min_poly``
call, and one certificate replay.  An operation fails when its output differs
from the reference or when it raises unexpectedly; an expected rejection
(e.g. ``root_pattern`` below a = 29) is a correct output.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_PATH = BENCH_DIR / "reference.json"


class SetupError(Exception):
    """The checkout does not hold the package this benchmark measures."""


def import_fresh():
    """Import salemunits from this checkout's ``src`` with cold module-level caches.

    Any earlier import is dropped first, so the ``cheb``/``cyclo_trace`` caches
    start empty, as they do for a new user process.
    """
    if not (SRC / "salemunits" / "__init__.py").is_file():
        raise SetupError(f"no salemunits package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "salemunits" or m.startswith("salemunits.")]:
        del sys.modules[name]
    su = importlib.import_module("salemunits")
    if Path(su.__file__).resolve().parent != (SRC / "salemunits").resolve():
        raise SetupError(f"salemunits was imported from {su.__file__}, not from {SRC}")
    return su


def report_bytes(payload: dict) -> bytes:
    """Canonical report encoding: ``search --format json`` output without its final newline."""
    return json.dumps(payload, indent=2, sort_keys=True).encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def encode_payload(su, result) -> bytes:
    """Report JSON bytes holding the certificates a call produced."""
    if isinstance(result, su.SearchReport):
        return report_bytes(result.to_json_dict())
    certs = [result] if isinstance(result, su.SalemCertificate) else []
    return report_bytes({"certificates": [c.to_json_dict() for c in certs]})


def decode_payload(su, data: bytes) -> list:
    """Certificates parsed back from report bytes, as ``certify --from-report`` does."""
    payload = json.loads(data)
    return [su.SalemCertificate.from_json_dict(entry) for entry in payload["certificates"]]


def replay(su, data: bytes) -> list[list[str]]:
    """Replay every certificate in the bytes; one list of failed checks per certificate."""
    return [su.salem.verify_certificate(cert) for cert in decode_payload(su, data)]


def _cert_record(su, cert) -> list:
    return ["certified", cert.alpha_decimal, sha256(report_bytes(cert.to_json_dict()))]


def _rejection(err) -> list:
    value = err.data.get("value")
    return ["rejected", err.check] + ([] if value is None else [str(value)])


@dataclass(frozen=True)
class Call:
    """One certification call on the plan for (n, t)."""

    n: int
    t: int

    def prepare(self, su):
        """Inputs made before the solve phase, outside its timing."""
        return None

    def outputs(self, su, result, data: bytes) -> dict:
        """The result as compared with the reference, operation by operation."""
        return {"result": _cert_record(su, result)}


@dataclass(frozen=True)
class Search(Call):
    """``search(n, t, a_min, a_max, want)``: one operation per candidate a, plus the report bytes."""

    a_min: int
    a_max: int
    want: int

    @property
    def key(self) -> str:
        return f"search n={self.n} t={self.t} a={self.a_min}..{self.a_max} want={self.want}"

    def execute(self, su, prepared):
        return su.search(self.n, self.t, a_min=self.a_min, a_max=self.a_max, want=self.want)

    def outputs(self, su, result, data: bytes) -> dict:
        out = {"report": sha256(data)}
        for cert in result.certificates:
            out[f"a={cert.a}"] = _cert_record(su, cert)
        for a, check in result.failures:
            out[f"a={a}"] = ["rejected", check]
        return out


@dataclass(frozen=True)
class CertifyTrace(Call):
    """``build_candidate`` then ``certify_trace`` at one a, with ``digits`` digits of alpha."""

    a: int
    digits: int

    @property
    def key(self) -> str:
        return f"certify_trace n={self.n} t={self.t} a={self.a} digits={self.digits}"

    def prepare(self, su):
        return su.plan_construction(self.n, self.t)

    def execute(self, su, plan):
        trace = su.build_candidate(plan, self.a)
        return su.certify_trace(
            trace, self.n, construction=plan.construction, a=self.a, precision_digits=self.digits
        )


@dataclass(frozen=True)
class CertifyMinPoly(Call):
    """``certify_min_poly`` on the lift S of the (n, t, a) candidate, tested at ``unit_n``."""

    a: int
    unit_n: int

    @property
    def key(self) -> str:
        return f"certify_min_poly S(n={self.n} t={self.t} a={self.a}) at n={self.unit_n}"

    def prepare(self, su):
        plan = su.plan_construction(self.n, self.t)
        return su.lift_trace(su.build_candidate(plan, self.a), self.t)

    def execute(self, su, s_poly):
        return su.certify_min_poly(s_poly, self.unit_n, a=self.a)


def search_each(n: int, t: int, a_min: int, a_max: int, step: int = 1) -> tuple[Search, ...]:
    """One ``search`` per candidate a in range(a_min, a_max + 1, step).

    Each decides its candidate exactly as one search over the whole range
    would.  Short calls are timed many times in one run, where one long
    search would be timed a few times.  The plans these are used on have no
    Sturm cross-checks, so a search call costs nothing beyond its candidate.
    """
    return tuple(Search(n, t, a, a, 1) for a in range(a_min, a_max + 1, step))


# Why each workload exists, and what it should show, is in README.md.  The
# per-candidate searches end where search(n, t, a_min, 200, want) stops, at
# its want-th certificate: a = 115 on (92,61) and a = 160 on (124,71).  The
# sweep takes every other candidate of (92,61), so that a run times each
# candidate several times.
WORKLOADS: dict[str, tuple] = {
    "sweep": (Search(44, 31, 3, 200, 5),) + search_each(92, 61, 3, 115, step=2),
    "certify": search_each(92, 61, 111, 115) + search_each(124, 71, 158, 160),
    "precision": (
        CertifyTrace(12, 9, 3, 1000),
        CertifyTrace(44, 31, 29, 300),
        CertifyMinPoly(12, 9, 3, 1000),
    ),
}


def plans_of(workload: str) -> list[tuple[int, int]]:
    """The (n, t) plans a workload uses, in first-use order."""
    return list(dict.fromkeys((call.n, call.t) for call in WORKLOADS[workload]))


def setup(workload: str):
    """What a user pays before the first certification: import, then every plan."""
    su = import_fresh()
    for n, t in plans_of(workload):
        su.plan_construction(n, t)
    return su


def solve(su, call: Call, prepared):
    """The result of one call; an exception is its output (a rejection) or its failure."""
    try:
        return call.execute(su, prepared)
    except Exception as err:
        return err


def outputs_of(su, call: Call, result) -> tuple[dict, bytes | None]:
    """(the result as compared with the reference, its report bytes if they hold a certificate)."""
    if isinstance(result, su.CertificationError):
        return {"result": _rejection(result)}, None
    if isinstance(result, Exception):
        return {"error": repr(result)}, None
    data = encode_payload(su, result)
    holds_certificates = isinstance(result, su.SalemCertificate) or bool(result.certificates)
    return call.outputs(su, result, data), data if holds_certificates else None


def replay_verdicts(su, data: bytes):
    """One list of failed checks per certificate, or the error the replay raised."""
    try:
        return replay(su, data)
    except Exception as err:
        return repr(err)


@dataclass
class PassResult:
    solve_s: float
    verify_s: float
    outputs: dict  # call key -> {operation -> output}
    payloads: dict  # call key -> report bytes
    replays: dict  # call key -> [failed checks per certificate], or an error string


def run_pass(
    su,
    workload: str,
    rng: random.Random,
    mark: Callable[[str], None] = lambda phase: None,
) -> PassResult:
    """Run every call of the workload once, then replay every certificate it produced once.

    ``mark`` is told when each phase begins (prepare, solve, verify, done);
    the traced run uses it to keep the phases apart.
    """
    calls = list(WORKLOADS[workload])
    rng.shuffle(calls)
    mark("prepare")
    prepared = [call.prepare(su) for call in calls]
    results = {}
    mark("solve")
    start = time.perf_counter()
    for call, arg in zip(calls, prepared):
        results[call.key] = solve(su, call, arg)
    solve_s = time.perf_counter() - start

    mark("verify")
    outputs, payloads = {}, {}
    for call in calls:
        outputs[call.key], data = outputs_of(su, call, results[call.key])
        if data is not None:
            payloads[call.key] = data
    order = list(payloads)
    rng.shuffle(order)
    start = time.perf_counter()
    verdicts = {key: replay_verdicts(su, payloads[key]) for key in order}
    verify_s = time.perf_counter() - start
    mark("done")
    return PassResult(solve_s, verify_s, outputs, payloads, verdicts)


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def expected_of(workload: str, reference: dict) -> dict:
    """The reference outputs of the workload's calls, by call key."""
    expected = reference.get(workload, {})
    keys = [call.key for call in WORKLOADS[workload]]
    if sorted(expected) != sorted(keys):
        raise SetupError(f"reference.json does not hold exactly the calls of {workload}")
    return expected


def score_call(key: str, expected: dict, got: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, descriptions of failures) of one call against its reference."""
    attempted = failed = 0
    problems: list[str] = []
    for op in sorted(set(expected) | set(got)):
        attempted += 1
        if expected.get(op) != got.get(op):
            failed += 1
            problems.append(f"{key} [{op}]: expected {expected.get(op)!r:.80}, got {got.get(op)!r:.80}")
    return attempted, failed, problems


def score_replay(key: str, expected: dict, verdicts) -> tuple[int, int, list[str]]:
    """(attempted, failed, descriptions) of one replay: every reference certificate must pass."""
    n_certs = sum(1 for v in expected.values() if isinstance(v, list) and v[0] == "certified")
    if isinstance(verdicts, str):
        return n_certs, n_certs, [f"{key} [replay]: {verdicts!r:.120}"]
    bad = sum(1 for v in verdicts if v) + max(n_certs - len(verdicts), 0)
    return n_certs, min(bad, n_certs), [f"{key} [replay]: {verdicts!r:.120}"] if bad else []


def score(workload: str, reference: dict, result: PassResult) -> tuple[int, int, list[str]]:
    """(attempted, failed, descriptions of failures) of one pass against the reference."""
    attempted = failed = 0
    problems: list[str] = []
    for key, expected in expected_of(workload, reference).items():
        scores = (
            score_call(key, expected, result.outputs.get(key, {})),
            score_replay(key, expected, result.replays.get(key, [])),
        )
        for a, f, p in scores:
            attempted, failed, problems = attempted + a, failed + f, problems + p
    return attempted, failed, problems
