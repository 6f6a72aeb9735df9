"""Per-layer tracing from outside the package, for the benchmark's traced run.

The tracer replaces public callables with timing wrappers.  ``salem``,
``construct``, ``roots`` and ``factor`` bind names with ``from ... import``,
so a function is patched in every salemunits module that holds it; methods
(``IntPoly.__mul__``, ``SturmChain.__init__``) are patched on the class.  The
certification stages are wrapped once more at their call sites in ``salem``,
so a stage is the time ``certify_trace`` spends in that call.

Spans are aggregated as they close, per phase of the pass (setup, solve,
verify).  Three views are kept:

- busy time per span name and per layer group: time with at least one such
  span open, so recursion and nesting are not counted twice;
- stage self time: a stage span minus the stage spans nested inside it (e.g.
  ``refine`` called from ``alpha_from_beta``);
- exact counts: calls, rejections per check, chain lengths, pseudo-remainder
  coefficient operations and the largest coefficient seen.

Run as a script it performs the traced pass of one workload in its own
process, so no wrapper ever runs inside an untraced timing:

    python3 bench/tracer.py --workload sweep --seed 1
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from collections import Counter, defaultdict

import workloads

STAGES = ("separability", "root_pattern", "irreducibility", "lift", "unit_check", "isolate", "refine", "alpha")
REJECTION_CHECKS = ("separability", "root_pattern", "irreducibility", "resultant")


class Phase:
    """Aggregates of the spans that closed while one phase was current."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()
        self.stage: Counter = Counter()
        self.stage_in_certify: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxes: Counter = Counter()


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [name, stage, time of nested stage spans]
        self.active: Counter = Counter()  # open spans per name and per group
        self.phases: dict[str, Phase] = defaultdict(Phase)
        self.phase: Phase | None = None

    def mark(self, name: str) -> None:
        self.phase = self.phases[name]

    def wrap(self, fn, name, groups=(), stage=None, under=None, observe=None):
        """A wrapper that records ``fn`` as span ``name``.

        ``under`` limits the span to calls made directly from that span;
        ``observe(tracer, args, result, error)`` records counts on return.
        A call made inside ``factor.is_irreducible`` does not count towards
        ``groups``, so the layer groups do not overlap.
        """
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            if under is not None and (not stack or stack[-1][0] != under):
                return fn(*args, **kwargs)
            frame = [name, stage, 0.0]
            stack.append(frame)
            active = tracer.active
            keys = (name,) if active["factor.is_irreducible"] else (name, *groups)
            for key in keys:
                active[key] += 1
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                tracer._close(frame, keys, elapsed)
                if observe is not None and tracer.phase is not None:
                    observe(tracer, args, result, error)

        return traced

    def _close(self, frame, keys, elapsed: float) -> None:
        phase = self.phase
        active = self.active
        for key in keys:
            active[key] -= 1
            if phase is not None and not active[key]:
                phase.busy[key] += elapsed
        if phase is None:
            return
        phase.calls[frame[0]] += 1
        stage = frame[1]
        if stage is None:
            return
        own = elapsed - frame[2]
        phase.stage[stage] += own
        if active["salem.certify_trace"]:
            phase.stage_in_certify[stage] += own
        for outer in reversed(self.stack):
            if outer[1] is not None:
                outer[2] += elapsed
                break


def _coeff_bits(p) -> int:
    return max((abs(c).bit_length() for c in p.coeffs), default=0)


def _observe_pseudo_rem(tracer, args, result, error) -> None:
    a, b = args
    phase = tracer.phase
    if a.degree >= b.degree:
        db = int(b.degree)
        phase.counts["pseudo_rem_coeff_ops"] += (int(a.degree) - db + 1) * (db + 1)
    bits = max(_coeff_bits(a), _coeff_bits(b), _coeff_bits(result) if result is not None else 0)
    phase.maxes["coeff_bits"] = max(phase.maxes["coeff_bits"], bits)


def _observe_sturm_chain(tracer, args, result, error) -> None:
    chain = args[0]
    if error is None:
        tracer.phase.maxes["chain_len"] = max(tracer.phase.maxes["chain_len"], len(chain.chain))


def _observe_is_irreducible(tracer, args, result, error) -> None:
    if result is not None and result.method == "modular-degree-filter":
        tracer.phase.counts["filter_verdicts"] += 1


def _observe_certification(tracer, args, result, error) -> None:
    if tracer.active["certification"]:
        return  # only the outermost call decides a candidate
    if error is None:
        tracer.phase.counts["certified"] += 1
    elif getattr(error, "check", None) is not None:
        tracer.phase.counts["rejected." + error.check] += 1


def _patch_everywhere(modules, fn, wrapper) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapper)


# (module, function, span name, layer groups, observer).  A change that moves
# or renames one of these callables updates this table in the same change.
# RI is the gcd and Sturm work of ``roots`` and ``intpoly`` (split.roots_intpoly).
RI = ("roots_intpoly",)
FUNCTIONS = (
    ("intpoly", "gcd_over_rationals", "intpoly.gcd", RI, None),
    ("intpoly", "pseudo_rem", "intpoly.pseudo_rem", RI, _observe_pseudo_rem),
    ("intpoly", "resultant", "intpoly.resultant", (), None),
    ("intpoly", "lift_trace", "intpoly.lift_trace", (), None),
    ("roots", "is_separable", "roots.is_separable", RI, None),
    ("roots", "root_pattern", "roots.root_pattern", RI, None),
    ("roots", "isolate_roots", "roots.isolate_roots", RI, None),
    ("roots", "refine", "roots.refine", RI, None),
    ("roots", "sturm_count", "roots.sturm_count", RI, None),
    ("roots", "sturm_count_open", "roots.sturm_count_open", RI, None),
    ("factor", "is_irreducible", "factor.is_irreducible", ("factor",), _observe_is_irreducible),
    ("factor", "verify_witness", "factor.verify_witness", ("factor",), None),
    ("factor", "_zassenhaus", "factor.fallback", ("factor",), None),
    ("trigpolys", "cheb", "trigpolys.cheb", ("trigpolys",), None),
    ("trigpolys", "cyclo_trace", "trigpolys.cyclo_trace", ("trigpolys",), None),
    ("trigpolys", "cyclo_trace_roots_in_unit_interval", "trigpolys.cyclo_roots01", ("trigpolys",), None),
    ("trigpolys", "extract_trace", "trigpolys.extract_trace", ("trigpolys",), None),
    ("construct", "plan_construction", "construct.plan", (), None),
    ("construct", "build_candidate", "construct.build_candidate", (), None),
    ("construct", "search", "construct.search", (), None),
    ("salem", "verify_certificate", "salem.verify_certificate", (), None),
    ("salem", "certify_trace", "salem.certify_trace", ("certification",), _observe_certification),
    ("salem", "certify_min_poly", "salem.certify_min_poly", ("certification",), _observe_certification),
)
METHODS = (
    ("intpoly", "IntPoly", ("__mul__", "__rmul__"), "intpoly.mul", (), None),
    ("roots", "SturmChain", ("__init__",), "roots.sturm_chain", RI, _observe_sturm_chain),
)
# the certification stages, wrapped where salem calls them
STAGE_OF = {
    "is_separable": "separability",
    "root_pattern": "root_pattern",
    "is_irreducible": "irreducibility",
    "lift_trace": "lift",
    "is_reciprocal": "lift",
    "unit_check": "unit_check",
    "isolate_roots": "isolate",
    "cauchy_bound": "isolate",
    "refine": "refine",
    "alpha_from_beta": "alpha",
}


def _lookup(obj, path: str):
    """``obj.<path>``, or SetupError when the package no longer has it."""
    for attr in path.split("."):
        if not hasattr(obj, attr):
            raise workloads.SetupError(f"the tracer patches salemunits.{path}, which does not exist")
        obj = getattr(obj, attr)
    return obj


def install(tracer: Tracer, su) -> None:
    """Patch the salemunits package ``su`` and this benchmark's encode/decode steps."""
    names = ("intpoly", "trigpolys", "roots", "factor", "salem", "construct")
    modules = [su] + [_lookup(su, name) for name in names]
    for module, attr, name, groups, observe in FUNCTIONS:
        fn = _lookup(su, f"{module}.{attr}")
        _patch_everywhere(modules, fn, tracer.wrap(fn, name, groups, observe=observe))
    for module, cls_name, attrs, name, groups, observe in METHODS:
        cls = _lookup(su, f"{module}.{cls_name}")
        wrapper = tracer.wrap(_lookup(su, f"{module}.{cls_name}.{attrs[0]}"), name, groups, observe=observe)
        for attr in attrs:
            setattr(cls, attr, wrapper)

    # the large-root location check search makes after certifying a candidate
    construct = su.construct
    construct.sturm_count_open = tracer.wrap(
        _lookup(su, "construct.sturm_count_open"), "construct.beta_location", under="construct.search"
    )

    salem = su.salem
    for attr, stage in STAGE_OF.items():
        groups = ("refine_unit_check",) if stage in ("refine", "unit_check") else ()
        setattr(salem, attr, tracer.wrap(_lookup(su, f"salem.{attr}"), "stage." + attr, groups, stage=stage))

    for attr in ("encode_payload", "decode_payload"):
        setattr(workloads, attr, tracer.wrap(getattr(workloads, attr), "bench." + attr))


def layer_metrics(tracer: Tracer, solve_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    setup, solve, verify = tracer.phases["setup"], tracer.phases["solve"], tracer.phases["verify"]
    candidates = solve.calls["construct.build_candidate"]
    certify_s = solve.busy["salem.certify_trace"]
    m: dict[str, tuple[float, str]] = {
        "construct.candidates": (candidates, "count"),
        "construct.certified": (solve.counts["certified"], "count"),
        "construct.yield": (solve.counts["certified"] / candidates if candidates else 0.0, "ratio"),
    }
    for check in REJECTION_CHECKS:
        m[f"construct.rejected.{check}"] = (solve.counts["rejected." + check], "count")
    m["construct.build_candidate_s"] = (solve.busy["construct.build_candidate"], "s")
    m["construct.beta_location_s"] = (solve.busy["construct.beta_location"], "s")
    m["salem.certify_trace_s"] = (certify_s, "s")
    for stage in STAGES:
        m[f"salem.{stage}_s"] = (solve.stage[stage], "s")
    m["salem.verify_s"] = (verify.busy["salem.verify_certificate"], "s")
    m["salem.json_s"] = (verify.busy["bench.encode_payload"] + verify.busy["bench.decode_payload"], "s")
    m["salem.stage_coverage"] = (sum(solve.stage_in_certify.values()) / certify_s if certify_s else 0.0, "ratio")
    chains = solve.calls["roots.sturm_chain"]
    m["roots.sturm_chains"] = (chains, "count")
    m["roots.chains_per_candidate"] = (chains / candidates if candidates else 0.0, "ratio")
    m["roots.sturm_chain_s"] = (solve.busy["roots.sturm_chain"], "s")
    m["roots.chain_len_max"] = (solve.maxes["chain_len"], "count")
    m["factor.is_irreducible_s"] = (solve.busy["factor.is_irreducible"], "s")
    m["factor.calls"] = (solve.calls["factor.is_irreducible"], "count")
    m["factor.filter_verdicts"] = (solve.counts["filter_verdicts"], "count")
    m["factor.fallbacks"] = (solve.calls["factor.fallback"], "count")
    m["factor.verify_witness_s"] = (verify.busy["factor.verify_witness"], "s")
    m["intpoly.gcd_calls"] = (solve.calls["intpoly.gcd"], "count")
    m["intpoly.gcd_s"] = (solve.busy["intpoly.gcd"], "s")
    m["intpoly.resultant_s"] = (solve.busy["intpoly.resultant"], "s")
    m["intpoly.pseudo_rem_calls"] = (solve.calls["intpoly.pseudo_rem"], "count")
    m["intpoly.pseudo_rem_s"] = (solve.busy["intpoly.pseudo_rem"], "s")
    m["intpoly.pseudo_rem_coeff_ops"] = (solve.counts["pseudo_rem_coeff_ops"], "count")
    m["intpoly.mul_calls"] = (solve.calls["intpoly.mul"], "count")
    m["intpoly.max_coeff_bits"] = (solve.maxes["coeff_bits"], "bits")
    m["trigpolys.setup_s"] = (setup.busy["trigpolys"], "s")
    m["split.roots_intpoly"] = (solve.busy["roots_intpoly"] / solve_s, "ratio")
    m["split.factor"] = (solve.busy["factor"] / solve_s, "ratio")
    m["split.refine_unit_check"] = (solve.busy["refine_unit_check"] / solve_s, "ratio")
    return m


def traced_pass(workload: str, seed: int) -> dict:
    """Set up and run one pass of ``workload`` under the tracer; returns metrics and scores."""
    su = workloads.import_fresh()
    tracer = Tracer()
    install(tracer, su)
    tracer.mark("setup")
    for n, t in workloads.plans_of(workload):
        su.plan_construction(n, t)
    result = workloads.run_pass(su, workload, random.Random(seed), mark=tracer.mark)
    attempted, failed, problems = workloads.score(workload, workloads.load_reference(), result)
    metrics = layer_metrics(tracer, result.solve_s)
    return {
        "solve_s": result.solve_s,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {name: [value, unit] for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    try:
        out = traced_pass(args.workload, args.seed)
    except workloads.SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
