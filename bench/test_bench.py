"""Self-tests of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest -q bench``.  They check
that an unfaulted run reports no failed ops, that a fault injected from the
benchmark's side is caught on every workload, that the reference agrees with
the program's brute-force oracle, and that tracing restores what it wrapped.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ordbool import exprs, ops  # noqa: E402
from ordbool.builders import FIXTURE_NAMES, builtin_fixture, random_poset  # noqa: E402
from ordbool.measure import MeasureKind  # noqa: E402
from ordbool.oracle import Query, naive_eval  # noqa: E402
from ordbool.ops import AltKind, Variant  # noqa: E402
from ordbool.signed import Sign, SignedSet  # noqa: E402
from ordbool.textio import format_poset_text  # noqa: E402

QUARTER = Fraction(1, 4)


def tiny(name: str, seed: int = 3):
    if name == "cli-oneshot":
        return workloads.CliOneshot(seed, str(SRC), sizes=((14, QUARTER), (16, Fraction(1, 20))),
                                    fixtures=("supinf", "schnitt1", "seq_weighted"))
    if name == "query-stream":
        return workloads.QueryStream(seed, str(SRC), n=24)
    return workloads.VerifySweep(seed, str(SRC), small=((3, QUARTER), (6, Fraction(1, 2))),
                                 small_repeats=2, large_n=0)


def failed_frac(workload) -> float:
    attempted, failed, _ = run.end_to_end(workload, workloads.SpeedGauge(), 0.01)
    return failed / attempted


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_unfaulted_run_has_no_failures(name):
    assert failed_frac(tiny(name)) == 0


def _prime_as_raw(set_meet):
    """The fault ``check --inject-fault`` uses: PRIME silently becomes RAW."""
    def faulty(p, xs, ys, v=Variant.RAW):
        return set_meet(p, xs, ys, Variant.RAW if v is Variant.PRIME else v)
    return faulty


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_injected_fault_is_counted(name):
    original = ops.set_meet
    undo = tracing.rebind({id(original): (original, _prime_as_raw(original))})
    try:
        assert exprs.set_meet is not original
        frac = failed_frac(tiny(name))
    finally:
        tracing.uninstall(undo)
    assert exprs.set_meet is original
    assert frac > 0


def test_traced_run_reports_layers_and_restores_bindings():
    originals = (exprs.set_meet, exprs.eval_expr, ops.neg_set)
    attempted, failed, metrics = run.per_layer(tiny("query-stream"), workloads.SpeedGauge(), 0.01)
    assert (exprs.set_meet, exprs.eval_expr, ops.neg_set) == originals
    assert failed == 0 and attempted > 0
    for name in ("ops.meet_s", "poset.orth_s", "exprs.eval_self_s", "poset.build_s"):
        assert metrics[name][0] > 0, name
    for name in ("ops.calls", "ops.pairs", "exprs.nodes", "poset.orth_calls", "poset.build_calls"):
        assert metrics[name][0] > 0, name
    assert metrics["oracle.law_cases"][0] == 0


@pytest.mark.parametrize("n, density, seed", [(2, Fraction(1, 2), 1), (9, QUARTER, 4),
                                               (30, Fraction(1, 2), 7), (120, Fraction(1, 20), 2)])
def test_random_order_text_matches_random_poset(n, density, seed):
    want = format_poset_text(random_poset(n, density, seed))
    assert reference.random_order_text(n, density, seed) == want


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    _, _, plain = run.end_to_end(tiny("verify-sweep"), workloads.SpeedGauge(), 0.01)
    _, _, traced = run.per_layer(tiny("verify-sweep"), workloads.SpeedGauge(), 0.01)
    assert list(plain) == [m["name"] for m in spec["end_to_end"]]
    assert sorted(traced) == sorted(m["name"] for m in spec["per_layer"])
    for metrics, key in ((plain, "end_to_end"), (traced, "per_layer")):
        units = {m["name"]: m["unit"] for m in spec[key]}
        assert {name: unit for name, (_, unit) in metrics.items()} == units
    assert traced["oracle.law_cases"][0] > 0 and traced["oracle.naive_s"][0] > 0


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    spans = list(zip(tracer.span_layer, tracer.span_parent))
    tracer.fold()
    assert spans == [(1, -1), (0, 0), (0, 0)]  # "inner" was wrapped first
    assert 0 < tracer.self_s["outer"] < tracer.self_s["inner"]


def _as_value(rp, value):
    if isinstance(value, reference.Bits):
        return frozenset(rp.names(value.mask))
    if isinstance(value, reference.Signed):
        return SignedSet(Sign(value.sign), frozenset(rp.names(value.mask)))
    if isinstance(value, reference.Prob):
        return value.value
    return value


def _cases(rng, labels):
    """(oracle query, equivalent expression tree) pairs over random operands."""
    def some():
        return tuple(sorted(rng.sample(labels, rng.randint(1, min(3, len(labels))))))

    X, Y = some(), some()
    x, y = rng.choice(labels), rng.choice(labels)
    v = rng.choice(("raw", "prime", "htprime"))
    sign = rng.choice(("sup", "inf"))
    fx, fy, var = frozenset(X), frozenset(Y), Variant(v)
    signed = SignedSet(Sign(sign), fx)
    sx, sy, sg = ("set", X), ("set", Y), ("signed", sign, X)
    return [
        (Query("set_meet", (fx, fy, var)), ("bin", "meet", v, sx, sy)),
        (Query("set_join", (fx, fy, var)), ("bin", "join", v, sx, sy)),
        (Query("neg_set", (fx, var)), ("neg", v, sx)),
        (Query("set_minus", (fx, fy, Variant.PRIME)), ("bin", "minus", "prime", sx, sy)),
        (Query("meet_all", (X + Y, Variant.RAW)), ("call", "meetall", (sx, sy))),
        (Query("join_all", (X + Y, Variant.RAW)), ("call", "joinall", (sx, sy))),
        (Query("alt_meet", (fx, fy, AltKind.PAIRWISE)), ("call", "meet1", (sx, sy))),
        (Query("alt_join", (fx, fy, AltKind.UNION_BASED)), ("call", "join2", (sx, sy))),
        (Query("alt_neg1", (fx,)), ("call", "neg1", (sx,))),
        (Query("signed_meet", (y, signed)), ("bin", "meet", "raw", ("id", y), sg)),
        (Query("signed_join", (y, signed)), ("bin", "join", "raw", sg, ("id", y))),
        (Query("signed_neg", (signed,)), ("neg", "raw", sg)),
        (Query("signed_height", (signed,)), ("call", "ht", (sg,))),
        (Query("prob_signed", (signed,)), ("call", "P", (sg,))),
        (Query("ht_of_set", (fx,)), ("call", "ht", (sx,))),
        (Query("mu", (fx,)), ("call", "mu", (sx,))),
        (Query("prob_max", (fx,)), ("call", "P", (sx,))),
        (Query("prob_sum", (fx,)), ("call", "Pmu", (sx,))),
        (Query("indep_product", (fx, fy, MeasureKind.MAX_HEIGHT)), ("call", "indep1", (sx, sy))),
        (Query("indep_threshold", (fx, fy, None, MeasureKind.MAX_HEIGHT)),
         ("call", "indep2", (sx, sy))),
        (Query("minus", (x, y, Variant.PRIME)), ("bin", "minus", "prime", ("id", x), ("id", y))),
    ]


def test_reference_agrees_with_brute_force_oracle():
    posets = [builtin_fixture(name) for name in FIXTURE_NAMES]
    posets += [random_poset(n, d, seed=n) for n in range(3, 9) for d in (QUARTER, Fraction(1, 2))]
    rng = random.Random(5)
    checked = 0
    for p in posets:
        rp = reference.RefPoset(format_poset_text(p))
        for _ in range(8):
            for query, node in _cases(rng, list(p.elems)):
                try:
                    want = naive_eval(p, query)
                except Exception as exc:
                    want = type(exc).__name__
                try:
                    got = _as_value(rp, reference.evaluate(rp, node))
                except reference.RefError as exc:
                    got = exc.kind
                assert got == want, (p.name, query.describe())
                checked += 1
    assert checked > 3000
