"""The benchmark's three workloads and the closed loop that times them.

Each workload makes its inputs from the seed alone, issues one operation at
a time (a closed loop with a single caller), and works in rounds: a round
is a fixed mix of operations whose operands are drawn afresh from the seed
and the round number.  A run measures whole rounds until the time spent
inside the program reaches the budget, so every run sees the same mix.

Random posets are the orders ``builders.random_poset`` makes, written out by
``reference.random_order_text`` at a fraction of the cost of building them
with the program.  Every operation carries a check against the independent
reference (``reference``), computed outside the timed region.
"""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable

import exprgen
from reference import (Bits, Prob, RefError, RefPoset, evaluate, expected_text,
                       format_result, random_order_text)

import ordbool.cli
import ordbool.exprs
import ordbool.textio
from ordbool.builders import FIXTURE_NAMES, builtin_fixture
from ordbool.errors import OrdboolError
from ordbool.textio import format_poset_text

SETUP_REPEATS = 11


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Pass:
    latencies: list
    failures: list
    rounds: int
    slowdown: float  # raw time over reference time, averaged over blocks


class SpeedGauge:
    """How fast the CPU runs right now, from a fixed slice of work.

    On a shared host the same code runs up to a third slower for minutes at a
    time, so raw timings of runs minutes apart differ by more than any change
    worth catching.  ``tick`` runs the slice at most every ``EVERY`` seconds
    between ops; ``scale`` turns the time spent since the last ``scale`` into
    time on a CPU where the slice takes ``REFERENCE_S`` (it takes about that
    on one 2.0 GHz vCPU of a shared 2-vCPU VM running Python 3.11).
    """

    EVERY = 0.05
    REFERENCE_S = 2e-3

    def __init__(self):
        self._last = perf_counter()
        self._slices: list[float] = []
        labels = [f"v{i}" for i in range(400)]
        self._index = {v: i for i, v in enumerate(labels)}
        self._sets = [frozenset(labels[i::7 + i % 5]) for i in range(40)]

    def _slice(self) -> int:
        """Fixed work of the kinds the program does: tight loops over small
        sets of ints, and label sets that are intersected, looked up and
        sorted.  Either kind alone tracks the program's slowdowns less well."""
        acc = 0
        for i in range(1000):
            acc += len(frozenset((i, i + 1, i + 2)) & frozenset((i + 1, i + 2, i + 3)))
        for k in range(30):
            a, b = self._sets[k % 40], self._sets[(k * 7 + 3) % 40]
            both = a & b | (a - b)
            acc += sum(self._index[v] for v in both) + len(sorted(both))
        return acc

    def tick(self) -> None:
        if perf_counter() - self._last >= self.EVERY:
            t0 = perf_counter()
            self._slice()
            self._last = perf_counter()
            self._slices.append(self._last - t0)

    def scale(self) -> float:
        """Factor from raw seconds since the last call to reference seconds."""
        if not self._slices:
            self._last = 0.0  # no slice yet: force one now
            self.tick()
        factor = self.REFERENCE_S * len(self._slices) / sum(self._slices)
        self._slices = []
        return factor


# Each block of ops is scaled by the slices run inside it; a block is long
# enough to hold dozens of slices and short next to the host's slow spells.
BLOCK_SECONDS = 2.0


def run_rounds(workload, gauge: SpeedGauge, seconds: float, rounds: int | None = None,
               tracer=None, wall_limit: float = 100.0) -> Pass:
    """Run whole rounds until ``seconds`` of program time (or ``rounds`` rounds).

    Latencies are scaled to the reference CPU speed, block by block.  No round
    starts after ``wall_limit`` seconds, so a much slower program still ends
    within the benchmark's time limit, on fewer rounds."""
    root = tracer.layer_id("op") if tracer is not None else None
    latencies: list[float] = []
    failures: list = []
    done = 0
    busy = 0.0
    started = block = perf_counter()
    first = 0
    factors = []
    gauge.scale()

    def close_block():
        nonlocal block, first
        factor = gauge.scale()
        factors.append(factor)
        for i in range(first, len(latencies)):
            latencies[i] *= factor
        block, first = perf_counter(), len(latencies)

    while (busy < seconds) if rounds is None else (done < rounds):
        for op in workload.round(done):
            span = tracer.begin(root) if tracer is not None else None
            t0 = perf_counter()
            out = _guarded(op.call)
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.end(span)
                tracer.fold()
            latencies.append(elapsed)
            busy += elapsed
            if not op.check(out):
                failures.append((op.label, out))
            gauge.tick()
        done += 1
        if perf_counter() - block >= BLOCK_SECONDS:
            close_block()
        if perf_counter() - started > wall_limit:
            break
    close_block()
    return Pass(latencies, failures, done, len(factors) / sum(factors))


def _guarded(call):
    try:
        return call()
    except OrdboolError as exc:
        return f"error:{type(exc).__name__}"
    except Exception as exc:  # a traceback escaping the program is a failed op
        return f"exception:{type(exc).__name__}: {exc}"


def import_seconds(src: str) -> float:
    """Time to import the CLI module in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import ordbool.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    return float(out.stdout.strip())


def _inner_labels(rp: RefPoset) -> list[str]:
    return [v for i, v in enumerate(rp.labels) if i not in (rp.bot, rp.top)]


def _expect_cli(status: int, text: str | None):
    """Check for a CLI result; ``text=None`` accepts any one-line error."""
    if text is None:
        return lambda out: (out[0] == 1 and isinstance(out[1], str)
                            and out[1].startswith("error: ") and "\n" not in out[1])
    return lambda out: out == (status, text)


class CliOneshot:
    """Whole CLI invocations: parse, build and cold orthogonality every time."""

    name = "cli-oneshot"
    # Fresh random posets every round, four per shape, each serving three of
    # the round's calls: a run averages over a hundred orders rather than
    # riding on a few draws.
    RANDOM = ((400, Fraction(1, 20)), (500, Fraction(1, 20)),
              (400, Fraction(1, 4)), (500, Fraction(1, 4))) * 4
    RANDOM_KINDS = ("validate", "height", "prob", "eval", "eval", "error") * 8

    def __init__(self, seed: int, src: str, sizes=RANDOM, fixtures=FIXTURE_NAMES):
        self.seed = seed
        self.src = src
        self.sizes = sizes
        self.fixtures = [RefPoset(format_poset_text(builtin_fixture(f))) for f in fixtures]

    def setup(self) -> float:
        return import_seconds(self.src)

    def round(self, r: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        ops = []
        kinds = list(self.RANDOM_KINDS)
        rng.shuffle(kinds)
        per_poset = len(kinds) // len(self.sizes)
        for i, (n, density) in enumerate(self.sizes):
            text = random_order_text(n, density, rng.randrange(1 << 30))
            rp = RefPoset(text)
            ops += [self._op(rng, rp, text, kind)
                    for kind in kinds[i * per_poset:(i + 1) * per_poset]]
        for rp in self.fixtures:
            kind = rng.choice(("validate", "height", "eval", "eval", "prob", "error"))
            ops.append(self._op(rng, rp, rp.text, kind))
        rng.shuffle(ops)
        return ops

    def _op(self, rng: random.Random, rp: RefPoset, text: str, kind: str) -> Op:
        g = exprgen.Gen(rng, _inner_labels(rp) or rp.labels)

        def call():
            return ordbool.cli.run_command(argv, stdin_text=text)

        if kind == "validate":
            argv = ["validate", "-"]
            want = f"valid: {rp.name} ({rp.n} elements, {rp.cover_count()} cover pairs)"
            return Op("validate", call, _expect_cli(0, want))
        if kind == "height":
            labels = list(g.names(1, 3))
            argv = ["height", "-", *labels]
            want = "\n".join(f"{v} {rp.ht[rp.index[v]]}" for v in labels)
            return Op(" ".join(argv), call, _expect_cli(0, want))
        if kind == "error":
            argv = rng.choice((
                ["eval", "-", exprgen.to_text(rng.choice(exprgen.CLI_EVAL_ERRORS)(g))],
                ["prob", "-", exprgen.to_text(g.sg())],
                ["height", "-", "nosuch"],
            ))
            return Op(" ".join(argv), call, _expect_cli(1, None))
        if kind == "prob":
            node = rng.choice(exprgen.CLI_PROB)(g)
            measure = rng.choice(("max", "sum"))
            argv = ["prob", "-", "--measure", measure, exprgen.to_text(node)]
            want = _expected_prob(rp, node, measure)
            return Op(" ".join(argv), call, lambda out: out == want)
        node = rng.choice(exprgen.CLI_EVAL)(g)
        argv = ["eval", "-", exprgen.to_text(node)]
        want = expected_text(rp, node)
        check = _expect_cli(1, None) if want.startswith("error:") else _expect_cli(0, want)
        return Op(" ".join(argv), call, check)


def _expected_prob(rp: RefPoset, node, measure: str):
    try:
        value = evaluate(rp, node)
    except RefError:
        return None
    if not isinstance(value, Bits):
        return None
    if measure == "max":
        prob = Prob(rp.set_height(value.mask), rp.ht[rp.top])
    else:
        prob = Prob(rp.mu(value.mask), rp.mu(rp.ground))
    return (0, format_result(rp, prob))


class QueryStream:
    """A library user's stream of composed expressions on one built poset."""

    name = "query-stream"

    def __init__(self, seed: int, src: str, n: int = 400, density=Fraction(1, 4)):
        self.seed = seed
        self.text = random_order_text(n, density, seed)
        self.ref = RefPoset(self.text)
        self.labels = _inner_labels(self.ref)
        self.poset = None

    def setup(self) -> float:
        """Parse and build the poset; the last one built serves the stream,
        so its orthogonality cache starts cold."""
        t0 = perf_counter()
        self.poset = ordbool.textio.parse_poset_text(self.text).build()
        return perf_counter() - t0

    def _query(self, text: str) -> str:
        exprs = ordbool.exprs
        return exprs.format_value(exprs.eval_expr(self.poset, exprs.parse_expr(text)))

    def round(self, r: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        g = exprgen.Gen(rng, self.labels)
        templates = list(exprgen.STREAM)
        rng.shuffle(templates)
        ops = []
        for template in templates:
            node = template(g)
            text = exprgen.to_text(node)
            ops.append(Op(text, lambda text=text: self._query(text),
                          lambda out, node=node: out == expected_text(self.ref, node)))
        return ops


class VerifySweep:
    """`check` runs over many tiny posets, where per-call overhead dominates."""

    name = "verify-sweep"
    SMALL = tuple((n, d) for n in range(2, 10) for d in (Fraction(1, 4), Fraction(1, 2)))
    SMALL_REPEATS = 4
    LARGE_N = 30
    CASES = 100

    def __init__(self, seed: int, src: str, small=SMALL, small_repeats=SMALL_REPEATS,
                 large_n=LARGE_N):
        self.seed = seed
        self.src = src
        self.small = small
        self.small_repeats = small_repeats
        self.large_n = large_n
        self.expected = re.compile(
            r"laws: ok \(\d+ checks\)\ndifferential: ok \(%d checks\)" % self.CASES)

    def setup(self) -> float:
        return import_seconds(self.src)

    def round(self, r: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        shapes = [s for s in self.small for _ in range(self.small_repeats)]
        if self.large_n:
            shapes.append((self.large_n, Fraction(1, 4)))
        ops = []
        for n, density in shapes:
            text = random_order_text(n, density, rng.randrange(1 << 30))
            argv = ["check", "-", "--seed", str(rng.randrange(1 << 20)),
                    "--cases", str(self.CASES)]
            ops.append(Op(f"check n={n}", lambda argv=argv, text=text:
                          ordbool.cli.run_command(argv, stdin_text=text), self._check))
        rng.shuffle(ops)
        return ops

    def _check(self, out) -> bool:
        return (isinstance(out, tuple) and out[0] == 0
                and self.expected.fullmatch(out[1]) is not None)


WORKLOADS = {w.name: w for w in (CliOneshot, QueryStream, VerifySweep)}
