"""Independent brute-force evaluation path and differential testing.

The naive evaluator re-derives every operator from its defining
comprehension: reachability is recomputed per query by depth-first
search over the raw generator edges, heights by a fresh longest-path
search memoised within one query, and the min/max/height filters by
direct quantifier scans.
It shares no closure caches with the main path, which is the point.

``differential_check`` fires seeded random queries at both paths and
reports mismatches; ``lattice_oracle_check`` verifies that on full
powerset lattices the refined operators collapse to plain intersection,
union and complement; ``law_check`` runs the algebraic law battery on a
single poset.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import measure as _measure
from . import ops as _ops
from . import signed as _signed
from .builders import powerset_lattice, subset_label
from .errors import OrdboolError, TooManyAtoms
from .ops import AltKind, Variant
from .poset import (
    ElemSet,
    Extreme,
    HtExtreme,
    Poset,
    extremes,
    extremes_by_height,
    orthogonal,
)
from .signed import Sign, SignedSet


@dataclass(frozen=True)
class Query:
    """One operation tag plus its ready-to-apply arguments."""

    op: str
    args: tuple

    def describe(self) -> str:
        parts = []
        for a in self.args:
            if isinstance(a, frozenset):
                parts.append("{" + ",".join(sorted(a)) + "}")
            elif isinstance(a, SignedSet):
                parts.append(a.sign.value + "{" + ",".join(sorted(a.carrier)) + "}")
            elif isinstance(a, (Variant, AltKind, Sign, _measure.MeasureKind)):
                parts.append(a.value)
            elif isinstance(a, tuple):
                parts.append("[" + ",".join(a) + "]")
            else:
                parts.append(str(a))
        return f"{self.op}({', '.join(parts)})"


@dataclass(frozen=True)
class Mismatch:
    query: Query
    main: object
    oracle: object


@dataclass(frozen=True)
class Report:
    cases: int
    mismatches: tuple[Mismatch, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def run_query(p: Poset, q: Query) -> object:
    """Dispatch a query to the main implementation."""
    fn = _MAIN_DISPATCH[q.op]
    return fn(p, *q.args)


_MAIN_DISPATCH: dict[str, Callable] = {
    "meet_all": lambda p, xs, v: _ops.meet_all(p, list(xs), v),
    "join_all": lambda p, xs, v: _ops.join_all(p, list(xs), v),
    "neg_set": _ops.neg_set,
    "minus": _ops.minus,
    "set_meet": _ops.set_meet,
    "set_join": _ops.set_join,
    "set_minus": _ops.set_minus,
    "alt_meet": _ops.alt_meet,
    "alt_join": _ops.alt_join,
    "alt_neg1": _ops.alt_neg1,
    "signed_meet_of": _signed.signed_meet_of,
    "signed_join_of": _signed.signed_join_of,
    "signed_neg_of": _signed.signed_neg_of,
    "signed_meet": _signed.signed_meet,
    "signed_join": _signed.signed_join,
    "signed_neg": _signed.signed_neg,
    "signed_height": _signed.signed_height,
    "ht_of_set": _measure.ht_of_set,
    "prob_max": _measure.prob_max,
    "mu": _measure.mu,
    "prob_sum": _measure.prob_sum,
    "prob_signed": _measure.prob_signed,
    "indep_product": _measure.indep_product,
    "indep_threshold": lambda p, a, b, alpha, kind: _measure.indep_threshold(
        p, a, b, alpha, kind
    ),
}

OP_TAGS = tuple(sorted(_MAIN_DISPATCH))


class _NaiveOrder:
    """Per-query scratch evaluator working from the raw generator edges."""

    def __init__(self, p: Poset):
        self.elems = list(p.elems)
        self.bottom = p.bottom
        self.top = p.top
        succ: dict[str, list[str]] = {v: [] for v in self.elems}
        pred: dict[str, list[str]] = {v: [] for v in self.elems}
        for a, b in p.gen_edges:
            succ[a].append(b)
            pred[b].append(a)
        self.succ = succ
        self.pred = pred
        self._ht: dict[str, int] = {}

    def leq(self, x: str, y: str) -> bool:
        if x == y:
            return True
        seen = {x}
        stack = [x]
        while stack:
            for w in self.succ[stack.pop()]:
                if w == y:
                    return True
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    def lt(self, x: str, y: str) -> bool:
        return x != y and self.leq(x, y)

    def orth(self, x: str, y: str) -> bool:
        return not any(
            z != self.bottom and self.leq(z, x) and self.leq(z, y) for z in self.elems
        )

    def ht(self, v: str) -> int:
        """Longest path up from bottom, memoised for this query only.

        Iterative, so chains of any length stay within the recursion limit.
        """
        memo = self._ht
        stack = [v]
        while stack:
            u = stack[-1]
            if u in memo:
                stack.pop()
            elif u == self.bottom:
                memo[u] = 0
            else:
                todo = [w for w in self.pred[u] if w not in memo]
                if todo:
                    stack.extend(todo)
                else:
                    memo[u] = 1 + max(memo[w] for w in self.pred[u])
        return memo[v]

    def maxima(self, xs) -> ElemSet:
        return frozenset(x for x in xs if not any(self.lt(x, y) for y in xs))

    def minima(self, xs) -> ElemSet:
        return frozenset(x for x in xs if not any(self.lt(y, x) for y in xs))

    def by_height(self, xs, biggest: bool) -> ElemSet:
        hts = {x: self.ht(x) for x in xs}
        pick = max(hts.values()) if biggest else min(hts.values())
        return frozenset(x for x, h in hts.items() if h == pick)

    def refine_lower(self, xs, v: Variant) -> ElemSet:
        if v is Variant.RAW:
            return frozenset(xs)
        if v is Variant.PRIME:
            return self.maxima(xs)
        return self.by_height(xs, biggest=True)

    def refine_upper(self, xs, v: Variant) -> ElemSet:
        if v is Variant.RAW:
            return frozenset(xs)
        if v is Variant.PRIME:
            return self.minima(xs)
        return self.by_height(xs, biggest=False)

    def meet_list(self, xs) -> list[str]:
        return [a for a in self.elems if all(self.leq(a, x) for x in xs)]

    def join_list(self, xs) -> list[str]:
        return [a for a in self.elems if all(self.leq(x, a) for x in xs)]

    def neg(self, xs) -> list[str]:
        return [a for a in self.elems if all(self.orth(a, x) for x in xs)]


def naive_eval(p: Poset, q: Query) -> object:
    """Evaluate a query by the defining comprehensions, from scratch."""
    n = _NaiveOrder(p)
    op = q.op
    args = q.args
    if op == "meet_all":
        xs, v = args
        return n.refine_lower(n.meet_list(xs), v)
    if op == "join_all":
        xs, v = args
        return n.refine_upper(n.join_list(xs), v)
    if op == "neg_set":
        X, v = args
        return n.refine_lower(n.neg(X), v)
    if op == "minus":
        x, y, v = args
        raw = [a for a in n.elems if n.leq(a, x) and n.orth(a, y)]
        return n.refine_lower(raw, v)
    if op == "set_meet":
        X, Y, v = args
        raw = {a for x in X for y in Y for a in n.meet_list([x, y])}
        return n.refine_lower(raw, v)
    if op == "set_join":
        X, Y, v = args
        raw = {a for x in X for y in Y for a in n.join_list([x, y])}
        return n.refine_upper(raw, v)
    if op == "set_minus":
        X, Y, v = args
        neg_y = n.neg(Y)
        raw = {a for x in X for y in neg_y for a in n.meet_list([x, y])}
        return n.refine_lower(raw, v)
    if op == "alt_meet":
        X, Y, kind = args
        if kind is AltKind.PAIRWISE:
            parts = [set(n.meet_list([x, y])) for x in X for y in Y]
            return frozenset(set.intersection(*parts))
        return frozenset(n.meet_list(set(X) | set(Y)))
    if op == "alt_join":
        X, Y, kind = args
        if kind is AltKind.PAIRWISE:
            parts = [set(n.join_list([x, y])) for x in X for y in Y]
            return frozenset(set.intersection(*parts))
        return frozenset(n.join_list(set(X) | set(Y)))
    if op == "alt_neg1":
        (X,) = args
        return frozenset(a for a in n.elems if any(n.orth(a, x) for x in X))
    if op == "signed_meet_of":
        x, y = args
        return SignedSet(Sign.SUP, n.refine_lower(n.meet_list([x, y]), Variant.PRIME))
    if op == "signed_join_of":
        x, y = args
        return SignedSet(Sign.INF, n.refine_upper(n.join_list([x, y]), Variant.PRIME))
    if op == "signed_neg_of":
        (x,) = args
        return SignedSet(Sign.SUP, n.refine_lower(n.neg([x]), Variant.PRIME))
    if op == "signed_meet":
        y, s = args
        if s.sign is Sign.SUP:
            return frozenset(
                z for z in n.elems
                if n.leq(z, y) and any(n.leq(z, c) for c in s.carrier)
            )
        return frozenset(
            z for z in n.elems if n.leq(z, y) and all(n.leq(z, c) for c in s.carrier)
        )
    if op == "signed_join":
        y, s = args
        if s.sign is Sign.SUP:
            return frozenset(
                z for z in n.elems
                if n.leq(y, z) and all(n.leq(c, z) for c in s.carrier)
            )
        return frozenset(
            z for z in n.elems if n.leq(y, z) and any(n.leq(c, z) for c in s.carrier)
        )
    if op == "signed_neg":
        (s,) = args
        if s.sign is Sign.SUP:
            return frozenset(n.neg(s.carrier))
        return frozenset(a for a in n.elems if any(n.orth(a, c) for c in s.carrier))
    if op == "signed_height":
        (s,) = args
        hts = [n.ht(c) for c in s.carrier]
        return max(hts) + 1 if s.sign is Sign.SUP else min(hts) - 1
    if op == "ht_of_set":
        (X,) = args
        return max(n.ht(x) for x in X)
    if op == "prob_max":
        (X,) = args
        return Fraction(max(n.ht(x) for x in X), n.ht(n.top))
    if op == "mu":
        (X,) = args
        return sum(n.ht(x) for x in X)
    if op == "prob_sum":
        (X,) = args
        whole = sum(n.ht(x) for x in n.elems)
        return Fraction(sum(n.ht(x) for x in X), whole)
    if op == "prob_signed":
        (s,) = args
        hts = [n.ht(c) for c in s.carrier]
        h = max(hts) + 1 if s.sign is Sign.SUP else min(hts) - 1
        return Fraction(h, n.ht(n.top))
    if op in ("indep_product", "indep_threshold"):
        return _naive_independence(n, op, args)
    raise ValueError(f"unknown query op {op!r}")


def _naive_prob(n: _NaiveOrder, xs, kind: _measure.MeasureKind) -> Fraction:
    if kind is _measure.MeasureKind.MAX_HEIGHT:
        return Fraction(max(n.ht(x) for x in xs), n.ht(n.top))
    whole = sum(n.ht(x) for x in n.elems)
    return Fraction(sum(n.ht(x) for x in xs), whole)


def _naive_independence(n: _NaiveOrder, op: str, args: tuple) -> bool:
    from .errors import DegenerateConditional

    if op == "indep_product":
        A, B, kind = args
        both = {a for x in A for y in B for a in n.meet_list([x, y])}
        return _naive_prob(n, both, kind) == _naive_prob(n, A, kind) * _naive_prob(
            n, B, kind
        )
    A, B, alpha, kind = args
    neg_a = n.neg(A)
    p_a = _naive_prob(n, A, kind)
    p_neg_a = _naive_prob(n, neg_a, kind)
    if p_a == 0 or p_neg_a == 0:
        raise DegenerateConditional("conditioning probability is zero")
    if alpha is None:
        alpha = _naive_prob(n, B, kind)
    both = {a for x in A for y in B for a in n.meet_list([x, y])}
    other = {a for x in neg_a for y in B for a in n.meet_list([x, y])}
    given_a = _naive_prob(n, both, kind) / p_a
    given_neg_a = _naive_prob(n, other, kind) / p_neg_a
    if given_a == alpha:
        return True
    if given_a < alpha:
        return given_neg_a >= alpha
    return given_neg_a <= alpha


def _rand_elem(rng: random.Random, p: Poset) -> str:
    return rng.choice(p.elems)


def _rand_set(rng: random.Random, p: Poset) -> ElemSet:
    k = rng.randint(1, min(4, len(p.elems)))
    return frozenset(rng.sample(list(p.elems), k))


def _rand_signed(rng: random.Random, p: Poset) -> SignedSet:
    return SignedSet(rng.choice((Sign.SUP, Sign.INF)), _rand_set(rng, p))


def _random_query(rng: random.Random, p: Poset) -> Query:
    op = rng.choice(OP_TAGS)
    variant = rng.choice(tuple(Variant))
    if op in ("meet_all", "join_all"):
        xs = tuple(rng.choice(p.elems) for _ in range(rng.randint(1, 3)))
        return Query(op, (xs, variant))
    if op == "neg_set":
        return Query(op, (_rand_set(rng, p), variant))
    if op == "minus":
        return Query(op, (_rand_elem(rng, p), _rand_elem(rng, p), variant))
    if op in ("set_meet", "set_join", "set_minus"):
        return Query(op, (_rand_set(rng, p), _rand_set(rng, p), variant))
    if op in ("alt_meet", "alt_join"):
        kind = rng.choice((AltKind.PAIRWISE, AltKind.UNION_BASED))
        return Query(op, (_rand_set(rng, p), _rand_set(rng, p), kind))
    if op in ("alt_neg1", "ht_of_set", "prob_max", "mu", "prob_sum"):
        return Query(op, (_rand_set(rng, p),))
    if op in ("signed_meet_of", "signed_join_of"):
        return Query(op, (_rand_elem(rng, p), _rand_elem(rng, p)))
    if op == "signed_neg_of":
        return Query(op, (_rand_elem(rng, p),))
    if op in ("signed_meet", "signed_join"):
        return Query(op, (_rand_elem(rng, p), _rand_signed(rng, p)))
    if op in ("signed_neg", "signed_height", "prob_signed"):
        return Query(op, (_rand_signed(rng, p),))
    if op == "indep_product":
        kind = rng.choice(tuple(_measure.MeasureKind))
        return Query(op, (_rand_set(rng, p), _rand_set(rng, p), kind))
    if op == "indep_threshold":
        kind = rng.choice(tuple(_measure.MeasureKind))
        alpha = None
        if rng.random() < 0.3:
            alpha = Fraction(rng.randint(0, 3), rng.randint(1, 4))
        return Query(op, (_rand_set(rng, p), _rand_set(rng, p), alpha, kind))
    raise AssertionError(op)


def _guarded(fn: Callable, p: Poset, q: Query) -> object:
    try:
        return fn(p, q)
    except OrdboolError as exc:
        return f"<{type(exc).__name__}>"


def differential_check(
    p: Poset, seed: int, cases: int, main: Callable | None = None
) -> Report:
    """Compare main vs naive on seeded random queries across all op tags."""
    rng = random.Random(seed)
    main_fn = main if main is not None else run_query
    mismatches = []
    for _ in range(cases):
        q = _random_query(rng, p)
        got = _guarded(main_fn, p, q)
        want = _guarded(naive_eval, p, q)
        if got != want:
            mismatches.append(Mismatch(q, got, want))
    return Report(cases, tuple(mismatches))


def lattice_oracle_check(atoms: Sequence[str], limit: int = 4) -> Report:
    """On the full powerset of the atoms, refined meet/join/negation must
    be intersection/union/complement for every ordered pair of subsets."""
    if len(atoms) > limit:
        raise TooManyAtoms(f"limit is {limit} atoms")
    p = powerset_lattice(atoms)
    base = sorted(atoms)
    subsets = []
    for mask in range(1 << len(base)):
        subsets.append(frozenset(a for i, a in enumerate(base) if mask & (1 << i)))
    label = {s: subset_label(s) for s in subsets}
    full = frozenset(base)
    mismatches = []
    cases = 0
    for u in subsets:
        for v in subsets:
            cases += 1
            checks = (
                ("set_meet", frozenset((label[u & v],)),
                 _ops.set_meet(p, [label[u]], [label[v]], Variant.PRIME)),
                ("set_join", frozenset((label[u | v],)),
                 _ops.set_join(p, [label[u]], [label[v]], Variant.PRIME)),
                ("neg_set", frozenset((label[full - u],)),
                 _ops.neg_set(p, [label[u]], Variant.PRIME)),
            )
            for op, want, got in checks:
                if got != want:
                    q = Query(op, (label[u], label[v]))
                    mismatches.append(Mismatch(q, got, want))
    return Report(cases, tuple(mismatches))


def _law(mismatches: list, name: str, args: tuple, holds: bool, got=None, want=None):
    if not holds:
        mismatches.append(Mismatch(Query("law:" + name, args), got, want))


def law_check(p: Poset, seed: int = 0, subset_samples: int = 6) -> Report:
    """Deterministic algebraic-law battery on one poset.

    Element-level laws are checked exhaustively (all elements, pairs and
    triples); set-level laws run over seeded sample subsets plus the
    ground set and the bound singletons.
    """
    rng = random.Random(seed)
    elems = list(p.elems)
    bot = frozenset((p.bottom,))
    mm: list[Mismatch] = []
    cases = 0

    samples = [p.ground, frozenset((p.bottom,)), frozenset((p.top,))]
    for _ in range(subset_samples):
        samples.append(_rand_set(rng, p))

    # Structural sanity: bounds, transitivity, antisymmetry, irreflexivity.
    for x in elems:
        cases += 1
        _law(mm, "bounds", (x,), p.leq(p.bottom, x) and p.leq(x, p.top))
        _law(mm, "irreflexive", (x,), not p.lt(x, x))
    for x in elems:
        for y in p.above(x):
            cases += 1
            _law(mm, "antisymmetric", (x, y), not p.lt(y, x))
            _law(mm, "height-monotone", (x, y),
                 p.height_of[x] < p.height_of[y], p.height_of[x], p.height_of[y])
            for z in p.above(y):
                cases += 1
                _law(mm, "transitive", (x, y, z), p.lt(x, z))

    # Height facts.
    cases += 1
    _law(mm, "height-bottom", (), p.height_of[p.bottom] == 0, p.height_of[p.bottom], 0)
    _law(mm, "height-top-positive", (), p.height_of[p.top] > 0)
    for x in elems:
        cases += 1
        _law(mm, "height-below-top", (x,), p.height_of[x] <= p.height_of[p.top])

    # Orthogonality is downward closed.
    for x in elems:
        for y in elems:
            if not orthogonal(p, x, y):
                continue
            for x2 in p.below(x):
                cases += 1
                _law(mm, "orthogonal-down", (x, y, x2), orthogonal(p, x2, y))

    # Negation laws, element level: x meet not-x collapses, difference agrees.
    for x in elems:
        cases += 2
        _law(mm, "meet-own-negation", (x,),
             _ops.set_meet(p, [x], _ops.neg_set(p, [x]), Variant.RAW) == bot)
        _law(mm, "minus-self", (x,), _ops.minus(p, x, x) == bot)
        for y in elems:
            cases += 1
            direct = _ops.minus(p, x, y)
            via_neg = _ops.set_meet(p, [x], _ops.neg_set(p, [y]), Variant.RAW)
            _law(mm, "minus-is-meet-negation", (x, y), direct == via_neg, direct, via_neg)

    # Associativity over all element triples, raw and prime, meet and join.
    for x in elems:
        for y in elems:
            for z in elems:
                for v in (Variant.RAW, Variant.PRIME):
                    cases += 2
                    flat = _ops.meet_all(p, [x, y, z], v)
                    nested = _ops.set_meet(p, [x], _ops.meet_all(p, [y, z], v), v)
                    _law(mm, "meet-associative", (x, y, z, v), flat == nested, nested, flat)
                    flat = _ops.join_all(p, [x, y, z], v)
                    nested = _ops.set_join(p, [x], _ops.join_all(p, [y, z], v), v)
                    _law(mm, "join-associative", (x, y, z, v), flat == nested, nested, flat)

    # Set-level laws on the samples.
    for X in samples:
        cases += 4
        neg_x = _ops.neg_set(p, X)
        _law(mm, "set-meet-own-negation", (X,),
             _ops.set_meet(p, X, neg_x, Variant.RAW) == bot)
        _law(mm, "double-negation-grows", (X,), X <= _ops.neg_set(p, neg_x))
        maxes = extremes(p, X, Extreme.MAX)
        maxht = extremes_by_height(p, X, HtExtreme.MAXHT)
        _law(mm, "maxht-within-max", (X,), maxht <= maxes, maxht, maxes)
        _law(mm, "maxht-of-max", (X,),
             maxht == extremes_by_height(p, maxes, HtExtreme.MAXHT))
        minht = extremes_by_height(p, X, HtExtreme.MINHT)
        mins = extremes(p, X, Extreme.MIN)
        cases += 2
        _law(mm, "minht-within-min", (X,), minht <= mins)
        _law(mm, "minht-of-min", (X,),
             minht == extremes_by_height(p, mins, HtExtreme.MINHT))
        for Y in samples:
            cases += 3
            for v in Variant:
                _law(mm, "meet-commutative", (X, Y, v),
                     _ops.set_meet(p, X, Y, v) == _ops.set_meet(p, Y, X, v))
                _law(mm, "join-commutative", (X, Y, v),
                     _ops.set_join(p, X, Y, v) == _ops.set_join(p, Y, X, v))
            if X <= Y:
                cases += 1
                _law(mm, "negation-antitone", (X, Y),
                     _ops.neg_set(p, Y) <= _ops.neg_set(p, X))
            # Non-strict height bounds for meets and joins.
            hx, hy = _measure.ht_of_set(p, X), _measure.ht_of_set(p, Y)
            cases += 2
            _law(mm, "meet-height-bound", (X, Y),
                 _measure.ht_of_set(p, _ops.set_meet(p, X, Y, Variant.RAW)) <= min(hx, hy))
            _law(mm, "join-height-bound", (X, Y),
                 _measure.ht_of_set(p, _ops.set_join(p, X, Y, Variant.RAW)) >= max(hx, hy))
            if X <= Y:
                cases += 2
                _law(mm, "ht-monotone", (X, Y), hx <= hy)
                _law(mm, "mu-monotone", (X, Y), _measure.mu(p, X) <= _measure.mu(p, Y))
        cases += 2
        _law(mm, "prob-max-range", (X,), 0 <= _measure.prob_max(p, X) <= 1)
        _law(mm, "prob-sum-range", (X,), 0 <= _measure.prob_sum(p, X) <= 1)

    # Signed operators: sign monotonicity and singleton-carrier agreement.
    for X in samples:
        sup_s = SignedSet(Sign.SUP, X)
        inf_s = SignedSet(Sign.INF, X)
        for y in elems:
            cases += 2
            _law(mm, "signed-meet-monotone", (y, X),
                 _signed.signed_meet(p, y, inf_s) <= _signed.signed_meet(p, y, sup_s))
            _law(mm, "signed-join-monotone", (y, X),
                 _signed.signed_join(p, y, sup_s) <= _signed.signed_join(p, y, inf_s))
        cases += 1
        _law(mm, "signed-neg-monotone", (X,),
             _signed.signed_neg(p, sup_s) <= _signed.signed_neg(p, inf_s))
    for x in elems:
        single_sup = SignedSet(Sign.SUP, frozenset((x,)))
        single_inf = SignedSet(Sign.INF, frozenset((x,)))
        for y in elems:
            cases += 2
            plain_meet = _ops.set_meet(p, [y], [x], Variant.RAW)
            _law(mm, "signed-singleton-meet", (y, x),
                 _signed.signed_meet(p, y, single_sup) == plain_meet
                 and _signed.signed_meet(p, y, single_inf) == plain_meet)
            plain_join = _ops.set_join(p, [y], [x], Variant.RAW)
            _law(mm, "signed-singleton-join", (y, x),
                 _signed.signed_join(p, y, single_sup) == plain_join
                 and _signed.signed_join(p, y, single_inf) == plain_join)
        cases += 1
        plain_neg = _ops.neg_set(p, [x], Variant.RAW)
        _law(mm, "signed-singleton-neg", (x,),
             _signed.signed_neg(p, single_sup) == plain_neg
             and _signed.signed_neg(p, single_inf) == plain_neg)

    return Report(cases, tuple(mm))
