"""Height-based set sizes and the two probability notions built on them.

The quick measure takes the maximal height in a set; the summed measure
adds up all member heights (a plain point measure).  Both are divided
by their value on the relevant whole to give probabilities, which are
kept as exact rationals throughout: every comparison is exact, never
tolerance-based.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Iterable

from .errors import DegenerateConditional, EmptyInput
from .poset import Poset
from .signed import SignedSet, signed_height

Rational = Fraction


class MeasureKind(Enum):
    MAX_HEIGHT = "max"
    SUM_HEIGHT = "sum"


def ht_of_set(p: Poset, members: Iterable[str]) -> int:
    """Maximal element height within a nonempty set."""
    X = p.mask_of(members)
    if not X:
        raise EmptyInput("height of the empty set")
    return max(p.heights_in(X))


def prob_max(p: Poset, members: Iterable[str]) -> Fraction:
    """Relative height: max height over the set divided by the top's height."""
    return Fraction(ht_of_set(p, members), p.height_of[p.top])


def mu(p: Poset, members: Iterable[str]) -> int:
    """Summed heights of the members; zero on the empty set."""
    return sum(p.heights_in(p.mask_of(members)))


def prob_sum(p: Poset, members: Iterable[str]) -> Fraction:
    """Summed-height measure of the set relative to the whole poset."""
    return Fraction(mu(p, members), sum(p.height_of.values()))


def prob_signed(p: Poset, s: SignedSet) -> Fraction:
    """Relative height of the intended sup/inf element.

    May fall outside [0, 1]; the value is returned unclamped and it is
    up to the caller (e.g. the CLI printer) to flag it.
    """
    return Fraction(signed_height(p, s), p.height_of[p.top])


def _prob(p: Poset, X: int, kind: MeasureKind) -> Fraction:
    """Probability of a nonempty mask."""
    heights = p.heights_in(X)
    if kind is MeasureKind.MAX_HEIGHT:
        return Fraction(max(heights), p.height_of[p.top])
    return Fraction(sum(heights), sum(p.height_of.values()))


def indep_product(p: Poset, a: Iterable[str], b: Iterable[str], kind: MeasureKind) -> bool:
    """Product rule: P(A meet B) equals P(A) * P(B), compared exactly."""
    A = p.mask_of(a)
    B = p.mask_of(b)
    if not A or not B:
        raise EmptyInput("independence needs nonempty sets")
    both = p.down_closure(A) & p.down_closure(B)
    return _prob(p, both, kind) == _prob(p, A, kind) * _prob(p, B, kind)


def indep_threshold(
    p: Poset,
    a: Iterable[str],
    b: Iterable[str],
    alpha: Fraction | None = None,
    kind: MeasureKind = MeasureKind.MAX_HEIGHT,
) -> bool:
    """Threshold test: conditioning on A and on not-A brackets the level alpha.

    alpha defaults to P(B).  Holds when P(B|A) hits alpha exactly, or
    when P(B|A) and P(B|not A) land on opposite sides of it.  Raises
    DegenerateConditional when P(A) or P(not A) is zero.
    """
    A = p.mask_of(a)
    B = p.mask_of(b)
    if not A or not B:
        raise EmptyInput("independence needs nonempty sets")
    neg_a = p.orth_mask(A)  # down-closed, like every negation
    p_a = _prob(p, A, kind)
    p_neg_a = _prob(p, neg_a, kind)
    if p_a == 0 or p_neg_a == 0:
        raise DegenerateConditional("conditioning probability is zero")
    if alpha is None:
        alpha = _prob(p, B, kind)
    down_b = p.down_closure(B)
    given_a = _prob(p, p.down_closure(A) & down_b, kind) / p_a
    given_neg_a = _prob(p, neg_a & down_b, kind) / p_neg_a
    if given_a == alpha:
        return True
    if given_a < alpha:
        return given_neg_a >= alpha
    return given_neg_a <= alpha
