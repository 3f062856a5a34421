"""Result sets labeled with the intended-but-possibly-missing sup or inf.

When a meet or join has no single best element, the refined result set
can be tagged with what it stands for: the supremum of the set (for
meets and negations) or the infimum (for joins), even though that
element need not exist in the poset.  Operators against such a labeled
set read the label instead of treating the set naively, which is what
distinguishes ``y meet sup{x,x'}`` from ``y meet inf{x,x'}``.

Signs are single-level: operating on a signed set yields a plain
element set again.  Expressions with signed sets on both sides of an
operator are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import EmptyInput
from .ops import Variant, join_all, meet_all, neg_set
from .poset import ElemSet, Poset, member_set


class Sign(Enum):
    SUP = "sup"
    INF = "inf"


@dataclass(frozen=True)
class SignedSet:
    """A nonempty carrier set plus the sup/inf reading of it."""

    sign: Sign
    carrier: ElemSet

    def __post_init__(self):
        if not self.carrier:
            raise EmptyInput("signed set needs a nonempty carrier")


def signed_meet_of(p: Poset, x: str, y: str) -> SignedSet:
    """Refined meet of two elements, labeled as an intended supremum."""
    return SignedSet(Sign.SUP, meet_all(p, [x, y], Variant.PRIME))


def signed_join_of(p: Poset, x: str, y: str) -> SignedSet:
    """Refined join of two elements, labeled as an intended infimum."""
    return SignedSet(Sign.INF, join_all(p, [x, y], Variant.PRIME))


def signed_neg_of(p: Poset, x: str) -> SignedSet:
    """Refined negation of an element, labeled as an intended supremum."""
    return SignedSet(Sign.SUP, neg_set(p, frozenset((x,)), Variant.PRIME))


def signed_meet(p: Poset, y: str, s: SignedSet) -> ElemSet:
    """Meet of an element with a signed set.

    A sup-label means any carrier member may witness the bound (the
    intended element dominates them all); an inf-label demands all of
    them (the intended element sits below each).
    """
    p.require(y)
    carrier = p.mask_of(s.carrier)
    y_bit = p.mask_of((y,))
    if s.sign is Sign.SUP:
        return p.labels_of(p.down_closure(y_bit) & p.down_closure(carrier))
    return p.labels_of(p.lower_bounds(y_bit | carrier))


def signed_join(p: Poset, y: str, s: SignedSet) -> ElemSet:
    """Join of an element with a signed set (dual of signed_meet)."""
    p.require(y)
    carrier = p.mask_of(s.carrier)
    y_bit = p.mask_of((y,))
    if s.sign is Sign.SUP:
        return p.labels_of(p.upper_bounds(y_bit | carrier))
    return p.labels_of(p.up_closure(y_bit) & p.up_closure(carrier))


def signed_neg(p: Poset, s: SignedSet) -> ElemSet:
    """Negation of a signed set: orthogonal to all (sup) or some (inf) carrier member."""
    sets = map(p.orth_of, member_set(p, s.carrier))
    if s.sign is Sign.SUP:
        return frozenset.intersection(*sets)
    return frozenset.union(*sets)


def signed_height(p: Poset, s: SignedSet) -> int:
    """Height the intended element would have: one above the carrier's
    maximum for sup, one below its minimum for inf.

    The result is returned unclamped, so it may be -1 (inf over a
    carrier containing bottom) or exceed the top's height (sup over a
    carrier containing top); callers that care flag it.
    """
    heights = p.heights_in(p.mask_of(s.carrier))
    if s.sign is Sign.SUP:
        return max(heights) + 1
    return min(heights) - 1
