"""Generalized Boolean operators on posets that need not be complete.

Because a pair of elements may lack a greatest lower / least upper
bound, every operator returns the full *set* of bounds (the raw form,
which always contains bottom resp. top) and can be refined to its
order-maximal/minimal members (prime) or to its height-extremal members
(height-prime).  The height refinement discards order-maximal elements
of non-extremal height, so information is lost when its output feeds
further operators; prefer the prime form for composition.

The alternative set operators (pairwise intersection and union-based)
are kept as first-class citizens precisely because they misbehave;
their failures are pinned by tests.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Sequence

from .errors import EmptyInput
from .poset import ElemSet, Poset, member_set


class Variant(Enum):
    """How to post-process a raw bound set.

    RAW keeps every bound, PRIME keeps the order-extremal ones, and
    HT_PRIME keeps the height-extremal ones.  Meet, negation and
    difference refine towards maxima; join refines towards minima.
    """

    RAW = "raw"
    PRIME = "prime"
    HT_PRIME = "htprime"


class AltKind(Enum):
    PAIRWISE = "pairwise"
    UNION_BASED = "union"


def _refine_lower(p: Poset, raw: int, v: Variant) -> ElemSet:
    if v is Variant.PRIME:
        raw = p.maxima(raw)
    elif v is Variant.HT_PRIME:
        raw = p.height_extremes(raw, highest=True)
    return p.labels_of(raw)


def _refine_upper(p: Poset, raw: int, v: Variant) -> ElemSet:
    if v is Variant.PRIME:
        raw = p.minima(raw)
    elif v is Variant.HT_PRIME:
        raw = p.height_extremes(raw, highest=False)
    return p.labels_of(raw)


def meet_all(p: Poset, xs: Sequence[str], v: Variant = Variant.RAW) -> ElemSet:
    """Common lower bounds of all the given elements (never empty: contains bottom)."""
    if not xs:
        raise EmptyInput("meet over no elements")
    return _refine_lower(p, p.lower_bounds(p.mask_of(xs)), v)


def join_all(p: Poset, xs: Sequence[str], v: Variant = Variant.RAW) -> ElemSet:
    """Common upper bounds of all the given elements (never empty: contains top)."""
    if not xs:
        raise EmptyInput("join over no elements")
    return _refine_upper(p, p.upper_bounds(p.mask_of(xs)), v)


def neg_set(p: Poset, members: Iterable[str], v: Variant = Variant.RAW) -> ElemSet:
    """Elements orthogonal to everything in the set (contains bottom)."""
    X = member_set(p, members)
    if not X:
        raise EmptyInput("negation of the empty set")
    raw = frozenset.intersection(*map(p.orth_of, X))
    return raw if v is Variant.RAW else _refine_lower(p, p.mask_of(raw), v)


def minus(p: Poset, x: str, y: str, v: Variant = Variant.RAW) -> ElemSet:
    """Direct difference: everything at or below x and orthogonal to y."""
    raw = p.down_closure(p.mask_of((x,))) & p.orth_mask(p.mask_of((y,)))
    return _refine_lower(p, raw, v)


def set_meet(p: Poset, xs: Iterable[str], ys: Iterable[str], v: Variant = Variant.RAW) -> ElemSet:
    """Union of the pairwise meets, then refined.

    The union of the pairwise intersections of down-sets is the
    intersection of the two down-closures, so no pair loop is needed.
    """
    X = p.mask_of(xs)
    Y = p.mask_of(ys)
    if not X or not Y:
        raise EmptyInput("set_meet needs nonempty sets")
    return _refine_lower(p, p.down_closure(X) & p.down_closure(Y), v)


def set_join(p: Poset, xs: Iterable[str], ys: Iterable[str], v: Variant = Variant.RAW) -> ElemSet:
    """Union of the pairwise joins, then refined (dual of set_meet)."""
    X = p.mask_of(xs)
    Y = p.mask_of(ys)
    if not X or not Y:
        raise EmptyInput("set_join needs nonempty sets")
    return _refine_upper(p, p.up_closure(X) & p.up_closure(Y), v)


def set_minus(p: Poset, xs: Iterable[str], ys: Iterable[str], v: Variant = Variant.RAW) -> ElemSet:
    """Abbreviation: X meet (negation of Y)."""
    X = p.mask_of(xs)
    Y = p.mask_of(ys)
    if not X or not Y:
        raise EmptyInput("set_minus needs nonempty sets")
    # A negation is already down-closed: below an orthogonal element, all are.
    return _refine_lower(p, p.down_closure(X) & p.orth_mask(Y), v)


def alt_meet(p: Poset, xs: Iterable[str], ys: Iterable[str], kind: AltKind) -> ElemSet:
    """Rejected alternatives: intersect the pairwise meets, or meet over the union.

    Both readings give the common lower bounds of X together with Y, so
    ``kind`` only names the reading.
    """
    X = p.mask_of(xs)
    Y = p.mask_of(ys)
    if not X or not Y:
        raise EmptyInput("alt_meet needs nonempty sets")
    return p.labels_of(p.lower_bounds(X | Y))


def alt_join(p: Poset, xs: Iterable[str], ys: Iterable[str], kind: AltKind) -> ElemSet:
    """Dual of alt_meet."""
    X = p.mask_of(xs)
    Y = p.mask_of(ys)
    if not X or not Y:
        raise EmptyInput("alt_join needs nonempty sets")
    return p.labels_of(p.upper_bounds(X | Y))


def alt_neg1(p: Poset, members: Iterable[str]) -> ElemSet:
    """Elements orthogonal to at least one member (not antitone; kept for study)."""
    X = member_set(p, members)
    if not X:
        raise EmptyInput("alt_neg1 of the empty set")
    return frozenset.union(*map(p.orth_of, X))
