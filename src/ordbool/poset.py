"""Finite strict partial orders with distinguished bounds, kept as bitmasks.

A poset here is always finite, carries its strict order transitively
closed, and has a least element (bottom) and a greatest element (top).
When the input does not name its own bounds, fresh ``_bot``/``_top``
elements are adjoined below/above everything.

Internally every element set is a Python ``int`` bitmask over element
positions: bit i stands for ``elems[i]``.  This is the bit-vector poset
encoding of Ait-Kaci et al., "Efficient Implementation of Lattice
Operations" (TOPLAS 1989).  Up-sets, down-sets, covers, heights and
orthogonal sets are all computed once, at build time, so a built poset
holds no lazily filled state.  Labels appear only at the API: public
functions take label iterables and return ``frozenset[str]``.
"""

from __future__ import annotations

from enum import Enum
from functools import reduce
from itertools import compress, repeat
from operator import and_, or_
from typing import Iterable, Iterator, Sequence

from .errors import (
    BoundsViolation,
    CycleDetected,
    DuplicateLabel,
    EmptyInput,
    InvalidLabel,
    TooSmall,
    UnknownLabel,
)

ElemSet = frozenset[str]

BOT_LABEL = "_bot"
TOP_LABEL = "_top"


class Rel(Enum):
    """Outcome of comparing two elements."""

    LT = "lt"
    GT = "gt"
    EQ = "eq"
    INCOMPARABLE = "incomparable"


class Extreme(Enum):
    MIN = "min"
    MAX = "max"


class HtExtreme(Enum):
    MINHT = "minht"
    MAXHT = "maxht"


class CompareMode(Enum):
    """Set-to-set comparison flavours.

    LEQ: every member of X sits below some member of Y.
    LEQ1: every member of Y has some member of X below it (the rejected
        variant, kept because it admits a documented counterexample).
    LT: LEQ holds and some y in Y strictly dominates all of X's part
        below it (literal existential reading).
    """

    LEQ = "leq"
    LT = "lt"
    LEQ1 = "leq1"


def _check_label(label: str) -> None:
    if not isinstance(label, str) or not label:
        raise InvalidLabel(f"label must be a nonempty string, got {label!r}")
    if any(ch.isspace() for ch in label):
        raise InvalidLabel(f"label {label!r} contains whitespace")
    if label.startswith("_") and label not in (BOT_LABEL, TOP_LABEL):
        raise InvalidLabel(f"label {label!r} starts with '_' (reserved prefix)")


_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _flags(mask: int) -> bytes:
    """Byte i is 1 iff bit i of ``mask`` is set; no byte past the top bit is 1.

    Paired with ``itertools.compress`` this selects the members of a mask
    from any per-position sequence without a Python-level loop.
    """
    return bin(mask)[:1:-1].encode().translate(_BIT_FLAGS)


def _transitive_closure(order: Sequence[str], succ: list[list[int]]) -> tuple[list[int], list[int]]:
    """Up-set masks (each position with everything it reaches) and the
    positions in DFS finishing order (each after everything it reaches).

    Raises CycleDetected on any loop.
    """
    color = [0] * len(order)  # 0 new, 1 on stack, 2 done
    upset = [0] * len(order)
    finished: list[int] = []
    for root in range(len(order)):
        if color[root] == 2:
            continue
        stack = [(root, iter(succ[root]))]
        color[root] = 1
        while stack:
            node, children = stack[-1]
            for child in children:
                if color[child] == 1:
                    raise CycleDetected(f"relation loops through {order[child]!r}")
                if color[child] == 0:
                    color[child] = 1
                    stack.append((child, iter(succ[child])))
                    break
            else:
                upset[node] = reduce(or_, map(upset.__getitem__, succ[node]), 1 << node)
                color[node] = 2
                finished.append(node)
                stack.pop()
    return upset, finished


class Poset:
    """Immutable validated finite strict order.

    Construct via :func:`build_poset` or the builders module.  Every
    field is filled at construction and never changed afterwards, so
    instances may be freely shared between threads.  ``elems`` preserves
    declaration order (synthesized bounds sit at the ends) and fixes the
    bit positions of the masks, ``gen_edges`` is the pre-closure relation
    the order was generated from (including the implicit bound edges),
    and ``cover_pairs`` is the transitive reduction.

    Methods from ``mask_of`` to ``height_extremes`` are the bitmask
    kernel that the operator modules compose: they take and return
    ``int`` masks, and ``mask_of``/``labels_of`` convert at the boundary.
    """

    __slots__ = (
        "name",
        "elems",
        "bottom",
        "top",
        "height_of",
        "gen_edges",
        "cover_pairs",
        "_index",
        "_bit",
        "_ground",
        "_above",
        "_below",
        "_upset",
        "_downset",
        "_orth",
        "_heights",
        "_level",
    )

    def __init__(
        self,
        name: str,
        elems: tuple[str, ...],
        bottom: str,
        top: str,
        upset: list[int],
        succ: list[list[int]],
        pred: list[list[int]],
        topo: Sequence[int],
    ):
        """``upset`` holds the closed order as up-set masks, ``succ``/``pred``
        the generator edges (bound edges included) as position lists, and
        ``topo`` a topological order of the positions, bottom first."""
        self.name = name
        self.elems = elems
        self.bottom = bottom
        self.top = top
        self._index = {v: i for i, v in enumerate(elems)}
        self._bit = {v: 1 << i for i, v in enumerate(elems)}
        self._ground = frozenset(elems)
        self._upset = tuple(upset)
        self._above = tuple(u ^ 1 << i for i, u in enumerate(upset))

        # Down-sets and longest-chain heights in one topological pass: every
        # cover is a generator edge, so the longest generator path is the height.
        downset = [1 << i for i in range(len(elems))]
        heights = [0] * len(elems)
        for w in topo[1:]:
            preds = pred[w]
            downset[w] = reduce(or_, map(downset.__getitem__, preds), downset[w])
            heights[w] = 1 + max(map(heights.__getitem__, preds))
        self._downset = tuple(downset)
        self._below = tuple(d ^ 1 << i for i, d in enumerate(downset))
        self._heights = tuple(heights)
        self.height_of = dict(zip(elems, heights))
        level = [0] * (self.height_of[top] + 1)
        for i, h in enumerate(heights):
            level[h] |= 1 << i
        self._level = tuple(level)

        # Every cover is a generator edge, and the edge v -> w is a cover iff w
        # is above none of v's other direct successors.
        gen_edges = []
        cover_pairs = []
        for v, label in enumerate(elems):
            succs = sorted(set(succ[v]))
            shadow = reduce(or_, map(self._above.__getitem__, succs), 0)
            gen_edges.extend(zip(repeat(label), map(elems.__getitem__, succs)))
            cover_pairs.extend((label, elems[w]) for w in succs if not shadow >> w & 1)
        self.gen_edges = tuple(gen_edges)
        self.cover_pairs = tuple(cover_pairs)

        # x and a are orthogonal iff no atom lies under both, so orth(x) is
        # everything outside the up-sets of the atoms under x (bottom never
        # is inside).  Elements sharing their set of atoms share the result.
        bot_bit = self._bit[bottom]
        atoms = reduce(or_, (1 << i for i, b in enumerate(self._below) if b == bot_bit), 0)
        full = (1 << len(elems)) - 1
        by_atoms: dict[int, int] = {}
        orth = []
        for down in downset:
            key = down & atoms
            mask = by_atoms.get(key)
            if mask is None:
                shadow = reduce(or_, compress(upset, _flags(key)), 0)
                mask = by_atoms[key] = full & ~shadow
            orth.append(mask)
        self._orth = tuple(orth)

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def __len__(self) -> int:
        return len(self.elems)

    def __repr__(self) -> str:
        return f"Poset({self.name!r}, {len(self.elems)} elements)"

    @property
    def ground(self) -> ElemSet:
        """All elements, as a frozenset."""
        return self._ground

    def require(self, label: str) -> str:
        if label not in self._index:
            raise UnknownLabel(f"{label!r} is not an element of poset {self.name!r}")
        return label

    def lt(self, x: str, y: str) -> bool:
        # A stranger y has no bit, so it is above nothing.
        return bool(self._above[self._index[x]] & self._bit.get(y, 0))

    def leq(self, x: str, y: str) -> bool:
        return x == y or self.lt(x, y)

    def above(self, x: str) -> ElemSet:
        """Elements strictly greater than x."""
        return self.labels_of(self._above[self._index[x]])

    def below(self, x: str) -> ElemSet:
        """Elements strictly smaller than x."""
        return self.labels_of(self._below[self._index[x]])

    def upset(self, x: str) -> ElemSet:
        """x together with everything above it."""
        return self.labels_of(self._upset[self._index[x]])

    def downset(self, x: str) -> ElemSet:
        """x together with everything below it."""
        return self.labels_of(self._downset[self._index[x]])

    def height(self, x: str) -> int:
        self.require(x)
        return self.height_of[x]

    def orth_of(self, x: str) -> ElemSet:
        """Everything orthogonal to x (computed at build time)."""
        return self.labels_of(self._orth[self._index[x]])

    # -- bitmask kernel ---------------------------------------------------

    def mask_of(self, members: Iterable[str]) -> int:
        """Bitmask of the given labels; raises UnknownLabel on a stranger."""
        try:
            return reduce(or_, map(self._bit.__getitem__, members), 0)
        except KeyError as exc:
            self.require(exc.args[0])  # raises UnknownLabel for the stranger
            raise

    def labels_of(self, mask: int) -> ElemSet:
        """The labels of a mask's members."""
        if mask & (mask - 1) == 0:  # empty or a single member
            return frozenset((self.elems[mask.bit_length() - 1],)) if mask else frozenset()
        return frozenset(compress(self.elems, _flags(mask)))

    # The closures take a one-member mask without a scan: in the law battery
    # of ``ordbool check`` about three calls in four get one (a lone element
    # on one side of a set meet or join).

    def down_closure(self, mask: int) -> int:
        """Everything at or below some member."""
        if mask & (mask - 1) == 0:
            return self._downset[mask.bit_length() - 1] if mask else 0
        return reduce(or_, compress(self._below, _flags(mask)), mask)

    def up_closure(self, mask: int) -> int:
        """Everything at or above some member."""
        if mask & (mask - 1) == 0:
            return self._upset[mask.bit_length() - 1] if mask else 0
        return reduce(or_, compress(self._above, _flags(mask)), mask)

    def lower_bounds(self, mask: int) -> int:
        """Everything at or below every member of a nonempty mask."""
        return reduce(and_, compress(self._downset, _flags(mask)))

    def upper_bounds(self, mask: int) -> int:
        """Everything at or above every member of a nonempty mask."""
        return reduce(and_, compress(self._upset, _flags(mask)))

    def orth_mask(self, mask: int) -> int:
        """Everything orthogonal to every member of a nonempty mask."""
        return reduce(and_, compress(self._orth, _flags(mask)))

    def maxima(self, mask: int) -> int:
        """Members with no member strictly above them."""
        return mask & ~reduce(or_, compress(self._below, _flags(mask)), 0)

    def minima(self, mask: int) -> int:
        """Members with no member strictly below them."""
        return mask & ~reduce(or_, compress(self._above, _flags(mask)), 0)

    def heights_in(self, mask: int) -> Iterator[int]:
        """Heights of the members, in position order."""
        return compress(self._heights, _flags(mask))

    def height_extremes(self, mask: int, highest: bool) -> int:
        """Members of a nonempty mask attaining its greatest (or least) height."""
        heights = self.heights_in(mask)
        return mask & self._level[max(heights) if highest else min(heights)]


def member_set(p: Poset, members: Iterable[str]) -> ElemSet:
    """Validate membership and freeze an element set."""
    out = frozenset(members)
    for x in out:
        p.require(x)
    return out


def build_poset(
    name: str,
    elems: Sequence[str],
    generators: Iterable[tuple[str, str]],
    bottom: str | None = None,
    top: str | None = None,
) -> Poset:
    """Build and validate a poset from order generators.

    The stored relation is the transitive closure of ``generators`` plus
    the bound edges: the bottom sits strictly below every other element
    and the top strictly above, whether the bounds are declared or
    synthesized as ``_bot``/``_top``.

    Raises InvalidLabel, DuplicateLabel, UnknownLabel, CycleDetected,
    BoundsViolation or TooSmall.
    """
    labels = list(elems)
    for label in labels:
        _check_label(label)
    seen: set[str] = set()
    for label in labels:
        if label in seen:
            raise DuplicateLabel(f"label {label!r} declared twice")
        seen.add(label)
    gens = [(a, b) for a, b in generators]
    for a, b in gens:
        if a not in seen:
            raise UnknownLabel(f"generator endpoint {a!r} not declared")
        if b not in seen:
            raise UnknownLabel(f"generator endpoint {b!r} not declared")

    order = list(labels)
    if bottom is None:
        if BOT_LABEL in seen:
            raise DuplicateLabel(f"{BOT_LABEL!r} is reserved for the synthesized bottom")
        bottom = BOT_LABEL
        order.insert(0, bottom)
    elif bottom not in seen:
        raise UnknownLabel(f"declared bottom {bottom!r} not among the elements")
    if top is None:
        if TOP_LABEL in seen:
            raise DuplicateLabel(f"{TOP_LABEL!r} is reserved for the synthesized top")
        top = TOP_LABEL
        order.append(top)
    elif top not in seen:
        raise UnknownLabel(f"declared top {top!r} not among the elements")

    if len(order) < 2:
        raise TooSmall("a poset needs at least two elements")
    if bottom == top:
        raise BoundsViolation("bottom and top must be distinct")

    n = len(order)
    index = {v: i for i, v in enumerate(order)}
    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    for a, b in gens:
        i, j = index[a], index[b]
        succ[i].append(j)
        pred[j].append(i)
    upset, finished = _transitive_closure(order, succ)

    bot, tip = index[bottom], index[top]
    bot_bit, top_bit = 1 << bot, 1 << tip
    for v, reach in enumerate(upset):
        if v != bot and reach & bot_bit:
            raise BoundsViolation(f"declared bottom {bottom!r} lies above {order[v]!r}")
    stray = upset[tip] ^ top_bit
    if stray:
        first = (stray & -stray).bit_length() - 1
        raise BoundsViolation(f"declared top {top!r} lies below {order[first]!r}")

    # Bound edges close the relation: nothing new composes through them.
    for v in range(n):
        if v != bot and v != tip:
            upset[v] |= top_bit
            succ[v].append(tip)
            pred[v].append(bot)
    upset[bot] = (1 << n) - 1
    succ[bot] = [v for v in range(n) if v != bot]
    pred[tip] = [v for v in range(n) if v != tip]
    topo = [bot, *(v for v in reversed(finished) if v != bot and v != tip), tip]

    return Poset(name, tuple(order), bottom, top, upset, succ, pred, topo)


def order_rel(p: Poset, x: str, y: str) -> Rel:
    """Compare two elements under the stored strict order."""
    p.require(x)
    p.require(y)
    if x == y:
        return Rel.EQ
    if p.lt(x, y):
        return Rel.LT
    if p.lt(y, x):
        return Rel.GT
    return Rel.INCOMPARABLE


def orthogonal(p: Poset, x: str, y: str) -> bool:
    """True iff bottom is the only common lower bound of x and y."""
    p.require(x)
    p.require(y)
    return bool(p._orth[p._index[x]] >> p._index[y] & 1)


def extremes(p: Poset, members: Iterable[str], which: Extreme) -> ElemSet:
    """Members with no strictly smaller (MIN) / greater (MAX) member inside the set."""
    X = p.mask_of(members)
    if not X:
        raise EmptyInput("extremes of the empty set")
    return p.labels_of(p.maxima(X) if which is Extreme.MAX else p.minima(X))


def below_filter(p: Poset, members: Iterable[str], y: str) -> ElemSet:
    """The part of the set at or below y."""
    X = p.mask_of(members)
    p.require(y)
    return p.labels_of(X & p._downset[p._index[y]])


def set_compare(p: Poset, xs: Iterable[str], ys: Iterable[str], mode: CompareMode) -> bool:
    X = p.mask_of(xs)
    Y = p.mask_of(ys)
    if not X or not Y:
        raise EmptyInput("set_compare needs nonempty sets")
    if mode is CompareMode.LEQ1:
        return (Y & ~p.up_closure(X)) == 0
    leq = (X & ~p.down_closure(Y)) == 0
    if mode is CompareMode.LEQ:
        return leq
    # Every x in X at or below y is strictly below it unless y itself is in X.
    return leq and (Y & ~X) != 0


def height(p: Poset, x: str) -> int:
    """Longest-chain height of x above bottom."""
    return p.height(x)


def extremes_by_height(p: Poset, members: Iterable[str], which: HtExtreme) -> ElemSet:
    """All members attaining the extreme height within the set (ties kept)."""
    X = p.mask_of(members)
    if not X:
        raise EmptyInput("extremes_by_height of the empty set")
    return p.labels_of(p.height_extremes(X, highest=which is HtExtreme.MAXHT))
