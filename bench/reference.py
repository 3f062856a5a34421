"""Independent reference for the benchmark's correctness checks.

Nothing here imports ``ordbool``.  The reference reads the same poset text
the program reads, closes the order itself over Python ``int`` bitmasks,
and evaluates the benchmark's own expression trees (see ``exprgen``) from
the defining formulas.  It predicts the program's canonical printed output,
or the name of the error class an input must raise, so every output of the
timed path can be compared against a value that path did not produce.
"""

from __future__ import annotations

import random
from fractions import Fraction

BOT_LABEL = "_bot"
TOP_LABEL = "_top"


class RefError(Exception):
    """The program must fail on this input with the named error class."""

    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind


def bits(mask: int):
    """Indices of the set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def random_order_text(n: int, density, seed: int) -> str:
    """Canonical text of the order ``builders.random_poset(n, density, seed)``
    makes: the same seeded draws of forward pairs, closed and reduced here.

    Only the covers between inner elements are listed, in index order, as the
    program's printer lists them.
    """
    rng = random.Random(seed)
    dens = float(density)
    succ = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < dens:
                succ[i] |= 1 << j
    up = [0] * n
    for i in reversed(range(n)):
        acc = succ[i]
        for j in bits(succ[i]):
            acc |= up[j]
        up[i] = acc
    labels = [f"v{i}" for i in range(n)]
    lines = [f"poset random-n{n}-s{seed}", f"bottom {BOT_LABEL}", f"top {TOP_LABEL}",
             "elem " + " ".join([BOT_LABEL, *labels, TOP_LABEL])]
    for i in range(n):
        beyond = 0
        for j in bits(succ[i]):
            beyond |= up[j]
        lines.extend(f"lt v{i} v{j}" for j in bits(up[i] & ~beyond))
    return "\n".join(lines) + "\n"


class RefPoset:
    """A poset read from the text format, with closure held as bitmasks."""

    def __init__(self, text: str):
        self.text = text
        name = bottom = top = None
        elems: list[str] = []
        gens: list[tuple[str, str]] = []
        for raw in text.splitlines():
            words = raw.split("#", 1)[0].split()
            if not words:
                continue
            head, rest = words[0], words[1:]
            if head == "poset":
                name = rest[0]
            elif head == "bottom":
                bottom = rest[0]
            elif head == "top":
                top = rest[0]
            elif head == "elem":
                elems.extend(rest)
            elif head == "lt":
                gens.append((rest[0], rest[1]))
            else:
                raise ValueError(f"unknown directive {head!r}")
        if bottom is None:
            bottom = BOT_LABEL
            elems.insert(0, bottom)
        if top is None:
            top = TOP_LABEL
            elems.append(top)
        self.name = name
        self.labels = elems
        self.index = {v: i for i, v in enumerate(elems)}
        n = len(elems)
        self.n = n
        self.bot = self.index[bottom]
        self.top = self.index[top]
        succ = [set() for _ in range(n)]
        for a, b in gens:
            succ[self.index[a]].add(self.index[b])
        for i in range(n):
            if i != self.bot:
                succ[self.bot].add(i)
            if i not in (self.bot, self.top):
                succ[i].add(self.top)
        order = _topological(succ)
        # Strict up-sets in reverse topological order; longest chains forward.
        up = [0] * n
        for v in reversed(order):
            acc = 0
            for w in succ[v]:
                acc |= (1 << w) | up[w]
            up[v] = acc
        down = [0] * n
        for v in range(n):
            for w in bits(up[v]):
                down[w] |= 1 << v
        ht = [0] * n
        for v in order:
            for w in succ[v]:
                if ht[v] + 1 > ht[w]:
                    ht[w] = ht[v] + 1
        self.succ = succ
        self.up = up
        self.down = down
        self.upeq = [up[i] | (1 << i) for i in range(n)]
        self.downeq = [down[i] | (1 << i) for i in range(n)]
        self.ht = ht
        self.ground = (1 << n) - 1
        self._orth: dict[int, int] = {}

    def mask(self, names) -> int:
        out = 0
        for name in names:
            out |= 1 << self.resolve(name)
        return out

    def resolve(self, name: str) -> int:
        if name in self.index:
            return self.index[name]
        if name == "empty" and BOT_LABEL in self.index:
            return self.index[BOT_LABEL]
        raise RefError("UnknownLabel")

    def names(self, mask: int) -> list[str]:
        return sorted(self.labels[i] for i in bits(mask))

    def cover_count(self) -> int:
        """Pairs v < w with nothing between: w is above v but above no
        direct successor of v."""
        count = 0
        for v in range(self.n):
            beyond = 0
            for w in self.succ[v]:
                beyond |= self.up[w]
            count += bin(self.up[v] & ~beyond).count("1")
        return count

    def orth(self, x: int) -> int:
        """Everything whose down-set meets x's only in the bottom."""
        row = self._orth.get(x)
        if row is None:
            dx = self.downeq[x]
            only_bot = 1 << self.bot
            row = 0
            for a in range(self.n):
                if dx & self.downeq[a] == only_bot:
                    row |= 1 << a
            self._orth[x] = row
        return row

    def maxima(self, m: int) -> int:
        return sum(1 << i for i in bits(m) if not self.up[i] & m)

    def minima(self, m: int) -> int:
        return sum(1 << i for i in bits(m) if not self.down[i] & m)

    def height_pick(self, m: int, highest: bool) -> int:
        hts = {i: self.ht[i] for i in bits(m)}
        pick = max(hts.values()) if highest else min(hts.values())
        return sum(1 << i for i, h in hts.items() if h == pick)

    def refine_lower(self, m: int, variant: str) -> int:
        if variant == "raw":
            return m
        return self.maxima(m) if variant == "prime" else self.height_pick(m, True)

    def refine_upper(self, m: int, variant: str) -> int:
        if variant == "raw":
            return m
        return self.minima(m) if variant == "prime" else self.height_pick(m, False)

    def union_of(self, table: list[int], m: int) -> int:
        acc = 0
        for i in bits(m):
            acc |= table[i]
        return acc

    def inter_of(self, table: list[int], m: int) -> int:
        acc = self.ground
        for i in bits(m):
            acc &= table[i]
        return acc

    # A union of pairwise intersections is the intersection of the two unions,
    # so the raw set operators need no pair loop.
    def meet(self, x: int, y: int, variant: str) -> int:
        raw = self.union_of(self.downeq, x) & self.union_of(self.downeq, y)
        return self.refine_lower(raw, variant)

    def join(self, x: int, y: int, variant: str) -> int:
        raw = self.union_of(self.upeq, x) & self.union_of(self.upeq, y)
        return self.refine_upper(raw, variant)

    def neg_raw(self, m: int) -> int:
        acc = self.ground
        for i in bits(m):
            acc &= self.orth(i)
        return acc

    def set_height(self, m: int) -> int:
        return max(self.ht[i] for i in bits(m))

    def mu(self, m: int) -> int:
        return sum(self.ht[i] for i in bits(m))

    def signed_height(self, sign: str, m: int) -> int:
        hts = [self.ht[i] for i in bits(m)]
        return max(hts) + 1 if sign == "sup" else min(hts) - 1

    def prob_max(self, m: int) -> Fraction:
        return Fraction(self.set_height(m), self.ht[self.top])


class Signed:
    __slots__ = ("sign", "mask")

    def __init__(self, sign: str, mask: int):
        self.sign = sign
        self.mask = mask


class Prob:
    __slots__ = ("value", "num", "den", "flagged")

    def __init__(self, num: int, den: int, flagged: bool = False):
        self.value = Fraction(num, den)
        self.num = num
        self.den = den
        self.flagged = flagged


class Bits:
    """A plain element set (keeps a mask apart from an integer result)."""

    __slots__ = ("mask",)

    def __init__(self, mask: int):
        self.mask = mask


def _plain(value) -> int:
    if not isinstance(value, Bits):
        raise RefError("EvalTypeError")
    return value.mask


def evaluate(rp: RefPoset, node):
    """Value of an expression tree (see ``exprgen``) on the reference poset."""
    kind = node[0]
    if kind == "id":
        return Bits(1 << rp.resolve(node[1]))
    if kind == "set":
        return Bits(rp.mask(node[1]))
    if kind == "signed":
        return Signed(node[1], rp.mask(node[2]))
    if kind == "rat":
        return node[1]
    if kind == "neg":
        _, variant, sub = node
        operand = evaluate(rp, sub)
        if isinstance(operand, Signed):
            if variant != "raw":
                raise RefError("SignedMisuse")
            rows = [rp.orth(c) for c in bits(operand.mask)]
            acc = rows[0]
            for row in rows[1:]:
                acc = acc & row if operand.sign == "sup" else acc | row
            return Bits(acc)
        return Bits(rp.refine_lower(rp.neg_raw(_plain(operand)), variant))
    if kind == "bin":
        return _binop(rp, node)
    return _call(rp, node)


def _binop(rp: RefPoset, node):
    _, op, variant, lnode, rnode = node
    left = evaluate(rp, lnode)
    right = evaluate(rp, rnode)
    if isinstance(left, Signed) and isinstance(right, Signed):
        raise RefError("SignedMisuse")
    if isinstance(left, Signed) or isinstance(right, Signed):
        if op == "minus" or variant != "raw":
            raise RefError("SignedMisuse")
        s, other = (left, right) if isinstance(left, Signed) else (right, left)
        y = _plain(other)
        if y & (y - 1):
            raise RefError("SignedMisuse")
        (yi,) = bits(y)
        if op == "meet":
            table = rp.downeq
            fold = rp.union_of if s.sign == "sup" else rp.inter_of
        else:
            table = rp.upeq
            fold = rp.inter_of if s.sign == "sup" else rp.union_of
        return Bits(table[yi] & fold(table, s.mask))
    x, y = _plain(left), _plain(right)
    if op == "meet":
        return Bits(rp.meet(x, y, variant))
    if op == "join":
        return Bits(rp.join(x, y, variant))
    return Bits(rp.meet(x, rp.neg_raw(y), variant))


def _call(rp: RefPoset, node):
    _, fn, arg_nodes = node
    args = [evaluate(rp, a) for a in arg_nodes]
    if fn in ("meetall", "joinall"):
        union = 0
        for a in args:
            union |= _plain(a)
        return Bits(rp.inter_of(rp.downeq if fn == "meetall" else rp.upeq, union))
    if fn in ("max", "min", "maxht", "minht"):
        m = _plain(args[0])
        if fn == "max":
            return Bits(rp.maxima(m))
        if fn == "min":
            return Bits(rp.minima(m))
        return Bits(rp.height_pick(m, fn == "maxht"))
    if fn in ("meet1", "join1"):
        table = rp.downeq if fn == "meet1" else rp.upeq
        x, y = _plain(args[0]), _plain(args[1])
        acc = rp.ground
        for i in bits(x):
            for j in bits(y):
                acc &= table[i] & table[j]
        return Bits(acc)
    if fn in ("meet2", "join2"):
        table = rp.downeq if fn == "meet2" else rp.upeq
        return Bits(rp.inter_of(table, _plain(args[0]) | _plain(args[1])))
    if fn == "neg1":
        acc = 0
        for i in bits(_plain(args[0])):
            acc |= rp.orth(i)
        return Bits(acc)
    if fn == "ht":
        if isinstance(args[0], Signed):
            return rp.signed_height(args[0].sign, args[0].mask)
        return rp.set_height(_plain(args[0]))
    top = rp.ht[rp.top]
    if fn == "P":
        if isinstance(args[0], Signed):
            h = rp.signed_height(args[0].sign, args[0].mask)
            return Prob(h, top, flagged=not 0 <= Fraction(h, top) <= 1)
        return Prob(rp.set_height(_plain(args[0])), top)
    if fn == "Pmu":
        if isinstance(args[0], Signed):
            raise RefError("SignedMisuse")
        return Prob(rp.mu(_plain(args[0])), rp.mu(rp.ground))
    if fn == "mu":
        return rp.mu(_plain(args[0]))
    a, b = _plain(args[0]), _plain(args[1])
    if fn == "indep1":
        return rp.prob_max(rp.meet(a, b, "raw")) == rp.prob_max(a) * rp.prob_max(b)
    assert fn == "indep2", fn
    neg_a = rp.neg_raw(a)
    p_a, p_neg_a = rp.prob_max(a), rp.prob_max(neg_a)
    if p_a == 0 or p_neg_a == 0:
        raise RefError("DegenerateConditional")
    alpha = args[2] if len(args) == 3 else rp.prob_max(b)
    given_a = rp.prob_max(rp.meet(a, b, "raw")) / p_a
    given_neg_a = rp.prob_max(rp.meet(neg_a, b, "raw")) / p_neg_a
    if given_a == alpha:
        return True
    if given_a < alpha:
        return given_neg_a >= alpha
    return given_neg_a <= alpha


def format_result(rp: RefPoset, value) -> str:
    """The program's canonical printed form of an evaluation result."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Bits):
        return "{" + ",".join(rp.names(value.mask)) + "}"
    if isinstance(value, Signed):
        return value.sign + "{" + ",".join(rp.names(value.mask)) + "}"
    if isinstance(value, Prob):
        text = str(value.value)
        if (value.num, value.den) != (value.value.numerator, value.value.denominator):
            text += f" ({value.num}/{value.den})"
        if value.flagged:
            text += " [out-of-range]"
        return text
    return str(value)


def expected_text(rp: RefPoset, node) -> str:
    """Printed result, or ``error:<ErrorClass>`` when evaluation must fail."""
    try:
        return format_result(rp, evaluate(rp, node))
    except RefError as exc:
        return f"error:{exc.kind}"


def _topological(succ: list[set[int]]) -> list[int]:
    indeg = [0] * len(succ)
    for targets in succ:
        for w in targets:
            indeg[w] += 1
    ready = [v for v, d in enumerate(indeg) if d == 0]
    order = []
    while ready:
        v = ready.pop()
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    if len(order) != len(succ):
        raise ValueError("generators contain a cycle")
    return order
