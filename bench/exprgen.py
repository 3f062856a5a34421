"""Seeded expression trees for the benchmark, and their text form.

Trees are plain tuples, independent of the program's AST:

    ("id", name)  ("set", names)  ("signed", "sup"|"inf", names)
    ("rat", Fraction)  ("neg", variant, sub)  ("bin", op, variant, left, right)
    ("call", fn, args)

with ``op`` in meet/join/minus and ``variant`` in raw/prime/htprime.  The
program sees only the text from ``to_text``; the reference evaluates the tree.
Signed literals appear only where the language allows them: as a direct
operand of raw ``&``, ``|`` or ``!`` next to a single element, or inside
``P``/``ht``.
"""

from __future__ import annotations

import random
from fractions import Fraction

_SUFFIX = {"raw": "", "prime": "'", "htprime": "''"}
_SYMBOL = {"meet": "&", "join": "|", "minus": "\\"}


def to_text(node) -> str:
    kind = node[0]
    if kind == "id":
        return node[1]
    if kind == "set":
        return "{" + ",".join(node[1]) + "}"
    if kind == "signed":
        return node[1] + "{" + ",".join(node[2]) + "}"
    if kind == "rat":
        return f"{node[1].numerator}/{node[1].denominator}"
    if kind == "neg":
        return "!" + _SUFFIX[node[1]] + _operand(node[2])
    if kind == "bin":
        _, op, variant, left, right = node
        return f"{_operand(left)} {_SYMBOL[op]}{_SUFFIX[variant]} {_operand(right)}"
    return node[1] + "(" + ",".join(to_text(a) for a in node[2]) + ")"


def _operand(node) -> str:
    text = to_text(node)
    return f"({text})" if node[0] == "bin" else text


class Gen:
    """Random leaves over a fixed element list."""

    def __init__(self, rng: random.Random, labels):
        self.rng = rng
        self.labels = list(labels)

    def e(self):
        return ("id", self.rng.choice(self.labels))

    def names(self, lo=2, hi=3):
        k = min(self.rng.randint(lo, hi), len(self.labels))
        return tuple(sorted(self.rng.sample(self.labels, k)))

    def s(self):
        return ("set", self.names())

    def sg(self):
        return ("signed", self.rng.choice(("sup", "inf")), self.names())

    def v(self):
        return self.rng.choice(("raw", "prime", "htprime"))

    def leaf(self):
        return self.e() if self.rng.random() < 0.6 else self.s()


def _bin(op, variant, left, right):
    return ("bin", op, variant, left, right)


def _call(fn, *args):
    return ("call", fn, tuple(args))


def _neg(variant, sub):
    return ("neg", variant, sub)


def _rat(g: Gen):
    return ("rat", Fraction(g.rng.randint(1, 3), 4))


# Short expressions of a one-shot CLI call: negations, prime meets and
# joins, signed operands and probabilities.
CLI_EVAL = (
    lambda g: _neg(g.v(), g.leaf()),
    lambda g: _bin("meet", "prime", g.e(), g.e()),
    lambda g: _bin("join", "prime", g.leaf(), g.e()),
    lambda g: _bin(g.rng.choice(("meet", "join")), "raw", g.e(), g.sg()),
    lambda g: _neg("raw", g.sg()),
    lambda g: _call("P", g.rng.choice((g.sg(), _neg("prime", g.e())))),
    lambda g: _call("Pmu", _bin("meet", "htprime", g.e(), g.s())),
)

# Inputs the CLI must refuse with exit 1: signed sets on both sides, a
# refined operator on a signed set, a signed operand paired with a set.
CLI_EVAL_ERRORS = (
    lambda g: _bin("meet", "raw", g.sg(), g.sg()),
    lambda g: _bin("join", "prime", g.e(), g.sg()),
    lambda g: _bin("meet", "raw", ("set", g.names(2, 2)), g.sg()),
)

# Plain-set expressions for `prob`, which refuses signed sets.
CLI_PROB = (
    lambda g: _neg(g.v(), g.e()),
    lambda g: _bin("meet", "prime", g.e(), g.s()),
    lambda g: _bin("join", g.v(), g.e(), g.e()),
)

# One round of the query stream: every operator family and variant, each
# template once, composed to depth three at most.  Refined inner results
# keep most set sizes small; the few raw compositions give the heavy tail.
# Every raw composition has a singleton or a small literal on one side:
# a raw meet of two raw joins can take a second on one draw and a
# millisecond on the next, which no run length averages out.
STREAM = (
    lambda g: _bin("meet", "raw", g.e(), g.e()),
    lambda g: _bin("meet", "prime", g.s(), g.s()),
    lambda g: _bin("meet", "htprime", g.s(), g.e()),
    lambda g: _bin("join", "raw", g.e(), g.e()),
    lambda g: _bin("join", "prime", g.s(), g.s()),
    lambda g: _bin("join", "htprime", g.e(), g.s()),
    lambda g: _neg("raw", g.e()),
    lambda g: _neg("prime", g.s()),
    lambda g: _neg("htprime", _bin("meet", "prime", g.e(), g.e())),
    lambda g: _bin("minus", "raw", g.s(), g.e()),
    lambda g: _bin("minus", "prime", g.e(), g.s()),
    lambda g: _bin("meet", "raw", g.e(), g.sg()),
    lambda g: _bin("join", "raw", g.sg(), g.e()),
    lambda g: _neg("raw", g.sg()),
    lambda g: _bin("meet", "prime", _bin("join", "raw", g.e(), g.sg()), g.s()),
    lambda g: _call("meetall", g.e(), g.e(), g.e()),
    lambda g: _call("joinall", g.s(), g.e()),
    lambda g: _call("max", _bin("meet", "raw", g.e(), g.e())),
    lambda g: _call("min", _bin("join", "raw", g.e(), g.e())),
    lambda g: _call("maxht", _neg("raw", g.e())),
    lambda g: _call("minht", _bin("join", "raw", g.s(), g.e())),
    lambda g: _call("P", _bin("meet", "prime", g.e(), g.e())),
    lambda g: _call("P", g.sg()),
    lambda g: _call("Pmu", _neg("prime", g.e())),
    lambda g: _call("mu", _bin("join", "prime", g.s(), g.e())),
    lambda g: _call("ht", g.sg()),
    lambda g: _call("ht", _bin("join", "raw", g.e(), g.e())),
    lambda g: _call("indep1", g.s(), g.e()),
    lambda g: _call("indep2", g.e(), g.s()),
    lambda g: _call("indep2", g.s(), g.e(), _rat(g)),
    lambda g: _call(g.rng.choice(("meet1", "meet2", "join1", "join2")), g.s(), g.s()),
    lambda g: _call("neg1", g.s()),
    lambda g: _bin("join", "raw", _neg("prime", _bin("meet", "prime", g.e(), g.e())),
                   _bin("join", "prime", g.s(), g.e())),
    lambda g: _bin("meet", "prime", _bin("join", "raw", g.e(), g.e()), _neg("raw", g.e())),
    lambda g: _neg("raw", _bin("join", "raw", g.e(), g.s())),
    lambda g: _bin("meet", "raw", _bin("join", "raw", g.e(), g.e()), g.s()),
)
