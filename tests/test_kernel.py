"""The bitmask kernel of ``Poset`` against the definitions of the order.

The expected relations are rebuilt here from the generator edges a poset
was built from plus the bound edges ``build_poset`` documents (bottom
below every other element, top above), never from the kernel's masks:
up- and down-sets by search along the edges, covers as the minimal
elements strictly above, heights as longest paths up from bottom, and
orthogonality as "bottom is the only common lower bound".  The same
edges are checked against ``Poset.gen_edges``.  Only the fixtures, whose
generators stay inside their builders, are rebuilt from ``gen_edges``.
The brute-force oracle's ``ht``/``leq``/``orth`` spot-check the result.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from ordbool import (
    FIXTURE_NAMES,
    build_poset,
    builtin_fixture,
    Variant,
    differential_check,
    neg_set,
    powerset_lattice,
    random_poset,
    subset_family_poset,
)
from ordbool.oracle import _NaiveOrder


def bound_edges(elems, bottom, top):
    return {(bottom, v) for v in elems if v != bottom} | {
        (v, top) for v in elems if v not in (bottom, top)
    }


def random_gens(n, density, seed):
    """The generators ``random_poset`` draws for these arguments."""
    rng = random.Random(seed)
    return [(f"v{i}", f"v{j}") for i in range(n) for j in range(i + 1, n)
            if rng.random() < float(density)]


def inclusion_gens(family):
    """Every proper inclusion between members of a family of atom sets."""
    label = {s: "".join(sorted(s)) or "_bot" for s in map(frozenset, family)}
    return [(label[u], label[v]) for u in label for v in label if u < v]


class Definition:
    """Reachability of one poset from a given edge set.

    Reachable sets are kept as ints over element positions so that a
    2000-element chain stays small; ``labels`` turns one into a set.
    """

    def __init__(self, p, edges):
        self.naive = _NaiveOrder(p)
        self.bottom = p.bottom
        self.elems = list(p.elems)
        self.bit = {v: 1 << i for i, v in enumerate(self.elems)}
        succ = {v: [] for v in self.elems}
        pred = {v: [] for v in self.elems}
        for a, b in edges:
            succ[a].append(b)
            pred[b].append(a)
        self.up = self._closure(succ)
        self.down = self._closure(pred)
        # Along an edge the down-set grows, so this order is topological.
        self.height = {}
        for v in sorted(self.elems, key=lambda v: bin(self.down[v]).count("1")):
            self.height[v] = 1 + max((self.height[u] for u in pred[v]), default=-1)

    def _closure(self, adj):
        reach = {}
        for root in self.elems:
            stack = [root]
            while stack:
                v = stack[-1]
                if v in reach:
                    stack.pop()
                    continue
                todo = [w for w in adj[v] if w not in reach]
                if todo:
                    stack.extend(todo)
                    continue
                mask = self.bit[v]
                for w in adj[v]:
                    mask |= reach[w]
                reach[v] = mask
                stack.pop()
        return reach

    def labels(self, mask):
        return {v for v in self.elems if mask & self.bit[v]}

    def covers(self, x):
        """The minimal elements strictly above x."""
        strict = self.up[x] & ~self.bit[x]
        return {w for w in self.labels(strict) if strict & self.down[w] == self.bit[w]}

    def orth(self, x):
        bottom = self.bit[self.bottom]
        return {a for a in self.elems if self.down[a] & self.down[x] == bottom}


def check_kernel(p, gens=None, sample=None, spot_pairs=40):
    """Compare every kernel-derived relation with the definitions.

    ``gens`` are the generators the poset was built from (None for the
    fixtures).  ``sample`` limits the per-element set comparisons to some
    elements (bounds always included); heights and cover order are always
    checked in full.
    """
    pos = {v: i for i, v in enumerate(p.elems)}
    if gens is None:
        edges = p.gen_edges
    else:
        edges = set(gens) | bound_edges(p.elems, p.bottom, p.top)
        assert list(p.gen_edges) == sorted(edges, key=lambda e: (pos[e[0]], pos[e[1]]))
    d = Definition(p, edges)
    assert list(p.cover_pairs) == sorted(p.cover_pairs, key=lambda e: (pos[e[0]], pos[e[1]]))
    assert len(set(p.cover_pairs)) == len(p.cover_pairs)
    covers_of = {v: set() for v in p.elems}
    for v, w in p.cover_pairs:
        covers_of[v].add(w)

    xs = list(p.elems)
    if sample is not None and sample < len(xs):
        xs = random.Random(len(xs)).sample(xs, sample) + [p.bottom, p.top]
    for x in xs:
        assert p.upset(x) == d.labels(d.up[x]), x
        assert p.above(x) == d.labels(d.up[x]) - {x}, x
        assert p.downset(x) == d.labels(d.down[x]), x
        assert p.below(x) == d.labels(d.down[x]) - {x}, x
        assert covers_of[x] == d.covers(x), x
        assert p.orth_of(x) == d.orth(x), x

    for x in p.elems:
        assert p.height_of[x] == d.height[x] == d.naive.ht(x), x

    rng = random.Random(7)
    for _ in range(spot_pairs):
        x, y = rng.choice(p.elems), rng.choice(p.elems)
        assert p.leq(x, y) == d.naive.leq(x, y) == bool(d.up[x] & d.bit[y])
        if len(p) <= 250:
            assert (y in p.orth_of(x)) == d.naive.orth(x, y)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixtures(name):
    check_kernel(builtin_fixture(name))


@pytest.mark.parametrize("n", [200, 400])
@pytest.mark.parametrize("density", [Fraction(1, 20), Fraction(1, 4)])
def test_random_orders(n, density):
    seed = n + density.denominator
    check_kernel(random_poset(n, density, seed=seed), random_gens(n, density, seed),
                 sample=None if n == 200 else 120)


def test_long_chain():
    labels = [f"c{i}" for i in range(2000)]
    gens = list(zip(labels, labels[1:]))
    p = build_poset("chain", labels, gens)
    check_kernel(p, gens, sample=60)
    assert p.height_of[p.top] == 2001
    assert len(p.cover_pairs) == 2001


def test_wide_antichain():
    p = random_poset(300, 0, seed=1)
    check_kernel(p, [])
    assert len(p.cover_pairs) == 600
    assert p.orth_of("v0") == {p.bottom} | (p.ground - {"v0", p.top})


def test_declared_bounds():
    inner = [f"m{i}" for i in range(60)]
    rng = random.Random(3)
    gens = [(a, b) for i, a in enumerate(inner) for b in inner[i + 1:] if rng.random() < 0.08]
    gens += [("lo", inner[0]), (inner[-1], "hi")]
    check_kernel(build_poset("declared", ["lo", *inner, "hi"], gens, bottom="lo", top="hi"), gens)
    check_kernel(build_poset("tight", ["lo", "hi"], [("lo", "hi")], bottom="lo", top="hi"),
                 [("lo", "hi")])
    atoms = "abcd"
    family = [set(c) for k in range(len(atoms) + 1) for c in combinations(atoms, k)]
    check_kernel(powerset_lattice(list(atoms)), inclusion_gens(family))
    family = [{"a"}, {"b"}, {"a", "b", "c"}, {"c"}]
    check_kernel(subset_family_poset(family), inclusion_gens(family))


def test_queries_leave_the_poset_unchanged():
    p = builtin_fixture("supinf")
    state = {name: repr(getattr(p, name)) for name in type(p).__slots__}
    for x in p.elems:
        p.orth_of(x)
        neg_set(p, [x], Variant.PRIME)
    assert {name: repr(getattr(p, name)) for name in type(p).__slots__} == state


def test_differential_sweep_at_two_hundred_elements():
    p = random_poset(200, Fraction(1, 20), seed=200)
    report = differential_check(p, seed=200, cases=500)
    assert report.cases == 500
    assert report.ok, report.mismatches[:3]
