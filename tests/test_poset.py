"""Core order representation: building, validation, queries, heights."""

import pytest

from ordbool import (
    BoundsViolation,
    CompareMode,
    CycleDetected,
    DuplicateLabel,
    EmptyInput,
    Extreme,
    HtExtreme,
    InvalidLabel,
    Query,
    Rel,
    TooSmall,
    UnknownLabel,
    Variant,
    below_filter,
    build_poset,
    extremes,
    extremes_by_height,
    height,
    naive_eval,
    order_rel,
    orthogonal,
    set_compare,
)
from conftest import fs


class TestBuild:
    def test_free_bounds_adjunction(self):
        p = build_poset("two", ["a", "b"], [])
        assert p.elems == ("_bot", "a", "b", "_top")
        assert p.bottom == "_bot" and p.top == "_top"
        assert order_rel(p, "a", "b") is Rel.INCOMPARABLE

    def test_minimal_poset_has_just_the_bounds(self):
        p = build_poset("empty", [], [])
        assert len(p) == 2
        assert p.lt("_bot", "_top")

    def test_declared_bounds_are_wired_implicitly(self):
        p = build_poset("named", ["lo", "m", "hi"], [], bottom="lo", top="hi")
        assert p.lt("lo", "m") and p.lt("m", "hi") and p.lt("lo", "hi")

    def test_generators_are_closed_transitively(self):
        p = build_poset("chain", ["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert p.lt("a", "c")

    def test_cycle_rejected(self):
        with pytest.raises(CycleDetected):
            build_poset("bad", ["a", "b"], [("a", "b"), ("b", "a")])

    def test_self_loop_rejected(self):
        with pytest.raises(CycleDetected):
            build_poset("bad", ["a", "b"], [("a", "a")])

    def test_duplicate_label_rejected(self):
        with pytest.raises(DuplicateLabel):
            build_poset("bad", ["a", "a"], [])

    def test_reserved_labels(self):
        with pytest.raises(InvalidLabel):
            build_poset("bad", ["_sneaky"], [])
        with pytest.raises(InvalidLabel):
            build_poset("bad", ["has space"], [])
        with pytest.raises(DuplicateLabel):
            # _bot may not be declared when the bottom is synthesized
            build_poset("bad", ["_bot", "a"], [])

    def test_unknown_generator_endpoint(self):
        with pytest.raises(UnknownLabel):
            build_poset("bad", ["a"], [("a", "zzz")])

    def test_unknown_declared_bound(self):
        with pytest.raises(UnknownLabel):
            build_poset("bad", ["a"], [], bottom="zzz")

    def test_declared_bottom_with_something_below_it(self):
        with pytest.raises(BoundsViolation):
            build_poset("bad", ["lo", "x"], [("x", "lo")], bottom="lo")

    def test_declared_top_with_something_above_it(self):
        with pytest.raises(BoundsViolation):
            build_poset("bad", ["hi", "x"], [("hi", "x")], top="hi")

    def test_coinciding_bounds_rejected(self):
        with pytest.raises(BoundsViolation):
            build_poset("bad", ["a", "b"], [], bottom="a", top="a")

    def test_single_element_poset_too_small(self):
        with pytest.raises(TooSmall):
            build_poset("bad", ["a"], [], bottom="a", top="a")

    def test_closure_is_idempotent(self, fixtures):
        for p in fixtures.values():
            for x in p.elems:
                for y in p.above(x):
                    assert p.above(y) <= p.above(x)

    def test_immutability_of_slots(self, v1):
        with pytest.raises(AttributeError):
            v1.extra = 1


class TestOrderRel:
    def test_incomparable_pair(self, v1):
        assert order_rel(v1, "a", "b") is Rel.INCOMPARABLE

    def test_bottom_below_top(self, fixtures):
        for p in fixtures.values():
            assert order_rel(p, p.bottom, p.top) is Rel.LT
            assert order_rel(p, p.top, p.bottom) is Rel.GT
            assert order_rel(p, p.top, p.top) is Rel.EQ

    def test_chain_through_intermediate_levels(self, supinf):
        # e < c < x < a < f, so the closure must relate the endpoints.
        assert order_rel(supinf, "e", "f") is Rel.LT
        got = naive_eval(supinf, Query("meet_all", (("e", "f"), Variant.RAW)))
        assert "e" in got  # the independent path agrees that e <= f

    def test_unknown_label(self, v1):
        with pytest.raises(UnknownLabel):
            order_rel(v1, "a", "zzz")

    def test_nothing_unknown_lies_above(self, v1):
        # The unchecked predicates answer False for a stranger on the right.
        assert not v1.lt("a", "zzz")
        assert not v1.leq("a", "zzz")
        assert not v1.lt(v1.bottom, "zzz")


class TestOrthogonal:
    def test_incomparable_atoms_are_orthogonal(self, v1):
        assert orthogonal(v1, "a", "b")

    def test_bottom_is_orthogonal_to_everything(self, fixtures):
        for p in fixtures.values():
            assert all(orthogonal(p, x, p.bottom) for x in p.elems)

    def test_common_lower_bound_blocks_orthogonality(self, fixtures):
        # d sits below both b and c, so they are not orthogonal.
        assert not orthogonal(fixtures["alt"], "b", "c")


class TestExtremes:
    def test_max_drops_dominated_members(self, v1):
        assert extremes(v1, fs("_bot", "a"), Extreme.MAX) == fs("a")

    def test_antichain_is_its_own_extremes(self, fixtures):
        p = fixtures["dist"]
        x = fs("x", "y", "z")
        assert extremes(p, x, Extreme.MIN) == x
        assert extremes(p, x, Extreme.MAX) == x

    def test_forced_by_chain(self, pprime):
        assert extremes(pprime, fs("_bot", "b", "b'"), Extreme.MAX) == fs("b'")

    def test_empty_input(self, v1):
        with pytest.raises(EmptyInput):
            extremes(v1, fs(), Extreme.MAX)


class TestBelowFilter:
    def test_everything_is_below_top(self, v1):
        assert below_filter(v1, fs("a", "b"), "_top") == fs("a", "b")

    def test_direct_filter(self, v1):
        assert below_filter(v1, fs("a", "b"), "a") == fs("a")

    def test_filter_through_closure(self, supinf):
        assert below_filter(supinf, fs("c", "d", "y"), "x") == fs("c", "d")


class TestSetCompare:
    def test_everything_below_top_singleton(self, fixtures):
        for p in fixtures.values():
            assert set_compare(p, p.ground, fs(p.top), CompareMode.LEQ)

    def test_subset_implies_leq(self, supinf):
        assert set_compare(supinf, fs("c", "d"), fs("c", "d", "y"), CompareMode.LEQ)

    def test_rejected_variant_counterexample(self, fixtures):
        # X = {a, top}, Y = {b} with a < b: the flipped quantifiers accept it,
        # the adopted ordering does not.
        p = fixtures["remark_ss"]
        X, Y = fs("a", "_top"), fs("b")
        assert set_compare(p, X, Y, CompareMode.LEQ1)
        assert not set_compare(p, X, Y, CompareMode.LEQ)

    def test_strict_compare_literal_reading(self, fixtures):
        p = fixtures["remark_ss"]
        assert set_compare(p, fs("a"), fs("b"), CompareMode.LT)
        # reflexive witness in Y blocks strictness only for that witness
        assert set_compare(p, fs("a"), fs("a", "b"), CompareMode.LT)
        assert not set_compare(p, fs("b"), fs("b"), CompareMode.LT)

    def test_empty_inputs(self, v1):
        with pytest.raises(EmptyInput):
            set_compare(v1, fs(), fs("a"), CompareMode.LEQ)
        with pytest.raises(EmptyInput):
            set_compare(v1, fs("a"), fs(), CompareMode.LEQ)


class TestHeight:
    def test_bottom_is_zero_everywhere(self, fixtures):
        for p in fixtures.values():
            assert height(p, p.bottom) == 0
            assert height(p, p.top) > 0

    def test_unit_product_corner(self, fixtures):
        assert height(fixtures["seq_unit"], "1_1'") == 2

    def test_longest_chain_wins(self, supinf):
        # bottom < e < c < x < a < f is the longest route up to f.
        assert height(supinf, "f") == 5
        assert naive_eval(supinf, Query("ht_of_set", (fs("f"),))) == 5

    def test_strictly_monotone_along_the_order(self, fixtures):
        for p in fixtures.values():
            for x in p.elems:
                for y in p.above(x):
                    assert p.height_of[x] < p.height_of[y]

    def test_incomparable_elements_may_differ_in_height(self, fixtures):
        p = fixtures["nn"]
        assert order_rel(p, "x'", "y") is Rel.INCOMPARABLE
        assert height(p, "x'") == 2
        assert height(p, "y") == 1


class TestExtremesByHeight:
    def test_tallest_member_wins(self, fixtures):
        p = fixtures["htv"]
        assert extremes_by_height(p, fs("_bot", "a", "b", "b'"), HtExtreme.MAXHT) == fs("b'")

    def test_bottom_is_the_lowest(self, fixtures):
        for p in fixtures.values():
            assert extremes_by_height(p, p.ground, HtExtreme.MINHT) == fs(p.bottom)

    def test_contained_in_order_extremes(self, fixtures):
        for p in fixtures.values():
            X = p.ground
            assert extremes_by_height(p, X, HtExtreme.MAXHT) <= extremes(p, X, Extreme.MAX)
            assert extremes_by_height(p, X, HtExtreme.MINHT) <= extremes(p, X, Extreme.MIN)
