"""Differential testing: naive path vs main path, and the powerset collapse."""

from fractions import Fraction

import pytest

from ordbool import (
    Query,
    TooManyAtoms,
    Variant,
    differential_check,
    law_check,
    lattice_oracle_check,
    naive_eval,
    build_poset,
    builtin_fixture,
    random_poset,
    run_query,
)
from ordbool.cli import _faulty_run_query
from conftest import fs


class TestNaiveAgreement:
    def test_every_pairwise_meet_on_the_diamond(self, v1):
        for x in v1.elems:
            for y in v1.elems:
                for v in Variant:
                    q = Query("meet_all", ((x, y), v))
                    assert run_query(v1, q) == naive_eval(v1, q)

    def test_signed_results_on_the_incomplete_fixture(self, supinf):
        from ordbool import Sign, SignedSet

        carrier = SignedSet(Sign.SUP, fs("x", "x'"))
        for op in ("signed_meet", "signed_join"):
            q = Query(op, ("y", carrier))
            assert run_query(supinf, q) == naive_eval(supinf, q)

    def test_summed_probability_recomputed_from_scratch(self, pprime):
        for x in pprime.elems:
            q = Query("prob_sum", (fs(x),))
            assert run_query(pprime, q) == naive_eval(pprime, q)

    def test_height_of_a_long_chain(self):
        labels = [f"c{i}" for i in range(1500)]
        p = build_poset("chain", labels, list(zip(labels, labels[1:])))
        q = Query("ht_of_set", (fs("c1499"),))
        assert naive_eval(p, q) == run_query(p, q) == 1500

    def test_error_taxonomy_matches(self, v1):
        from ordbool import MeasureKind
        from ordbool.oracle import _guarded

        q = Query("indep_threshold", (fs("_bot"), fs("a"), None, MeasureKind.MAX_HEIGHT))
        assert _guarded(run_query, v1, q) == _guarded(naive_eval, v1, q) == "<DegenerateConditional>"


class TestDifferentialCheck:
    def test_seeded_sweep_is_clean(self):
        p = random_poset(8, Fraction(1, 3), 42)
        report = differential_check(p, seed=42, cases=500)
        assert report.cases == 500
        assert report.ok, report.mismatches[:3]

    def test_zero_cases(self, v1):
        report = differential_check(v1, seed=0, cases=0)
        assert report.cases == 0 and report.ok

    def test_deterministic_per_seed(self, supinf):
        a = differential_check(supinf, seed=5, cases=60)
        b = differential_check(supinf, seed=5, cases=60)
        assert a == b

    def test_injected_fault_is_caught(self):
        p = random_poset(8, Fraction(1, 3), 42)
        report = differential_check(p, seed=42, cases=500, main=_faulty_run_query)
        assert len(report.mismatches) >= 1
        # the report points at the refined variants the fault degrades
        assert all(m.main != m.oracle for m in report.mismatches)

    def test_fixture_sweeps_are_clean(self, fixtures):
        for p in fixtures.values():
            report = differential_check(p, seed=11, cases=120)
            assert report.ok, (p.name, report.mismatches[:3])


class TestLatticeOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_powerset_collapse(self, n):
        atoms = [chr(ord("a") + i) for i in range(n)]
        report = lattice_oracle_check(atoms)
        assert report.cases == (2 ** n) ** 2
        assert report.ok, report.mismatches[:3]

    def test_limit_guard(self):
        with pytest.raises(TooManyAtoms):
            lattice_oracle_check(list("abcde"))


class TestLawCheck:
    def test_all_fixtures_obey_the_laws(self, fixtures):
        for p in fixtures.values():
            report = law_check(p)
            assert report.ok, (p.name, report.mismatches[:3])

    def test_report_counts_checks(self, v1):
        report = law_check(v1)
        assert report.cases > 100
