"""Tests for the theory combiner (EUF + LIA literal conjunctions)."""

from repro.smt.combine import (
    TheoryLiteral,
    _congruence_candidate_pairs,
    check_literals,
    minimize_core,
)
from repro.smt.euf import CongruenceClosure
from repro.smt import Eq, Le, app, eq_f, fnot, le_f, lt_f, num, sym, t_add, t_sub

x, y, z = sym("x"), sym("y"), sym("z")


def lit(kind, lhs, rhs=num(0)):
    return TheoryLiteral(kind, t_sub(lhs, rhs))


class TestFromFormula:
    def test_positive_eq(self):
        f = eq_f(x, y)
        assert TheoryLiteral.from_formula(f, True).kind == "eq"

    def test_negative_eq_is_diseq(self):
        f = eq_f(x, y)
        assert TheoryLiteral.from_formula(f, False).kind == "ne"

    def test_negative_le_flips(self):
        f = le_f(x, num(0))
        flipped = TheoryLiteral.from_formula(f, False)
        assert flipped.kind == "le"
        # not(x <= 0)  ==  1 - x <= 0
        from repro.smt import as_linear

        const, coeffs = as_linear(flipped.term)
        assert const == 1 and coeffs == {x: -1}


class TestCheckLiterals:
    def test_empty_sat(self):
        assert check_literals([]).status == "sat"

    def test_pure_lia_conflict(self):
        # x <= 0 and 1 <= x  (written as 1 - x <= 0)
        lits = [
            TheoryLiteral("le", x),
            TheoryLiteral("le", t_sub(num(1), x)),
        ]
        assert check_literals(lits).status == "unsat"

    def test_pure_euf_conflict(self):
        # x = y, f(x) != f(y)
        lits = [
            TheoryLiteral("eq", t_sub(x, y)),
            TheoryLiteral("ne", t_sub(app("f", x), app("f", y))),
        ]
        assert check_literals(lits).status == "unsat"

    def test_combined_conflict_via_propagation(self):
        # x <= y, y <= x, f(x) != f(y): needs LIA -> EUF equality propagation
        lits = [
            TheoryLiteral("le", t_sub(x, y)),
            TheoryLiteral("le", t_sub(y, x)),
            TheoryLiteral("ne", t_sub(app("f", x), app("f", y))),
        ]
        assert check_literals(lits).status == "unsat"

    def test_constants_through_functions(self):
        # x = 3, y = 3, f(x) != f(y)
        lits = [
            TheoryLiteral("eq", t_sub(x, num(3))),
            TheoryLiteral("eq", t_sub(y, num(3))),
            TheoryLiteral("ne", t_sub(app("f", x), app("f", y))),
        ]
        assert check_literals(lits).status == "unsat"

    def test_satisfiable_mixed(self):
        lits = [
            TheoryLiteral("le", t_sub(x, y)),
            TheoryLiteral("eq", t_sub(z, app("f", x))),
            TheoryLiteral("ne", t_sub(z, app("f", y))),
        ]
        assert check_literals(lits).status == "sat"

    def test_function_result_feeding_arithmetic(self):
        # a = f(x), a >= 5, f(x) <= 4 is inconsistent.
        a = sym("a")
        lits = [
            TheoryLiteral("eq", t_sub(a, app("f", x))),
            TheoryLiteral("le", t_sub(num(5), a)),
            TheoryLiteral("le", t_sub(app("f", x), num(4))),
        ]
        assert check_literals(lits).status == "unsat"


class TestCandidatePairs:
    def _atoms(self, lits):
        cc = CongruenceClosure()
        for l in lits:
            cc.add_term(l.term)
        return cc

    def test_same_function_args_paired(self):
        lits = [TheoryLiteral("ne", t_sub(app("f", x), app("f", y)))]
        cc = self._atoms(lits)
        pairs = _congruence_candidate_pairs(lits, cc)
        assert (x, y) in pairs or (y, x) in pairs

    def test_distinct_numerals_skipped(self):
        lits = [TheoryLiteral("ne", t_sub(app("f", x, num(1)), app("f", y, num(2))))]
        cc = self._atoms(lits)
        assert _congruence_candidate_pairs(lits, cc) == []

    def test_different_functions_not_paired(self):
        lits = [TheoryLiteral("ne", t_sub(app("f", x), app("g", y)))]
        cc = self._atoms(lits)
        assert _congruence_candidate_pairs(lits, cc) == []


class TestMinimizeCore:
    def test_core_is_unsat_and_smaller(self):
        irrelevant = [TheoryLiteral("le", t_sub(sym(f"u{i}"), sym(f"w{i}"))) for i in range(4)]
        conflict = [
            TheoryLiteral("le", x),
            TheoryLiteral("le", t_sub(num(1), x)),
        ]
        core = minimize_core(irrelevant + conflict)
        assert check_literals(list(core)).status == "unsat"
        assert len(core) == 2

    def test_oversized_input_returned_whole(self):
        lits = [TheoryLiteral("le", t_sub(sym(f"v{i}"), sym(f"v{i+1}"))) for i in range(30)]
        lits += [TheoryLiteral("le", t_sub(sym("v30"), sym("v0"))), TheoryLiteral("le", t_sub(num(1), num(0)))]
        assert len(minimize_core(lits, budget=5)) == len(lits)


class TestTheoryMemoIsBounded:
    """The process-wide memo is an LRU: it plateaus, and keeps admitting."""

    def test_evicts_the_oldest_and_keeps_the_recent(self, monkeypatch):
        from collections import OrderedDict

        from repro.smt import combine

        cap = 8
        uncached_calls = []
        real = combine.TheoryStack.check

        def counting(stack):
            uncached_calls.append(frozenset(stack.literals))
            return real(stack)

        monkeypatch.setattr(combine, "_CHECK_CACHE", OrderedDict())
        monkeypatch.setattr(combine, "_CHECK_CACHE_LIMIT", cap)
        monkeypatch.setattr(combine.TheoryStack, "check", counting)

        def key(i):
            return [TheoryLiteral("le", t_sub(x, num(i)))]

        for i in range(cap):
            check_literals(key(i))
        check_literals(key(0))  # a hit: key 0 becomes the most recently used
        assert len(uncached_calls) == cap
        for i in range(cap, 2 * cap - 1):  # overflow by cap - 1 fresh keys
            check_literals(key(i))
            assert len(combine._CHECK_CACHE) <= cap

        before = len(uncached_calls)
        assert check_literals(key(0)).status == "sat"  # survived: recently used
        assert check_literals(key(2 * cap - 2)).status == "sat"  # admitted past the cap
        assert len(uncached_calls) == before
        check_literals(key(1))  # the oldest unused entry was evicted
        assert len(uncached_calls) == before + 1
        assert len(combine._CHECK_CACHE) == cap

    def test_thread_workers_share_it_safely(self, monkeypatch):
        """Threads (the service's request threads) hit, refresh and evict concurrently."""

        import sys
        import threading
        from collections import OrderedDict

        from repro.smt import combine

        cap = 4
        monkeypatch.setattr(combine, "_CHECK_CACHE", OrderedDict())
        monkeypatch.setattr(combine, "_CHECK_CACHE_LIMIT", cap)
        errors = []

        def worker(offset):
            try:
                for i in range(300):
                    k = (i * 7 + offset) % 11
                    # x <= k and x >= k + 1 is unsat; x <= k alone is sat.
                    lits = [TheoryLiteral("le", t_sub(x, num(k)))]
                    if k % 2:
                        lits.append(TheoryLiteral("le", t_sub(num(k + 1), x)))
                    expected = "unsat" if k % 2 else "sat"
                    assert check_literals(lits).status == expected
                    assert len(combine._CHECK_CACHE) <= cap
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[0]
        assert len(combine._CHECK_CACHE) <= cap
