"""Local renaming and the per-node caches of ``repro.smt.terms``.

* ``rename_syms`` is compared against the full walk it replaced
  (``repro.testing.reference``): equal results, untouched conjuncts by
  identity, an untouched Ψ as the same object.
* The cached sort key is byte-for-byte ``repr``; the cached hash agrees with
  a freshly built twin's, and never crosses a process boundary.
"""

import os
import pickle
import subprocess
import sys

from hypothesis import given, settings, strategies as st

import repro
from repro.smt.terms import (
    FALSE_F,
    App,
    FAnd,
    FOr,
    Formula,
    Num,
    Sym,
    Term,
    _atom_key,
    eq_f,
    fand,
    fnot,
    for_,
    formula_tokens,
    free_syms,
    le_f,
    rename_syms,
    rename_syms_term,
    t_add,
    t_mul,
    t_scale,
)
from repro.testing.reference import rename_syms_full_walk, rename_syms_term_full_walk

NAMES = ["v!a", "v!b", "v!c", "a!p", "v!a#3"]
UNUSED = ["v!unused", "v!z#9"]

syms = st.sampled_from(NAMES).map(Sym)
nums = st.integers(-5, 5).map(Num)
terms = st.recursive(
    st.one_of(syms, nums),
    lambda inner: st.one_of(
        st.builds(
            lambda func, args: App(func, tuple(args)),
            st.sampled_from(["f", "g"]),
            st.lists(inner, min_size=1, max_size=2),
        ),
        st.builds(t_add, inner, inner),
        st.builds(t_scale, st.integers(-3, 3), inner),
        st.builds(t_mul, inner, inner),
    ),
    max_leaves=6,
)
literals = st.one_of(st.builds(le_f, terms, terms), st.builds(eq_f, terms, terms))
formulas = st.recursive(
    literals,
    lambda inner: st.one_of(
        st.builds(fnot, inner),
        st.builds(lambda fs: fand(*fs), st.lists(inner, min_size=1, max_size=4)),
        st.builds(lambda fs: for_(*fs), st.lists(inner, min_size=1, max_size=3)),
    ),
    max_leaves=10,
)
# Keys drawn from used and unused names: a mapping touches no, some or all
# conjuncts.  Values are arbitrary terms, as ``sp.assign`` only ever passes
# fresh symbols but the function's contract is substitution by terms.
mappings = st.dictionaries(st.sampled_from(NAMES + UNUSED), terms, max_size=3)


def conjuncts(f: Formula) -> tuple:
    return f.args if isinstance(f, FAnd) else (f,)


def twin(f: Formula) -> Formula:
    """A structurally equal formula sharing no node (and no cache) with ``f``."""

    return rename_syms_full_walk(f, {})


@settings(max_examples=300)
@given(formulas, mappings)
def test_local_renaming_equals_the_full_walk(f, mapping):
    expected = rename_syms_full_walk(f, mapping)
    result = rename_syms(f, mapping)
    assert result == expected
    assert hash(result) == hash(expected)

    untouched = [g for g in conjuncts(f) if free_syms(g).isdisjoint(mapping)]
    for g in untouched:
        assert rename_syms(g, mapping) is g
    if len(untouched) == len(conjuncts(f)):
        assert result is f
    # Untouched conjuncts survive by identity — unless a rebuilt conjunct
    # became false (the conjunction collapses) or equal to one (fand's dedupe
    # keeps the earlier).
    if result == FALSE_F:
        return
    rebuilt = {
        part
        for g in conjuncts(f)
        if g not in untouched
        for part in conjuncts(rename_syms_full_walk(g, mapping))
    }
    kept_ids = {id(part) for part in conjuncts(result)}
    for g in untouched:
        if g not in rebuilt:
            assert id(g) in kept_ids


@given(terms, mappings)
def test_local_term_renaming_equals_the_full_walk(t, mapping):
    result = rename_syms_term(t, mapping)
    assert result == rename_syms_term_full_walk(t, mapping)
    mentioned = {sub.name for sub in _subterms(t) if isinstance(sub, Sym)}
    if mentioned.isdisjoint(mapping):
        assert result is t


def _subterms(t: Term) -> set:
    out = {t}
    for child in getattr(t, "args", ()):
        out |= _subterms(child)
    for atom, _coef in getattr(t, "coeffs", ()):
        out |= _subterms(atom)
    return out


def test_renaming_touching_none_some_all():
    a, b, c = Sym("v!a"), Sym("v!b"), Sym("v!c")
    on_a = le_f(a, Num(3))
    on_b = eq_f(App("f", (b,)), Num(1))
    nested = for_(fnot(eq_f(a, b)), fand(le_f(c, Num(0)), le_f(Num(0), c)))
    psi = fand(on_a, on_b, nested)
    fresh = Sym("v!x#1")

    assert rename_syms(psi, {"v!unused": fresh}) is psi
    assert rename_syms(psi, {}) is psi

    some = rename_syms(psi, {"v!c": fresh})
    assert some == rename_syms_full_walk(psi, {"v!c": fresh})
    assert some.args[0] is on_a and some.args[1] is on_b
    assert some.args[2] is not nested
    # Inside the rebuilt disjunction the untouched disjunct is shared too.
    assert isinstance(some.args[2], FOr) and some.args[2].args[0] is nested.args[0]

    every = {"v!a": fresh, "v!b": Sym("v!x#2"), "v!c": Sym("v!x#3")}
    assert rename_syms(psi, every) == rename_syms_full_walk(psi, every)
    assert free_syms(rename_syms(psi, every)) == {"v!x#1", "v!x#2", "v!x#3"}


@given(st.lists(terms, max_size=8))
def test_cached_atom_key_sorts_like_repr(ts):
    atoms = [t for t in ts if isinstance(t, (Sym, App))]
    assert sorted(atoms, key=_atom_key) == sorted(atoms, key=repr)
    # Second pass reads the cache.
    assert [_atom_key(a) for a in atoms] == [repr(a) for a in atoms]
    assert all(a._key == repr(a) for a in atoms)


@given(formulas)
def test_equal_formulas_hash_equal_whatever_is_cached(f):
    cold = twin(f)
    # Fill every cache on one side only.
    hash(f)
    formula_tokens(f)
    for g in conjuncts(f):
        formula_tokens(g)
    assert cold == f
    assert hash(cold) == hash(f)
    assert {f: "hit"}[cold] == "hit"
    assert formula_tokens(cold) == formula_tokens(f)
    # Caches are invisible: not printed, not compared.
    assert repr(cold) == repr(f)


def test_caches_do_not_survive_pickling():
    f = fand(le_f(Sym("v!a"), Num(3)), eq_f(App("f", (Sym("v!b"),)), Sym("a!p")))
    hash(f)
    formula_tokens(f)
    clone = pickle.loads(pickle.dumps(f))
    assert clone == f and clone is not f
    assert clone._hash is None and clone._tokens is None
    assert all(part._hash is None for part in clone.args)


def test_cached_hash_does_not_cross_a_process():
    """``str`` hashes are salted per interpreter: a hash cached in one
    process must not arrive with the node in another."""

    build = (
        "from repro.smt.terms import *\n"
        "f = fand(le_f(Sym('v!a'), Num(3)),"
        " for_(eq_f(App('f', (Sym('v!b'), Num(2))), Sym('a!p')), fnot(eq_f(Sym('v!c'), Num(0)))))\n"
    )
    child_seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    env = dict(os.environ, PYTHONHASHSEED=child_seed)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        build
        + "import pickle, sys\n"
        + "from repro.smt.terms import formula_tokens\n"
        + "h = hash(f); formula_tokens(f); {f: 1}\n"
        + "assert f._hash == h and all(g._hash is not None for g in f.args)\n"
        + "sys.stdout.buffer.write(h.to_bytes(8, 'big', signed=True) + pickle.dumps(f))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, check=True, timeout=60
    ).stdout
    child_hash = int.from_bytes(out[:8], "big", signed=True)
    shipped = pickle.loads(out[8:])

    scope: dict = {}
    exec(build, scope)
    local = scope["f"]
    assert hash(local) != child_hash, "the two interpreters must salt differently"
    assert shipped == local
    assert hash(shipped) == hash(local)
    assert shipped in {local} and {shipped: "hit"}[local] == "hit"
    assert formula_tokens(shipped) == formula_tokens(local)
