"""Tables the library builds itself are trusted, and each product carries a sync-level bound.

`product_min`, `weak_minimize`, `core`, `invert`, `quotient` and the canonical
renumbering build their results without the constructors' entry-by-entry
check.  Rebuilding any such result through the public constructors must raise
nothing and give an equal object.  Each product carries a bound on its sync
level (the sum of its operands' levels), which minimizing and renumbering keep;
the bound must never fall below the exact level, and a later `product_min`
must walk by it without analysing the product again.  An operand the library
did not build is still analysed, so a non-synchronizing one is still refused.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftfold import (
    Automaton,
    Transducer,
    canonical_rep,
    core,
    core_of,
    de_bruijn,
    invert,
    minimal_rep,
    product_min,
    product_raw,
    sync_level,
    weak_minimize,
)
from shiftfold import automata, transducers
from shiftfold.transducers import renumber

from conftest import h3_infinite, pool_product

SETTINGS = settings(max_examples=40, deadline=None)

NOT_SYNCHRONIZING = Transducer(Automaton(2, ((0, 0), (1, 1))), ((0, 1), (1, 0)))

picks = st.lists(st.integers(min_value=0), min_size=1, max_size=3)


def carried_bound(t):
    """The sync-level bound the library tagged T's base with."""
    return vars(t.base)["_sync_bound"]


def assert_rebuilds(t):
    """The public constructors accept the tables and give an equal machine."""
    rebuilt = Transducer(Automaton(t.alphabet_size, t.base.delta), t.output)
    assert rebuilt == t and hash(rebuilt) == hash(t)


def assert_bound_holds(t):
    bound = carried_bound(t)
    assert bound >= sync_level(t.base)


def power_chain(limit):
    base = h3_infinite()
    power = base
    while power.state_count <= limit:
        power = product_min(power, base)
        yield power


def test_power_chain_bounds_hold_and_tables_rebuild():
    for power in power_chain(400):
        assert_rebuilds(power)
        rep = renumber(power)
        assert_rebuilds(rep)
        assert carried_bound(rep) == carried_bound(power)
        assert_bound_holds(power)
        assert_bound_holds(rep)


@SETTINGS
@given(picks, picks)
def test_random_products_bounds_hold_and_tables_rebuild(h3_pool, left, right):
    t, u = pool_product(h3_pool, left), pool_product(h3_pool, right)
    p = product_min(t, u)
    raw_min = weak_minimize(product_raw(t, u))
    built = [p, renumber(p), canonical_rep(p), invert(p), raw_min, core(raw_min)]
    for machine in built:
        assert_rebuilds(machine)
    for machine in built[:2]:
        assert_bound_holds(machine)


@SETTINGS
@given(picks, picks)
def test_minimizing_keeps_the_carried_bound(h3_pool, left, right):
    raw = product_raw(pool_product(h3_pool, left), pool_product(h3_pool, right))
    level = sync_level(raw.base)
    tagged = transducers._machine(raw.alphabet_size, raw.base.delta, raw.output, level)
    reduced = weak_minimize(tagged)
    assert reduced == weak_minimize(raw)
    assert carried_bound(reduced) == level
    assert_bound_holds(reduced)


@SETTINGS
@given(picks, picks)
def test_renumbering_a_product_equals_its_canonical_rep(h3_pool, left, right):
    p = product_min(pool_product(h3_pool, left), pool_product(h3_pool, right))
    assert renumber(p) == canonical_rep(p)


def test_quotients_and_cores_rebuild(quotients_23):
    for a in quotients_23:
        assert Automaton(a.alphabet_size, a.delta) == a
    g = de_bruijn(2, 2)
    base, kept = core_of(Automaton(2, g.delta + ((0, 1),)))  # state 4 is not forced
    assert kept == (0, 1, 2, 3)
    assert Automaton(base.alphabet_size, base.delta) == base == g


def test_weak_minimize_returns_a_minimal_machine_itself(h3_pool):
    for t in h3_pool + [h3_infinite(), *power_chain(200)]:
        m = minimal_rep(t)
        assert weak_minimize(m) is m


def test_a_tagged_operand_is_not_analysed_again(monkeypatch):
    base = h3_infinite()
    square = product_min(base, base)
    expected = product_min(square, base)

    def refuse(*_):
        raise AssertionError("the sync analysis ran on a library-built product")

    monkeypatch.setattr(automata, "merge_terms", refuse)
    assert product_min(square, base) == expected


def test_a_tagged_product_with_a_non_synchronizing_machine_is_refused():
    base = h3_infinite()
    tagged = product_min(base, base)
    three_letters = Transducer(Automaton(3, ((0, 0, 0), (1, 1, 1))), ((0, 1, 2), (1, 2, 0)))
    with pytest.raises(ValueError, match="^product_min operands must be strongly synchronizing$"):
        product_min(tagged, three_letters)
    with pytest.raises(ValueError, match="^product_min operands must be strongly synchronizing$"):
        product_min(three_letters, tagged)
    # the synchronization check still comes before the alphabet check
    with pytest.raises(ValueError, match="^product_min operands must be strongly synchronizing$"):
        product_min(tagged, NOT_SYNCHRONIZING)
