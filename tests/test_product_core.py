"""The core-only product and the minimizer against their originals.

`product_min` builds only the core of the state product, from a forced pair
of states.  It must return the very object `minimal_rep(product_raw(t, u))`
returns, with the same states, numbering and outputs, and raise the same
operand errors in the same order.  `weak_minimize` reads the merged machine
off its last refinement round; it must return the very object built the
long way, from the classes of `oracle_minimize_partition` (the refinement
with two normalized partitions per round), `quotient` and the outputs of the
first state of each class, and it must be idempotent.  The guards fail if
`product_min` or `order` falls back to the raw product or to core
extraction, or if minimizing builds a `StatePartition`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftfold import (
    Automaton,
    LocalRule,
    StatePartition,
    Transducer,
    identity_transducer,
    minimal_rep,
    order,
    product_min,
    product_raw,
    rule_to_transducer,
    weak_minimize,
)
from shiftfold import transducers

from conftest import h3_infinite, oracle_weak_minimize, pool_product

SETTINGS = settings(max_examples=40, deadline=None)

NOT_SYNCHRONIZING = Transducer(Automaton(2, ((0, 0), (1, 1))), ((0, 1), (1, 0)))


def assert_minimizes_as_oracle(t):
    reduced = weak_minimize(t)
    assert reduced == oracle_weak_minimize(t)
    assert weak_minimize(reduced) == reduced


def assert_product_matches_raw(t, u):
    assert product_min(t, u) == minimal_rep(product_raw(t, u))


picks = st.lists(st.integers(min_value=0), min_size=1, max_size=3)


@SETTINGS
@given(picks, picks)
def test_glued_pool_products_match_the_raw_product(h3_pool, left, right):
    t, u = pool_product(h3_pool, left), pool_product(h3_pool, right)
    assert_product_matches_raw(t, u)
    assert_product_matches_raw(u, t)


@st.composite
def rules(draw, n):
    window = draw(st.integers(1, 3))
    table = draw(st.lists(st.integers(0, n - 1), min_size=n**window, max_size=n**window))
    return LocalRule(n, window, tuple(table))


@SETTINGS
@given(st.data(), st.sampled_from((2, 3)))
def test_rule_products_match_the_raw_product(data, n):
    t = rule_to_transducer(data.draw(rules(n)))
    u = rule_to_transducer(data.draw(rules(n)))
    assert_product_matches_raw(t, u)


def test_power_chain_matches_the_raw_product():
    base = h3_infinite()
    power = base
    while power.state_count <= 1_000:
        assert_product_matches_raw(power, base)
        power = product_min(power, base)
    assert power.state_count > 1_000


def test_operand_errors_are_unchanged():
    ident3 = identity_transducer(3)
    with pytest.raises(ValueError, match="^product_min operands must be strongly synchronizing$"):
        product_min(NOT_SYNCHRONIZING, identity_transducer(2))
    # the synchronization check comes before the alphabet check
    with pytest.raises(ValueError, match="^product_min operands must be strongly synchronizing$"):
        product_min(ident3, NOT_SYNCHRONIZING)
    with pytest.raises(ValueError, match="^alphabet sizes differ$"):
        product_min(identity_transducer(2), ident3)


@st.composite
def transducer_tables(draw):
    n = draw(st.sampled_from((2, 3)))
    m = draw(st.integers(1, 30))
    state, letter = st.integers(0, m - 1), st.integers(0, n - 1)
    delta = tuple(tuple(draw(st.lists(state, min_size=n, max_size=n))) for _ in range(m))
    output = tuple(tuple(draw(st.lists(letter, min_size=n, max_size=n))) for _ in range(m))
    return Transducer(Automaton(n, delta), output)


@settings(max_examples=100, deadline=None)
@given(transducer_tables())
def test_refinement_matches_two_partitions_per_round(t):
    assert_minimizes_as_oracle(t)


@SETTINGS
@given(picks, picks)
def test_refinement_of_raw_products_matches(h3_pool, left, right):
    raw = product_raw(pool_product(h3_pool, left), pool_product(h3_pool, right))
    assert_minimizes_as_oracle(raw)


def test_product_and_order_never_build_the_raw_product(monkeypatch):
    t = h3_infinite()
    expected = minimal_rep(product_raw(t, t))

    def refuse(*_):
        raise AssertionError("the raw product path ran")

    monkeypatch.setattr(transducers, "product_raw", refuse)
    monkeypatch.setattr(transducers, "core", refuse)
    assert product_min(t, t) == expected
    assert order(t, cap_states=1_000) is None


def test_minimizing_builds_no_partition(monkeypatch):
    t = h3_infinite()
    raw = product_raw(t, t)
    expected = weak_minimize(raw), product_min(t, t)

    def refuse(*_):
        raise AssertionError("a StatePartition was built")

    monkeypatch.setattr(StatePartition, "__post_init__", refuse)
    assert (weak_minimize(raw), product_min(t, t)) == expected
    assert order(t, cap_states=1_000) is None
