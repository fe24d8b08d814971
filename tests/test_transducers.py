import random
from itertools import product as iproduct

import pytest

from shiftfold import (
    Automaton,
    Transducer,
    apply_periodic,
    bisync_levels,
    canonical_key,
    core,
    equal_omega,
    hn_levels,
    identity_transducer,
    invert,
    is_core,
    is_in_hn,
    is_invertible,
    minimal_rep,
    order,
    product_min,
    product_raw,
    single_state,
    sync_level,
    weak_minimize,
)

from conftest import oracle_minimize_partition, random_h3_elements, shift_transducer


def test_shift_transducer_tables():
    # the two-state machine over X_2: state i outputs i, reading x moves to x
    t = shift_transducer(2)
    assert t.base.delta == ((0, 1), (0, 1))
    assert t.output == ((0, 0), (1, 1))
    assert sync_level(t.base) == 1


def test_constructor_refuses_bad_tables():
    base = Automaton(2, ((0, 1), (0, 1)))
    with pytest.raises(ValueError, match="output table does not match state count"):
        Transducer(base, ((0, 1),))
    with pytest.raises(ValueError, match="state 1: output row has wrong length"):
        Transducer(base, ((0, 1), (1,)))
    with pytest.raises(ValueError, match="state 0: output letter 2 out of range"):
        Transducer(base, ((0, 2), (1, 0)))


def test_shift_not_invertible():
    for n in (2, 3):
        assert not is_invertible(shift_transducer(n))
        assert not is_in_hn(shift_transducer(n))


def test_apply_periodic_shift():
    assert apply_periodic(shift_transducer(3), "012") == (2, 0, 1)
    assert apply_periodic(shift_transducer(2), "01") == (1, 0)
    assert apply_periodic(identity_transducer(2), "0110") == (0, 1, 1, 0)


def test_single_state_basics():
    ident = single_state((0, 1))
    assert equal_omega(ident, identity_transducer(2))
    t = single_state((2, 1, 0))
    assert is_in_hn(t)
    assert order(single_state((1, 2, 0))) == 3
    with pytest.raises(ValueError):
        single_state((0, 0, 1))


def test_product_raw_identity_neutral(fig_transducer):
    n = fig_transducer.alphabet_size
    left = product_raw(identity_transducer(n), fig_transducer)
    assert equal_omega(left, fig_transducer)
    right = product_raw(fig_transducer, identity_transducer(n))
    assert equal_omega(right, fig_transducer)


def test_fig_transducer_is_involution(fig_transducer):
    squared = product_min(fig_transducer, fig_transducer)
    assert equal_omega(squared, identity_transducer(3))
    assert order(fig_transducer) == 2


def test_weak_minimize_fig_is_minimal(fig_transducer):
    assert weak_minimize(fig_transducer) == fig_transducer


def test_weak_minimize_merges_duplicate_states():
    # two copies of the identity state
    t = Transducer(Automaton(2, ((1, 1), (0, 0))), ((0, 1), (0, 1)))
    assert weak_minimize(t).state_count == 1


def test_weak_minimize_preserves_behavior(fig_transducer, h3_pool):
    rng = random.Random(3)
    pool = [fig_transducer, shift_transducer(3)] + h3_pool[:10]
    for t in pool:
        m = weak_minimize(t)
        part = oracle_minimize_partition(t)
        words = list(iproduct(range(t.alphabet_size), repeat=3))
        words += [
            tuple(rng.randrange(t.alphabet_size) for _ in range(2 * t.state_count))
            for _ in range(20)
        ]
        for q in range(t.state_count):
            c = part.class_of[q]
            for w in words:
                assert t.run(w, q)[1] == m.run(w, c)[1]


def test_invert_worked_example(fig_transducer):
    # the worked inversion pair: states q0,q1,q2 with edges
    #   q0: 0|1 -> q1, 1|2 -> q2, 2|0 loop
    #   q1: 0|2 -> q2, 1|1 loop, 2|0 -> q0
    #   q2: 0|2 loop, 1|0 -> q1, 2|1 -> q0
    t = Transducer(
        Automaton(3, ((1, 2, 0), (2, 1, 0), (2, 1, 0))),
        ((1, 2, 0), (2, 1, 0), (2, 0, 1)),
    )
    inv = invert(t)
    # switching inputs and outputs lands exactly on the running example machine
    assert inv == fig_transducer
    assert invert(inv) == t
    for q in range(3):
        for x in range(3):
            y = t.output[q][x]
            assert inv.output[q][y] == x
            assert inv.base.delta[q][y] == t.base.delta[q][x]


def test_invert_single_state():
    rho = (1, 2, 0)
    inv = invert(single_state(rho))
    assert equal_omega(inv, single_state((2, 0, 1)))


def test_invert_requires_permutation_rows():
    with pytest.raises(ValueError):
        invert(shift_transducer(2))


def test_double_inversion_is_isomorphic(h3_pool):
    for t in h3_pool[:20] + random_h3_elements(h3_pool, 25, seed=51, max_factors=4):
        assert invert(invert(t)) == t
        assert canonical_key(invert(invert(t))) == canonical_key(t)


def test_bisync_levels_fig(fig_transducer):
    assert bisync_levels(fig_transducer) == (2, 2)
    assert is_in_hn(fig_transducer)
    assert hn_levels(fig_transducer) == (2, 2)


def test_hn_levels_are_none_outside_h_n():
    """A transient state with its own output row: bisynchronizing, but not core."""
    t = Transducer(Automaton(2, ((1, 1), (1, 1))), ((1, 0), (0, 1)))
    assert bisync_levels(t) == (1, 1)
    assert not is_in_hn(t) and hn_levels(t) is None
    assert hn_levels(shift_transducer(2)) is None
    assert hn_levels(single_state((1, 0))) == (0, 0)


def test_bisync_levels_one_state():
    assert bisync_levels(single_state((1, 0))) == (0, 0)
    assert bisync_levels(shift_transducer(2)) is None


def test_bisync_levels_of_a_machine_whose_inverse_does_not_synchronize():
    t = Transducer(Automaton(2, ((0, 1), (0, 1))), ((0, 1), (1, 0)))
    assert is_invertible(t) and sync_level(t.base) == 1
    assert sync_level(invert(t).base) is None
    assert bisync_levels(t) is None
    assert not is_in_hn(t) and hn_levels(t) is None


def test_equal_omega_respects_renaming(fig_transducer):
    t = fig_transducer
    # rename states by the cycle 0->1->2->0
    perm = (1, 2, 0)
    renamed = Transducer(
        Automaton(
            3,
            tuple(
                tuple(perm[t.base.delta[old][x]] for x in range(3))
                for old in (2, 0, 1)
            ),
        ),
        tuple(t.output[old] for old in (2, 0, 1)),
    )
    assert equal_omega(renamed, t)


def test_equal_omega_distinguishes_single_states():
    assert not equal_omega(single_state((0, 1)), single_state((1, 0)))
    assert not equal_omega(single_state((0, 1)), single_state((0, 1, 2)))


def test_product_min_group_laws(h3_pool):
    ident = identity_transducer(3)
    for t in h3_pool[:15] + random_h3_elements(h3_pool, 25, seed=52, max_factors=4):
        assert equal_omega(product_min(t, invert(t)), ident)
        assert equal_omega(product_min(invert(t), t), ident)
        assert equal_omega(product_min(t, ident), t)
        assert equal_omega(product_min(ident, t), t)


def test_product_min_associative(h3_pool):
    rng = random.Random(5)
    products = random_h3_elements(h3_pool, 25, seed=53, max_factors=4)
    for elements in (h3_pool, products):
        for _ in range(15):
            a, b, c = (rng.choice(elements) for _ in range(3))
            left = product_min(product_min(a, b), c)
            right = product_min(a, product_min(b, c))
            assert equal_omega(left, right)


def test_sync_levels_add(h3_pool):
    for t in h3_pool[:10]:
        for u in h3_pool[:10]:
            raw = product_raw(t, u)
            assert sync_level(raw.base) <= sync_level(t.base) + sync_level(u.base)


def test_hn_elements_have_core_synchronizing_inverse(h3_pool):
    for t in h3_pool[:20]:
        assert is_core(t.base) and sync_level(t.base) is not None
        inv = invert(t)
        assert is_core(inv.base) and sync_level(inv.base) is not None


def test_apply_periodic_commutes_with_rotation(fig_transducer, h3_pool):
    rng = random.Random(9)
    pool = h3_pool[:10] + [fig_transducer, shift_transducer(3)]
    for _ in range(60):
        t = rng.choice(pool)
        length = rng.randrange(1, 7)
        w = tuple(rng.randrange(3) for _ in range(length))
        rotated = w[-1:] + w[:-1]
        out = apply_periodic(t, w)
        assert apply_periodic(t, rotated) == out[-1:] + out[:-1]


def test_apply_periodic_against_forced_state_oracle(fig_transducer, h3_pool):
    """Independent oracle: each output letter comes from the state forced by
    the k letters behind that position in the unrolled periodic word."""
    from shiftfold import sync_map

    rng = random.Random(13)
    pool = h3_pool[:8] + [fig_transducer, shift_transducer(3)]
    for _ in range(60):
        t = rng.choice(pool)
        k = sync_level(t.base)
        length = rng.randrange(1, 6)
        w = tuple(rng.randrange(3) for _ in range(length))
        expected = []
        for i in range(length):
            history = tuple(w[(i - k + j) % length] for j in range(k))
            q = sync_map(t.base, history)
            expected.append(t.output[q][w[i]])
        assert apply_periodic(t, w) == tuple(expected)


def test_product_min_associative_with_noninvertibles(h3_pool):
    """The monoid product is associative beyond the group: mix in machines
    with constant and non-invertible output rows."""
    from shiftfold import LocalRule, rule_to_transducer

    rng = random.Random(15)
    pool = h3_pool[:6] + [minimal_rep(shift_transducer(3))]
    for _ in range(20):
        window = rng.randrange(1, 3)
        table = tuple(rng.randrange(3) for _ in range(3**window))
        pool.append(minimal_rep(rule_to_transducer(LocalRule(3, window, table))))
    for _ in range(25):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert equal_omega(
            product_min(product_min(a, b), c), product_min(a, product_min(b, c))
        )


def test_apply_periodic_rejects_bad_input():
    with pytest.raises(ValueError):
        apply_periodic(identity_transducer(2), "")
    feeder = Transducer(Automaton(2, ((0, 1), (0, 1), (0, 1))), ((0, 1),) * 3)
    with pytest.raises(ValueError):
        apply_periodic(feeder, "01")


def test_order_identity_and_caps(fig_transducer):
    assert order(identity_transducer(2)) == 1
    assert order(fig_transducer, cap_iters=1) is None
    with pytest.raises(ValueError):
        order(shift_transducer(2))


def test_order_divides_automorphism_order(quotients_22, quotients_32):
    """Glued machines have the same order as their automorphisms (the
    embedding is injective), checked exhaustively on the folding corpus."""
    from shiftfold import enumerate_automorphisms, transducer_from_automorphism
    from shiftfold.digraph_aut import compose_automorphisms

    for a in quotients_22 + quotients_32:
        for phi in enumerate_automorphisms(a):
            power = phi
            aut_order = 1
            while not power.is_identity():
                power = compose_automorphisms(power, phi)
                aut_order += 1
            machine = minimal_rep(transducer_from_automorphism(a, phi))
            k = order(machine)
            assert k is not None and aut_order % k == 0
            assert k == aut_order  # the embedding is faithful


def test_core_extracts_synchronized_part():
    feeder = Transducer(Automaton(2, ((0, 1), (0, 1), (0, 1))), ((0, 1), (1, 0), (0, 1)))
    reduced = core(feeder)
    assert reduced.state_count == 2
    assert is_core(reduced.base)