import random
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftfold import (
    Automaton,
    Transducer,
    canonical_key,
    canonical_rep,
    de_bruijn,
    decompose,
    decompose_involutions,
    equal_omega,
    identity_transducer,
    invert,
    minimal_rep,
    order,
    product_min,
    single_state,
    sync_level,
    verify,
    weak_minimize,
)
from shiftfold.decompose import (
    alignment_permutation,
    find_collapsible_pair,
    find_factor,
)
from shiftfold.formats import parse_transducer
from conftest import (
    H3_INFINITE,
    h3_infinite,
    is_amalgamation,
    is_collapse_equivalent,
    order_1260_element,
    random_h3_elements,
    shift_transducer,
)


def test_find_collapsible_pair_fig(fig_transducer):
    # states 0 and 1 share the transition row (0, 1, 2)
    assert fig_transducer.base.delta[0] == fig_transducer.base.delta[1]
    assert find_collapsible_pair(fig_transducer) == (0, 1)


def test_find_collapsible_pair_two_state():
    t = Transducer(Automaton(2, ((0, 1), (0, 1))), ((0, 1), (1, 0)))
    assert find_collapsible_pair(t) == (0, 1)


def test_find_collapsible_pair_single_state():
    with pytest.raises(ValueError):
        find_collapsible_pair(identity_transducer(2))


def oracle_collapsible_pair(t):
    """Reference: the least pair found by comparing every pair of rows."""
    for p in range(t.state_count):
        for q in range(p + 1, t.state_count):
            if t.base.delta[p] == t.base.delta[q]:
                return (p, q)
    return None


def _with_identity_outputs(n, delta):
    return Transducer(Automaton(n, tuple(delta)), (tuple(range(n)),) * len(delta))


@st.composite
def repeated_row_tables(draw):
    n, m = draw(st.integers(2, 3)), draw(st.integers(2, 30))
    row = st.tuples(*[st.integers(0, m - 1)] * n)
    delta = draw(st.lists(row, min_size=m, max_size=m))
    p, q = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
    delta[q] = delta[p]
    return _with_identity_outputs(n, delta)


@st.composite
def distinct_row_tables(draw):
    n, m = draw(st.integers(2, 3)), draw(st.integers(2, 30))
    row = st.tuples(*[st.integers(0, m - 1)] * n)
    return _with_identity_outputs(n, draw(st.lists(row, min_size=m, max_size=m, unique=True)))


@settings(max_examples=200, deadline=None)
@given(repeated_row_tables())
def test_find_collapsible_pair_is_the_least_pair(t):
    assert find_collapsible_pair(t) == oracle_collapsible_pair(t)


@settings(max_examples=100, deadline=None)
@given(distinct_row_tables())
def test_find_collapsible_pair_needs_a_repeated_row(t):
    assert oracle_collapsible_pair(t) is None
    with pytest.raises(AssertionError, match="^strongly synchronizing machine with >1 state must collapse$"):
        find_collapsible_pair(t)


def test_alignment_permutation_fig(fig_transducer):
    # rows (2,0,1) and (2,1,0): alpha fixes 2 and swaps 0 and 1
    assert alignment_permutation(fig_transducer, 0, 1) == (1, 0, 2)


def test_alignment_fixes_agreeing_letters(h3_pool):
    for t in h3_pool:
        if t.state_count < 2:
            continue
        try:
            p, q = find_collapsible_pair(t)
        except ValueError:
            continue
        alpha = alignment_permutation(t, p, q)
        for x in range(t.alphabet_size):
            if t.output[p][x] == t.output[q][x]:
                assert alpha[t.output[q][x]] == t.output[q][x]


def test_alignment_rejects_equal_rows():
    t = Transducer(Automaton(2, ((0, 1), (0, 1))), ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        alignment_permutation(t, 0, 1)


def test_find_factor_fig(fig_transducer):
    level, term, tau, h = find_factor(fig_transducer, 0, 1)
    assert level == 1
    assert term.state_count == 2
    assert all(v == i for i, v in enumerate(tau.vertex_perm))
    assert h.state_count == 2
    assert order(minimal_rep(h)) == 2


def test_decompose_step_shrinks_and_collapse_equivalence(fig_transducer):
    step = decompose(fig_transducer).steps[0]
    reduced = step.reduced
    assert reduced.state_count == 2
    assert is_collapse_equivalent(fig_transducer.base, reduced.base)
    assert sync_level(reduced.base) <= sync_level(fig_transducer.base)
    # the core of the raw product is exactly the states (p, [p^-1]);
    # in particular one per state of the input machine
    from shiftfold import product_raw, sync_sequence
    from shiftfold.automata import core_states

    level, term, tau, h = find_factor(fig_transducer, *step.pair)
    raw = product_raw(fig_transducer, h)
    kept = core_states(raw.base)
    assert len(kept) == fig_transducer.state_count
    part = sync_sequence(invert(fig_transducer).base).terms[level][1]
    expected = {
        p * h.state_count + part.class_of[p] for p in range(fig_transducer.state_count)
    }
    assert set(kept) == expected


def test_decompose_fig(fig_transducer):
    f = decompose(fig_transducer)
    assert f.remainder.state_count == 1
    assert len(f.inverse_factors) == 2
    assert len(f.steps) <= fig_transducer.state_count - 1
    for factor in f.inverse_factors:
        assert order(factor) == 2
    assert verify(f)


def test_decompose_single_state():
    rho = (1, 2, 0)
    f = decompose(single_state(rho))
    assert f.inverse_factors == ()
    assert equal_omega(f.remainder, single_state(rho))
    assert verify(f)


def test_decompose_rejects_outsiders():
    with pytest.raises(ValueError):
        decompose(shift_transducer(2))


def test_decompose_involutions_single_state():
    f = decompose_involutions(single_state((2, 0, 1)))
    assert f.inverse_factors == ()
    assert verify(f)


def test_decompose_h2_always_single_state(quotients_22, quotients_23):
    """Over X_2 every group element is one-state, so no factors ever arise."""
    from shiftfold import enumerate_automorphisms, transducer_from_automorphism

    rng = random.Random(21)
    pool = []
    for a in quotients_22 + quotients_23:
        for phi in enumerate_automorphisms(a):
            pool.append(minimal_rep(transducer_from_automorphism(a, phi)))
    elements = [product_min(rng.choice(pool), rng.choice(pool)) for _ in range(50)]
    identity = identity_transducer(2)
    flip = single_state((1, 0))
    for t in elements:
        f = decompose(t)
        assert f.inverse_factors == ()
        assert equal_omega(f.remainder, identity) or equal_omega(f.remainder, flip)


def test_decompose_random_h3(h3_pool):
    elements = random_h3_elements(h3_pool, 25, seed=31)
    for t in elements:
        f = decompose(t)
        assert f.remainder.state_count == 1
        assert len(f.steps) <= max(0, f.original.state_count - 1)
        assert verify(f)
        for factor in f.inverse_factors:
            k = order(factor)
            assert k is not None and k <= 2  # three-letter alphabet: involutions


def test_factor_provenance(h3_pool):
    """Each step factor is glued from a term of the inverse-side sequence."""
    from shiftfold import sync_sequence

    elements = random_h3_elements(h3_pool, 10, seed=33)
    for t in elements:
        f = decompose(t)
        current = f.original
        for step in f.steps:
            seq = sync_sequence(invert(current).base)
            term = seq.terms[step.level_i][0]
            assert step.factor.state_count <= term.state_count
            assert equal_omega(
                step.factor,
                weak_minimize(step.factor),
            )
            current = step.reduced


def test_alpha_cycles_short_over_x3(h3_pool):
    """Parallel classes over X_3 have size at most 2, so alignment cycles do."""
    elements = random_h3_elements(h3_pool, 20, seed=35)
    for t in elements:
        f = decompose(t)
        for step in f.steps:
            alpha = step.alpha
            seen = set()
            for start in range(len(alpha)):
                if start in seen or alpha[start] == start:
                    continue
                length = 0
                x = start
                while x not in seen:
                    seen.add(x)
                    x = alpha[x]
                    length += 1
                assert length <= 2


def test_decompose_involutions_matches_over_x3(fig_transducer, h3_pool):
    elements = [fig_transducer] + random_h3_elements(h3_pool, 10, seed=37)
    for t in elements:
        plain = decompose(t)
        invol = decompose_involutions(t)
        assert verify(invol)
        assert len(invol.inverse_factors) == len(plain.inverse_factors)
        for factor in invol.inverse_factors:
            assert order(factor) <= 2
        for a, b in zip(plain.steps, invol.steps):
            assert a.pair == b.pair and a.level_i == b.level_i


def test_decompose_order_three_alignment_over_x4():
    """Full decomposition run where the alignment permutation is a 3-cycle."""
    from shiftfold import DigraphAutomorphism, transducer_from_automorphism

    a = Automaton(4, ((0, 0, 0, 1), (0, 0, 0, 1)))
    tau = DigraphAutomorphism((0, 1), ((1, 2, 0, 3), (0, 1, 2, 3)))
    h = transducer_from_automorphism(a, tau)
    plain = decompose(h)
    assert [order(x) for x in plain.inverse_factors] == [3]
    assert verify(plain)
    invol = decompose_involutions(h)
    assert [order(x) for x in invol.inverse_factors] == [2, 2]
    assert verify(invol)


def test_decompose_infinite_order_element():
    """Decomposition does not need torsion input; only the factors are torsion."""
    from shiftfold import (
        DigraphAutomorphism,
        automorphism_from_alphabet_perm,
        transducer_from_automorphism,
    )

    a = Automaton(4, ((0, 0, 0, 1), (0, 0, 0, 1)))
    tau = DigraphAutomorphism((0, 1), ((1, 2, 0, 3), (0, 1, 2, 3)))
    h = transducer_from_automorphism(a, tau)
    g42 = de_bruijn(4, 2)
    rho = automorphism_from_alphabet_perm(g42, (1, 2, 3, 0))
    element = product_min(h, transducer_from_automorphism(g42, rho))
    assert order(element, cap_states=300, cap_iters=100) is None  # not torsion
    f = decompose_involutions(element)
    assert verify(f)
    for factor in f.inverse_factors:
        assert order(factor) is not None


def test_involution_split_with_three_cycle_over_x4():
    """A synthetic alignment 3-cycle splits into two involution factors."""
    from shiftfold import DigraphAutomorphism, transducer_from_automorphism
    from shiftfold.digraph_aut import check_automorphism, involution_factors

    a = Automaton(4, ((0, 0, 0, 1), (0, 0, 0, 1)))
    tau = DigraphAutomorphism((0, 1), ((1, 2, 0, 3), (0, 1, 2, 3)))
    check_automorphism(a, tau)
    h = transducer_from_automorphism(a, tau)
    assert order(minimal_rep(h)) == 3
    parts = involution_factors(a, tau)
    machines = [transducer_from_automorphism(a, piece) for piece in parts]
    assert len(machines) == 2
    acc = machines[0]
    for nxt in machines[1:]:
        acc = product_min(acc, nxt)
    assert equal_omega(acc, h)
    for m in machines:
        assert order(minimal_rep(m)) <= 2


def test_reconstruction_acts_like_original_on_periodic_points(fig_transducer, h3_pool):
    """Functional oracle, independent of canonical keys: feeding a periodic
    word through remainder then factors reproduces the original's action."""
    from shiftfold import apply_periodic

    rng = random.Random(43)
    for t in [fig_transducer] + random_h3_elements(h3_pool, 10, seed=45):
        f = decompose(t)
        for _ in range(10):
            w = tuple(rng.randrange(3) for _ in range(rng.randrange(1, 6)))
            through = apply_periodic(f.remainder, w)
            for factor in f.inverse_factors:
                through = apply_periodic(factor, through)
            assert through == apply_periodic(f.original, w)


def test_verify_rejects_tampered_factorization(fig_transducer):
    f = decompose(fig_transducer)
    from shiftfold.decompose import Factorization

    tampered = Factorization(
        original=f.original,
        remainder=single_state((1, 2, 0)),
        inverse_factors=f.inverse_factors,
        steps=f.steps,
    )
    assert not verify(tampered)


@pytest.fixture(scope="module")
def two_step_factorizations(h3_pool):
    """An H_3 product decomposed in at least two steps, plain and split."""
    t = next(t for t in random_h3_elements(h3_pool, 10, seed=31) if len(decompose(t).steps) >= 2)
    return decompose(t), decompose_involutions(t)


def _tamper_step(f, index, **changes):
    steps = list(f.steps)
    steps[index] = replace(steps[index], **changes)
    return replace(f, steps=tuple(steps))


def test_untampered_step_certificates_verify(two_step_factorizations):
    plain, split = two_step_factorizations
    assert len(plain.steps) >= 2 and verify(plain) and verify(split)


@pytest.mark.parametrize("split", [False, True])
def test_verify_rejects_a_tampered_level(two_step_factorizations, split):
    f = two_step_factorizations[split]
    assert not verify(_tamper_step(f, 1, level_i=f.steps[1].level_i + 1))


@pytest.mark.parametrize("split", [False, True])
def test_verify_rejects_a_swapped_factor(two_step_factorizations, h3_pool, split):
    f = two_step_factorizations[split]
    factor = f.steps[1].factor
    other = next(x for x in h3_pool if not equal_omega(x, factor) and order(x) is not None)
    assert not verify(_tamper_step(f, 1, factor=other))


def test_verify_rejects_a_dropped_involution(two_step_factorizations):
    split = two_step_factorizations[1]
    involutions = split.steps[1].involutions
    assert not verify(_tamper_step(split, 1, involutions=involutions[1:]))


def test_verify_rejects_a_swapped_involution(two_step_factorizations, h3_pool):
    split = two_step_factorizations[1]
    involutions = split.steps[1].involutions
    other = next(x for x in h3_pool if order(x) == 2 and not equal_omega(x, involutions[0]))
    swapped = (other,) + involutions[1:]
    assert not verify(_tamper_step(split, 1, involutions=swapped))


def test_verify_accepts_a_factor_past_the_order_caps():
    """The step factor of this element has order 1,260, past `order`'s 1,000 iterations; it
    is glued from a checked vertex-fixing automorphism, so it is torsion all the same."""
    t = order_1260_element()
    plain, split = decompose(t), decompose_involutions(t)
    assert order(plain.steps[0].factor) is None
    assert len(plain.inverse_factors) == 1 and len(split.inverse_factors) == 21
    assert verify(plain) and verify(split)


def test_verify_rejects_factors_that_are_not_the_steps():
    """The four factors of h3_8 lumped into one 8-state machine multiply back to the original,
    but that machine is not a step's factor (it has no finite order within the caps)."""
    f = decompose(parse_transducer(H3_INFINITE.with_name("h3_8.txt").read_text()))
    lumped = canonical_rep(product_min(invert(f.remainder), f.original))
    assert len(f.inverse_factors) == 4 and lumped.state_count == 8
    assert equal_omega(product_min(f.remainder, lumped), f.original)
    assert verify(f) and not verify(replace(f, inverse_factors=(lumped,)))


@pytest.mark.parametrize("split", [False, True])
def test_verify_rejects_a_tampered_reduced_machine(two_step_factorizations, split):
    f = two_step_factorizations[split]
    other = next(
        single_state(rho) for rho in ((0, 1, 2), (1, 2, 0)) if single_state(rho) != f.remainder
    )
    assert not verify(_tamper_step(f, len(f.steps) - 1, reduced=other))
    assert not verify(_tamper_step(f, 0, reduced=f.steps[1].reduced))


def test_amalgamation_reflexive(fig_automaton):
    assert is_amalgamation(fig_automaton, fig_automaton)


def test_amalgamation_shrinks_only():
    assert not is_amalgamation(de_bruijn(2, 2), de_bruijn(2, 1))
    assert is_amalgamation(de_bruijn(2, 1), de_bruijn(2, 2))


def test_decomposition_terms_are_amalgamations(fig_transducer):
    """The inverse-side sequence terms are digraph amalgamations of the original."""
    from shiftfold import sync_sequence

    seq = sync_sequence(invert(fig_transducer).base)
    for term, _ in seq.terms:
        assert is_amalgamation(term, fig_transducer.base)


def test_decomposition_factor_graphs_are_amalgamations(h3_pool):
    elements = random_h3_elements(h3_pool, 5, seed=41)
    for t in elements:
        f = decompose(t)
        current = f.original
        for step in f.steps:
            from shiftfold import sync_sequence

            seq = sync_sequence(invert(current).base)
            term = seq.terms[step.level_i][0]
            assert is_amalgamation(term, current.base)
            current = step.reduced


@pytest.mark.slow
def test_decomposition_at_paper_scale():
    """The first power of an infinite-order H_3 element with at least 5,000
    states (5,607) is a product of at most |H| torsion elements: it reduces to
    one state in at most |H| - 1 steps, and every factor is an involution.
    Its canonical key comes from one search, rooted at its only 0-fixed state."""
    base = h3_infinite()
    power = base
    while power.state_count < 5_000:
        power = product_min(power, base)
    start = time.perf_counter()
    canonical_key(power)
    assert time.perf_counter() - start < 1
    f = decompose(power)
    assert verify(f)
    assert f.remainder.state_count == 1
    assert len(f.steps) <= power.state_count - 1
    assert all(order(x) in (1, 2) for x in f.inverse_factors)
