import sys

import pytest

from shiftfold import (
    Automaton,
    CapExceededError,
    automorphism_from_alphabet_perm,
    compose_automorphisms,
    de_bruijn,
    enumerate_automorphisms,
    equal_omega,
    identity_transducer,
    involution_factors,
    is_permutation_induced,
    product_min,
    quotient,
    single_state,
    sync_level,
    transducer_from_automorphism,
    verify_embedding,
    weak_minimize,
)
from shiftfold import digraph_aut
from shiftfold.digraph_aut import AUT_STATE_CAP, _vertex_perms, check_automorphism
from shiftfold.counting import congruence_closure

from conftest import identity_automorphism, invert_automorphism, is_isomorphic


def test_de_bruijn_automorphism_counts():
    assert len(enumerate_automorphisms(de_bruijn(3, 2))) == 6
    assert len(enumerate_automorphisms(de_bruijn(2, 3))) == 2
    assert len(enumerate_automorphisms(de_bruijn(2, 2))) == 2


def test_fig_automaton_automorphisms(fig_automaton):
    autos = enumerate_automorphisms(fig_automaton)
    assert len(autos) == 6
    vertex_perms = {phi.vertex_perm for phi in autos}
    assert len(vertex_perms) == 6  # all of Sym(3) on the vertices


def test_enumeration_cap():
    with pytest.raises(CapExceededError):
        enumerate_automorphisms(de_bruijn(3, 2), cap=3)


def test_the_vertex_search_fits_the_recursion_limit_up_to_the_state_bound():
    """The vertex search recurses once per state.  At `AUT_STATE_CAP` states (G(2,9)) it
    reaches its first vertex map, the identity, within the default recursion limit; one
    state more is refused before the search starts."""
    assert sys.getrecursionlimit() == 1000
    g = de_bruijn(2, 9)
    assert g.state_count == AUT_STATE_CAP
    assert next(_vertex_perms(g)) == tuple(range(AUT_STATE_CAP))
    loops = Automaton(2, ((0, 0),) * (AUT_STATE_CAP + 1))
    with pytest.raises(CapExceededError, match="limited to 512 states; the automaton has 513"):
        enumerate_automorphisms(loops)


def test_the_vertex_search_stops_at_its_placement_budget(monkeypatch):
    """G(2,5) takes 20,012 candidate placements, within `AUT_PLACEMENT_CAP`; with a budget of
    20,000 the search stops with CapExceededError after finding the identity vertex map."""
    g = de_bruijn(2, 5)
    assert len(enumerate_automorphisms(g)) == 2
    monkeypatch.setattr(digraph_aut, "AUT_PLACEMENT_CAP", 20_000)
    with pytest.raises(
        CapExceededError,
        match=r"after 20000 vertex placements \(vertex maps found: 1; most states placed: 32 of 32\)",
    ):
        enumerate_automorphisms(g)
    monkeypatch.setattr(digraph_aut, "AUT_PLACEMENT_CAP", 20_012)
    assert len(enumerate_automorphisms(g)) == 2


def test_enumerated_automorphisms_are_valid(fig_automaton):
    for a in [fig_automaton, de_bruijn(2, 2), quotient(de_bruijn(2, 2), _single_pair(de_bruijn(2, 2)))]:
        for phi in enumerate_automorphisms(a):
            check_automorphism(a, phi)


def _single_pair(a):
    return congruence_closure(a, [(0, a.state_count - 1)])


def test_enumeration_closed_under_group_ops(fig_automaton):
    for a in [fig_automaton, de_bruijn(2, 2)]:
        autos = enumerate_automorphisms(a)
        table = {phi for phi in autos}
        for phi in autos:
            assert invert_automorphism(phi) in table
            for psi in autos:
                assert compose_automorphisms(phi, psi) in table


def test_deterministic_order(fig_automaton):
    first = enumerate_automorphisms(fig_automaton)
    second = enumerate_automorphisms(fig_automaton)
    assert first == second
    keys = [(phi.vertex_perm, phi.edge_letters) for phi in first]
    assert keys == sorted(keys)


def test_alphabet_perm_on_de_bruijn():
    g = de_bruijn(3, 2)
    for rho in [(0, 1, 2), (1, 0, 2), (2, 0, 1)]:
        phi = automorphism_from_alphabet_perm(g, rho)
        assert phi is not None
        check_automorphism(g, phi)
    assert automorphism_from_alphabet_perm(g, (0, 1, 2)).is_identity()


@pytest.mark.parametrize("m", range(1, 11))
def test_swap_on_binary_de_bruijn_complements_every_word(m):
    """On G(2, m) the letter swap sends the state of word w to the state of its
    complement w XOR (2^m - 1), and relabels every edge by the swap."""
    phi = automorphism_from_alphabet_perm(de_bruijn(2, m), (1, 0))
    assert phi.vertex_perm == tuple(w ^ (2**m - 1) for w in range(2**m))
    assert phi.edge_letters == ((1, 0),) * 2**m


def test_alphabet_perm_matches_word_by_word_reference(quotients_22, quotients_23, quotients_32):
    """Against the word-by-word definition: rho acts when every level-k word and
    its rho-image force states that pair up into a map, which is the vertex map."""
    from itertools import permutations

    from shiftfold.automata import all_words, sync_map

    for a in quotients_22 + quotients_23 + quotients_32:
        n, k = a.alphabet_size, sync_level(a)
        for rho in permutations(range(n)):
            pairs = {
                (sync_map(a, w), sync_map(a, [rho[c] for c in w])) for w in all_words(n, k)
            }
            vertex = dict(pairs)
            expected = tuple(vertex[q] for q in range(a.state_count))
            phi = automorphism_from_alphabet_perm(a, rho)
            if len(vertex) < len(pairs):
                assert phi is None
            else:
                assert phi.vertex_perm == expected


def test_alphabet_perm_absent_on_fig(fig_automaton):
    # the vertex swap q0<->q2 is not induced by any alphabet permutation:
    # rho = (0<->2) maps class {00,21,10} onto {22,01,12}, not a class
    phi = automorphism_from_alphabet_perm(fig_automaton, (2, 1, 0))
    assert phi is None or phi.vertex_perm != (2, 1, 0)


def test_transducer_from_automorphism_identity(fig_automaton):
    h = transducer_from_automorphism(fig_automaton, identity_automorphism(fig_automaton))
    assert equal_omega(h, identity_transducer(3))


def test_fig_transducer_tables(fig_automaton, fig_transducer):
    autos = enumerate_automorphisms(fig_automaton)
    swap02 = next(phi for phi in autos if phi.vertex_perm == (2, 1, 0))
    assert transducer_from_automorphism(fig_automaton, swap02) == fig_transducer
    assert weak_minimize(fig_transducer).state_count == 3  # the machine is minimal


def test_h_of_alphabet_perm_minimizes_to_single_state():
    g = de_bruijn(3, 2)
    rho = (1, 2, 0)
    phi = automorphism_from_alphabet_perm(g, rho)
    h = transducer_from_automorphism(g, phi)
    assert equal_omega(h, single_state(rho))
    assert is_permutation_induced(g, phi) == rho


def test_is_permutation_induced_fig(fig_automaton):
    autos = enumerate_automorphisms(fig_automaton)
    swap02 = next(phi for phi in autos if phi.vertex_perm == (2, 1, 0))
    swap01 = next(phi for phi in autos if phi.vertex_perm == (1, 0, 2))
    assert is_permutation_induced(fig_automaton, swap02) is None
    assert is_permutation_induced(fig_automaton, swap01) == (1, 0, 2)
    assert is_permutation_induced(
        fig_automaton, identity_automorphism(fig_automaton)
    ) == (0, 1, 2)


def test_verify_embedding_fig_exhaustive(fig_automaton):
    autos = enumerate_automorphisms(fig_automaton)
    assert all(verify_embedding(fig_automaton, a, b) for a in autos for b in autos)


def test_verify_embedding_identity(fig_automaton):
    ident = identity_automorphism(fig_automaton)
    assert verify_embedding(fig_automaton, ident, ident)


def test_verify_embedding_g22_exhaustive():
    g = de_bruijn(2, 2)
    autos = enumerate_automorphisms(g)
    assert all(verify_embedding(g, a, b) for a in autos for b in autos)


def test_involution_factors_identity(fig_automaton):
    assert involution_factors(fig_automaton, identity_automorphism(fig_automaton)) == []


def test_involution_factors_single_transposition():
    from shiftfold import DigraphAutomorphism

    # one-state automaton over X_3 with three parallel loops
    a = Automaton(3, ((0, 0, 0),))
    tau = DigraphAutomorphism((0,), ((1, 0, 2),))
    factors = involution_factors(a, tau)
    assert factors == [tau]


def test_involution_factors_three_cycle_over_x4():
    # a 3-cycle on a triple-parallel class: two transpositions compose to it
    a = Automaton(4, ((0, 0, 0, 1), (0, 0, 0, 1)))
    from shiftfold import DigraphAutomorphism

    tau = DigraphAutomorphism((0, 1), ((1, 2, 0, 3), (0, 1, 2, 3)))
    check_automorphism(a, tau)
    factors = involution_factors(a, tau)
    assert len(factors) == 2
    composed = factors[0]
    for nxt in factors[1:]:
        composed = compose_automorphisms(composed, nxt)
    assert composed == tau
    for f in factors:
        assert compose_automorphisms(f, f).is_identity()
    # and the glued machines multiply back to the glued 3-cycle machine
    assert sync_level(a) == 1
    h_tau = transducer_from_automorphism(a, tau)
    h_parts = [transducer_from_automorphism(a, f) for f in factors]
    assert equal_omega(h_tau, product_min(h_parts[0], h_parts[1]))


def test_involution_factors_rejects_vertex_movers(fig_automaton):
    autos = enumerate_automorphisms(fig_automaton)
    swap01 = next(phi for phi in autos if phi.vertex_perm == (1, 0, 2))
    with pytest.raises(ValueError):
        involution_factors(fig_automaton, swap01)


def test_multi_edge_bound(quotients_22, quotients_23, quotients_32):
    """Core strongly synchronizing automata with more than one state have at
    most n-1 parallel edges between any ordered state pair."""
    from shiftfold.digraph_aut import edge_count_matrix

    for a in quotients_22 + quotients_23 + quotients_32:
        if a.state_count == 1:
            continue
        counts = edge_count_matrix(a)
        for row in counts:
            assert all(c <= a.alphabet_size - 1 for c in row)


def test_one_letter_term_forces_permutation_induced(quotients_22, quotients_23, quotients_32):
    """Foldings whose sync sequence passes through the one-letter de Bruijn
    graph only admit permutation-induced automorphisms."""
    from shiftfold import sync_sequence

    for a in quotients_22 + quotients_23 + quotients_32:
        seq = sync_sequence(a)
        if not any(
            is_isomorphic(term, de_bruijn(a.alphabet_size, 1)) for term, _ in seq.terms
        ):
            continue
        for phi in enumerate_automorphisms(a):
            assert is_permutation_induced(a, phi) is not None


def test_two_letter_groups_are_small(quotients_22, quotients_23):
    """Over X_2 every glued machine is one-state and groups have order <= 2."""
    for a in quotients_22 + quotients_23:
        autos = enumerate_automorphisms(a)
        assert len(autos) <= 2
        for phi in autos:
            assert weak_minimize(transducer_from_automorphism(a, phi)).state_count == 1