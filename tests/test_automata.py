import random
from itertools import product as iproduct

import pytest

from shiftfold import (
    Automaton,
    CapExceededError,
    StatePartition,
    core_of,
    de_bruijn,
    folding_from_sync,
    is_core,
    is_folding,
    quotient,
    sync_level,
    sync_map,
    sync_sequence,
)

from conftest import canonical_form, is_collapse_equivalent, is_isomorphic


def random_automaton(rng, n, m):
    return Automaton(n, tuple(tuple(rng.randrange(m) for _ in range(n)) for _ in range(m)))


def test_de_bruijn_basics():
    g21 = de_bruijn(2, 1)
    assert g21.state_count == 2
    for q in range(2):
        for x in range(2):
            assert g21.delta[q][x] == x

    g32 = de_bruijn(3, 2)
    assert g32.state_count == 9
    # edge 00 -1-> 01 and loop 00 -0-> 00
    assert g32.delta[0][1] == 1
    assert g32.delta[0][0] == 0
    assert sync_level(g32) == 2


def test_de_bruijn_rejects_degenerate():
    with pytest.raises(ValueError):
        de_bruijn(1, 2)
    with pytest.raises(ValueError):
        de_bruijn(2, 0)
    with pytest.raises(CapExceededError):
        de_bruijn(2, 30)


def test_is_folding_fig_partition(fig_partition):
    assert is_folding(de_bruijn(3, 2), fig_partition)


def test_is_folding_trivial_partitions():
    g = de_bruijn(2, 2)
    assert is_folding(g, StatePartition.discrete(4))
    assert is_folding(g, StatePartition.from_class_of([0] * 4))


def test_is_folding_rejects_size_mismatch():
    with pytest.raises(ValueError):
        is_folding(de_bruijn(2, 2), StatePartition.discrete(3))


def test_is_folding_counterexample():
    # {00,01 | 10 | 11}: delta(00,0)=00 and delta(01,0)=10 fall in different classes
    g = de_bruijn(2, 2)
    p = StatePartition.from_class_of([0, 0, 1, 2])
    assert g.delta[0][0] == 0 and g.delta[1][0] == 2
    assert p.class_of[0] != p.class_of[2]
    assert not is_folding(g, p)


def test_quotient_fig(fig_automaton, fig_partition):
    a = quotient(de_bruijn(3, 2), fig_partition)
    assert a == fig_automaton


def test_quotient_discrete_is_identity():
    g = de_bruijn(3, 2)
    assert quotient(g, StatePartition.discrete(9)) == g


def test_quotient_single_class():
    g = de_bruijn(2, 2)
    one = quotient(g, StatePartition.from_class_of([0] * 4))
    assert one.state_count == 1


def test_quotient_rejects_non_folding():
    g = de_bruijn(2, 2)
    with pytest.raises(ValueError):
        quotient(g, StatePartition.from_class_of([0, 0, 1, 2]))


def test_sync_sequence_de_bruijn():
    seq = sync_sequence(de_bruijn(3, 2))
    counts = [term.state_count for term, _ in seq.terms]
    assert counts == [9, 3, 1]
    # the middle term is G(3,1)
    assert is_isomorphic(seq.terms[1][0], de_bruijn(3, 1))


def test_sync_sequence_single_state():
    one = Automaton(2, ((0, 0),))
    seq = sync_sequence(one)
    assert len(seq.terms) == 1
    assert seq.stabilization_index == 0


def test_sync_sequence_fig(fig_automaton):
    seq = sync_sequence(fig_automaton)
    assert [term.state_count for term, _ in seq.terms] == [3, 2, 1]


def test_sync_sequence_partitions_coarsen(fig_automaton):
    for a in [de_bruijn(2, 3), de_bruijn(3, 2), fig_automaton]:
        seq = sync_sequence(a)
        counts = [t.state_count for t, _ in seq.terms]
        assert counts == sorted(counts, reverse=True)
        assert len(set(counts)) == len(counts)
        for (_, earlier), (_, later) in zip(seq.terms, seq.terms[1:]):
            meet = StatePartition.from_class_of(zip(later.class_of, earlier.class_of))
            assert meet == earlier
        assert len(seq.terms) <= a.state_count + 1


def test_sync_level_de_bruijn_family():
    for n, m in [(2, 1), (2, 2), (3, 2), (2, 3)]:
        assert sync_level(de_bruijn(n, m)) == m


def test_sync_level_absent():
    # two disconnected self-loop states never merge
    a = Automaton(2, ((0, 0), (1, 1)))
    assert sync_level(a) is None


def test_sync_level_fig_with_word_oracle(fig_automaton):
    # oracle: every length-2 word forces a unique state, the word "0" does not
    a = fig_automaton
    for w in [(x, y) for x in range(3) for y in range(3)]:
        assert len({a.run(w, q) for q in range(3)}) == 1
    assert len({a.run((0,), q) for q in range(3)}) > 1
    assert sync_level(a) == 2


def test_sync_map_de_bruijn():
    g = de_bruijn(3, 2)
    assert sync_map(g, "21") == 2 * 3 + 1


def test_sync_map_quotient(fig_automaton):
    # the class {02,12,22} is state 2 of the folded automaton
    assert sync_map(fig_automaton, "02") == 2


def test_sync_map_single_state():
    one = Automaton(2, ((0, 0),))
    assert sync_map(one, "0110") == 0


def test_sync_map_rejects_short_words():
    with pytest.raises(ValueError):
        sync_map(de_bruijn(2, 2), "0")
    with pytest.raises(ValueError):
        sync_map(Automaton(2, ((0, 0), (1, 1))), "00")


def test_core_of_de_bruijn_is_identity():
    g = de_bruijn(2, 2)
    reduced, kept = core_of(g)
    assert reduced == g
    assert kept == tuple(range(4))


def test_core_of_with_feeder_state():
    # G(2,1) plus a state feeding into it: core drops the feeder
    a = Automaton(2, ((0, 1), (0, 1), (0, 1)))
    reduced, kept = core_of(a)
    assert kept == (0, 1)
    assert is_isomorphic(reduced, de_bruijn(2, 1))
    assert not is_core(a)


def test_core_of_single_state():
    one = Automaton(2, ((0, 0),))
    reduced, kept = core_of(one)
    assert reduced == one and kept == (0,)


def test_folding_from_sync_fig(fig_automaton, fig_partition):
    assert folding_from_sync(fig_automaton) == fig_partition


def test_folding_from_sync_de_bruijn():
    g = de_bruijn(2, 3)
    assert folding_from_sync(g) == StatePartition.discrete(8)


def test_folding_from_sync_roundtrip_corpus(quotients_32):
    """Every core strongly synchronizing machine is the quotient of the
    de Bruijn graph at its level by the forced-state folding."""
    for a in quotients_32:
        k = sync_level(a)
        if k == 0:
            assert a.state_count == 1
            continue
        assert is_isomorphic(quotient(de_bruijn(3, k), folding_from_sync(a)), a)


def test_folding_from_sync_roundtrip_all_g22(foldings_22):
    g = de_bruijn(2, 2)
    for p in foldings_22:
        a = quotient(g, p)
        # at the original level the partition itself comes back
        assert folding_from_sync(a, level=2) == p
        # at the minimal level the quotient is isomorphic to a
        k = sync_level(a)
        if k >= 1:
            assert is_isomorphic(quotient(de_bruijn(2, k), folding_from_sync(a)), a)
        else:
            assert a.state_count == 1


def test_quotient_sync_level_never_grows(foldings_22, foldings_32):
    for g, foldings in [(de_bruijn(2, 2), foldings_22), (de_bruijn(3, 2), foldings_32)]:
        base_level = sync_level(g)
        for p in foldings:
            a = quotient(g, p)
            assert is_core(a)
            assert sync_level(a) <= base_level


def test_canonical_form_invariant_under_renaming(fig_automaton):
    rng = random.Random(7)
    for a in [fig_automaton, de_bruijn(2, 3), de_bruijn(3, 2)]:
        m = a.state_count
        for _ in range(5):
            perm = list(range(m))
            rng.shuffle(perm)
            renamed = Automaton(
                a.alphabet_size,
                tuple(
                    tuple(perm[a.delta[old][x]] for x in range(a.alphabet_size))
                    for old in sorted(range(m), key=lambda s: perm[s])
                ),
            )
            assert canonical_form(renamed) == canonical_form(a)


def test_is_isomorphic_discriminates(fig_automaton, fig_partition):
    assert is_isomorphic(quotient(de_bruijn(3, 2), fig_partition), fig_automaton)
    assert not is_isomorphic(de_bruijn(2, 2), de_bruijn(2, 1))


def test_collapse_equivalent_reflexive(fig_automaton):
    assert is_collapse_equivalent(fig_automaton, fig_automaton)


def test_collapse_equivalent_g22_to_g21():
    assert is_collapse_equivalent(de_bruijn(2, 2), de_bruijn(2, 1))
    assert not is_collapse_equivalent(de_bruijn(2, 1), de_bruijn(2, 2))


def test_collapse_equivalent_cap():
    with pytest.raises(CapExceededError):
        is_collapse_equivalent(de_bruijn(2, 4), de_bruijn(2, 1), cap=2)


def test_collapsing_procedure_characterization(fig_automaton, quotients_22):
    """States share a sync-sequence class at step i iff all length-i words
    send them to the same state (checked exhaustively on small machines)."""
    rng = random.Random(11)
    corpus = [fig_automaton, de_bruijn(2, 2)] + quotients_22
    corpus += [random_automaton(rng, 2, 4) for _ in range(10)]
    corpus += [random_automaton(rng, 3, 3) for _ in range(10)]
    for a in corpus:
        seq = sync_sequence(a)
        words_by_len = {}
        for i, (_, part) in enumerate(seq.terms):
            if i not in words_by_len:
                words_by_len[i] = list(iproduct(range(a.alphabet_size), repeat=i))
            for p in range(a.state_count):
                for q in range(a.state_count):
                    same = part.class_of[p] == part.class_of[q]
                    agree = all(a.run(w, p) == a.run(w, q) for w in words_by_len[i])
                    assert same == agree


def test_sync_level_against_word_oracle():
    """Independent oracle: the level is the least k for which all length-k
    words land every start state on one target; absence needs no words longer
    than the state count."""

    def oracle(a):
        for k in range(a.state_count + 1):
            if all(
                len({a.run(w, q) for q in range(a.state_count)}) == 1
                for w in iproduct(range(a.alphabet_size), repeat=k)
            ):
                return k
        return None

    rng = random.Random(17)
    corpus = [de_bruijn(2, 2), de_bruijn(3, 1), Automaton(2, ((0, 0), (1, 1)))]
    corpus += [random_automaton(rng, 2, rng.randrange(2, 7)) for _ in range(25)]
    corpus += [random_automaton(rng, 3, rng.randrange(2, 6)) for _ in range(25)]
    for a in corpus:
        assert sync_level(a) == oracle(a)


def test_letters_partition_states(quotients_22, quotients_23):
    """If the next-to-last sync term is the one-letter de Bruijn graph, the
    letter images partition the states."""
    for a in quotients_22 + quotients_23:
        k = sync_level(a)
        if k is None or k == 0:
            continue
        seq = sync_sequence(a)
        if not is_isomorphic(seq.terms[k - 1][0], de_bruijn(a.alphabet_size, 1)):
            continue
        images = [
            {a.delta[p][x] for p in range(a.state_count)} for x in range(a.alphabet_size)
        ]
        seen = [s for img in images for s in img]
        assert len(seen) == a.state_count
        assert set(seen) == set(range(a.state_count))