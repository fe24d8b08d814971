import random
import time
from math import factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shiftfold import (
    CapExceededError,
    StatePartition,
    bell,
    congruence_closure,
    count_foldings_g_n_2,
    de_bruijn,
    enumerate_foldings,
    is_folding,
    join_foldings,
    moebius_R,
    quotient,
    sync_level,
)
from shiftfold.automata import Automaton, folding_from_sync, row_merge_partition
from shiftfold import automata, counting


def test_bell_small_values():
    assert [bell(k) for k in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877, ][:8]


def test_bell_matches_enumeration():
    for k in range(1, 11):
        assert sum(1 for _ in counting._growth_strings(k)) == bell(k)


def test_set_partitions_counts():
    assert sum(1 for _ in counting._growth_strings(3)) == 5
    assert sum(1 for _ in counting._growth_strings(1)) == 1
    assert sum(1 for _ in counting._growth_strings(4)) == 15


def test_set_partitions_are_restricted_growth():
    previous = None
    for rgs in counting._growth_strings(4):
        assert rgs[0] == 0
        top = 0
        for c in rgs[1:]:
            assert c <= top + 1
            top = max(top, c)
        if previous is not None:
            assert rgs > previous
        previous = rgs


def test_set_partitions_rejects_a_negative_size():
    with pytest.raises(ValueError, match="non-negative"):
        list(counting._growth_strings(-1))
    assert list(counting._growth_strings(0)) == [()]


def _moebius_oracle(s, t):
    """Direct sum over explicitly enumerated partitions of {1..t}."""
    total = 0
    for rgs in counting._growth_strings(t):
        blocks = StatePartition.from_class_of(rgs).blocks()
        term = (-1) ** (len(blocks) - 1) * factorial(len(blocks) - 1)
        for block in blocks:
            term *= bell(len(block) * s)
        total += term
    return total


def test_moebius_examples():
    assert moebius_R(2, 1) == 2  # single partition of {1}; B(2) = 2
    assert moebius_R(1, 2) == 1  # B(2) - B(1)^2
    assert moebius_R(1, 1) == 1


def test_moebius_matches_direct_enumeration():
    for s in range(1, 5):
        for t in range(1, 6):
            assert moebius_R(s, t) == _moebius_oracle(s, t)


def _count_oracle(n):
    """Direct sum over explicitly enumerated alphabet partitions."""
    total = 0
    for rgs in counting._growth_strings(n):
        blocks = StatePartition.from_class_of(rgs).blocks()
        term = 1
        for block in blocks:
            term *= moebius_R(len(blocks), len(block))
        total += term
    return total


def test_count_formula_matches_direct_enumeration():
    for n in range(1, 7):
        assert count_foldings_g_n_2(n) == _count_oracle(n)


def test_count_known_values():
    expected = [1, 5, 192, 78721, 519338423, 82833228599906, 429768478195109381814]
    assert [count_foldings_g_n_2(n) for n in range(1, 8)] == expected


def test_count_formula_cap():
    with pytest.raises(CapExceededError):
        count_foldings_g_n_2(13)
    with pytest.raises(ValueError, match="alphabet size must be at least 1"):
        count_foldings_g_n_2(0)


def test_congruence_closure_empty():
    g = de_bruijn(2, 2)
    assert congruence_closure(g, []) == StatePartition.discrete(4)


def test_congruence_closure_propagates():
    # merging 00 and 10 in G(2,2) is already stable: both rows are (00, 01)
    g = de_bruijn(2, 2)
    p = congruence_closure(g, [(0, 2)])
    assert p.class_of == (0, 1, 0, 2)
    assert is_folding(g, p)


def test_congruence_closure_refuses_a_state_outside_the_automaton():
    g = de_bruijn(2, 2)
    for pair in [(-1, 0), (0, 9), (4, 0)]:
        with pytest.raises(ValueError, match="outside 0..3"):
            congruence_closure(g, [(0, 1), pair])


def test_join_foldings_refuses_a_partition_of_another_size():
    g = de_bruijn(2, 2)
    four = StatePartition.discrete(4)
    for p1, p2 in [(StatePartition.discrete(3), four), (StatePartition.discrete(5), four),
                   (four, StatePartition.discrete(3))]:
        with pytest.raises(ValueError, match="does not match automaton state count"):
            join_foldings(g, p1, p2)


def test_congruence_closure_all_pairs():
    g = de_bruijn(2, 3)
    pairs = [(p, q) for p in range(8) for q in range(8)]
    assert congruence_closure(g, pairs) == StatePartition.from_class_of([0] * 8)


def test_join_of_foldings(foldings_22):
    g = de_bruijn(2, 2)
    for p1 in foldings_22:
        for p2 in foldings_22:
            joined = join_foldings(g, p1, p2)
            assert is_folding(g, joined)
            for p in (p1, p2):
                assert StatePartition.from_class_of(zip(joined.class_of, p.class_of)) == p


def test_enumeration_counts():
    assert len(enumerate_foldings(de_bruijn(2, 2))) == 5
    assert len(enumerate_foldings(de_bruijn(2, 3))) == 30
    assert len(enumerate_foldings(de_bruijn(3, 2))) == 192


def test_enumeration_methods_agree():
    for n, m in [(2, 2), (2, 3), (3, 2)]:
        g = de_bruijn(n, m)
        exhaustive = enumerate_foldings(g, method="exhaustive")
        lattice = enumerate_foldings(g, method="lattice")
        assert exhaustive == lattice


def test_enumerated_foldings_are_foldings(foldings_23):
    g = de_bruijn(2, 3)
    for p in foldings_23:
        assert is_folding(g, p)
        assert sync_level(quotient(g, p)) <= 3


def test_g_n_1_foldings_are_bell():
    for n in range(2, 7):
        assert len(enumerate_foldings(de_bruijn(n, 1), method="exhaustive")) == bell(n)
    for n in range(2, 9):
        assert len(enumerate_foldings(de_bruijn(n, 1))) == bell(n)


def test_formula_agrees_with_enumeration():
    for n in (2, 3):
        assert count_foldings_g_n_2(n) == len(enumerate_foldings(de_bruijn(n, 2)))


@pytest.mark.slow
def test_formula_agrees_with_enumeration_over_four_letters():
    assert count_foldings_g_n_2(4) == len(enumerate_foldings(de_bruijn(4, 2))) == 78_721


def reversed_states(a: Automaton) -> Automaton:
    """A with state s renamed N-1-s: for G(n, m) this swaps letters x and n-1-x, so each
    row comes out reversed and the table is no longer `de_bruijn`'s."""
    last = a.state_count - 1
    return Automaton(
        a.alphabet_size, tuple(tuple(last - t for t in a.delta[last - s]) for s in range(last + 1))
    )


def renamed_back(parts):
    back = [StatePartition.from_class_of(p.class_of[::-1]) for p in parts]
    return sorted(back, key=lambda p: p.class_of)


LEVELLED = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1)]


@pytest.mark.parametrize("n, m", LEVELLED)
def test_level_by_level_listing_equals_the_join_lattice(n, m, monkeypatch):
    g = de_bruijn(n, m)
    renamed = reversed_states(g)
    assert renamed.delta != g.delta
    lattice = renamed_back(enumerate_foldings(renamed))
    # G(n, m) never reaches the lattice: every closure and join runs through _close
    monkeypatch.setattr(counting, "congruence_closure", None)
    monkeypatch.setattr(counting, "join_foldings", None)
    monkeypatch.setattr(counting, "_close", None)
    assert enumerate_foldings(g) == lattice


@pytest.mark.parametrize("n, m", LEVELLED + [(5, 1)])
def test_level_by_level_listing_is_sorted_distinct_foldings(n, m):
    g = de_bruijn(n, m)
    tables = [p.class_of for p in enumerate_foldings(g)]
    assert tables == sorted(set(tables))
    assert all(is_folding(g, StatePartition.from_class_of(t)) for t in tables)


@pytest.mark.parametrize(
    "n, m", [(2, 2), (2, 3), (2, 4), (3, 2), pytest.param(4, 2, marks=pytest.mark.slow)]
)
def test_row_merge_projects_the_foldings_onto_the_level_below(n, m):
    """The paper's synchronizing sequence: merging equal rows of G(n, m)/P gives a
    quotient of G(n, m-1), and every folding of G(n, m-1) is the image of some P."""
    g = de_bruijn(n, m)
    below = {p.class_of for p in enumerate_foldings(de_bruijn(n, m - 1))}
    hit = set()
    for p in enumerate_foldings(g):
        q = quotient(g, p)
        merged = quotient(q, row_merge_partition(q))
        hit.add(folding_from_sync(merged, m - 1).class_of)
    assert hit == below


def test_rejected_choices_count_against_the_cap(monkeypatch):
    """Rejected choices bound the work of a level too, even where few foldings are kept."""
    monkeypatch.setattr(counting, "_in_splits", lambda delta: iter([None] * 3))
    monkeypatch.setattr(counting, "LATTICE_CAP", 3)
    assert counting._de_bruijn_foldings(2, 1) == []
    monkeypatch.setattr(counting, "LATTICE_CAP", 2)
    with pytest.raises(CapExceededError, match="folding lattice cap exceeded"):
        counting._de_bruijn_foldings(2, 1)


def test_exhaustive_cap():
    thirteen = Automaton(2, tuple(((q + 1) % 13, 0) for q in range(13)))
    for a in (de_bruijn(2, 4), thirteen):
        with pytest.raises(CapExceededError, match="^exhaustive folding enumeration capped at 12 states$"):
            enumerate_foldings(a, method="exhaustive")


def filtered_foldings(a: Automaton) -> list[StatePartition]:
    """The reference for the exhaustive search: every set partition of the states,
    in lex order, kept when `is_folding` accepts it."""
    strings = counting._growth_strings(a.state_count)
    parts = (StatePartition(rgs, max(rgs) + 1) for rgs in strings)
    return [p for p in parts if is_folding(a, p)]


def renamed_states(a: Automaton, perm) -> Automaton:
    """A with state q renamed perm[q]."""
    old_of = [0] * len(perm)
    for q, new in enumerate(perm):
        old_of[new] = q
    return Automaton(a.alphabet_size, tuple(tuple(perm[t] for t in a.delta[q]) for q in old_of))


@pytest.mark.parametrize("n, m", [(2, 2), (2, 3), (3, 2)] + [(n, 1) for n in range(2, 9)])
def test_exhaustive_search_equals_the_filter_on_de_bruijn_graphs(n, m):
    g = de_bruijn(n, m)
    assert enumerate_foldings(g, method="exhaustive") == filtered_foldings(g)


def test_exhaustive_search_equals_the_filter_on_renamed_quotients(foldings_32):
    """The prefix cut depends on the numbering of the states, so each quotient of
    G(3, 2) is also searched with its states reversed and shuffled."""
    g = de_bruijn(3, 2)
    rng = random.Random(20)
    assert len(foldings_32) == 192
    for p in foldings_32:
        q = quotient(g, p)
        k = q.state_count
        for perm in (range(k), range(k - 1, -1, -1), rng.sample(range(k), k)):
            a = renamed_states(q, list(perm))
            assert enumerate_foldings(a, method="exhaustive") == filtered_foldings(a)


@st.composite
def small_automata(draw):
    n = draw(st.integers(2, 3))
    k = draw(st.integers(1, 7))
    row = st.tuples(*[st.integers(0, k - 1)] * n)
    return Automaton(n, tuple(draw(st.lists(row, min_size=k, max_size=k))))


@settings(max_examples=200, deadline=None)
@given(small_automata())
def test_exhaustive_search_equals_the_filter_on_random_automata(a):
    assert enumerate_foldings(a, method="exhaustive") == filtered_foldings(a)


@settings(max_examples=200, deadline=None)
@given(small_automata())
def test_join_lattice_equals_the_exhaustive_search_on_random_automata(a):
    assert enumerate_foldings(a) == enumerate_foldings(a, method="exhaustive")


def pairs_of(p: StatePartition) -> list[tuple[int, int]]:
    """Each state paired with the least state of its class."""
    rep = p.representatives()
    return [(rep[c], s) for s, c in enumerate(p.class_of)]


def refines(q: StatePartition, p: StatePartition) -> bool:
    """q <= p: every class of q lies inside a class of p."""
    return StatePartition.from_class_of(zip(p.class_of, q.class_of)) == q


@settings(max_examples=200, deadline=None)
@given(small_automata(), st.data())
def test_join_is_the_least_folding_above_both(a, data):
    foldings = enumerate_foldings(a, method="exhaustive")
    p1 = data.draw(st.sampled_from(foldings))
    p2 = data.draw(st.sampled_from(foldings))
    joined = join_foldings(a, p1, p2)
    assert joined == congruence_closure(a, pairs_of(p1) + pairs_of(p2))
    assert joined == join_foldings(a, p2, p1)
    for p, q in ((p1, p2), (p2, p1), (p1, p1), (p1, StatePartition.discrete(a.state_count))):
        if refines(q, p):
            assert join_foldings(a, p, q) is p


@settings(max_examples=200, deadline=None)
@given(small_automata(), st.data())
def test_joining_a_principal_congruence_closes_with_its_one_pair(a, data):
    """Cg(p, q) is generated by (p, q), so P joined with it is P closed with (p, q):
    the join the lattice of `enumerate_foldings` runs."""
    k = a.state_count
    assume(k >= 2)
    part = data.draw(st.sampled_from(enumerate_foldings(a, method="exhaustive")))
    p = data.draw(st.integers(0, k - 2))
    q = data.draw(st.integers(p + 1, k - 1))
    joined = join_foldings(a, part, congruence_closure(a, [(p, q)]))
    assert counting._close(a, part, [(p, q)]) == joined


@settings(max_examples=300, deadline=None)
@given(small_automata(), st.data())
def test_closure_is_the_least_listed_folding_above_its_seed(a, data):
    """The oracle reads the exhaustive list, not `_close`: of the foldings above `part`
    that relate every pair, the least is the one with the most classes, and it lies below
    all the others.  `_close` builds its result without the constructor's check, so the
    check runs here, and it returns `part` itself exactly when nothing merges."""
    foldings = enumerate_foldings(a, method="exhaustive")
    part = data.draw(st.sampled_from(foldings))
    state = st.integers(0, a.state_count - 1)
    pairs = data.draw(st.lists(st.tuples(state, state), min_size=1, max_size=3))
    above = [
        f for f in foldings
        if refines(part, f) and all(f.class_of[p] == f.class_of[q] for p, q in pairs)
    ]
    least = max(above, key=lambda f: f.class_count)
    assert all(refines(least, f) for f in above)
    closed = counting._close(a, part, pairs)
    assert closed == least
    assert StatePartition(closed.class_of, closed.class_count) == closed
    assert {type(c) for c in closed.class_of} == {int}
    assert (closed is part) == (least == part)


def test_exhaustive_search_never_filters_a_whole_partition(monkeypatch):
    """Every prefix is cut or kept as it grows, so no full partition is tested again."""

    def refuse(a, p):
        raise AssertionError("a whole partition was filtered")

    monkeypatch.setattr(counting, "is_folding", refuse, raising=False)
    monkeypatch.setattr(automata, "is_folding", refuse)
    assert len(enumerate_foldings(de_bruijn(3, 2), method="exhaustive")) == 192


# a 12-state quotient of G(2, 4) with 160 foldings, among Bell(12) = 4,213,597 partitions
TWELVE_STATE_FOLDING = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 2, 3, 10, 5, 6, 11)


def test_exhaustive_search_lists_a_twelve_state_quotient_in_seconds():
    q = quotient(de_bruijn(2, 4), StatePartition.from_class_of(TWELVE_STATE_FOLDING))
    assert q.state_count == 12
    start = time.perf_counter()
    found = enumerate_foldings(q, method="exhaustive")
    assert time.perf_counter() - start < 2
    assert len(found) == 160 and found == enumerate_foldings(q)


def renamed_quotients_of_g24() -> list[Automaton]:
    """Quotients of 10 to 12 states, past `small_automata`, with their states shuffled.
    Each pair (s, s + 8) of G(2, 4) closes to itself alone, so closing k of them leaves
    16 - k states."""
    g = de_bruijn(2, 4)
    merges = [(0, 1, 4, 5, 6, 7), (0, 1, 2, 3, 4, 7), (0, 3, 5, 6, 7), (1, 2, 3, 4, 6), (0, 1, 4, 7)]
    parts = [congruence_closure(g, [(s, s + 8) for s in merged]) for merged in merges]
    parts.append(StatePartition.from_class_of(TWELVE_STATE_FOLDING))
    assert [p.class_count for p in parts] == [10, 10, 11, 11, 12, 12]
    rng = random.Random(4)
    quotients = [quotient(g, part) for part in parts]
    return [renamed_states(q, rng.sample(range(q.state_count), q.state_count)) for q in quotients]


def test_join_lattice_equals_the_exhaustive_search_on_renamed_quotients_of_g24():
    for a in renamed_quotients_of_g24():
        assert enumerate_foldings(a) == enumerate_foldings(a, method="exhaustive")


def test_lattice_closes_each_found_folding_once_per_class_pair(monkeypatch):
    """A join depends only on the classes its pair lies in, so from a found folding the
    lattice closes no pair that lies in one class, and no unordered class pair twice.
    The discrete partition is left out: the principal closures start from it too."""
    calls = []
    close = counting._close

    def recorded(a, part, pairs):
        pairs = list(pairs)
        calls.append((part, pairs))
        return close(a, part, pairs)

    monkeypatch.setattr(counting, "_close", recorded)
    for a in renamed_quotients_of_g24() + [reversed_states(de_bruijn(3, 2))]:
        calls.clear()
        assert enumerate_foldings(a) == enumerate_foldings(a, method="exhaustive")
        closed = set()
        for part, pairs in calls:
            if part.class_count == a.state_count:
                continue
            [(p, q)] = pairs
            cp, cq = part.class_of[p], part.class_of[q]
            assert cp != cq
            key = (part.class_of, min(cp, cq), max(cp, cq))
            assert key not in closed
            closed.add(key)
        assert closed


def test_unknown_method():
    with pytest.raises(ValueError):
        enumerate_foldings(de_bruijn(2, 2), method="magic")


@pytest.mark.parametrize("n, m, count", [(2, 1, 2), (2, 3, 30), (3, 2, 192)])
def test_lattice_cap_counts_every_folding(n, m, count, monkeypatch):
    """On G(n, m), listed level by level, and on its renamed copy, which the join
    lattice serves; the exhaustive search counts against the same cap."""
    g = de_bruijn(n, m)
    for a, method in [(g, "lattice"), (reversed_states(g), "lattice"), (g, "exhaustive")]:
        monkeypatch.setattr(counting, "LATTICE_CAP", count)
        assert len(enumerate_foldings(a, method)) == count
        monkeypatch.setattr(counting, "LATTICE_CAP", count - 1)
        with pytest.raises(CapExceededError, match="folding lattice cap exceeded"):
            enumerate_foldings(a, method)
