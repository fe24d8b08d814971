"""The cached synchronization analysis against the quotient-based original.

`oracle_sync_sequence` is the row-merge sequence as it was computed before
the analysis was cached: each term is a validated `quotient` by the
row-merge partition.  The array-based sequence behind `sync_sequence`,
`sync_level`, `core_states` and `is_core` must agree with it term for term,
on renamed de Bruijn quotients and on arbitrary transition tables, including
ones that never synchronize.  The guards check that each automaton runs the
analysis once and that the cache leaves equality, hashing and the dataclass
fields alone.
"""

import dataclasses

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shiftfold import automata, congruence_closure
from shiftfold.automata import (
    all_words,
    Automaton,
    CapExceededError,
    StatePartition,
    core_of,
    core_states,
    de_bruijn,
    forced_states,
    is_core,
    quotient,
    require_sync_level,
    row_merge_partition,
    sync_level,
    sync_map,
    sync_sequence,
)

SETTINGS = settings(max_examples=40, deadline=None)

DE_BRUIJN = [de_bruijn(2, 3), de_bruijn(2, 4), de_bruijn(2, 5), de_bruijn(3, 2)]


def oracle_sync_sequence(a):
    terms = [(a, StatePartition.discrete(a.state_count))]
    while True:
        current, accumulated = terms[-1]
        merge = row_merge_partition(current)
        if merge.class_count == current.state_count:
            break
        composed = StatePartition.from_class_of(
            merge.class_of[c] for c in accumulated.class_of
        )
        terms.append((quotient(current, merge), composed))
    return terms


def oracle_sync_level(a):
    for j, (term, _) in enumerate(oracle_sync_sequence(a)):
        if term.state_count == 1:
            return j
    return None


def oracle_core_states(a):
    k = oracle_sync_level(a)
    reach = set(range(a.state_count))
    for _ in range(k):
        reach = {a.delta[q][x] for q in reach for x in range(a.alphabet_size)}
    return sorted(reach)


def renamed(a, perm):
    """The same automaton with state s called perm[s]."""
    old_of = sorted(range(len(perm)), key=lambda s: perm[s])
    return Automaton(a.alphabet_size, tuple(tuple(perm[t] for t in a.delta[old]) for old in old_of))


@st.composite
def renamed_quotients(draw):
    """A quotient of a de Bruijn graph, renamed, sometimes with feeder states
    (states outside the core whose rows point into the quotient)."""
    g = draw(st.sampled_from(DE_BRUIJN))
    m, n = g.state_count, g.alphabet_size
    pairs = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)), max_size=3))
    q = quotient(g, congruence_closure(g, pairs))
    row = st.tuples(*[st.integers(0, q.state_count - 1)] * n)
    feeders = tuple(draw(st.lists(row, max_size=2)))
    a = Automaton(n, q.delta + feeders)
    return renamed(a, draw(st.permutations(range(a.state_count))))


@st.composite
def random_tables(draw):
    n = draw(st.integers(2, 3))
    m = draw(st.integers(1, 12))
    row = st.tuples(*[st.integers(0, m - 1)] * n)
    return Automaton(n, tuple(draw(st.lists(row, min_size=m, max_size=m))))


def assert_matches_oracle(a):
    expected = oracle_sync_sequence(a)
    seq = sync_sequence(a)
    assert seq.stabilization_index == len(expected) - 1
    assert [(t.delta, p) for t, p in seq.terms] == [(t.delta, p) for t, p in expected]
    k = oracle_sync_level(a)
    assert sync_level(a) == k
    if k is None:
        with pytest.raises(ValueError):
            core_states(a)
        with pytest.raises(ValueError):
            is_core(a)
    else:
        assert core_states(a) == oracle_core_states(a)
        assert is_core(a) == (len(oracle_core_states(a)) == a.state_count)


@SETTINGS
@given(renamed_quotients())
def test_quotients_match_oracle(a):
    assert_matches_oracle(a)


@SETTINGS
@given(random_tables())
def test_random_tables_match_oracle(a):
    assert_matches_oracle(a)


@SETTINGS
@given(st.one_of(renamed_quotients(), random_tables()), st.data())
def test_sync_map_is_the_image_of_every_state(a, data):
    k = sync_level(a)
    length = data.draw(st.integers(0 if k is None else k, 8 if k is None else k + 3))
    w = data.draw(st.lists(st.integers(0, a.alphabet_size - 1), min_size=length, max_size=length))
    if k is None:
        with pytest.raises(ValueError):
            sync_map(a, w)
        return
    assert {sync_map(a, w)} == {a.run(w, q) for q in range(a.state_count)}


@SETTINGS
@given(st.one_of(renamed_quotients(), random_tables()))
def test_forced_states_lists_sync_map_in_word_order(a):
    k = sync_level(a)
    assume(k is not None and a.alphabet_size ** (k + 2) <= 4096)
    for level in range(k, k + 3):
        table = forced_states(a, level)
        assert len(table) == a.alphabet_size**level
        assert table == [sync_map(a, w) for w in all_words(a.alphabet_size, level)]
    assert forced_states(a) == forced_states(a, k)
    assert set(forced_states(a)) == set(core_states(a))


@SETTINGS
@given(st.one_of(renamed_quotients(), random_tables()), st.data())
def test_forced_states_rejects_what_cannot_force(a, data):
    k = sync_level(a)
    if k is None:
        with pytest.raises(ValueError, match="^automaton is not strongly synchronizing$"):
            forced_states(a)
        return
    assume(k > 0)
    level = data.draw(st.integers(0, k - 1))
    message = f"^automaton only synchronizes at level {k}, not {level}$"
    with pytest.raises(ValueError, match=message):
        forced_states(a, level)


def test_forced_states_is_capped_like_de_bruijn():
    """A level-k table lists the vertices of G(n, k), so it is refused exactly where
    de_bruijn(n, k) is, with the same message: G(2, 18) has 2**19 transitions and is
    built, G(2, 19) has 2**20, past 10**6."""
    g = de_bruijn(2, 1)
    assert len(forced_states(g, 18)) == 2**18 == de_bruijn(2, 18).state_count
    for level in (19, 10**9):
        message = f"^de Bruijn graph G\\(2, {level}\\) would have more than 1000000 transitions$"
        with pytest.raises(CapExceededError, match=message):
            forced_states(g, level)
        with pytest.raises(CapExceededError, match=message):
            de_bruijn(2, level)


def test_analysis_runs_once_per_automaton(monkeypatch):
    runs = []
    original = automata.merge_terms

    def counting_merge_terms(delta):
        runs.append(delta)
        return original(delta)

    monkeypatch.setattr(automata, "merge_terms", counting_merge_terms)
    a = quotient(de_bruijn(2, 4), congruence_closure(de_bruijn(2, 4), [(0, 1)]))
    k = sync_level(a)
    core_states(a)
    is_core(a)
    require_sync_level(a, core=True)
    core_of(a)
    sync_map(a, [1] * k)
    sync_level(a)
    assert len(runs) == 1


def test_cache_leaves_equality_and_hash_alone():
    delta = ((1, 2), (1, 2), (0, 2))
    fresh, analysed = Automaton(2, delta), Automaton(2, delta)
    sync_level(analysed)
    core_states(analysed)
    assert fresh == analysed and analysed == fresh
    assert hash(fresh) == hash(analysed)
    assert repr(fresh) == repr(analysed)
    assert [f.name for f in dataclasses.fields(Automaton)] == ["alphabet_size", "delta"]


def test_core_states_returns_a_fresh_list():
    a = Automaton(2, ((0, 1), (0, 1), (0, 1)))
    first = core_states(a)
    assert first == [0, 1]
    first.append(2)
    first[0] = 7
    assert core_states(a) == [0, 1]
    assert not is_core(a)
    with pytest.raises(ValueError, match="machine is not core"):
        require_sync_level(a, "machine", core=True)

