"""Properties of the canonical encoder and the decomposition loop.

Renaming states must not change `canonical_form`, `canonical_key` or
`canonical_rep`; `canonical_rep` must be idempotent; and both decomposition
entry points must produce factorizations that `verify` accepts.  On a machine
with one 0-fixed state that reaches every state, the library's encoder, one
search from that state, must give `renumber` the order that `oracle_encoding`
(conftest's search over all roots, 2 bytes per value) chooses, and
`canonical_key` that encoder's values at 4 bytes each, so keys sort the same
way; every other machine is refused.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftfold import (
    Automaton,
    Transducer,
    canonical_key,
    canonical_rep,
    decompose,
    decompose_involutions,
    product_min,
    verify,
)
from shiftfold.transducers import renumber

from conftest import canonical_form, h3_infinite, oracle_encoding, pool_product

SETTINGS = settings(max_examples=25, deadline=None)


def widened(two_byte_key):
    return b"".join(two_byte_key[i : i + 2].rjust(4, b"\0") for i in range(0, len(two_byte_key), 2))


@st.composite
def tables(draw, n, m):
    """A transition table and an output table.  It is random, or letter 0 runs one cycle
    through all states, or it is circulant (q reads x to q + shift[x] mod m, every state
    outputs the same row), or letter 0 fixes a random set of states, or letter 0 fixes one
    state and letter 1 runs a path from it through all states, so the encoder accepts it.
    Past one state, a cycle has no 0-fixed state and a circulant table none or all of them,
    so the encoder refuses both."""
    state = st.integers(0, m - 1)
    letters = st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(tuple)
    kind = draw(st.sampled_from(("random", "cycle", "circulant", "fixed", "forced")))
    if kind == "circulant":
        shift = draw(st.lists(state, min_size=n, max_size=n))
        delta = [[(q + c) % m for c in shift] for q in range(m)]
        output = (draw(letters),) * m
    else:
        delta = [draw(st.lists(state, min_size=n, max_size=n)) for _ in range(m)]
        if kind == "cycle":
            for q in range(m):
                delta[q][0] = (q + 1) % m
        if kind == "fixed":
            for q, fixed in enumerate(draw(st.lists(st.booleans(), min_size=m, max_size=m))):
                if fixed:
                    delta[q][0] = q
        if kind == "forced":
            path = draw(st.permutations(range(m)))
            for q in range(m):
                if delta[q][0] == q:
                    delta[q][0] = (q + 1) % m
            delta[path[0]][0] = path[0]
            for p, q in zip(path, path[1:]):
                delta[p][1] = q
        output = tuple(draw(letters) for _ in range(m))
    return tuple(map(tuple, delta)), output


def has_one_reaching_fixed_state(delta) -> bool:
    """Does letter 0 fix exactly one state, and does that state reach every state?"""
    fixed = [q for q, row in enumerate(delta) if row[0] == q]
    if len(fixed) != 1:
        return False
    seen, stack = set(fixed), list(fixed)
    while stack:
        for t in delta[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return len(seen) == len(delta)


def assert_matches_oracle(t):
    """`canonical_key` is the oracle's key widened to 4 bytes a value, and `renumber` names
    the states as the oracle's order does; returns the two keys."""
    expected, order = oracle_encoding(t.base.delta, t.output)
    key = canonical_key(t)
    assert key == b"T" + widened(expected)
    delta, output = renamed(t.base.delta, t.output, order)
    assert renumber(t) == Transducer(Automaton(t.alphabet_size, delta), output)
    return key, expected


def encode_both(delta, output):
    t = Transducer(Automaton(len(delta[0]), delta), output)
    if not has_one_reaching_fixed_state(delta):
        for encode in (canonical_key, renumber):
            with pytest.raises(ValueError, match="cannot canonicalize"):
                encode(t)
        return None
    return assert_matches_oracle(t)


def renamed(delta, output, perm):
    """The same machine with state s called perm[s]."""
    old_of = sorted(range(len(perm)), key=lambda s: perm[s])
    new_delta = tuple(tuple(perm[t] for t in delta[old]) for old in old_of)
    return new_delta, tuple(output[old] for old in old_of)


def draw_machine(data, automata):
    a = data.draw(st.sampled_from(automata))
    n, m = a.alphabet_size, a.state_count
    row = st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(tuple)
    output = tuple(data.draw(st.lists(row, min_size=m, max_size=m)))
    perm = data.draw(st.permutations(range(m)))
    delta2, output2 = renamed(a.delta, output, perm)
    return Transducer(a, output), Transducer(Automaton(n, delta2), output2)


@SETTINGS
@given(st.data())
def test_canonical_encodings_ignore_state_names(quotients_23, quotients_32, data):
    t, u = draw_machine(data, quotients_23 + quotients_32)
    assert canonical_form(t.base) == canonical_form(u.base)
    assert canonical_key(t) == canonical_key(u)


@SETTINGS
@given(st.data())
def test_canonical_rep_is_idempotent_and_name_free(quotients_23, quotients_32, data):
    t, u = draw_machine(data, quotients_23 + quotients_32)
    rep = canonical_rep(t)
    assert canonical_rep(rep) == rep
    assert canonical_rep(u) == rep


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(min_value=0), min_size=1, max_size=3))
def test_decompositions_verify(h3_pool, picks):
    nontrivial = [t for t in h3_pool if t.state_count > 1]
    t = nontrivial[picks[0] % len(nontrivial)]
    for i in picks[1:]:
        t = product_min(t, h3_pool[i % len(h3_pool)])
    plain = decompose(t)
    split = decompose_involutions(t)
    assert verify(plain) and verify(split)
    assert len(split.inverse_factors) >= len(plain.inverse_factors)
    assert [s.pair for s in split.steps] == [s.pair for s in plain.steps]


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from((2, 3)), st.integers(1, 25))
def test_least_encoding_matches_the_two_byte_encoder(data, n, m):
    first = encode_both(*data.draw(tables(n, m)))
    second = encode_both(*data.draw(tables(n, m)))
    if first is not None and second is not None:
        (key1, old1), (key2, old2) = first, second
        assert (key1 < key2, key1 == key2) == (old1 < old2, old1 == old2)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0), min_size=1, max_size=4))
def test_pool_products_are_encoded_as_the_oracle_encodes_them(h3_pool, picks):
    """Products of G(3,2) glued-pool elements, each core with one 0-fixed state."""
    assert_matches_oracle(pool_product(h3_pool, picks))


def test_h3_infinite_powers_are_encoded_as_the_oracle_encodes_them():
    """`h3_infinite` and its powers up to the first past 5,000 states (5,607)."""
    base = power = h3_infinite()
    while True:
        assert_matches_oracle(power)
        if power.state_count >= 5_000:
            break
        power = product_min(power, base)
    assert power.state_count == 5_607


@pytest.mark.parametrize(
    "delta",
    [((0, 1), (1, 0)), ((1, 0), (0, 1)), ((0, 0), (0, 1))],
    ids=["two 0-fixed states", "no 0-fixed state", "0-fixed state misses a state"],
)
def test_canonical_key_refuses_machines_without_one_reaching_fixed_state(delta):
    t = Transducer(Automaton(2, delta), ((0, 1), (1, 0)))
    with pytest.raises(ValueError, match="cannot canonicalize"):
        canonical_key(t)
