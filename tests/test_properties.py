"""Properties of the shared canonical encoder and the decomposition loop.

Renaming states must not change `canonical_form`, `canonical_key` or
`canonical_rep`; `canonical_rep` must be idempotent; and both decomposition
entry points must produce factorizations that `verify` accepts.
`least_encoding` must choose the same order as `oracle_encoding`, the earlier
encoder that packed every candidate at 2 bytes per value, and its keys must
be that encoder's values at 4 bytes each, so keys sort the same way.
"""

from collections import deque

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
from shiftfold.automata import least_encoding

from conftest import canonical_form

SETTINGS = settings(max_examples=25, deadline=None)


def oracle_bfs_order(delta, n, root):
    m = len(delta)
    order = [-1] * m
    order[root] = 0
    queue = deque([root])
    count = 1
    while queue:
        q = queue.popleft()
        for x in range(n):
            t = delta[q][x]
            if order[t] == -1:
                order[t] = count
                count += 1
                queue.append(t)
    return order if count == m else None


def oracle_encoding(delta, output=None):
    """The all-roots encoder packing each candidate at 2 bytes per value."""
    m, n = len(delta), len(delta[0])
    best = best_order = None
    for root in range(m):
        order = oracle_bfs_order(delta, n, root)
        if order is None:
            continue
        old_of = [0] * m
        for old, new in enumerate(order):
            old_of[new] = old
        flat = [n, m]
        for old in old_of:
            flat.extend([order[t] for t in delta[old]])
            if output is not None:
                flat.extend(output[old])
        enc = b"".join(v.to_bytes(2, "big") for v in flat)
        if best is None or enc < best:
            best, best_order = enc, order
    if best is None:
        raise ValueError("no state reaches the whole machine; cannot canonicalize")
    return best, best_order


def widened(two_byte_key):
    return b"".join(two_byte_key[i : i + 2].rjust(4, b"\0") for i in range(0, len(two_byte_key), 2))


@st.composite
def tables(draw, n, m, with_output):
    """A transition table, with an output table when asked.  It is random, or
    letter 0 runs one cycle through all states so every root reaches the whole
    machine, or it is circulant (q reads x to q + shift[x] mod m, every state
    outputs the same row) so every root gives the same encoding, or letter 0
    fixes a random set of states, so the encoder's 0-fixed roots can tie."""
    state = st.integers(0, m - 1)
    letters = st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(tuple)
    kind = draw(st.sampled_from(("random", "cycle", "circulant", "fixed")))
    if kind == "circulant":
        shift = draw(st.lists(state, min_size=n, max_size=n))
        delta = [[(q + c) % m for c in shift] for q in range(m)]
        output = (draw(letters),) * m if with_output else None
    else:
        delta = [draw(st.lists(state, min_size=n, max_size=n)) for _ in range(m)]
        if kind == "cycle":
            for q in range(m):
                delta[q][0] = (q + 1) % m
        if kind == "fixed":
            for q, fixed in enumerate(draw(st.lists(st.booleans(), min_size=m, max_size=m))):
                if fixed:
                    delta[q][0] = q
        output = tuple(draw(letters) for _ in range(m)) if with_output else None
    return tuple(map(tuple, delta)), output


def encode_both(delta, output):
    try:
        expected = oracle_encoding(delta, output)
    except ValueError:
        with pytest.raises(ValueError, match="cannot canonicalize"):
            least_encoding(delta, output)
        return None
    key, order = least_encoding(delta, output)
    assert order == expected[1]
    assert key == widened(expected[0])
    return key, expected[0]


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
@given(st.data(), st.sampled_from((2, 3)), st.integers(1, 25), st.booleans())
def test_least_encoding_matches_the_two_byte_encoder(data, n, m, with_output):
    first = encode_both(*data.draw(tables(n, m, with_output)))
    second = encode_both(*data.draw(tables(n, m, with_output)))
    if first is not None and second is not None:
        (key1, old1), (key2, old2) = first, second
        assert (key1 < key2, key1 == key2) == (old1 < old2, old1 == old2)
