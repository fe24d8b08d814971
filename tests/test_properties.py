"""Properties of the shared canonical encoder and the decomposition loop.

Renaming states must not change `canonical_form`, `canonical_key` or
`canonical_rep`; `canonical_rep` must be idempotent; and both decomposition
entry points must produce factorizations that `verify` accepts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from shiftfold import (
    Automaton,
    Transducer,
    canonical_form,
    canonical_key,
    canonical_rep,
    decompose,
    decompose_involutions,
    product_min,
    verify,
)

SETTINGS = settings(max_examples=25, deadline=None)


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
