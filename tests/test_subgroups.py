from inspect import signature
from itertools import product as iproduct
from pathlib import Path

import pytest

from shiftfold import (
    CapExceededError,
    canonical_key,
    canonical_rep,
    de_bruijn,
    dual_read,
    enumerate_automorphisms,
    equal_omega,
    identity_automorphism,
    identity_transducer,
    invert,
    is_isomorphic,
    minimal_rep,
    order,
    product_min,
    quotient,
    shift_transducer,
    single_state,
    subgroup_automaton,
    subgroup_closure,
    transducer_from_automorphism,
    w_word,
)
from shiftfold import subgroups
from shiftfold.digraph_aut import compose_automorphisms
from shiftfold.transducers import ELEMENT_STATE_CAP, renumber
from shiftfold.formats import parse_transducer

H3_INFINITE = Path(__file__).resolve().parent / "golden" / "inputs" / "h3_infinite.txt"


def test_dual_read_identity():
    ident = identity_transducer(2)
    assert dual_read(ident, "01", [0, 0, 0]) == (0, 0, 0)


def test_dual_read_length():
    t = shift_transducer(3)
    for k in range(1, 5):
        assert len(dual_read(t, "012", [0] * k)) == k


def test_dual_read_fig_alternates(fig_transducer):
    # frozen from hand iteration: "00" forces state 0, its images force 2, ...
    for p in [(0, 1, 2, 0), (2, 2, 2, 2), (1, 0, 1, 0)]:
        assert dual_read(fig_transducer, "00", p) == (0, 2, 0, 2)


def test_w_word_identity():
    assert w_word(identity_transducer(3), "01") == (0,)


def test_w_word_single_state():
    assert w_word(single_state((1, 2, 0)), "22") == (0,)


def test_w_word_fig(fig_transducer):
    assert w_word(fig_transducer, "00") == (0, 2)
    assert w_word(fig_transducer, "22") == (2, 0)


def test_w_word_period_divides_dual_read_cycles(fig_transducer):
    """Any observed dual-read output is eventually a repetition of the W word."""
    for gamma in iproduct(range(3), repeat=2):
        period = w_word(fig_transducer, gamma)
        for p_word in [(0,) * 8, (1,) * 8, (2, 1) * 4, (0, 1, 2, 0, 1, 2, 0, 1)]:
            observed = dual_read(fig_transducer, gamma, p_word)
            expected = tuple(period[i % len(period)] for i in range(len(observed)))
            assert observed == expected


def test_w_word_classes_match_fig_partition(fig_transducer, fig_partition):
    """Grouping level-2 words by their W words over {id, H} recovers exactly
    the three classes of the figure's folding."""
    closure = subgroup_closure([fig_transducer])
    labels = []
    for gamma in iproduct(range(3), repeat=2):
        labels.append(tuple(w_word(h, gamma) for h in closure.elements))
    from shiftfold import StatePartition

    assert StatePartition.from_class_of(labels) == fig_partition


def test_w_word_rejects_short_input(fig_transducer):
    with pytest.raises(ValueError):
        w_word(fig_transducer, "0")


def test_subgroup_closure_identity():
    g = subgroup_closure([identity_transducer(2)])
    assert len(g.elements) == 1
    assert g.max_sync_level == 0


def test_subgroup_closure_fig(fig_transducer):
    g = subgroup_closure([fig_transducer])
    assert len(g.elements) == 2
    assert g.max_sync_level == 2


def test_subgroup_closure_cyclic():
    g = subgroup_closure([single_state((1, 2, 0))])
    assert len(g.elements) == 3
    assert g.max_sync_level == 0


def test_subgroup_closure_rejects_outsiders():
    with pytest.raises(ValueError):
        subgroup_closure([shift_transducer(2)])


def test_subgroup_closure_cap(fig_automaton):
    autos = enumerate_automorphisms(fig_automaton)
    gens = [
        minimal_rep(transducer_from_automorphism(fig_automaton, phi)) for phi in autos
    ]
    with pytest.raises(CapExceededError):
        subgroup_closure(gens, cap=2)


def two_sided_closure_keys(gens) -> set[bytes]:
    """Reference closure: every element times every element on both sides, plus inverses."""
    elements: dict[bytes, object] = {}
    work = []

    def admit(t) -> None:
        rep = canonical_rep(t)
        key = canonical_key(rep)
        if key not in elements:
            elements[key] = rep
            work.append(rep)

    for t in [identity_transducer(gens[0].alphabet_size)] + list(gens):
        admit(t)
    while work:
        t = work.pop()
        admit(invert(t))
        for u in list(elements.values()):
            admit(product_min(t, u))
            admit(product_min(u, t))
    return set(elements)


def test_subgroup_closure_matches_two_sided_reference(foldings_32):
    """One and two automorphism generators on every G(3,2) folding with a nontrivial one."""
    g = de_bruijn(3, 2)
    cases = []
    for part in foldings_32:
        a = quotient(g, part)
        gens = [
            transducer_from_automorphism(a, phi)
            for phi in enumerate_automorphisms(a)
            if phi != identity_automorphism(a)
        ]
        if gens:
            cases.append(gens[:1])
        if len(gens) >= 2:
            cases.append([gens[0], gens[-1]])
    assert {len(c) for c in cases} == {1, 2}
    for gens in cases:
        keys = [canonical_key(t) for t in subgroup_closure(gens).elements]
        assert len(set(keys)) == len(keys)
        assert set(keys) == two_sided_closure_keys(gens)


def test_subgroup_closure_cap_on_infinite_element():
    h = parse_transducer(H3_INFINITE.read_text())
    with pytest.raises(CapExceededError, match="subgroup closure cap exceeded"):
        subgroup_closure([h], cap=10)


def test_subgroup_closure_refuses_a_big_element_before_canonicalizing(monkeypatch):
    """The closure's state cap is `order`'s default state cap, and a product past
    it is refused before `canonical_rep` or `renumber` sees it.  Lowered to 100
    states, it stops the closure of the 6-state infinite-order element at its
    150-state fifth power, long before the 20-element cap."""
    assert signature(order).parameters["cap_states"].default == ELEMENT_STATE_CAP
    seen = []

    def counted(canonicalize):
        def wrapper(t):
            seen.append(t.state_count)
            return canonicalize(t)

        return wrapper

    monkeypatch.setattr(subgroups, "ELEMENT_STATE_CAP", 100)
    monkeypatch.setattr(subgroups, "canonical_rep", counted(canonical_rep))
    monkeypatch.setattr(subgroups, "renumber", counted(renumber))
    h = parse_transducer(H3_INFINITE.read_text())
    with pytest.raises(CapExceededError, match="subgroup closure cap exceeded"):
        subgroup_closure([h], cap=20)
    assert seen and max(seen) <= 100


def test_subgroup_automaton_trivial():
    g = subgroup_closure([identity_transducer(2)])
    base, mapping = subgroup_automaton(g)
    assert base.state_count == 1
    assert len(mapping) == 1


def test_subgroup_automaton_single_state_cyclic():
    g = subgroup_closure([single_state((1, 2, 0))])
    base, mapping = subgroup_automaton(g)
    assert base.state_count == 1
    for element, phi in mapping.items():
        assert phi.vertex_perm == (0,)
        assert equal_omega(transducer_from_automorphism(base, phi), element)


def test_subgroup_automaton_fig(fig_transducer, fig_automaton):
    g = subgroup_closure([fig_transducer])
    base, mapping = subgroup_automaton(g)
    assert base.state_count == 3
    assert is_isomorphic(base, fig_automaton)
    nontrivial = [phi for el, phi in mapping.items() if el.state_count == 3]
    assert len(nontrivial) == 1
    phi = nontrivial[0]
    moved = [v for v, img in enumerate(phi.vertex_perm) if img != v]
    assert len(moved) == 2
    for element, phi in mapping.items():
        assert equal_omega(transducer_from_automorphism(base, phi), element)


def test_subgroup_automaton_full_s3(fig_automaton, fig_transducer):
    autos = enumerate_automorphisms(fig_automaton)
    gens = [
        minimal_rep(transducer_from_automorphism(fig_automaton, phi)) for phi in autos
    ]
    g = subgroup_closure(gens)
    assert len(g.elements) == 6
    base, mapping = subgroup_automaton(g)
    # injective and multiplicative on the whole closure
    seen = set()
    for element, phi in mapping.items():
        key = (phi.vertex_perm, phi.edge_letters)
        assert key not in seen
        seen.add(key)
    from shiftfold import canonical_rep

    for a in g.elements:
        for b in g.elements:
            ab = canonical_rep(product_min(a, b))
            composed = compose_automorphisms(mapping[a], mapping[b])
            assert (composed.vertex_perm, composed.edge_letters) == (
                mapping[ab].vertex_perm,
                mapping[ab].edge_letters,
            )
    # the image subgroup has full order inside Aut(A(G))
    assert len(seen) == len(g.elements)