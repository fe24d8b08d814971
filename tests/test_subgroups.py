from collections import Counter
from inspect import signature
from itertools import product as iproduct
from pathlib import Path

import pytest

from shiftfold import (
    Automaton,
    CapExceededError,
    ChoiceDependenceError,
    canonical_key,
    canonical_rep,
    de_bruijn,
    decompose,
    enumerate_automorphisms,
    equal_omega,
    identity_transducer,
    invert,
    minimal_rep,
    order,
    product_min,
    quotient,
    single_state,
    StatePartition,
    subgroup_automaton,
    subgroup_closure,
    Transducer,
    transducer_from_automorphism,
    w_word,
)
from shiftfold import subgroups
from shiftfold.automata import all_words, forced_states, word_rank
from shiftfold.digraph_aut import compose_automorphisms
from shiftfold.transducers import ELEMENT_STATE_CAP, renumber
from shiftfold.formats import parse_transducer

from conftest import (
    dual_read,
    h3_infinite,
    identity_automorphism,
    is_isomorphic,
    random_h3_elements,
    shift_transducer,
)

INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"
H3_INFINITE = INPUTS / "h3_infinite.txt"


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


def test_w_word_refuses_a_choice_dependent_forced_state():
    with pytest.raises(ChoiceDependenceError, match="forced state depends on the state choice"):
        w_word(h3_infinite(), (2, 2, 2))


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
    with pytest.raises(ValueError, match="at least one generator is required"):
        subgroup_closure([])
    with pytest.raises(ValueError, match="generators must share one alphabet"):
        subgroup_closure([single_state((1, 0)), single_state((1, 2, 0))])


def test_subgroup_closure_cap(fig_automaton):
    autos = enumerate_automorphisms(fig_automaton)
    gens = [
        minimal_rep(transducer_from_automorphism(fig_automaton, phi)) for phi in autos
    ]
    with pytest.raises(CapExceededError):
        subgroup_closure(gens, cap=2)


def test_negative_caps_are_refused_before_any_search(fig_automaton, fig_transducer):
    """A negative cap is a bad argument, not a cap that the search hit; a cap of 0 is
    still hit, since each search finds at least the identity."""
    with pytest.raises(ValueError, match="automorphism cap -1 is negative"):
        enumerate_automorphisms(fig_automaton, cap=-1)
    with pytest.raises(ValueError, match="subgroup closure cap -1 is negative"):
        subgroup_closure([fig_transducer], cap=-1)
    with pytest.raises(ValueError, match="order state cap -5 is negative"):
        order(fig_transducer, cap_states=-5)
    with pytest.raises(ValueError, match="order iteration cap -1 is negative"):
        order(fig_transducer, cap_iters=-1)
    with pytest.raises(CapExceededError):
        enumerate_automorphisms(fig_automaton, cap=0)
    with pytest.raises(CapExceededError):
        subgroup_closure([fig_transducer], cap=0)
    assert order(fig_transducer, cap_iters=0) is None


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


def _whole_automorphism_groups(foldings):
    """Per G(3,2) folding, every automorphism of the quotient glued into a transducer,
    the identity automorphism included."""
    g = de_bruijn(3, 2)
    for part in foldings:
        a = quotient(g, part)
        yield [transducer_from_automorphism(a, phi) for phi in enumerate_automorphisms(a)]


def test_subgroup_closure_of_whole_automorphism_groups(foldings_32):
    """All of Aut(A) as generators, in order, reversed, with duplicates and with the
    identity added, gives the reference closure every time."""
    ident = identity_transducer(3)
    orders = set()
    for gens in _whole_automorphism_groups(foldings_32):
        expected = two_sided_closure_keys(gens)
        orders.add(len(expected))
        for variant in (gens, gens[::-1], gens + gens[::2], [ident] + gens + [ident]):
            keys = [canonical_key(t) for t in subgroup_closure(variant).elements]
            assert len(set(keys)) == len(keys)
            assert set(keys) == expected
    assert orders == {1, 2, 3, 4, 6, 8, 16}


def test_subgroup_closure_admits_exactly_cap_elements(foldings_32):
    """The element cap counts the identity: a group of order 16 passes at cap 16 only."""
    gens = next(gens for gens in _whole_automorphism_groups(foldings_32) if len(gens) == 16)
    assert len(subgroup_closure(gens, cap=16).elements) == 16
    with pytest.raises(CapExceededError, match="subgroup closure cap exceeded"):
        subgroup_closure(gens, cap=15)


def test_subgroup_closure_forms_at_most_two_products_per_element(foldings_32, monkeypatch):
    """Coset enumeration forms about one product per element: at most 2|G| with all of
    Aut(A) as generators, although there are |G| of them."""
    calls = []

    def counted(t, u):
        calls.append(None)
        return product_min(t, u)

    monkeypatch.setattr(subgroups, "product_min", counted)
    orders = set()
    for gens in _whole_automorphism_groups(foldings_32):
        calls.clear()
        size = len(subgroup_closure(gens).elements)
        assert len(calls) <= 2 * size
        orders.add(size)
    assert max(orders) == 16


@pytest.fixture(scope="module")
def h3_infinite_factors():
    f = decompose(h3_infinite())
    named = {f"factor_{i:02d}": t for i, t in enumerate(f.inverse_factors, start=1)}
    return {"remainder": f.remainder, **named}


@pytest.mark.slow
@pytest.mark.parametrize(
    "pair",
    [
        ("remainder", "factor_04"),
        ("factor_03", "factor_04"),
        ("factor_01", "factor_04"),
        ("remainder", "factor_01"),
        ("factor_02", "factor_04"),
    ],
    ids="+".join,
)
def test_torsion_pairs_are_refused_by_the_state_cap(h3_infinite_factors, monkeypatch, pair):
    """Pairs from the decomposition of an infinite-order element (named as `decompose -o`
    names its files) generate infinite groups; the closure refuses each at a product past
    `ELEMENT_STATE_CAP` states, before the default 512 elements are admitted."""
    sizes = []

    def sized(t, u):
        product = product_min(t, u)
        sizes.append(product.state_count)
        return product

    monkeypatch.setattr(subgroups, "product_min", sized)
    with pytest.raises(CapExceededError, match="subgroup closure cap exceeded"):
        subgroup_closure([h3_infinite_factors[name] for name in pair])
    assert sizes[-1] > ELEMENT_STATE_CAP  # the refusal came at the last product, past the cap


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


def test_subgroup_closure_refuses_a_generator_past_the_state_cap(fig_transducer, monkeypatch):
    """A generator is an element too: the 3-state involution is refused at a 2-state cap,
    although its only product, its square, is the 1-state identity."""
    monkeypatch.setattr(subgroups, "ELEMENT_STATE_CAP", 2)
    with pytest.raises(CapExceededError, match="subgroup closure cap exceeded"):
        subgroup_closure([fig_transducer])


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


def w_word_automaton(g) -> Automaton:
    """Reference A(G): the length-k words grouped by their tuple of w-words over G."""
    n, k = g.elements[0].alphabet_size, g.max_sync_level
    if k == 0:
        return Automaton(n, (tuple(0 for _ in range(n)),))
    labels = [tuple(w_word(h, w) for h in g.elements) for w in all_words(n, k)]
    return quotient(de_bruijn(n, k), StatePartition.from_class_of(labels))


def all_runs_vertex_maps(g, base) -> dict:
    """Reference vertex maps: every length-k word run from every state of every element,
    failing if two runs of one class land in different classes."""
    n, k = g.elements[0].alphabet_size, g.max_sync_level
    class_of = forced_states(base, k)  # A(G) is a quotient of G(n, k)
    maps = {}
    for h in g.elements:
        vertex = [None] * base.state_count
        for w, c in zip(all_words(n, k), class_of):
            for p in range(h.state_count):
                image = class_of[word_rank(h.run(w, p)[1], n)]
                assert vertex[c] in (None, image), "vertex map is not well defined"
                vertex[c] = image
        maps[h] = tuple(vertex)
    return maps


def assert_matches_references(g) -> None:
    """A(G) equals the w-word reference and each vertex map the all-runs reference."""
    base, mapping = subgroup_automaton(g)
    assert base == w_word_automaton(g)
    vertex_maps = {h: phi.vertex_perm for h, phi in mapping.items()}
    assert vertex_maps == all_runs_vertex_maps(g, base)


def test_subgroup_automaton_matches_w_words_on_whole_automorphism_groups(foldings_32):
    for gens in _whole_automorphism_groups(foldings_32):
        assert_matches_references(subgroup_closure(gens))


@pytest.mark.parametrize(
    "names",
    [("gen_a.txt", "gen_b.txt"), ("fig.txt",), ("h3_order4.txt",), ("gen_a.txt",)],
    ids="+".join,
)
def test_subgroup_automaton_matches_w_words_on_golden_generators(names):
    g = subgroup_closure([parse_transducer((INPUTS / name).read_text()) for name in names])
    assert_matches_references(g)


def conjugated_subgroups(
    foldings, h3_pool, count, seed, max_level, min_level=0, order=None, max_factors=2
):
    """Closures of c^-1 Aut(A) c, for `count` random H_3 elements c (products of up to
    `max_factors` pool machines) and the G(3,2) foldings A with a nontrivial automorphism
    (or with exactly `order` of them) taken in turn.  Closures the caps refuse, and those
    whose sync level is outside `min_level`..`max_level` (the references walk every word of
    that length), are left out."""
    groups = [
        gens
        for gens in _whole_automorphism_groups(foldings)
        if (len(gens) > 1 if order is None else len(gens) == order)
    ]
    for i, c in enumerate(random_h3_elements(h3_pool, count, seed, max_factors)):
        c_inv = invert(c)
        gens = [product_min(product_min(c_inv, t), c) for t in groups[i % len(groups)]]
        try:
            g = subgroup_closure(gens)
        except CapExceededError:
            continue
        if min_level <= g.max_sync_level <= max_level:
            yield g


@pytest.mark.parametrize(
    "count, seed, least",
    [(20, 5, 12), pytest.param(170, 7, 100, marks=pytest.mark.slow)],
)
def test_subgroup_automaton_matches_w_words_on_conjugated_subgroups(
    foldings_32, h3_pool, count, seed, least
):
    checked = 0
    for g in conjugated_subgroups(foldings_32, h3_pool, count, seed, max_level=4):
        assert_matches_references(g)
        checked += 1
    assert checked >= least


@pytest.mark.slow
def test_vertex_maps_match_all_runs_at_sync_levels_6_to_8(foldings_32, h3_pool):
    """Past the w-word reference's reach: two conjugated order-4 subgroups at each of
    sync levels 6, 7 and 8 (elements of 9 to 29 states) against the all-runs reference."""
    wanted = {6: 2, 7: 2, 8: 2}
    per_level = Counter()
    for g in conjugated_subgroups(
        foldings_32, h3_pool, 400, 11, max_level=8, min_level=6, order=4, max_factors=3
    ):
        if per_level[g.max_sync_level] == 2:
            continue
        per_level[g.max_sync_level] += 1
        base, mapping = subgroup_automaton(g)
        vertex_maps = {h: phi.vertex_perm for h, phi in mapping.items()}
        assert vertex_maps == all_runs_vertex_maps(g, base)
        if per_level == wanted:
            break
    assert per_level == wanted


def test_subgroup_automaton_reads_only_forced_state_tables(fig_transducer, monkeypatch):
    """A(G) is built without a w-word or a single-word forced-state walk."""

    def refuse(*args):
        raise AssertionError("subgroup_automaton walked a word")

    monkeypatch.setattr(subgroups, "w_word", refuse)
    monkeypatch.setattr(subgroups, "sync_map", refuse)
    base, mapping = subgroup_automaton(subgroup_closure([fig_transducer]))
    assert base.state_count == 3
    assert len(mapping) == 2


def test_subgroup_automaton_runs_one_word_per_class(fig_transducer, monkeypatch):
    """Each element's vertex map takes one `Transducer.run` per class of A(G): 2 elements
    times 3 classes, where running every word from every state would take 36."""
    g = subgroup_closure([fig_transducer])
    runs = []
    run = Transducer.run

    def counted(self, word, state):
        runs.append(None)
        return run(self, word, state)

    monkeypatch.setattr(Transducer, "run", counted)
    base, mapping = subgroup_automaton(g)
    assert len(runs) == len(g.elements) * base.state_count == 6


def test_subgroup_automaton_refuses_a_wrong_vertex_map(fig_transducer, monkeypatch):
    """A vertex map read off wrong word classes (every image ranked as the first word) is
    refused by the incidence check that gluing runs."""
    g = subgroup_closure([fig_transducer])
    monkeypatch.setattr(subgroups, "word_rank", lambda word, n: 0)
    with pytest.raises(ValueError, match="vertex map is not a permutation of the states"):
        subgroup_automaton(g)
