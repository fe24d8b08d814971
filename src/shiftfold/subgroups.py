"""Finite subgroups realized as automorphism groups of one synchronizing automaton.

For a finite subgroup G and k the largest minimal synchronizing level of its
elements, each element h forces a state of its base from every length-k word.
Grouping the words by the tuple of states that the elements of G force yields
the automaton A(G), on which G acts by vertex/edge maps recovering each element
exactly.

This is the grouping by the periodic forced-state words of `w_word` (feed a
word through successive states, replace it by its output image, and record the
forced states).  A w-word starts with the forced state, so words with equal
w-words force equal states in every element.  Conversely, the minimal machine
of h^(j+1), also in G, forces from w the class of the states that h passes
through on the first j+1 images of w; each state of a group element permutes
the words of each length and a minimal machine has no two equivalent states,
so equal forced states in h, ..., h^(j+1) give equal j-th w-word entries.

Each element h's vertex map phi sends a class to the class of the output of
its first word read from state 0.  Gluing A(G) along phi must pass the
incidence check and recover h.  Then each state of h, a minimal core machine,
acts as a state s of the glued machine, whose output on a length-k word w
labels a path ending at phi([w]); A(G), a quotient of G(n, k), is forced there
by that output.  So every run of w from every state of h lands in phi([w]).

G itself is listed by `subgroup_closure`, a coset search over the generators
alone (Dimino's algorithm): each new generator adds the right cosets of the
group found so far, one product per element, and no inverse is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .automata import (
    Automaton,
    CapExceededError,
    StatePartition,
    all_words,
    de_bruijn,
    forced_states,
    parse_word,
    quotient,
    require_sync_level,
    sync_level,
    sync_map,
    word_rank,
)
from .digraph_aut import DigraphAutomorphism, transducer_from_automorphism
from .transducers import (
    ELEMENT_STATE_CAP,
    Transducer,
    canonical_key,
    canonical_rep,
    equal_omega,
    identity_transducer,
    is_in_hn,
    product_min,
    renumber,
)


class ChoiceDependenceError(RuntimeError):
    """The forced-state word depends on the state path; the input machine is
    outside the finite-subgroup hypothesis."""


def w_word(h: Transducer, gamma) -> tuple[int, ...]:
    """Minimal period of the forced-state sequence of iterated output images.

    Tracks the set of words reachable under any state choice; every step's
    forced state must be choice independent, and the sequence must be purely
    periodic.
    """
    k = require_sync_level(h.base, "machine")
    word = parse_word(gamma, h.alphabet_size)
    if len(word) < k:
        raise ValueError("word shorter than the synchronizing level")

    def forced_state(which: frozenset) -> int:
        states = {sync_map(h.base, g) for g in which}
        if len(states) != 1:
            raise ChoiceDependenceError("forced state depends on the state choice")
        return states.pop()

    sets = [frozenset([word])]
    seen = {sets[0]: 0}
    forced = []
    while True:
        forced.append(forced_state(sets[-1]))
        nxt = frozenset(h.run(g, p)[1] for g in sets[-1] for p in range(h.state_count))
        if nxt in seen:
            pre = seen[nxt]
            cycle = len(sets) - pre
            break
        seen[nxt] = len(sets)
        sets.append(nxt)
    for i in range(pre):
        if forced[i] != forced[i + cycle]:
            raise ChoiceDependenceError("forced-state sequence is not purely periodic")
    loop = forced[:cycle]
    for d in range(1, cycle + 1):
        if cycle % d == 0 and all(loop[i] == loop[i % d] for i in range(cycle)):
            return tuple(loop[:d])
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class SubgroupClosure:
    elements: tuple[Transducer, ...]
    max_sync_level: int


def subgroup_closure(gens, cap: int = 512) -> SubgroupClosure:
    """The subgroup generated by `gens`, listed coset by coset (Dimino's algorithm).

    A distinct generator g outside the group H found so far adds the right coset H·g; each
    new coset representative is multiplied on the right by every generator taken so far, and
    a product outside the group brings in its whole coset, disjoint from the group.  Inverses
    are never formed (in a finite group an inverse is a positive power), so an infinite group
    is refused past `cap` elements, the identity counted, or at an element past
    `ELEMENT_STATE_CAP` states, as torsion generators of an infinite group reach; a product
    past that cap is refused before it is canonicalized.  Elements are keyed by canonical
    representatives, identical exactly when the elements are equal.  A negative `cap` is
    refused with ValueError."""
    if cap < 0:
        raise ValueError(f"subgroup closure cap {cap} is negative")
    gens = tuple(gens)
    if not gens:
        raise ValueError("at least one generator is required")
    n = gens[0].alphabet_size
    for g in gens:
        if g.alphabet_size != n:
            raise ValueError("generators must share one alphabet")
        if not is_in_hn(g):
            raise ValueError("generators must be invertible and bisynchronizing")

    def times(t: Transducer, u: Transducer) -> Transducer:
        product = product_min(t, u)
        if product.state_count > ELEMENT_STATE_CAP:
            raise CapExceededError("subgroup closure cap exceeded")
        return renumber(product)

    group: dict[Transducer, None] = {}  # insertion ordered, so the identity comes first
    used: list[Transducer] = []

    def add_coset(subgroup, r: Transducer) -> None:
        """Admit the right coset H·r, with H listed without its identity."""
        for t in chain((r,), (times(h, r) for h in subgroup)):
            if len(group) >= cap:
                raise CapExceededError("subgroup closure cap exceeded")
            group[t] = None

    add_coset((), canonical_rep(identity_transducer(n)))
    for g in dict.fromkeys(map(canonical_rep, gens)):
        if g.state_count > ELEMENT_STATE_CAP:
            raise CapExceededError("subgroup closure cap exceeded")
        if g in group:
            continue
        subgroup = list(group)[1:]
        used.append(g)
        reps = [g]
        add_coset(subgroup, g)
        for r in reps:  # grows while it is read
            for s in used:
                t = times(r, s)
                if t not in group:
                    reps.append(t)
                    add_coset(subgroup, t)
    ordered = tuple(sorted(group, key=lambda t: (t.state_count, canonical_key(t))))
    return SubgroupClosure(ordered, max(sync_level(t.base) for t in ordered))


def subgroup_automaton(
    g: SubgroupClosure,
) -> tuple[Automaton, dict[Transducer, DigraphAutomorphism]]:
    """The automaton A(G) plus the automorphism realizing each element.

    The states are the classes of length-k words with equal tuples of forced
    states, one level-k `forced_states` table per element of G; the module
    docstring shows that this is the grouping by `w_word` tuples.  Each
    element's partition by its own forced state is a folding of G(n, k), so
    their common refinement is one too (`quotient` checks it), and each class
    has one forced state per element, whose output row is that element's edge
    map.  The vertex map is read off one run per class; the incidence check and
    exact recovery of every element from its automorphism make every other
    run agree with it, as the module docstring shows.
    """
    n = g.elements[0].alphabet_size
    k = g.max_sync_level
    tables = [forced_states(h.base, k) for h in g.elements]  # capped before `words` exists
    words = list(all_words(n, k))
    part = StatePartition.from_class_of(zip(*tables))
    if k == 0:
        base = Automaton(n, (tuple(0 for _ in range(n)),))
    else:
        base = quotient(de_bruijn(n, k), part)

    rep = part.representatives()
    mapping: dict[Transducer, DigraphAutomorphism] = {}
    for h, table in zip(g.elements, tables):
        vertex = tuple(part.class_of[word_rank(h.run(words[r], 0)[1], n)] for r in rep)
        edges = tuple(h.output[table[r]] for r in rep)
        phi = DigraphAutomorphism(vertex, edges)
        if not equal_omega(transducer_from_automorphism(base, phi), h):
            raise AssertionError("gluing along the automorphism does not recover the element")
        mapping[h] = phi
    return base, mapping