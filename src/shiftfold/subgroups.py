"""Finite subgroups realized as automorphism groups of one synchronizing automaton.

For a finite subgroup G and k the largest minimal synchronizing level of its
elements, each length-k word determines, per element H, a periodic
forced-state word: feeding the word through successive states keeps replacing
it by its output image, and the forced states repeat.  Grouping words with
equal forced-state words for every element of G yields the automaton A(G), on
which G acts by vertex/edge maps recovering each element exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import (
    Automaton,
    CapExceededError,
    StatePartition,
    all_words,
    de_bruijn,
    is_folding,
    parse_word,
    quotient,
    require_sync_level,
    sync_level,
    sync_map,
    word_rank,
)
from .digraph_aut import (
    DigraphAutomorphism,
    check_automorphism,
    transducer_from_automorphism,
)
from .transducers import (
    Transducer,
    canonical_key,
    canonical_rep,
    equal_omega,
    identity_transducer,
    invert,
    is_in_hn,
    product_min,
)


class ChoiceDependenceError(RuntimeError):
    """The forced-state word depends on the state path; the input machine is
    outside the finite-subgroup hypothesis."""


def dual_read(h: Transducer, gamma, p) -> tuple[int, ...]:
    """Feed a word through a sequence of states, state by state.

    Reading the current word from state p_i records the state reached and
    replaces the word by the output produced; returns the recorded states.
    """
    word = parse_word(gamma, h.alphabet_size)
    if not word:
        raise ValueError("the word must be nonempty")
    out = []
    for state in p:
        final, word = h.run(word, state)
        out.append(final)
    return tuple(out)


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
    while len(forced) < pre + 2 * cycle:
        forced.append(forced_state(sets[pre + (len(forced) - pre) % cycle]))
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
    generators: tuple[Transducer, ...]
    max_sync_level: int


def subgroup_closure(gens, cap: int = 512) -> SubgroupClosure:
    """Close a generating set under product and inverse; error past the cap."""
    gens = tuple(gens)
    if not gens:
        raise ValueError("at least one generator is required")
    n = gens[0].alphabet_size
    for g in gens:
        if g.alphabet_size != n:
            raise ValueError("generators must share one alphabet")
        if not is_in_hn(g):
            raise ValueError("generators must be invertible and bisynchronizing")

    elements: dict[bytes, Transducer] = {}
    work: list[Transducer] = []

    def admit(t: Transducer) -> None:
        rep = canonical_rep(t)
        key = canonical_key(rep)
        if key not in elements:
            if len(elements) >= cap:
                raise CapExceededError("subgroup closure cap exceeded")
            elements[key] = rep
            work.append(rep)

    for t in [identity_transducer(n)] + list(gens):
        admit(t)
    while work:
        t = work.pop()
        candidates = [invert(t)]
        for u in list(elements.values()):
            candidates.append(product_min(t, u))
            candidates.append(product_min(u, t))
        for candidate in candidates:
            admit(candidate)
    ordered = tuple(
        sorted(elements.values(), key=lambda t: (t.state_count, canonical_key(t)))
    )
    level = max(sync_level(t.base) for t in ordered)
    return SubgroupClosure(ordered, gens, level)


def subgroup_automaton(
    g: SubgroupClosure,
) -> tuple[Automaton, dict[Transducer, DigraphAutomorphism]]:
    """The automaton A(G) plus the automorphism realizing each element.

    Transitions read a letter by dropping the oldest letter of the class
    words; well-definedness is asserted (never silently patched), as is exact
    recovery of every element from its automorphism.
    """
    n = g.elements[0].alphabet_size
    k = g.max_sync_level
    words = list(all_words(n, k))
    signatures = [tuple(w_word(h, w) for h in g.elements) for w in words]
    part = StatePartition.from_class_of(signatures)

    if k == 0:
        base = Automaton(n, (tuple(0 for _ in range(n)),))
    else:
        graph = de_bruijn(n, k)
        if not is_folding(graph, part):
            raise AssertionError("suffix-shift transitions are not well defined")
        base = quotient(graph, part)

    mapping: dict[Transducer, DigraphAutomorphism] = {}
    for h in g.elements:
        vertex = [-1] * part.class_count
        edges = [[-1] * n for _ in range(part.class_count)]
        for w in words:
            c = part.class_of[word_rank(w, n)]
            for p in range(h.state_count):
                _, image = h.run(w, p)
                img_class = part.class_of[word_rank(image, n)]
                if vertex[c] == -1:
                    vertex[c] = img_class
                elif vertex[c] != img_class:
                    raise AssertionError("vertex map is not well defined")
            forced = sync_map(h.base, w)
            for x in range(n):
                y = h.output[forced][x]
                if edges[c][x] == -1:
                    edges[c][x] = y
                elif edges[c][x] != y:
                    raise AssertionError("edge map is not well defined")
        phi = DigraphAutomorphism(tuple(vertex), tuple(tuple(r) for r in edges))
        check_automorphism(base, phi)
        if not equal_omega(transducer_from_automorphism(base, phi), h):
            raise AssertionError("gluing along the automorphism does not recover the element")
        mapping[h] = phi
    return base, mapping