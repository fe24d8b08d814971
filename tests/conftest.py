"""Shared corpus fixtures.

`fig_automaton` is the three-state folding of G(3,2) with classes
{00,21,10}, {01,11,20}, {02,12,22}; `fig_transducer` glues it to itself
along the automorphism swapping states 0 and 2, which is the standard
non-permutation-induced example.  Random corpora are seeded and deterministic.
`oracle_minimize_partition` is the Moore refinement written with two
normalized partitions per round, and `oracle_weak_minimize` the minimized
machine built from it: the references the minimizer is checked against.
`is_collapse_equivalent` and `is_amalgamation` are exponential merge searches
under a cap, the references the decomposition steps and terms are checked against.

Helpers that build inputs or check other code, and that no library module, CLI
command or benchmark reads, live here rather than in the package:
`canonical_form` and `is_isomorphic` (automaton isomorphism by least BFS
encoding), `shift_transducer` (the shift map, outside H_n), `dual_read` (a word
fed through a sequence of states), `identity_rule`, `shift_rule` and
`is_right_permutive` (local rules), and `identity_automorphism` and
`invert_automorphism` (digraph automorphisms).
"""

import random
from operator import attrgetter
from pathlib import Path

import pytest

from shiftfold import (
    Automaton,
    DigraphAutomorphism,
    LocalRule,
    StatePartition,
    Transducer,
    de_bruijn,
    enumerate_automorphisms,
    enumerate_foldings,
    minimal_rep,
    product_min,
    quotient,
    transducer_from_automorphism,
)
from shiftfold.automata import CapExceededError, least_encoding, parse_word, row_merge_partition
from shiftfold.digraph_aut import edge_count_matrix
from shiftfold.formats import parse_transducer

H3_INFINITE = Path(__file__).parent / "golden" / "inputs" / "h3_infinite.txt"


@pytest.fixture(scope="session")
def fig_automaton():
    return Automaton(3, ((0, 1, 2), (0, 1, 2), (1, 0, 2)))


@pytest.fixture(scope="session")
def fig_partition():
    # classes of G(3,2) words: {00,21,10}, {01,11,20}, {02,12,22}
    labels = [0] * 9
    for block, words in enumerate([["00", "21", "10"], ["01", "11", "20"], ["02", "12", "22"]]):
        for w in words:
            labels[int(w[0]) * 3 + int(w[1])] = block
    return StatePartition.from_class_of(labels)


@pytest.fixture(scope="session")
def fig_transducer(fig_automaton):
    return Transducer(fig_automaton, ((2, 0, 1), (2, 1, 0), (1, 2, 0)))


@pytest.fixture(scope="session")
def foldings_22():
    return enumerate_foldings(de_bruijn(2, 2), method="exhaustive")


@pytest.fixture(scope="session")
def foldings_23():
    return enumerate_foldings(de_bruijn(2, 3), method="exhaustive")


@pytest.fixture(scope="session")
def foldings_32():
    return enumerate_foldings(de_bruijn(3, 2), method="exhaustive")


@pytest.fixture(scope="session")
def quotients_22(foldings_22):
    g = de_bruijn(2, 2)
    return [quotient(g, p) for p in foldings_22]


@pytest.fixture(scope="session")
def quotients_23(foldings_23):
    g = de_bruijn(2, 3)
    return [quotient(g, p) for p in foldings_23]


@pytest.fixture(scope="session")
def quotients_32(foldings_32):
    g = de_bruijn(3, 2)
    return [quotient(g, p) for p in foldings_32]


def canonical_form(a: Automaton) -> bytes:
    """Renaming-invariant encoding: least BFS encoding over all root choices."""
    return b"A" + least_encoding(a.delta)[0]


def is_isomorphic(a: Automaton, b: Automaton) -> bool:
    if a.alphabet_size != b.alphabet_size or a.state_count != b.state_count:
        return False
    return canonical_form(a) == canonical_form(b)


def shift_transducer(n: int) -> Transducer:
    """Reading x from state i outputs i and moves to state x."""
    if n < 2:
        raise ValueError("alphabet size must be at least 2")
    delta = tuple(tuple(range(n)) for _ in range(n))
    output = tuple(tuple(i for _ in range(n)) for i in range(n))
    return Transducer(Automaton(n, delta), output)


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


def identity_rule(n: int) -> LocalRule:
    return LocalRule(n, 1, tuple(range(n)))


def shift_rule(n: int) -> LocalRule:
    """Window-2 rule returning the older letter; slides to the shift map."""
    return LocalRule(n, 2, tuple(a for a in range(n) for _ in range(n)))


def _permutive(f: LocalRule, step: int, starts) -> bool:
    """Does x -> table[start + x * step] permute the alphabet for every start?"""
    n = f.alphabet_size
    return all(len({f.table[s + x * step] for x in range(n)}) == n for s in starts)


def is_right_permutive(f: LocalRule) -> bool:
    """For every fixed left block, the map on the final letter is a permutation."""
    return _permutive(f, 1, range(0, len(f.table), f.alphabet_size))


def identity_automorphism(a: Automaton) -> DigraphAutomorphism:
    n = a.alphabet_size
    return DigraphAutomorphism(
        tuple(range(a.state_count)),
        tuple(tuple(range(n)) for _ in range(a.state_count)),
    )


def invert_automorphism(phi: DigraphAutomorphism) -> DigraphAutomorphism:
    m = len(phi.vertex_perm)
    vertex = [0] * m
    for q, v in enumerate(phi.vertex_perm):
        vertex[v] = q
    edges = []
    for v in range(m):
        q = vertex[v]
        row = [0] * len(phi.edge_letters[q])
        for x, y in enumerate(phi.edge_letters[q]):
            row[y] = x
        edges.append(tuple(row))
    return DigraphAutomorphism(tuple(vertex), tuple(edges))


def oracle_minimize_partition(t):
    """Classes of states that output the same word on every input."""
    n = t.alphabet_size
    part = StatePartition.from_class_of(t.output)
    while True:
        refined = StatePartition.from_class_of(
            (part.class_of[q],) + tuple(part.class_of[t.base.delta[q][x]] for x in range(n))
            for q in range(t.state_count)
        )
        if refined.class_count == part.class_count:
            return part
        part = refined


def oracle_weak_minimize(t):
    """The minimized machine built the long way: `quotient` by the oracle's classes and the
    outputs of the first state of each class."""
    part = oracle_minimize_partition(t)
    rep = part.representatives()
    output = tuple(t.output[rep[c]] for c in range(part.class_count))
    return Transducer(quotient(t.base, part), output)


def merge_search(start, target, size, merges, key, cap: int, what: str) -> bool:
    """Can `start` reach `target`'s key by merges, each one state smaller (BFS under a cap)?
    The cap counts keys, the start's included, and is checked before a new key is
    admitted; the goal is tested as its key is admitted."""
    goal_size, goal = size(target), key(target)
    if size(start) < goal_size:
        return False
    found, seen = [start], {key(start)}
    if goal in seen:
        return True
    for x in found:  # breadth first: `found` grows while it is read
        if size(x) <= goal_size:
            continue
        for y in merges(x):
            k = key(y)
            if k not in seen:
                if len(seen) >= cap:
                    raise CapExceededError(f"{what} search cap exceeded")
                if k == goal:
                    return True
                seen.add(k)
                found.append(y)
    return False


def _row_merges(a: Automaton):
    """A with each pair of distinct row-equal states merged, one pair at a time."""
    for members in row_merge_partition(a).blocks():
        for i, p in enumerate(members):
            for q in members[i + 1 :]:
                labels = list(range(a.state_count))
                labels[q] = p
                yield quotient(a, StatePartition.from_class_of(labels))


def is_collapse_equivalent(a: Automaton, b: Automaton, cap: int = 10**6) -> bool:
    """Can A reach an automaton isomorphic to B by one-pair row-equal merges?"""
    if a.alphabet_size != b.alphabet_size:
        return False
    size = attrgetter("state_count")
    return merge_search(a, b, size, _row_merges, canonical_form, cap, "collapse-equivalence")


def _canonical_matrix(mat: tuple[tuple[int, ...], ...]) -> tuple:
    """Least layer-by-layer reading of the matrix over all vertex orderings."""
    m = len(mat)
    best: list[tuple] | None = None
    assignment: list[int] = []
    used = [False] * m

    def layer(order: list[int], d: int) -> tuple:
        row = tuple(mat[order[d]][order[j]] for j in range(d + 1))
        col = tuple(mat[order[j]][order[d]] for j in range(d))
        return row + col

    def descend(d: int, layers: list[tuple]):
        nonlocal best
        if d == m:
            if best is None or layers < best:
                best = list(layers)
            return
        for v in range(m):
            if used[v]:
                continue
            assignment.append(v)
            used[v] = True
            new_layer = layer(assignment, d)
            prefix_ok = True
            if best is not None:
                probe = layers + [new_layer]
                if probe > best[: len(probe)]:
                    prefix_ok = False
            if prefix_ok:
                descend(d + 1, layers + [new_layer])
            used[v] = False
            assignment.pop()

    descend(0, [])
    assert best is not None
    return tuple(best)


def _amalgamations(mat: tuple[tuple[int, ...], ...]):
    """The matrix with each pair of equal-row vertices merged, one pair at a time."""
    m = len(mat)
    for v1 in range(m):
        for v2 in range(v1 + 1, m):
            if mat[v1] != mat[v2]:
                continue
            keep = [v for v in range(m) if v != v2]
            yield tuple(
                tuple(mat[p][r] + (mat[p][v2] if r == v1 else 0) for r in keep) for p in keep
            )


def is_amalgamation(gb: Automaton, ga: Automaton, cap: int = 100_000) -> bool:
    """Is Gb's digraph reachable from Ga's by merging amalgamable vertex pairs?"""
    return merge_search(
        edge_count_matrix(ga),
        edge_count_matrix(gb),
        len,
        _amalgamations,
        _canonical_matrix,
        cap,
        "amalgamation",
    )


def h3_infinite():
    """The minimized infinite-order H_3 element of the golden corpus."""
    return minimal_rep(parse_transducer(H3_INFINITE.read_text()))


def order_1260_element():
    """A two-state H_25 element whose step factor has order lcm(4, 9, 5, 7) = 1,260, past
    `order`'s 1,000 iterations.  Both states go to 0 on letters below 13 and to 1 on the rest;
    state 0 outputs the identity, state 1 sigma = (0 1 2 3)(4 ... 12)(13 ... 17)(18 ... 24)."""
    sigma = list(range(25))
    for lo, hi in ((0, 4), (4, 13), (13, 18), (18, 25)):
        sigma[lo:hi] = range(lo + 1, hi + 1)
        sigma[hi - 1] = lo
    row = tuple(0 if x < 13 else 1 for x in range(25))
    return Transducer(Automaton(25, (row, row)), (tuple(range(25)), tuple(sigma)))


def glued_machines(automata, limit=None):
    """All minimized glued machines H(A, phi) over the given automata."""
    out = []
    for a in automata:
        for phi in enumerate_automorphisms(a):
            out.append(minimal_rep(transducer_from_automorphism(a, phi)))
            if limit is not None and len(out) >= limit:
                return out
    return out


@pytest.fixture(scope="session")
def h3_pool(quotients_32):
    """Deterministic pool of group elements over X_3 from glued foldings."""
    return glued_machines(quotients_32)


def pool_product(pool, picks):
    """A multi-state pool machine times further pool machines, picked by index."""
    nontrivial = [t for t in pool if t.state_count > 1]
    t = nontrivial[picks[0] % len(nontrivial)]
    for i in picks[1:]:
        t = product_min(t, pool[i % len(pool)])
    return t


def random_h3_elements(h3_pool, count, seed, max_factors=2):
    """Products of up to `max_factors` pool machines, minimized; deterministic.

    The first factor is drawn from the multi-state machines so most sampled
    elements have nontrivial decompositions.
    """
    rng = random.Random(seed)
    nontrivial = [t for t in h3_pool if t.state_count > 1]
    out = []
    while len(out) < count:
        t = rng.choice(nontrivial)
        for _ in range(rng.randrange(max_factors)):
            t = product_min(t, rng.choice(h3_pool))
        out.append(t)
    return out