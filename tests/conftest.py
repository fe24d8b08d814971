"""Shared corpus fixtures.

`fig_automaton` is the three-state folding of G(3,2) with classes
{00,21,10}, {01,11,20}, {02,12,22}; `fig_transducer` glues it to itself
along the automorphism swapping states 0 and 2, which is the standard
non-permutation-induced example.  Random corpora are seeded and deterministic.
`oracle_minimize_partition` is the Moore refinement written with two
normalized partitions per round, the reference the minimizer is checked against.
"""

import random
from pathlib import Path

import pytest

from shiftfold import (
    Automaton,
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


def h3_infinite():
    """The minimized infinite-order H_3 element of the golden corpus."""
    return minimal_rep(parse_transducer(H3_INFINITE.read_text()))


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