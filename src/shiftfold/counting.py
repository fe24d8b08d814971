"""Exact folding counts: Bell numbers, the signed partition sum R(s, t), the
closed formula for word length 2, and congruence enumeration for cross checks.

Everything here is exact integer arithmetic; no floating point.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .automata import Automaton, CapExceededError, StatePartition, is_folding, reachable

EXHAUSTIVE_STATE_CAP = 12
LATTICE_CAP = 200_000


@lru_cache(maxsize=None)
def bell(k: int) -> int:
    """Number of set partitions of a k-set: the first entry of row k of the Bell triangle."""
    if k < 0:
        raise ValueError("bell is defined for non-negative arguments")
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def set_partitions(k: int):
    """All partitions of {0..k-1} as restricted growth strings, in lex order."""
    if k > EXHAUSTIVE_STATE_CAP:
        raise CapExceededError(f"set partition enumeration capped at {EXHAUSTIVE_STATE_CAP}")
    if k == 0:
        yield ()
        return
    rgs = [0] * k

    def descend(i: int, top: int):
        if i == k:
            yield tuple(rgs)
            return
        for c in range(top + 2):
            rgs[i] = c
            yield from descend(i + 1, max(top, c))

    yield from descend(1, 0)


def _integer_partitions(t: int):
    """Partitions of the integer t as non-increasing tuples."""
    if t == 0:
        yield ()
        return
    for first in range(t, 0, -1):
        for rest in _integer_partitions(t - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def _partition_type_count(parts: tuple[int, ...]) -> int:
    """Number of set partitions of an n-set whose block sizes are `parts`."""
    n = sum(parts)
    count = factorial(n)
    for p in parts:
        count //= factorial(p)
    mult: dict[int, int] = {}
    for p in parts:
        mult[p] = mult.get(p, 0) + 1
    for m in mult.values():
        count //= factorial(m)
    return count


@lru_cache(maxsize=None)
def moebius_R(s: int, t: int) -> int:
    """Signed sum over partitions of {1..t} of products of Bell numbers B(|C|s)."""
    if s < 1 or t < 1:
        raise ValueError("arguments must be positive")
    total = 0
    for parts in _integer_partitions(t):
        term = (-1) ** (len(parts) - 1) * factorial(len(parts) - 1)
        for c in parts:
            term *= bell(c * s)
        total += _partition_type_count(parts) * term
    return total


def count_foldings_g_n_2(n: int) -> int:
    """Exact number of foldings of the word-length-2 de Bruijn graph over X_n."""
    if n < 1:
        raise ValueError("alphabet size must be at least 1")
    if n > 12:
        raise CapExceededError("closed-form folding count capped at alphabet size 12")
    total = 0
    for parts in _integer_partitions(n):
        s = len(parts)
        term = 1
        for a in parts:
            term *= moebius_R(s, a)
        total += _partition_type_count(parts) * term
    return total


def congruence_closure(a: Automaton, pairs) -> StatePartition:
    """Least folding relation containing the given pairs (union-find closure)."""
    parent = list(range(a.state_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    work = [(p, q) for p, q in pairs]
    while work:
        p, q = work.pop()
        rp, rq = find(p), find(q)
        if rp == rq:
            continue
        parent[rq] = rp
        for x in range(a.alphabet_size):
            work.append((a.delta[p][x], a.delta[q][x]))
    return StatePartition.from_class_of(find(s) for s in range(a.state_count))


def join_foldings(a: Automaton, p1: StatePartition, p2: StatePartition) -> StatePartition:
    """Least folding above two foldings."""
    pairs = []
    for part in (p1, p2):
        firsts: dict[int, int] = {}
        for s, c in enumerate(part.class_of):
            if c in firsts:
                pairs.append((firsts[c], s))
            else:
                firsts[c] = s
    return congruence_closure(a, pairs)


def enumerate_foldings(
    a: Automaton, method: str = "lattice", cap: int = LATTICE_CAP
) -> list[StatePartition]:
    """All foldings of A, sorted by class table.

    "exhaustive" filters every set partition of the states; "lattice" joins each
    folding found, breadth first from the discrete partition, with each principal
    congruence, and counts every folding against `cap`.  Both include the discrete partition.
    """
    if method == "exhaustive":
        if a.state_count > EXHAUSTIVE_STATE_CAP:
            raise CapExceededError("exhaustive folding enumeration capped at 12 states")
        parts = (StatePartition(rgs, max(rgs) + 1) for rgs in set_partitions(a.state_count))
        return sorted((p for p in parts if is_folding(a, p)), key=lambda p: p.class_of)
    if method != "lattice":
        raise ValueError(f"unknown method {method!r}")

    m = a.state_count
    closures = (congruence_closure(a, [(p, q)]) for p in range(m) for q in range(p + 1, m))
    principals = list({c.class_of: c for c in closures}.values())
    found = reachable(
        StatePartition.discrete(m),
        lambda part: (join_foldings(a, part, gen) for gen in principals),
        lambda part: part.class_of,
        cap,
        "folding lattice",
    )
    return [part for _, part in sorted(found)]
