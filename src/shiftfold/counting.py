"""Exact folding counts and folding enumeration: Bell numbers, the signed partition
sum R(s, t), the closed formula for word length 2, and the list of every folding of
an automaton.

The foldings of a de Bruijn graph G(n, m) are listed level by level down the row-merge
sequence (`_de_bruijn_foldings`); every other automaton's are listed breadth first by
joins in its congruence lattice, from a worklist that grows while it is read.  A
principal congruence is generated by one pair, so each join closes the folding already
found with that one generating pair, by a union-find seeded from the found folding's
classes (`_close`), which also closes the principal congruences from the discrete
partition.  The unions of `_close` keep the least class as root, so one forward pass
resolves the roots and relabels the result by first occurrence.  A join depends only on
the two classes its pair lies in, so each found folding is closed once per unordered
pair of its classes that some generator meets; a pair already in one class is skipped,
since that join is the folding itself.  The exhaustive method, an
independent cross-check of both for up to 12 states, grows each set partition state by
state and cuts a prefix as soon as two states of one class lead to placed states of
different classes (`_closed_prefix`).  Both methods count every folding, the discrete
partition included, against `LATTICE_CAP`.
Everything here is exact integer arithmetic; no floating point.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations
from math import factorial
from operator import eq

from .automata import (
    STATE_CAP,
    Automaton,
    CapExceededError,
    StatePartition,
    _trusted,
    de_bruijn,
)

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


def _growth_strings(k: int, keep=None):
    """Every partition of {0..k-1} as a restricted growth string, in lex order, without
    a cap; k must be non-negative.  Given `keep`, a prefix rgs[:i+1] (i >= 1) is
    extended only while keep(rgs, i) holds, so `keep` must pass every prefix of a
    string it wants."""
    if k < 0:
        raise ValueError("set partitions are defined for non-negative sizes")
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
            if keep is None or keep(rgs, i):
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


def _close(a: Automaton, part: StatePartition, pairs) -> StatePartition:
    """Least folding above the folding `part` that relates each of `pairs`, or `part`
    itself when no two classes merge.  A union-find over the classes of `part` (each
    standing for its least state) merges each pair and then the successors of each
    merge; a folding's classes already lead into classes, so nothing else is pushed
    (Freese, "Computing congruences efficiently", 2008).

    Each union hangs the larger root under the smaller, so parent[c] <= c and each root is
    the least class of its merged class; one forward pass of parent[c] = parent[parent[c]]
    resolves every root.  The classes of `part` are numbered by first occurrence, so
    counting the roots in class order numbers the merged classes the same way, and the
    table is built without a further check."""
    delta, class_of = a.delta, part.class_of
    k = part.class_count
    parent = list(range(k))

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    merged = False
    work = list(pairs)
    while work:
        p, q = work.pop()
        rp, rq = find(class_of[p]), find(class_of[q])
        if rp == rq:
            continue
        if rp < rq:
            parent[rq] = rp
        else:
            parent[rp] = rq
        merged = True
        work.extend(zip(delta[p], delta[q]))
    if not merged:
        return part
    for c in range(k):
        parent[c] = parent[parent[c]]
    # rank[c]: the roots among classes 1..c, so a root's index among the merged classes
    rank = list(accumulate(map(eq, parent[1:], range(1, k)), initial=0))
    label = list(map(rank.__getitem__, parent))
    table = tuple(map(label.__getitem__, class_of))
    return _trusted(StatePartition, class_of=table, class_count=rank[-1] + 1)


def congruence_closure(a: Automaton, pairs) -> StatePartition:
    """Least folding relation containing the given pairs (union-find closure).  Each
    pair is two states of A, numbered 0..N-1; any other number raises ValueError."""
    pairs = list(pairs)
    n = a.state_count
    if not all(0 <= s < n for pair in pairs for s in pair):
        raise ValueError(f"pair names a state outside 0..{n - 1}")
    return _close(a, StatePartition.discrete(n), pairs)


def join_foldings(a: Automaton, p1: StatePartition, p2: StatePartition) -> StatePartition:
    """The public join of two foldings, the least folding above both: the closure of
    p1, which is trusted to be a folding and not checked, with each state of p2 paired
    with its class's least state.  Returns p1 itself when p2 lies below it.  Either
    partition must have A's state count, or ValueError is raised.  The lattice of
    `enumerate_foldings` does not call it: a principal congruence has one generating
    pair, so it closes each found folding with that pair alone."""
    if len(p1.class_of) != a.state_count or len(p2.class_of) != a.state_count:
        raise ValueError("partition does not match automaton state count")
    rep = p2.representatives()
    return _close(a, p1, [(rep[c], s) for s, c in enumerate(p2.class_of) if rep[c] != s])


def _in_splits(delta):
    """The in-splittings of the core automaton `delta` that its row merge folds back
    onto it, each as (rows, firsts), and None for each choice rejected on the way.

    An in-splitting partitions the pointers (a, x) into each state b; each class is a
    new state, numbered by b and then by class, so b's copies are firsts[b] up to
    firsts[b+1].  Every copy of a leads along x to the class of (a, x), so the copies
    of a share the row rows[a], and the row merge folds them back onto a unless two
    states of `delta` get one row.  Only states whose rows in `delta` are equal can,
    and they are told apart or not once the last of their targets is split, so a
    choice is rejected there.  A choice not rejected always extends to a kept one
    (split each later state's pointers apart), so the search meets no dead branch.
    """
    k = len(delta)
    into = [0] * k
    slots = []  # slots[a][x]: (b, the index of (a, x) among the pointers into b)
    for row in delta:
        slot = []
        for b in row:
            slot.append((b, into[b]))
            into[b] += 1
        slots.append(slot)
    twins: dict = {}
    for a, row in enumerate(delta):
        twins.setdefault(row, []).append(a)
    settled = [[] for _ in range(k)]  # equal-row groups whose last target is b
    for row, group in twins.items():
        if len(group) > 1:
            settled[max(row)].append(group)
    picks = [()] * k  # picks[b]: the growth string that partitions b's pointers
    firsts = [0] * (k + 1)
    pending = [iter(())] * k  # pending[b]: b's growth strings not yet tried
    pending[0] = _growth_strings(into[0])

    def distinct(group) -> bool:
        return len({tuple([picks[b][j] for b, j in slots[a]]) for a in group}) == len(group)

    b = 0
    while b >= 0:
        pick = next(pending[b], None)
        if pick is None:
            b -= 1
            continue
        picks[b] = pick
        firsts[b + 1] = firsts[b] + max(pick) + 1
        if not all(map(distinct, settled[b])):
            yield None
        elif b + 1 < k:
            b += 1
            pending[b] = _growth_strings(into[b])
        else:
            rows = [tuple([firsts[t] + picks[t][j] for t, j in slot]) for slot in slots]
            yield rows, tuple(firsts)


def _de_bruijn_foldings(n: int, m: int) -> list[StatePartition]:
    """All foldings of G(n, m), sorted by class table, listed level by level from G(n, 0).

    Merging the equal rows of G(n, j)/P gives G(n, j-1)/pi(P), where u ~ u' under pi(P)
    iff ux ~ u'x under P for every letter x: the paper's synchronizing sequence.  So P
    is an in-splitting of G(n, j-1)/pi(P) that the row merge folds back onto it (see
    `_in_splits`), and each such in-splitting gives one folding, which puts the word ux,
    for u in class a, in class rows[a][x].  Every folding thus arises once, from its
    projection, with no dedupe.  The foldings of each level count against `LATTICE_CAP`,
    and so do its rejected choices, which bounds the work.  Each folding lifts at least
    to the one that splits every pointer apart, so counts only grow with the level and a
    refusal for too many foldings is truthful; level 1 alone has Bell(n) of them.
    """
    if bell(n) > LATTICE_CAP:
        raise CapExceededError("folding lattice cap exceeded")
    level = [(((0,) * n,), [0])]  # G(n, 0): the empty word, in a one-state automaton
    for length in range(1, m + 1):
        lifted = []
        rejected = 0
        for delta, words in level:
            for split in _in_splits(delta):
                if split is None:
                    rejected += 1
                else:
                    rows, firsts = split
                    table = [c for a in words for c in rows[a]]
                    if length == m:
                        lifted.append(table)
                    else:  # the split automaton: each copy of a has a's row
                        spans = zip(rows, firsts, firsts[1:])
                        split_delta = tuple(r for r, lo, hi in spans for _ in range(lo, hi))
                        lifted.append((split_delta, table))
                if len(lifted) > LATTICE_CAP or rejected > LATTICE_CAP:
                    raise CapExceededError("folding lattice cap exceeded")
        level = lifted
    return sorted((StatePartition.from_class_of(t) for t in level), key=lambda p: p.class_of)


def _closed_prefix(a: Automaton):
    """The prefix test of the exhaustive search.  rgs[:i+1] puts states 0..i in classes;
    it fails when some placed state s and the least state r of its class have targets
    on one letter that are both placed but in different classes.  Placed classes and
    their least states never change as the string grows, so no completion of a failed
    prefix is a folding, and at i = N-1 the test is exactly `is_folding`."""
    delta = a.delta

    def keep(rgs, i: int) -> bool:
        firsts: list[int] = []
        for s in range(i + 1):
            c = rgs[s]
            if c == len(firsts):
                firsts.append(s)
                continue
            row, rep_row = delta[s], delta[firsts[c]]
            if row != rep_row:
                for t, u in zip(row, rep_row):
                    if t <= i and u <= i and rgs[t] != rgs[u]:
                        return False
        return True

    return keep


def _de_bruijn_length(a: Automaton) -> int | None:
    """m when A is G(n, m) in `de_bruijn`'s numbering, else None."""
    n, m, size = a.alphabet_size, 0, 1
    while size < a.state_count:
        size, m = size * n, m + 1
    if m == 0 or size != a.state_count or size * n > STATE_CAP:
        return None
    return m if a.delta == de_bruijn(n, m).delta else None


def enumerate_foldings(a: Automaton, method: str = "lattice") -> list[StatePartition]:
    """All foldings of A, sorted by class table.

    "exhaustive" walks the set partitions of the states as restricted growth strings,
    in lex order, and extends a prefix only while `_closed_prefix` passes it.  A cut
    prefix has no folding among its completions and the last test is `is_folding`, so
    it still finds every folding and nothing else, already sorted.  "lattice" lists the
    foldings of G(n, m), in `de_bruijn`'s numbering, level by level down the row-merge
    sequence; for any other automaton it lists the lattice breadth first by a worklist,
    a list of foldings that starts at the discrete partition and grows while it is read,
    joining each folding in it with each principal congruence.  Each distinct principal
    keeps the first pair p < q, in lex order, that generates it, and the join is the
    closure of the found folding with that pair alone, not `join_foldings` with the
    whole principal.  That join depends only on the found folding's classes of p and
    q, so each found folding is closed once per unordered class pair: a generator whose
    pair lies in one class is skipped, as its join is the folding itself, and so is one
    whose class pair was already closed, as its join repeats that one.  Skipped joins
    were found already, so the worklist grows in the same order and meets the cap at
    the same point.  Either way it counts every folding, the discrete partition
    included, against `LATTICE_CAP` and refuses past it.  Both methods include the
    discrete partition.
    """
    if method == "exhaustive":
        if a.state_count > EXHAUSTIVE_STATE_CAP:
            raise CapExceededError("exhaustive folding enumeration capped at 12 states")
        found = []
        for rgs in _growth_strings(a.state_count, _closed_prefix(a)):
            found.append(StatePartition(rgs, max(rgs) + 1))
            if len(found) > LATTICE_CAP:
                raise CapExceededError("folding lattice cap exceeded")
        return found
    if method != "lattice":
        raise ValueError(f"unknown method {method!r}")
    m = _de_bruijn_length(a)
    if m is not None:
        return _de_bruijn_foldings(a.alphabet_size, m)

    m = a.state_count
    generators: dict = {}  # each principal congruence's first pair p < q, in lex order
    for p, q in combinations(range(m), 2):
        generators.setdefault(congruence_closure(a, [(p, q)]).class_of, (p, q))
    found = [StatePartition.discrete(m)]
    seen = {found[0].class_of}
    for part in found:  # breadth first: `found` grows while it is read
        class_of = part.class_of
        tried = set()  # unordered class pairs already closed from `part`
        for p, q in generators.values():
            cp, cq = class_of[p], class_of[q]
            pair = (cp, cq) if cp < cq else (cq, cp)
            if cp == cq or pair in tried:
                continue  # the join is `part` itself, or one already made
            tried.add(pair)
            join = _close(a, part, [(p, q)])
            if join.class_of not in seen:
                if len(seen) >= LATTICE_CAP:
                    raise CapExceededError("folding lattice cap exceeded")
                seen.add(join.class_of)
                found.append(join)
    return sorted(found, key=lambda p: p.class_of)
