"""Synchronous transducers (Mealy machines emitting one letter per letter read).

The monoid operation is `product_min`: the core of the state product, built
directly from a forced pair of states, then identification of states that
behave identically on all inputs.  `product_raw` builds the whole state
product and is the reference that `product_min` must agree with.  Machine
equality throughout is "canonical key of the weakly minimal core
representative", which makes the usual convention of not distinguishing
behaviourally equal machines executable.

Products are the one large-scale path (`order` forms each power of an element
with one), so the work per state of the product walks and of the Moore
refinement runs in C builtins (`map`, `zip`, `itemgetter`, `dict.fromkeys`)
rather than in Python loops over letters.  There are two walks.
`product_min` visits pairs of states one at a time and numbers them by raw
index, which fixes the bytes `product` writes.  `order` holds each power as
per-letter columns and walks the core of its small base times the last power
block by block (one set of power states per base state), mapping a whole
block through one column at a time.  It refines that core only once it
passes the state cap, with a refinement that stops once the class count
passes the cap, so a power past it is never fully minimized, and no power is
built as a machine.  That cap is `order`'s alone: every other product,
`subgroup_closure`'s included, is a whole `product_min`.

Inputs are checked where they come in: the `Transducer` and `Automaton`
constructors check every table entry, and `is_in_hn` checks group
membership.  Tables this module builds from checked ones (products, cores,
minimized machines, inverses and canonical representatives) are trusted and
skip the constructor check.  Each product carries a bound on its sync level,
the sum of its operands' levels, which minimizing and renumbering keep; a
later `product_min` walks by that bound instead of analysing the machine
again.  Operands the library did not build are analysed as before.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count, repeat
from math import ceil
from operator import add, itemgetter

from .automata import (
    Automaton,
    Word,
    _trusted,
    core_of,
    is_core,
    least_encoding,
    parse_word,
    require_sync_level,
    sync_level,
)

# Largest element, in states, that `order` and `subgroup_closure` accept.
ELEMENT_STATE_CAP = 10_000


@dataclass(frozen=True)
class Transducer:
    """An automaton plus a single-letter output table output[state][letter]."""

    base: Automaton
    output: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.base.alphabet_size
        if len(self.output) != self.base.state_count:
            raise ValueError("output table does not match state count")
        for q, row in enumerate(self.output):
            if len(row) != n:
                raise ValueError(f"state {q}: output row has wrong length")
            for y in row:
                if not 0 <= y < n:
                    raise ValueError(f"state {q}: output letter {y} out of range")

    @property
    def alphabet_size(self) -> int:
        return self.base.alphabet_size

    @property
    def state_count(self) -> int:
        return self.base.state_count

    def run(self, word, state: int) -> tuple[int, Word]:
        """Final state and output word after reading `word` from `state`."""
        out = []
        for c in parse_word(word, self.alphabet_size):
            out.append(self.output[state][c])
            state = self.base.delta[state][c]
        return state, tuple(out)


def _machine(n: int, delta, output, bound: int | None = None) -> Transducer:
    """A Transducer on tables the library built, its base tagged with `bound` on its sync level."""
    base = _trusted(Automaton, alphabet_size=n, delta=delta, _sync_bound=bound)
    return _trusted(Transducer, base=base, output=output)


def _known_bound(a: Automaton) -> int | None:
    """A bound on A's sync level known without analysis: the exact level once computed, else
    the bound the library tagged A with, else None."""
    known = vars(a)
    level = known.get("_sync_level")
    return level if level is not None else known.get("_sync_bound")


def _level_bound(a: Automaton) -> int | None:
    """`_known_bound`, else the exact `sync_level` (None when A does not synchronize)."""
    bound = _known_bound(a)
    return sync_level(a) if bound is None else bound


def identity_transducer(n: int) -> Transducer:
    return single_state(tuple(range(n)))


def single_state(perm) -> Transducer:
    """The one-state machine applying a fixed alphabet permutation."""
    perm = tuple(perm)
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError("output table is not a permutation of the alphabet")
    return Transducer(Automaton(n, (tuple(0 for _ in range(n)),)), (perm,))


def product_raw(t: Transducer, u: Transducer) -> Transducer:
    """State-product machine feeding T's output into U (apply T first)."""
    if t.alphabet_size != u.alphabet_size:
        raise ValueError("alphabet sizes differ")
    n = t.alphabet_size
    mu = u.state_count
    delta = []
    output = []
    for p in range(t.state_count):
        for q in range(mu):
            drow = []
            orow = []
            for x in range(n):
                y = t.output[p][x]
                drow.append(t.base.delta[p][x] * mu + u.base.delta[q][y])
                orow.append(u.output[q][y])
            delta.append(tuple(drow))
            output.append(tuple(orow))
    return Transducer(Automaton(n, tuple(delta)), tuple(output))


def core(t: Transducer) -> Transducer:
    """Restriction to the forced-state image of the underlying automaton."""
    base, kept = core_of(t.base)
    return _trusted(Transducer, base=base, output=tuple(t.output[q] for q in kept))


def _refine(delta, output, cap: int):
    """Moore refinement of the tables of a machine: the merged machine's (delta, output), the
    given tables themselves when no two states merge, or None once the class count passes
    `cap`.  The count only grows from round to round, so None means exactly that the merged
    machine has more than `cap` states.

    Round 1 labels each state by its output row; each later round labels it by its class and
    its successors' classes, read off the transposed transition columns, which are formed
    only when a second round is needed.  Labels are numbered by first occurrence, so the
    first round that splits no class is the merged machine: each class then has exactly one
    label, so every state of class c has the same successor classes (the classes form a
    folding), and the labels arrive in class order 0, 1, ..., so label c with its class
    dropped is row c of the merged transition table.  States of one class share their output
    row, which the first round grouped them by.  A round that gives every state its own class
    ends the refinement with no merge: first-occurrence numbering then numbers state q as
    class q, so the merged machine would equal the given one.
    """
    m = len(output)
    labels = dict.fromkeys(output)
    keys = output
    cols = None
    while True:
        count = len(labels)
        if count > cap:
            return None
        if count == m:
            return delta, output
        cls = list(map(dict(zip(labels, range(count))).__getitem__, keys))
        if cols is None:
            cols = tuple(zip(*delta))
        # each state's class, then its successors' classes: one mapped column per letter
        keys = list(zip(cls, *map(map, repeat(cls.__getitem__), cols)))
        labels = dict.fromkeys(keys)
        if len(labels) == count:
            rows = map(itemgetter(slice(1, None)), labels)  # each label with its class dropped
            return tuple(rows), tuple(dict(zip(cls, output)).values())


def weak_minimize(t: Transducer) -> Transducer:
    """Merge states that output the same word on every input (Moore refinement, see
    `_refine`); T itself when no two states merge.  Merging never raises the sync level, so
    the merged machine keeps T's known bound on it."""
    delta, output = _refine(t.base.delta, t.output, t.state_count)
    if output is t.output:
        return t
    return _machine(t.alphabet_size, delta, output, _known_bound(t.base))


def minimal_rep(t: Transducer) -> Transducer:
    """The weakly minimal core representative (requires strong synchronization).

    A core machine is its own core, so it is minimized without a copy.
    """
    return weak_minimize(t if is_core(t.base) else core(t))


def _core_tables(t: Transducer, u: Transducer):
    """(delta, output, bound) of the core of `product_raw(t, u)`, built directly.

    The product synchronizes within the sum of its factors' levels, so reading that many
    zeros from the pair (0, 0) reaches a forced pair, and the pairs reachable from it are
    exactly the core.  Pair (p, q) keeps its raw index p * |U| + q and the visited indices
    are sorted, so the core is numbered as `core(product_raw(t, u))` numbers it.  Any walk at
    least as long as the product's level reaches the same pair, so an operand's known bound
    serves as its level (see `_level_bound`), and the sum of the two is the core's bound.

    Each pair's rows are formed by C builtins: T's output row at p, as an `itemgetter`, picks
    U's successors and outputs on it at q, and T's successors, multiplied by |U| once per
    call, are added to the successors.  The sorted indices are renumbered in one pass over
    the flattened rows, which are cut back into rows of |X| entries.
    """
    kt, ku = _level_bound(t.base), _level_bound(u.base)
    if kt is None or ku is None:
        raise ValueError("product_min operands must be strongly synchronizing")
    if t.alphabet_size != u.alphabet_size:
        raise ValueError("alphabet sizes differ")
    mu = u.state_count
    t_delta, t_out, u_delta, u_out = t.base.delta, t.output, u.base.delta, u.output
    p = q = 0
    for _ in range(kt + ku):
        p, q = t_delta[p][0], u_delta[q][t_out[p][0]]
    t_raw = [tuple([r * mu for r in row]) for row in t_delta]
    t_pick = [itemgetter(*row) for row in t_out]  # picks a tuple: there are 2 or more letters
    start = p * mu + q
    rows = {start: None}
    outs = {}
    visit = [start]
    for s in visit:
        p, q = divmod(s, mu)
        pick = t_pick[p]
        row = rows[s] = tuple(map(add, t_raw[p], pick(u_delta[q])))
        outs[s] = pick(u_out[q])
        for r in row:
            if r not in rows:
                rows[r] = None
                visit.append(r)
    kept = sorted(rows)
    index = dict(zip(kept, range(len(kept))))
    flat = map(index.__getitem__, chain.from_iterable(map(rows.__getitem__, kept)))
    delta = tuple(zip(*[flat] * t.alphabet_size))
    return delta, tuple(map(outs.__getitem__, kept)), kt + ku


def product_min(t: Transducer, u: Transducer) -> Transducer:
    """The monoid product: the core of `product_raw(t, u)`, walked directly from a forced
    pair (see `_core_tables`), weakly minimized; the very machine `minimal_rep(product_raw(t,
    u))` gives.  It carries the sum of its operands' sync-level bounds as its own bound."""
    delta, output, bound = _core_tables(t, u)
    return weak_minimize(_machine(t.alphabet_size, delta, output, bound))


def is_invertible(t: Transducer) -> bool:
    n = t.alphabet_size
    return all(sorted(row) == list(range(n)) for row in t.output)


def invert(t: Transducer) -> Transducer:
    """Switch inputs and outputs on all transitions."""
    n = t.alphabet_size
    if not is_invertible(t):
        raise ValueError("some output row is not a permutation; not invertible")
    delta = []
    output = []
    for q in range(t.state_count):
        inverse = [0] * n
        for x, y in enumerate(t.output[q]):
            inverse[y] = x
        delta.append(tuple(t.base.delta[q][inverse[y]] for y in range(n)))
        output.append(tuple(inverse))
    return _machine(n, tuple(delta), tuple(output))


def bisync_levels(t: Transducer) -> tuple[int, int] | None:
    """(j, k) when T and its inverse are synchronizing at levels j and k."""
    if not is_invertible(t):
        return None
    j = sync_level(t.base)
    if j is None:
        return None
    k = sync_level(invert(t).base)
    if k is None:
        return None
    return (j, k)


def _hn_member(t: Transducer) -> tuple[Transducer, tuple[int, int]] | None:
    """(`weak_minimize(t)`, `bisync_levels(t)`) when T is a core invertible bisynchronizing
    machine, else None.

    A member's minimization is core, so it is T's minimal core representative up to the
    numbering of its states: `minimal_rep(t)` itself whenever T is core.
    """
    levels = bisync_levels(t)
    if levels is None:
        return None
    reduced = weak_minimize(t)
    return (reduced, levels) if is_core(reduced.base) else None


def is_in_hn(t: Transducer) -> bool:
    """Membership in the group of core invertible bisynchronizing machines."""
    return _hn_member(t) is not None


def hn_levels(t: Transducer) -> tuple[int, int] | None:
    """`bisync_levels(t)` when T is in H_n, else None: the membership test and the levels
    from one analysis of T and its inverse."""
    member = _hn_member(t)
    return None if member is None else member[1]


def canonical_key(t: Transducer) -> bytes:
    """Renaming-invariant encoding of the machine including its outputs.

    `least_encoding` packs each value as 4 bytes big-endian, so keys compare
    as bytes exactly as their value lists do; `subgroup_closure` relies on
    that order to list elements by (state count, key).
    """
    return b"T" + least_encoding(t.base.delta, t.output)[0]


def canonical_rep(t: Transducer) -> Transducer:
    """Minimal core representative, renumbered by its least BFS encoding.

    Behaviourally equal machines map to identical objects, so canonical
    representatives can serve as dictionary keys.
    """
    return renumber(minimal_rep(t))


def renumber(t: Transducer) -> Transducer:
    """`canonical_rep` of a machine that is already weakly minimal and core, such as a
    `product_min` result, without minimizing it again: T renumbered by its least BFS
    encoding.  Renumbering keeps the sync level, so T's known bound on it is kept."""
    _, order = least_encoding(t.base.delta, t.output)
    old_of = sorted(range(len(order)), key=order.__getitem__)
    delta = tuple(tuple(order[s] for s in t.base.delta[old]) for old in old_of)
    output = tuple(t.output[old] for old in old_of)
    return _machine(t.alphabet_size, delta, output, _known_bound(t.base))


def equal_omega(t: Transducer, u: Transducer) -> bool:
    """Do the machines induce the same maps?  Compared on minimal core forms."""
    if t.alphabet_size != u.alphabet_size:
        return False
    return canonical_key(minimal_rep(t)) == canonical_key(minimal_rep(u))


def apply_periodic(t: Transducer, period) -> Word:
    """One output period of the sliding action on the periodic input extension.

    Synchronizes by reading whole repetitions of the period first, so the
    forced-state history window behind position 0 always exists.
    """
    k = require_sync_level(t.base, "transducer", core=True)
    w = parse_word(period, t.alphabet_size)
    if not w:
        raise ValueError("period must be nonempty")
    reps = max(1, ceil(k / len(w)))
    state = 0
    for _ in range(reps):
        state, _ = t.run(w, state)
    _, out = t.run(w, state)
    return out


def _power_blocks(moves, nxt, p: int, q: int) -> list[set[int]]:
    """The core of T times a power P, walked from its forced pair (p, q), as one block per
    state of T: the set of P's states paired with it.

    `moves[p]` lists T's (successor, output letter) at state p for each letter, and
    `nxt[y][q]` is P's successor of state q on letter y.  The states newly found in block p
    move to block `moves[p][x][0]` through the one column `nxt[moves[p][x][1]]`, a whole
    batch per C-level `map`, and states found while a block waits join its pending batch.
    """
    blocks = [set() for _ in moves]
    blocks[p].add(q)
    pending = {p: {q}}
    while pending:
        p, new = pending.popitem()
        for p2, y in moves[p]:
            fresh = set(map(nxt[y].__getitem__, new))
            fresh -= blocks[p2]
            if fresh:
                blocks[p2] |= fresh
                if p2 in pending:
                    pending[p2] |= fresh
                else:
                    pending[p2] = fresh
    return blocks


def order(t: Transducer, cap_states: int = ELEMENT_STATE_CAP, cap_iters: int = 1_000) -> int | None:
    """Least k with T^k the identity under the monoid product; None past the caps.

    T is minimized once, for both the membership test and the base of the powers, and k = 1
    is tested on the base's rows.  A one-state base is a permutation of the letters, and its
    powers are its row's powers; the block walk gives the same answers, but without this
    branch `order` of a 5-letter permutation of order 6 took 54 instead of 14 µs, and
    `subgroup-ag` on a cyclic group of 1,260 one-state elements, each up to 1,260 powers,
    took 16.9 instead of 1.3 s (2 vCPU, Python 3.11.7).  Otherwise, since powers commute,
    T^k is the core of T times T^(k-1), walked from a forced pair with the small base T
    leading (see `_power_blocks`): the core is one block of power states per state of T.
    The power is held as per-letter successor columns, so the walk and the next columns map
    a whole block through one column at a time, and as one output row per state, so the
    identity test is one `count`.  The core is numbered block by block, with no sort, and
    no power is built as a machine.  T^k is the identity exactly when every state of that core
    outputs the identity row, so the core needs no minimizing for the test, and its
    successors are read only when it fails.  A core of at most `cap_states` states cannot
    minimize past the cap, so it is kept as it is; a bigger one is refined with the cap
    (see `_refine`), which stops once its class count passes it.  So None means that the
    order exceeds `cap_iters`, or that some minimal power T^j with j >= 2 has more than
    `cap_states` states: one short of the identity, or any at `cap_states=0`.  Powers of
    infinite-order elements, which grow without bound, trip the state cap.  The base T^1 is
    not held to the cap: a 4-state involution has order 2 even at `cap_states=1`.  A state
    cap above `ELEMENT_STATE_CAP` and a negative cap are refused with ValueError before any
    product is formed.

    `product_min` keeps its own walk (`_core_tables`), since the two walks serve different
    operand shapes.  Its numbering by sorted raw index fixes the bytes `product` writes,
    and a blocked walk in its place, keeping that numbering, measured 1.6 to 2.3 times as
    slow on its operands (many small products, and big machines times small ones), whose
    blocks hold few states.  The blocks of a power are big.
    """
    if cap_states < 0:
        raise ValueError(f"order state cap {cap_states} is negative")
    if cap_iters < 0:
        raise ValueError(f"order iteration cap {cap_iters} is negative")
    if cap_states > ELEMENT_STATE_CAP:
        raise ValueError(f"order state cap {cap_states} exceeds the limit of {ELEMENT_STATE_CAP}")
    member = _hn_member(t)
    if member is None:
        raise ValueError("order is defined only for invertible bisynchronizing machines")
    base = member[0]
    delta, output = base.base.delta, base.output
    ident = tuple(range(t.alphabet_size))
    if output.count(ident) == len(output):
        return 1 if cap_iters else None
    if not cap_states:
        return None  # every power past T^1 has a state
    if len(output) == 1:  # a permutation of the letters, whose powers have one state each
        row = perm = output[0]
        for k in range(2, cap_iters + 1):
            row = tuple(map(row.__getitem__, perm))
            if row == ident:
                return k
        return None
    moves = list(map(tuple, map(zip, delta, output)))
    picks = [itemgetter(*row) for row in output]  # two or more letters: each picks a tuple
    nxt = tuple(zip(*delta))
    # reading zeros long enough forces a pair of the core: T settles on the state `start`
    # that letter 0 fixes, outputting `letter` there, and the power on the state it fixes
    start = 0
    while delta[start][0] != start:
        start = delta[start][0]
    letter = output[start][0]
    for k in range(2, cap_iters + 1):
        q, step = 0, nxt[letter]
        while step[q] != q:
            q = step[q]
        blocks = _power_blocks(moves, nxt, start, q)
        rows = output.__getitem__
        output = []
        for pick, block in zip(picks, blocks):  # (p, q) outputs q's row read through p's
            output += map(pick, map(rows, block))
        if output.count(ident) == len(output):
            return k
        number = count()  # zip stops at the end of a block before it draws a number
        rank = [dict(zip(block, number)).__getitem__ for block in blocks]
        cols = [col.__getitem__ for col in nxt]
        nxt = [[] for _ in cols]
        # on letter x, (p, q) goes to (p2, q's successor on y), where moves[p][x] = (p2, y)
        for block, move in zip(blocks, moves):
            if block:
                for col, (p2, y) in zip(nxt, move):
                    col += map(rank[p2], map(cols[y], block))
        if len(output) > cap_states:
            merged = _refine(tuple(zip(*nxt)), output, cap_states)
            if merged is None:
                return None
            nxt, output = tuple(zip(*merged[0])), merged[1]
    return None
