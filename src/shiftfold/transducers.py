"""Synchronous transducers (Mealy machines emitting one letter per letter read).

The monoid operation is `product_min`: the core of the state product, built
directly from a forced pair of states, then identification of states that
behave identically on all inputs.  `product_raw` builds the whole state
product and is the reference that `product_min` must agree with.  Machine
equality throughout is "canonical key of the weakly minimal core
representative", which makes the usual convention of not distinguishing
behaviourally equal machines executable.  That key and the canonical
renumbering both read one breadth-first search from the machine's only
0-fixed state (`_encoding`).

Products are the one large-scale path (`order` forms each power of an element
with one), so the work per state of the product walks and of the Moore
refinement runs in C builtins (`map`, `zip`, `itemgetter`, `dict.setdefault`)
rather than in Python loops over letters.  There are two walks.
`product_min` visits pairs of states one at a time and numbers them by raw
index, which fixes the bytes `product` writes.  `order` holds each power as
per-letter columns plus one interned output-row id per state, and walks the
core of its small base times the last power block by block (one set of power
states per base state).  Batches of newly found states wait per base state
and are swept round-robin, each moving as a set through one column at a time.
The base's rows are interned before the first power, and every power state's
row id is read from its base state's table, which interns rows as they are met.
The refinement (`_refine`) works on such columns and ids, so `order` refines a
core past the state cap as walked, stopping once the class count passes the
cap: a power past it is never fully minimized, and none is built as a
machine.  Every other product is a whole `product_min`.

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
from itertools import chain, count, filterfalse, islice, repeat
from math import ceil
from operator import add, eq, itemgetter

from .automata import (
    Automaton,
    Word,
    _trusted,
    core_of,
    is_core,
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


def _refine(cols, output, cap: int):
    """Moore refinement of a machine given as per-letter successor columns (`cols[x][q]` is
    state q's successor on letter x) and output rows, or any labels equal exactly when the
    rows are, as `order`'s row ids: the merged machine's (columns, output rows), the given
    objects themselves when no two states merge, or None once the class count passes `cap`.
    The count only grows from round to round, so None means exactly that the merged
    machine has more than `cap` states.

    Round 1 labels each state by its output row, each later round by its class and its
    successors' classes, one mapped column per letter.  A round is one C-level pass of
    `setdefault`, which hashes each label once and names each class by its least state.  In
    the first round that splits no class, every state of a class has the same successor
    classes (the classes form a folding), so the round holds one label per class, in the
    order of the classes' least states.  Numbering the classes 0, 1, ... in that order (the
    first-occurrence numbering) turns the labels' columns into the merged machine's.
    """
    m = len(output)
    keys, count = output, 0
    while True:
        labels = {}
        cls = list(map(labels.setdefault, keys, range(m)))  # each state's class: its least state
        if len(labels) == count:
            reps, *merged = zip(*labels)
            number = repeat(dict(zip(reps, range(count))).__getitem__)
            return tuple(map(tuple, map(map, number, merged))), tuple(map(output.__getitem__, reps))
        count = len(labels)
        if count > cap:
            return None
        if count == m:
            return cols, output
        keys = zip(cls, *map(map, repeat(cls.__getitem__), cols))


def weak_minimize(t: Transducer) -> Transducer:
    """Merge states that output the same word on every input (`_refine` on T's columns); T
    itself when no two states merge, as when its output rows differ, which is tested before
    the transpose.  Merging never raises the sync level, so T's known bound on it is kept."""
    output = t.output
    m = len(output)
    if len(set(output)) == m:
        return t
    cols, merged = _refine(tuple(zip(*t.base.delta)), output, m)
    if merged is output:
        return t
    return _machine(t.alphabet_size, tuple(zip(*cols)), merged, _known_bound(t.base))


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


def _encoding(t: Transducer) -> list[int]:
    """The canonical encoding of T: n and m, then, state by state in the order in which a
    breadth-first search reading letters 0..n-1 from T's only 0-fixed state first visits
    them, the state's renamed transition row and its output row.

    In a core strongly synchronizing machine of sync level k, a state that letter 0 fixes is
    where 0^k leads from it, so it is the state 0^k forces: there is exactly one.  Every
    state is forced, so it reaches them all.  Renaming T's states renames its 0-fixed state too and keeps the
    letters, so the search visits the same states in the same order and the list does not
    depend on state names.  Any other root's list starts with a 1 after n and m, where this
    one starts with 0, so it is the least list over all roots that reach every state.  A
    machine without exactly one 0-fixed state, or whose 0-fixed state misses a state, is
    refused with ValueError.
    """
    delta, output = t.base.delta, t.output
    m = len(delta)
    fixed = list(map(eq, map(itemgetter(0), delta), range(m)))
    if fixed.count(True) != 1:
        raise ValueError(f"letter 0 fixes {fixed.count(True)} states, not one; cannot canonicalize")
    root = fixed.index(True)
    order = [-1] * m
    order[root] = 0
    visit = [root]
    flat = [t.alphabet_size, m]
    for q in visit:
        for s in delta[q]:
            if order[s] < 0:
                order[s] = len(visit)
                visit.append(s)
            flat.append(order[s])
        flat += output[q]
    if len(visit) < m:
        raise ValueError("the state letter 0 fixes misses a state; cannot canonicalize")
    return flat


def canonical_key(t: Transducer) -> bytes:
    """Renaming-invariant key of a core strongly synchronizing machine including its
    outputs: its `_encoding`, each value packed as 4 bytes big-endian.

    Fixed-width big-endian bytes compare exactly like the lists they pack, a proper prefix
    first, so keys compare as bytes exactly as their lists do; `subgroup_closure` relies on
    that order to list elements by (state count, key).
    """
    return b"T" + b"".join(v.to_bytes(4, "big") for v in _encoding(t))


def canonical_rep(t: Transducer) -> Transducer:
    """Minimal core representative, renumbered in the order its `_encoding` visits states.

    Behaviourally equal machines map to identical objects, so canonical
    representatives can serve as dictionary keys.
    """
    return renumber(minimal_rep(t))


def renumber(t: Transducer) -> Transducer:
    """`canonical_rep` of a machine that is already weakly minimal and core, such as a
    `product_min` result, without minimizing it again: the renamed transition and output
    rows that T's `_encoding` lists, read back state by state.  Renumbering keeps the sync
    level, so T's known bound on it is kept."""
    rows = list(zip(*[islice(_encoding(t), 2, None)] * t.alphabet_size))
    return _machine(t.alphabet_size, tuple(rows[::2]), tuple(rows[1::2]), _known_bound(t.base))


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
    wait as one batch, `pending[p]`, which states found while it waits join.  The walk
    sweeps p = 0, 1, ... round-robin until no batch waits, and moves each batch to block
    `moves[p][x][0]` through the one column `nxt[moves[p][x][1]]`: a whole batch per C-level
    `map`, keeping the states that block lacks by one membership test each, so the cost
    follows the batch and not the block.  Sweeping lets batches grow while they wait: the
    117 walks of one `power_growth` pass (46,761 power states) move 2,590 batches, where
    taking the latest batch first moved 4,852.
    """
    blocks = [set() for _ in moves]
    blocks[p].add(q)
    pending = [None] * len(moves)
    pending[p] = {q}
    known = [block.__contains__ for block in blocks]
    cols = [col.__getitem__ for col in nxt]
    while any(pending):
        for p, new in enumerate(pending):
            if not new:
                continue
            pending[p] = None
            for p2, y in moves[p]:
                fresh = set(filterfalse(known[p2], map(cols[y], new)))
                if fresh:
                    blocks[p2] |= fresh
                    if pending[p2]:
                        pending[p2] |= fresh
                    else:
                        pending[p2] = fresh
    return blocks


class _RowIds(dict):
    """The output-row ids of one base state p in `order`: maps the id of a power state q's
    row to the id of (p, q)'s row, q's row read through p's output row (`pick`).  A missing
    id is computed on first use, and a row not met before is interned: appended to the
    call's shared list `rows` (id -> row) and numbered in its shared dict `ids` (row -> id).
    So the work is bounded by the (p, row) pairs actually met, not by the base's states
    times all rows."""

    __slots__ = ("pick", "rows", "ids")

    def __init__(self, pick, rows, ids):
        self.pick, self.rows, self.ids = pick, rows, ids

    def __missing__(self, r: int) -> int:
        rows = self.rows
        row = self.pick(rows[r])
        i = self[r] = self.ids.setdefault(row, len(rows))
        if i == len(rows):
            rows.append(row)
        return i


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
    a whole block through one column at a time, and as one output-row id per state.  The
    base's rows are interned before the first power, id 0 being the identity row, and pair
    (p, q) of every power reads its id from base state p's table (`_RowIds`) at q's id, so
    no row is built per power state, the identity test is one `count` of 0, and the
    refinement's first round hashes ints.  The core is numbered block by block, with no
    sort, and no power is built as a machine.  T^k is the identity exactly when every state
    of that core outputs the identity row, so the core needs no minimizing for the test, and
    its successors are read only when it fails.  A core of at most `cap_states` states cannot
    minimize past the cap, so it is kept as it is; a bigger one is refined with the cap in
    the columns just walked (see `_refine`), which stops once its class count passes it, and
    the merged columns are the next power's.  So None means that the order exceeds
    `cap_iters`, or that some minimal power T^j with j >= 2 has more than
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
    nxt = tuple(zip(*delta))
    # reading zeros long enough forces a pair of the core: T settles on the state `start`
    # that letter 0 fixes, outputting `letter` there, and the power on the state it fixes
    start = 0
    while delta[start][0] != start:
        start = delta[start][0]
    letter = output[start][0]
    rows = list(dict.fromkeys(chain((ident,), output)))  # id 0 is the identity
    ids = dict(zip(rows, count()))
    # two or more letters, so each itemgetter picks a tuple: (p, q) outputs q's row read
    # through p's
    tables = [_RowIds(itemgetter(*row), rows, ids) for row in output]
    output = list(map(ids.__getitem__, output))
    for k in range(2, cap_iters + 1):
        q, step = 0, nxt[letter]
        while step[q] != q:
            q = step[q]
        blocks = _power_blocks(moves, nxt, start, q)
        last = output.__getitem__
        output = []
        for table, block in zip(tables, blocks):  # (p, q)'s row id, from p's table at q's
            output += map(table.__getitem__, map(last, block))
        if output.count(0) == len(output):
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
            merged = _refine(nxt, output, cap_states)
            if merged is None:
                return None
            nxt, output = merged
    return None
