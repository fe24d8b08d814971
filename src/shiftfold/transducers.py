"""Synchronous transducers (Mealy machines emitting one letter per letter read).

The monoid operation is `product_min`: the core of the state product, built
directly from a forced pair of states, then identification of states that
behave identically on all inputs.  `product_raw` builds the whole state
product and is the reference that `product_min` must agree with.  Machine
equality throughout is "canonical key of the weakly minimal core
representative", which makes the usual convention of not distinguishing
behaviourally equal machines executable.

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
from math import ceil

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

# Largest element, in states, that `order` and `subgroup_closure` will form.
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


def shift_transducer(n: int) -> Transducer:
    """Reading x from state i outputs i and moves to state x."""
    if n < 2:
        raise ValueError("alphabet size must be at least 2")
    delta = tuple(tuple(range(n)) for _ in range(n))
    output = tuple(tuple(i for _ in range(n)) for i in range(n))
    return Transducer(Automaton(n, delta), output)


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


def weak_minimize(t: Transducer) -> Transducer:
    """Merge states that output the same word on every input (Moore refinement).

    Round 1 labels each state by its output row; each later round labels it by
    its class and its successors' classes, numbered by first occurrence.  The
    rounds stop at the first one that splits no class, and that round is the
    merged machine: each class then has exactly one label, so every state of
    class c has the same successor classes (the classes form a folding), and
    the labels arrive in class order 0, 1, ..., so label c with its class
    dropped is row c of the merged transition table.  States of one class
    share their output row, which the first round grouped them by.  A round
    that gives every state its own class ends the refinement with T itself:
    first-occurrence numbering then numbers state q as class q, so the merged
    machine would equal T.  Merging never raises the sync level, so the
    merged machine keeps T's known bound on it.
    """
    label: dict = {}
    cls = [label.setdefault(row, len(label)) for row in t.output]
    count = len(label)
    while count < t.state_count:
        label = {}
        get = cls.__getitem__
        refined = [
            label.setdefault((c, *map(get, row)), len(label))
            for c, row in zip(cls, t.base.delta)
        ]
        if len(label) == count:
            delta = tuple(key[1:] for key in label)
            output = tuple(dict(zip(cls, t.output)).values())
            return _machine(t.alphabet_size, delta, output, _known_bound(t.base))
        cls, count = refined, len(label)
    return t


def minimal_rep(t: Transducer) -> Transducer:
    """The weakly minimal core representative (requires strong synchronization).

    A core machine is its own core, so it is minimized without a copy.
    """
    return weak_minimize(t if is_core(t.base) else core(t))


def product_min(t: Transducer, u: Transducer) -> Transducer:
    """The monoid product: the core of `product_raw(t, u)`, weakly minimized.

    Only the core is built.  The product synchronizes within the sum of its
    factors' levels, so reading that many zeros from the pair (0, 0) reaches
    a forced pair, and the pairs reachable from it are exactly the core.
    Pair (p, q) keeps its raw index p * |U| + q and the visited indices are
    sorted, so the core is numbered as `core(product_raw(t, u))` numbers it.
    Any walk at least as long as the product's level reaches the same pair,
    so an operand's known bound serves as its level (see `_level_bound`),
    and the product carries the sum of the two as its own bound.
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
    start = p * mu + q
    rows = {start: None}
    visit = [start]
    for s in visit:
        p, q = divmod(s, mu)
        u_row = u_delta[q]
        row = tuple([r * mu + u_row[y] for r, y in zip(t_delta[p], t_out[p])])
        rows[s] = row
        for r in row:
            if r not in rows:
                rows[r] = None
                visit.append(r)
    kept = sorted(rows)
    index = {s: i for i, s in enumerate(kept)}
    delta = tuple(tuple(map(index.__getitem__, rows[s])) for s in kept)
    output = tuple(tuple(map(u_out[s % mu].__getitem__, t_out[s // mu])) for s in kept)
    return weak_minimize(_machine(t.alphabet_size, delta, output, kt + ku))


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


def is_in_hn(t: Transducer) -> bool:
    """Membership in the group of core invertible bisynchronizing machines."""
    return bisync_levels(t) is not None and is_core(weak_minimize(t).base)


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


def order(t: Transducer, cap_states: int = ELEMENT_STATE_CAP, cap_iters: int = 1_000) -> int | None:
    """Least k with T^k the identity under the monoid product; None past the caps.

    Each power is kept in minimal core form, so reaching the identity is a
    constant-time test; powers of infinite-order elements grow without bound
    and trip the state cap instead.
    """
    if not is_in_hn(t):
        raise ValueError("order is defined only for invertible bisynchronizing machines")
    base = minimal_rep(t)
    ident = tuple(range(t.alphabet_size))
    power = base
    for k in range(1, cap_iters + 1):
        if power.state_count == 1 and power.output[0] == ident:
            return k
        power = product_min(power, base)
        if power.state_count > cap_states:
            return None
    return None