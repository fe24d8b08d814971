"""Complete deterministic automata over X_n, de Bruijn graphs and their foldings.

States are dense integer indices.  De Bruijn states are the base-n values of
their defining words, so state order equals lexicographic word order.  All
values are immutable after construction and safe to share between threads.
An `Automaton` computes its synchronization analysis (sync level and core
states) on first use and keeps it; both are pure functions of the fields, so
two threads racing on a fresh automaton only compute the same value twice.

Tables are checked where they come in: the public constructors (`Automaton`,
`StatePartition`) and the parsers check every entry.  Tables the library
builds from checked ones (`quotient`, `core_of`, the machines that
`shiftfold.transducers` builds and the congruence closures of
`shiftfold.counting`) are trusted and built with `_trusted`, which skips that
check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

Word = tuple[int, ...]

STATE_CAP = 1_000_000


class CapExceededError(RuntimeError):
    """A configured size or search cap was hit (distinct from a negative verdict)."""


def parse_word(w, alphabet_size: int) -> Word:
    """Normalize a word given as a digit string or an iterable of ints."""
    letters = tuple(int(c) for c in w)
    for c in letters:
        if not 0 <= c < alphabet_size:
            raise ValueError(f"letter {c} outside alphabet of size {alphabet_size}")
    return letters


def all_words(n: int, length: int):
    """All words of the given length over X_n, in lexicographic order."""
    return product(range(n), repeat=length)


def word_rank(w: Word, n: int) -> int:
    r = 0
    for c in w:
        r = r * n + c
    return r


@dataclass(frozen=True)
class Automaton:
    """A complete deterministic automaton: delta[state][letter] -> state."""

    alphabet_size: int
    delta: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.alphabet_size
        if n < 2:
            raise ValueError("alphabet size must be at least 2")
        if not self.delta:
            raise ValueError("automaton needs at least one state")
        m = len(self.delta)
        for q, row in enumerate(self.delta):
            if len(row) != n:
                raise ValueError(f"state {q}: row has {len(row)} entries, expected {n}")
            for x, target in enumerate(row):
                if not 0 <= target < m:
                    raise ValueError(f"state {q}, letter {x}: target {target} out of range")

    @property
    def state_count(self) -> int:
        return len(self.delta)

    def run(self, word, state: int) -> int:
        """Final state after reading `word` from `state`."""
        for c in parse_word(word, self.alphabet_size):
            state = self.delta[state][c]
        return state

    @cached_property
    def _sync_level(self) -> int | None:
        """Index of the one-state term of the row-merge sequence, or None."""
        for level, (delta, _) in enumerate(merge_terms(self.delta)):
            if len(delta) == 1:
                return level
        return None

    @cached_property
    def _core(self) -> tuple[int, ...]:
        """Sorted states forced by words of length sync level (which must exist).

        Reading 0^k from state 0 forces a state, and the states reachable from
        a forced state are exactly the forced ones: reading v from the state
        forced by w gives the state forced by wv, which its last k letters force.
        """
        delta = self.delta
        q = 0
        for _ in range(self._sync_level):
            q = delta[q][0]
        seen = {q}
        visit = [q]
        for q in visit:
            for t in delta[q]:
                if t not in seen:
                    seen.add(t)
                    visit.append(t)
        return tuple(sorted(seen))


def _trusted(cls, **fields):
    """An instance of the frozen dataclass `cls` from fields the library built itself, without
    `__post_init__`'s check.  Extra fields land beside the dataclass fields and take no part
    in equality or hashing; `_sync_bound` tags an Automaton with a bound on its sync level."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _cap_de_bruijn(n: int, m: int) -> None:
    """Refuse G(n, m) past `STATE_CAP` transitions, n**(m+1), before anything is built."""
    # 2**(m+1) alone passes the cap once m reaches its bit length
    if m >= STATE_CAP.bit_length() or n ** (m + 1) > STATE_CAP:
        raise CapExceededError(
            f"de Bruijn graph G({n}, {m}) would have more than {STATE_CAP} transitions"
        )


def de_bruijn(n: int, m: int) -> Automaton:
    """The de Bruijn graph G(n, m): reading x from word a1..am leads to a2..am x."""
    if n < 2:
        raise ValueError("alphabet size must be at least 2")
    if m < 1:
        raise ValueError("word length must be at least 1")
    _cap_de_bruijn(n, m)
    size = n**m
    tail = n ** (m - 1)
    delta = tuple(tuple((s % tail) * n + x for x in range(n)) for s in range(size))
    return Automaton(n, delta)


@dataclass(frozen=True)
class StatePartition:
    """An equivalence relation on states, normalized by first occurrence."""

    class_of: tuple[int, ...]
    class_count: int

    def __post_init__(self):
        seen = -1
        for c in self.class_of:
            if c > seen + 1 or c < 0:
                raise ValueError("partition not normalized by first occurrence")
            seen = max(seen, c)
        if seen + 1 != self.class_count:
            raise ValueError("class_count does not match class indices")

    @classmethod
    def from_class_of(cls, labels) -> "StatePartition":
        """Build a normalized partition from any state -> label table."""
        remap: dict = {}
        out = []
        for label in labels:
            if label not in remap:
                remap[label] = len(remap)
            out.append(remap[label])
        return cls(tuple(out), len(remap))

    @classmethod
    def discrete(cls, state_count: int) -> "StatePartition":
        return cls(tuple(range(state_count)), state_count)

    def representatives(self) -> list[int]:
        """The least state of each class, indexed by class."""
        rep = [-1] * self.class_count
        for s, c in enumerate(self.class_of):
            if rep[c] == -1:
                rep[c] = s
        return rep

    def blocks(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.class_count)]
        for s, c in enumerate(self.class_of):
            out[c].append(s)
        return out


def is_folding(a: Automaton, p: StatePartition) -> bool:
    """True iff equivalent states always transition to equivalent states."""
    if len(p.class_of) != a.state_count:
        raise ValueError("partition does not match automaton state count")
    rep = p.representatives()
    for s, c in enumerate(p.class_of):
        r = rep[c]
        if r == s:
            continue
        for x in range(a.alphabet_size):
            if p.class_of[a.delta[s][x]] != p.class_of[a.delta[r][x]]:
                return False
    return True


def quotient(a: Automaton, p: StatePartition) -> Automaton:
    """The folded automaton A/p.  Requires p to be a folding of A."""
    if not is_folding(a, p):
        raise ValueError("partition is not a folding of the automaton")
    rep = p.representatives()
    delta = tuple(
        tuple(p.class_of[a.delta[rep[c]][x]] for x in range(a.alphabet_size))
        for c in range(p.class_count)
    )
    return _trusted(Automaton, alphabet_size=a.alphabet_size, delta=delta)


def row_merge_partition(a: Automaton) -> StatePartition:
    """Group states whose whole transition rows coincide."""
    return StatePartition.from_class_of(a.delta)


@dataclass(frozen=True)
class SyncSequence:
    """Iterated row-merge quotients, each with its partition of the original states."""

    terms: tuple[tuple[Automaton, StatePartition], ...]
    stabilization_index: int


def merge_terms(delta):
    """The row-merge sequence on plain arrays: yields (term delta, class_of).

    Term 0 is `delta` itself with every state in its own class.  Each next
    term identifies the states of the previous one whose rows coincide,
    numbered by first occurrence, and `class_of` maps each original state to
    its term state.  Merging equal rows is always a folding, so no term is
    checked.  Stops after the first term without equal rows.
    """
    class_of = list(range(len(delta)))
    while True:
        yield delta, class_of
        label: dict = {}
        merged = [label.setdefault(row, len(label)) for row in delta]
        if len(label) == len(delta):
            return
        delta = tuple(tuple(map(merged.__getitem__, row)) for row in label)
        class_of = [merged[c] for c in class_of]


def sync_sequence(a: Automaton) -> SyncSequence:
    n = a.alphabet_size
    terms = tuple(
        (a if i == 0 else Automaton(n, delta), StatePartition(tuple(class_of), len(delta)))
        for i, (delta, class_of) in enumerate(merge_terms(a.delta))
    )
    return SyncSequence(terms, len(terms) - 1)


def sync_level(a: Automaton) -> int | None:
    """Minimal j whose sync-sequence term has one state, or None."""
    return a._sync_level


def require_sync_level(a: Automaton, what: str = "automaton", core: bool = False) -> int:
    """sync_level(a), raising ValueError naming `what` unless A is strongly
    synchronizing and, when `core` is set, core."""
    k = a._sync_level
    if k is None:
        raise ValueError(f"{what} is not strongly synchronizing")
    if core and len(a._core) != a.state_count:
        raise ValueError(f"{what} is not core")
    return k


def sync_map(a: Automaton, w) -> int:
    """The state forced by w: every word of length at least the sync level drives
    every state to it, so it is the end of one run from state 0."""
    k = require_sync_level(a)
    word = parse_word(w, a.alphabet_size)
    if len(word) < k:
        raise ValueError(f"word of length {len(word)} cannot force a state at level {k}")
    return a.run(word, 0)


def forced_states(a: Automaton, level: int | None = None) -> list[int]:
    """The state forced by each word of length `level` (default: the sync level), in
    lexicographic word order; run from state 0, as any start forces the same state.
    The words are the states of G(n, level), so it is refused past that graph's cap."""
    k = require_sync_level(a)
    if level is None:
        level = k
    elif level < k:
        raise ValueError(f"automaton only synchronizes at level {k}, not {level}")
    _cap_de_bruijn(a.alphabet_size, level)
    table = [0]
    for _ in range(level):
        table = [t for q in table for t in a.delta[q]]
    return table


def core_states(a: Automaton) -> list[int]:
    require_sync_level(a)
    return list(a._core)


def core_of(a: Automaton) -> tuple[Automaton, tuple[int, ...]]:
    """Sub-automaton on the forced-state image, plus the injection into A's states."""
    require_sync_level(a)
    kept = a._core
    index = {old: new for new, old in enumerate(kept)}
    delta = tuple(
        tuple(index[a.delta[old][x]] for x in range(a.alphabet_size)) for old in kept
    )
    return _trusted(Automaton, alphabet_size=a.alphabet_size, delta=delta), kept


def is_core(a: Automaton) -> bool:
    require_sync_level(a)
    return len(a._core) == a.state_count


def folding_from_sync(a: Automaton, level: int | None = None) -> StatePartition:
    """The folding of G(n, level) whose quotient is A.

    Words are equivalent when they force the same state, read off the
    `forced_states` table.  `level` defaults to the minimal synchronizing level
    and may be any level A synchronizes at.
    """
    require_sync_level(a, core=True)
    return StatePartition.from_class_of(forced_states(a, level))


def least_encoding(delta, output=None) -> tuple[bytes, list[int]]:
    """Least BFS encoding over all root choices, and the old -> new order producing it.

    From each root, a breadth-first search reading letters 0..n-1 numbers the states in
    visit order.  The encoding is the list n, m followed, state by state in that order, by
    its renamed transition row and then its output row when `output` is given.  Roots that
    miss some state are skipped; ties keep the least root.  Requires every state to be
    reachable from at least one single state (true for any core strongly synchronizing
    automaton).  After n, m the list starts with 0 when letter 0 fixes the root, else 1, so
    0-fixed roots go first and, once one reaches every state, no other is tried.  In a core
    strongly synchronizing machine one suffices: the state 0^k forces is the only 0-fixed
    state, and it reaches every state.

    Only the least list is packed, each value as 4 bytes big-endian.  Fixed-width
    big-endian bytes compare exactly like the lists they pack, a proper prefix
    first, so byte order is list order; `subgroup_closure` orders elements by it.
    """
    m = len(delta)
    n = len(delta[0])
    best = best_order = None
    for root in sorted(range(m), key=lambda r: delta[r][0] != r):
        if best is not None and best[2] == 0 and delta[root][0] != root:
            break
        order = [-1] * m
        order[root] = 0
        visit = [root]
        flat = [n, m]
        for q in visit:
            for t in delta[q]:
                if order[t] == -1:
                    order[t] = len(visit)
                    visit.append(t)
                flat.append(order[t])
            if output is not None:
                flat.extend(output[q])
        if len(visit) == m and (best is None or flat < best):
            best, best_order = flat, order
    if best is None:
        raise ValueError("no state reaches the whole machine; cannot canonicalize")
    return b"".join(v.to_bytes(4, "big") for v in best), best_order
