"""Local window rules and their bridge to transducers on de Bruijn graphs.

A rule maps each window of `window` consecutive letters to one output letter.
Sliding it along a sequence realizes the induced map; infinite sequences are
only ever handled through finite windows and periodic words.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import (
    CapExceededError,
    STATE_CAP,
    Word,
    all_words,
    de_bruijn,
    forced_states,
    parse_word,
    require_sync_level,
    word_rank,
)
from .transducers import Transducer


@dataclass(frozen=True)
class LocalRule:
    """Table over all windows of a fixed length, in lexicographic domain order."""

    alphabet_size: int
    window: int
    table: tuple[int, ...]

    def __post_init__(self):
        n = self.alphabet_size
        if n < 2:
            raise ValueError("alphabet size must be at least 2")
        if self.window < 1:
            raise ValueError("window must be at least 1")
        # n >= 2, so n**window passes the table length once window passes its bit length
        if self.window > len(self.table).bit_length():
            raise ValueError(f"table needs more than {len(self.table)} entries")
        if len(self.table) != n**self.window:
            raise ValueError(f"table needs {n ** self.window} entries")
        for y in self.table:
            if not 0 <= y < n:
                raise ValueError(f"output letter {y} out of range")

    def value(self, w) -> int:
        word = parse_word(w, self.alphabet_size)
        if len(word) != self.window:
            raise ValueError("window length mismatch")
        return self.table[word_rank(word, self.alphabet_size)]


def apply_windows(f: LocalRule, x) -> Word:
    """Slide f along x; one output letter per window position."""
    word = parse_word(x, f.alphabet_size)
    m = f.window
    if len(word) < m:
        raise ValueError(f"input of length {len(word)} is shorter than the window {m}")
    n = f.alphabet_size
    out = []
    rank = word_rank(word[: m - 1], n)
    modulus = n ** (m - 1)
    for c in word[m - 1 :]:
        rank = rank * n + c
        out.append(f.table[rank])
        rank %= modulus
    return tuple(out)


def extend(f: LocalRule, k: int) -> LocalRule:
    """Widen the window by k; the new leftmost letters are ignored."""
    if k < 0:
        raise ValueError("extension must be non-negative")
    if k == 0:
        return f
    n = f.alphabet_size
    # n >= 2, so a width past the cap's bit length is refused before n**width is formed
    if f.window + k >= STATE_CAP.bit_length() or n ** (f.window + k) > STATE_CAP:
        raise CapExceededError("extended rule table would exceed the size cap")
    table = tuple(f.table[r] for _ in range(n**k) for r in range(len(f.table)))
    return LocalRule(n, f.window + k, table)


def compose(f: LocalRule, g: LocalRule) -> LocalRule:
    """Rule realizing "apply f, then g"; window sizes add minus one."""
    if f.alphabet_size != g.alphabet_size:
        raise ValueError("alphabet sizes differ")
    n = f.alphabet_size
    window = f.window + g.window - 1
    if n**window > STATE_CAP:
        raise CapExceededError("composed rule table would exceed the size cap")
    table = []
    for w in all_words(n, window):
        table.append(g.value(apply_windows(f, w)))
    return LocalRule(n, window, tuple(table))


def rule_to_transducer(f: LocalRule) -> Transducer:
    """Machine on G(n, window-1) whose output applies f to the letters read."""
    if f.window < 2:
        f = extend(f, 2 - f.window)
    n = f.alphabet_size
    m = f.window - 1
    base = de_bruijn(n, m)
    output = tuple(
        tuple(f.table[s * n + x] for x in range(n)) for s in range(base.state_count)
    )
    return Transducer(base, output)


def transducer_to_rule(t: Transducer) -> LocalRule:
    """Window-(k+1) rule recovering the machine's sliding action (k its sync level):
    the outputs of each state in the `forced_states` table, concatenated."""
    k = require_sync_level(t.base, "transducer", core=True)
    table = tuple(y for q in forced_states(t.base) for y in t.output[q])
    return LocalRule(t.alphabet_size, k + 1, table)