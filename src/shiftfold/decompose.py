"""Torsion decomposition of invertible bisynchronizing machines.

Each step takes two states with identical transition rows, aligns their output
rows by a letter permutation, reads the inverse's row-merge terms (`merge_terms`)
for the first one where that permutation acts on parallel edges, and multiplies
by the machine glued from the resulting vertex-fixing automorphism.  State count
drops strictly, so a machine of size s factors through at most s - 1 steps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import Automaton, merge_search, merge_terms, row_merge_partition
from .digraph_aut import (
    DigraphAutomorphism,
    edge_count_matrix,
    involution_factors,
    perm_cycles,
    relabeling,
)
from .transducers import (
    Transducer,
    canonical_rep,
    equal_omega,
    invert,
    is_in_hn,
    order,
    product_min,
    renumber,
)


@dataclass(frozen=True)
class DecompositionStep:
    pair: tuple[int, int]
    alpha: tuple[int, ...]
    level_i: int
    factor: Transducer
    reduced: Transducer
    involutions: tuple[Transducer, ...] | None = None


@dataclass(frozen=True)
class Factorization:
    original: Transducer
    remainder: Transducer
    inverse_factors: tuple[Transducer, ...]
    steps: tuple[DecompositionStep, ...]


def find_collapsible_pair(t: Transducer) -> tuple[int, int]:
    """Lexicographically least pair of distinct states with equal transition rows: the
    first two states of the first row-merge block with two (blocks go by least state)."""
    if t.state_count <= 1:
        raise ValueError("single-state machine has no collapsible pair")
    for block in row_merge_partition(t.base).blocks():
        if len(block) > 1:
            return block[0], block[1]
    raise AssertionError("strongly synchronizing machine with >1 state must collapse")


def alignment_permutation(t: Transducer, p: int, q: int) -> tuple[int, ...]:
    """The letter permutation carrying q's output row onto p's."""
    if t.base.delta[p] != t.base.delta[q]:
        raise ValueError("states do not have equal transition rows")
    n = t.alphabet_size
    alpha = [-1] * n
    for x in range(n):
        alpha[t.output[q][x]] = t.output[p][x]
    if -1 in alpha or sorted(alpha) != list(range(n)):
        raise ValueError("output rows are not permutations; machine not invertible")
    if alpha == list(range(n)):
        raise ValueError("output rows are equal; machine is not weakly minimal")
    return tuple(alpha)


def find_factor(
    t: Transducer, p: int, q: int
) -> tuple[int, Automaton, DigraphAutomorphism, Transducer]:
    """Level, inverse-side term, vertex-fixing automorphism and glued machine.

    Reads the row-merge terms of the inverse's underlying automaton for the
    first one where [p] and [q] stay distinct while all edges from [q] within
    one alignment cycle have become parallel, and builds only that term.
    """
    alpha = alignment_permutation(t, p, q)
    cycles = perm_cycles(alpha)
    b = invert(t).base
    for i, (delta, class_of) in enumerate(merge_terms(b.delta)):
        cp, cq = class_of[p], class_of[q]
        if cp == cq:
            break
        if all(delta[cq][cycle[0]] == delta[cq][x] for cycle in cycles for x in cycle[1:]):
            term = Automaton(b.alphabet_size, delta)
            tau = relabeling(term, cq, alpha)
            return i, term, tau, Transducer(term, tau.edge_letters)
    raise AssertionError("no usable synchronizing-sequence term; input outside the group")


def _derive(t: Transducer, p: int, q: int, split: bool) -> tuple[int, Transducer, list | None]:
    """Level and glued factor collapsing p and q, plus its involution pieces if `split` (else
    None), glued unchecked as `relabeling` checked each; shared by `_step` and `verify`."""
    level, term, tau, h = find_factor(t, p, q)
    if not split:
        return level, h, None
    return level, h, [Transducer(term, x.edge_letters) for x in involution_factors(term, tau)]


def _step(t: Transducer, split: bool) -> tuple[DecompositionStep, Transducer]:
    p, q = find_collapsible_pair(t)
    level, h, pieces = _derive(t, p, q, split)
    reduced = renumber(product_min(t, h))
    if reduced.state_count >= t.state_count:
        raise AssertionError("decomposition step failed to shrink the machine")
    step = DecompositionStep(
        pair=(p, q),
        alpha=alignment_permutation(t, p, q),
        level_i=level,
        factor=canonical_rep(h),
        reduced=reduced,
        involutions=None if pieces is None else tuple(map(canonical_rep, pieces)),
    )
    return step, reduced


def decompose_step(t: Transducer) -> tuple[DecompositionStep, Transducer]:
    """One collapse of a pair of states: the step record and the smaller machine."""
    return _step(t, split=False)


def _decompose(t: Transducer, split: bool) -> Factorization:
    """Collapse pairs until one state is left; `split` splits each factor into involutions."""
    if not is_in_hn(t):
        raise ValueError("decomposition is defined on invertible bisynchronizing machines")
    original = canonical_rep(t)
    steps: list[DecompositionStep] = []
    current = original
    while current.state_count > 1:
        step, current = _step(current, split)
        steps.append(step)
    inverse_factors = tuple(
        canonical_rep(invert(machine))
        for step in reversed(steps)
        for machine in reversed(step.involutions if split else (step.factor,))
    )
    return Factorization(
        original=original,
        remainder=current,
        inverse_factors=inverse_factors,
        steps=tuple(steps),
    )


def decompose(t: Transducer) -> Factorization:
    """Write T as a single-state remainder times inverses of the step factors."""
    return _decompose(t, split=False)


def decompose_involutions(t: Transducer) -> Factorization:
    """Like decompose, but each step factor is split into involutions first."""
    return _decompose(t, split=True)


def verify(f: Factorization) -> bool:
    """Re-multiply remainder and factors and re-derive each step's certificate."""
    acc = f.remainder
    for factor in f.inverse_factors:
        acc = product_min(acc, factor)
    if not equal_omega(acc, f.original):
        return False
    current = f.original
    for step in f.steps:
        if order(step.factor) is None:
            return False
        level, h, pieces = _derive(current, *step.pair, step.involutions is not None)
        if level != step.level_i or not equal_omega(h, step.factor):
            return False
        if pieces is not None and (
            len(pieces) != len(step.involutions)
            or not all(map(equal_omega, pieces, step.involutions))
        ):
            return False
        current = step.reduced
    return current.state_count == 1


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
