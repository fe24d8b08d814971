"""Automorphisms of the unlabeled digraph underlying an automaton.

An edge of the digraph is identified with the pair (state, input letter), so
an automorphism is a vertex permutation plus, per state, a relabeling of the
outgoing edges.  The relabeled edge (q, x) is the edge (vertex_perm[q],
edge_letters[q][x]) of the same digraph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from math import factorial, prod

from .automata import Automaton, CapExceededError, forced_states, is_core, sync_level
from .transducers import (
    Transducer,
    equal_omega,
    identity_transducer,
    product_min,
    weak_minimize,
)

# Largest automaton, in states, whose automorphisms are searched for.  The vertex search
# recurses once per state, so this leaves about half of Python's default recursion limit
# of 1,000 frames to its callers.
AUT_STATE_CAP = 512
# Most candidate vertex placements (images that pass the signature filter) the search tries.
# The G(3,2) and G(4,2) quotients take at most 157, G(2,5) and G(3,3) about 20,000, and
# G(2,6) and the 70-state base of the fourth power of golden `h3_infinite` over 3,000,000.
AUT_PLACEMENT_CAP = 1_000_000


@dataclass(frozen=True)
class DigraphAutomorphism:
    vertex_perm: tuple[int, ...]
    edge_letters: tuple[tuple[int, ...], ...]

    def is_identity(self) -> bool:
        if any(v != i for i, v in enumerate(self.vertex_perm)):
            return False
        return all(all(y == x for x, y in enumerate(row)) for row in self.edge_letters)


def check_automorphism(a: Automaton, phi: DigraphAutomorphism) -> None:
    """Raise unless phi satisfies the incidence conditions on A's digraph."""
    m = a.state_count
    n = a.alphabet_size
    if len(phi.vertex_perm) != m or sorted(phi.vertex_perm) != list(range(m)):
        raise ValueError("vertex map is not a permutation of the states")
    if len(phi.edge_letters) != m:
        raise ValueError("edge table does not match state count")
    for q in range(m):
        row = phi.edge_letters[q]
        if sorted(row) != list(range(n)):
            raise ValueError(f"edge relabeling at state {q} is not a bijection")
        for x in range(n):
            image_source, y = phi.vertex_perm[q], row[x]
            if a.delta[image_source][y] != phi.vertex_perm[a.delta[q][x]]:
                raise ValueError(f"edge ({q},{x}) image breaks target incidence")


def relabeling(a: Automaton, q: int, letters) -> DigraphAutomorphism:
    """The checked automorphism fixing every vertex and relabeling only q's edges."""
    edges = [tuple(range(a.alphabet_size))] * a.state_count
    edges[q] = tuple(letters)
    tau = DigraphAutomorphism(tuple(range(a.state_count)), tuple(edges))
    check_automorphism(a, tau)
    return tau


def perm_cycles(perm) -> list[list[int]]:
    """The nontrivial cycles of a permutation, each listed from its least point."""
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cycle = []
        x = start
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = perm[x]
        out.append(cycle)
    return out


def compose_automorphisms(
    first: DigraphAutomorphism, second: DigraphAutomorphism
) -> DigraphAutomorphism:
    """Apply `first`, then `second`."""
    vertex = tuple(second.vertex_perm[v] for v in first.vertex_perm)
    edges = tuple(
        tuple(second.edge_letters[first.vertex_perm[q]][y] for y in first.edge_letters[q])
        for q in range(len(first.vertex_perm))
    )
    return DigraphAutomorphism(vertex, edges)


def edge_count_matrix(a: Automaton) -> tuple[tuple[int, ...], ...]:
    """counts[p][q] = number of letters taking p to q."""
    m = a.state_count
    rows = []
    for p in range(m):
        row = [0] * m
        for x in range(a.alphabet_size):
            row[a.delta[p][x]] += 1
        rows.append(tuple(row))
    return tuple(rows)


def _vertex_perms(a: Automaton):
    """All vertex permutations preserving the edge-count matrix, in lex order; past
    `AUT_PLACEMENT_CAP` candidate placements CapExceededError, saying how far it got."""
    m = a.state_count
    counts = edge_count_matrix(a)
    signature = [
        (tuple(sorted(counts[v])), tuple(sorted(counts[p][v] for p in range(m))), counts[v][v])
        for v in range(m)
    ]

    assignment = [-1] * m
    used = [False] * m
    tried = deepest = found = 0

    def descend(v: int):
        nonlocal tried, deepest, found
        deepest = max(deepest, v)
        if v == m:
            found += 1
            yield tuple(assignment)
            return
        for u in range(m):
            if used[u] or signature[u] != signature[v]:
                continue
            tried += 1
            if tried > AUT_PLACEMENT_CAP:
                raise CapExceededError(
                    f"automorphism search cap exceeded after {AUT_PLACEMENT_CAP} vertex"
                    f" placements (vertex maps found: {found}; most states placed: {deepest} of {m})"
                )
            ok = True
            for w in range(v):
                if counts[v][w] != counts[u][assignment[w]] or counts[w][v] != counts[assignment[w]][u]:
                    ok = False
                    break
            if ok and counts[v][v] == counts[u][u]:
                assignment[v] = u
                used[u] = True
                yield from descend(v + 1)
                used[u] = False
                assignment[v] = -1

    yield from descend(0)


def enumerate_automorphisms(a: Automaton, cap: int = 10_000) -> list[DigraphAutomorphism]:
    """All digraph automorphisms, in lexicographic (vertex map, edge map) order; past `cap`
    of them CapExceededError, and a negative cap is refused with ValueError.  An automaton
    of more than `AUT_STATE_CAP` states is refused with CapExceededError before the search."""
    if cap < 0:
        raise ValueError(f"automorphism cap {cap} is negative")
    n = a.alphabet_size
    m = a.state_count
    if m > AUT_STATE_CAP:
        raise CapExceededError(
            f"automorphism search is limited to {AUT_STATE_CAP} states; the automaton has {m}"
        )
    letters_to: list[dict[int, list[int]]] = []
    for p in range(m):
        classes: dict[int, list[int]] = {}
        for x in range(n):
            classes.setdefault(a.delta[p][x], []).append(x)
        letters_to.append(classes)
    # each vertex map extends once per choice of bijections between matched parallel classes
    extensions = prod(factorial(len(c)) for classes in letters_to for c in classes.values())

    out: list[DigraphAutomorphism] = []
    for vperm in _vertex_perms(a):
        if len(out) + extensions > cap:
            raise CapExceededError("automorphism enumeration cap exceeded")
        # per parallel class, all bijections onto the image class
        per_state_rows: list[list[tuple[int, ...]]] = []
        for q in range(m):
            choices_per_class = []
            class_letters = []
            for target in sorted(letters_to[q]):
                class_letters.append(letters_to[q][target])
                choices_per_class.append(permutations(letters_to[vperm[q]][vperm[target]]))
            rows = []
            for combo in product(*choices_per_class):
                row = [0] * n
                for letters, pick in zip(class_letters, combo):
                    for x, y in zip(letters, pick):
                        row[x] = y
                rows.append(tuple(row))
            rows.sort()
            per_state_rows.append(rows)

        for edge_rows in product(*per_state_rows):
            phi = DigraphAutomorphism(vperm, edge_rows)
            check_automorphism(a, phi)
            out.append(phi)
    return out


def automorphism_from_alphabet_perm(a: Automaton, rho) -> DigraphAutomorphism | None:
    """The automorphism induced by an alphabet permutation, when it acts.

    Requires A core and strongly synchronizing, so states correspond to the
    classes of level-k words forcing them.  Present iff rho permutes those
    classes: the `forced_states` tables of A and of A with its letters renamed
    by rho pair each state with exactly one image.
    """
    rho = tuple(rho)
    n = a.alphabet_size
    if sorted(rho) != list(range(n)):
        raise ValueError("not a permutation of the alphabet")
    if sync_level(a) is None or not is_core(a):
        raise ValueError("automaton must be core and strongly synchronizing")
    renamed = Automaton(n, tuple(tuple(row[y] for y in rho) for row in a.delta))
    pairs = sorted(set(zip(forced_states(a), forced_states(renamed))))
    if len(pairs) != a.state_count:
        return None
    edges = tuple(rho for _ in range(a.state_count))
    phi = DigraphAutomorphism(tuple(image for _, image in pairs), edges)
    check_automorphism(a, phi)
    return phi


def transducer_from_automorphism(a: Automaton, phi: DigraphAutomorphism) -> Transducer:
    """Glue A to itself along phi: inputs are A's labels, outputs their images."""
    check_automorphism(a, phi)
    return Transducer(a, phi.edge_letters)


def is_permutation_induced(a: Automaton, phi: DigraphAutomorphism) -> tuple[int, ...] | None:
    """The inducing alphabet permutation, present iff the glued machine is one-state."""
    minimal = weak_minimize(transducer_from_automorphism(a, phi))
    if minimal.state_count != 1:
        return None
    return minimal.output[0]


def verify_embedding(a: Automaton, phi: DigraphAutomorphism, psi: DigraphAutomorphism) -> bool:
    """Check multiplicativity and faithfulness of the glued machines for one pair."""
    h_phi = transducer_from_automorphism(a, phi)
    h_psi = transducer_from_automorphism(a, psi)
    h_comp = transducer_from_automorphism(a, compose_automorphisms(phi, psi))
    if not equal_omega(h_comp, product_min(h_phi, h_psi)):
        return False
    if not phi.is_identity() and equal_omega(h_phi, identity_transducer(a.alphabet_size)):
        return False
    return True


def involution_factors(a: Automaton, phi: DigraphAutomorphism) -> list[DigraphAutomorphism]:
    """Split a vertex-fixing automorphism into vertex-fixing involutions.

    Each cycle of the per-state edge relabeling is written as the ordered
    product of transpositions sharing the cycle's least letter; composing the
    returned automorphisms in list order recovers phi.
    """
    check_automorphism(a, phi)
    if any(v != q for q, v in enumerate(phi.vertex_perm)):
        raise ValueError("automorphism moves a vertex")
    factors: list[DigraphAutomorphism] = []
    for q in range(a.state_count):
        for cycle in perm_cycles(phi.edge_letters[q]):
            for other in cycle[1:]:
                swap = list(range(a.alphabet_size))
                swap[cycle[0]], swap[other] = other, cycle[0]
                factors.append(relabeling(a, q, swap))
    return factors
