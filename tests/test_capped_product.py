"""Capped refinement: how `order` forms its powers.

`transducers._refine(cols, output, cap)` on the per-letter columns of the
tables `_core_tables(t, u)` builds is the columns of `product_min(t, u)`, or
None when that product has more than `cap` states.  The refinement stops as
soon as the class count passes the cap, and the count never falls from round
to round, so None must come exactly when the minimized product is over the
cap, at the boundary too.  `order` is the one caller with a cap below the
size of the tables it refines.  It minimizes its input once, for both the
membership test and the base of its powers.  It walks each power as the core
of the base times the last power, block by block in per-letter columns
(`_power_blocks`: batches of new power states wait per base state and are
swept round-robin), holds each power's outputs as ids of interned rows,
refines that core in those columns only once it has more states than the
cap, and never builds a power as a machine.  The walk must find the same
blocks as a pair-by-pair walk of the core, and at every cap `order` must
answer as the loop it replaced, which formed each whole power with
`product_min`: on golden inputs, on random H_3 products, on every element of
the G(3,2) glued pool, on 4-letter elements whose powers output rows the
walk interns as it meets them, and on big bases (powers of `h3_infinite`,
and torsion elements conjugated by them) whose walks run through many
blocks.  The refinement behind `weak_minimize` must still match the
two-partition oracle on machines that are not core or do not synchronize,
and return a minimal machine itself.
"""

import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftfold import (
    Automaton,
    Transducer,
    canonical_key,
    canonical_rep,
    congruence_closure,
    de_bruijn,
    enumerate_automorphisms,
    invert,
    is_core,
    minimal_rep,
    order,
    product_min,
    product_raw,
    quotient,
    sync_level,
    transducer_from_automorphism,
    weak_minimize,
)
from shiftfold import transducers
from shiftfold.automata import CapExceededError
from shiftfold.formats import parse_transducer
from shiftfold.transducers import ELEMENT_STATE_CAP, _core_tables, _power_blocks, _refine, renumber

from conftest import H3_INFINITE, h3_infinite, oracle_weak_minimize, pool_product

SETTINGS = settings(max_examples=40, deadline=None)
INPUTS = Path(__file__).parent / "golden" / "inputs"

picks = st.lists(st.integers(min_value=0), min_size=1, max_size=3)


def refined(t, u, cap):
    """The core tables of T times U refined with `cap`, as `order` refines a power, with the
    merged columns transposed back to rows."""
    delta, output, _ = _core_tables(t, u)
    merged = _refine(tuple(zip(*delta)), output, cap)
    if merged is None:
        return None
    cols, output = merged
    return tuple(zip(*cols)), output


def assert_capped_at_the_boundary(t, u):
    """Caps one below, at and one above the raw product's minimized size."""
    expected = product_min(t, u)
    size = minimal_rep(product_raw(t, u)).state_count
    assert expected.state_count == size
    tables = (expected.base.delta, expected.output)
    assert refined(t, u, size - 1) is None
    assert refined(t, u, size) == tables
    assert refined(t, u, size + 1) == tables


@SETTINGS
@given(picks, picks)
def test_capped_product_is_none_exactly_past_the_cap(h3_pool, left, right):
    t, u = pool_product(h3_pool, left), pool_product(h3_pool, right)
    assert_capped_at_the_boundary(t, u)
    assert_capped_at_the_boundary(u, t)


@SETTINGS
@given(picks)
def test_capped_product_of_an_element_and_its_inverse(h3_pool, left):
    t = pool_product(h3_pool, left)
    assert_capped_at_the_boundary(t, invert(t))
    _, output = refined(t, invert(t), 1)
    assert len(output) == 1


def replaced_order(t, cap_states, cap_iters=1_000):
    """The `order` loop before the capped product: each whole power, then its size."""
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


def power_sizes(t, limit):
    base = minimal_rep(t)
    sizes, power = [], base
    while power.state_count <= limit and len(sizes) < 8:
        power = product_min(power, base)
        sizes.append(power.state_count)
    return sizes


def assert_order_unchanged_at_each_power_size(t, label):
    for size in power_sizes(t, 400):
        for cap in (size - 1, size, size + 1):
            assert order(t, cap_states=cap) == replaced_order(t, cap), (label, cap)


@SETTINGS
@given(picks)
@example("h3_infinite.txt")
@example("h3_order4.txt")
@example("h3_4.txt")
def test_order_is_unchanged_at_each_power_size(h3_pool, source):
    """Golden inputs by name, then random H_3 products, torsion and of infinite order."""
    if isinstance(source, str):
        t = parse_transducer((INPUTS / source).read_text())
    else:
        t = pool_product(h3_pool, source)
    assert_order_unchanged_at_each_power_size(t, source)


def test_order_of_a_torsion_element_at_its_largest_power():
    t = parse_transducer((INPUTS / "h3_order4.txt").read_text())
    assert order(t, cap_states=4) == 4
    assert order(t, cap_states=3) is None


def test_order_is_unchanged_on_the_glued_pool_at_the_default_caps(h3_pool):
    for i, t in enumerate(h3_pool):
        assert order(t) == replaced_order(t, ELEMENT_STATE_CAP), i


def test_order_is_unchanged_on_big_bases():
    """The 15-, 35- and 70-state powers of `h3_infinite`, and two torsion elements conjugated
    by its 6- and 15-state powers (4 and 2 are the orders to find), each walked through one
    block per base state."""
    base = h3_infinite()
    powers = [base]
    for _ in range(3):
        powers.append(product_min(powers[-1], base))
    for power in powers[1:]:
        assert_order_unchanged_at_each_power_size(power, power.state_count)
    for name, k in (("h3_order4.txt", 4), ("h3_4.txt", 2)):
        t = parse_transducer((INPUTS / name).read_text())
        for g in powers[:2]:
            conjugate = product_min(product_min(invert(g), t), g)
            assert order(conjugate) == k
            assert_order_unchanged_at_each_power_size(conjugate, (name, g.state_count))


def power(t, k):
    """T^k by `product_min`."""
    p = t
    for _ in range(k - 1):
        p = product_min(p, t)
    return p


def oracle_blocks(t, u, p, q):
    """core(T x U) from the pair (p, q), walked pair by pair: U's states grouped by T's."""
    blocks = [set() for _ in range(t.state_count)]
    blocks[p].add(q)
    visit = [(p, q)]
    for p, q in visit:
        for x, y in enumerate(t.output[p]):
            pair = t.base.delta[p][x], u.base.delta[q][y]
            if pair[1] not in blocks[pair[0]]:
                blocks[pair[0]].add(pair[1])
                visit.append(pair)
    return blocks


@pytest.fixture(scope="module")
def h3_infinite_powers():
    """`h3_infinite` (6 states) and its powers of 15 and 35 states."""
    base = h3_infinite()
    return [base, power(base, 2), power(base, 3)]


@SETTINGS
@given(st.one_of(picks, st.integers(0, 2)), picks, st.integers(1, 3), st.integers(1, 3))
def test_power_blocks_match_a_pair_by_pair_walk(h3_pool, h3_infinite_powers, left, right, i, j):
    """From a forced pair, reached by reading zeros for the sum of the sync levels,
    `_power_blocks` finds core(T x P) block for block as a pair-by-pair walk does, with as
    many states as `_core_tables` walks.  T is a drawn power of a pool product, or
    `h3_infinite` or its 15- or 35-state power, whose walks span many blocks; P is a drawn
    power of a pool product."""
    if isinstance(left, int):
        t = h3_infinite_powers[left]
    else:
        t = power(pool_product(h3_pool, left), i)
    u = power(pool_product(h3_pool, right), j)
    p = q = 0
    for _ in range(sync_level(t.base) + sync_level(u.base)):
        p, q = t.base.delta[p][0], u.base.delta[q][t.output[p][0]]
    moves = list(map(tuple, map(zip, t.base.delta, t.output)))
    blocks = _power_blocks(moves, tuple(zip(*u.base.delta)), p, q)
    assert blocks == oracle_blocks(t, u, p, q)
    assert sum(map(len, blocks)) == len(_core_tables(t, u)[1])


@pytest.fixture(scope="module")
def g42_pool():
    """The distinct multi-state glued machines of 4-letter foldings, in (state count,
    canonical key) order.  Each folding is the quotient of G(4,2) by the congruence closing
    one to three seeded random pairs of states, as the benchmark's `forced_words` makes its
    G(2,6) ones; a folding with more than 200 automorphisms is skipped."""
    g = de_bruijn(4, 2)
    rng = random.Random(4)
    found = {}
    for _ in range(40):
        pairs = [tuple(rng.sample(range(16), 2)) for _ in range(rng.choice((1, 2, 3)))]
        partition = congruence_closure(g, pairs)
        if partition.class_count < 3:
            continue
        a = quotient(g, partition)
        try:
            autos = enumerate_automorphisms(a, cap=200)
        except CapExceededError:
            continue
        for phi in autos:
            h = canonical_rep(transducer_from_automorphism(a, phi))
            if h.state_count > 1:
                found.setdefault(canonical_key(h), h)
    return [found[key] for key in sorted(found, key=lambda key: (found[key].state_count, key))]


def has_a_new_row(t, limit=400):
    """Does some power T^k with k >= 2, up to `limit` states, output a row that neither the
    identity nor T outputs, nor any power between?  `order` interns T's rows at once, so
    such a row is one its tables intern as the walk meets it."""
    p = t
    rows = {tuple(range(t.alphabet_size)), *p.output}
    for _ in range(7):
        if p.state_count == 1 or p.state_count > limit:
            return False
        p = product_min(p, t)
        if not rows.issuperset(p.output):
            return True
        rows.update(p.output)
    return False


# (left, right) indices into `g42_pool`; right None for the element itself.  Orders 4 and
# 4 of a 3- and a 4-state element, 12, 6 and 6 of products, and four infinite-order products.
G42_ELEMENTS = [
    (45, None), (278, None), (230, 241), (14, 199), (11, 213), (32, 130), (15, 11),
    (60, 253), (275, 213),
]


def test_order_is_unchanged_on_a_four_letter_alphabet(g42_pool):
    """`order` against `replaced_order` at caps one below, at and one above each power's size,
    on 4-letter elements some power of which, past T^1, outputs a new row, one `order`'s
    tables intern as the walk meets it.  Big bases, one table per state, are the powers of
    `h3_infinite` in `test_order_is_unchanged_on_big_bases`."""
    for left, right in G42_ELEMENTS:
        t = g42_pool[left] if right is None else product_min(g42_pool[left], g42_pool[right])
        assert t.alphabet_size == 4 and t.state_count > 1
        assert has_a_new_row(t), (left, right)
        assert_order_unchanged_at_each_power_size(t, (left, right))


def test_order_minimizes_its_input_once_and_never_builds_the_power_past_the_cap(monkeypatch):
    """No power is built as a machine, nor walked by `product_min`'s `_core_tables`: the one
    machine built is the input's inverse, for the membership test."""
    t = parse_transducer(H3_INFINITE.read_text())
    minimized, built, walked = [], [], []
    machine, core_tables = transducers._machine, transducers._core_tables

    def counted_minimize(m):
        minimized.append(m)
        return weak_minimize(m)

    def counted_machine(n, delta, output, bound=None):
        built.append(len(delta))
        return machine(n, delta, output, bound)

    def counted_core_tables(a, b):
        walked.append((a, b))
        return core_tables(a, b)

    monkeypatch.setattr(transducers, "weak_minimize", counted_minimize)
    monkeypatch.setattr(transducers, "_machine", counted_machine)
    monkeypatch.setattr(transducers, "_core_tables", counted_core_tables)
    assert order(t, cap_states=100) is None
    assert len(minimized) == 1 and minimized[0] is t
    assert built == [t.state_count] and not walked


def test_order_refines_only_the_first_core_past_the_cap(monkeypatch):
    """A core of at most `cap_states` states is never refined: the only refinements are the
    input's own minimization and the one of the first core past the cap."""
    t = parse_transducer(H3_INFINITE.read_text())
    cores, refined, shapes = [], [], []
    power_blocks, refine = transducers._power_blocks, transducers._refine

    def counted_power_blocks(moves, nxt, p, q):
        blocks = power_blocks(moves, nxt, p, q)
        cores.append(sum(map(len, blocks)))
        return blocks

    def counted_refine(cols, output, cap):
        refined.append(len(output))
        shapes.append(list(map(len, cols)))
        return refine(cols, output, cap)

    monkeypatch.setattr(transducers, "_power_blocks", counted_power_blocks)
    monkeypatch.setattr(transducers, "_refine", counted_refine)
    assert order(t, cap_states=100) is None
    assert cores == [15, 35, 70, 150]
    assert refined == [t.state_count, 150]
    assert shapes == [[m] * t.alphabet_size for m in refined]  # columns, one entry per state


def test_order_refines_the_big_core_of_a_big_power_in_columns():
    """The fifth power of `h3_infinite` (150 states) at the default state cap: its first core
    past the cap has 158,780 states, which `order` refines in the columns it walked."""
    base = h3_infinite()
    power = base
    for _ in range(4):
        power = product_min(power, base)
    assert power.state_count == 150
    assert order(power, cap_states=ELEMENT_STATE_CAP) is None
    assert replaced_order(power, ELEMENT_STATE_CAP) is None


@SETTINGS
@given(picks)
def test_weak_minimize_returns_a_minimal_machine_itself(h3_pool, left):
    p = pool_product(h3_pool, left)
    for m in (p, renumber(p), invert(p), product_min(p, p)):
        assert weak_minimize(m) is m


@st.composite
def permutation_machines(draw):
    """Machines whose letters permute the states: with two or more states, none synchronizes."""
    n = draw(st.sampled_from((2, 3)))
    m = draw(st.integers(2, 12))
    columns = [draw(st.permutations(range(m))) for _ in range(n)]
    letter = st.integers(0, n - 1)
    output = tuple(tuple(draw(st.lists(letter, min_size=n, max_size=n))) for _ in range(m))
    return Transducer(Automaton(n, tuple(zip(*columns))), output)


@settings(max_examples=100, deadline=None)
@given(permutation_machines())
def test_weak_minimize_matches_the_oracle_on_non_synchronizing_machines(t):
    assert sync_level(t.base) is None
    assert weak_minimize(t) == oracle_weak_minimize(t)


@SETTINGS
@given(picks, st.lists(st.tuples(st.integers(0), st.integers(0, 5)), min_size=1, max_size=6))
def test_weak_minimize_matches_the_oracle_on_non_core_machines(h3_pool, left, feeders):
    """A pool product with feeder states added: rows into the product, nothing into them."""
    p = pool_product(h3_pool, left)
    n, m = p.alphabet_size, p.state_count
    rows = [tuple((q + x) % m for x in range(n)) for q, _ in feeders]
    outs = [p.output[(q + shift) % m] for q, shift in feeders]
    t = Transducer(Automaton(n, p.base.delta + tuple(rows)), p.output + tuple(outs))
    assert not is_core(t.base)
    assert weak_minimize(t) == oracle_weak_minimize(t)
