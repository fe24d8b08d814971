"""Capped refinement: how `order` forms its powers.

`transducers._refine(delta, output, cap)` on the tables `_core_tables(t, u)`
builds is the tables of `product_min(t, u)`, or None when that product has
more than `cap` states.  The refinement stops as soon as the class count
passes the cap, and the count never falls from round to round, so None must
come exactly when the minimized product is over the cap, at the boundary too.
`order` is the one caller with a cap below the size of the tables it refines.
It minimizes its input once, for both the membership test and the base of its
powers.  It walks each power as the core of the base times the last power,
block by block in per-letter columns (`_power_blocks`), refines that core
only once it has more states than the cap, and never builds a power as a
machine.  At every cap it must answer as the loop it replaced, which formed
each whole power with `product_min`: on golden inputs, on random H_3
products, on every element of the G(3,2) glued pool, and on big bases (powers
of `h3_infinite`, and torsion elements conjugated by them) whose walks run
through many blocks.  The refinement behind `weak_minimize` must still match
the two-partition oracle on machines that are not core or do not
synchronize, and return a minimal machine itself.
"""

from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftfold import (
    Automaton,
    Transducer,
    invert,
    is_core,
    minimal_rep,
    order,
    product_min,
    product_raw,
    sync_level,
    weak_minimize,
)
from shiftfold import transducers
from shiftfold.formats import parse_transducer
from shiftfold.transducers import ELEMENT_STATE_CAP, _core_tables, _refine, renumber

from conftest import H3_INFINITE, h3_infinite, oracle_weak_minimize, pool_product

SETTINGS = settings(max_examples=40, deadline=None)
INPUTS = Path(__file__).parent / "golden" / "inputs"

picks = st.lists(st.integers(min_value=0), min_size=1, max_size=3)


def refined(t, u, cap):
    """The core tables of T times U refined with `cap`, as `order` refines a power."""
    delta, output, _ = _core_tables(t, u)
    return _refine(delta, output, cap)


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
    cores, refined = [], []
    power_blocks, refine = transducers._power_blocks, transducers._refine

    def counted_power_blocks(moves, nxt, p, q):
        blocks = power_blocks(moves, nxt, p, q)
        cores.append(sum(map(len, blocks)))
        return blocks

    def counted_refine(delta, output, cap):
        refined.append(len(output))
        return refine(delta, output, cap)

    monkeypatch.setattr(transducers, "_power_blocks", counted_power_blocks)
    monkeypatch.setattr(transducers, "_refine", counted_refine)
    assert order(t, cap_states=100) is None
    assert cores == [15, 35, 70, 150]
    assert refined == [t.state_count, 150]


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
