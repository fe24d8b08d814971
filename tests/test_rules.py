import random
import time
from itertools import product as iproduct

import pytest

from shiftfold import (
    CapExceededError,
    LocalRule,
    apply_windows,
    compose,
    equal_omega,
    extend,
    minimal_rep,
    rule_to_transducer,
    single_state,
    sync_level,
    transducer_to_rule,
)

from conftest import identity_rule, is_right_permutive, shift_rule, shift_transducer


# the running two-window examples over X_3:
#   G: ax -> x for a in {0,1}; 20 -> 1, 21 -> 0, 22 -> 2
#   F: a0 -> 0, a1 -> 2, a2 -> 1 for a in {0,1}; 20 -> 1, 21 -> 0, 22 -> 2
RULE_G = LocalRule(3, 2, (0, 1, 2, 0, 1, 2, 1, 0, 2))
RULE_F = LocalRule(3, 2, (0, 2, 1, 0, 2, 1, 1, 0, 2))


def random_rule(rng, n, window):
    return LocalRule(n, window, tuple(rng.randrange(n) for _ in range(n**window)))


def test_shift_rule_windows():
    assert apply_windows(shift_rule(2), "01") == (0,)
    assert apply_windows(shift_rule(2), "0110") == (0, 1, 1)


def test_identity_rule_windows():
    assert apply_windows(identity_rule(2), "0110") == (0, 1, 1, 0)


def test_g_example_window():
    assert apply_windows(RULE_G, "20") == (1,)
    assert RULE_G.value("21") == 0 and RULE_G.value("22") == 2


def test_permutivity_examples():
    assert is_right_permutive(RULE_G)
    assert is_right_permutive(RULE_F)
    assert is_right_permutive(identity_rule(2))
    assert not is_right_permutive(shift_rule(2))


def test_extend_keeps_windows():
    rng = random.Random(2)
    assert extend(RULE_G, 0) == RULE_G
    wide = extend(shift_rule(2), 1)
    assert apply_windows(wide, "010") == (1,)  # middle letter: the added slot is ignored
    for _ in range(100):
        g2 = extend(RULE_G, rng.randrange(3))
        x = tuple(rng.randrange(3) for _ in range(g2.window + rng.randrange(5)))
        assert apply_windows(g2, x) == apply_windows(RULE_G, x)[g2.window - RULE_G.window :]


def test_extend_agrees_on_common_inputs():
    rng = random.Random(4)
    for _ in range(100):
        k = rng.randrange(3)
        wide = extend(RULE_G, k)
        x = tuple(rng.randrange(3) for _ in range(wide.window))
        assert wide.value(x) == RULE_G.value(x[k:])


def test_extend_refuses_a_huge_width_at_once():
    """The width is checked against the cap's bit length before n ** width is formed."""
    for rule, k in [(identity_rule(2), 10**18), (identity_rule(3), 10**9)]:
        start = time.perf_counter()
        with pytest.raises(CapExceededError, match="^extended rule table would exceed the size cap$"):
            extend(rule, k)
        assert time.perf_counter() - start < 1


def test_compose_with_identity():
    assert compose(RULE_F, identity_rule(3)) == RULE_F


def test_compose_shift_twice():
    twice = compose(shift_rule(2), shift_rule(2))
    assert twice.window == 3
    for w in iproduct(range(2), repeat=3):
        assert twice.value(w) == w[0]


def test_compose_matches_double_slide():
    rng = random.Random(6)
    for _ in range(200):
        f = random_rule(rng, rng.choice((2, 3)), rng.randrange(1, 4))
        g = random_rule(rng, f.alphabet_size, rng.randrange(1, 4))
        h = compose(f, g)
        length = h.window + rng.randrange(6)
        x = tuple(rng.randrange(f.alphabet_size) for _ in range(length))
        assert apply_windows(h, x) == apply_windows(g, apply_windows(f, x))


def test_compose_preserves_right_permutivity():
    # exhaustive over X_2 with windows up to 3
    def rules(n, window):
        for table in iproduct(range(n), repeat=n**window):
            rule = LocalRule(n, window, table)
            if is_right_permutive(rule):
                yield rule

    pool = [r for w in (1, 2, 3) for r in rules(2, w)]
    assert len(pool) == 2 + 4 + 16
    for f in pool:
        for g in pool:
            assert is_right_permutive(compose(f, g))


def test_rule_to_transducer_shift():
    t = rule_to_transducer(shift_rule(3))
    assert equal_omega(t, shift_transducer(3))


def test_rule_to_transducer_identity():
    t = rule_to_transducer(identity_rule(2))
    assert minimal_rep(t).state_count == 1
    assert equal_omega(t, single_state((0, 1)))


def test_rule_to_transducer_sync_level():
    t = rule_to_transducer(RULE_G)
    assert sync_level(t.base) <= 1 or sync_level(t.base) == 1


def test_transducer_to_rule_shift():
    assert transducer_to_rule(shift_transducer(3)) == shift_rule(3)


def test_transducer_to_rule_identity():
    r = transducer_to_rule(single_state((0, 1)))
    assert r == identity_rule(2)


def test_rule_transducer_roundtrip():
    rng = random.Random(8)
    for _ in range(100):
        n = rng.choice((2, 3))
        f = random_rule(rng, n, rng.randrange(1, 4) if n == 2 else rng.randrange(1, 3))
        t = minimal_rep(rule_to_transducer(f))
        back = transducer_to_rule(t)
        # the recovered rule induces the same windows
        width = max(f.window, back.window)
        for w in [tuple(rng.randrange(n) for _ in range(width + 3)) for _ in range(20)]:
            lhs = apply_windows(f, w)[width - f.window :]
            rhs = apply_windows(back, w)[width - back.window :]
            assert lhs == rhs


def test_hn_elements_give_right_permutive_rules(h3_pool):
    for t in h3_pool[:25]:
        assert is_right_permutive(transducer_to_rule(t))


def test_non_right_permutive_rules_collide():
    """A non-right-permutive rule merges two long words (collision search)."""
    rng = random.Random(10)
    found_any = 0
    for _ in range(50):
        n = 2
        f = random_rule(rng, n, 2)
        if is_right_permutive(f):
            continue
        found_any += 1
        seen = {}
        collision = False
        for w in iproduct(range(n), repeat=2 * f.window):
            y = apply_windows(f, w)
            if y in seen and seen[y] != w:
                collision = True
                break
            seen[y] = w
        assert collision
    assert found_any > 0


def test_product_matches_rule_composition(h3_pool):
    from shiftfold import product_min

    rng = random.Random(12)
    pool = h3_pool[:12] + [minimal_rep(shift_transducer(3))]
    for _ in range(40):
        a, b = rng.choice(pool), rng.choice(pool)
        lhs = transducer_to_rule(product_min(a, b))
        rhs = compose(transducer_to_rule(a), transducer_to_rule(b))
        width = max(lhs.window, rhs.window)
        assert extend(lhs, width - lhs.window) == extend(rhs, width - rhs.window)