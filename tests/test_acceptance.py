"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every expected value is exact; time limits are wall-clock.
"""

import random
import time

from shiftfold import (
    LocalRule,
    apply_periodic,
    bell,
    canonical_rep,
    compose,
    count_foldings_g_n_2,
    de_bruijn,
    decompose,
    enumerate_automorphisms,
    enumerate_foldings,
    equal_omega,
    extend,
    is_permutation_induced,
    minimal_rep,
    order,
    product_min,
    product_raw,
    rule_to_transducer,
    single_state,
    subgroup_automaton,
    subgroup_closure,
    sync_level,
    transducer_from_automorphism,
    transducer_to_rule,
    verify,
    verify_embedding,
    weak_minimize,
)
from shiftfold.cli import main
from shiftfold.digraph_aut import compose_automorphisms
from conftest import glued_machines, random_h3_elements, shift_transducer


def _report(num, description, ok, started):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {num:02d}] {status} ({elapsed:.1f}s) {description}")
    assert ok, f"acceptance criterion {num}: {description}"


def test_acceptance_01_folding_formula_cli(capsys):
    started = time.perf_counter()
    expected = [1, 5, 192, 78721, 519338423, 82833228599906, 429768478195109381814]
    ok = True
    for n, want in zip(range(1, 8), expected):
        code = main(["fold-count", str(n), "2"])
        out = capsys.readouterr().out
        ok = ok and code == 0 and out == f"{want}\n"
    ok = ok and (time.perf_counter() - started) < 10.0
    _report(1, "fold-count n 2 returns the seven exact values for n=1..7", ok, started)


def test_acceptance_02_brute_force_cross_checks():
    started = time.perf_counter()
    ok = len(enumerate_foldings(de_bruijn(2, 2))) == 5 == count_foldings_g_n_2(2)
    ok = ok and len(enumerate_foldings(de_bruijn(3, 2))) == 192 == count_foldings_g_n_2(3)
    ok = ok and len(enumerate_foldings(de_bruijn(2, 3))) == 30
    lattice_started = time.perf_counter()
    ok = ok and len(enumerate_foldings(de_bruijn(2, 4), method="lattice")) == 1247
    ok = ok and (time.perf_counter() - lattice_started) < 300.0
    _report(2, "enumeration matches 5/192 (formula) and 30/1247 (brute force)", ok, started)


def test_acceptance_03_level_one_foldings_are_bell():
    started = time.perf_counter()
    ok = all(
        len(enumerate_foldings(de_bruijn(n, 1), method="exhaustive")) == bell(n)
        for n in range(2, 7)
    )
    _report(3, "foldings of the one-letter graphs count Bell(n) for n <= 6", ok, started)


def test_acceptance_04_automorphism_groups(fig_automaton):
    started = time.perf_counter()
    ok = True
    for n, m in [(2, 2), (2, 3), (3, 2)]:
        g = de_bruijn(n, m)
        autos = enumerate_automorphisms(g)
        factorial = 1
        for i in range(2, n + 1):
            factorial *= i
        ok = ok and len(autos) == factorial
        ok = ok and all(is_permutation_induced(g, phi) is not None for phi in autos)
    fig_autos = enumerate_automorphisms(fig_automaton)
    ok = ok and len(fig_autos) == 6
    ok = ok and any(is_permutation_induced(fig_automaton, phi) is None for phi in fig_autos)
    ok = ok and (time.perf_counter() - started) < 10.0
    _report(4, "de Bruijn groups are Sym(n); the example folding adds a non-induced one", ok, started)


def test_acceptance_05_two_letter_group(quotients_22, quotients_23):
    started = time.perf_counter()
    ok = True
    for a in quotients_22 + quotients_23:
        for phi in enumerate_automorphisms(a):
            ok = ok and weak_minimize(transducer_from_automorphism(a, phi)).state_count == 1
    ident = single_state((0, 1))
    flip = single_state((1, 0))
    ok = ok and equal_omega(product_min(flip, flip), ident)
    ok = ok and equal_omega(product_min(ident, flip), flip)
    ok = ok and equal_omega(product_min(flip, ident), flip)
    ok = ok and equal_omega(product_min(ident, ident), ident)
    ok = ok and not equal_omega(ident, flip)
    ok = ok and (time.perf_counter() - started) < 60.0
    _report(5, "all two-letter glued machines are one-state; the group is C_2", ok, started)


def test_acceptance_06_embedding(quotients_22, quotients_32):
    started = time.perf_counter()
    ok = True
    for a in quotients_22 + quotients_32:
        autos = enumerate_automorphisms(a)
        for phi in autos:
            for psi in autos:
                ok = ok and verify_embedding(a, phi, psi)
    ok = ok and (time.perf_counter() - started) < 120.0
    _report(6, "gluing is multiplicative and faithful on every folding pair", ok, started)


def test_acceptance_07_decomposition(fig_transducer, h3_pool):
    started = time.perf_counter()
    elements = [fig_transducer] + random_h3_elements(h3_pool, 70, seed=101)
    elements += random_h3_elements(h3_pool, 30, seed=102, max_factors=3)
    ok = True
    for t in elements:
        f = decompose(t)
        ok = ok and f.remainder.state_count == 1
        ok = ok and len(f.steps) <= max(0, f.original.state_count - 1)
        ok = ok and len(f.inverse_factors) == len(f.steps)
        ok = ok and verify(f)
        for factor in f.inverse_factors:
            k = order(factor)
            ok = ok and k is not None and k <= 2
    ok = ok and (time.perf_counter() - started) < 300.0
    _report(7, "101 elements decompose, reconstruct, and use involution factors", ok, started)


def _sync_pool(quotients_22, quotients_32, rng):
    pools = {2: [], 3: []}
    pools[2].extend(glued_machines(quotients_22))
    pools[3].extend(glued_machines(quotients_32, limit=40))
    pools[2].append(minimal_rep(shift_transducer(2)))
    pools[3].append(minimal_rep(shift_transducer(3)))
    for n in (2, 3):
        for _ in range(25):
            window = rng.randrange(1, 4) if n == 2 else rng.randrange(1, 3)
            table = tuple(rng.randrange(n) for _ in range(n**window))
            pools[n].append(minimal_rep(rule_to_transducer(LocalRule(n, window, table))))
    return pools


def test_acceptance_08_product_sync_bound(quotients_22, quotients_32):
    started = time.perf_counter()
    rng = random.Random(103)
    pools = _sync_pool(quotients_22, quotients_32, rng)
    ok = True
    for _ in range(500):
        n = rng.choice((2, 3))
        t, u = rng.choice(pools[n]), rng.choice(pools[n])
        bound = sync_level(t.base) + sync_level(u.base)
        ok = ok and sync_level(product_raw(t, u).base) <= bound
    _report(8, "products synchronize within the sum of the levels, 500 pairs", ok, started)


def test_acceptance_09_monoid_isomorphism(quotients_22, quotients_32):
    started = time.perf_counter()
    rng = random.Random(105)
    pools = _sync_pool(quotients_22, quotients_32, rng)
    ok = True
    for _ in range(200):
        n = rng.choice((2, 3))
        t, u = rng.choice(pools[n]), rng.choice(pools[n])
        lhs = transducer_to_rule(product_min(t, u))
        rhs = compose(transducer_to_rule(t), transducer_to_rule(u))
        width = max(lhs.window, rhs.window)
        ok = ok and extend(lhs, width - lhs.window) == extend(rhs, width - rhs.window)
    _report(9, "window maps multiply like machines, 200 pairs", ok, started)


def test_acceptance_10_shift_commutation(quotients_22, quotients_32):
    started = time.perf_counter()
    rng = random.Random(107)
    pools = _sync_pool(quotients_22, quotients_32, rng)
    ok = True
    for _ in range(200):
        n = rng.choice((2, 3))
        t = rng.choice(pools[n])
        w = tuple(rng.randrange(n) for _ in range(rng.randrange(1, 7)))
        rotated = w[-1:] + w[:-1]
        out = apply_periodic(t, w)
        ok = ok and apply_periodic(t, rotated) == out[-1:] + out[:-1]
    _report(10, "the periodic action commutes with rotation, 200 pairs", ok, started)


def test_acceptance_11_finite_subgroup_reconstruction(fig_transducer, fig_automaton):
    started = time.perf_counter()
    groups = [
        subgroup_closure([fig_transducer]),
        subgroup_closure(
            [
                minimal_rep(transducer_from_automorphism(fig_automaton, phi))
                for phi in enumerate_automorphisms(fig_automaton)
            ]
        ),
        subgroup_closure([single_state((1, 2, 0))]),
        subgroup_closure([single_state((1, 0))]),
    ]
    ok = True
    for closure in groups:
        base, mapping = subgroup_automaton(closure)
        keys = {(phi.vertex_perm, phi.edge_letters) for phi in mapping.values()}
        ok = ok and len(keys) == len(closure.elements)  # injective
        for a in closure.elements:
            for b in closure.elements:
                ab = canonical_rep(product_min(a, b))
                composed = compose_automorphisms(mapping[a], mapping[b])
                ok = ok and (composed.vertex_perm, composed.edge_letters) == (
                    mapping[ab].vertex_perm,
                    mapping[ab].edge_letters,
                )
        for element, phi in mapping.items():
            glued = weak_minimize(transducer_from_automorphism(base, phi))
            ok = ok and equal_omega(glued, element)
    ok = ok and (time.perf_counter() - started) < 60.0
    _report(11, "four finite subgroups embed and reconstruct exactly", ok, started)