"""The benchmark's workloads: seeded inputs, the items that use them, and oracles.

Each workload builds one *pass*: a fixed list of items made from the seed.
The harness runs whole passes, one item at a time, and times only `run`.
An item's answer is checked by its oracle against an expected value that
comes from a route not sharing the code under test: an independent
re-derivation, a closed form, a formula, or a value pinned in catalog.json.
No oracle depends on state numbering.

Every workload reads the library through `ctx.sf` (the package),
`ctx.cli` and `ctx.formats` at call time, so the tracer's rebinding of
module attributes reaches every call an item makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

CATALOG = json.loads((Path(__file__).resolve().parent / "catalog.json").read_text())

H3_ITEMS = 360
FW_ROUNDS = 6
POWER_CAP = CATALOG["power_cap"]


@dataclass
class Context:
    seed: int
    workdir: Path
    sf: Any
    cli: Any
    formats: Any


@dataclass
class Item:
    """One closed-loop request: `run` is timed; the rest runs outside the timer."""

    name: str
    kind: str
    run: Callable[[], Any]
    oracle: Callable[[Any, Any], str | None]
    expected: Any
    prepare: Callable[[], None] | None = None
    collect: Callable[[Any], Any] | None = None


@dataclass
class Workload:
    """One pass of items, the tail percentile to report, and the named baseline cases.

    `tail_pct` is fixed per workload so that runs with a different number of
    passes report the same percentile; the harness runs passes until at least
    ten samples lie beyond it.
    """

    items: list[Item]
    tail_pct: float
    named: list[Item] = field(default_factory=list)


def run_cli(ctx: Context, argv: list[str]) -> tuple[int, str]:
    """`shiftfold.cli.main` in-process, stdout captured, stderr discarded."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ctx.cli.main(argv)
    return code, out.getvalue()


# -- shared inputs -----------------------------------------------------------


def g32_foldings(sf):
    """The 192 quotients of G(3,2) with their digraph automorphisms."""
    g = sf.de_bruijn(3, 2)
    out = []
    for p in sf.enumerate_foldings(g, method="exhaustive"):
        a = sf.quotient(g, p)
        out.append((a, sf.enumerate_automorphisms(a)))
    return out


def glued_pool(sf, foldings):
    return [
        sf.minimal_rep(sf.transducer_from_automorphism(a, phi))
        for a, autos in foldings
        for phi in autos
    ]


def renamed_automaton(sf, a, perm):
    """A with state q renamed perm[q]."""
    inv = [0] * len(perm)
    for old, new in enumerate(perm):
        inv[new] = old
    return sf.Automaton(a.alphabet_size, tuple(tuple(perm[s] for s in a.delta[old]) for old in inv))


def renamed_transducer(sf, t, perm):
    inv = sorted(range(len(perm)), key=perm.__getitem__)
    return sf.Transducer(renamed_automaton(sf, t.base, perm), tuple(t.output[old] for old in inv))


def shuffled(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def is_identity(sf, t) -> bool:
    m = sf.minimal_rep(t)
    return m.state_count == 1 and m.output[0] == tuple(range(t.alphabet_size))


def is_digraph_automorphism(a, vertex, edges) -> bool:
    """Incidence check written here, independent of digraph_aut.check_automorphism."""
    m, n = a.state_count, a.alphabet_size
    if sorted(vertex) != list(range(m)) or len(edges) != m:
        return False
    for q in range(m):
        if sorted(edges[q]) != list(range(n)):
            return False
        for x in range(n):
            if a.delta[vertex[q]][edges[q][x]] != vertex[a.delta[q][x]]:
                return False
    return True


# -- h3_decompose --------------------------------------------------------------


def oracle_h3(ctx: Context, answer, expected) -> str | None:
    (c1, out1, c2, _), files = answer
    sf, formats = ctx.sf, ctx.formats
    if c1 != 0 or not out1.startswith("in-hn: true"):
        return f"check-hn exit {c1}: {out1.strip()!r}"
    if c2 != 0:
        return f"decompose exit {c2}"
    if "verified: true" not in files["manifest.txt"].splitlines():
        return "manifest does not say verified: true"
    names = sorted(n for n in files if n.startswith("factor_"))
    acc = formats.parse_transducer(files["remainder.txt"])
    for name in names:
        factor = formats.parse_transducer(files[name])
        if not (is_identity(sf, factor) or is_identity(sf, sf.product_min(factor, factor))):
            return f"{name} has order above 2"
        acc = sf.product_min(acc, factor)
    if not sf.equal_omega(acc, expected):
        return "re-multiplied factors differ from the input"
    return None


def h3_decompose(ctx: Context) -> Workload:
    sf = ctx.sf
    pool = glued_pool(sf, g32_foldings(sf))
    nontrivial = [t for t in pool if t.state_count > 1]
    rng = random.Random(ctx.seed)
    items = []
    for i in range(H3_ITEMS):
        t = rng.choice(nontrivial)
        for _ in range(i % 3):  # 1, 2, 3 factors in rotation
            t = sf.product_min(t, rng.choice(pool))
        path = ctx.workdir / f"h3_{i:03d}.txt"
        path.write_text(ctx.formats.render_transducer(t))
        outdir = ctx.workdir / f"h3_{i:03d}.factors"
        flags = ["--involutions"] if i % 2 else []

        def run(path=str(path), outdir=str(outdir), flags=flags):
            return (
                *run_cli(ctx, ["check-hn", path]),
                *run_cli(ctx, ["decompose", path, "-o", outdir, *flags]),
            )

        def collect(raw, outdir=outdir):
            files = {p.name: p.read_text() for p in sorted(outdir.iterdir())}
            return raw, files

        items.append(
            Item(
                name=f"h3/{i:03d}",
                kind="decompose_inv" if flags else "decompose",
                run=run,
                oracle=lambda answer, expected: oracle_h3(ctx, answer, expected),
                expected=t,
                prepare=lambda outdir=outdir: shutil.rmtree(outdir, ignore_errors=True),
                collect=collect,
            )
        )
    return Workload(items, 98.0)


# -- forced_words ----------------------------------------------------------------


def oracle_rule_power(ctx: Context, answer, expected) -> str | None:
    """transducer_to_rule(T^j) against rules.compose of the rule j times."""
    sf = ctx.sf
    window, table = answer
    rule, power = expected
    ref = rule
    for _ in range(power - 1):
        ref = sf.compose(ref, rule)
    got = sf.LocalRule(2, window, table)
    width = max(window, ref.window)
    if sf.extend(got, width - window) != sf.extend(ref, width - ref.window):
        return f"rule of T^{power} differs from the composed rule"
    return None


def banded_rule(sf, rng, window, power, lo, hi):
    """A random rule over X_2 whose power T^j has lo..hi states."""
    while True:
        rule = sf.LocalRule(2, window, tuple(rng.randrange(2) for _ in range(2**window)))
        t = sf.rule_to_transducer(rule)
        p = t
        for _ in range(power - 1):
            p = sf.product_min(p, t)
        if lo <= p.state_count <= hi:
            return rule


def rule_power_item(ctx: Context, name: str, kind: str, rule, power: int) -> Item:
    sf = ctx.sf

    def run():
        t = sf.rule_to_transducer(rule)
        p = t
        for _ in range(power - 1):
            p = sf.product_min(p, t)
        r = sf.transducer_to_rule(p)
        return r.window, r.table

    return Item(
        name, kind, run, lambda a, e: oracle_rule_power(ctx, a, e), (rule, power)
    )


def compose_phi(first, second):
    """Apply `first`, then `second` (vertex map and edge relabeling)."""
    (v1, e1), (v2, e2) = first, second
    vertex = tuple(v2[v] for v in v1)
    edges = tuple(tuple(e2[v1[q]][y] for y in e1[q]) for q in range(len(v1)))
    return vertex, edges


def phi_order(phi) -> int:
    ident = (tuple(range(len(phi[0]))), tuple(tuple(sorted(r)) for r in phi[1]))
    k, acc = 1, phi
    while acc != ident:
        acc, k = compose_phi(acc, phi), k + 1
    return k


def oracle_subgroup(ctx: Context, answer, expected) -> str | None:
    """Acceptance-11 checks on the printed A(G): injective, multiplicative, reconstructs.

    By the embedding theorem the group generated by all H(A, phi) is a copy
    of Aut(A), so its order and element set are known before the run.
    """
    sf, formats = ctx.sf, ctx.formats
    code, text = answer
    group_order, keys = expected
    if code != 0:
        return f"subgroup-ag exit {code}"
    blocks = text.rstrip("\n").split("\n\n")
    if blocks[0].splitlines()[0] != f"order: {group_order}" or len(blocks) != 2 + group_order:
        return f"expected a group of order {group_order}"
    base = formats.parse_automaton(blocks[1])
    phis, machines = [], []
    for block in blocks[2:]:
        head, body = block.split("\n", 1)
        phi = formats.parse_automorphism(body)
        vertex, edges = phi.vertex_perm, phi.edge_letters
        if not is_digraph_automorphism(base, vertex, edges):
            return f"{head}: not an automorphism of A(G)"
        glued = sf.minimal_rep(sf.Transducer(base, edges))
        if head.split()[2:] != [f"states={glued.state_count}", f"order={phi_order((vertex, edges))}"]:
            return f"{head}: state count or order disagrees with its automorphism"
        phis.append((vertex, edges))
        machines.append(glued)
    if len(set(phis)) != group_order:
        return "two elements share an automorphism"
    found = [sf.canonical_key(m) for m in machines]
    if sorted(found) != sorted(keys):
        return "glued machines do not reconstruct the generated group"
    index = {key: i for i, key in enumerate(found)}
    for i, a in enumerate(machines):
        for j, b in enumerate(machines):
            k = index.get(sf.canonical_key(sf.product_min(a, b)))
            if k is None or phis[k] != compose_phi(phis[i], phis[j]):
                return f"elements {i}, {j}: the map is not multiplicative"
    return None


def oracle_alphabet_perm(ctx: Context, answer, expected) -> str | None:
    """The swap's action: None, or the vertex map read off the folding's classes."""
    a, vertex = expected
    if answer is None or vertex is None:
        if answer is vertex:
            return None
        return "the swap acts, but no automorphism was returned" if answer is None else (
            "an automorphism was returned, but the swap does not act"
        )
    got_vertex, got_edges = answer
    if got_vertex != vertex or got_edges != ((1, 0),) * a.state_count:
        return "vertex or edge map differs from the swap's action on the classes"
    if not is_digraph_automorphism(a, got_vertex, got_edges):
        return "not a digraph automorphism"
    return None


def swap_action(class_of, m):
    """Vertex map induced by swapping 0 and 1 in the words of G(2,m), or None."""
    mask = 2**m - 1
    vertex: dict[int, int] = {}
    for w, c in enumerate(class_of):
        if vertex.setdefault(c, class_of[w ^ mask]) != class_of[w ^ mask]:
            return None
    return tuple(vertex[c] for c in range(len(vertex)))


def alphabet_perm_item(ctx: Context, name: str, kind: str, a, vertex) -> Item:
    sf = ctx.sf

    def run():
        phi = sf.automorphism_from_alphabet_perm(a, (1, 0))
        return None if phi is None else (phi.vertex_perm, phi.edge_letters)

    return Item(name, kind, run, lambda ans, e: oracle_alphabet_perm(ctx, ans, e), (a, vertex))


SCHEDULE = (
    "rule_w3_j3",
    "subgroup",
    "rule_w4_j2",
    "aperm_folding",
    "rule_w3_j4",
    "subgroup",
    "rule_w3_j3",
    "aperm_debruijn",
    "rule_w4_j2",
    "subgroup",
)
# group orders |Aut(A)| of the subgroup items, in rotation, so that every
# seed draws the same mix of small and large groups
SUBGROUP_ORDERS = (2, 4, 8, 2, 16, 4, 2, 6, 4)
RULE_BANDS = {"rule_w3_j3": (3, 3, 20, 40), "rule_w4_j2": (4, 2, 20, 45), "rule_w3_j4": (3, 4, 70, 90)}


def forced_words(ctx: Context) -> Workload:
    sf = ctx.sf
    rng = random.Random(ctx.seed)
    by_order: dict[int, list] = {}
    for a, autos in g32_foldings(sf):
        by_order.setdefault(len(autos), []).append((a, autos))
    subgroups = 0
    items = []
    for i in range(FW_ROUNDS * len(SCHEDULE)):
        kind = SCHEDULE[i % len(SCHEDULE)]
        name = f"fw/{i:03d}"
        if kind in RULE_BANDS:
            window, power, lo, hi = RULE_BANDS[kind]
            rule = banded_rule(sf, rng, window, power, lo, hi)
            items.append(rule_power_item(ctx, name, kind, rule, power))
        elif kind == "subgroup":
            a, autos = rng.choice(by_order[SUBGROUP_ORDERS[subgroups % len(SUBGROUP_ORDERS)]])
            subgroups += 1
            gens = [sf.minimal_rep(sf.transducer_from_automorphism(a, phi)) for phi in autos]
            paths = []
            for j, g in enumerate(gens):
                path = ctx.workdir / f"fw_{i:03d}_gen{j:02d}.txt"
                path.write_text(ctx.formats.render_transducer(g))
                paths.append(str(path))
            keys = [sf.canonical_key(g) for g in gens]
            items.append(
                Item(
                    name,
                    kind,
                    lambda paths=paths: run_cli(ctx, ["subgroup-ag", *paths]),
                    lambda ans, e: oracle_subgroup(ctx, ans, e),
                    (len(autos), keys),
                )
            )
        elif kind == "aperm_debruijn":
            m = rng.choice((5, 6))
            vertex = swap_action(range(2**m), m)
            items.append(alphabet_perm_item(ctx, name, kind, sf.de_bruijn(2, m), vertex))
        else:
            g = sf.de_bruijn(2, 6)
            while True:
                pairs = [tuple(rng.sample(range(64), 2)) for _ in range(rng.choice((1, 2)))]
                p = sf.congruence_closure(g, pairs)
                if 16 <= p.class_count <= 40:
                    break
            items.append(
                alphabet_perm_item(
                    ctx, name, kind, sf.quotient(g, p), swap_action(p.class_of, 6)
                )
            )
    spec = CATALOG["named_t2r_rule"]
    named_rule = sf.LocalRule(2, spec["window"], tuple(spec["table"]))
    named = [
        alphabet_perm_item(
            ctx,
            "automorphism_from_alphabet_perm(G(2,8))",
            "aperm_debruijn",
            sf.de_bruijn(2, 8),
            swap_action(range(256), 8),
        ),
        rule_power_item(
            ctx,
            f"transducer_to_rule(T^{spec['power']}, {spec['power_states']} states)",
            "rule_power",
            named_rule,
            spec["power"],
        ),
    ]
    return Workload(items, 95.0, named)


# -- power_growth ------------------------------------------------------------------


def oracle_power(ctx: Context, answer, expected) -> str | None:
    """order() exceeds the cap; the powers' minimal state counts match the pins."""
    sf = ctx.sf
    t, pinned = expected
    if answer is not None:
        return f"order returned {answer}, expected exceeds-cap"
    base = sf.minimal_rep(t)
    counts = [base.state_count]
    power = base
    while len(counts) < len(pinned) - 1:  # the last pin is the power past the cap
        power = sf.product_min(power, base)
        counts.append(power.state_count)
    if counts != pinned[:-1] or pinned[-1] <= POWER_CAP:
        return f"power state counts {counts} differ from pinned {pinned}"
    return None


def power_growth(ctx: Context) -> Workload:
    sf = ctx.sf
    rng = random.Random(ctx.seed)
    entries = CATALOG["power_growth"]
    items = []
    for i, k in enumerate(shuffled(rng, len(entries))):
        entry = entries[k]
        base = ctx.formats.parse_transducer(entry["text"])
        t = renamed_transducer(sf, base, shuffled(rng, base.state_count))
        items.append(
            Item(
                f"power/{i:02d}",
                "order",
                lambda t=t: sf.order(t, cap_states=POWER_CAP),
                lambda ans, e: oracle_power(ctx, ans, e),
                (t, entry["power_states"]),
            )
        )
    return Workload(items, 75.0)


# -- fold_lattice ----------------------------------------------------------------


def oracle_foldings(ctx: Context, answer, expected) -> str | None:
    a, count = expected
    if len(answer) != count:
        return f"found {len(answer)} foldings, expected {count}"
    if len(set(answer)) != count:
        return "duplicate foldings"
    for class_of in answer:
        if not ctx.sf.is_folding(a, ctx.sf.StatePartition.from_class_of(class_of)):
            return f"{class_of} is not a folding"
    return None


def oracle_fold_count(ctx: Context, answer, expected) -> str | None:
    for n, ((code, out), want) in enumerate(zip(answer, expected), start=1):
        if (code, out.strip()) != (0, str(want)):
            return f"fold-count {n} 2 exited {code} with {out.strip()!r}, expected {want}"
    return None if len(answer) == len(expected) else "missing fold-count results"


def lattice_item(ctx: Context, name: str, a, count: int) -> Item:
    sf = ctx.sf
    return Item(
        name,
        "enumerate",
        lambda: tuple(p.class_of for p in sf.enumerate_foldings(a)),
        lambda ans, e: oracle_foldings(ctx, ans, e),
        (a, count),
    )


def fold_lattice(ctx: Context) -> Workload:
    sf = ctx.sf
    rng = random.Random(ctx.seed)
    g25 = sf.de_bruijn(2, 5)
    quotients: dict[int, list] = {}
    for entry in CATALOG["quotients_g25"]:
        q = sf.quotient(g25, sf.StatePartition.from_class_of(entry["class_of"]))
        q = renamed_automaton(sf, q, shuffled(rng, q.state_count))
        quotients.setdefault(entry["states"], []).append((q, entry["foldings"]))
    g23, g32, g24 = sf.de_bruijn(2, 3), sf.de_bruijn(3, 2), sf.de_bruijn(2, 4)
    exhaustive_g23 = len(sf.enumerate_foldings(g23, method="exhaustive"))
    counts = CATALOG["fold_count_g_n_2"]

    def sweep():
        out = []
        for n in range(1, len(counts) + 1):
            # each CLI process starts with empty Bell and R caches
            sf.counting.bell.cache_clear()
            sf.counting.moebius_R.cache_clear()
            out.append(run_cli(ctx, ["fold-count", str(n), "2"]))
        return out

    fixed = {
        "G23": lattice_item(ctx, "enumerate_foldings(G(2,3))", g23, exhaustive_g23),
        "G32": lattice_item(ctx, "enumerate_foldings(G(3,2))", g32, sf.count_foldings_g_n_2(3)),
        "G24": lattice_item(ctx, "enumerate_foldings(G(2,4))", g24, 1247),
        "sweep": Item(
            "fold-count n 2, n=1..12", "fold_count", sweep,
            lambda ans, e: oracle_fold_count(ctx, ans, e), counts,
        ),
    }
    # every catalog quotient in every pass, interleaved by size so that any
    # prefix of the pass has a similar mix; the seed renames their states
    order = ["Q13", "Q15", "G23", "Q14", "Q13", "G32", "Q15", "Q14", "sweep", "Q13",
             "Q15", "G24", "Q14"] + ["Q13", "Q15", "Q14"] * 5
    items = []
    for slot in order:
        if slot in fixed:
            items.append(fixed[slot])
            continue
        states = int(slot[1:])
        q, count = quotients[states].pop(0)
        items.append(lattice_item(ctx, f"enumerate_foldings(G(2,5)/{states} states, {count})", q, count))
    return Workload(items, 75.0, [fixed["G24"]])


WORKLOADS = {
    "h3_decompose": h3_decompose,
    "forced_words": forced_words,
    "power_growth": power_growth,
    "fold_lattice": fold_lattice,
}

# item kind -> a wrong expected value its oracle must reject (see selftest.py)
_WRONG_RULE = lambda sf, e: (e[0], e[1] + 1)  # noqa: E731
_WRONG_H3 = lambda sf, e: sf.product_min(e, sf.single_state((1, 2, 0)))  # noqa: E731
_WRONG_APERM = lambda sf, e: (  # noqa: E731
    e[0], None if e[1] is not None else tuple(range(e[0].state_count))
)
WRONG_EXPECTED = {
    "decompose": _WRONG_H3,
    "decompose_inv": _WRONG_H3,
    "rule_w3_j3": _WRONG_RULE,
    "rule_w4_j2": _WRONG_RULE,
    "rule_w3_j4": _WRONG_RULE,
    "rule_power": _WRONG_RULE,
    "subgroup": lambda sf, e: (e[0] + 1, e[1]),
    "aperm_debruijn": _WRONG_APERM,
    "aperm_folding": _WRONG_APERM,
    "order": lambda sf, e: (e[0], e[1][:-2] + [e[1][-2] + 1, e[1][-1]]),
    "enumerate": lambda sf, e: (e[0], e[1] + 1),
    "fold_count": lambda sf, e: e[:-1] + [e[-1] + 1],
}
