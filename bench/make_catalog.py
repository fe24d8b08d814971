"""Regenerate bench/catalog.json, the pinned inputs and answers of the benchmark.

    python3 bench/make_catalog.py

The catalog holds inputs whose expected answers cannot be recomputed cheaply
by an independent route, together with those answers:

* `power_growth`: elements of H_3 that passed a growth test on their first
  powers, each with the minimal state counts of its powers up to the first
  one above the workload's state cap.  Counts are renaming-invariant, so the
  benchmark renames states per seed and still checks against these values.
* `quotients_g25`: foldings of G(2,5) with 13-15 classes and their folding
  counts, by size band.
* `fold_count_g_n_2`: the exact folding counts of G(n,2), n = 1..12.
* `named_t2r_rule`: a fixed window-4 rule whose cube has 100-200 states, the
  ROADMAP baseline case for `transducer_to_rule`.

The catalog is made once with a fixed seed; rerunning this script on the same
library gives the same file.  Regenerate it only on purpose, and say so where
the change is recorded, since it changes the benchmark's inputs.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import shiftfold as sf  # noqa: E402
from shiftfold.formats import render_transducer  # noqa: E402

CATALOG_SEED = 2004
POWER_CAP = 1000
POWER_ELEMENTS = 16
QUOTIENT_BANDS = {13: 8, 14: 8, 15: 8}


def h3_pool():
    """Minimized glued machines H(A, phi) over the 192 foldings of G(3,2)."""
    g = sf.de_bruijn(3, 2)
    pool = []
    for p in sf.enumerate_foldings(g, method="exhaustive"):
        a = sf.quotient(g, p)
        for phi in sf.enumerate_automorphisms(a):
            pool.append(sf.minimal_rep(sf.transducer_from_automorphism(a, phi)))
    return pool


def power_counts(t, cap):
    """Minimal state counts of t, t^2, ... up to the first one above cap."""
    counts = [t.state_count]
    power = t
    while counts[-1] <= cap:
        power = sf.product_min(power, t)
        counts.append(power.state_count)
    return counts


def growing_elements(rng, pool):
    nontrivial = [t for t in pool if t.state_count > 1]
    seen = set()
    out = []
    while len(out) < POWER_ELEMENTS:
        t = rng.choice(nontrivial)
        for _ in range(rng.randrange(1, 3)):
            t = sf.product_min(t, rng.choice(pool))
        key = sf.canonical_key(t)
        if key in seen:
            continue
        seen.add(key)
        square = sf.product_min(t, t)
        cube = sf.product_min(square, t)
        # growth test: strictly growing powers, at least tripling by the cube
        if not 1 < t.state_count < square.state_count < cube.state_count:
            continue
        if cube.state_count < 3 * t.state_count:
            continue
        out.append(
            {
                "text": render_transducer(t),
                "power_states": power_counts(t, POWER_CAP),
            }
        )
    return out


def g25_quotients(rng):
    g = sf.de_bruijn(2, 5)
    wanted = dict(QUOTIENT_BANDS)
    seen = set()
    out = []
    while any(wanted.values()):
        pairs = [tuple(rng.sample(range(g.state_count), 2)) for _ in range(rng.choice((2, 3)))]
        p = sf.congruence_closure(g, pairs)
        if not wanted.get(p.class_count) or p.class_of in seen:
            continue
        seen.add(p.class_of)
        wanted[p.class_count] -= 1
        q = sf.quotient(g, p)
        count = len(sf.enumerate_foldings(q))
        out.append({"class_of": list(p.class_of), "states": p.class_count, "foldings": count})
    return sorted(out, key=lambda e: (e["states"], e["foldings"], e["class_of"]))


def named_rule(rng):
    while True:
        table = tuple(rng.randrange(2) for _ in range(16))
        t = sf.rule_to_transducer(sf.LocalRule(2, 4, table))
        cube = sf.product_min(sf.product_min(t, t), t)
        if 100 <= cube.state_count <= 200:
            return {"window": 4, "table": list(table), "power": 3, "power_states": cube.state_count}


def main() -> int:
    rng = random.Random(CATALOG_SEED)
    catalog = {
        "catalog_seed": CATALOG_SEED,
        "power_cap": POWER_CAP,
        "power_growth": growing_elements(rng, h3_pool()),
        "quotients_g25": g25_quotients(rng),
        "fold_count_g_n_2": [sf.count_foldings_g_n_2(n) for n in range(1, 13)],
        "named_t2r_rule": named_rule(rng),
    }
    text = json.dumps(catalog, indent=1, sort_keys=True)
    (HERE / "catalog.json").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
