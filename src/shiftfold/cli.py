"""Command-line workbench.

Exit codes: 0 success, 1 negative verdict (for example `check-hn` on a
machine outside the group), 2 usage or parse errors or a file that cannot be
read or written, 3 a cap was exceeded.
"""

from __future__ import annotations

import argparse
import sys
from math import exp, lgamma, log, log1p
from pathlib import Path

from . import counting
from .automata import (
    Automaton,
    CapExceededError,
    StatePartition,
    core_of,
    de_bruijn,
    merge_terms,
    sync_level,
)
from .decompose import decompose, decompose_involutions, verify
from .digraph_aut import enumerate_automorphisms, transducer_from_automorphism
from .formats import (
    ParseError,
    parse_automaton,
    parse_automorphism,
    parse_machine,
    parse_rule,
    parse_transducer,
    render_automaton,
    render_automorphism,
    render_rule,
    render_transducer,
)
from .rules import rule_to_transducer, transducer_to_rule
from .subgroups import subgroup_automaton, subgroup_closure
from .transducers import (
    Transducer,
    core,
    hn_levels,
    invert,
    order,
    product_min,
    weak_minimize,
)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _write(path: str | Path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from None


def _load_transducer(path: str) -> Transducer:
    return parse_transducer(_read(path))


def _machine_base(machine) -> Automaton:
    if isinstance(machine, Transducer):
        return machine.base
    if isinstance(machine, Automaton):
        return machine
    raise ParseError("expected an automaton or transducer file")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write(out, text)


def cmd_debruijn(args) -> int:
    _emit(render_automaton(de_bruijn(args.n, args.m)), args.output)
    return 0


def cmd_sync(args) -> int:
    base = _machine_base(parse_machine(_read(args.file)))
    counts = " ".join(str(len(delta)) for delta, _ in merge_terms(base.delta))
    level = sync_level(base)
    text = f"sequence: {counts}\nlevel: {'none' if level is None else level}\n"
    _emit(text, args.output)
    return 0 if level is not None else 1


def cmd_core(args) -> int:
    machine = parse_machine(_read(args.file))
    if isinstance(machine, Transducer):
        _emit(render_transducer(core(machine)), args.output)
    else:
        reduced, _ = core_of(_machine_base(machine))
        _emit(render_automaton(reduced), args.output)
    return 0


def cmd_minimize(args) -> int:
    _emit(render_transducer(weak_minimize(_load_transducer(args.file))), args.output)
    return 0


def cmd_product(args) -> int:
    t = _load_transducer(args.left)
    u = _load_transducer(args.right)
    _emit(render_transducer(product_min(t, u)), args.output)
    return 0


def cmd_invert(args) -> int:
    _emit(render_transducer(invert(_load_transducer(args.file))), args.output)
    return 0


def cmd_check_hn(args) -> int:
    levels = hn_levels(_load_transducer(args.file))
    if levels is not None:
        _emit(f"in-hn: true\nlevels: {levels}\n", args.output)
        return 0
    _emit("in-hn: false\n", args.output)
    return 1


def cmd_rule2trans(args) -> int:
    _emit(render_transducer(rule_to_transducer(parse_rule(_read(args.file)))), args.output)
    return 0


def cmd_trans2rule(args) -> int:
    _emit(render_rule(transducer_to_rule(_load_transducer(args.file))), args.output)
    return 0


def cmd_aut(args) -> int:
    base = _machine_base(parse_machine(_read(args.file)))
    autos = enumerate_automorphisms(base, cap=args.cap)
    blocks = [f"count: {len(autos)}"]
    for phi in autos:
        blocks.append(render_automorphism(phi, base.alphabet_size).rstrip("\n"))
    _emit("\n\n".join(blocks) + "\n", args.output)
    return 0


def cmd_haphi(args) -> int:
    base = parse_automaton(_read(args.file))
    phi = parse_automorphism(_read(args.automorphism), base)
    _emit(render_transducer(transducer_from_automorphism(base, phi)), args.output)
    return 0


def cmd_decompose(args) -> int:
    t = _load_transducer(args.file)
    outdir = Path(args.output) if args.output else Path(Path(args.file).stem + ".factors")
    # a target that is, or lies under, a non-directory is refused before the factorization
    # runs, and without creating a directory
    for path in (outdir, *outdir.parents):
        if path.exists():
            if not path.is_dir():
                raise ParseError(f"cannot write {outdir}: {path} is not a directory")
            break
    result = decompose_involutions(t) if args.involutions else decompose(t)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ParseError(f"cannot write {outdir}: {exc}") from None

    _write(outdir / "remainder.txt", render_transducer(result.remainder))
    lines = [f"factorization of {args.file}"]
    lines.append(f"remainder: remainder.txt order={order(result.remainder) or 'exceeds-cap'}")
    sources = [
        step
        for step in reversed(result.steps)
        for _ in (step.involutions if step.involutions is not None else (step.factor,))
    ]
    for idx, (step, factor) in enumerate(zip(sources, result.inverse_factors), start=1):
        name = f"factor_{idx:02d}.txt"
        _write(outdir / name, render_transducer(factor))
        lines.append(
            f"factor {idx}: {name} order={order(factor) or 'exceeds-cap'}"
            f" level={step.level_i} pair={step.pair}"
        )
    lines.append("reconstruction: remainder then factors in listed order")
    ok = verify(result)
    lines.append(f"verified: {'true' if ok else 'false'}")
    manifest = "\n".join(lines) + "\n"
    _write(outdir / "manifest.txt", manifest)
    sys.stdout.write(manifest)
    return 0 if ok else 1


def cmd_order(args) -> int:
    k = order(_load_transducer(args.file), cap_states=args.cap, cap_iters=args.cap)
    if k is None:
        cap = args.cap
        raise CapExceededError(f"order cap exceeded: order above {cap}, or a power over {cap} states")
    _emit(f"{k}\n", args.output)
    return 0


def _bell(k: int) -> int:
    """counting.bell(k), or one ValueError when its decimal form passes Python's digit limit,
    or the default limit when the limit is switched off (0), so that no k runs unbounded.

    B(k) >= S(k, j) >= (j**k - j*(j-1)**k)/j! for each j >= 2, and that bound
    refuses most such k before the Bell triangle runs.
    """
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    message = f"bell {k} exceeds the limit ({limit} digits) for integer string conversion"
    for j in range(2, k):
        missing = j * exp(k * log1p(-1 / j))  # j*(j-1)**k / j**k
        if missing < 1 and k * log(j) + log1p(-missing) - lgamma(j + 1) > limit * log(10):
            raise ValueError(message)
    value = counting.bell(k)
    if value >= 10**limit:
        raise ValueError(message)
    return value


def _foldings_of_de_bruijn(n: int, m: int) -> list[StatePartition]:
    """counting.enumerate_foldings(de_bruijn(n, m)), and for n = 1 the one folding of
    G(1, m), whose single state reads its one letter back to itself."""
    if n < 1:
        raise ValueError("alphabet size must be at least 1")
    if m < 1:
        raise ValueError("word length must be at least 1")
    if n == 1:
        return [StatePartition.discrete(1)]
    return counting.enumerate_foldings(de_bruijn(n, m))


def cmd_fold_count(args) -> int:
    if args.n < 1:
        raise ValueError("alphabet size must be at least 1")
    if args.m == 1:
        value = _bell(args.n)
    elif args.m == 2:
        value = counting.count_foldings_g_n_2(args.n)
    else:
        value = len(_foldings_of_de_bruijn(args.n, args.m))
    _emit(f"{value}\n", args.output)
    return 0


def cmd_fold_enum(args) -> int:
    foldings = _foldings_of_de_bruijn(args.n, args.m)
    text = "".join(" ".join(str(c) for c in p.class_of) + "\n" for p in foldings)
    _emit(text, args.output)
    return 0


def cmd_bell(args) -> int:
    _emit(f"{_bell(args.k)}\n", args.output)
    return 0


def cmd_subgroup_ag(args) -> int:
    gens = [_load_transducer(path) for path in args.generators]
    closure = subgroup_closure(gens, cap=args.cap)
    base, mapping = subgroup_automaton(closure)
    size = len(closure.elements)
    blocks = [f"order: {size}\nlevel: {closure.max_sync_level}"]
    blocks.append(render_automaton(base).rstrip("\n"))
    for idx, element in enumerate(closure.elements):
        phi = mapping[element]
        k = order(element, cap_iters=size)  # an element's order divides the group's
        blocks.append(
            f"element {idx}: states={element.state_count} order={k}\n"
            + render_automorphism(phi, base.alphabet_size).rstrip("\n")
        )
    _emit("\n\n".join(blocks) + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftfold",
        description="Strongly synchronizing automata and synchronous transducer algebra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, *positionals):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("-o", "--output", default=None, help="write output here instead of stdout")
        for arg in positionals:
            p.add_argument(arg, type=int if arg in ("n", "m", "k") else str)
        return p

    add("debruijn", cmd_debruijn, "emit a de Bruijn graph automaton", "n", "m")
    add("sync", cmd_sync, "synchronizing sequence and level of a machine", "file")
    add("core", cmd_core, "restrict a machine to its core", "file")
    add("minimize", cmd_minimize, "identify behaviourally equal states", "file")
    add("product", cmd_product, "monoid product of two transducers", "left", "right")
    add("invert", cmd_invert, "automata-theoretic inverse of a transducer", "file")
    add("check-hn", cmd_check_hn, "test core/invertible/bisynchronizing membership", "file")
    add("rule2trans", cmd_rule2trans, "turn a window rule into a transducer", "file")
    add("trans2rule", cmd_trans2rule, "turn a transducer into a window rule", "file")
    p = add("aut", cmd_aut, "enumerate digraph automorphisms", "file")
    p.add_argument("--cap", type=int, default=10_000)
    p = add("haphi", cmd_haphi, "glue an automaton to itself along an automorphism", "file")
    p.add_argument("automorphism")
    p = add("decompose", cmd_decompose, "factor into torsion elements (writes files)", "file")
    p.add_argument("--involutions", action="store_true")
    p = add("order", cmd_order, "order of a group element", "file")
    p.add_argument("--cap", type=int, default=1_000)
    add("fold-count", cmd_fold_count, "count foldings of a de Bruijn graph", "n", "m")
    add("fold-enum", cmd_fold_enum, "list foldings of a de Bruijn graph", "n", "m")
    add("bell", cmd_bell, "Bell number", "k")
    p = add("subgroup-ag", cmd_subgroup_ag, "automaton realizing a finite subgroup")
    p.add_argument("generators", nargs="+")
    p.add_argument("--cap", type=int, default=512)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())