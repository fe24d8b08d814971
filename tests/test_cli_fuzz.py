"""Every subcommand of `cli.main`, run in-process on small random and corrupted inputs,
ends in one of the documented ways: exit 0 or 1, or exit 2 or 3 with a one-line message
on stderr.  Argparse's own refusals leave by SystemExit with its usage text.

Machines have 1-4 states over 2-3 letters, rules a window of 1-3, and `--cap` lies
between -1 and 4, so no call reaches the large inputs that the cap tests run in a
child process.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shiftfold import (
    cli,
    de_bruijn,
    enumerate_automorphisms,
    enumerate_foldings,
    quotient,
    transducer_from_automorphism,
)
from shiftfold.formats import render_automaton, render_automorphism, render_transducer

EXIT_CODES = {0, 1, 2, 3}
# the quotients of G(2, 2), G(3, 1) and G(3, 2) with 1-4 states: foldings of de Bruijn
# graphs, so strongly synchronizing, and each glued along an automorphism is in H_n
FOLDED = [
    (a, enumerate_automorphisms(a))
    for g in (de_bruijn(2, 2), de_bruijn(3, 1), de_bruijn(3, 2))
    for a in (quotient(g, p) for p in enumerate_foldings(g) if p.class_count <= 4)
]
LETTERS = st.integers(2, 3)
STATES = st.integers(1, 4)


@st.composite
def machine_texts(draw, tag: str, letters=LETTERS, states=STATES):
    """An automaton, or a transducer whose output rows are permutations or not."""
    n, k = draw(letters), draw(states)
    lines = [f"{tag} n={n} states={k}"]
    permutations = draw(st.booleans())
    for q in range(k):
        targets = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        row = " ".join(map(str, targets))
        if tag == "transducer":
            outputs = st.permutations(range(n)) if permutations else st.lists(
                st.integers(0, n - 1), min_size=n, max_size=n
            )
            row += " | " + " ".join(str(x) for x in draw(outputs))
        lines.append(f"state {q}: {row}")
    return "\n".join(lines) + "\n"


@st.composite
def rule_texts(draw):
    n = draw(LETTERS)
    window = draw(st.integers(1, 3))
    table = draw(st.lists(st.integers(0, n - 1), min_size=n**window, max_size=n**window))
    return f"rule n={n} window={window}\noutputs: " + " ".join(map(str, table)) + "\n"


@st.composite
def automorphism_texts(draw, letters=LETTERS, states=STATES):
    """The identity, which every automaton of its shape has, or a random relabelling."""
    n, k = draw(letters), draw(states)
    identity = draw(st.booleans())
    vertices = list(range(k)) if identity else draw(st.permutations(range(k)))
    lines = [f"automorphism n={n} states={k}", "vertices: " + " ".join(map(str, vertices))]
    for q in range(k):
        images = list(range(n)) if identity else draw(st.permutations(range(n)))
        lines.append(f"edges {q}: " + " ".join(map(str, images)))
    return "\n".join(lines) + "\n"


@st.composite
def folded_texts(draw, tag: str, letters=LETTERS):
    """A folded automaton, or an element of H_n glued from one, as text."""
    n = draw(letters)
    a, autos = draw(st.sampled_from([f for f in FOLDED if f[0].alphabet_size == n]))
    if tag == "automaton":
        return render_automaton(a)
    return render_transducer(transducer_from_automorphism(a, draw(st.sampled_from(autos))))


ANY_TEXT = st.one_of(
    machine_texts("automaton"),
    machine_texts("transducer"),
    rule_texts(),
    automorphism_texts(),
    folded_texts("automaton"),
    folded_texts("transducer"),
)


@st.composite
def corrupted(draw):
    """Any kind of text, truncated, with one character replaced, or with a line dropped
    or repeated."""
    text = draw(ANY_TEXT)
    how = draw(st.sampled_from(["truncate", "replace", "drop", "repeat"]))
    if how == "truncate":
        return text[: draw(st.integers(0, len(text)))]
    if how == "replace":
        i = draw(st.integers(0, len(text) - 1))
        return text[:i] + draw(st.sampled_from("0123456789 -|:=#x\n")) + text[i + 1 :]
    lines = text.splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    if how == "drop":
        return "".join(lines[:i] + lines[i + 1 :])
    return "".join(lines[: i + 1] + lines[i:])


class Text(str):
    """A drawn file text, which the test writes to a file and passes by its path."""


@st.composite
def files(draw, texts):
    """Half the time the command's own kind of input, else any kind of text, as drawn
    or corrupted."""
    return Text(draw(draw(st.sampled_from([texts, texts, ANY_TEXT, corrupted()]))))


def transducer_texts(letters=LETTERS):
    return st.one_of(machine_texts("transducer", letters), folded_texts("transducer", letters))


MACHINES = files(
    st.one_of(machine_texts("automaton"), folded_texts("automaton"), transducer_texts())
)
TRANSDUCERS = files(transducer_texts())
CAPS = st.integers(-1, 4).map(str)
# small enough to run in-process; "x" is refused by argparse
SMALL_INTS = st.one_of(st.integers(-1, 4).map(str), st.just("x"))


def transducers_over_one_alphabet(count: int):
    """`count` transducers that share their alphabet unless one is drawn otherwise."""
    return LETTERS.flatmap(lambda n: st.tuples(*[files(transducer_texts(st.just(n)))] * count))


@st.composite
def fold_sizes(draw):
    """n and m up to G(2, 4), G(3, 2) and G(4, 1); G(4, 2) alone has 78,721 foldings."""
    n = draw(st.integers(-1, 4))
    m = draw(st.integers(-1, {3: 2, 4: 1}.get(n, 4)))
    return [str(n), str(m)]


@st.composite
def glued_pairs(draw):
    """An automaton and an automorphism for the same alphabet and state count: a folded
    automaton and one of its automorphisms, or a random automaton and a relabelling."""
    if draw(st.booleans()):
        a, autos = draw(st.sampled_from(FOLDED))
        pair = st.tuples(
            st.just(render_automaton(a)),
            st.sampled_from([render_automorphism(phi, a.alphabet_size) for phi in autos]),
        )
    else:
        n, k = st.just(draw(LETTERS)), st.just(draw(STATES))
        pair = st.tuples(machine_texts("automaton", n, k), automorphism_texts(n, k))
    automaton, automorphism = draw(pair)
    return draw(st.tuples(files(st.just(automaton)), files(st.just(automorphism))))


# each subcommand: the strategy for its arguments, file texts standing for file paths
ARGUMENTS = {
    "debruijn": st.lists(SMALL_INTS, min_size=2, max_size=2),
    "sync": st.tuples(MACHINES),
    "core": st.tuples(MACHINES),
    "minimize": st.tuples(TRANSDUCERS),
    "product": transducers_over_one_alphabet(2),
    "invert": st.tuples(TRANSDUCERS),
    "check-hn": st.tuples(TRANSDUCERS),
    "rule2trans": st.tuples(files(rule_texts())),
    "trans2rule": st.tuples(TRANSDUCERS),
    "aut": st.tuples(MACHINES, st.just("--cap"), CAPS),
    "haphi": glued_pairs(),
    "decompose": st.tuples(TRANSDUCERS, st.sampled_from([(), ("--involutions",)])),
    "order": st.tuples(TRANSDUCERS, st.just("--cap"), CAPS),
    "fold-count": fold_sizes(),
    "fold-enum": fold_sizes(),
    "bell": st.tuples(st.one_of(st.integers(-1, 40).map(str), st.just("x"))),
    "subgroup-ag": st.tuples(
        st.integers(1, 3).flatmap(transducers_over_one_alphabet), st.just("--cap"), CAPS
    ),
}


def test_every_subcommand_is_fuzzed():
    actions = cli.build_parser()._actions
    commands = next(a for a in actions if a.choices).choices
    assert set(ARGUMENTS) == set(commands)


def flatten(args, tmp_path, argv):
    """Append the drawn arguments to argv, each file text written to a file of its own."""
    for arg in args:
        if isinstance(arg, Text):
            path = tmp_path / f"input{len(argv)}.txt"
            path.write_text(arg)
            argv.append(str(path))
        elif isinstance(arg, str):
            argv.append(arg)
        else:
            flatten(arg, tmp_path, argv)
    return argv


@pytest.mark.parametrize("command", sorted(ARGUMENTS))
def test_cli_ends_cleanly_on_small_inputs(command, tmp_path):
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ARGUMENTS[command])
    def run(args):
        argv = flatten(args, tmp_path, [command])
        if command == "decompose":
            argv += ["-o", str(tmp_path / "factors")]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's refusal, with its usage text
                assert exc.code in EXIT_CODES, argv
                return
        assert code in EXIT_CODES, argv
        if code in (2, 3):
            lines = err.getvalue().splitlines(keepends=True)
            assert len(lines) == 1 and lines[0].endswith("\n"), argv

    run()
