import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftfold import (
    Automaton,
    DigraphAutomorphism,
    LocalRule,
    StatePartition,
    Transducer,
    de_bruijn,
    enumerate_automorphisms,
)
from shiftfold.formats import (
    ParseError,
    SemanticError,
    parse_automaton,
    parse_automorphism,
    parse_machine,
    parse_partition,
    parse_rule,
    parse_transducer,
    render_automaton,
    render_automorphism,
    render_partition,
    render_rule,
    render_transducer,
)

from conftest import shift_transducer


def test_automaton_roundtrip(fig_automaton):
    for a in [fig_automaton, de_bruijn(2, 3), de_bruijn(3, 2)]:
        assert parse_automaton(render_automaton(a)) == a


def test_transducer_roundtrip(fig_transducer, h3_pool):
    for t in [fig_transducer, shift_transducer(2)] + h3_pool[:10]:
        assert parse_transducer(render_transducer(t)) == t


def test_shift_transducer_rendering():
    text = render_transducer(shift_transducer(2))
    assert text.splitlines() == [
        "transducer n=2 states=2",
        "state 0: 0 1 | 0 0",
        "state 1: 0 1 | 1 1",
    ]


def test_rule_roundtrip():
    rule = LocalRule(3, 2, (0, 1, 2, 0, 1, 2, 1, 0, 2))
    assert parse_rule(render_rule(rule)) == rule


def test_partition_roundtrip(fig_partition):
    assert parse_partition(render_partition(fig_partition)) == fig_partition


def test_automorphism_roundtrip(fig_automaton):
    for phi in enumerate_automorphisms(fig_automaton):
        text = render_automorphism(phi, 3)
        assert parse_automorphism(text, fig_automaton) == phi


def test_parse_machine_dispatch(fig_automaton, fig_transducer):
    assert parse_machine(render_automaton(fig_automaton)) == fig_automaton
    assert parse_machine(render_transducer(fig_transducer)) == fig_transducer


def test_comments_and_blanks_ignored():
    text = "# header comment\n\nautomaton n=2 states=1\n# row\nstate 0: 0 0  # loop\n"
    assert parse_automaton(text).state_count == 1


def test_parse_error_reports_line():
    with pytest.raises(ParseError) as err:
        parse_automaton("automaton n=2 states=1\nstate zero: 0 0\n")
    assert "line 2" in str(err.value)


def test_range_error_is_semantic():
    # target 2 out of range for a 2-state machine
    bad = "transducer n=2 states=2\nstate 0: 2 0 | 0 1\nstate 1: 0 1 | 0 1\n"
    with pytest.raises(SemanticError):
        parse_transducer(bad)
    # a malformed token is a plain parse error, not semantic
    with pytest.raises(ParseError) as err:
        parse_transducer("transducer n=2 states=1\nstate 0: x 0 | 0 1\n")
    assert not isinstance(err.value, SemanticError)


def test_missing_state_is_semantic():
    with pytest.raises(SemanticError):
        parse_automaton("automaton n=2 states=2\nstate 0: 0 0\n")


def test_unknown_tag():
    with pytest.raises(ParseError):
        parse_machine("widget n=2\n")


def test_header_state_count_allocates_nothing():
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(SemanticError) as err:
            parse_transducer("transducer n=2 states=3000000\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == "need states 0..2999999, got []"
    assert peak < 1 << 20


def test_negative_state_count_reaches_the_constructor():
    for text in ("automaton n=2 states=-1\n", "transducer n=2 states=-3\n"):
        with pytest.raises(SemanticError, match="needs at least one state"):
            parse_machine(text)


PARSERS = (
    parse_automaton,
    parse_transducer,
    parse_rule,
    parse_partition,
    parse_automorphism,
    parse_machine,
)

# Header words, labels and numbers, so that drawn texts get past the header
# into the row checks.  A huge rule window must be refused from the table
# length alone, without forming n**window.
TOKENS = st.sampled_from(
    "automaton transducer rule partition automorphism state edges vertices: outputs: "
    "class_of: n=2 n=3 n= states=1 states=2 states=-1 window=1 window=2 "
    "window=100000000000 classes=1 "
    "classes=2 0 1 2 3 -1 0: 1: 2: | : # = x 1.5".split()
)
SEPARATORS = st.sampled_from([" ", "\n", "\n\n", " # c\n"])
TOKEN_TEXTS = st.lists(st.tuples(TOKENS, SEPARATORS), max_size=30).map(
    lambda pairs: "".join(token + sep for token, sep in pairs)
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=200), TOKEN_TEXTS))
def test_parsers_raise_only_parse_errors(text):
    for parse in PARSERS:
        try:
            parse(text)
        except ParseError:
            pass


@st.composite
def automata(draw):
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, 6))
    row = st.tuples(*[st.integers(0, m - 1)] * n)
    return Automaton(n, tuple(draw(st.lists(row, min_size=m, max_size=m))))


@st.composite
def transducers(draw):
    a = draw(automata())
    row = st.tuples(*[st.integers(0, a.alphabet_size - 1)] * a.alphabet_size)
    m = a.state_count
    return Transducer(a, tuple(draw(st.lists(row, min_size=m, max_size=m))))


@st.composite
def rules(draw):
    n, window = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    letters = st.lists(st.integers(0, n - 1), min_size=n**window, max_size=n**window)
    return LocalRule(n, window, tuple(draw(letters)))


partitions = st.lists(st.integers(0, 4), max_size=8).map(StatePartition.from_class_of)


@st.composite
def automorphisms(draw):
    n, m = draw(st.integers(2, 4)), draw(st.integers(1, 6))
    letters = st.permutations(range(n)).map(tuple)
    vertex = tuple(draw(st.permutations(range(m))))
    return DigraphAutomorphism(vertex, tuple(draw(st.lists(letters, min_size=m, max_size=m))))


def rendered(machine) -> str:
    if isinstance(machine, DigraphAutomorphism):
        return render_automorphism(machine, len(machine.edge_letters[0]))
    renders = {
        Automaton: render_automaton,
        Transducer: render_transducer,
        LocalRule: render_rule,
        StatePartition: render_partition,
    }
    return renders[type(machine)](machine)


@settings(max_examples=200, deadline=None)
@given(st.one_of(automata(), transducers(), rules(), partitions, automorphisms()))
def test_render_parse_round_trips(machine):
    text = rendered(machine)
    assert parse_machine(text) == machine
    assert rendered(parse_machine(text)) == text
