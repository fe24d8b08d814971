import pytest

from shiftfold import (
    LocalRule,
    de_bruijn,
    enumerate_automorphisms,
    shift_transducer,
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
    to_dot,
)


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


def test_dot_automaton_counts():
    dot = to_dot(de_bruijn(2, 1))
    assert dot.count("->") == 4
    assert dot.count("[label=\"q") == 2


def test_dot_transducer_labels(fig_transducer):
    dot = to_dot(fig_transducer)
    assert dot.count("->") == 9
    assert '0|2' in dot and '1|0' in dot


def test_dot_identity_loops():
    from shiftfold import single_state

    dot = to_dot(single_state((0, 1)))
    assert dot.count("->") == 2
    assert dot.count("0 -> 0") == 2


def test_dot_deterministic(fig_transducer):
    assert to_dot(fig_transducer) == to_dot(fig_transducer)


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
