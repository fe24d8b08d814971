"""Line-oriented text formats for machines, rules, partitions and automorphisms.

Every format round-trips bit-exactly.  Lines starting with `#` and blank
lines are ignored.  Every problem, a syntax error or a value that parses but
violates a range or completeness constraint, raises ParseError.
"""

from __future__ import annotations

from contextlib import contextmanager

from .automata import Automaton, StatePartition
from .digraph_aut import DigraphAutomorphism, check_automorphism
from .rules import LocalRule
from .transducers import Transducer


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        spot = ""
        if line is not None:
            spot = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + spot)
        self.line = line
        self.column = column


def render_automaton(a: Automaton) -> str:
    lines = [f"automaton n={a.alphabet_size} states={a.state_count}"]
    for q, row in enumerate(a.delta):
        lines.append(f"state {q}: " + " ".join(str(t) for t in row))
    return "\n".join(lines) + "\n"


def render_transducer(t: Transducer) -> str:
    lines = [f"transducer n={t.alphabet_size} states={t.state_count}"]
    for q in range(t.state_count):
        delta = " ".join(str(x) for x in t.base.delta[q])
        out = " ".join(str(x) for x in t.output[q])
        lines.append(f"state {q}: {delta} | {out}")
    return "\n".join(lines) + "\n"


def render_rule(f: LocalRule) -> str:
    header = f"rule n={f.alphabet_size} window={f.window}"
    return header + "\noutputs: " + " ".join(str(x) for x in f.table) + "\n"


def render_partition(p: StatePartition) -> str:
    header = f"partition states={len(p.class_of)} classes={p.class_count}"
    return header + "\nclass_of: " + " ".join(str(c) for c in p.class_of) + "\n"


def render_automorphism(phi: DigraphAutomorphism, n: int) -> str:
    lines = [f"automorphism n={n} states={len(phi.vertex_perm)}"]
    lines.append("vertices: " + " ".join(str(v) for v in phi.vertex_perm))
    for q, row in enumerate(phi.edge_letters):
        lines.append(f"edges {q}: " + " ".join(str(y) for y in row))
    return "\n".join(lines) + "\n"


def _content_lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


def _header(text: str, tag: str, keys: tuple[str, ...]):
    """Content lines of `text` and the integer header fields named by `keys`."""
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("empty input")
    lineno, line = lines[0]
    parts = line.split()
    if not parts or parts[0] != tag:
        raise ParseError(f"expected {tag!r} header", lineno)
    if len(parts) != 1 + len(keys):
        raise ParseError(f"{tag} header needs fields {keys}", lineno)
    values = []
    for want, field in zip(keys, parts[1:]):
        if "=" not in field:
            raise ParseError(f"malformed header field {field!r}", lineno, line.find(field) + 1)
        key, _, value = field.partition("=")
        if key != want:
            raise ParseError(f"expected field {want!r}, got {key!r}", lineno)
        try:
            values.append(int(value))
        except ValueError:
            raise ParseError(f"field {want!r} is not an integer", lineno) from None
    return lines, values


def _ints(text: str, lineno: int) -> list[int]:
    out = []
    for token in text.split():
        try:
            out.append(int(token))
        except ValueError:
            raise ParseError(f"expected an integer, got {token!r}", lineno) from None
    return out


def sniff_format(text: str) -> str:
    for _, line in _content_lines(text):
        return line.split()[0]
    raise ParseError("empty input")


@contextmanager
def _semantic(lineno: int | None = None):
    """Report a constructor's validation ValueError as a ParseError."""
    try:
        yield
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None


def _labelled_ints(entry: tuple[int, str], label: str) -> tuple[int, list[int]]:
    """The integers on a `label: ...` line, with its line number."""
    lineno, body = entry
    if not body.startswith(label + ":"):
        raise ParseError(f"expected '{label}:' line", lineno)
    return lineno, _ints(body[len(label) + 1 :], lineno)


def _one_labelled_line(lines, tag: str, label: str) -> tuple[int, list[int]]:
    """The integers on the single `label:` line that must follow a header."""
    if len(lines) != 2:
        raise ParseError(f"{tag} needs exactly one {label} line", lines[0][0])
    return _labelled_ints(lines[1], label)


_ROW_MESSAGES = {  # keyword: (expected line, id, defined twice, missing ids)
    "state": ("a state line", "state id", "state {} defined twice", "need states 0..{}, got {}"),
    "edges": (
        "an edges line",
        "edges state id",
        "edges for state {} defined twice",
        "need edges lines for states 0..{}",
    ),
}


def _indexed_rows(lines, keyword: str, m: int, parse_row) -> list:
    """Rows of the `keyword q: ...` lines for q = 0..m-1, each parsed by parse_row."""
    expected, id_name, twice, missing = _ROW_MESSAGES[keyword]
    rows: dict[int, object] = {}
    for lineno, line in lines:
        if not line.startswith(keyword + " "):
            raise ParseError(f"expected {expected}, got {line!r}", lineno)
        head, _, rest = line.partition(":")
        try:
            q = int(head[len(keyword) + 1 :].strip())
        except ValueError:
            raise ParseError(f"{id_name} is not an integer", lineno) from None
        if q in rows:
            raise ParseError(twice.format(q), lineno)
        rows[q] = parse_row(rest, lineno)
    # checks ids and counts only: nothing here grows with the header's m
    if len(rows) < m or not all(0 <= q < m for q in rows):
        raise ParseError(missing.format(m - 1, sorted(rows)), None)
    return [rows[q] for q in range(m)]


def _machine_tables(text: str, tag: str):
    """Header line number, alphabet size, transition rows and output rows."""
    lines, (n, m) = _header(text, tag, ("n", "states"))
    with_output = tag == "transducer"

    def state_row(rest: str, lineno: int):
        if with_output and "|" not in rest:
            raise ParseError("transducer state line needs 'delta | output'", lineno)
        if not with_output and "|" in rest:
            raise ParseError("automaton state line must not contain '|'", lineno)
        left, _, right = rest.partition("|")
        return tuple(_ints(left, lineno)), tuple(_ints(right, lineno))

    rows = _indexed_rows(lines[1:], "state", m, state_row)
    return lines[0][0], n, tuple(r[0] for r in rows), tuple(r[1] for r in rows)


def parse_automaton(text: str) -> Automaton:
    lineno, n, delta, _ = _machine_tables(text, "automaton")
    with _semantic(lineno):
        return Automaton(n, delta)


def parse_transducer(text: str) -> Transducer:
    lineno, n, delta, output = _machine_tables(text, "transducer")
    with _semantic(lineno):
        return Transducer(Automaton(n, delta), output)


def parse_rule(text: str) -> LocalRule:
    lines, (n, window) = _header(text, "rule", ("n", "window"))
    lineno, table = _one_labelled_line(lines, "rule", "outputs")
    with _semantic(lineno):
        return LocalRule(n, window, tuple(table))


def parse_partition(text: str) -> StatePartition:
    lines, (m, classes) = _header(text, "partition", ("states", "classes"))
    lineno, table = _one_labelled_line(lines, "partition", "class_of")
    if len(table) != m:
        raise ParseError(f"need {m} entries, got {len(table)}", lineno)
    with _semantic(lineno):
        return StatePartition(tuple(table), classes)


def parse_automorphism(text: str, automaton: Automaton | None = None) -> DigraphAutomorphism:
    lines, (n, m) = _header(text, "automorphism", ("n", "states"))
    if len(lines) < 2:
        raise ParseError("automorphism needs a vertices line", lines[0][0])
    lineno, vertex = _labelled_ints(lines[1], "vertices")
    if len(vertex) != m:
        raise ParseError(f"need {m} vertex images", lineno)

    def edge_row(rest: str, lineno: int) -> tuple[int, ...]:
        row = _ints(rest, lineno)
        if len(row) != n:
            raise ParseError(f"need {n} letter images", lineno)
        return tuple(row)

    phi = DigraphAutomorphism(tuple(vertex), tuple(_indexed_rows(lines[2:], "edges", m, edge_row)))
    if automaton is not None:
        with _semantic():
            check_automorphism(automaton, phi)
    return phi


def parse_machine(text: str):
    """Dispatch on the header tag."""
    tag = sniff_format(text)
    parsers = {
        "automaton": parse_automaton,
        "transducer": parse_transducer,
        "rule": parse_rule,
        "partition": parse_partition,
        "automorphism": parse_automorphism,
    }
    if tag not in parsers:
        raise ParseError(f"unknown format tag {tag!r}")
    return parsers[tag](text)
