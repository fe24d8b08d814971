import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from shiftfold import (
    de_bruijn,
    decompose,
    enumerate_foldings,
    invert,
    order,
    product_min,
    single_state,
    sync_level,
)
from shiftfold import cli
from shiftfold.cli import main
from shiftfold.formats import (
    parse_automaton,
    parse_transducer,
    render_automaton,
    render_automorphism,
    render_rule,
    render_transducer,
)
from shiftfold.transducers import ELEMENT_STATE_CAP

from conftest import H3_INFINITE, h3_infinite, order_1260_element, shift_rule, shift_transducer

ROOT = Path(__file__).resolve().parent.parent


def bell_refusal(k: str) -> str:
    limit = sys.get_int_max_str_digits()
    return f"error: bell {k} exceeds the limit ({limit} digits) for integer string conversion\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


FIG_TRANSDUCER_TEXT = """transducer n=3 states=3
state 0: 0 1 2 | 2 0 1
state 1: 0 1 2 | 2 1 0
state 2: 1 0 2 | 1 2 0
"""

FIG_AUTOMATON_TEXT = """automaton n=3 states=3
state 0: 0 1 2
state 1: 0 1 2
state 2: 1 0 2
"""


@pytest.fixture
def fig_file(tmp_path):
    path = tmp_path / "fig.txt"
    path.write_text(FIG_TRANSDUCER_TEXT)
    return str(path)


def test_debruijn(capsys):
    code, out = run(capsys, "debruijn", "2", "1")
    assert code == 0
    assert parse_automaton(out) == de_bruijn(2, 1)


def test_debruijn_output_file(tmp_path, capsys):
    target = tmp_path / "g.txt"
    code, out = run(capsys, "debruijn", "3", "2", "-o", str(target))
    assert code == 0 and out == ""
    assert parse_automaton(target.read_text()) == de_bruijn(3, 2)


def test_sync(tmp_path, capsys):
    path = tmp_path / "g32.txt"
    path.write_text(render_automaton(de_bruijn(3, 2)))
    code, out = run(capsys, "sync", str(path))
    assert code == 0
    assert out == "sequence: 9 3 1\nlevel: 2\n"


def test_sync_negative_verdict(tmp_path, capsys):
    path = tmp_path / "loops.txt"
    path.write_text("automaton n=2 states=2\nstate 0: 0 0\nstate 1: 1 1\n")
    code, out = run(capsys, "sync", str(path))
    assert code == 1
    assert "level: none" in out


def test_minimize_and_core(fig_file, tmp_path, capsys):
    code, out = run(capsys, "minimize", fig_file)
    assert code == 0
    assert parse_transducer(out).state_count == 3

    feeder = tmp_path / "feeder.txt"
    feeder.write_text(
        "transducer n=2 states=3\n"
        "state 0: 0 1 | 0 1\nstate 1: 0 1 | 1 0\nstate 2: 0 1 | 0 1\n"
    )
    code, out = run(capsys, "core", str(feeder))
    assert code == 0
    assert parse_transducer(out).state_count == 2


def test_product_and_invert(fig_file, capsys):
    code, out = run(capsys, "product", fig_file, fig_file)
    assert code == 0
    assert parse_transducer(out).state_count == 1  # the machine is an involution

    code, out = run(capsys, "invert", fig_file)
    assert code == 0
    inv = parse_transducer(out)
    assert inv.state_count == 3


def test_check_hn_verdicts(fig_file, tmp_path, capsys):
    code, out = run(capsys, "check-hn", fig_file)
    assert code == 0
    assert out == "in-hn: true\nlevels: (2, 2)\n"

    shift = tmp_path / "shift.txt"
    shift.write_text(render_transducer(shift_transducer(2)))
    code, out = run(capsys, "check-hn", str(shift))
    assert code == 1
    assert out == "in-hn: false\n"

    # invertible and synchronizing, but its inverse does not synchronize
    swap = tmp_path / "swap.txt"
    swap.write_text("transducer n=2 states=2\nstate 0: 0 1 | 0 1\nstate 1: 0 1 | 1 0\n")
    code, out = run(capsys, "check-hn", str(swap))
    assert code == 1
    assert out == "in-hn: false\n"


def test_check_hn_analyses_the_machine_and_its_inverse_once(fig_file, capsys, monkeypatch):
    from shiftfold import transducers

    calls = []
    original = transducers.invert
    monkeypatch.setattr(transducers, "invert", lambda t: calls.append(t) or original(t))
    assert run(capsys, "check-hn", fig_file) == (0, "in-hn: true\nlevels: (2, 2)\n")
    assert len(calls) == 1


def test_rule_conversions(tmp_path, capsys):
    rule_file = tmp_path / "shift.rule"
    rule_file.write_text(render_rule(shift_rule(2)))
    code, out = run(capsys, "rule2trans", str(rule_file))
    assert code == 0
    t = parse_transducer(out)

    trans_file = tmp_path / "shift.trans"
    trans_file.write_text(out)
    code, out = run(capsys, "trans2rule", str(trans_file))
    assert code == 0
    assert "rule n=2 window=2" in out


def test_aut(fig_file, capsys):
    code, out = run(capsys, "aut", fig_file)
    assert code == 0
    assert out.startswith("count: 6\n")
    assert out.count("automorphism n=3 states=3") == 6


def test_haphi(tmp_path, capsys, fig_automaton, fig_transducer):
    from shiftfold import enumerate_automorphisms

    auto_file = tmp_path / "a.txt"
    auto_file.write_text(FIG_AUTOMATON_TEXT)
    swap02 = next(
        phi
        for phi in enumerate_automorphisms(fig_automaton)
        if phi.vertex_perm == (2, 1, 0)
    )
    phi_file = tmp_path / "phi.txt"
    phi_file.write_text(render_automorphism(swap02, 3))
    code, out = run(capsys, "haphi", str(auto_file), str(phi_file))
    assert code == 0
    assert parse_transducer(out) == fig_transducer


def test_decompose_writes_files(fig_file, tmp_path, capsys, monkeypatch):
    outdir = tmp_path / "factors"
    code, out = run(capsys, "decompose", fig_file, "-o", str(outdir))
    assert code == 0
    assert "verified: true" in out
    files = sorted(p.name for p in outdir.iterdir())
    assert files == ["factor_01.txt", "factor_02.txt", "manifest.txt", "remainder.txt"]
    manifest = (outdir / "manifest.txt").read_text()
    assert manifest == out
    assert "order=2" in manifest and "pair=(0, 1)" in manifest


def test_decompose_involutions(fig_file, tmp_path, capsys):
    outdir = tmp_path / "factors-inv"
    code, out = run(capsys, "decompose", fig_file, "--involutions", "-o", str(outdir))
    assert code == 0
    assert "verified: true" in out


def test_decompose_manifest_names_an_order_past_the_cap(tmp_path, capsys):
    """The step factor has order 1,260, past `order`'s 1,000 iterations; the manifest says
    so with `order`'s own token, and the factorization still verifies."""
    path = tmp_path / "t.txt"
    path.write_text(render_transducer(order_1260_element()))
    code, out = run(capsys, "decompose", str(path), "-o", str(tmp_path / "factors"))
    assert code == 0 and out.endswith("verified: true\n")
    assert "factor 1: factor_01.txt order=exceeds-cap level=0 pair=(0, 1)\n" in out
    assert "None" not in out


def test_order(fig_file, capsys):
    code, out = run(capsys, "order", fig_file)
    assert code == 0 and out == "2\n"


def test_fold_count_values(capsys):
    for n, expected in [(1, 1), (2, 5), (3, 192), (7, 429768478195109381814)]:
        code, out = run(capsys, "fold-count", str(n), "2")
        assert code == 0 and out == f"{expected}\n"
    code, out = run(capsys, "fold-count", "4", "1")
    assert code == 0 and out == "15\n"


def test_fold_enum(capsys):
    code, out = run(capsys, "fold-enum", "2", "2")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 5
    assert lines[0] == "0 0 0 0"
    for n, m in [(2, 2), (2, 3), (3, 2), (4, 1)]:
        code, out = run(capsys, "fold-enum", str(n), str(m))
        foldings = enumerate_foldings(de_bruijn(n, m), method="exhaustive")
        tables = "".join(" ".join(map(str, p.class_of)) + "\n" for p in foldings)
        assert code == 0 and out == tables


def test_bell(capsys):
    code, out = run(capsys, "bell", "7")
    assert code == 0 and out == "877\n"


def test_subgroup_ag(fig_file, capsys):
    code, out = run(capsys, "subgroup-ag", fig_file)
    assert code == 0
    assert out.startswith("order: 2\nlevel: 2\n")
    assert "automaton n=3 states=3" in out
    assert out.count("element") == 2


def test_subgroup_ag_prints_the_order_of_every_element_of_a_big_cyclic_group(tmp_path, capsys):
    """One letter permutation with cycles of lengths 4, 9, 5 and 7 generates a cyclic group
    of order 1,260.  An element's order divides the group's, so each `order` call may take
    that many powers, past its default 1,000; phi(1,260) = 288 elements have order 1,260."""
    path = tmp_path / "sigma.txt"
    path.write_text(render_transducer(single_state(order_1260_element().output[1])))
    code, out = run(capsys, "subgroup-ag", str(path), "--cap", "2000")
    assert code == 0 and out.startswith("order: 1260\n")
    orders = [line.rsplit("order=", 1)[1] for line in out.splitlines() if "order=" in line]
    assert len(orders) == 1260 and "None" not in orders
    assert orders.count("1260") == 288


def test_alphabet_mismatch_exit_code(fig_file, tmp_path, capsys):
    other = tmp_path / "two.txt"
    other.write_text(render_transducer(shift_transducer(2)))
    code, _ = run(capsys, "product", fig_file, str(other))
    assert code == 2


def test_haphi_rejects_invalid_automorphism(tmp_path, capsys):
    auto_file = tmp_path / "a.txt"
    auto_file.write_text(FIG_AUTOMATON_TEXT)
    bad = tmp_path / "phi.txt"
    bad.write_text(
        "automorphism n=3 states=3\nvertices: 1 0 2\n"
        "edges 0: 0 1 2\nedges 1: 0 1 2\nedges 2: 0 1 2\n"
    )
    code, _ = run(capsys, "haphi", str(auto_file), str(bad))
    assert code == 2


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("transducer n=2 states=1\nstate 0: 5 0 | 0 1\n")
    code, _ = run(capsys, "check-hn", str(bad))
    assert code == 2


def test_missing_file_exit_code(capsys):
    code, _ = run(capsys, "sync", "no-such-file.txt")
    assert code == 2


def test_unwritable_output_file_exit_code(tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt"
    code = main(["debruijn", "2", "2", "-o", str(target)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert captured.err.count("\n") == 1


def test_decompose_into_a_regular_file_exit_code(tmp_path, capsys):
    target = tmp_path / "taken.txt"
    target.write_text("kept\n")
    code = main(["decompose", str(H3_INFINITE), "-o", str(target)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert captured.err.count("\n") == 1
    assert target.read_text() == "kept\n"


@pytest.mark.parametrize("flags", [[], ["--involutions"]], ids=["steps", "involutions"])
@pytest.mark.parametrize("below", [(), ("sub", "out")], ids=["file", "under_file"])
def test_decompose_refuses_a_regular_file_before_factorizing(tmp_path, capsys, monkeypatch, flags, below):
    """The output target, or an ancestor of it, is a regular file: refused before any
    factorization runs, with no directory created and the file left as it was."""

    def never(t):
        raise AssertionError("factorized before the output target was checked")

    monkeypatch.setattr(cli, "decompose", never)
    monkeypatch.setattr(cli, "decompose_involutions", never)
    taken = tmp_path / "taken.txt"
    taken.write_text("kept\n")
    target = taken.joinpath(*below)
    code = main(["decompose", str(H3_INFINITE), "-o", str(target), *flags])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert captured.err.count("\n") == 1
    assert taken.read_text() == "kept\n"
    assert list(tmp_path.iterdir()) == [taken]


def test_decompose_of_a_refused_input_creates_no_directory(tmp_path, capsys):
    """`decompose` refuses a machine outside H_n; its output directory is never made."""
    path = tmp_path / "shift.txt"
    path.write_text(render_transducer(shift_transducer(2)))
    target = tmp_path / "new" / "out"
    code = main(["decompose", str(path), "-o", str(target)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and captured.err.count("\n") == 1
    assert not (tmp_path / "new").exists()


def test_cap_exit_code(fig_file, capsys):
    code, _ = run(capsys, "aut", fig_file, "--cap", "2")
    assert code == 3


@pytest.mark.parametrize(
    "argv, message",
    [
        (["aut", "--cap", "-1"], "automorphism cap -1 is negative"),
        (["order", "--cap", "-5"], "order state cap -5 is negative"),
        (["subgroup-ag", "--cap", "-1"], "subgroup closure cap -1 is negative"),
    ],
)
def test_negative_caps_are_refused(fig_file, capsys, argv, message):
    """A negative cap is a bad argument (exit 2), not a search that hit its cap (exit 3);
    `--cap 0` is still a cap that every search hits."""
    command, *flags = argv
    code = main([command, fig_file, *flags])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"
    code = main([command, fig_file, "--cap", "0"])
    captured = capsys.readouterr()
    assert code == 3


ORDER_CAP_1 = "error: order cap exceeded: order above 1, or a power over 1 states\n"


def test_order_cap_exit_code(fig_file, capsys):
    """Past its caps `order` refuses like every other command: exit 3, one line naming
    the caps on stderr, and nothing on stdout."""
    assert main(["order", fig_file, "--cap", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == ORDER_CAP_1


def test_order_cap_writes_to_output_file(fig_file, tmp_path, capsys):
    """A refusal writes no `-o` file."""
    target = tmp_path / "order.txt"
    assert main(["order", fig_file, "--cap", "1", "-o", str(target)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == ORDER_CAP_1
    assert not target.exists()


def test_identical_invocations_identical_output(capsys):
    _, first = run(capsys, "fold-enum", "2", "3")
    _, second = run(capsys, "fold-enum", "2", "3")
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [["bell", "100000"], ["fold-count", "100000", "1"], ["bell", "2000"], ["fold-count", "2000", "1"]],
)
def test_unprintable_bell_fails_before_computing(argv, capsys, monkeypatch):
    from shiftfold import counting

    def refuse(k):
        raise AssertionError(f"bell({k}) was computed")

    monkeypatch.setattr(counting, "bell", refuse)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == bell_refusal(argv[1])


def test_first_unprintable_bell_fails_with_the_refusal_text(capsys):
    """B(1981) is the first Bell number past 4,300 digits; the up-front bound misses it."""
    code = main(["bell", "1981"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == bell_refusal("1981")


def test_large_bell_fails_cleanly(capsys):
    code = main(["bell", "3000"])
    err = capsys.readouterr().err
    assert code in (2, 3)
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("error: ")


def _cap_address_space():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def run_child(argv, timeout, limit_memory=True):
    """`shiftfold` on `argv` in a child process run from the repository root, its address
    space capped at 1 GiB unless `limit_memory` is False."""
    return subprocess.run(
        [sys.executable, "-m", "shiftfold.cli", *argv],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=_cap_address_space if limit_memory else None,
    )


def test_subgroup_ag_refuses_an_infinite_order_generator():
    """At the default cap the closure of an infinite-order element would run for
    minutes before tripping the element cap; a power past the closure's state cap
    refuses it first."""
    proc = run_child(
        ["subgroup-ag", "tests/golden/inputs/h3_infinite.txt"], timeout=10, limit_memory=False
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == "error: subgroup closure cap exceeded\n"


def test_subgroup_ag_refuses_an_infinite_group_of_torsion_elements(tmp_path):
    """Two involutions from the decomposition of an infinite-order element (the
    CLI's factor_03 and factor_04) generate an infinite group.  Each has order 2,
    so only the closure's state cap can refuse it: products of the two grow past
    that cap long before the default 512 elements are admitted."""
    f = decompose(h3_infinite())
    paths = []
    for i in (2, 3):
        path = tmp_path / f"factor_{i + 1:02d}.txt"
        path.write_text(render_transducer(f.inverse_factors[i]))
        paths.append(str(path))
    proc = run_child(["subgroup-ag", *paths], timeout=60)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == "error: subgroup closure cap exceeded\n"


@pytest.mark.parametrize("command", ["debruijn", "fold-enum"])
def test_de_bruijn_transition_table_is_capped(command):
    """G(1000, 2) has 10^6 states but 10^9 transitions; it is refused before any
    row is built.  The child's address space is capped at 1 GiB, so building the
    table fails fast instead of exhausting memory."""
    start = time.perf_counter()
    proc = run_child([command, "1000", "2"], timeout=10)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == "error: de Bruijn graph G(1000, 2) would have more than 1000000 transitions\n"


def test_aut_refuses_factorially_many_edge_maps_before_building_them(tmp_path):
    """A one-state automaton over 11 letters has 11! automorphisms, all edge maps of one
    vertex map; the cap refuses them before any edge row is built."""
    path = tmp_path / "loops.txt"
    path.write_text("automaton n=11 states=1\nstate 0: " + " ".join(["0"] * 11) + "\n")
    start = time.perf_counter()
    proc = run_child(["aut", str(path)], timeout=60)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == "error: automorphism enumeration cap exceeded\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["fold-count", "2", "5"],
        ["fold-count", "3", "3"],
        ["fold-enum", "5", "2"],
        ["fold-count", "13", "3"],
        ["fold-enum", "11", "1"],
        ["fold-enum", "12", "1"],
        ["fold-enum", "600", "1"],
        ["fold-enum", "1000", "1"],
    ],
)
def test_folding_lists_past_the_lattice_cap_are_refused(argv):
    """G(2,5), G(3,3) and G(5,2) each have more foldings than `LATTICE_CAP`.  Level 1 of
    G(n, m) alone has Bell(n) of them, past the cap from n = 11 on, so G(11,1), G(12,1),
    G(13,3), G(600,1) and G(1000,1) are refused before any level is listed.  Each
    refusal comes in seconds, in a bounded address space."""
    start = time.perf_counter()
    proc = run_child(argv, timeout=60)
    assert time.perf_counter() - start < 30
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == "error: folding lattice cap exceeded\n"


def test_huge_rule_window_is_refused_without_forming_the_power(tmp_path):
    """2**100000000000 would take the parser minutes and gigabytes to form; the
    window alone shows that two outputs cannot fill the table."""
    path = tmp_path / "huge.txt"
    path.write_text("rule n=2 window=100000000000\noutputs: 0 1\n")
    start = time.perf_counter()
    proc = run_child(["rule2trans", str(path)], timeout=10)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: table needs more than 2 entries (line 2)\n"


def high_level_machine(case: str):
    """`power`: the 682-state 7th power of the infinite-order element, at sync level 15.
    `conjugate`: c^-1 h3_4 c with c its cube, an 897-state involution at level 16."""
    h = h3_infinite()
    if case == "power":
        machine = h
        for _ in range(6):
            machine = product_min(machine, h)
        return machine
    cube = product_min(product_min(h, h), h)
    h3_4 = parse_transducer(H3_INFINITE.with_name("h3_4.txt").read_text())
    return product_min(product_min(invert(cube), h3_4), cube)


@pytest.mark.parametrize(
    "command, case, level",
    [("trans2rule", "power", 15), ("subgroup-ag", "conjugate", 16)],
)
def test_forced_state_tables_past_the_de_bruijn_cap_are_refused(command, case, level, tmp_path):
    """A level-k forced-state table has one entry per vertex of G(3, k), so it is refused
    by that graph's cap of 10**6 transitions (3**16 and 3**17 here) before any table or
    word list is built; both used to end in a `MemoryError` traceback under 1 GiB."""
    machine = high_level_machine(case)
    assert sync_level(machine.base) == level
    path = tmp_path / f"{case}.txt"
    path.write_text(render_transducer(machine))
    start = time.perf_counter()
    proc = run_child([command, str(path)], timeout=60)
    assert time.perf_counter() - start < 30
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == (
        f"error: de Bruijn graph G(3, {level}) would have more than 1000000 transitions\n"
    )


def test_order_refuses_a_state_cap_past_the_element_limit():
    """`--cap` sets both of `order`'s caps; past `ELEMENT_STATE_CAP` states it is refused
    before any power is formed, where it used to form powers of an infinite-order element
    without bound."""
    path = Path(__file__).parent / "golden" / "inputs" / "h3_infinite.txt"
    start = time.perf_counter()
    proc = run_child(["order", str(path), "--cap", "99999999999999999999"], timeout=10)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (
        f"error: order state cap 99999999999999999999 exceeds the limit of {ELEMENT_STATE_CAP}\n"
    )
    with pytest.raises(ValueError, match="exceeds the limit"):
        order(h3_infinite(), cap_states=ELEMENT_STATE_CAP + 1)


@pytest.mark.parametrize("n", ["0", "-3"])
def test_fold_count_rejects_a_non_positive_alphabet(n, capsys):
    for command in ("fold-count", "fold-enum"):
        for m in ("1", "2", "3"):
            code = main([command, n, m])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == "", (command, m)
            assert captured.err == "error: alphabet size must be at least 1\n", (command, m)


def test_one_letter_de_bruijn_graphs_have_one_folding_at_every_length(capsys):
    """G(1, m) is one state with a loop, so its only folding is itself."""
    for m in ("1", "2", "3", "8"):
        assert run(capsys, "fold-count", "1", m) == (0, "1\n"), m
        assert run(capsys, "fold-enum", "1", m) == (0, "0\n"), m
    for command in ("fold-count", "fold-enum"):
        code = main([command, "1", "0"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: word length must be at least 1\n"


@pytest.mark.parametrize("command", ["decompose", "subgroup-ag"])
def test_canonical_keys_hold_letters_past_two_bytes(command, tmp_path, capsys):
    """A one-state letter swap over 65,536 letters: its key's values pass 2 bytes."""
    path = tmp_path / "swap.txt"
    path.write_text(render_transducer(single_state([1, 0, *range(2, 65_536)])))
    code = main([command, str(path), "-o", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 0 and err == ""
