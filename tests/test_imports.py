"""Every name a library module imports is used in that module, no module
imports another module's private name, every module-level private function or
constant is used somewhere in the package, every module-level public function
or class is read by the package or the benchmark, and every method or property
of a library class is read somewhere.

`__init__.py` is left out of the import check: its imports are the package's
public names.  A private name counts as used only when some statement other
than its own definition reads it, so a helper that only calls itself is dead.
A public name counts as read the same way, but only from the package, outside
`__init__.py`, or from `bench/*.py`, and a read from the definition of a dead
public name does not count; the tests alone do not keep a name public.
A method or property counts as read when some attribute outside its own body
bears its name, in the package, the tests or the benchmark; dunder methods are
called by Python itself and are left out.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "shiftfold").glob("*.py"))
READERS = sorted((ROOT / "tests").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]
BENCH = sorted((ROOT / "bench").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = "from .automata import CapExceededError, quotient\nimport os.path\nquotient()\n"
    assert unused_imports(source) == ["line 1: CapExceededError", "line 2: os"]


# The one private name shared across modules: the constructor for tables the library built.
SHARED_PRIVATE = {("automata", "_trusted")}


def private_imports(sources: dict[str, str]) -> list[str]:
    """Underscore-prefixed names imported from another `shiftfold` module."""
    found = []
    for filename, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 0:
                package, _, module = module.partition(".")
                if package != "shiftfold":
                    continue
            for alias in node.names:
                if alias.name.startswith("_") and (module, alias.name) not in SHARED_PRIVATE:
                    found.append(f"{filename} line {node.lineno}: {alias.name}")
    return found


def test_no_private_names_imported_across_modules():
    assert private_imports({p.name: p.read_text() for p in PACKAGE}) == []


def test_private_import_is_reported():
    sources = {
        "a.py": "from .automata import _trusted, quotient\nfrom .transducers import _refine\n",
        "b.py": "from shiftfold.automata import _trusted\nfrom shiftfold import _hidden\n",
        "c.py": "from __future__ import annotations\nfrom os import _exit\n",
    }
    assert private_imports(sources) == ["a.py line 2: _refine", "b.py line 2: _hidden"]


def defined_names(node) -> list[str]:
    """Names a module-level statement binds as a function or constant."""
    if isinstance(node, ast.FunctionDef):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def names_read(node) -> set[str]:
    """Names and attribute names a statement reads."""
    read = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            read.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            read.add(sub.attr)
    return read


def dead_private_names(sources: dict[str, str]) -> list[str]:
    private = {}
    read = set()
    for filename, source in sources.items():
        for node in ast.parse(source).body:
            own = defined_names(node)
            for name in own:
                if name.startswith("_") and not name.startswith("__"):
                    private[name] = f"{filename} line {node.lineno}: {name}"
            read |= names_read(node) - set(own)
    return [where for name, where in private.items() if name not in read]


def test_no_dead_private_names():
    assert dead_private_names({p.name: p.read_text() for p in PACKAGE}) == []


def test_dead_private_name_is_reported():
    sources = {
        "a.py": "def _dead(x):\n    return _dead(x)\n_LIMIT = 3\n_SPARE: int = 4\n",
        "b.py": "from .a import _LIMIT\n\ndef f():\n    return _LIMIT\n",
    }
    assert dead_private_names(sources) == ["a.py line 1: _dead", "a.py line 4: _SPARE"]


# Public names nothing in the package reads that stay: four results of the paper, and the
# writer of the partition format whose parser errors the golden corpus pins.
KEPT_PUBLIC = {
    "folding_from_sync",
    "is_permutation_induced",
    "verify_embedding",
    "apply_periodic",
    "render_partition",
}


def dead_public_names(
    sources: dict[str, str], readers: dict[str, str], kept: set[str]
) -> list[str]:
    """Module-level public functions and classes of `sources` that no statement outside their
    own definition reads, in `sources` or `readers`, and that are not in `kept`.  A read from
    the definition of a dead name does not count, so a name only dead code reads is dead too."""
    public = {}
    statements = []
    for filename, source in sources.items():
        for node in ast.parse(source).body:
            own = {node.name} if isinstance(node, ast.ClassDef) else set(defined_names(node))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                public[node.name] = f"{filename} line {node.lineno}: {node.name}"
            statements.append((own, names_read(node) - own))
    outside = set().union(*(names_read(ast.parse(source)) for source in readers.values()))
    dead = set()
    while True:
        read = outside.union(*(r for own, r in statements if own.isdisjoint(dead)))
        found = {name for name in public if name not in read and name not in kept}
        if found == dead:
            return [where for name, where in public.items() if name in dead]
        dead = found


def bench_resolved_names() -> set[str]:
    """Names `bench/tracing.py` wraps by module and name, loaded as the benchmark loads it."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {name for _, name, _ in tracing.TRACED} | {cls for _, cls, _, _ in tracing.COUNTED}


def test_no_dead_public_names():
    sources = {p.name: p.read_text() for p in SOURCES}
    readers = {str(p): p.read_text() for p in BENCH}
    assert dead_public_names(sources, readers, KEPT_PUBLIC | bench_resolved_names()) == []


def test_dead_public_name_is_reported():
    sources = {
        "a.py": (
            "def used(x):\n    return x\n"
            "def spare(x):\n    return spare(x)\n"
            "def helper(x):\n    return x\n"
            "def caller(x):\n    return helper(x)\n"
            "class Kept:\n    pass\n"
            "def wrapped():\n    return 1\n"
            "def _private():\n    return used(2)\n"
        ),
        "b.py": "from .a import spare\n\ndef g():\n    return 0\n",
    }
    readers = {"bench.py": "import a\n\nprint(a.g())\n"}
    assert dead_public_names(sources, readers, {"Kept", "wrapped"}) == [
        "a.py line 3: spare",
        "a.py line 5: helper",
        "a.py line 7: caller",
    ]


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


class AttributeReads(ast.NodeVisitor):
    """Attribute names read anywhere except inside a function of the same name."""

    def __init__(self):
        self.read = set()
        self.inside = []

    def visit_FunctionDef(self, node):
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    def visit_Attribute(self, node):
        if node.attr not in self.inside:
            self.read.add(node.attr)
        self.generic_visit(node)


def unread_methods(library: dict[str, str], readers: dict[str, str]) -> list[str]:
    methods = {}
    reads = AttributeReads()
    for filename, source in library.items():
        tree = ast.parse(source)
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef) and not is_dunder(node.name):
                        where = f"{filename} line {node.lineno}: {cls.name}.{node.name}"
                        methods.setdefault(node.name, where)
        reads.visit(tree)
    for source in readers.values():
        reads.visit(ast.parse(source))
    return [where for name, where in methods.items() if name not in reads.read]


def test_no_unread_methods():
    library = {p.name: p.read_text() for p in PACKAGE}
    readers = {str(p): p.read_text() for p in READERS}
    assert unread_methods(library, readers) == []


def test_unread_method_is_reported():
    library = {
        "a.py": (
            "class A:\n"
            "    def __len__(self):\n        return 0\n"
            "    @property\n    def size(self):\n        return self.size\n"
            "    def used(self):\n        return 1\n"
            "    def spare(self):\n        return self.used()\n"
        ),
    }
    readers = {"test_a.py": "from a import A\n\ndef test_a():\n    assert A().used() == 1\n"}
    assert unread_methods(library, readers) == ["a.py line 5: A.size", "a.py line 9: A.spare"]
