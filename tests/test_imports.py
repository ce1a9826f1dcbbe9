"""Every module under src/ and tests/ reads each name it imports, and the
test oracles import no private name of the library.

No linter ships with the project, so the checks walk the syntax tree: a
name bound by an import must be read somewhere in the module.  Names a
module lists in a literal ``__all__`` (re-exports) count as read, and
``from __future__ import ...`` binds nothing.  ``tests/helpers.py`` holds
the independent oracles, so it may not import a ``_``-prefixed name from
a latforge module: an oracle that borrows a primitive shares its faults.

Start-up is part of every run, so the library does not import
``dataclasses``: it loads ``inspect`` and builds each frozen record by
``exec``.  Both guards below keep it out.  For the same reason the package
is a lazy namespace: naming ``core`` and ``lll`` loads those two and what
they import, not the search layers.  And neither the CLI nor the search
layers load OpenSSL (``hashlib``) or the experiment harness
(``latforge.bench``), which a run may never call.
"""

import ast
import hashlib
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latforge
from latforge.parallel import derive_seed

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted(ROOT.glob("src/**/*.py"))
MODULES = sorted([*SRC, *ROOT.glob("tests/**/*.py")])


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (
            isinstance(node, ast.Assign)
            and isinstance(node.value, (ast.List, ast.Tuple))
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            read.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source,unused",
    [
        ("import os\n", ["line 1: os"]),
        ("import os.path\nos.sep\n", []),
        ("from a import b as c\nb\n", ["line 1: c"]),
        ("from __future__ import annotations\n", []),
        ("from .core import Basis\n__all__ = ['Basis']\n", []),
        ("from x import y\ndef f(y): pass\n", ["line 1: y"]),
        ("from x import y\nclass C:\n    z: y\n", []),
        ("from .t import _T\n__all__ = list(_T)\n", []),
        ("import os\n__all__ = list(_T)\n", ["line 1: os"]),
    ],
)
def test_check_finds_unused_names(source, unused):
    assert unused_imports(source) == unused


def private_latforge_imports(source: str) -> list[str]:
    """``_``-prefixed names taken from latforge modules, by line: imported,
    or read as an attribute of a name imported from latforge."""
    tree = ast.parse(source)
    bound: set[str] = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module, names = node.module or "", [a.name for a in node.names]
            bound_names = [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Import):
            module, names = "", [a.name for a in node.names]
            bound_names = [a.asname or a.name.partition(".")[0] for a in node.names]
        else:
            continue
        for name, as_name in zip(names, bound_names):
            path = f"{module}.{name}" if module else name
            if path.partition(".")[0] != "latforge":
                continue
            bound.add(as_name)
            if any(part.startswith("_") for part in path.split(".")):
                found.append(f"line {node.lineno}: {path}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_oracles_import_no_private_name():
    source = (ROOT / "tests" / "helpers.py").read_text(encoding="utf-8")
    assert private_latforge_imports(source) == []


def test_oracles_import_nothing_from_perm():
    # The S_m metric in helpers.py checks the samplers of latforge.perm.
    tree = ast.parse((ROOT / "tests" / "helpers.py").read_text(encoding="utf-8"))
    taken = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("latforge")
        for alias in node.names
    ]
    assert taken
    from_perm = []
    for module, name in taken:
        value = getattr(importlib.import_module(module), name)
        if "latforge.perm" in (module, getattr(value, "__module__", module)):
            from_perm.append(f"{module}.{name}")
    assert from_perm == []


@pytest.mark.parametrize(
    "source,found",
    [
        ("from latforge.core import REAL, _dot\n", ["line 1: latforge.core._dot"]),
        (
            "from latforge import Basis\nfrom latforge.lll import _gso_row as g\n",
            ["line 2: latforge.lll._gso_row"],
        ),
        ("import latforge._private\n", ["line 1: latforge._private"]),
        ("from latforge import core\ncore._sqrt(4)\n", ["line 2: core._sqrt"]),
        ("import latforge.core as c\nc._xgcd(1, 2)\n", ["line 2: c._xgcd"]),
        ("import latforge.core\nlatforge.core._dot\n", ["line 2: latforge.core._dot"]),
        ("from fractions import _gcd\nfrom latforge.lll import DEFAULT_PARAMS\n", []),
        ("from latforge import core\ncore.hnf\n", []),
        ("from . import _local\n", []),
    ],
)
def test_check_finds_private_imports(source, found):
    assert private_latforge_imports(source) == found


def imports_of(source: str, module: str) -> list[int]:
    """Lines that import ``module`` or a submodule of it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if any(name == module or name.startswith(module + ".") for name in names):
            found.append(node.lineno)
    return found


def test_src_does_not_import_dataclasses():
    found = {
        str(path.relative_to(ROOT)): lines
        for path in SRC
        if (lines := imports_of(path.read_text(encoding="utf-8"), "dataclasses"))
    }
    assert found == {}


@pytest.mark.parametrize(
    "source,lines",
    [
        ("import dataclasses\n", [1]),
        ("import os, dataclasses as dc\n", [1]),
        ("\nfrom dataclasses import dataclass\n", [2]),
        ("from .dataclasses import x\nimport dataclasses_json\n", []),
    ],
)
def test_dataclasses_rule_finds_imports(source, lines):
    assert imports_of(source, "dataclasses") == lines


def modules_after(statement: str, watched: set[str]) -> list[str]:
    """The latforge modules, and those of ``watched``, that a fresh
    interpreter holds after running ``statement``."""
    code = (
        f"{statement}\nimport sys\n"
        f"print(sorted(m for m in sys.modules if m.startswith('latforge') or m in {watched!r}))"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    return ast.literal_eval(done.stdout)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    loaded = modules_after("import latforge.cli", {"dataclasses", "inspect"})
    assert {"dataclasses", "inspect"}.isdisjoint(loaded)


def test_cli_import_loads_the_modules_the_tracer_indexes():
    # perfbench's tracer reads these from sys.modules after importing the CLI.
    traced = "lll core parallel perm hillclimb ldsf pipeline latfile cli serialize"
    loaded = modules_after("import latforge.cli", set())
    assert {f"latforge.{m}" for m in traced.split()} <= set(loaded)


START_UP_LEFTOVERS = {"hashlib", "_hashlib", "latforge.bench"}


@pytest.mark.parametrize("statement", ["import latforge.cli", "from latforge import hill_climb"])
def test_import_loads_no_openssl_or_harness(statement):
    loaded = modules_after(statement, START_UP_LEFTOVERS)
    assert "latforge.parallel" in loaded
    assert START_UP_LEFTOVERS.isdisjoint(loaded)


def test_library_import_loads_only_the_named_modules():
    # The certify driver's import: no search layer, so not ``parallel`` and
    # its seeding; hashlib is watched as well, though no latforge module imports it.
    loaded = modules_after("from latforge import core, latfile, lll", {"hashlib"})
    assert loaded == ["latforge", *(f"latforge.{m}" for m in ("core", "errors", "latfile", "lll"))]


@pytest.fixture
def uncapped_int_str():
    """Lift Python's 4,300-digit cap on int-to-str, which ``repr`` obeys too."""
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if cap:
        sys.set_int_max_str_digits(0)
    yield
    if cap:
        sys.set_int_max_str_digits(cap)


class TestDeriveSeed:
    """``derive_seed`` takes blake2b from ``_blake2``, not from hashlib; its
    values are hashlib's."""

    @pytest.mark.parametrize(
        "parts",
        [
            (0,), (2**64 + 1,), (-7,), (7 * (10**5000 - 1) // 9,), ("hc",), ("",),
            ("uniform", 4, -999, 999, 1), (3, ("a", 1), (), "\x1f"), (), (True, 0, False),
        ],
        ids=[
            "zero", "past-64-bits", "negative", "5000-digits", "string", "empty-string",
            "generator-key", "tuples", "no-parts", "bools",
        ],
    )
    def test_values_are_hashlibs(self, uncapped_int_str, parts):
        payload = "\x1f".join(repr(p) for p in parts).encode()
        expected = int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")
        assert derive_seed(*parts) == expected

    def test_seed_past_4300_digits_under_the_cap(self):
        # The "5000-digits" row, with Python's int-to-str cap in force: its
        # repr is 5,000 sevens, spelled here without converting an int.
        assert 0 < sys.get_int_max_str_digits() < 5000
        expected = int.from_bytes(hashlib.blake2b(b"7" * 5000, digest_size=8).digest(), "big")
        assert derive_seed(7 * (10**5000 - 1) // 9) == expected

    @pytest.mark.parametrize(
        "parts,seed",
        [
            ((0,), 9523843951405948789),
            (("hc", 3, 2), 2422852434027451345),
            ((901, "stage", 1, "perms"), 7235996162063207744),
        ],
    )
    def test_pinned_values(self, parts, seed):
        assert derive_seed(*parts) == seed


class TestLazyNamespace:
    """``latforge`` imports the module behind a name on first access."""

    def test_each_name_is_its_module_object(self):
        for name in latforge.__all__:
            value = getattr(latforge, name)
            assert value.__module__.startswith("latforge.")
            assert getattr(sys.modules[value.__module__], name) is value

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from latforge import *", namespace)
        assert set(latforge.__all__) <= namespace.keys()
        assert all(namespace[name] is getattr(latforge, name) for name in latforge.__all__)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            getattr(latforge, "no_such_name")

    def test_no_name_is_listed_twice(self):
        assert len(set(latforge.__all__)) == len(latforge.__all__)

    def test_dir_lists_every_name(self):
        assert set(latforge.__all__) <= set(dir(latforge))
