"""The mutant table of ``mutants.py`` still applies to ``src/``.  Running
the mutants takes minutes, so Tier-1 only checks the table: each old text
occurs exactly once in ``src/``, in the file its row names, and each named
test file exists and defines each class and test the row names, so a
renamed test fails here and not minutes into a run; and every module but
the package ``__init__`` and the error classes has a row."""

import ast

from mutants import MUTANTS, ROOT, SRC


def test_every_old_text_occurs_once_in_src():
    sources = {p.relative_to(SRC / "latforge").as_posix(): p.read_text(encoding="utf-8")
               for p in SRC.rglob("*.py")}
    stale = [
        m.name for m in MUTANTS
        if sum(text.count(m.old) for text in sources.values()) != 1
        or sources[m.path].count(m.old) != 1
    ]
    assert stale == []


def test_every_module_has_a_row():
    modules = {p.name for p in (SRC / "latforge").glob("*.py")} - {"__init__.py", "errors.py"}
    assert modules - {m.path for m in MUTANTS} == set()


def test_every_named_test_exists():
    missing = [
        test for m in MUTANTS for test in m.tests
        if not _defines(ROOT / test.partition("::")[0], test.split("::")[1:])
    ]
    assert missing == []


def _defines(path, names: list[str]) -> bool:
    """Whether the test file ``path`` defines ``names[0]`` at its top level,
    ``names[1]`` inside it, and so on."""
    if not path.is_file():
        return False
    body = ast.parse(path.read_text(encoding="utf-8")).body
    for name in names:
        node = next(
            (n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name),
            None,
        )
        if node is None:
            return False
        body = node.body
    return True
