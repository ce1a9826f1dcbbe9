"""The mutant table of ``mutants.py`` still applies to ``src/``.  Running
the mutants takes minutes, so Tier-1 only checks the table: each old text
occurs exactly once in ``src/``, in the file its row names, and each named
test file exists; and every module but the package ``__init__`` and the
error classes has a row."""

from mutants import MUTANTS, ROOT, SRC


def test_every_old_text_occurs_once_in_src():
    sources = {p.relative_to(SRC / "latforge").as_posix(): p.read_text(encoding="utf-8")
               for p in SRC.rglob("*.py")}
    stale = [
        m.name for m in MUTANTS
        if sum(text.count(m.old) for text in sources.values()) != 1
        or sources[m.path].count(m.old) != 1
        or not all((ROOT / test.partition("::")[0]).is_file() for test in m.tests)
    ]
    assert stale == []


def test_every_module_has_a_row():
    modules = {p.name for p in (SRC / "latforge").glob("*.py")} - {"__init__.py", "errors.py"}
    assert modules - {m.path for m in MUTANTS} == set()
