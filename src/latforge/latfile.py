"""Reader and writer for the bracketed challenge lattice format.

A file is an outer ``[ ... ]`` holding one bracketed row of optionally
signed decimal integers per basis vector, e.g. ``[[1 0][0 1]]``.  Entries
may run to hundreds of digits and are kept exact.  Whitespace and newlines
are free-form; anything else is a parse error with a line/column position.
"""

from __future__ import annotations

import re
from decimal import Decimal

from .core import Basis, Record, gram_det, int_str
from .errors import ParseError, RankDeficientError


class LatticeFile(Record):
    """A parsed basis and det(B.B^T) from the independence check, so that
    a run need not compute it again."""

    basis: Basis
    gram: int


# One token: a signed integer of ASCII digits, or any other non-space
# character.  ``\S`` splits on exactly what ``str.isspace`` calls space.
_TOKEN = re.compile(r"([+-]?[0-9]+)|\S")


def parse_lattice(text: str | bytes) -> LatticeFile:
    """Parse the bracket format into a validated basis.

    Raises ParseError with a position for malformed text and
    RankDeficientError when the rows do not span a rank-m lattice.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not valid UTF-8: {exc.reason}", 1, 1) from exc

    def error(message: str, at: int = len(text), found: bool = False) -> ParseError:
        if found:  # the character there, not the whole token
            message += f", found {text[at]!r}" if at < len(text) else ", found end of input"
        return ParseError(message, text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at))

    at = len(text) - len(text.lstrip())
    if not text.startswith("[", at):
        raise error("expected '['", at, found=True)
    tokens = _TOKEN.finditer(text, at + 1)
    rows: list[list[int]] = []
    for tok in tokens:
        if tok[0] == "]":
            break
        if tok[0] != "[":
            raise error("expected a row or ']'", tok.start(), found=True)
        row_at = tok.start()
        row: list[int] = []
        for tok in tokens:
            if tok[0] == "]":
                break
            if tok[1] is None:
                raise error("expected an integer", tok.start())
            # Through Decimal: int() of a string is capped at 4,300 digits.
            row.append(int(Decimal(tok[1])))
        else:
            raise error("row is not closed")
        if not row:
            raise error("row has no entries", tok.end())
        if rows and len(row) != len(rows[0]):
            width = len(rows[0])
            raise error(f"row {len(rows) + 1} has {len(row)} entries, expected {width}", row_at)
        rows.append(row)
    else:
        raise error("expected a row or ']'", found=True)
    if (extra := next(tokens, None)) is not None:
        raise error("trailing content after closing ']'", extra.start())
    if not rows:
        raise ParseError("no rows", 1, 1)
    if len(rows) > len(rows[0]):
        raise RankDeficientError(
            f"{len(rows)} rows in dimension {len(rows[0])} cannot be independent"
        )
    basis = Basis(rows)
    gram = gram_det(basis)
    if not gram:
        raise RankDeficientError("rows are linearly dependent")
    return LatticeFile(basis=basis, gram=gram)


def format_lattice(b: Basis) -> str:
    body = "\n".join("[" + " ".join(map(int_str, row)) + "]" for row in b.rows)
    return f"[{body}\n]\n"


def load_lattice(path: str) -> LatticeFile:
    with open(path, "rb") as fh:
        return parse_lattice(fh.read())


def save_lattice(b: Basis, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_lattice(b))
