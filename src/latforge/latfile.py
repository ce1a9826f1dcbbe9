"""Reader and writer for the bracketed challenge lattice format.

A file is an outer ``[ ... ]`` holding one bracketed row of optionally
signed decimal integers per basis vector, e.g. ``[[1 0][0 1]]``.  Entries
may run to hundreds of digits and are kept exact.  Whitespace and newlines
are free-form; anything else is a parse error with a line/column position.
"""

from __future__ import annotations

from decimal import Decimal

from .core import Basis, Record, gram_det, int_str
from .errors import ParseError, RankDeficientError


class LatticeFile(Record):
    """A parsed basis, where it came from, and det(B.B^T) from the
    independence check, so that a run need not compute it again."""

    basis: Basis
    source: str
    gram: int


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line, self.col)

    def skip_space(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            if self.text[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def peek(self) -> str | None:
        self.skip_space()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def expect(self, char: str) -> None:
        got = self.peek()
        if got != char:
            shown = "end of input" if got is None else repr(got)
            raise self.error(f"expected {char!r}, found {shown}")
        self.pos += 1
        self.col += 1

    def integer(self) -> int:
        self.skip_space()
        start = self.pos
        start_col = self.col
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
            self.col += 1
        digits = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
            self.col += 1
        if self.pos == digits:
            self.col = start_col
            raise self.error("expected an integer")
        # Through Decimal: int() of a string is capped at 4,300 digits.
        return int(Decimal(self.text[start : self.pos]))


def parse_lattice(text: str | bytes, source: str = "<memory>") -> LatticeFile:
    """Parse the bracket format into a validated basis.

    Raises ParseError with a position for malformed text and
    RankDeficientError when the rows do not span a rank-m lattice.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not valid UTF-8: {exc.reason}", 1, 1) from exc
    scanner = _Scanner(text)
    scanner.expect("[")
    rows: list[list[int]] = []
    while True:
        nxt = scanner.peek()
        if nxt == "[":
            row_line, row_col = scanner.line, scanner.col
            scanner.expect("[")
            row: list[int] = []
            while scanner.peek() != "]":
                if scanner.peek() is None:
                    raise scanner.error("row is not closed")
                row.append(scanner.integer())
            scanner.expect("]")
            if not row:
                raise scanner.error("row has no entries")
            if rows and len(row) != len(rows[0]):
                raise ParseError(
                    f"row {len(rows) + 1} has {len(row)} entries, expected {len(rows[0])}",
                    row_line,
                    row_col,
                )
            rows.append(row)
        elif nxt == "]":
            scanner.expect("]")
            break
        else:
            shown = "end of input" if nxt is None else repr(nxt)
            raise scanner.error(f"expected a row or ']', found {shown}")
    if scanner.peek() is not None:
        raise scanner.error("trailing content after closing ']'")
    if not rows:
        raise ParseError("no rows", 1, 1)
    if len(rows) > len(rows[0]):
        raise RankDeficientError(
            f"{len(rows)} rows in dimension {len(rows[0])} cannot be independent"
        )
    basis = Basis.from_rows(rows)
    gram = gram_det(basis)
    if not gram:
        raise RankDeficientError("rows are linearly dependent")
    return LatticeFile(basis=basis, source=source, gram=gram)


def format_lattice(b: Basis) -> str:
    body = "\n".join("[" + " ".join(map(int_str, row)) + "]" for row in b.rows)
    return f"[{body}\n]\n"


def load_lattice(path: str) -> LatticeFile:
    with open(path, "rb") as fh:
        return parse_lattice(fh.read(), source=path)


def save_lattice(b: Basis, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_lattice(b))
