import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latforge import (
    Basis,
    ParseError,
    RankDeficientError,
    format_lattice,
    parse_lattice,
    uniform_basis,
)
from latforge.latfile import load_lattice, save_lattice

from helpers import parse_lattice_reference


class TestParse:
    def test_small_identity(self):
        lat = parse_lattice("[[1 0][0 1]]")
        assert lat.basis == Basis.identity(2)

    def test_whitespace_and_newlines(self):
        text = "[\n  [ 1  0 ]\n\t[ 0\n1 ]\n]\n"
        assert parse_lattice(text).basis == Basis.identity(2)

    def test_signed_entries(self):
        lat = parse_lattice("[[-3 +4][0 -1]]")
        assert lat.basis.rows == ((-3, 4), (0, -1))

    def test_huge_entry_is_exact(self):
        big = 10**900 + 12345
        lat = parse_lattice(f"[[{big} 0][0 1]]")
        assert lat.basis.rows[0][0] == big

    def test_entry_longer_than_int_str_limit(self):
        # Python caps int <-> str conversion at 4,300 digits by default.
        big = 7 * (10**5000 - 1) // 9  # 5000 sevens
        lat = parse_lattice(f"[[{'7' * 5000} 0][0 1]]")
        assert lat.basis.rows[0][0] == big
        assert parse_lattice(format_lattice(lat.basis)).basis == lat.basis

    def test_bytes_input(self):
        assert parse_lattice(b"[[2 0][0 2]]").basis.rows == ((2, 0), (0, 2))

    def test_rank_deficient(self):
        with pytest.raises(RankDeficientError):
            parse_lattice("[[1 0][2 0]]")

    def test_more_rows_than_columns(self):
        with pytest.raises(RankDeficientError):
            parse_lattice("[[1][2]]")


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,line,col",
        [
            ("[[1 x]]", 1, 5),
            ("[[1 0][0 1]", 1, 12),
            ("", 1, 1),
            ("[[1 0]\n[0 e]]", 2, 4),
            ("[[1 0][0 1]] trailing", 1, 14),
            ("[[1 0][0 1 2]]", 1, 7),  # error points at the offending row
            ("[[]]", 1, 4),
            ("[[1 \u00b2][0 1]]", 1, 5),  # superscript two: a digit, not ASCII
            ("[[1 0][0 \u0663]]", 1, 10),  # Arabic-Indic three
            ("[[1 0][0 1\u0663]]", 1, 11),
        ],
    )
    def test_position_reported(self, text, line, col):
        with pytest.raises(ParseError) as err:
            parse_lattice(text)
        assert (err.value.line, err.value.column) == (line, col)
        assert f"line {line}, column {col}" in str(err.value)

    @pytest.mark.parametrize(
        "text,message,line,col",
        [
            # "found" quotes one character, not the whole token.
            ("[12]", "expected a row or ']', found '1'", 1, 2),
            ("[[1 0][0 -]]", "expected an integer", 1, 10),  # a sign without digits
        ],
    )
    def test_message_and_position(self, text, message, line, col):
        with pytest.raises(ParseError) as err:
            parse_lattice(text)
        assert str(err.value) == f"parse error at line {line}, column {col}: {message}"

    def test_invalid_utf8(self):
        with pytest.raises(ParseError):
            parse_lattice(b"[[1 \xff]]")


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self):
        for seed in range(4):
            b = uniform_basis(5, -10**6, 10**6, seed=seed)
            text = format_lattice(b)
            again = parse_lattice(text)
            assert again.basis == b
            assert parse_lattice(format_lattice(again.basis)).basis == b

    def test_file_round_trip(self, tmp_path):
        b = uniform_basis(4, -999, 999, seed=9)
        path = tmp_path / "b.lat"
        save_lattice(b, str(path))
        lat = load_lattice(str(path))
        assert lat.basis == b


# Texts for the differential test: characters the reader treats in every
# way it can (brackets, signs, ASCII digits, non-ASCII digits, Unicode
# space, line breaks that are not "\n"), and digit runs past Python's
# 4,300-digit int/str cap.
_CHARS = "[]+-0123456789x\u00e9\u0663\u00b2 \n\r\t\xa0\x1c\u2028"
_SPACE = st.text(alphabet=" \n\r\t\xa0\x1c\u2028", max_size=2)
_LONG_DIGITS = st.builds(
    "{}{}".format, st.sampled_from("123456789"), st.integers(4289, 4999).map("7".__mul__)
)
_ENTRY = st.builds(
    "{}{}".format,
    st.sampled_from(["", "", "-", "+"]),
    st.one_of(
        st.integers(0, 999).map(str),
        st.text(alphabet="0123456789\u0663\u00b2", min_size=1, max_size=3),
        _LONG_DIGITS,
    ),
)


@st.composite
def _lattice_like(draw) -> str:
    """Bracketed rows of entries with random space, so that many texts parse
    (or fail only at a row or rank check); some get one piece spliced in,
    one character cut out, or their end cut off."""
    n = draw(st.integers(1, 3))
    full = st.lists(_ENTRY, min_size=n, max_size=n)
    ragged = st.lists(_ENTRY, max_size=n + 1)
    rows = draw(st.lists(st.one_of(full, full, full, ragged), max_size=n + 1))
    sep = draw(_SPACE)
    text = "[" + sep.join(
        "[" + draw(_SPACE) + " ".join(row) + draw(_SPACE) + "]" for row in rows
    ) + "]" + draw(_SPACE)
    at = draw(st.integers(0, len(text)))
    edit = draw(st.sampled_from(["none", "splice", "cut", "end"]))
    if edit == "splice":
        return text[:at] + draw(st.one_of(st.sampled_from(_CHARS), _ENTRY)) + text[at:]
    if edit == "cut":
        return text[:at] + text[at + 1 :]
    return text[:at] if edit == "end" else text


_SOUP = st.builds(
    "{}{}".format,
    st.sampled_from(["", "[", "[[", "[[", "[[["]),
    st.lists(
        st.one_of(st.text(alphabet=_CHARS, min_size=1, max_size=8), _LONG_DIGITS), max_size=6
    ).map("".join),
)


def _outcome(read, text):
    try:
        lat = read(text)
    except (ParseError, RankDeficientError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)
    return lat.basis.rows, lat.gram


class TestMatchesReference:
    """``parse_lattice`` (one token regex) against the character scanner it
    replaced: equal rows and ``gram``, or the same error at the same place."""

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(text=st.one_of(_lattice_like(), _SOUP), as_bytes=st.booleans())
    def test_same_outcome(self, text, as_bytes):
        given_text = text.encode("utf-8") if as_bytes else text
        assert _outcome(parse_lattice, given_text) == _outcome(
            parse_lattice_reference, given_text
        )
