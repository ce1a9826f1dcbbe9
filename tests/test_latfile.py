import pytest

from latforge import (
    Basis,
    ParseError,
    RankDeficientError,
    format_lattice,
    parse_lattice,
    uniform_basis,
)
from latforge.latfile import load_lattice, save_lattice


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
        assert lat.source == str(path)
