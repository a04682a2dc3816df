from __future__ import annotations

import itertools
import re

import pytest
from hypothesis import given, strategies as st

from rsplits import limits
from rsplits.bitset import VertexSet, parse_int, rank_of_rows
from rsplits.bruteforce import brute_rank


class TestVertexSet:
    def test_intersection(self):
        a = VertexSet.of(8, [1, 2, 3])
        b = VertexSet.of(8, [2, 3, 4, 5])
        assert (a & b).members() == (2, 3)

    def test_complement(self):
        a = VertexSet.of(8, [1, 2, 3])
        assert a.complement().members() == (4, 5, 6, 7, 8)
        assert a.complement().complement() == a

    def test_difference_cardinality(self):
        a = VertexSet.of(8, [1, 2, 3])
        b = VertexSet.of(8, [2, 3, 4, 5])
        assert len(a - b) == 1

    def test_union_subset(self):
        a = VertexSet.of(5, [1, 2])
        b = VertexSet.of(5, [2, 4])
        assert (a | b).members() == (1, 2, 4)
        assert a.issubset(a | b)
        assert not b.issubset(a)

    def test_membership_iteration(self):
        a = VertexSet.of(6, [2, 5])
        assert 2 in a and 5 in a and 3 not in a
        assert list(a) == [2, 5]

    def test_universe_mismatch_rejected(self):
        with pytest.raises(ValueError):
            VertexSet.of(4, [1]) | VertexSet.of(5, [1])

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ValueError):
            VertexSet.of(4, [5])
        with pytest.raises(ValueError):
            VertexSet(4, 1 << 4)

    def test_members_sort_key_and_str_match_a_per_vertex_definition(self):
        for n in range(11):
            for mask in range(1 << n):
                a = VertexSet(n, mask)
                members = tuple(v for v in range(1, n + 1) if mask >> (v - 1) & 1)
                assert a.members() == members
                assert tuple(a) == members
                assert a.sort_key() == (len(members), members)
                assert str(a) == (",".join(str(v) for v in members) if members else "-")

    def test_universe_messages(self, monkeypatch):
        with pytest.raises(ValueError, match=r"^universe size must be >= 0, got -1$"):
            VertexSet(-1, 0)
        message = (r"^universe size 129 exceeds the configured budget \(128\); "
                   r"raise rsplits.limits.MAX_UNIVERSE to allow it$")
        with pytest.raises(ValueError, match=message):
            VertexSet(129, 0)
        with pytest.raises(ValueError, match=message):
            VertexSet.parse(129, "1")
        monkeypatch.setattr(limits, "MAX_UNIVERSE", 200)
        assert len(VertexSet(129, (1 << 129) - 1)) == 129
        monkeypatch.setattr(limits, "MAX_UNIVERSE", 4)
        with pytest.raises(ValueError, match="universe size 5 exceeds the configured budget"):
            VertexSet(5, 0)

    def test_parse_format_round_trip(self):
        assert str(VertexSet.parse(8, "1,3,7")) == "1,3,7"
        assert VertexSet.parse(8, "-") == VertexSet(8, 0)
        assert str(VertexSet(8, 0)) == "-"

    def test_parse_rejects_disorder_and_junk(self):
        with pytest.raises(ValueError):
            VertexSet.parse(8, "3,1")
        with pytest.raises(ValueError):
            VertexSet.parse(8, "1,1")
        with pytest.raises(ValueError):
            VertexSet.parse(8, "1,x")

    def test_parse_keeps_spaces_around_vertices(self):
        assert VertexSet.parse(8, " 1, 3 ,7") == VertexSet.of(8, [1, 3, 7])

    @pytest.mark.parametrize("text", ["+1", "1,+3", "1_0", "1,\u0663", "\uff11", "1,-", "1,,2"])
    def test_parse_takes_ascii_decimal_vertices_only(self, text):
        with pytest.raises(ValueError, match="bad vertex set"):
            VertexSet.parse(12, text)

    @given(st.integers(0, 24), st.data())
    def test_cardinality_identity(self, n, data):
        a = VertexSet(n, data.draw(st.integers(0, (1 << n) - 1)))
        b = VertexSet(n, data.draw(st.integers(0, (1 << n) - 1)))
        assert len(a | b) + len(a & b) == len(a) + len(b)

    @given(st.integers(0, 24), st.data())
    def test_complement_involution(self, n, data):
        a = VertexSet(n, data.draw(st.integers(0, (1 << n) - 1)))
        assert a.complement().complement() == a
        assert len(a) + len(a.complement()) == n


class TestParseInt:
    @pytest.mark.parametrize("token, value", [("0", 0), ("7", 7), ("007", 7), ("-2", -2), ("128", 128)])
    def test_ascii_digits_with_optional_minus(self, token, value):
        assert parse_int(token) == value

    @pytest.mark.parametrize(
        "token",
        ["", "-", "+3", "--3", "1_0", "3.0", " 3", "3 ", "0x1", "\u0663", "\uff13", "-\u0663", "\u00b2"],
    )
    def test_rejects_every_other_spelling(self, token):
        with pytest.raises(ValueError, match="invalid integer"):
            parse_int(token)


class TestEnvOverride:
    def test_decimal_value_raises_the_caps(self, monkeypatch):
        monkeypatch.setenv("RSPLIT_MAX_N", "30")
        assert limits.exhaustive_cap() == 30
        assert limits.oracle_cap() == 30

    @pytest.mark.parametrize("raw", ["3_0", "+30", "\uff13\uff10", "\u0663\u0660", " 30", "30.0", ""])
    def test_takes_the_integer_rule_of_the_file_formats(self, monkeypatch, raw):
        monkeypatch.setenv("RSPLIT_MAX_N", raw)
        message = re.escape(f"RSPLIT_MAX_N must be an integer, got {raw!r}")
        for cap in (limits.exhaustive_cap, limits.oracle_cap):
            with pytest.raises(ValueError, match=f"^{message}$"):
                cap()


def _matrices(max_dim=7):
    return st.integers(0, max_dim).flatmap(
        lambda rows: st.integers(0, max_dim).flatmap(
            lambda cols: st.tuples(
                st.just(rows),
                st.just(cols),
                st.lists(
                    st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows
                ),
            )
        )
    )


def _transpose(rows, n_cols):
    return [sum((row >> j & 1) << i for i, row in enumerate(rows)) for j in range(n_cols)]


def _packed(entries):
    return [sum(bit << j for j, bit in enumerate(row)) for row in entries]


class TestGf2Rank:
    def test_identity(self):
        assert rank_of_rows(_packed([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3

    def test_crossing_rows_of_rank_two(self):
        # Rows of the 5x4 cut matrix at {1..5} in the nine-vertex example:
        # the first three sum to zero mod 2, the last two are zero.
        rows = _packed([[1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        assert rank_of_rows(rows) == 2

    def test_empty_matrices(self):
        assert rank_of_rows([]) == 0
        assert rank_of_rows([0, 0, 0]) == 0

    @pytest.mark.parametrize("n_rows", [0, 1, 2, 3])
    def test_exhaustive_against_bruteforce(self, n_rows):
        for n_cols in range(4):
            for rows in itertools.product(range(1 << n_cols), repeat=n_rows):
                entries = [[row >> j & 1 for j in range(n_cols)] for row in rows]
                assert rank_of_rows(rows) == brute_rank(entries), (rows, n_cols)

    @given(_matrices())
    def test_rank_equals_transpose_rank(self, dims):
        rows, cols, data = dims
        assert rank_of_rows(data) == rank_of_rows(_transpose(data, cols))
        assert rank_of_rows(data) <= min(rows, cols)

    @given(_matrices(), st.data())
    def test_xor_row_append_preserves_rank(self, dims, data):
        rows, cols, row_data = dims
        extra = 0
        if rows:
            for i in data.draw(st.lists(st.integers(0, rows - 1), max_size=rows)):
                extra ^= row_data[i]
        assert rank_of_rows(row_data + [extra]) == rank_of_rows(row_data)

    @given(_matrices(), st.randoms(use_true_random=False))
    def test_rank_invariant_under_row_permutation(self, dims, rnd):
        rows, cols, data = dims
        shuffled = data[:]
        rnd.shuffle(shuffled)
        assert rank_of_rows(shuffled) == rank_of_rows(data)
