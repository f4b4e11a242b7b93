"""The sort, factorization and sweep shortcuts against plain references.

Key columns that fit 63 bits are sorted as one packed int64 and others by
``np.lexsort`` (``_key_runs``); identifier columns are factorized from their
run heads (``_ident_column``); and the F-beta envelope sweeps only the
members that can win (``fbeta_envelope``). Each must give what the plain
computation gives: the lexicographic stable order, ``np.unique`` over every
field, the line reader's table and error, and a sweep of every member.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import loop_envelope, parse_lines
from pareto_judge.fbeta_analysis import BetaGrid, fbeta_envelope
from pareto_judge.ingest_report import (
    ParseError,
    _body_table,
    _first_repeat,
    _ident_column,
    _key_runs,
)


# a column's bits, as _key_runs counts them: those of its maximum, and all
# 64 for a column that holds a negative value
def _bits(column: list[int]) -> int:
    return 64 if min(column) < 0 else max(column).bit_length()


_names = st.integers(0, 99)  # codes of up to 100 names, 7 bits
_narrow_id = st.integers(0, 40)
_wide_id = st.one_of(
    st.integers(2**40, 2**40 + 3), st.integers(2**63 - 4, 2**63 - 1), st.integers(0, 3)
)


@st.composite
def _key_rows(draw, fits: bool) -> list[tuple[int, int, int, int]]:
    """(dataset, method, fold, solution_id) rows, unsorted, with repeats;
    their bits sum to at most 63 when fits, and to more otherwise."""
    fold, ids = st.integers(0, 9), _narrow_id
    if not fits:
        fold = draw(st.sampled_from([fold, st.integers(-3, 9)]))
        ids = draw(st.sampled_from([ids, _wide_id]))
    rows = draw(st.lists(st.tuples(_names, _names, fold, ids), min_size=1, max_size=40))
    rows += draw(st.lists(st.sampled_from(rows), max_size=5))  # repeated keys
    rows = draw(st.permutations(rows))
    if not fits:  # a row that no packed key can hold: 64 bits or more, or negative
        wide = draw(st.sampled_from([(99, 99, 9, 2**45), (99, 99, 9, 2**63 - 1), (0, 0, -1, 0)]))
        rows.insert(draw(st.integers(0, len(rows))), wide)
    return rows


def _columns(rows) -> list[np.ndarray]:
    return [np.array(column, dtype=np.int64) for column in zip(*rows)]


class TestKeyRuns:
    @pytest.mark.parametrize("fits", [True, False])
    @settings(deadline=None, max_examples=150)
    @given(data=st.data())
    def test_order_and_runs_equal_a_stable_lexicographic_sort(self, fits, data):
        rows = data.draw(_key_rows(fits))
        keys = _columns(rows)
        assert (sum(_bits(list(column)) for column in zip(*rows)) <= 63) == fits
        width = data.draw(st.integers(1, 4))
        order, starts = _key_runs(keys, width)
        # sorted() is stable, so equal keys keep their row order
        expected = sorted(range(len(rows)), key=lambda i: rows[i])
        assert order.tolist() == expected
        prefixes = [rows[i][:width] for i in expected]
        runs = [k for k in range(len(rows)) if k == 0 or prefixes[k] != prefixes[k - 1]]
        assert starts.tolist() == runs

    @pytest.mark.parametrize("fits", [True, False])
    @settings(deadline=None, max_examples=150)
    @given(data=st.data())
    def test_first_repeat_is_the_first_row_seen_before(self, fits, data):
        rows = data.draw(_key_rows(fits))
        seen, expected = set(), len(rows)
        for i, row in enumerate(rows):
            if row in seen:
                expected = i
                break
            seen.add(row)
        assert _first_repeat(_columns(rows)) == expected

    def test_no_rows(self):
        keys = [np.zeros(0, np.int64)] * 4
        order, starts = _key_runs(keys, 2)
        assert order.tolist() == starts.tolist() == []
        assert _first_repeat(keys) == 0


def _field_bounds(fields: list[bytes]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A buffer of the fields, each followed by a comma, and their starts and ends."""
    body = b"".join(field + b"," for field in fields)
    ends = np.cumsum([len(field) + 1 for field in fields], dtype=np.int64) - 1
    starts = ends - np.array([len(field) for field in fields], dtype=np.int64)
    return np.frombuffer(body, np.uint8), starts, ends


class TestRunHeads:
    @settings(deadline=None, max_examples=200)
    @given(
        pool=st.lists(
            st.one_of(st.text("abAB09_-", min_size=1, max_size=6), st.sampled_from(["", "a b", "é"])),
            min_size=1, max_size=8,
        ),
        data=st.data(),
    )
    @example(pool=["b", "a"], data=None)
    def test_factorization_equals_np_unique_of_every_field(self, pool, data):
        if data is None:
            picks = [0, 1, 0, 0, 1, 1, 1, 0]  # interleaved runs of two names
        else:  # runs of one name interleaved with runs of others
            runs = data.draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.integers(1, 4))))
            picks = [name for name, length in runs for _ in range(length)]
        fields = [pool[i].encode() for i in picks]
        names, codes, bad = _ident_column(*_field_bounds(fields))
        distinct, inverse = np.unique(np.array(fields, dtype=object), return_inverse=True)
        assert names == tuple(name.decode("latin-1") for name in distinct.tolist())
        assert codes.tolist() == inverse.tolist()
        assert bad.tolist() == [f in (b"", b"a b", "é".encode()) for f in fields]


_COUNTS = b"1,2,3,4"


@st.composite
def _counts_body(draw) -> list[bytes]:
    """Distinct-key counts lines: more than 64 names at times, wide
    solution_ids at times, in any order."""
    names = draw(st.integers(1, 90))
    ids = draw(st.sampled_from([st.integers(0, 50), _wide_id]))
    key = st.tuples(st.integers(0, names - 1), st.integers(0, 2), st.integers(0, 3), ids)
    keys = draw(st.lists(key, min_size=1, max_size=30, unique=True))
    return [f"n{d},m{m},{f},{s},".encode() + _COUNTS for d, m, f, s in keys]


def _read(body: bytes, read) -> object:
    try:
        return read(body, "f.csv", "counts", 4)
    except ParseError as exc:
        return str(exc)


class TestRepeatedKeyAnywhere:
    @settings(deadline=None, max_examples=150)
    @given(lines=_counts_body(), data=st.data())
    def test_first_bad_line_and_message_equal_the_line_readers(self, lines, data):
        source = data.draw(st.integers(0, len(lines) - 1))
        key = lines[source].split(b",")[:4]
        repeat = b",".join([*key, b"5", b"6", b"7", b"8"])
        lines.insert(data.draw(st.integers(0, len(lines))), repeat)
        body = b"\n".join(lines) + b"\n"
        error = _read(body, _body_table)
        assert isinstance(error, str) and "duplicate record key" in error
        assert error == _read(body, parse_lines)

    @settings(deadline=None, max_examples=80)
    @given(lines=_counts_body())
    def test_distinct_keys_read_as_the_line_reader_reads_them(self, lines):
        body = b"\n".join(lines) + b"\n"
        table, expected = _read(body, _body_table), _read(body, parse_lines)
        for column in ("dataset", "method", "fold", "solution_id", "values"):
            assert getattr(table, column).tolist() == getattr(expected, column).tolist()
        assert table.dataset_names == expected.dataset_names


# a scaled copy of a row of the largest counts still sums to at most 2**53
_COUNT = st.one_of(st.integers(0, 30), st.integers(2**40, 2**49))


@st.composite
def _near_ties(draw) -> list[tuple[int, int, int, int]]:
    """Counts rows of members that tie or nearly tie: scaled copies,
    duplicates, rows a few units apart at large counts (rates a few ulps
    apart) and rows with tp = 0."""
    base = draw(st.lists(st.tuples(*[_COUNT] * 4).filter(any), min_size=1, max_size=4))
    rows = list(base)
    for tp, fn, fp, tn in base:
        for kind in draw(st.lists(st.sampled_from(["scaled", "same", "ulps", "no-tp"]), max_size=3)):
            if kind == "scaled":
                k = draw(st.integers(2, 3))
                rows.append((k * tp, k * fn, k * fp, k * tn))
            elif kind == "same":
                rows.append((tp, fn, fp, tn))
            elif kind == "ulps":
                delta = st.integers(-2, 2)
                row = tuple(max(0, c + draw(delta)) for c in (tp, fn, fp, tn))
                rows.append(row if any(row) else (1, 0, 0, 0))
            else:
                rows.append((0, fn, fp, tn + 1))
    return draw(st.permutations(rows))


_grid = st.lists(
    st.one_of(st.floats(1e-3, 1e3), st.floats(1e-150, 1e150)), min_size=1, max_size=10, unique=True
).map(lambda betas: BetaGrid(tuple(sorted(betas))))


class TestEnvelopeCandidates:
    @settings(deadline=None, max_examples=300)
    @given(rows=_near_ties(), grid=_grid)
    @example(rows=[(0, 3, 2, 5), (0, 1, 0, 9)], grid=BetaGrid((0.5, 2.0)))  # tp = 0 everywhere
    @example(rows=[(1, 1, 1, 1), (2, 2, 2, 2), (1, 1, 1, 1)], grid=BetaGrid((1.0,)))
    @example(
        rows=[(2**49, 2**40, 2**45, 7), (2**49 + 1, 2**40, 2**45 + 1, 7)],
        grid=BetaGrid((1e-3, 1.0, 1e3)),
    )
    def test_equals_a_sweep_of_every_member(self, rows, grid):
        envelope = fbeta_envelope(np.array(rows, dtype=np.int64), grid)
        expected = loop_envelope(rows, grid.betas)
        assert list(zip(envelope.values, envelope.defined, envelope.argmax)) == expected
