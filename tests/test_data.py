import hashlib
import io
import itertools
import math
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from rtblab import (
    BidLog,
    ColumnMap,
    ConfigurationError,
    LabelViolation,
    LogFormatError,
    MalformedRow,
    NonMonotonicTimestamp,
    SynthConfig,
    convert_ipinyou,
    generate_synthetic,
    parse_canonical,
    serialize_canonical,
)
from rtblab.cli import main
from rtblab.data import CANONICAL_HEADER
from support import canonical_text, records


HEADER = CANONICAL_HEADER + "\n"


class TestParse:
    def test_single_row(self):
        rows = list(parse_canonical(io.StringIO(HEADER + "1,0.01,0.02,70,0,0\n")))
        assert rows == [(1, 0.01, 0.02, 70, False, False)]

    def test_empty_after_header(self):
        assert list(parse_canonical(io.StringIO(HEADER))) == []

    def test_empty_input(self):
        with pytest.raises(MalformedRow) as err:
            list(parse_canonical(io.StringIO("")))
        assert str(err.value) == "line 1: empty input, missing header"

    def test_missing_header(self):
        with pytest.raises(MalformedRow) as err:
            list(parse_canonical(io.StringIO("1,0.01,0.02,70,0,0\n")))
        assert err.value.line_no == 1

    def test_conversion_without_click(self):
        with pytest.raises(LabelViolation) as err:
            list(parse_canonical(io.StringIO(HEADER + "1,0.01,0.02,70,0,1\n")))
        assert err.value.line_no == 2

    def test_non_monotonic_timestamp(self):
        text = HEADER + "5,0.01,0.02,70,0,0\n4,0.01,0.02,70,0,0\n"
        with pytest.raises(NonMonotonicTimestamp) as err:
            list(parse_canonical(io.StringIO(text)))
        assert err.value.line_no == 3

    @pytest.mark.parametrize("row", [
        "1,1.5,0.02,70,0,0",      # pctr out of range
        "1,0.01,-0.1,70,0,0",     # pcvr out of range
        "1,0.01,0.02,-3,0,0",     # negative price
        "1,0.01,0.02,70,2,0",     # label not 0/1
        "1,0.01,0.02,70,0",       # too few fields
        "x,0.01,0.02,70,0,0",     # unparseable ts
        "99999999999999999999,0.01,0.02,70,0,0",    # ts beyond int64
        "1,0.01,0.02,-99999999999999999999,0,0",    # price beyond int64
    ])
    def test_malformed_rows(self, row):
        with pytest.raises(MalformedRow) as err:
            list(parse_canonical(io.StringIO(HEADER + row + "\n")))
        assert err.value.line_no == 2

    def test_parsing_is_lazy(self):
        lines_read = 0

        def counting_stream():
            nonlocal lines_read
            lines_read += 1
            yield HEADER
            for i in range(1_000_000):
                lines_read += 1
                yield f"{i},0.01,0.02,70,0,0\n"

        taken = list(itertools.islice(parse_canonical(counting_stream()), 10))
        assert len(taken) == 10
        assert lines_read <= 12


COLUMNS = ("ts", "pctr", "pcvr", "market_price", "click", "conversion")
_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1
BIG = "99999999999999999999"

_PROB = st.integers(0, 10**6).map(lambda k: f"{k // 10**6}.{k % 10**6:06d}")


def _unsigned(top: int):
    """Integers of 1-19 digits up to ``top``, among them 2**53 + 1, which a
    float64 does not hold, the 16-digit maximum of the writer-layout reader,
    and ``top``."""
    return st.one_of(
        st.integers(0, 10**7), st.sampled_from([0, 2**53 + 1, 10**16 - 1, top]),
        st.integers(1, 19).flatmap(
            lambda width: st.integers(0 if width == 1 else 10 ** (width - 1),
                                      min(10 ** width - 1, top))))


@st.composite
def _canonical_rows(draw):
    n = draw(st.integers(0, 8))
    top = _INT64_MAX // max(n, 1)  # BidLog's int64-total rule
    rows = []
    for ts in sorted(draw(st.lists(_unsigned(_INT64_MAX), min_size=n, max_size=n))):
        click = draw(st.booleans())
        conversion = click and draw(st.booleans())
        rows.append([str(ts), draw(_PROB), draw(_PROB), str(draw(_unsigned(top))),
                     str(int(click)), str(int(conversion))])
    return rows


def _underscore(field: str) -> str:
    for i in range(1, len(field)):
        if field[i - 1].isdigit() and field[i].isdigit():
            return field[:i] + "_" + field[i:]
    return field


_FIELD_MUTATIONS = (
    lambda f: f" {f}\t", lambda f: "+" + f, _underscore, lambda f: f + ".0",
    lambda f: f + "#", lambda f: BIG, lambda f: "-" + BIG, lambda f: "nan",
    lambda f: "1.5", lambda f: "-0.000001", lambda f: f + "\xa0", lambda f: "\x1e" + f,
    lambda f: "-0.000000", lambda f: "-" + f,  # -0.0 is a rate; "-" + ts is a negative ts
    # same width as a rate or a label, so only a value check can reject them
    lambda f: "1.000001", lambda f: "9.999999", lambda f: "2",
)


def _mutated_lines(data, rows):
    """Canonical lines of ``rows`` after a few random field and line mutations."""
    for _ in range(data.draw(st.integers(0, 3))):
        if not rows:
            break
        i = data.draw(st.integers(0, len(rows) - 1))
        kind = data.draw(st.sampled_from(["field", "5 fields", "7 fields", "decreasing ts",
                                          "conversion without click"]))
        if kind == "field":
            j = data.draw(st.integers(0, len(rows[i]) - 1))
            rows[i][j] = data.draw(st.sampled_from(_FIELD_MUTATIONS))(rows[i][j])
        elif kind == "5 fields":
            del rows[i][-1]
        elif kind == "7 fields":
            rows[i].append("0")
        elif kind == "decreasing ts":
            rows[i - 1], rows[i] = rows[i], rows[i - 1]
        else:
            rows[i][4:6] = ["0", "1"]
    lines = [",".join(r) for r in rows]
    for _ in range(data.draw(st.integers(0, 2))):
        at = data.draw(st.integers(0, len(lines)))
        lines.insert(at, data.draw(st.sampled_from(["", "  ", "\t", "#", "# comment"])))
    return lines


def _outcome(read):
    """Column dtypes and bytes of the log ``read`` returns, or its error type and message."""
    try:
        log = read()
    except LogFormatError as exc:
        return type(exc), str(exc)
    return [(getattr(log, c).dtype.str, getattr(log, c).tobytes()) for c in COLUMNS]


def _streamed(path):
    with open(path, "r", encoding="utf-8") as fh:
        return BidLog.from_records(parse_canonical(fh))


def _refuse_fallbacks(monkeypatch, numpy_reader=False):
    """Make the streaming parser, and numpy's reader unless ``numpy_reader``,
    fail if from_csv calls them."""
    def refuse(*args, **kwargs):
        raise AssertionError("fell back from the writer-layout reader")

    monkeypatch.setattr("rtblab.data.parse_canonical", refuse)
    if not numpy_reader:
        monkeypatch.setattr(np, "loadtxt", refuse)


@st.composite
def _writer_layout_rows(draw):
    """Lines as serialize_canonical writes them, of 1-16 digit integers."""
    n = draw(st.integers(0, 6))
    rows = []
    for ts in sorted(draw(st.lists(st.integers(0, 10**16 - 1), min_size=n, max_size=n))):
        click = draw(st.booleans())
        conversion = click and draw(st.booleans())
        price = draw(st.one_of(st.integers(0, 10**5), st.integers(0, 10**16 - 1)))
        rows.append(f"{ts},{draw(_PROB)},{draw(_PROB)},{price},{click:d},{conversion:d}")
    return rows


# a click row and a no-click row, in which each pinned example of
# test_writer_layout_read_in_blocks_of_any_size breaks one value rule
_TWO_ROWS = ["1,0.500000,0.250000,7,1,0", "2,0.500000,0.250000,7,0,0"]


class TestFromCsv:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_agrees_with_streaming_parser(self, tmp_path, data):
        lines = _mutated_lines(data, data.draw(_canonical_rows()))
        newline = data.draw(st.sampled_from(["\n", "\r\n"]))
        text = newline.join([CANONICAL_HEADER, *lines])
        if data.draw(st.booleans()):
            text += newline
        path = tmp_path / "log.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(lambda: BidLog.from_csv(path)) == _outcome(lambda: _streamed(path))

    @pytest.mark.parametrize("row", ["{pad}10,0.5,0.5,100,1,1", "10,0.5{pad},0.5,100,1,1",
                                     "10,0.5,0.5,100,1,1{pad}"])
    @pytest.mark.parametrize("pad", ["\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u3000"])
    def test_padded_field_is_malformed_for_both_readers(self, tmp_path, pad, row):
        # numpy's reader strips each of these from around a field as whitespace
        path = tmp_path / "log.csv"
        path.write_bytes(f"{HEADER}{row.format(pad=pad)}\n20,0.25,0.5,100,0,0\n".encode("utf-8"))
        outcome = _outcome(lambda: BidLog.from_csv(path))
        assert outcome == _outcome(lambda: _streamed(path))
        assert outcome[0] is MalformedRow and outcome[1].startswith("line 2: ")

    def test_bad_header_is_the_streaming_parsers_line_1_error(self, tmp_path):
        # the column-wise reader gives up at the header; the streaming parser names it
        path = tmp_path / "log.csv"
        path.write_bytes(b"ts,pctr,pcvr,price,click,conversion\n10,0.5,0.5,100,1,1\n")
        with pytest.raises(MalformedRow) as err:
            BidLog.from_csv(path)
        assert str(err.value) == ("line 1: bad header 'ts,pctr,pcvr,price,click,conversion', "
                                  f"expected {CANONICAL_HEADER!r}")

    @pytest.mark.parametrize("body", ["", "\n\n", "\r\n"])
    def test_header_only_is_empty_without_warning(self, tmp_path, body):
        path = tmp_path / "log.csv"
        path.write_bytes((HEADER + body).encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log = BidLog.from_csv(path)
        assert _outcome(lambda: log) == _outcome(lambda: BidLog.from_records([]))

    def test_well_formed_log_skips_streaming_parser(self, tmp_path, monkeypatch):
        log = generate_synthetic(SynthConfig(n_records=1000, seed=8))
        path = tmp_path / "log.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            serialize_canonical(log, fh)
        _refuse_fallbacks(monkeypatch)
        assert _outcome(lambda: BidLog.from_csv(path)) == _outcome(lambda: log)

    def test_rows_after_the_writer_layout_go_to_numpys_reader(self, tmp_path, monkeypatch):
        # Only the last row ends in CRLF.  The blocks before it keep their
        # rows, and numpy's reader parses only the rest of the file.
        log = generate_synthetic(SynthConfig(n_records=3000, seed=8))
        path = tmp_path / "log.csv"
        path.write_bytes((canonical_text(log)[:-1] + "\r\n").encode("ascii"))
        skipped, loadtxt = [], np.loadtxt

        def counting_loadtxt(*args, **kwargs):
            skipped.append(kwargs["skiprows"])
            return loadtxt(*args, **kwargs)

        _refuse_fallbacks(monkeypatch, numpy_reader=True)
        monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
        monkeypatch.setattr("rtblab.data._READ_BLOCK_BYTES", 4096)
        assert _outcome(lambda: BidLog.from_csv(path)) == _outcome(lambda: log)
        assert len(skipped) == 1 and len(log) - 4096 // 26 <= skipped[0] - 1 < len(log)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=_writer_layout_rows(), block=st.one_of(st.integers(1, 80), st.just(1 << 21)),
           swap=st.integers(0, 5), crlf_from=st.integers(0, 6),
           edit=st.none() | st.tuples(st.integers(0, 5), st.sampled_from([
               (1, "1.000001"), (2, "1.000001"), (1, "9.999999"), (2, "9.999999"),
               (4, "2"), (5, "2"), (4, "9"), (5, "9"), (4, "0,1")])))
    @example(rows=_TWO_ROWS, block=1 << 21, swap=0, crlf_from=6, edit=(0, (1, "9.999999")))
    @example(rows=_TWO_ROWS, block=1 << 21, swap=0, crlf_from=6, edit=(1, (2, "1.000001")))
    @example(rows=_TWO_ROWS, block=1 << 21, swap=0, crlf_from=6, edit=(0, (4, "2")))
    @example(rows=_TWO_ROWS, block=1 << 21, swap=0, crlf_from=6, edit=(1, (4, "0,1")))
    @example(rows=_TWO_ROWS, block=1 << 21, swap=1, crlf_from=6, edit=None)
    @example(rows=_TWO_ROWS, block=30, swap=1, crlf_from=6, edit=None)
    @example(rows=_TWO_ROWS, block=30, swap=1, crlf_from=1, edit=None)
    def test_writer_layout_read_in_blocks_of_any_size(self, tmp_path, monkeypatch, rows, block,
                                                      swap, crlf_from, edit):
        # Each small block cuts a row at another offset, or holds no newline
        # at all; a large one holds the file.  Rows swapped out of order may
        # be in one block or in two, and an edit that keeps a field's width
        # breaks a rate or label rule; such a file falls back.  Rows from
        # crlf_from on end in CRLF, so numpy's reader takes the file from
        # the block that holds the first of them.  Any other file takes the
        # writer-layout reader alone.
        rows = list(rows)
        if 0 < swap < len(rows):
            rows[swap - 1], rows[swap] = rows[swap], rows[swap - 1]
        if edit and rows:
            row, (column, text) = edit[0] % len(rows), edit[1]
            fields = rows[row].split(",")
            fields[column:column + text.count(",") + 1] = text.split(",")
            rows[row] = ",".join(fields)
        path = tmp_path / "log.csv"
        path.write_bytes("".join(line + ("\n" if i <= crlf_from else "\r\n")
                                 for i, line in enumerate([CANONICAL_HEADER, *rows])).encode())
        expected = _outcome(lambda: _streamed(path))
        with monkeypatch.context() as patch:
            if isinstance(expected, list):
                _refuse_fallbacks(patch, numpy_reader=crlf_from < len(rows))
            patch.setattr("rtblab.data._READ_BLOCK_BYTES", block)
            assert _outcome(lambda: BidLog.from_csv(path)) == expected


class TestRoundTrip:
    def test_serialize_parse_is_identity(self):
        log = generate_synthetic(SynthConfig(n_records=500, seed=7))
        buf = io.StringIO()
        serialize_canonical(log, buf)
        buf.seek(0)
        assert list(parse_canonical(buf)) == [astuple(r) for r in records(log)]

    def test_reserialize_is_byte_stable(self):
        log = generate_synthetic(SynthConfig(n_records=200, seed=3))
        buf = io.StringIO()
        serialize_canonical(log, buf)
        text = buf.getvalue()
        rows = parse_canonical(io.StringIO(text))
        buf2 = io.StringIO()
        serialize_canonical(BidLog.from_records(rows), buf2)
        assert buf2.getvalue() == text

    def test_round_trip_past_a_chunk_reads_columnar(self, tmp_path, monkeypatch):
        # 140,000 rows cross the writer's 65,536-row chunks and the reader's blocks
        log = generate_synthetic(SynthConfig(n_records=140_000, seed=21))
        path = tmp_path / "log.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            serialize_canonical(log, fh)
        assert path.read_text(encoding="utf-8") == canonical_text(log)
        _refuse_fallbacks(monkeypatch)
        assert _outcome(lambda: BidLog.from_csv(path)) == _outcome(lambda: log)

    # sha256 of `gen-synthetic` output for GOLDEN_ARGS, pinned when records
    # were still written one at a time; clipped predictions (1.000000 and
    # 0.000001) occur in it.
    GOLDEN_ARGS = ["--n", "20000", "--ctr", "0.7", "--cvr", "0.4", "--price-log-mean", "6.0",
                   "--price-log-sigma", "1.1", "--pctr-noise", "0.5", "--pcvr-noise", "0.3",
                   "--seed", "17"]
    GOLDEN_SHA256 = "13e4500d7cbe235dbc5b18c2f9f59cac8142bc42b664ba3728b300ca0339d099"

    def test_gen_synthetic_output_is_pinned(self, tmp_path):
        out = tmp_path / "log.csv"
        assert main(["gen-synthetic", *self.GOLDEN_ARGS, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.GOLDEN_SHA256


def _rounding_edges(k: int, offset: float, ulps: int) -> float:
    """k / 10**6 plus ``offset``, moved by ``ulps`` (-1, 0 or 1) units in the last place."""
    x = k / 1e6 + offset
    return math.nextafter(x, math.copysign(math.inf, ulps)) if ulps else x


_PREDICTIONS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0]),
    st.integers(0, 128).map(lambda j: j / 128),  # exact ties of "%.6f"
    st.builds(_rounding_edges, st.integers(0, 10**6), st.sampled_from([0.0, -5e-7, 5e-7]),
              st.integers(-1, 1)).filter(lambda x: 0.0 <= x <= 1.0),
    st.floats(0.0, 1.0),
)
_TIMESTAMPS = st.one_of(st.sampled_from([_INT64_MIN, _INT64_MAX, -1, 0, 9, 10]),
                        st.integers(-10**6, 10**6), st.integers(_INT64_MIN, _INT64_MAX))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_writer_matches_the_per_row_format(data):
    # valid logs only: sorted timestamps, and a conversion only with a click
    n = data.draw(st.integers(0, 30), label="n")
    top = _INT64_MAX // max(n, 1)  # BidLog's int64-total rule
    ts = sorted(data.draw(st.lists(_TIMESTAMPS, min_size=n, max_size=n), label="ts"))
    rows = data.draw(st.lists(st.tuples(
        _PREDICTIONS, _PREDICTIONS,
        st.one_of(st.sampled_from([0, top]), st.integers(0, 10**6), st.integers(0, top)),
        st.booleans(), st.booleans()), min_size=n, max_size=n), label="rows")
    log = BidLog.from_records((t, pctr, pcvr, price, click, click and conversion)
                              for t, (pctr, pcvr, price, click, conversion) in zip(ts, rows))
    buf = io.StringIO()
    serialize_canonical(log, buf)
    assert buf.getvalue() == canonical_text(log)


@pytest.mark.parametrize("pctr, pcvr, shown", [
    (1.5, 0.5, "pctr=1.5"), (0.5, -0.25, "pcvr=-0.25"), (math.nan, 0.5, "pctr=nan"),
    (0.5, math.inf, "pcvr=inf"),
])
def test_log_with_a_prediction_outside_0_1_is_rejected(pctr, pcvr, shown):
    # both readers refuse such a row; a log built in Python used to replay it
    with pytest.raises(ConfigurationError) as err:
        BidLog([1, 2], [0.5, pctr], [0.5, pcvr], [5, 5], [0, 0], [0, 0])
    assert str(err.value) == f"predictions must lie in [0, 1], got {shown} at row 1"


def test_log_with_a_negative_price_is_rejected():
    # the replay's budget search needs cumulative cost to never decrease
    with pytest.raises(ConfigurationError, match="market prices must be >= 0"):
        BidLog([1, 2], [0.1, 0.1], [0.1, 0.1], [5, -1], [0, 0], [0, 0])


@pytest.mark.parametrize("click, conversion, shown", [
    ([0, 2], [0, 0], "click=2 at row 1"), ([0.5, 0], [0, 0], "click=0.5 at row 0"),
    ([1, 1], [0, math.nan], "conversion=nan at row 1"), ([1, 1], [-1, 0], "conversion=-1 at row 0"),
])
def test_log_with_a_label_other_than_0_or_1_is_rejected(click, conversion, shown):
    # checked before the cast to bool, which used to turn a 2 into True
    with pytest.raises(ConfigurationError) as err:
        BidLog([1, 2], [0.5, 0.5], [0.5, 0.5], [5, 5], click, conversion)
    assert str(err.value) == f"labels must be 0 or 1, got {shown}"


def test_log_with_a_conversion_without_a_click_is_rejected():
    with pytest.raises(ConfigurationError) as err:
        BidLog([1, 2, 3], [0.5] * 3, [0.5] * 3, [5] * 3, [1, 0, 0], [1, 0, 1])
    assert str(err.value) == "conversion without click at row 2"


def test_log_with_a_decreasing_timestamp_is_rejected():
    # the wall-clock replay's searchsorted needs sorted timestamps
    with pytest.raises(ConfigurationError) as err:
        BidLog([0, 10, 5, 20], [0.5] * 4, [0.5] * 4, [5] * 4, [0] * 4, [0] * 4)
    assert str(err.value) == "timestamps must not decrease, got ts=5 after 10 at row 2"


@pytest.mark.parametrize("ts, price, shown", [
    ([1.7, 2.2], [5.9, 7.99], "ts=1.7 at row 0"),
    ([1, 2], [5.9, 7.99], "market_price=5.9 at row 0"),
    ([1, 2], [5.0, 7.0], "market_price=5.0 at row 0"),
    (np.array([1.0, 2.0]), [5, 7], "ts=1.0 at row 0"),
    ([1, 2], np.array([5, 2**63], dtype=np.uint64), "market_price=9223372036854775808 at row 1"),
    ([1, 2], [5, math.nan], "market_price=nan at row 1"),
    ([1, 2**64], [5, 7], "ts=18446744073709551616 at row 1"),
    ([-1, 2**63], [5, 7], "ts=9223372036854775808 at row 1"),
], ids=["fractional-ts", "fractional-prices", "integral-float-prices", "float-array-ts",
        "uint64-price-past-int64", "nan-price", "ts-2**64", "ts-2**63-after-a-negative"])
def test_log_whose_timestamps_or_prices_are_not_int64_integers_is_rejected(ts, price, shown):
    # these used to be truncated (5.9 to 5), wrapped (2**63 to -2**63), or refused
    # with numpy's own ValueError or OverflowError; the text readers refuse 5.0 too
    with pytest.raises(ConfigurationError) as err:
        BidLog(ts, [0.5, 0.5], [0.5, 0.5], price, [0, 0], [0, 0])
    assert str(err.value) == ("timestamps and market prices must be integers that fit in int64, "
                              f"got {shown}")


def test_integer_columns_of_any_width_are_taken_and_int64_ones_as_they_are():
    ts = np.array([1, 2], dtype=np.int64)
    log = BidLog(ts, [0.5, 0.5], [0.5, 0.5], np.array([5, 7], dtype=np.uint64), [0, 0], [0, 0])
    assert log.ts is ts
    assert log.market_price.dtype == np.int64 and log.market_price.tolist() == [5, 7]
    assert BidLog(*[()] * 6).ts.dtype == np.int64  # an empty column needs no integer type


@pytest.mark.parametrize("columns, shapes", [
    (([1, 2, 3], [0.5], [0.5], [1, 2, 3], [1, 1, 1], [0, 0, 0]),
     "[(3,), (1,), (1,), (3,), (3,), (3,)]"),
    (([[1, 2]], [[0.5, 0.5]], [[0.5, 0.5]], [[5, 5]], [[0, 0]], [[0, 0]]),
     "[(1, 2), (1, 2), (1, 2), (1, 2), (1, 2), (1, 2)]"),
    ((1, 0.5, 0.5, 5, 0, 0), "[(), (), (), (), (), ()]"),
], ids=["mismatched-lengths", "2-D", "scalars"])
def test_log_whose_columns_are_not_1d_of_one_length_is_rejected(columns, shapes):
    # a mismatched log used to replay 3 bids with the predictions of 1
    with pytest.raises(ConfigurationError) as err:
        BidLog(*columns)
    assert str(err.value) == f"a log needs six 1-D columns of one length, not {shapes}"


@st.composite
def _python_rows(draw):
    """Rows of ints and floats, each of which may break a rule of a log."""
    n = draw(st.integers(0, 5))
    top = _INT64_MAX // max(n, 1)  # BidLog's int64-total rule, which no row states
    # timestamps and prices past int64, and floats, integral ones among them
    past_int64 = st.integers(_INT64_MAX + 1, 2**70) | st.integers(-2**70, _INT64_MIN - 1)
    not_int64 = past_int64 | st.floats() | st.integers(-3, 3).map(float)
    ts = draw(st.lists(st.integers(-3, 3) | st.integers(_INT64_MIN, _INT64_MAX) | not_int64,
                       min_size=n, max_size=n))
    prediction = (st.floats(0.0, 1.0) | st.sampled_from([-0.0, 1.0, 1.5, -1e-9, math.nan])
                  | st.floats() | st.integers(-1, 2))
    price = st.integers(-2, top) | not_int64
    label = st.sampled_from([0, 1]) | st.integers(-2, 3)
    if draw(st.booleans()):
        ts = sorted(ts, key=lambda t: (math.isnan(t), t))  # any NaN last
    return [(t, draw(prediction), draw(prediction), draw(price), draw(label), draw(label))
            for t in ts]


@settings(max_examples=300, deadline=None)
@given(rows=_python_rows())
def test_a_log_built_in_python_is_refused_exactly_when_its_text_is(rows):
    # BidLog states the rules column-wise and _parse_row per row; they must agree
    text = HEADER + "".join(",".join(map(repr, row)) + "\n" for row in rows)
    try:
        list(parse_canonical(io.StringIO(text)))
        text_refused = False
    except LogFormatError:
        text_refused = True
    try:
        BidLog.from_records(rows)
        log_refused = False
    except ConfigurationError:
        log_refused = True
    assert log_refused == text_refused


@pytest.mark.parametrize("n, price, ok", [
    (3, 5 * 10**18, False), (1, 2**63 - 1, True), (2, 2**62, False), (2, 2**62 - 1, True),
], ids=["three-of-5e18", "one-at-int64-max", "two-past-int64-max", "two-just-under-int64-max"])
def test_log_whose_prices_could_total_past_int64_is_rejected(n, price, ok):
    # the replay's cumulative cost is an int64 sum, which used to wrap to a negative cost
    columns = (range(n), [1.0] * n, [1.0] * n, [price] * n, [1] * n, [1] * n)
    if ok:
        assert len(BidLog(*columns)) == n
    else:
        with pytest.raises(ConfigurationError, match=r"market prices could total more than "
                                                     rf"2\*\*63 - 1: {n} rows, the largest {price}"):
            BidLog(*columns)


class TestSynthetic:
    def test_empty(self):
        assert len(generate_synthetic(SynthConfig(n_records=0))) == 0

    @pytest.mark.parametrize("mean", [42.0, 50.0, 1000.0])
    def test_prices_past_int64_rejected_before_the_cast(self, mean):
        # a mean of 50 used to warn "invalid value encountered in cast" and then
        # blame the prices (market prices must be >= 0)
        with pytest.raises(ConfigurationError, match=f"price_log_mean {mean} and "
                                                     f"price_log_sigma 0.8 draw market prices"):
            generate_synthetic(SynthConfig(n_records=10, price_log_mean=mean))

    @pytest.mark.parametrize("field, message", [
        ("n_records", "n_records must be >= 0"),
        ("seed", "seed must be >= 0, got -1"),
    ])
    def test_negative_count_or_seed_rejected(self, field, message):
        with pytest.raises(ConfigurationError) as exc:
            SynthConfig(**{field: -1})
        assert str(exc.value) == message

    def test_same_seed_identical(self):
        a = generate_synthetic(SynthConfig(n_records=1000, seed=11))
        b = generate_synthetic(SynthConfig(n_records=1000, seed=11))
        for col in ("ts", "pctr", "pcvr", "market_price", "click", "conversion"):
            assert getattr(a, col).tobytes() == getattr(b, col).tobytes()

    def test_click_rate_concentrates(self):
        n, p = 100_000, 0.05
        log = generate_synthetic(SynthConfig(n_records=n, ctr_true=p, seed=5))
        rate = log.click.mean()
        sigma = (p * (1 - p) / n) ** 0.5
        assert abs(rate - p) < 3 * sigma

    def test_no_conversion_without_click(self):
        log = generate_synthetic(SynthConfig(n_records=50_000, ctr_true=0.2, cvr_true=0.5, seed=2))
        assert not np.any(log.conversion & ~log.click)

    def test_timestamps_strictly_increasing(self):
        log = generate_synthetic(SynthConfig(n_records=10_000, seed=1))
        assert np.all(np.diff(log.ts) > 0)

    def test_predictions_in_range(self):
        log = generate_synthetic(SynthConfig(n_records=10_000, ctr_true=0.9, cvr_true=0.9,
                                             pctr_noise=0.5, pcvr_noise=0.5, seed=4))
        for col in (log.pctr, log.pcvr):
            assert np.all(col >= 1e-6) and np.all(col <= 1.0)


class TestConvert:
    def test_identity_map_is_byte_equal(self):
        log = generate_synthetic(SynthConfig(n_records=50, seed=9))
        buf = io.StringIO()
        serialize_canonical(log, buf)
        text = buf.getvalue()
        columns = ColumnMap(ts=0, pctr=1, pcvr=2, market_price=3, click=4, conversion=5)
        out = "".join(convert_ipinyou(io.StringIO(text), columns, delimiter=",", has_header=True))
        assert out == text

    def test_shuffled_columns_match_hand_mapped_fixture(self):
        log = generate_synthetic(SynthConfig(n_records=100, seed=13))
        buf = io.StringIO()
        serialize_canonical(log, buf)
        canonical_lines = buf.getvalue().splitlines()
        # raw layout: price, conversion, ts, pcvr, click, pctr (tab separated)
        order = [3, 5, 0, 2, 4, 1]
        raw_lines = []
        for line in canonical_lines[1:]:
            f = line.split(",")
            raw_lines.append("\t".join(f[i] for i in order) + "\n")
        columns = ColumnMap(ts=2, pctr=5, pcvr=3, market_price=0, click=4, conversion=1)
        out = "".join(convert_ipinyou(iter(raw_lines), columns))
        assert out == "\n".join(canonical_lines) + "\n"

    def test_blank_lines_are_skipped(self):
        columns = ColumnMap(ts=0, pctr=1, pcvr=2, market_price=3, click=4, conversion=5)
        raw = ["1\t0.1\t0.1\t70\t0\t0\n", "\n", "\r\n", "2\t0.2\t0.1\t80\t1\t0\n"]
        out = list(convert_ipinyou(iter(raw), columns))
        assert out == [HEADER, "1,0.1,0.1,70,0,0\n", "2,0.2,0.1,80,1,0\n"]

    def test_row_shorter_than_map(self):
        columns = ColumnMap(ts=0, pctr=1, pcvr=2, market_price=3, click=4, conversion=5)
        with pytest.raises(MalformedRow) as err:
            list(convert_ipinyou(iter(["1\t0.1\t0.1\n"]), columns))
        assert err.value.line_no == 1

    def test_missing_prediction_column_rejected(self):
        with pytest.raises(ConfigurationError):
            ColumnMap(ts=0, pctr=None, pcvr=2, market_price=3, click=4, conversion=5)

    def test_validation_matches_parser(self):
        columns = ColumnMap(ts=0, pctr=1, pcvr=2, market_price=3, click=4, conversion=5)
        with pytest.raises(LabelViolation):
            list(convert_ipinyou(iter(["1,0.1,0.1,70,0,1\n"]), columns, delimiter=","))
