import hashlib
import io
import itertools
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
from support import records


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
BIG = "99999999999999999999"

_PROB = st.integers(0, 10**6).map(lambda k: f"{k // 10**6}.{k % 10**6:06d}")


@st.composite
def _canonical_rows(draw):
    rows, ts = [], 0
    for _ in range(draw(st.integers(0, 8))):
        ts += draw(st.integers(0, 10**6))
        click = draw(st.booleans())
        conversion = click and draw(st.booleans())
        rows.append([str(ts), draw(_PROB), draw(_PROB), str(draw(st.integers(0, 10**7))),
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

        def refuse(stream):
            raise AssertionError("fell back to the streaming parser")

        monkeypatch.setattr("rtblab.data.parse_canonical", refuse)
        assert _outcome(lambda: BidLog.from_csv(path)) == _outcome(lambda: log)


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


def test_log_with_a_negative_price_is_rejected():
    # the replay's budget search needs cumulative cost to never decrease
    with pytest.raises(ConfigurationError, match="market prices must be >= 0"):
        BidLog([1, 2], [0.1, 0.1], [0.1, 0.1], [5, -1], [0, 0], [0, 0])


class TestSynthetic:
    def test_empty(self):
        assert len(generate_synthetic(SynthConfig(n_records=0))) == 0

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
