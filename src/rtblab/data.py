"""Bid-log ingestion, serialization, and synthetic log generation.

The canonical log is a UTF-8 comma-delimited file with header
``ts,pctr,pcvr,market_price,click,conversion``: integer millisecond
timestamps, rates with up to six fraction digits, integer fen prices and
0/1 labels, each field ASCII with no ``_`` separators.  Its value rules
are stated column-wise in ``BidLog``, which every log passes however it
was read or built, and per row, with the line, in ``_parse_row``.
``BidLog.from_csv`` has three readers; the first two only parse.  A file
in the exact layout ``serialize_canonical`` writes (unsigned integers of
1-16 digits, rates as ``d.dddddd``, ``\\n`` after every row) is read in
blocks by byte arithmetic, in memory of the columns plus one block.  From
the first block that leaves that layout, numpy's C reader reads the file
columnar (given the path, so in chunks), in memory proportional to the
row count; the rows of the blocks before it are kept.
``convert_ipinyou`` keeps field text verbatim, so a converted log is read
by byte arithmetic only as far as its source text has the writer's layout.
``parse_canonical`` is the streaming (constant-memory) parser and the
error oracle: it yields each row as a ``(ts, pctr, pcvr, market_price,
click, conversion)`` tuple.  A file numpy's reader rejects, or whose
columns ``BidLog`` refuses, is re-read whole by it, which raises the
first bad row with its line number.  ``serialize_canonical`` is the array
writer: it writes the bytes of ``"%d,%.6f,%.6f,%d,%d,%d"`` per row, but
formats each chunk of rows as one byte array by numpy arithmetic.
"""
from __future__ import annotations

import contextlib
import math
import os
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import ConfigurationError

CANONICAL_HEADER = "ts,pctr,pcvr,market_price,click,conversion"
_CANONICAL_FIELDS = CANONICAL_HEADER.split(",")
# Labels are read as integers so that BidLog can refuse a 2 rather than cast it to True.
_CANONICAL_DTYPE = np.dtype([("ts", np.int64), ("pctr", np.float64), ("pcvr", np.float64),
                             ("market_price", np.int64), ("click", np.int64),
                             ("conversion", np.int64)])
_INT64 = np.iinfo(np.int64)
_SERIALIZE_CHUNK_ROWS = 1 << 16
# The writer's digit arithmetic stays in uint64: numpy turns uint64 mixed
# with int64 into float64.  An int64's magnitude is at most 2**63 < 10**19.
_POW10 = np.array([10 ** j for j in range(19)], dtype=np.uint64)
_TEN, _ZERO = np.uint64(10), np.uint8(ord("0"))
_PAD = 0  # a byte no field holds
_SCAN_CHUNK_BYTES = 1 << 20
_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")
# The writer-layout reader reads blocks of _READ_BLOCK_BYTES after the rest
# of the last block's cut row.  A row of 1-16 digit integers takes 26 to 56
# bytes; _WORD_PAD bytes before the block let a field's two 8-byte words
# start before it.
_READ_BLOCK_BYTES = 1 << 21
_WORD_PAD = 16
_ROW_BYTES_MIN, _ROW_BYTES_MAX = 26, 56
_COLUMN_DTYPES = (np.int64, np.float64, np.float64, np.int64, np.uint8, np.uint8)  # digit labels
# Digit words stay in uint64, every operand too (see _POW10).  _KEEP_LAST[L]
# keeps the last L of a little-endian word's 8 bytes, its high bytes.
_KEEP_LAST = np.array([(2**64 - 1) << 8 * (8 - L) & (2**64 - 1) for L in range(9)],
                      dtype=np.uint64)
_BYTE, _EIGHT = np.uint64(0xFF), np.uint64(8)
# (keep, multiplier, shift) of each SWAR round, which turns a word of digit
# bytes, first byte most significant, into digit pairs, then fours, then
# the 8-digit value.
_SWAR_ROUNDS = tuple(tuple(np.uint64(x) for x in r) for r in (
    (0x0F0F0F0F0F0F0F0F, 10 << 8 | 1, 8), (0x00FF00FF00FF00FF, 100 << 16 | 1, 16),
    (0x0000FFFF0000FFFF, 10000 << 32 | 1, 32)))


class LogFormatError(ValueError):
    """A rejected input row; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class MalformedRow(LogFormatError):
    pass


class NonMonotonicTimestamp(LogFormatError):
    pass


class LabelViolation(LogFormatError):
    pass


def is_plain_number(text: str) -> bool:
    """Whether ``int()``/``float()`` may read ``text``: ASCII with no ``_``.
    Both also read ``_`` separators and non-ASCII digits, which no reader of
    the lab accepts."""
    return text.isascii() and "_" not in text


def _parse_row(fields: Sequence[str], line_no: int, last_ts: int | None) -> tuple:
    if len(fields) != 6:
        raise MalformedRow(line_no, f"expected 6 fields, got {len(fields)}")
    for text in fields:
        if not is_plain_number(text):
            raise MalformedRow(line_no, f"unparseable field {text!r}: not ASCII, or holds '_'")
    try:
        ts = int(fields[0])
        pctr = float(fields[1])
        pcvr = float(fields[2])
        price = int(fields[3])
        click = int(fields[4])
        conversion = int(fields[5])
    except ValueError as exc:
        raise MalformedRow(line_no, f"unparseable field: {exc}") from None
    if not (_INT64.min <= ts <= _INT64.max) or not (_INT64.min <= price <= _INT64.max):
        raise MalformedRow(line_no, f"integer outside the int64 range: ts={ts}, market_price={price}")
    if not (0.0 <= pctr <= 1.0) or not (0.0 <= pcvr <= 1.0):
        raise MalformedRow(line_no, f"prediction out of [0, 1]: pctr={pctr}, pcvr={pcvr}")
    if price < 0:
        raise MalformedRow(line_no, f"negative market price {price}")
    if click not in (0, 1) or conversion not in (0, 1):
        raise MalformedRow(line_no, f"labels must be 0/1, got click={fields[4]}, conversion={fields[5]}")
    if conversion and not click:
        raise LabelViolation(line_no, "conversion without click")
    if last_ts is not None and ts < last_ts:
        raise NonMonotonicTimestamp(line_no, f"timestamp {ts} < previous {last_ts}")
    return ts, pctr, pcvr, price, bool(click), bool(conversion)


def parse_canonical(stream: Iterable[str]) -> Iterator[tuple]:
    """Parse a canonical log lazily; the first bad row aborts with its line number."""
    lines = iter(stream)
    try:
        header = next(lines)
    except StopIteration:
        raise MalformedRow(1, "empty input, missing header") from None
    if header.rstrip("\r\n") != CANONICAL_HEADER:
        raise MalformedRow(1, f"bad header {header.rstrip()!r}, expected {CANONICAL_HEADER!r}")
    last_ts: int | None = None
    for line_no, line in enumerate(lines, start=2):
        stripped = line.rstrip("\r\n")
        if not stripped:
            continue
        row = _parse_row(stripped.split(","), line_no, last_ts)
        last_ts = row[0]
        yield row


def _digits(magnitudes: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` lowest decimal digits of each uint64 as ASCII, one column
    per value, the most significant digit in row 0."""
    digits = np.empty((width, len(magnitudes)), dtype=np.uint8)
    for row in range(width - 1, -1, -1):
        quotient = magnitudes // _TEN
        np.subtract(magnitudes, quotient * _TEN, out=digits[row], casting="unsafe")
        magnitudes = quotient
    digits += _ZERO
    return digits


def _integer_bytes(values: np.ndarray) -> np.ndarray:
    """``"%d"`` of each int64, one column per value, right-aligned in the
    widest value's rows and padded above with ``_PAD``."""
    negative = values < 0
    magnitudes = np.abs(values).view(np.uint64)  # abs(int64 min) wraps to itself: 2**63
    ndigits = np.maximum(np.searchsorted(_POW10, magnitudes, side="right"), 1)
    width = int((ndigits + negative).max())
    field = _digits(magnitudes, width)
    place = np.arange(width - 1, -1, -1)[:, None]
    field[place >= ndigits] = _PAD
    field[negative & (place == ndigits)] = ord("-")
    return field


def _fraction_bytes(values: np.ndarray) -> np.ndarray:
    """``"%.6f"`` of each float64 in [0, 1], one column per value: a row for
    the sign (``_PAD`` unless the value is -0.0), then ``d.dddddd``."""
    scaled = values * 1e6
    # fl(x * 1e6) lies within 2**-34 of x * 1e6, so rint rounds it to "%.6f"'s
    # digit unless its fraction is near one half (exact ties such as 1/128
    # among them); those few take their digits from "%.6f" itself.
    k = np.rint(scaled)
    near_half = np.abs(scaled - np.floor(scaled) - 0.5) < 2.0 ** -20
    k[near_half] = [float(("%.6f" % x).replace(".", "")) for x in values[near_half].tolist()]
    digits = _digits(k.astype(np.uint64), 7)
    field = np.empty((9, len(values)), dtype=np.uint8)
    field[0] = np.where(np.signbit(values), ord("-"), _PAD)
    field[1] = digits[0]
    field[2] = ord(".")
    field[3:] = digits[1:]
    return field


def serialize_canonical(log: BidLog, stream) -> None:
    """Write a log in the canonical format, byte for byte as
    ``"%d,%.6f,%.6f,%d,%d,%d\\n" % row`` would: each chunk of rows is laid
    out as one byte array of fixed-width fields, whose pad bytes are
    dropped before the chunk is written as one string."""
    stream.write(CANONICAL_HEADER + "\n")
    for lo in range(0, len(log), _SERIALIZE_CHUNK_ROWS):
        hi = lo + _SERIALIZE_CHUNK_ROWS
        n = min(hi, len(log)) - lo
        comma = np.full((1, n), ord(","), dtype=np.uint8)
        columns = np.concatenate([
            _integer_bytes(log.ts[lo:hi]), comma, _fraction_bytes(log.pctr[lo:hi]), comma,
            _fraction_bytes(log.pcvr[lo:hi]), comma, _integer_bytes(log.market_price[lo:hi]),
            comma, log.click[None, lo:hi].view(np.uint8) + _ZERO, comma,
            log.conversion[None, lo:hi].view(np.uint8) + _ZERO,
            np.full((1, n), ord("\n"), dtype=np.uint8)])
        rows = np.ascontiguousarray(columns.T)
        stream.write(rows[rows != _PAD].tobytes().decode("ascii"))


def _eight_digits(words: np.ndarray) -> np.ndarray:
    """The number each uint64 spells in its 8 bytes of ASCII digits (or
    zero bytes), read little-endian, so its first byte is the most
    significant digit; computed in place, in ``words``."""
    for keep, multiplier, shift in _SWAR_ROUNDS:
        words &= keep
        words *= multiplier
        words >>= shift
    return words


def _integers(words: np.ndarray, end: np.ndarray, width: np.ndarray) -> np.ndarray:
    """The unsigned integers of 1-16 digits that end before ``end`` and are
    ``width`` long, as int64; ``words[i]`` is the 8 bytes from byte i."""
    value = _eight_digits(words[end - 8] & _KEEP_LAST[np.minimum(width, 8)])
    if width.max() > 8:
        high = _eight_digits(words[end - 16] & _KEEP_LAST[np.maximum(width - 8, 0)])
        value += high * _POW10[8]
    return value.view(np.int64)  # below 10**16


def _rates(words: np.ndarray) -> np.ndarray:
    """The rates spelt ``d.dddddd`` by words, each as k / 1e6: a correctly
    rounded quotient of two exact doubles, so the double ``float`` reads."""
    digits = words & _KEEP_LAST[6]
    digits |= (words & _BYTE) << _EIGHT  # "d.dddddd" -> "\0ddddddd"
    return _eight_digits(digits).astype(np.float64) / 1e6


def _writer_layout_rows(buf: np.ndarray, words: np.ndarray, stop: int) -> tuple | None:
    """The columns of the rows in ``buf[_WORD_PAD:stop]``, the last ending in
    a newline, the labels as digits; None if a row is not in the layout
    ``serialize_canonical`` writes for a log of 1-16 digit integers."""
    block = buf[_WORD_PAD:stop]
    end = np.flatnonzero(block == ord("\n")) + _WORD_PAD
    dot = np.flatnonzero(block == ord(".")) + _WORD_PAD
    n = len(end)
    # Eight non-digit bytes a row, and no byte above "9"; the checks below
    # find them all at their offsets, so every other byte is a digit.
    if len(dot) != 2 * n or np.count_nonzero(block < _ZERO) != 8 * n or block.max() > ord("9"):
        return None
    first = dot[::2] - 2  # the comma after ts
    comma = end - 4  # the comma after price
    ts_width = first - np.concatenate(([_WORD_PAD], end[:-1] + 1))
    price_width = comma - first - 19
    if not ((ts_width >= 1).all() and (ts_width <= 16).all()
            and (price_width >= 1).all() and (price_width <= 16).all()
            and np.array_equal(dot[1::2], first + 11)
            and all((buf[at] == ord(",")).all()
                    for at in (first, first + 9, first + 18, comma, end - 2))):
        return None
    return (_integers(words, first, ts_width), _rates(words[first + 1]), _rates(words[first + 10]),
            _integers(words, comma, price_width), buf[end - 3] - _ZERO, buf[end - 1] - _ZERO)


@dataclass(frozen=True)
class ColumnMap:
    """0-based column indices locating canonical fields in a raw log.

    Prediction columns must be produced offline and joined into the raw
    file before conversion; there is no default layout.
    """

    ts: int
    pctr: int
    pcvr: int
    market_price: int
    click: int
    conversion: int

    def __post_init__(self) -> None:
        for name in _CANONICAL_FIELDS:
            idx = getattr(self, name)
            if not isinstance(idx, int) or idx < 0:
                raise ConfigurationError(f"column index for {name!r} must be a nonnegative int, got {idx!r}")

    @property
    def max_index(self) -> int:
        return max(getattr(self, name) for name in _CANONICAL_FIELDS)


def convert_ipinyou(stream: Iterable[str], columns: ColumnMap,
                    delimiter: str = "\t", has_header: bool = False) -> Iterator[str]:
    """Re-map a raw delimited log (iPinYou-style) into canonical lines.

    Field text is passed through verbatim after validation, so an identity
    map over already-canonical input reproduces it byte for byte.  Yields
    the canonical header first; yielded lines include the newline.
    """
    yield CANONICAL_HEADER + "\n"
    last_ts: int | None = None
    start = 2 if has_header else 1
    lines = iter(stream)
    if has_header:
        next(lines, None)
    for line_no, line in enumerate(lines, start=start):
        stripped = line.rstrip("\r\n")
        if not stripped:
            continue
        raw = stripped.split(delimiter)
        if len(raw) <= columns.max_index:
            raise MalformedRow(line_no, f"row has {len(raw)} fields, column map needs {columns.max_index + 1}")
        fields = [raw[getattr(columns, name)] for name in _CANONICAL_FIELDS]
        last_ts = _parse_row(fields, line_no, last_ts)[0]  # validation only
        yield ",".join(fields) + "\n"


@dataclass(frozen=True)
class SynthConfig:
    """Parameters for the seeded synthetic bid-log generator.

    Market prices are log-normal (rounded to integer fen); labels are
    Bernoulli with conversion gated on click; predictions are the true
    rates under multiplicative Gaussian noise, clamped to (1e-6, 1] and
    rounded to the canonical 6 fraction digits.
    """

    n_records: int = 10_000
    ctr_true: float = 0.05
    cvr_true: float = 0.2
    price_log_mean: float = 4.0
    price_log_sigma: float = 0.8
    pctr_noise: float = 0.1
    pcvr_noise: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_records < 0:
            raise ConfigurationError("n_records must be >= 0")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        for name in ("ctr_true", "cvr_true"):
            p = getattr(self, name)
            if not (0.0 < p < 1.0):
                raise ConfigurationError(f"{name} must lie in (0, 1), got {p}")
        if not 0 <= self.price_log_sigma < math.inf:
            raise ConfigurationError(f"price_log_sigma must be >= 0 and finite, "
                                     f"got {self.price_log_sigma}")
        for name in ("price_log_mean", "pctr_noise", "pcvr_noise"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)}")


def _first(bad: np.ndarray) -> int | None:
    """The index of the first true element of ``bad``, or None."""
    return int(np.argmax(bad)) if bad.any() else None


def _int64_column(name: str, values, column: np.ndarray) -> np.ndarray:
    """``column``, the array numpy made of ``values``, as int64.  An
    integer-typed column whose values fit is cast, an int64 one taken as it
    is.  Any other is read value by value, to name the first value that is
    not an integer within int64: ``values`` itself unless it is an array,
    since numpy makes floats of ``[-1, 2**63]``."""
    if column.dtype.kind in "iu" and not (column.dtype == np.uint64
                                          and column.max(initial=0) > _INT64.max):
        return np.asarray(column, dtype=np.int64, order="C")
    items = column if isinstance(values, np.ndarray) else values
    for row, value in enumerate(items):
        if not (isinstance(value, (int, np.integer)) and _INT64.min <= value <= _INT64.max):
            raise ConfigurationError(f"timestamps and market prices must be integers that fit "
                                     f"in int64, got {name}={value} at row {row}")
    return np.asarray(items, dtype=np.int64)


class BidLog:
    """Column-oriented bid log: one numpy array per canonical field.

    :meth:`segment` returns a log of slices that share memory with the
    original, so an edit to either shows in both; :meth:`filter` returns a
    copy that shares none.
    """

    __slots__ = ("ts", "pctr", "pcvr", "market_price", "click", "conversion")

    def __init__(self, ts, pctr, pcvr, market_price, click, conversion):
        # Every rule of a log, column-wise; _parse_row states them per row.
        columns = [np.asarray(c) for c in (ts, pctr, pcvr, market_price, click, conversion)]
        shapes = [c.shape for c in columns]
        if len(shapes[0]) != 1 or len(set(shapes)) != 1:
            raise ConfigurationError(f"a log needs six 1-D columns of one length, not {shapes}")
        self.ts = _int64_column("ts", ts, columns[0])
        self.pctr, self.pcvr = (np.asarray(c, np.float64, order="C") for c in columns[1:3])
        self.market_price = _int64_column("market_price", market_price, columns[3])
        click, conversion = columns[4:]  # checked before the cast
        for name, column in (("pctr", self.pctr), ("pcvr", self.pcvr)):
            if (row := _first(~((column >= 0.0) & (column <= 1.0)))) is not None:  # NaN fails both
                raise ConfigurationError(f"predictions must lie in [0, 1], got "
                                         f"{name}={column[row]} at row {row}")
        for name, column in (("click", click), ("conversion", conversion)):
            if (row := _first((column != 0) & (column != 1))) is not None:
                raise ConfigurationError(f"labels must be 0 or 1, got {name}={column[row]} "
                                         f"at row {row}")
        self.click, self.conversion = (np.asarray(c, bool, order="C") for c in (click, conversion))
        if (row := _first(self.conversion & ~self.click)) is not None:
            raise ConfigurationError(f"conversion without click at row {row}")
        # The replay relies on all three: wall-clock periods search sorted timestamps,
        # cumulative cost never decreases within a batch, and its int64 sum cannot wrap.
        if (row := _first(self.ts[1:] < self.ts[:-1])) is not None:
            raise ConfigurationError(f"timestamps must not decrease, got ts={self.ts[row + 1]} "
                                     f"after {self.ts[row]} at row {row + 1}")
        if (row := _first(self.market_price < 0)) is not None:
            raise ConfigurationError(f"market prices must be >= 0, got {self.market_price[row]} "
                                     f"at row {row}")
        n = len(self.market_price)
        top = int(self.market_price.max()) if n else 0
        if top * n > _INT64.max:
            raise ConfigurationError(f"market prices could total more than 2**63 - 1: "
                                     f"{n} rows, the largest {top}")

    @classmethod
    def _of(cls, *columns) -> "BidLog":
        """A log of columns taken from a log, so already typed and checked."""
        log = object.__new__(cls)
        log.ts, log.pctr, log.pcvr, log.market_price, log.click, log.conversion = columns
        return log

    def __len__(self) -> int:
        return self.ts.shape[0]

    def segment(self, lo: int, hi: int) -> "BidLog":
        return BidLog._of(self.ts[lo:hi], self.pctr[lo:hi], self.pcvr[lo:hi],
                          self.market_price[lo:hi], self.click[lo:hi], self.conversion[lo:hi])

    def filter(self, mask: np.ndarray) -> "BidLog":
        """The rows selected by a boolean mask of length ``len(self)``, or by
        an ascending array of row indices, as a copy in log order."""
        return BidLog._of(self.ts[mask], self.pctr[mask], self.pcvr[mask],
                          self.market_price[mask], self.click[mask], self.conversion[mask])

    @classmethod
    def from_records(cls, rows: Iterable[tuple]) -> "BidLog":
        """A log of ``(ts, pctr, pcvr, market_price, click, conversion)`` rows."""
        return cls(*(list(zip(*rows)) or [()] * 6))

    @classmethod
    def from_csv(cls, path) -> "BidLog":
        """Read a canonical log file.  Rows in the layout
        :func:`serialize_canonical` writes are read block-wise by byte
        arithmetic, the rest of the file from the first block that leaves
        that layout by numpy's reader, and the columns make one ``BidLog``.
        A file numpy's reader rejects, or whose log ``BidLog`` refuses, is
        re-read by :func:`parse_canonical`, whose verdict (the log, or the
        first bad row's ``LogFormatError``) is returned."""
        head, whole = cls._read_writer_layout(path)
        columns = head if whole else cls._read_columns(path, head)
        if columns is not None:
            with contextlib.suppress(ConfigurationError):
                return cls(*columns)
        # surrogateescape: a byte that is not UTF-8 fails the field check of its line
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            return cls.from_records(parse_canonical(fh))

    @classmethod
    def _read_writer_layout(cls, path) -> tuple[list, bool]:
        """The columns of the rows that start ``path`` in the exact layout of
        :func:`serialize_canonical`, its integers unsigned and of 1-16
        digits, the labels as digits, and whether they are all of its rows.

        Each block read is cut after its last newline, and the rest carried
        into the next, so the memory is the columns plus one block.  A row's
        eight non-digit bytes must sit at their fixed offsets, and every
        other byte must be a digit; each field is then decoded from the
        little-endian 8-byte words that end it.  Reading stops at the first
        block with a row out of that layout, and none of its rows is kept."""
        header = (CANONICAL_HEADER + "\n").encode("ascii")
        buf = np.full(_WORD_PAD + _ROW_BYTES_MAX + _READ_BLOCK_BYTES, _ZERO)
        # words[i] is the unaligned uint64 of buf[i:i + 8]
        words = np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))
        with open(path, "rb") as fh:
            rows_max = max(os.fstat(fh.fileno()).st_size - len(header), 0) // _ROW_BYTES_MIN
            columns = [np.empty(0, dtype) for dtype in _COLUMN_DTYPES]
            n = carry = 0
            whole = fh.read(len(header)) == header
            while whole and (got := fh.readinto(
                    buf[_WORD_PAD + carry:_WORD_PAD + carry + _READ_BLOCK_BYTES])):
                stop = _WORD_PAD + carry + got
                # a cut row is shorter than _ROW_BYTES_MAX, so a last newline is near the end
                window = max(stop - _ROW_BYTES_MAX, _WORD_PAD)
                newlines = np.flatnonzero(buf[window:stop] == ord("\n"))
                rest = window + newlines[-1] + 1 if len(newlines) else _WORD_PAD
                carry = stop - rest
                if rest > _WORD_PAD:
                    rows = _writer_layout_rows(buf, words, rest)
                    whole = rows is not None and n + len(rows[0]) <= rows_max
                    if not whole:
                        break
                    if n == 0:
                        # Room for the most rows the file could hold; the memory past
                        # the last row read is never touched, and is given back by
                        # resize.  Made only once a block is in the layout: made and
                        # freed before numpy's reader ran, it raised the peak memory
                        # of repeated reads of a 500k-row CRLF log from 71 to 100 MB
                        # (glibc, numpy 2.4).
                        columns = [np.empty(rows_max, dtype) for dtype in _COLUMN_DTYPES]
                    for column, values in zip(columns, rows):
                        column[n:n + len(values)] = values
                    n += len(rows[0])
                whole = carry < _ROW_BYTES_MAX  # a longer cut row is out of the layout
                buf[_WORD_PAD:_WORD_PAD + carry] = buf[rest:stop]
        for column in columns:
            column.resize(n, refcheck=False)  # in place: no view of it was kept
        return columns, whole and not carry  # a carry is a last row with no newline

    @staticmethod
    def _read_columns(path, head: list) -> list | None:
        """The columns of a canonical log parsed column-wise, after the rows
        whose columns ``head`` holds; None if numpy's reader rejects it."""
        # numpy strips whitespace from around a field, and to it the
        # separators \x1c-\x1f and non-ASCII spaces are whitespace too
        with open(path, "rb") as fh:
            if any(sep in chunk for chunk in iter(lambda: fh.read(_SCAN_CHUNK_BYTES), b"")
                   for sep in _SEPARATORS):
                return None
        # Given a path, numpy reads the file in chunks (given a handle, line by
        # line), but it also opens a .gz, .bz2 or .xz file decompressed.  The
        # scan above and the header check below read the raw bytes, which a
        # compressed file fails, so it still gets the streaming parser's error.
        try:  # a byte that is not ASCII raises UnicodeDecodeError, a ValueError
            with open(path, "r", encoding="ascii") as fh:
                if fh.readline().rstrip("\r\n") != CANONICAL_HEADER:
                    return None
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                rows = np.loadtxt(path, delimiter=",", dtype=_CANONICAL_DTYPE, comments=None,
                                  skiprows=1 + len(head[0]), encoding="ascii", ndmin=1)
        except ValueError:
            return None
        columns = [rows[name] for name in _CANONICAL_FIELDS]
        return [np.concatenate(pair) for pair in zip(head, columns)] if len(head[0]) else columns


def generate_synthetic(config: SynthConfig) -> BidLog:
    """Generate a seeded synthetic log; the same config is bit-reproducible."""
    n = config.n_records
    rng = np.random.default_rng(config.seed)
    gaps = rng.integers(1, 100, size=n)
    ts = np.cumsum(gaps, dtype=np.int64)
    price = np.rint(rng.lognormal(config.price_log_mean, config.price_log_sigma, size=n))
    if n and not float(price.max()) * n <= _INT64.max:  # BidLog's rule, before the cast can wrap
        raise ConfigurationError(f"price_log_mean {config.price_log_mean} and price_log_sigma "
                                 f"{config.price_log_sigma} draw market prices that could total "
                                 f"more than 2**63 - 1; lower them")
    price = price.astype(np.int64)
    click = rng.random(n) < config.ctr_true
    conversion = click & (rng.random(n) < config.cvr_true)
    pctr = config.ctr_true * (1.0 + config.pctr_noise * rng.standard_normal(n))
    pcvr = config.cvr_true * (1.0 + config.pcvr_noise * rng.standard_normal(n))
    pctr = np.round(np.clip(pctr, 1e-6, 1.0), 6)
    pcvr = np.round(np.clip(pcvr, 1e-6, 1.0), 6)
    return BidLog(ts, pctr, pcvr, price, click, conversion)
