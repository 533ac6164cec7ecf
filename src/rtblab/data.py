"""Bid-log ingestion, serialization, and synthetic log generation.

The canonical log is a UTF-8 comma-delimited file with header
``ts,pctr,pcvr,market_price,click,conversion``: integer millisecond
timestamps (nondecreasing), probabilities with up to six fraction digits,
integer fen prices, 0/1 labels, each field ASCII with no ``_``
separators.  ``BidLog.from_csv`` reads a log columnar, with numpy's C
reader (given the path, so it reads the file in chunks) and whole-column
checks, so its memory is proportional to the row count;
``parse_canonical`` is the streaming (constant-memory) parser and the
error oracle: it yields each row as a ``(ts, pctr, pcvr, market_price,
click, conversion)`` tuple, and any file the columnar reader does not
accept is re-read by it, which raises the first bad row with its line
number.  ``serialize_canonical`` is the array writer: it writes the bytes
of ``"%d,%.6f,%.6f,%d,%d,%d"`` per row, but formats each chunk of rows as
one byte array by numpy arithmetic.  The replay-facing ``BidLog`` is a
column-oriented view built once per run.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import ConfigurationError

CANONICAL_HEADER = "ts,pctr,pcvr,market_price,click,conversion"
_CANONICAL_FIELDS = CANONICAL_HEADER.split(",")
# Labels are read as integers so that a 2 is rejected rather than cast to True.
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


class BidLog:
    """Column-oriented bid log: one numpy array per canonical field.

    :meth:`segment` returns a log of slices that share memory with the
    original, so an edit to either shows in both; :meth:`filter` returns a
    copy that shares none.
    """

    __slots__ = ("ts", "pctr", "pcvr", "market_price", "click", "conversion")

    def __init__(self, ts, pctr, pcvr, market_price, click, conversion):
        self.ts = np.asarray(ts, dtype=np.int64)
        self.pctr = np.asarray(pctr, dtype=np.float64)
        self.pcvr = np.asarray(pcvr, dtype=np.float64)
        self.market_price = np.asarray(market_price, dtype=np.int64)
        self.click = np.asarray(click, dtype=bool)
        self.conversion = np.asarray(conversion, dtype=bool)
        for name, column in (("pctr", self.pctr), ("pcvr", self.pcvr)):
            outside = ~((column >= 0.0) & (column <= 1.0))  # NaN fails both
            if outside.any():
                row = int(np.argmax(outside))
                raise ConfigurationError(f"predictions must lie in [0, 1], got "
                                         f"{name}={column[row]} at row {row}")
        # The replay relies on both: cumulative cost never decreases within a
        # batch, and its int64 cumulative sum cannot wrap around.
        if np.any(self.market_price < 0):
            raise ConfigurationError("market prices must be >= 0")
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
        """Read a canonical log file; a file the columnar reader rejects is
        re-read by :func:`parse_canonical`, whose verdict (the log, or the
        first bad row's ``LogFormatError``) is returned."""
        log = cls._read_columns(path)
        if log is None:
            # surrogateescape: a byte that is not UTF-8 fails the field check of its line
            with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
                log = cls.from_records(parse_canonical(fh))
        return log

    @classmethod
    def _read_columns(cls, path) -> "BidLog | None":
        """Parse and check a canonical log column-wise; None if any check fails."""
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
                                  skiprows=1, encoding="ascii", ndmin=1)
        except ValueError:
            return None
        ts, pctr, pcvr = rows["ts"], rows["pctr"], rows["pcvr"]
        price, click, conversion = rows["market_price"], rows["click"], rows["conversion"]
        # The predicates of _parse_row, column-wise; NaN fails the range test.
        valid = (np.all((pctr >= 0.0) & (pctr <= 1.0) & (pcvr >= 0.0) & (pcvr <= 1.0))
                 and np.all(price >= 0)
                 and np.all((click == 0) | (click == 1))
                 and np.all((conversion == 0) | (conversion == 1))
                 and np.all(conversion <= click)
                 and np.all(ts[1:] >= ts[:-1]))
        if not valid:
            return None
        return cls(np.ascontiguousarray(ts), np.ascontiguousarray(pctr),
                   np.ascontiguousarray(pcvr), np.ascontiguousarray(price),
                   click.astype(bool), conversion.astype(bool))


def generate_synthetic(config: SynthConfig) -> BidLog:
    """Generate a seeded synthetic log; the same config is bit-reproducible."""
    n = config.n_records
    rng = np.random.default_rng(config.seed)
    gaps = rng.integers(1, 100, size=n)
    ts = np.cumsum(gaps, dtype=np.int64) if n else np.zeros(0, dtype=np.int64)
    price = np.rint(rng.lognormal(config.price_log_mean, config.price_log_sigma, size=n))
    if n and not float(price.max()) * n <= _INT64.max:  # BidLog's rule, before the cast can wrap
        raise ConfigurationError(f"price_log_mean {config.price_log_mean} and price_log_sigma "
                                 f"{config.price_log_sigma} draw market prices that could total "
                                 f"more than 2**63 - 1; lower them")
    price = np.maximum(price, 0).astype(np.int64)
    click = rng.random(n) < config.ctr_true
    conversion = click & (rng.random(n) < config.cvr_true)
    pctr = config.ctr_true * (1.0 + config.pctr_noise * rng.standard_normal(n))
    pcvr = config.cvr_true * (1.0 + config.pcvr_noise * rng.standard_normal(n))
    pctr = np.round(np.clip(pctr, 1e-6, 1.0), 6)
    pcvr = np.round(np.clip(pcvr, 1e-6, 1.0), 6)
    return BidLog(ts, pctr, pcvr, price, click, conversion)
