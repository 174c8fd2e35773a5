"""Time-tag streams: parsing, coincidence histograms, heralded autocorrelation.

Detector clicks are integer multiples of an 81 ps tick.  Channel ids follow
the three-detector convention of a heralded-pair setup: 1 = signal arm A,
2 = idler (herald), 3 = signal arm B.  Analyses are single passes over
time-ordered integer arrays.  A synthetic pulsed-source generator with
losses, dark counts, timing jitter and detector dead time produces streams
with closed-form statistics, which is what the statistical tests lean on.

One quoted loss figure for a two-detector setup is ambiguous (total vs per
channel); rate reporting that depends on it lives in :mod:`.rates` and
surfaces both readings.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from dataclasses import InitVar, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

__all__ = [
    "TICK_SECONDS",
    "TagParseError",
    "TagOrderWarning",
    "TagStream",
    "CoincidenceHistogram",
    "HeraldedG2Histogram",
    "SimulationConfig",
    "parse_tags",
    "write_tags_text",
    "write_tags_binary",
    "coincidence_histogram",
    "peak_and_accidentals",
    "heralded_g2",
    "simulate_tags",
    "write_coincidence_csv",
    "write_coincidence_json",
    "write_g2_csv",
    "write_g2_json",
]

#: Default timing resolution of one tag tick.
TICK_SECONDS = 81e-12

#: The channels a tag stream may hold: a contiguous range, so that one
#: min/max test checks every record against it.
DEFAULT_CHANNELS = frozenset(range(1, 4))
_CHANNEL_LO, _CHANNEL_HI = min(DEFAULT_CHANNELS), max(DEFAULT_CHANNELS)

_BINARY_MAGIC = b"TTAG1"
_BINARY_RECORD = np.dtype([("channel", "u1"), ("ticks", "<u8")])
_INT64_MAX = np.iinfo(np.int64).max
_INT64_MAX_TEXT = str(_INT64_MAX).encode()
# A text field: ASCII digits with an optional minus sign, which is parsed
# only so that a negative value gets its own message.
_INTEGER = re.compile(r"-?[0-9]+")
# Pairs handled per block of coincidence_histogram; bounds its working set.
_PAIR_BLOCK = 1 << 16
# Records formatted per write by the text writers, and packed per write by
# write_tags_binary; bounds their working set.
_TEXT_BLOCK = 1 << 16
# Records compared per step of the order check, and clicks per step of the
# jump table and gap test of _dead_time_filter.
_ORDER_BLOCK = 1 << 16
_DEAD_TIME_BLOCK = 1 << 16
# Uniforms per draw of _poisson_hot: its largest buffer, 2 MB.  At 1 << 16
# the per-draw numpy calls cost about 10% of its time.
_UNIFORM_BLOCK = 1 << 18
# Largest mean pairs per pulse for which simulate_tags rebuilds Poisson counts
# from uniforms (_poisson_hot); above it rng.poisson is faster.
_REBUILD_MAX_MU = 0.3
# Largest accepted mean pairs per pulse.  numpy's Poisson sampler refuses
# means above about 9.2e18; below this bound a thermal pair number stays far
# inside int64, and every detector clicks on every pulse long before it.
_MAX_MEAN_PAIRS = 1e15


class TagParseError(ValueError):
    """Malformed tag input; message carries the line or byte offset."""


class TagOrderWarning(UserWarning):
    """Input records were not time-ordered and have been sorted."""


@dataclass(frozen=True)
class TagStream:
    """Immutable, time-ordered click record.

    ``channels`` and ``timestamps`` are parallel arrays sorted by
    (timestamp, channel); ties are broken by channel id.  ``duration_ticks``
    is the length of the acquisition; left as None it becomes the observed
    span, last minus first timestamp plus one tick (0 for no records).

    A stream holds 9 bytes per record: ``uint8`` channels and ``int64``
    timestamps.  Arrays of those types are kept as given, and checking them
    adds only ``_ORDER_BLOCK``-sized temporaries; other arrays are converted.
    ``_ordered`` is for callers that have just checked the order themselves
    (:func:`parse_tags`); it skips the order check.
    """

    channels: np.ndarray
    timestamps: np.ndarray
    tick_duration: float = TICK_SECONDS
    duration_ticks: Optional[int] = None
    _ordered: InitVar[bool] = False

    def __post_init__(self, _ordered):
        ch = np.asarray(self.channels)
        if ch.dtype != np.uint8:
            ch = _exact_int64(ch, "channels")
        ts = _exact_int64(self.timestamps, "timestamps")
        if ch.shape != ts.shape or ch.ndim != 1:
            raise ValueError("channels and timestamps must be parallel 1-D arrays")
        if not self.tick_duration > 0:
            raise ValueError("tick_duration must be positive")
        if ts.size:
            unknown = _first_unknown_channel(ch)
            if unknown is not None:
                raise ValueError(
                    f"channel {ch[unknown]} not in declared set {sorted(DEFAULT_CHANNELS)}")
            if ts.min() < 0:
                raise ValueError("timestamps must be non-negative")
            back, ties = (0, 0) if _ordered else _disorder(ch, ts)
            if back:
                raise ValueError("timestamps must be non-decreasing")
            if ties:
                raise ValueError("equal timestamps must be ordered by channel")
        if self.duration_ticks is None:
            # in Python ints: in int64 the span can wrap
            span = int(ts[-1]) - int(ts[0]) + 1 if ts.size else 0
            object.__setattr__(self, "duration_ticks", span)
        object.__setattr__(self, "channels", ch.astype(np.uint8, copy=False))
        object.__setattr__(self, "timestamps", ts)

    def __len__(self) -> int:
        return int(self.timestamps.size)

    def channel_timestamps(self, channel: int) -> np.ndarray:
        """Sorted tick timestamps of one channel."""
        return self.timestamps[self.channels == channel]


def _exact_int64(values, name: str) -> np.ndarray:
    """``values`` as an int64 array; ValueError naming the first value that the conversion changes."""
    values = np.asarray(values)
    if values.dtype == np.int64:
        return values
    with np.errstate(invalid="ignore"):  # NaN and inf convert to garbage, caught below
        out = values.astype(np.int64, copy=False)
    changed = (out != values) | (values.dtype == bool)
    if changed.any():
        raise ValueError(f"{name} must be whole numbers in the int64 range, "
                         f"got {values.flat[np.argmax(changed)].item()!r}")
    return out


def _first_unknown_channel(ch: np.ndarray) -> Optional[int]:
    """Index of the first channel outside DEFAULT_CHANNELS, or None if all are in it.

    One min/max test clears the usual stream; ``np.isin`` runs only to find
    the first unknown channel.
    """
    if not ch.size or (ch.min() >= _CHANNEL_LO and ch.max() <= _CHANNEL_HI):
        return None
    return int(np.argmax(~np.isin(ch, list(DEFAULT_CHANNELS))))


def _disorder(ch: np.ndarray, ts: np.ndarray):
    """Counts of the records that break the (timestamp, channel) order: those
    earlier than the record before them, and those at its timestamp with a
    lower channel.  Compares ``_ORDER_BLOCK`` records at a time."""
    back = ties = 0
    for lo in range(1, ts.size, _ORDER_BLOCK):
        hi = min(lo + _ORDER_BLOCK, ts.size)
        t, before = ts[lo:hi], ts[lo - 1:hi - 1]
        back += int(np.count_nonzero(t < before))
        ties += int(np.count_nonzero((t == before) & (ch[lo:hi] < ch[lo - 1:hi - 1])))
    return back, ties


# ---------------------------------------------------------------------------
# parsing / serialization

def parse_tags(source) -> TagStream:
    """Parse a tag stream from a path (str/Path) or raw bytes.

    Binary payloads are recognized by the ``TTAG1`` magic; everything else is
    treated as UTF-8 text with lines ``channel<TAB>ticks``, ``#`` comments and
    an optional ``#tick_ps <int>`` header; a comment whose first word is
    ``tick_ps`` must be that header.  Out-of-order records are sorted, and
    a :class:`TagOrderWarning` gives their count.  The stream's
    ``duration_ticks`` is the observed span.
    """
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
    else:
        data = bytes(source)
    if data.startswith(_BINARY_MAGIC):
        ch, ts, tick = _parse_binary(data)
    else:
        ch, ts, tick = _parse_plain(data) or _parse_lines(data)
    out_of_order = sum(_disorder(ch, ts))
    if out_of_order:
        warnings.warn(f"{out_of_order} out-of-order records sorted", TagOrderWarning)
        order = np.lexsort((ch, ts))
        ch, ts = ch[order], ts[order]
    return TagStream(ch, ts, tick, _ordered=True)


def _parse_plain(data: bytes):
    """Fast path for a body of plain ``channel<TAB>ticks`` lines after the
    leading comment lines, through ``np.fromstring`` on a view of the body;
    the comment lines go through the line loop.  Returns None for any other
    input and for any fault, which the line loop then reports with its line
    number."""
    head_end = 0
    while data.startswith(b"#", head_end) and (nl := data.find(b"\n", head_end)) >= 0:
        head_end = nl + 1
    if not _is_plain_body(data, head_end):
        return None
    head_ch, _, tick = _parse_lines(data[:head_end])
    # fromstring refuses a memoryview but takes an array: a view, not a copy, of the body
    body = np.frombuffer(data, dtype=np.uint8, offset=head_end)
    values = np.fromstring(body, dtype=np.int64, sep=" ")
    if head_ch.size or values.size != 2 * data.count(b"\n", head_end):  # an empty field
        return None
    # fromstring saturates a field of 2**63 or more to 2**63 - 1
    saturated = np.flatnonzero(values == _INT64_MAX)
    if saturated.size:
        tokens = data[head_end:].split()
        if any(tokens[i].lstrip(b"0") != _INT64_MAX_TEXT for i in saturated.tolist()):
            return None
    fields = values.reshape(-1, 2)
    if _first_unknown_channel(fields[:, 0]) is not None:
        return None
    return fields[:, 0].astype(np.uint8), fields[:, 1].copy(), tick


def _is_plain_body(data: bytes, start: int = 0) -> bool:
    """Whether ``data[start:]`` is lines of ``[0-9]*\\t[0-9]*\\n``: it ends in a
    newline and with the digits removed only tab-newline pairs remain."""
    digits = b"0123456789"
    skeleton = data.translate(None, digits)
    head = len(data[:start].translate(None, digits))
    rest = len(skeleton) - head
    return (len(data) > start and data.endswith(b"\n") and rest % 2 == 0
            and skeleton.startswith(b"\t\n" * (rest // 2), head))


def _parse_lines(data: bytes):
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise TagParseError(f"byte {err.start}: not UTF-8 text and not a TTAG1 payload") from None
    tick = None
    chs, ts = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line[1:].split()[:1] == ["tick_ps"]:
                m = re.fullmatch(r"#\s*tick_ps\s+([0-9]+)", line)
                if not m:
                    raise TagParseError(
                        f"line {lineno}: tick_ps takes one bare positive integer, got {raw!r}")
                declared = float(m.group(1)) * 1e-12
                if not 0.0 < declared < math.inf:
                    raise TagParseError(f"line {lineno}: tick_ps must be positive and finite")
                if tick is not None and declared != tick:
                    raise TagParseError(f"line {lineno}: conflicting tick_ps declaration")
                tick = declared
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise TagParseError(f"line {lineno}: expected 'channel<TAB>ticks', got {raw!r}")
        if not (_INTEGER.fullmatch(parts[0]) and _INTEGER.fullmatch(parts[1])):
            raise TagParseError(
                f"line {lineno}: non-integer field in {raw!r} (fields are ASCII digits)")
        try:
            chan, t = int(parts[0]), int(parts[1])
        except ValueError:  # more digits than int() converts
            raise TagParseError(f"line {lineno}: integer field out of range in {raw!r}") from None
        if chan not in DEFAULT_CHANNELS:
            raise TagParseError(
                f"line {lineno}: unknown channel {chan} (declared {sorted(DEFAULT_CHANNELS)})")
        if t < 0:
            raise TagParseError(f"line {lineno}: negative timestamp {t}")
        if t > _INT64_MAX:
            raise TagParseError(f"line {lineno}: timestamp overflows signed 64-bit ticks")
        chs.append(chan)
        ts.append(t)
    return (np.asarray(chs, dtype=np.int64), np.asarray(ts, dtype=np.int64),
            TICK_SECONDS if tick is None else tick)


def _parse_binary(data: bytes):
    header = len(_BINARY_MAGIC) + 4
    if len(data) < header:
        raise TagParseError(f"byte {len(data)}: truncated binary header")
    tick_fs = int.from_bytes(data[len(_BINARY_MAGIC):header], "little")
    if tick_fs == 0:
        raise TagParseError("byte 5: tick duration must be positive")
    body = data[header:]
    if len(body) % 9:
        raise TagParseError(f"byte {header + 9 * (len(body) // 9)}: truncated 9-byte record")
    rec = np.frombuffer(body, dtype=_BINARY_RECORD)
    ch = rec["channel"].copy()  # a stream holding a view would keep the file's bytes alive
    raw_ts = rec["ticks"]
    i = _first_unknown_channel(ch)
    if i is not None:
        raise TagParseError(
            f"byte {header + 9 * i}: unknown channel {ch[i]} (declared {sorted(DEFAULT_CHANNELS)})")
    too_big = raw_ts > np.uint64(_INT64_MAX)
    if too_big.any():
        i = int(np.argmax(too_big))
        raise TagParseError(f"byte {header + 9 * i}: timestamp overflows signed 64-bit ticks")
    return ch, raw_ts.astype(np.int64), tick_fs * 1e-15


def _int_text(columns, seps: bytes) -> bytes:
    """Rows of parallel integer columns as text: each value in shortest
    decimal, ``-`` only before a negative one, and followed by its column's
    byte of ``seps``."""
    columns = [np.asarray(column, dtype=np.int64) for column in columns]
    negs = [column < 0 for column in columns]
    mags = [np.abs(column).view(np.uint64) for column in columns]  # |-2**63| wraps to 2**63
    signed = [int(neg.any()) for neg in negs]  # a '-' column only where needed
    widths = [len(str(int(mag.max()))) if mag.size else 1 for mag in mags]
    out = np.empty((len(columns[0]), sum(signed) + sum(widths) + len(columns)), dtype=np.uint8)
    at = 0
    for neg, rest, sign, width, sep in zip(negs, mags, signed, widths, seps):
        if sign:
            out[:, at] = np.where(neg, ord("-"), 0)
        at += sign + width
        # digits right-aligned by repeated //10; a 0 byte in place of each
        # leading zero, so a value of 0 keeps its units digit
        for col in range(at - 1, at - 1 - width, -1):
            quot = rest // np.uint64(10)
            digit = (rest - quot * np.uint64(10)).astype(np.uint8) + np.uint8(ord("0"))
            if col < at - 1:
                digit[rest == 0] = 0
            out[:, col] = digit
            rest = quot
        out[:, at] = sep
        at += 1
    return out.tobytes().translate(None, b"\0")


def _whole_tick(tick: float, per_second: float, unit: str, below=math.inf) -> int:
    """``tick`` s as the whole, positive number of ``unit`` below ``below`` that a tag
    file stores; ValueError naming the tick if it is not one within 1e-9 relative."""
    units = tick * per_second
    whole = round(units) if math.isfinite(units) else 0
    if not (0 < whole < below and abs(units - whole) <= 1e-9 * whole):
        bound = "" if below == math.inf else f" below {below}"
        raise ValueError(f"cannot write tick {tick!r} s: the tag file stores it as a whole, "
                         f"positive number of {unit}{bound}")
    return whole


def write_tags_text(stream: TagStream, path) -> None:
    tick_ps = _whole_tick(stream.tick_duration, 1e12, "ps")
    with open(path, "wb") as f:
        f.write(f"#tick_ps {tick_ps}\n".encode())
        for start in range(0, len(stream), _TEXT_BLOCK):
            block = slice(start, start + _TEXT_BLOCK)
            f.write(_int_text((stream.channels[block], stream.timestamps[block]), b"\t\n"))


def write_tags_binary(stream: TagStream, path) -> None:
    """The ``TTAG1`` header, then the 9-byte records packed ``_TEXT_BLOCK`` at a time."""
    tick_fs = _whole_tick(stream.tick_duration, 1e15, "fs", 2**32)
    rec = np.empty(min(len(stream), _TEXT_BLOCK), dtype=_BINARY_RECORD)
    with open(path, "wb") as f:
        f.write(_BINARY_MAGIC + tick_fs.to_bytes(4, "little"))
        for start in range(0, len(stream), _TEXT_BLOCK):
            packed = rec[:len(stream) - start]
            packed["channel"] = stream.channels[start:start + packed.size]
            packed["ticks"] = stream.timestamps[start:start + packed.size]
            f.write(packed.view(np.uint8))


# ---------------------------------------------------------------------------
# coincidence analysis

@dataclass(frozen=True)
class CoincidenceHistogram:
    """Delay histogram between two channels, bins centred on k * bin_width.

    Bin k covers delays in [k*bin_width - bin_width/2, k*bin_width +
    bin_width/2); delays run over [-delay_range, delay_range].
    """

    bin_width: int  # ticks
    delay_range: int  # ticks
    counts: np.ndarray  # int64, 2*(delay_range//bin_width) + 1 bins
    tick_duration: float
    duration_ticks: int
    ch_a: int
    ch_b: int
    n_ch_a: int
    n_ch_b: int

    def __post_init__(self):
        if self.bin_width < 1:
            raise ValueError("bin_width must be at least one tick")
        counts = np.asarray(self.counts, dtype=np.int64)
        expected = 2 * (self.delay_range // self.bin_width) + 1
        if counts.shape != (expected,):
            raise ValueError(f"expected {expected} bins, got {counts.shape}")
        if counts.min(initial=0) < 0:
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "counts", counts)

    @property
    def delay_centers(self) -> np.ndarray:
        half = self.delay_range // self.bin_width
        return np.arange(-half, half + 1, dtype=np.int64) * self.bin_width


def _check_channels(**channels) -> None:
    """Reject analysis channels outside the declared set {1, 2, 3}."""
    for name, channel in channels.items():
        if channel not in DEFAULT_CHANNELS:
            raise ValueError(f"{name} {channel!r} not in declared set {sorted(DEFAULT_CHANNELS)}")


def coincidence_histogram(stream: TagStream, ch_a: int = 1, ch_b: int = 2, *,
                          bin_width: int, delay_range: int) -> CoincidenceHistogram:
    """Histogram of delays t_b - t_a over all cross-channel pairs in range.

    Every (a, b) pair with |t_b - t_a| <= delay_range contributes once; when
    ch_a == ch_b the self-pairing of a record with itself is excluded.
    ``2 * delay_range + bin_width`` must fit in int64, so that no delay or
    search bound wraps.  Cost is O(tags + pairs in range).  Pairs are binned
    over blocks of channel-b tags holding at most ``_PAIR_BLOCK`` pairs each
    (a block is never less than one tag), so the working set beyond the
    per-tag arrays is O(block + bins) however many pairs fall in range.
    """
    _check_channels(ch_a=ch_a, ch_b=ch_b)
    if bin_width < 1:
        raise ValueError("bin_width must be at least one tick")
    if delay_range < 0 or delay_range % bin_width:
        raise ValueError("delay_range must be a non-negative multiple of bin_width")
    if 2 * delay_range + bin_width > _INT64_MAX:
        raise ValueError(f"2 * delay_range + bin_width must be at most 2**63 - 1 ticks "
                         f"(delay_range {delay_range}, bin_width {bin_width})")
    ta = stream.channel_timestamps(ch_a)
    tb = stream.channel_timestamps(ch_b)
    half = delay_range // bin_width
    try:
        counts = np.zeros(2 * half + 1, dtype=np.int64)
    except (MemoryError, ValueError):  # numpy raises ValueError beyond the address space
        raise ValueError(f"cannot allocate {2 * half + 1} histogram bins "
                         f"(delay_range {delay_range} / bin_width {bin_width} ticks)") from None
    if ta.size and tb.size:
        # the per_b[j] channel-a tags within reach of tb[j] start at ta[lo[j]]; in
        # the list of all pairs, ordered by b, pair p of tb[j] is with ta[p - shift[j]]
        lo = np.searchsorted(ta, tb - delay_range, side="left")
        # ticks are non-negative, so as uint64 the upper bound cannot wrap
        per_b = np.searchsorted(ta.view(np.uint64), tb.view(np.uint64) + np.uint64(delay_range),
                                side="right") - lo
        pairs_through = np.cumsum(per_b)
        shift = pairs_through - per_b - lo
        j0 = 0
        while j0 < tb.size:
            done = int(pairs_through[j0 - 1]) if j0 else 0
            j1 = max(int(np.searchsorted(pairs_through, done + _PAIR_BLOCK, side="right")), j0 + 1)
            per = per_b[j0:j1]
            a_idx = np.arange(done, int(pairs_through[j1 - 1])) - np.repeat(shift[j0:j1], per)
            delays = np.repeat(tb[j0:j1], per) - ta[a_idx]
            if ch_a == ch_b:  # a record does not pair with itself
                delays = delays[a_idx != np.repeat(np.arange(j0, j1), per)]
            # round-half-up binning keeps bin k centred on k*bin_width
            k = np.floor_divide(delays + bin_width // 2, bin_width)
            counts += np.bincount(k + half, minlength=counts.size)
            j0 = j1
    return CoincidenceHistogram(
        bin_width=int(bin_width), delay_range=int(delay_range), counts=counts,
        tick_duration=stream.tick_duration, duration_ticks=stream.duration_ticks,
        ch_a=int(ch_a), ch_b=int(ch_b), n_ch_a=int(ta.size), n_ch_b=int(tb.size),
    )


def _check_car_window(rep_period: float, window: int) -> None:
    if window < 1:
        raise ValueError("window must be at least one tick")
    if not rep_period > 0:
        raise ValueError("rep_period must be positive")


def peak_and_accidentals(hist: CoincidenceHistogram, rep_period: float, window: int) -> dict:
    """Zero-delay peak rate vs the accidental floor sampled one and two pulse
    periods away.

    ``peak`` sums counts in bins within +-window/2 of zero delay; the
    accidental estimate is the mean of the same window centred on -2, -1, +1
    and +2 rep periods (rounded to the nearest tick).  Rates are counts per
    second of acquisition; CAR is their ratio (inf when no accidentals).
    """
    _check_car_window(rep_period, window)
    centers = hist.delay_centers

    def window_counts(center: int) -> int:
        return int(hist.counts[np.abs(centers - center) <= window / 2].sum())

    peak = window_counts(0)
    accidental = float(np.mean([window_counts(round(m * rep_period)) for m in (-2, -1, 1, 2)]))
    duration_s = hist.duration_ticks * hist.tick_duration
    if not duration_s > 0:
        raise ValueError("histogram carries no acquisition duration")
    return {
        "peak_rate": peak / duration_s,
        "accidental_rate": accidental / duration_s,
        "CAR": math.inf if accidental == 0 else peak / accidental,
    }


# ---------------------------------------------------------------------------
# heralded autocorrelation

@dataclass(frozen=True)
class HeraldedG2Histogram:
    """g2_h versus herald separation m, with the raw counts retained.

    ``triples[m]`` is sum_i A_i * B_{i+m} over heralds i; the normalization
    g2_h(m) = triples[m] * n_heralds / (singles_a * singles_b) follows, so
    uncertainty estimates can be rebuilt from the stored counts.
    """

    separations: np.ndarray  # m = 0..m_max
    g2: np.ndarray
    triples: np.ndarray
    n_heralds: int
    singles_a: int
    singles_b: int
    window: int  # ticks
    herald_ch: int = 2
    ch_a: int = 1
    ch_b: int = 3

    def __post_init__(self):
        m = np.asarray(self.separations, dtype=np.int64)
        g2 = np.asarray(self.g2, dtype=float)
        triples = np.asarray(self.triples, dtype=np.int64)
        if not (m.shape == g2.shape == triples.shape):
            raise ValueError("separations, g2 and triples must be parallel arrays")
        if g2.size and g2.min() < 0:
            raise ValueError("g2 values must be non-negative")
        object.__setattr__(self, "separations", m)
        object.__setattr__(self, "g2", g2)
        object.__setattr__(self, "triples", triples)

    @property
    def zero_separation(self) -> float:
        return float(self.g2[0])


def heralded_g2(stream: TagStream, herald_ch: int = 2, ch_a: int = 1, ch_b: int = 3, *,
                window: int = 10, m_max: int = 10) -> HeraldedG2Histogram:
    """Heralded autocorrelation versus the number of heralds between clicks.

    For each herald i, A_i (B_i) flags a ch_a (ch_b) click inside the window
    [t_i - window//2, t_i - window//2 + window); the default 10-tick window is
    one 810 ps histogram bar, and the window is at most 2**63 - 1 ticks.
    g2_h(m) = sum_i A_i B_{i+m} * H / (sum A sum B) for m = 0..m_max (clamped
    to H-1).
    """
    _check_channels(herald_ch=herald_ch, ch_a=ch_a, ch_b=ch_b)
    if window < 1:
        raise ValueError("window must be at least one tick")
    if window > _INT64_MAX:
        raise ValueError("window must be at most 2**63 - 1 ticks")
    if m_max < 0:
        raise ValueError("m_max must be non-negative")
    th = stream.channel_timestamps(herald_ch)
    if th.size == 0:
        raise ValueError("no herald events; g2_h normalization undefined")
    shift = window // 2
    # ticks are non-negative, so as uint64 the window's end cannot wrap
    end = th.view(np.uint64) + np.uint64(window - shift)

    def click_flags(channel: int) -> np.ndarray:
        t = stream.channel_timestamps(channel)
        lo = np.searchsorted(t, th - shift, side="left")
        hi = np.searchsorted(t.view(np.uint64), end, side="left")
        return (hi > lo).astype(np.int64)

    a = click_flags(ch_a)
    b = click_flags(ch_b)
    n_heralds = int(th.size)
    singles_a = int(a.sum())
    singles_b = int(b.sum())
    if singles_a == 0 or singles_b == 0:
        raise ValueError("zero heralded singles in one arm; g2_h normalization undefined")
    m_hi = min(m_max, n_heralds - 1)
    separations = np.arange(m_hi + 1, dtype=np.int64)
    triples = np.array([int(a[: n_heralds - m] @ b[m:]) for m in separations], dtype=np.int64)
    g2 = triples * n_heralds / (singles_a * singles_b)
    return HeraldedG2Histogram(
        separations=separations, g2=g2.astype(float), triples=triples,
        n_heralds=n_heralds, singles_a=singles_a, singles_b=singles_b,
        window=int(window), herald_ch=int(herald_ch), ch_a=int(ch_a), ch_b=int(ch_b),
    )


# ---------------------------------------------------------------------------
# synthetic source

@dataclass(frozen=True)
class SimulationConfig:
    """Pulsed pair source with losses, darks, jitter and detector dead time.

    Per pulse the pair number is Poisson (or thermal) with mean
    ``mean_pairs_per_pulse``; each idler is detected with
    ``herald_transmittance``, each signal survives with
    ``signal_transmittance`` and is routed to arm A with probability
    ``splitter_ratio``.  Clicks of one detector within a pulse collapse to a
    single click (the detector cannot resolve them); dead time is enforced
    per detector afterwards.  Fully reproducible from ``seed``.
    """

    duration: float  # s
    mean_pairs_per_pulse: float
    rep_period: float = 54e-9  # s
    herald_transmittance: float = 0.1
    signal_transmittance: float = 0.4
    splitter_ratio: float = 0.47  # fraction of surviving signals to arm A
    dark_rates: tuple = (0.0, 0.0, 0.0)  # Hz for channels (1, 2, 3)
    dead_time: float = 15e-6  # s per detector
    jitter_std: float = 0.0  # s
    pair_statistics: str = "poisson"  # or "thermal"
    seed: int = 0
    tick_duration: float = TICK_SECONDS

    def __post_init__(self):
        if not self.duration >= 0:
            raise ValueError("duration must be non-negative")
        if not self.rep_period > 0:
            raise ValueError("rep_period must be positive")
        if not self.mean_pairs_per_pulse >= 0:
            raise ValueError("mean_pairs_per_pulse must be non-negative")
        if not self.mean_pairs_per_pulse <= _MAX_MEAN_PAIRS:
            raise ValueError(
                f"mean_pairs_per_pulse must be at most {_MAX_MEAN_PAIRS:g}, "
                f"got {self.mean_pairs_per_pulse!r}"
            )
        for name in ("herald_transmittance", "signal_transmittance", "splitter_ratio"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability in [0, 1]")
        if len(self.dark_rates) != 3 or any(r < 0 for r in self.dark_rates):
            raise ValueError("dark_rates must be three non-negative rates (Hz)")
        if not (self.dead_time >= 0 and self.jitter_std >= 0):
            raise ValueError("dead_time and jitter_std must be non-negative")
        if self.pair_statistics not in ("poisson", "thermal"):
            raise ValueError("pair_statistics must be 'poisson' or 'thermal'")
        if not self.tick_duration > 0:
            raise ValueError("tick_duration must be positive")
        # the stream's duration_ticks is ceil(duration / tick_duration), an int64
        if not self.duration / self.tick_duration <= _INT64_MAX:
            raise ValueError(
                f"duration must be at most (2**63 - 1) ticks of {self.tick_duration!r} s "
                f"({_INT64_MAX * self.tick_duration:.4g} s), the int64 tick range"
            )
        # a tagger cannot resolve faster pulses; this also bounds n_pulses by
        # the duration in ticks
        if not self.rep_period >= self.tick_duration:
            raise ValueError(
                f"rep_period ({self.rep_period!r} s) must be at least "
                f"tick_duration ({self.tick_duration!r} s)"
            )

    @property
    def n_pulses(self) -> int:
        return int(round(self.duration / self.rep_period))


def _poisson_hot(rng: np.random.Generator, mu: float, count: int):
    """Indices and pair counts of the non-empty pulses among ``count``
    Poisson(mu) pulses, drawn exactly as ``rng.poisson(mu, count)`` draws them.

    Below 10 numpy's sampler is the multiplication method: per pulse it
    multiplies uniforms, 1.0·U₁·U₂·… (the doubles ``rng.random`` returns),
    until the product is at most e^−mu, and the count is the number of
    factors before the last.  So a uniform at most e^−mu always closes a
    pulse, and only runs of higher uniforms need products; they are resolved
    one element of every run per round.  Each pending pulse needs at least one
    more uniform, so a batch of at most ``count − done`` uniforms never draws
    past the last pulse, and a pulse left open at the end of a batch carries
    its product and count into the next.  Batches hold at most
    ``_UNIFORM_BLOCK`` uniforms, drawn into one reused buffer, and the
    generator ends where ``rng.poisson`` leaves it.  Above
    ``_REBUILD_MAX_MU`` the runs grow long and ``rng.poisson`` itself is
    faster; mu = 0 draws nothing.
    """
    if not 0 < mu <= _REBUILD_MAX_MU:
        pairs = rng.poisson(mu, count)
        hot = np.flatnonzero(pairs)
        return hot, pairs[hot]
    floor = math.exp(-mu)  # libm, as in numpy's C sampler
    done = 0  # pulses closed so far
    open_prod, open_n = 1.0, 0  # product and count of the pulse left open
    index, counts = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    uniforms = np.empty(min(count, _UNIFORM_BLOCK))
    while done < count:
        u = rng.random(out=uniforms[:count - done])
        high = np.flatnonzero(u > floor)
        grows = _grows_pulse(u, high, floor, open_prod if open_n else 1.0)
        closed = u.size - int(np.count_nonzero(grows))
        # positions whose uniform grows the open pulse; the carried pulse's
        # earlier factors sit just before the batch
        grow = np.concatenate((np.arange(-open_n, 0), high[grows]))
        if grow.size:
            last = np.append(np.flatnonzero(np.diff(grow) != 1), grow.size - 1)
            first = np.concatenate(([0], last[:-1] + 1))
            end = grow[last]
            n_pairs = last - first + 1
            # the pulse closed at end + 1 follows done pulses and the
            # batch's closing uniforms before it
            pulse = done + open_n + end - last
            if end[-1] == u.size - 1:
                start = int(grow[first[-1]])
                prod = open_prod if start < 0 else 1.0
                for x in u[max(start, 0):].tolist():
                    prod *= x
                open_prod, open_n = prod, int(n_pairs[-1])
                pulse, n_pairs = pulse[:-1], n_pairs[:-1]
            else:
                open_n = 0
            index.append(pulse)
            counts.append(n_pairs)
        done += closed
    return np.concatenate(index), np.concatenate(counts)


def _grows_pulse(u: np.ndarray, high: np.ndarray, floor: float, carried: float) -> np.ndarray:
    """For each position in ``high`` (where u > floor), whether its uniform
    keeps the product of its pulse above ``floor`` rather than closing it.

    ``carried`` is the product a pulse open before position 0 brings in (1.0
    if none is open).  A high uniform that starts a pulse always grows it, so
    only runs of adjacent highs and a run continuing the carried pulse are
    multiplied out, in the order numpy multiplies.
    """
    grows = np.ones(high.size, dtype=bool)
    if high.size == 0:
        return grows
    start = np.concatenate(([0], np.flatnonzero(np.diff(high) != 1) + 1))
    length = np.diff(start, append=high.size)
    continues = carried < 1.0 and high[0] == 0
    chained = length > 1
    chained[0] |= continues
    start, length = start[chained], length[chained]
    prod = np.ones(start.size)
    if continues:
        prod[0] = carried
    step = 0
    while start.size:
        at = start + step
        prod = prod * u[high[at]]
        grown = prod > floor
        grows[at] = grown
        prod[~grown] = 1.0
        step += 1
        alive = length > step
        start, length, prod = start[alive], length[alive], prod[alive]
    return grows


_SCALAR_CHAINS = 8  # dead-time chains left when the joint walk hands over to a scalar one


def _dead_time_filter(ticks: np.ndarray, dead_ticks: float) -> np.ndarray:
    """Non-paralyzable dead time: keep a click iff it falls at least
    dead_ticks after the previously kept one.

    ``ticks`` are sorted, unique and non-negative.  For integer ticks
    ``t - last >= dead_ticks`` holds iff ``t - last >= ceil(dead_ticks)``, so
    the threshold is exact in integers however large the ticks.  The first
    click is kept, and so is every click at least that far after the click
    before it.  The click kept after a kept click t is the first one at or
    past ``t + ceil(dead_ticks)``; the jumps from all of those sure clicks
    advance together until ``_SCALAR_CHAINS`` chains are left, which are then
    walked one by one, and each chain of jumps ends on the next sure click or
    past the last one.  As unsigned integers the ticks take the threshold,
    which is at most their span, without overflow.  Unique ticks are at least
    one apart, so a dead time of at most one tick keeps every click.

    The jump table (8 bytes per click) and the kept flags (1 byte) are filled
    ``_DEAD_TIME_BLOCK`` clicks at a time, so no other array of the input's
    size is made besides the chains of sure clicks and the result.
    """
    if dead_ticks <= 1 or ticks.size == 0:
        return ticks
    if dead_ticks > int(ticks[-1]) - int(ticks[0]):
        return ticks[:1]
    unsigned = ticks.view(np.uint64)
    threshold = np.uint64(math.ceil(dead_ticks))
    nxt = np.empty(ticks.size, dtype=np.intp)
    # one entry past the end, set, so that a jump past the last click ends its chain
    kept = np.ones(ticks.size + 1, dtype=bool)
    for lo in range(0, ticks.size, _DEAD_TIME_BLOCK):
        hi = min(lo + _DEAD_TIME_BLOCK, ticks.size)
        nxt[lo:hi] = np.searchsorted(unsigned, unsigned[lo:hi] + threshold, side="left")
        # a click is sure when the jump from the click before it lands on it
        np.equal(nxt[lo:hi], np.arange(lo + 1, hi + 1), out=kept[lo + 1:hi + 1])
    chain = np.flatnonzero(kept[:-1])
    while chain.size > _SCALAR_CHAINS:
        chain = nxt[chain]
        chain = chain[~kept[chain]]
        kept[chain] = True
    # A joint step costs a few numpy calls however few chains are left, and
    # one chain can span the whole stream.
    jumps, marks = memoryview(nxt), memoryview(kept)
    for at in chain.tolist():
        at = jumps[at]
        while not marks[at]:
            marks[at] = True
            at = jumps[at]
    return ticks[kept[:-1]]


def simulate_tags(config: SimulationConfig) -> TagStream:
    """Tag stream of the pulsed source in ``config``, reproducible byte for byte.

    The stream is fixed by the draws of ``np.random.default_rng(seed)``.
    Pulses are drawn in chunks of 10⁶: per chunk the pair numbers, then the
    herald, arm-A and arm-B binomials of the non-empty pulses, then the jitter
    of each channel; the dark counts of each channel follow after the last
    chunk.  Poisson pair numbers for 0 < mu ≤ ``_REBUILD_MAX_MU`` are rebuilt
    from ``rng.random`` (:func:`_poisson_hot`) with exactly the uniforms
    ``rng.poisson`` would use, so they equal its counts.  The same seed and
    numpy version give the same bytes.

    Memory: besides the returned stream (9 bytes per click), the clicks of
    every chunk are held until their channel is merged, 8 bytes each before
    the dead time, with one chunk's draws, of which ``_UNIFORM_BLOCK``
    uniforms at a time.  Then one channel at a time holds its sorted clicks
    and the dead-time jump table (8 bytes per click each), and the merge an
    8-byte sort order per click.  A multi-chunk stream with 100 ns of dead
    time peaks about 22 bytes per click above the stream, writing included.
    """
    rng = np.random.default_rng(config.seed)
    n_pulses = config.n_pulses
    tick = config.tick_duration
    p_a = config.signal_transmittance * config.splitter_ratio
    p_b = config.signal_transmittance * (1.0 - config.splitter_ratio)
    q = config.herald_transmittance
    mu = config.mean_pairs_per_pulse

    clicks = {channel: [np.zeros(0, dtype=np.int64)] for channel in (1, 2, 3)}
    chunk = 1_000_000
    for start in range(0, n_pulses, chunk):
        count = min(chunk, n_pulses - start)
        if config.pair_statistics == "thermal":
            pairs = rng.geometric(1.0 / (1.0 + mu), count) - 1 if mu > 0 else np.zeros(count, np.int64)
            hot = np.flatnonzero(pairs)
            n_hot = pairs[hot]
        else:
            hot, n_hot = _poisson_hot(rng, mu, count)
        n_herald = rng.binomial(n_hot, q)
        n_a = rng.binomial(n_hot, p_a)
        remaining = n_hot - n_a
        if p_a < 1.0:
            n_b = rng.binomial(remaining, p_b / (1.0 - p_a))
        else:
            n_b = np.zeros_like(remaining)
        pulse_index = start + hot
        for channel, detected in ((1, n_a), (2, n_herald), (3, n_b)):
            hit = pulse_index[detected > 0]
            t = hit * config.rep_period
            if config.jitter_std > 0:
                t = t + rng.normal(0.0, config.jitter_std, t.size)
                if not np.all(t / tick < 2.0**63):
                    raise ValueError(
                        f"jitter_std ({config.jitter_std!r} s) moves a click past the int64 tick range"
                    )
            clicks[channel].append(np.maximum(np.rint(t / tick), 0).astype(np.int64))

    for channel, rate in zip((1, 2, 3), config.dark_rates):
        if rate > 0 and config.duration > 0:
            n_dark = rng.poisson(rate * config.duration)
            t = rng.uniform(0.0, config.duration, n_dark)
            clicks[channel].append(np.rint(t / tick).astype(np.int64))

    dead_ticks = config.dead_time / tick
    runs = []
    for channel in (1, 2, 3):
        # jitter and darks arrive unsorted; same-tick arrivals collapse to one click
        ticks = np.concatenate(clicks.pop(channel))
        ticks.sort()
        first = np.ones(ticks.size, dtype=bool)
        np.not_equal(ticks[1:], ticks[:-1], out=first[1:])
        if not first.all():
            ticks = ticks[first]
        del first
        runs.append(_dead_time_filter(ticks, dead_ticks))
        del ticks

    # the runs are in channel order, so a stable sort breaks ties by channel;
    # the timestamps are then sorted in place, which gives ts[order] without
    # another array of the stream's size
    sizes = [run.size for run in runs]
    ts = np.concatenate(runs)
    del runs
    order = np.argsort(ts, kind="stable")
    ch = np.repeat(np.arange(1, 4, dtype=np.uint8), sizes)[order]
    del order
    ts.sort()
    return TagStream(ch, ts, tick, math.ceil(config.duration / tick))


# ---------------------------------------------------------------------------
# result serialization (CSV for plotting, JSON with full parameter echo)

def _write_json(payload: dict, path) -> None:
    """Canonical JSON result file: sorted keys, compact separators, one trailing newline."""
    Path(path).write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def write_coincidence_csv(hist: CoincidenceHistogram, path) -> None:
    head = [
        f"# bin_width_ticks {hist.bin_width}",
        f"# delay_range_ticks {hist.delay_range}",
        f"# tick_duration_s {hist.tick_duration!r}",
        f"# duration_ticks {hist.duration_ticks}",
        f"# channels {hist.ch_a},{hist.ch_b}",
        f"# singles {hist.n_ch_a},{hist.n_ch_b}",
        "delay_ticks,count",
    ]
    delays = hist.delay_centers
    with open(path, "wb") as f:
        f.write("".join(line + "\n" for line in head).encode())
        for start in range(0, delays.size, _TEXT_BLOCK):
            block = slice(start, start + _TEXT_BLOCK)
            f.write(_int_text((delays[block], hist.counts[block]), b",\n"))


def write_coincidence_json(hist: CoincidenceHistogram, path) -> None:
    """``_write_json``'s bytes, the per-bin lists formatted ``_TEXT_BLOCK`` values at a time."""
    text = json.dumps({"schema": "taperfwm.coincidences/1", "bin_width_ticks": hist.bin_width,
                       "delay_range_ticks": hist.delay_range, "tick_duration_s": hist.tick_duration,
                       "duration_ticks": hist.duration_ticks, "ch_a": hist.ch_a,
                       "ch_b": hist.ch_b, "n_ch_a": hist.n_ch_a, "n_ch_b": hist.n_ch_b,
                       "delay_ticks": [], "counts": []}, sort_keys=True, separators=(",", ":"))
    head, middle, tail = text.split("[]")  # "counts" sorts before "delay_ticks"
    with open(path, "wb") as f:
        for before, values in ((head, hist.counts), (middle, hist.delay_centers)):
            f.write(before.encode() + b"[")
            for start in range(0, values.size, _TEXT_BLOCK):
                block = _int_text((values[start:start + _TEXT_BLOCK],), b",")
                f.write(block if start + _TEXT_BLOCK < values.size else block[:-1])
            f.write(b"]")
        f.write(tail.encode() + b"\n")


def write_g2_csv(hist: HeraldedG2Histogram, path) -> None:
    lines = [
        f"# window_ticks {hist.window}",
        f"# herald_ch {hist.herald_ch}",
        f"# channels {hist.ch_a},{hist.ch_b}",
        f"# n_heralds {hist.n_heralds}",
        f"# singles {hist.singles_a},{hist.singles_b}",
        "separation,g2,triples",
    ]
    lines.extend(
        f"{m},{g!r},{t}"
        for m, g, t in zip(hist.separations.tolist(), hist.g2.tolist(), hist.triples.tolist())
    )
    Path(path).write_text("\n".join(lines) + "\n")


def write_g2_json(hist: HeraldedG2Histogram, path) -> None:
    _write_json({
        "schema": "taperfwm.g2h/1",
        "window_ticks": hist.window,
        "herald_ch": hist.herald_ch,
        "ch_a": hist.ch_a,
        "ch_b": hist.ch_b,
        "n_heralds": hist.n_heralds,
        "singles_a": hist.singles_a,
        "singles_b": hist.singles_b,
        "separations": hist.separations.tolist(),
        "g2": hist.g2.tolist(),
        "triples": hist.triples.tolist(),
    }, path)
