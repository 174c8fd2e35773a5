"""Tag streams: parsing, coincidence/g2 analyses, synthetic source statistics."""

import hashlib
import json
import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from streams import counts_by_channel, from_records
from taperfwm import tags
from taperfwm.tags import (
    TICK_SECONDS,
    CoincidenceHistogram,
    SimulationConfig,
    TagOrderWarning,
    TagParseError,
    TagStream,
    coincidence_histogram,
    heralded_g2,
    parse_tags,
    peak_and_accidentals,
    simulate_tags,
    write_coincidence_csv,
    write_coincidence_json,
    write_g2_csv,
    write_g2_json,
    write_tags_binary,
    write_tags_text,
)

REP = 54e-9
REP_TICKS = REP / TICK_SECONDS  # 666.67, deliberately not an integer
TOP = 2**63 - 1  # the largest tick


def sim(n_pulses, **overrides):
    defaults = dict(
        duration=n_pulses * REP,
        mean_pairs_per_pulse=0.05,
        herald_transmittance=0.3,
        signal_transmittance=0.5,
        splitter_ratio=0.47,
        dead_time=0.0,
        seed=11,
    )
    defaults.update(overrides)
    return simulate_tags(SimulationConfig(**defaults))


def random_stream(seed, n=1500, span=20_000):
    rng = np.random.default_rng(seed)
    return from_records(
        list(zip(rng.integers(1, 4, n), rng.integers(0, span, n)))
    )


class TestTagRecordAndStream:
    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            from_records([(1, -1)])

    def test_sorted_stream_accepted(self):
        s = TagStream(np.array([2, 1, 3]), np.array([0, 5, 5]))
        assert len(s) == 3
        assert s.channels.tolist() == [2, 1, 3]
        assert s.timestamps.tolist() == [0, 5, 5]

    def test_unsorted_timestamps_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            TagStream(np.array([1, 1]), np.array([5, 0]))

    def test_tie_order_by_channel_enforced(self):
        with pytest.raises(ValueError, match="ordered by channel"):
            TagStream(np.array([3, 1]), np.array([5, 5]))

    def test_unknown_channel_rejected(self):
        with pytest.raises(ValueError, match="channel 4"):
            TagStream(np.array([4]), np.array([0]))

    def test_channel_must_fit_unsigned_byte(self):
        for channel in (256, -1):
            with pytest.raises(ValueError, match=rf"channel {channel} not in declared set \[1, 2, 3\]"):
                TagStream(np.array([channel]), np.array([0]))

    def test_first_unknown_channel_named(self):
        # both ends are known channels; the first of the two unknown ones between them is named
        for channel in (0, 4, 255):
            with pytest.raises(ValueError, match=rf"^channel {channel} not in declared set \[1, 2, 3\]$"):
                TagStream(np.array([1, channel, 9, 3]), np.arange(4))

    def test_known_channels_checked_without_isin(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("np.isin called on known channels")

        monkeypatch.setattr(np, "isin", refused)
        s = TagStream(np.array([1, 2, 3, 1]), np.arange(4))
        assert s.channels.tolist() == [1, 2, 3, 1]
        assert len(parse_tags(b"1\t5\n3\t9\n")) == 2
        rec = b"\x02" + (7).to_bytes(8, "little")
        assert len(parse_tags(b"TTAG1" + (81000).to_bytes(4, "little") + rec)) == 1

    def test_arrays_of_the_stored_types_are_kept(self, monkeypatch):
        # uint8 channels are checked as they are, not widened to int64
        exact_int64 = tags._exact_int64
        widened = []

        def recording(values, name):
            widened.append(name)
            return exact_int64(values, name)

        monkeypatch.setattr(tags, "_exact_int64", recording)
        ch, ts = np.array([1, 2, 3], dtype=np.uint8), np.array([0, 4, 4])
        s = TagStream(ch, ts)
        assert s.channels is ch and s.timestamps is ts and widened == ["timestamps"]
        with pytest.raises(ValueError, match=r"^channel 4 not in declared set \[1, 2, 3\]$"):
            TagStream(np.array([1, 4], dtype=np.uint8), np.arange(2))
        with pytest.raises(ValueError, match="ordered by channel"):
            TagStream(np.array([3, 1], dtype=np.uint8), np.array([5, 5]))

    @pytest.mark.parametrize("block", [1, 2, 5])
    @pytest.mark.parametrize("at", [1, 2, 5, 9])
    def test_order_checked_across_blocks(self, monkeypatch, block, at):
        monkeypatch.setattr(tags, "_ORDER_BLOCK", block)
        ch, ts = np.ones(10, np.int64), np.arange(10) + 5
        TagStream(ch, ts)
        back = ts.copy()
        back[at] = back[at - 1] - 1
        with pytest.raises(ValueError, match="non-decreasing"):
            TagStream(ch, back)
        tie = ts.copy()
        tie[at] = tie[at - 1]
        swapped = ch.copy()
        swapped[at - 1] = 3
        with pytest.raises(ValueError, match="ordered by channel"):
            TagStream(swapped, tie)

    def test_nonpositive_tick_rejected(self):
        with pytest.raises(ValueError, match="tick_duration"):
            TagStream(np.array([1]), np.array([0]), tick_duration=0.0)

    @pytest.mark.parametrize("channels, timestamps, name, value", [
        ([1.7, 2.2], [5.9, 7.1], "channels", "1.7"),  # was silently truncated to [1 2], [5 7]
        ([1.0, 2.0], [5.0, 7.5], "timestamps", "7.5"),
        ([1.0, 2.0], [5.0, np.nan], "timestamps", "nan"),
        ([1.0, 2.0], [np.inf, 7.0], "timestamps", "inf"),
        ([1.0, 2.0], [5.0, 2.0**63], "timestamps", "9.223372036854776e+18"),
        ([True, True], [5, 7], "channels", "True"),
        (np.array([1, 2], dtype=np.uint64), np.array([5, 2**63], dtype=np.uint64),
         "timestamps", "9223372036854775808"),
    ])
    def test_values_int64_would_change_rejected(self, channels, timestamps, name, value):
        with pytest.raises(ValueError, match=f"{name} must be whole numbers.*got {re.escape(value)}$"):
            TagStream(np.array(channels), np.array(timestamps))

    def test_whole_float_and_empty_arrays_accepted(self):
        s = TagStream(np.array([1.0, 3.0]), np.array([5.0, 2.0**62]))
        assert s.channels.tolist() == [1, 3] and s.timestamps.tolist() == [5, 2**62]
        empty = TagStream(np.array([]), np.array([]))
        assert len(empty) == 0 and empty.duration_ticks == 0

    def test_from_records_sorts_with_channel_tiebreak(self):
        s = from_records([(3, 7), (1, 7), (2, 2)])
        assert s.timestamps.tolist() == [2, 7, 7]
        assert s.channels.tolist() == [2, 1, 3]

    def test_channel_selection_and_counts(self):
        s = from_records([(1, 0), (2, 3), (1, 9), (3, 9)])
        assert s.channel_timestamps(1).tolist() == [0, 9]
        assert counts_by_channel(s) == {1: 2, 2: 1, 3: 1}

    def test_duration_from_span_or_given(self, tmp_path):
        assert from_records([(1, 10), (1, 109)]).duration_ticks == 100
        assert from_records([(1, 10)], duration_ticks=500).duration_ticks == 500
        # a simulated stream is as long as its acquisition, ceil(duration / tick)
        stream = sim(5000, seed=2)
        assert stream.duration_ticks == math.ceil(5000 * REP / TICK_SECONDS)
        # written and parsed back, the same records get their observed span
        write_tags_binary(stream, tmp_path / "tags.bin")
        parsed = parse_tags(tmp_path / "tags.bin")
        assert np.array_equal(parsed.timestamps, stream.timestamps)
        span = int(stream.timestamps[-1]) - int(stream.timestamps[0]) + 1
        assert parsed.duration_ticks == span < stream.duration_ticks
        # the histogram carries the stream's length, and rates divide by it
        for s in (stream, parsed):
            hist = coincidence_histogram(s, 1, 2, bin_width=10, delay_range=2670)
            assert hist.duration_ticks == s.duration_ticks
            peak = int(hist.counts[np.abs(hist.delay_centers) <= 5].sum())
            assert peak > 0
            rates = peak_and_accidentals(hist, REP_TICKS, 10)
            assert rates["peak_rate"] == peak / (s.duration_ticks * TICK_SECONDS)

    def test_duration_of_the_whole_tick_range(self):
        assert from_records([(1, 0), (2, TOP)]).duration_ticks == 2**63

    def test_empty_stream_valid(self):
        s = TagStream(np.array([], dtype=int), np.array([], dtype=int))
        assert len(s) == 0
        assert s.duration_ticks == 0


class TestParseTags:
    def test_two_record_text(self):
        s = parse_tags(b"2\t0\n1\t3\n")
        assert s.channels.tolist() == [2, 1]
        assert s.timestamps.tolist() == [0, 3]
        assert s.tick_duration == TICK_SECONDS

    def test_empty_input(self):
        s = parse_tags(b"")
        assert len(s) == 0

    def test_unknown_channel_has_line_number(self):
        with pytest.raises(TagParseError, match="line 1: unknown channel 9"):
            parse_tags(b"9\t0\n")

    def test_declared_channel_set_enforced(self):
        # the set is fixed: 1 and 3 are the signal arms, 2 the herald
        with pytest.raises(TagParseError, match=r"line 2: unknown channel 4 \(declared \[1, 2, 3\]\)"):
            parse_tags(b"3\t0\n4\t1\n")

    def test_negative_timestamp(self):
        with pytest.raises(TagParseError, match="line 2: negative"):
            parse_tags(b"1\t5\n1\t-2\n")

    @pytest.mark.parametrize("payload", [b"1 5\n", b"1\t5\t9\n", b"one\t5\n", b"1\tfive\n"])
    def test_malformed_records(self, payload):
        with pytest.raises(TagParseError, match="line 1"):
            parse_tags(payload)

    def test_tick_header_honored(self):
        s = parse_tags(b"#tick_ps 50\n1\t4\n")
        assert s.tick_duration == pytest.approx(50e-12)

    @pytest.mark.parametrize(
        "header", [b"#tick_ps 40.5", b"#tick_ps 1e3", b"# tick_ps 27 # note", b"#tick_ps"]
    )
    def test_malformed_tick_header_has_line_number(self, header):
        with pytest.raises(TagParseError, match="line 2: tick_ps takes one bare positive integer"):
            parse_tags(b"1\t4\n" + header + b"\n2\t9\n")

    def test_tick_header_takes_ascii_digits_only(self):
        # str.isdigit digits such as Arabic-Indic 81 are not a tick length
        with pytest.raises(TagParseError, match="line 1: tick_ps takes one bare positive integer"):
            parse_tags("#tick_ps \u0668\u0661\n1\t4\n".encode())

    def test_other_first_words_stay_comments(self):
        s = parse_tags(b"# tick_psx 40.5\n# ticks 1e3\n1\t4\n")
        assert s.tick_duration == TICK_SECONDS

    def test_unrepresentable_tick_header_rejected(self):
        with pytest.raises(TagParseError, match="line 1: tick_ps must be positive and finite"):
            parse_tags(b"#tick_ps " + b"9" * 400 + b"\n1\t4\n")

    def test_timestamp_beyond_int64_has_line_number(self):
        largest = parse_tags(b"1\t9223372036854775807\n")
        assert largest.timestamps.tolist() == [2**63 - 1]
        with pytest.raises(TagParseError, match="line 3: timestamp overflows signed 64-bit"):
            parse_tags(b"#tick_ps 81\n1\t5\n1\t9223372036854775808\n")

    def test_conflicting_tick_headers_rejected(self):
        with pytest.raises(TagParseError, match="conflicting tick_ps"):
            parse_tags(b"#tick_ps 50\n#tick_ps 81\n1\t4\n")

    def test_comments_and_blanks_skipped(self):
        s = parse_tags(b"# comment\n\n1\t0\n   \n# more\n2\t2\n")
        assert len(s) == 2

    def test_out_of_order_sorted_with_warning(self):
        with pytest.warns(TagOrderWarning, match="^1 out-of-order records sorted$"):
            s = parse_tags(b"1\t100\n2\t50\n2\t75\n")
        assert s.timestamps.tolist() == [50, 75, 100]

    def test_equal_timestamps_reordered_by_channel(self):
        with pytest.warns(TagOrderWarning):
            s = parse_tags(b"2\t5\n1\t5\n")
        assert s.channels.tolist() == [1, 2]

    def test_in_order_input_no_warning(self):
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("error")
            s = parse_tags(b"1\t1\n2\t1\n1\t8\n")
        assert s.timestamps.tolist() == [1, 1, 8]

    def test_one_order_check_per_parse(self, monkeypatch):
        disorder = tags._disorder
        checks = []

        def counting(ch, ts):
            checks.append(disorder(ch, ts))
            return checks[-1]

        monkeypatch.setattr(tags, "_disorder", counting)
        binary = b"TTAG1" + (81000).to_bytes(4, "little") + b"".join(
            bytes([c]) + t.to_bytes(8, "little") for c, t in ((3, 5), (1, 5), (2, 9)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TagOrderWarning)
            for data, disorder_found in ((b"1\t5\n3\t5\n", (0, 0)), (b"3\t5\n1\t5\n2\t1\n", (1, 1)),
                                         (b"1\t5\n3\t5\n# end\n", (0, 0)), (binary, (0, 1))):
                checks.clear()
                stream = parse_tags(data)
                assert checks == [disorder_found]
                assert sum(tags._disorder(stream.channels, stream.timestamps)) == 0

    def test_plain_text_parsed_without_a_copy_of_the_body(self):
        # 2e5 records of 22 bytes: the values (16 bytes a record), the
        # timestamps (8) and the channels (1) peak together, 25.0 bytes a
        # record measured; with a copy of the body it was 46.0
        n = 200_000
        data = b"#tick_ps 81\n" + tag_text(zip(np.arange(n) % 3 + 1, np.arange(n) * 4099 + 2**62))
        tracemalloc.start()
        try:
            stream = parse_tags(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(stream) == n and stream.channels.dtype == np.uint8
        assert len(data) == 12 + 22 * n
        assert peak <= 32 * n

    def test_text_roundtrip(self, tmp_path):
        stream = sim(2000, jitter_std=120e-12, seed=5)
        path = tmp_path / "tags.txt"
        write_tags_text(stream, path)
        back = parse_tags(path)
        assert np.array_equal(back.channels, stream.channels)
        assert np.array_equal(back.timestamps, stream.timestamps)
        assert back.tick_duration == pytest.approx(stream.tick_duration)

    def test_binary_roundtrip(self, tmp_path):
        stream = sim(2000, jitter_std=120e-12, seed=6)
        path = tmp_path / "tags.bin"
        write_tags_binary(stream, path)
        back = parse_tags(path)
        assert np.array_equal(back.channels, stream.channels)
        assert np.array_equal(back.timestamps, stream.timestamps)
        assert back.tick_duration == pytest.approx(stream.tick_duration)

    @pytest.mark.parametrize("tick, text_ok, binary_ok", [
        (81.5e-12, False, True),  # was written as #tick_ps 82, read back as 8.2e-11 s
        (0.4e-12, False, True),  # was written as #tick_ps 0, which parse_tags rejects
        (5e-3, True, False),  # 5e12 fs: a bare OverflowError from to_bytes
        (81e-12 * (1 + 5e-10), True, True),
        (81e-12 * (1 + 5e-9), False, False),
        ((2**32 - 1) * 1e-15, False, True),
        (2**32 * 1e-15, False, False),
    ])
    def test_tick_the_format_cannot_store_rejected(self, tmp_path, tick, text_ok, binary_ok):
        stream = TagStream(np.array([1, 2]), np.array([5, 7]), tick_duration=tick)
        for writer, ok, name in ((write_tags_text, text_ok, "tags.txt"),
                                 (write_tags_binary, binary_ok, "tags.bin")):
            path = tmp_path / name
            if ok:
                writer(stream, path)
                assert parse_tags(path).tick_duration == pytest.approx(tick, rel=1e-9)
            else:
                with pytest.raises(ValueError, match=f"cannot write tick {tick!r} s"):
                    writer(stream, path)
                assert not path.exists()

    def test_binary_truncated_record_offset(self):
        payload = b"TTAG1" + (81000).to_bytes(4, "little") + b"\x01" + (7).to_bytes(8, "little") + b"\x02"
        with pytest.raises(TagParseError, match="byte 18"):
            parse_tags(payload)

    def test_binary_unknown_channel_offset(self):
        rec1 = b"\x01" + (7).to_bytes(8, "little")
        rec2 = b"\x09" + (9).to_bytes(8, "little")
        payload = b"TTAG1" + (81000).to_bytes(4, "little") + rec1 + rec2
        with pytest.raises(TagParseError, match="byte 18: unknown channel 9"):
            parse_tags(payload)

    def test_binary_zero_tick_rejected(self):
        payload = b"TTAG1" + (0).to_bytes(4, "little")
        with pytest.raises(TagParseError, match="tick duration"):
            parse_tags(payload)

    def test_binary_truncated_header(self):
        with pytest.raises(TagParseError, match="header"):
            parse_tags(b"TTAG1\x01")

    def test_garbage_bytes_rejected(self):
        with pytest.raises(TagParseError, match="not UTF-8"):
            parse_tags(b"\xff\xfe\x00garbage")

    @pytest.mark.parametrize("field", ["1_000", "+5", "\u0661\u0662", "\uff15"],
                             ids=["underscore", "plus", "arabic_indic", "fullwidth"])
    def test_only_ascii_digit_fields(self, field):
        for record in (f"1\t{field}", f"{field}\t1"):
            with pytest.raises(TagParseError, match="line 2: non-integer field"):
                parse_tags(f"1\t4\n{record}\n2\t9\n".encode())

    @pytest.mark.parametrize("record", [b"1 \t5", b"1\t 5"])
    def test_no_spaces_around_the_tab(self, record):
        with pytest.raises(TagParseError, match="line 1: non-integer field"):
            parse_tags(record + b"\n")
        assert parse_tags(b"  1\t5 \n").timestamps.tolist() == [5]


def tag_text(records, head=b"", newline=b"\n"):
    return head + b"".join(b"%d\t%d" % (c, t) + newline for c, t in records)


record_lists = st.lists(
    st.tuples(st.integers(1, 3), st.integers(0, 2**63 - 1) | st.integers(0, 50)), min_size=1)
heads = st.sampled_from([b"", b"#tick_ps 50\n", b"# run 7\n#tick_ps 81\n# \xc2\xb5s\n"])


class TestTextFastPath:
    """The loadtxt path against the line loop that it shortcuts."""

    @settings(max_examples=60, deadline=None)
    @given(records=record_lists, head=heads)
    def test_fast_path_equals_line_loop(self, records, head):
        data = tag_text(records, head)
        fast = tags._parse_plain(data)
        assert fast is not None
        ch, ts, tick = tags._parse_lines(data)
        assert fast[0].tolist() == ch.tolist()
        assert fast[1].tolist() == ts.tolist()
        assert fast[2] == tick

    @settings(max_examples=40, deadline=None)
    @given(records=record_lists, head=heads)
    def test_fallback_inputs_parse_alike(self, records, head):
        plain = tag_text(records, head)
        trailing_comment = plain + b"# end\n"
        crlf = tag_text(records, head, newline=b"\r\n")
        assert tags._parse_plain(trailing_comment) is None
        assert tags._parse_plain(crlf) is None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TagOrderWarning)
            streams = [parse_tags(d) for d in (plain, trailing_comment, crlf)]
        for other in streams[1:]:
            assert np.array_equal(other.channels, streams[0].channels)
            assert np.array_equal(other.timestamps, streams[0].timestamps)
            assert other.tick_duration == streams[0].tick_duration
            assert other.duration_ticks == streams[0].duration_ticks

    @pytest.mark.parametrize("body, plain, message", [
        (b"1\t5\n2\n", False, "line 3: expected 'channel<TAB>ticks'"),
        (b"1\t5\n2\t7\t9\n", False, "line 3: expected 'channel<TAB>ticks'"),
        (b"1\t5\n2\t\n", True, "line 3: expected 'channel<TAB>ticks'"),
        (b"1\t5\n1\t9223372036854775808\n", True, "line 3: timestamp overflows"),
        (b"1\t5\n1\t" + b"9" * 400 + b"\n", True, "line 3: timestamp overflows"),
        (b"1\t5\n7\t9\n", True, "line 3: unknown channel 7"),
    ], ids=["missing_field", "three_fields", "empty_field", "int64_overflow", "400_digits",
            "unknown_channel"])
    def test_malformed_body_reports_its_line(self, body, plain, message):
        data = b"#tick_ps 81\n" + body
        assert tags._is_plain_body(body) is plain
        assert tags._parse_plain(data) is None
        with pytest.raises(TagParseError, match=message):
            parse_tags(data)

    @pytest.mark.parametrize("ticks", [
        2**63 - 1, 2**63 - 2, 10**18, 10**18 + 1, 9 * 10**18 + 7, 1234567890123456789,
    ])
    def test_nineteen_digit_timestamps_take_the_fast_path(self, ticks):
        data = b"#tick_ps 81\n" + tag_text([(1, 5), (2, ticks), (3, ticks)])
        fast = tags._parse_plain(data)
        assert fast is not None
        ch, ts, _ = tags._parse_lines(data)
        assert fast[0].tolist() == ch.tolist() == [1, 2, 3]
        assert fast[1].tolist() == ts.tolist() == [5, ticks, ticks]

    @pytest.mark.parametrize("body", [
        b"1\t007\n02\t0\n003\t000\n",
        b"1\t09223372036854775807\n",
        b"1\t0000009223372036854775807\n",
    ])
    def test_leading_zeros_take_the_fast_path(self, body):
        fast = tags._parse_plain(body)
        assert fast is not None
        ch, ts, _ = tags._parse_lines(body)
        assert fast[0].tolist() == ch.tolist()
        assert fast[1].tolist() == ts.tolist()

    @pytest.mark.parametrize("ticks", [b"9223372036854775808", b"10000000000000000000",
                                       b"18446744073709551616", b"09223372036854775808"],
                             ids=["2**63", "10**19", "2**64", "2**63_leading_zero"])
    def test_timestamps_of_2_63_and_more_leave_the_fast_path(self, ticks):
        data = b"#tick_ps 81\n1\t5\n2\t" + ticks + b"\n3\t9\n"
        assert tags._is_plain_body(data[12:])
        assert tags._parse_plain(data) is None
        with pytest.raises(TagParseError, match="line 3: timestamp overflows signed 64-bit"):
            parse_tags(data)

    def test_fromstring_saturates_out_of_range_fields(self):
        # _parse_plain tells an overflowing field from 2**63 - 1 only because
        # np.fromstring saturates it to 2**63 - 1; a numpy that wraps or
        # raises instead must fail here
        fields = [2**63, 10**19, 2**64 - 1, 2**64, int("9" * 400), 2**63 - 1]
        text = "\t".join(map(str, fields)).encode() + b"\n"
        values = np.fromstring(text, dtype=np.int64, sep=" ")
        assert values.tolist() == [2**63 - 1] * len(fields)


class TestCoincidenceHistogram:
    @pytest.mark.parametrize("seed,bin_width,delay_range", [(1, 7, 140), (2, 1, 64), (3, 10, 500)])
    def test_matches_brute_force_exactly(self, seed, bin_width, delay_range):
        stream = random_stream(seed)
        hist = coincidence_histogram(stream, 1, 2, bin_width=bin_width, delay_range=delay_range)
        centers, counts = oracles.brute_force_coincidences(stream, 1, 2, bin_width, delay_range)
        assert hist.delay_centers.tolist() == centers
        assert hist.counts.tolist() == counts

    def test_same_channel_matches_brute_force(self):
        stream = random_stream(4)
        hist = coincidence_histogram(stream, 2, 2, bin_width=7, delay_range=140)
        _, counts = oracles.brute_force_coincidences(stream, 2, 2, 7, 140)
        assert hist.counts.tolist() == counts

    @pytest.mark.parametrize("block", [1, 7, 500])
    @pytest.mark.parametrize("ch_a,ch_b", [(1, 2), (3, 1), (2, 2)])
    def test_blocks_equal_all_pairs(self, monkeypatch, block, ch_a, ch_b):
        monkeypatch.setattr(tags, "_PAIR_BLOCK", block)
        stream = random_stream(block, n=3000, span=40_000)
        hist = coincidence_histogram(stream, ch_a, ch_b, bin_width=5, delay_range=400)
        expected = oracles.all_pairs_histogram(stream, ch_a, ch_b, 5, 400)
        assert hist.counts.sum() > 10 * block  # the pairs span many blocks
        assert hist.counts.tolist() == expected.tolist()

    def test_memory_bounded_by_block(self):
        # 20 000 tags per channel over 1e8 ticks, +-125 000 ticks: about 1e6 pairs
        stream = random_stream(21, n=60_000, span=100_000_000)
        budget = 16e6  # bytes; the all-pairs index arrays need about 5e7

        def traced_peak(histogram):
            tracemalloc.start()
            try:
                counts = histogram()
                return counts, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        counts, peak = traced_peak(lambda: coincidence_histogram(
            stream, 1, 2, bin_width=10, delay_range=125_000).counts)
        expected, all_pairs_peak = traced_peak(lambda: oracles.all_pairs_histogram(
            stream, 1, 2, 10, 125_000))
        assert 5e5 < counts.sum() < 2e6
        assert np.array_equal(counts, expected)
        assert all_pairs_peak > budget
        assert peak < budget

    def test_single_event_self_pair_excluded(self):
        stream = from_records([(1, 100)])
        hist = coincidence_histogram(stream, 1, 1, bin_width=5, delay_range=50)
        assert hist.counts.sum() == 0

    def test_no_pairs_in_range(self):
        stream = from_records([(1, 0), (2, 10_000)])
        hist = coincidence_histogram(stream, 1, 2, bin_width=10, delay_range=100)
        assert hist.counts.sum() == 0

    def test_swapping_channels_mirrors_delays(self):
        stream = random_stream(9)
        ab = coincidence_histogram(stream, 1, 2, bin_width=1, delay_range=64)
        ba = coincidence_histogram(stream, 2, 1, bin_width=1, delay_range=64)
        assert ab.counts.tolist() == ba.counts[::-1].tolist()

    @pytest.mark.parametrize("bin_width,delay_range,msg", [
        (0, 100, "bin_width"),
        (10, 105, "multiple"),
        (10, -10, "multiple|non-negative"),
    ])
    def test_bad_binning_rejected(self, bin_width, delay_range, msg):
        stream = random_stream(1, n=10)
        with pytest.raises(ValueError, match=msg):
            coincidence_histogram(stream, 1, 2, bin_width=bin_width, delay_range=delay_range)

    @pytest.mark.parametrize("channel", [0, 4, 7, 300, -1])
    @pytest.mark.parametrize("arg", ["ch_a", "ch_b"])
    def test_undeclared_channel_rejected(self, arg, channel):
        stream = random_stream(1, n=10)
        with pytest.raises(ValueError, match=rf"{arg} {channel} not in declared set \[1, 2, 3\]"):
            coincidence_histogram(stream, bin_width=10, delay_range=100, **{arg: channel})

    def test_pulsed_source_comb(self):
        # pulsed source: every peak sits on a multiple of the 54 ns period and
        # the zero-delay peak (true coincidences) dominates the accidentals
        stream = sim(1_000_000, herald_transmittance=0.12, signal_transmittance=0.4,
                     dark_rates=(300.0, 300.0, 300.0), seed=21)
        hist = coincidence_histogram(stream, 1, 2, bin_width=10, delay_range=2670)
        centers = hist.delay_centers
        positions, heights = [], []
        for m in range(-3, 4):
            sel = np.abs(centers - m * REP_TICKS) <= REP_TICKS / 2
            idx = np.argmax(hist.counts[sel])
            positions.append(int(centers[sel][idx]))
            heights.append(int(hist.counts[sel][idx]))
        spacings = np.diff(positions)
        assert np.all(np.abs(spacings - REP_TICKS) <= hist.bin_width)
        zero = heights[3]
        assert all(zero > h for i, h in enumerate(heights) if i != 3)
        assert positions[3] == 0

    @given(offset=st.integers(0, 10**9))
    @settings(max_examples=25, deadline=None)
    def test_time_shift_invariance(self, offset):
        base = random_stream(12, n=400)
        shifted = TagStream(base.channels, base.timestamps + offset)
        h0 = coincidence_histogram(base, 1, 2, bin_width=7, delay_range=70)
        h1 = coincidence_histogram(shifted, 1, 2, bin_width=7, delay_range=70)
        assert h0.counts.tolist() == h1.counts.tolist()

    def test_pair_at_top_of_tick_range(self):
        # tb + delay_range passes 2**63 - 1 there; the search bound must not wrap
        stream = from_records([(1, TOP - 9), (2, TOP - 5)])
        hist = coincidence_histogram(stream, 1, 2, bin_width=2, delay_range=10)
        assert hist.counts.tolist() == [0] * 7 + [1] + [0] * 3

    @given(records=st.lists(st.tuples(st.integers(1, 2), st.integers(0, 400)), max_size=30),
           bin_width=st.integers(1, 9), half=st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_top_of_tick_range_matches_brute_force(self, records, bin_width, half):
        stream = from_records([(c, TOP - back) for c, back in records])
        hist = coincidence_histogram(stream, 1, 2, bin_width=bin_width,
                                     delay_range=half * bin_width)
        _, expected = oracles.brute_force_coincidences(stream, 1, 2, bin_width, half * bin_width)
        assert hist.counts.tolist() == expected

    def test_widest_accepted_ranges_bin_exactly(self):
        # 2 * delay_range + bin_width = 3 * bin_width, at most 2**63 - 1
        width = TOP // 3
        stream = from_records([(1, 0), (2, width), (2, TOP)])
        hist = coincidence_histogram(stream, 1, 2, bin_width=width, delay_range=width)
        assert hist.counts.tolist() == [0, 0, 1]
        equal = from_records([(1, 5), (2, 5)])
        assert coincidence_histogram(equal, 1, 2, bin_width=TOP, delay_range=0).counts.tolist() == [1]

    @pytest.mark.parametrize("bin_width,delay_range", [(TOP, TOP), (1, 2**62), (2**63, 0)])
    def test_int64_overflowing_range_rejected(self, bin_width, delay_range):
        stream = from_records([(1, TOP - 9), (2, TOP - 5)])
        with pytest.raises(ValueError, match=r"2 \* delay_range \+ bin_width must be at most"):
            coincidence_histogram(stream, 1, 2, bin_width=bin_width, delay_range=delay_range)

    def test_bin_count_and_symmetric_centers(self):
        stream = random_stream(2, n=50)
        hist = coincidence_histogram(stream, 1, 2, bin_width=10, delay_range=200)
        assert hist.counts.size == 41
        assert hist.delay_centers[0] == -200
        assert hist.delay_centers[-1] == 200


class TestPeakAndAccidentals:
    def test_car_matches_generator_prediction(self):
        mu, q, eta_s, rho = 0.05, 0.3, 0.5, 0.47
        n_pulses = 1_000_000
        stream = sim(n_pulses, mean_pairs_per_pulse=mu, herald_transmittance=q,
                     signal_transmittance=eta_s, splitter_ratio=rho, seed=11)
        hist = coincidence_histogram(stream, 1, 2, bin_width=10, delay_range=2000)
        result = peak_and_accidentals(hist, rep_period=REP_TICKS, window=10)
        predicted = oracles.car_prediction(mu, q, eta_s * rho)
        duration = hist.duration_ticks * hist.tick_duration
        peak_counts = result["peak_rate"] * duration
        acc_counts = result["accidental_rate"] * duration
        sigma = result["CAR"] * math.sqrt(1.0 / peak_counts + 1.0 / (4.0 * acc_counts))
        assert abs(result["CAR"] - predicted) <= 3.0 * sigma

    def test_window_covering_everything_gives_unit_car(self):
        stream = sim(100_000, seed=2)
        hist = coincidence_histogram(stream, 1, 2, bin_width=10, delay_range=2000)
        # wide enough that the accidental windows at +-1, +-2 rep periods also
        # cover the whole histogram, so all five sums see every count
        result = peak_and_accidentals(hist, rep_period=REP_TICKS, window=10_000)
        assert result["CAR"] == 1.0

    def test_zero_accidentals_reports_infinite_car(self):
        # perfectly correlated clicks, pairs much farther apart than the comb windows
        records = [(ch, 10_000_000 * k) for k in range(1, 11) for ch in (1, 2)]
        stream = from_records(records)
        hist = coincidence_histogram(stream, 1, 2, bin_width=10, delay_range=2000)
        result = peak_and_accidentals(hist, rep_period=REP_TICKS, window=10)
        assert result["CAR"] == math.inf
        assert result["accidental_rate"] == 0.0

    def test_dark_counts_degrade_car(self):
        # dark rate exaggerated so the short acquisition accumulates a visible
        # uncorrelated floor; the pulse-locked clicks are identical (same seed)
        kwargs = dict(herald_transmittance=0.12, signal_transmittance=0.4, seed=17)
        clean = sim(500_000, **kwargs)
        noisy = sim(500_000, dark_rates=(1e6, 1e6, 1e6), **kwargs)
        h_clean = coincidence_histogram(clean, 1, 2, bin_width=10, delay_range=2000)
        h_noisy = coincidence_histogram(noisy, 1, 2, bin_width=10, delay_range=2000)
        car_clean = peak_and_accidentals(h_clean, rep_period=REP_TICKS, window=10)["CAR"]
        car_noisy = peak_and_accidentals(h_noisy, rep_period=REP_TICKS, window=10)["CAR"]
        assert car_noisy < car_clean

    def test_validation(self):
        stream = random_stream(1, n=100)
        hist = coincidence_histogram(stream, 1, 2, bin_width=10, delay_range=100)
        with pytest.raises(ValueError, match="window"):
            peak_and_accidentals(hist, rep_period=REP_TICKS, window=0)
        with pytest.raises(ValueError, match="rep_period"):
            peak_and_accidentals(hist, rep_period=0.0, window=10)
        bare = CoincidenceHistogram(
            bin_width=10, delay_range=100, counts=hist.counts,
            tick_duration=TICK_SECONDS, duration_ticks=0, ch_a=1, ch_b=2,
            n_ch_a=0, n_ch_b=0,
        )
        with pytest.raises(ValueError, match="duration"):
            peak_and_accidentals(bare, rep_period=REP_TICKS, window=10)


class TestHeraldedG2:
    def test_matches_brute_force_exactly(self):
        stream = random_stream(8, n=3000, span=60_000)
        hist = heralded_g2(stream, 2, 1, 3, window=9, m_max=5)
        reference = oracles.brute_force_g2(stream, 2, 1, 3, 9, 5)
        for m, triples, value in reference:
            assert int(hist.triples[m]) == triples
            assert hist.g2[m] == pytest.approx(value, rel=1e-12)

    def test_perfect_single_pair_source_is_antibunched(self):
        # one pair per heralding event, signal alternating between the arms:
        # a herald never sees clicks in both arms, so g2_h(0) is exactly zero
        records = []
        for k in range(1, 400):
            records.append((2, 1000 * k))
            records.append((1 if k % 2 else 3, 1000 * k))
        hist = heralded_g2(from_records(records), window=10, m_max=4)
        assert hist.zero_separation == 0.0
        assert hist.g2[1] > 0  # adjacent heralds do see both arms

    def test_poisson_source_matches_closed_form(self):
        mu, q, eta_s, rho = 0.05, 0.3, 0.5, 0.47
        stream = sim(2_000_000, mean_pairs_per_pulse=mu, herald_transmittance=q,
                     signal_transmittance=eta_s, splitter_ratio=rho, seed=11)
        hist = heralded_g2(stream, window=10, m_max=6)
        predicted = oracles.g2h_zero_prediction(mu, q, eta_s * rho, eta_s * (1 - rho))
        sigma = hist.g2[0] * math.sqrt(
            1.0 / hist.triples[0] + 1.0 / hist.singles_a + 1.0 / hist.singles_b)
        assert abs(hist.zero_separation - predicted) <= 3.0 * sigma
        for m in range(1, 7):
            sigma_m = hist.g2[m] / math.sqrt(hist.triples[m])
            assert abs(hist.g2[m] - 1.0) <= 3.0 * sigma_m

    def test_thermal_source_matches_closed_form_and_exceeds_poisson(self):
        mu, q, eta_s, rho = 0.05, 0.3, 0.5, 0.47
        stream = sim(2_000_000, mean_pairs_per_pulse=mu, herald_transmittance=q,
                     signal_transmittance=eta_s, splitter_ratio=rho,
                     pair_statistics="thermal", seed=5)
        hist = heralded_g2(stream, window=10, m_max=2)
        p_a, p_b = eta_s * rho, eta_s * (1 - rho)
        predicted = oracles.g2h_zero_prediction(mu, q, p_a, p_b, "thermal")
        assert predicted > oracles.g2h_zero_prediction(mu, q, p_a, p_b, "poisson")
        sigma = hist.g2[0] * math.sqrt(
            1.0 / hist.triples[0] + 1.0 / hist.singles_a + 1.0 / hist.singles_b)
        assert abs(hist.zero_separation - predicted) <= 3.0 * sigma

    def test_multiphoton_operating_point(self):
        # pumped into the visibly multi-pair regime: g2_h(0) sits near 0.2
        mu, q, eta_s, rho = 0.135, 0.3, 0.5, 0.47
        stream = sim(2_000_000, mean_pairs_per_pulse=mu, herald_transmittance=q,
                     signal_transmittance=eta_s, splitter_ratio=rho, seed=19)
        hist = heralded_g2(stream, window=10, m_max=1)
        predicted = oracles.g2h_zero_prediction(mu, q, eta_s * rho, eta_s * (1 - rho))
        sigma = hist.g2[0] * math.sqrt(
            1.0 / hist.triples[0] + 1.0 / hist.singles_a + 1.0 / hist.singles_b)
        assert abs(hist.zero_separation - predicted) <= 3.0 * sigma
        assert 0.1 < hist.zero_separation < 0.35

    @pytest.mark.parametrize("channel", [0, 4, 7, 300, -1])
    @pytest.mark.parametrize("arg", ["herald_ch", "ch_a", "ch_b"])
    def test_undeclared_channel_rejected(self, arg, channel):
        stream = random_stream(1, n=10)
        with pytest.raises(ValueError, match=rf"{arg} {channel} not in declared set \[1, 2, 3\]"):
            heralded_g2(stream, **{arg: channel})

    def test_zero_heralds_rejected(self):
        stream = from_records([(1, 0), (3, 5)])
        with pytest.raises(ValueError, match="herald"):
            heralded_g2(stream)

    def test_zero_singles_rejected(self):
        stream = from_records([(2, 1000), (2, 2000), (1, 1001)])
        with pytest.raises(ValueError, match="singles"):
            heralded_g2(stream, window=10)

    def test_window_at_top_of_tick_range(self):
        # the window of the herald at 2**63 - 5 ends past 2**63 - 1
        stream = from_records([(1, TOP - 5), (2, TOP - 4), (3, TOP - 3)])
        assert heralded_g2(stream, window=10).triples.tolist() == [1]
        assert heralded_g2(stream, window=TOP).triples.tolist() == [1]

    @given(records=st.lists(st.tuples(st.integers(1, 3), st.integers(0, 200)), max_size=30),
           window=st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_top_of_tick_range_matches_brute_force(self, records, window):
        stream = from_records([(2, TOP), (1, TOP), (3, TOP)]
                                        + [(c, TOP - back) for c, back in records])
        hist = heralded_g2(stream, window=window, m_max=3)
        expected = oracles.brute_force_g2(stream, 2, 1, 3, window, 3)
        assert hist.triples.tolist() == [t for _, t, _ in expected]

    def test_window_beyond_int64_rejected(self):
        stream = from_records([(1, 0), (2, 1), (3, 2)])
        with pytest.raises(ValueError, match=r"at most 2\*\*63 - 1"):
            heralded_g2(stream, window=2**63)

    def test_m_max_clamped_to_herald_count(self):
        records = [(2, 1000 * k) for k in (1, 2, 3)] + [(1, 1000), (3, 2000), (1, 3000), (3, 3000)]
        hist = heralded_g2(from_records(records), window=4, m_max=10)
        assert hist.separations.tolist() == [0, 1, 2]

    def test_normalization_reconstructable_from_raw_counts(self):
        stream = sim(200_000, seed=3)
        hist = heralded_g2(stream, window=10, m_max=4)
        rebuilt = hist.triples * hist.n_heralds / (hist.singles_a * hist.singles_b)
        np.testing.assert_allclose(hist.g2, rebuilt, rtol=0)

    def test_time_shift_invariance(self):
        stream = sim(100_000, seed=23)
        shifted = TagStream(stream.channels, stream.timestamps + 987_654_321)
        a = heralded_g2(stream, window=10, m_max=4)
        b = heralded_g2(shifted, window=10, m_max=4)
        np.testing.assert_allclose(a.g2, b.g2, rtol=0)


sorted_ticks = st.lists(st.integers(0, 2**63 - 1) | st.integers(0, 400),
                        min_size=1, max_size=300, unique=True).map(
    lambda t: np.array(sorted(t), dtype=np.int64))


class TestDeadTimeFilter:
    """The jump walk against the per-click loop."""

    @settings(max_examples=150, deadline=None)
    @given(ticks=sorted_ticks,
           dead=st.integers(1, 60).map(float) | st.floats(1.0, 60.0) | st.floats(0.0, 1.0)
           | st.floats(1.0, 2.0**64) | st.integers(1, 2**63 - 1).map(float))
    def test_jump_walk_equals_loop(self, ticks, dead):
        kept = tags._dead_time_filter(ticks, dead)
        assert kept.tolist() == oracles.dead_time_loop(ticks, dead).tolist()

    @settings(max_examples=50, deadline=None)
    @given(ticks=sorted_ticks, extra=st.floats(0.0, 1e30) | st.just(math.inf))
    @example(ticks=np.array([0, 2**52], dtype=np.int64), extra=0.0)
    def test_longer_than_span_keeps_first_click(self, ticks, extra):
        # the smallest float strictly above the span: from 2**52 on,
        # float(span) + 0.5 rounds back to the span itself
        span = int(ticks[-1]) - int(ticks[0])
        dead = float(span)
        while dead <= span:
            dead = math.nextafter(dead, math.inf)
        dead += extra
        kept = tags._dead_time_filter(ticks, dead)
        assert kept.tolist() == ticks[:1].tolist() == oracles.dead_time_loop(ticks, dead).tolist()

    @pytest.mark.parametrize("span", [1, 10, 2**52, 2**53])
    def test_dead_time_equal_to_span_keeps_both_clicks(self, span):
        ticks = np.array([0, span], dtype=np.int64)
        assert float(span) == span
        kept = tags._dead_time_filter(ticks, float(span))
        assert kept.tolist() == ticks.tolist() == oracles.dead_time_loop(ticks, float(span)).tolist()

    def test_fractional_threshold_rounds_up(self):
        ticks = np.array([0, 2, 3, 5, 6, 9], dtype=np.int64)
        assert tags._dead_time_filter(ticks, 2.5).tolist() == [0, 3, 6, 9]
        assert tags._dead_time_filter(ticks, 3.0).tolist() == [0, 3, 6, 9]
        for dead in (0.25, 1.0):
            kept = tags._dead_time_filter(ticks, dead)
            assert kept.tolist() == ticks.tolist() == oracles.dead_time_loop(ticks, dead).tolist()

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), dead=st.floats(1.0, 10.0) | st.floats(1.0, 3e6))
    def test_walk_over_several_blocks_equals_loop(self, seed, dead):
        # dense clicks with rare long gaps: many chains of jumps, of many lengths
        rng = np.random.default_rng(seed)
        n = int(rng.integers((1 << 16) + 1, 3 * (1 << 16)))
        gaps = np.where(rng.random(n) < 1e-3, rng.integers(1, 10**6, n), rng.integers(1, 4, n))
        ticks = np.cumsum(gaps)
        kept = tags._dead_time_filter(ticks, dead)
        assert kept.tolist() == oracles.dead_time_loop(ticks, dead).tolist()

    @pytest.mark.parametrize("step", [2, 3, 7])
    def test_short_jumps_cross_block_boundaries(self, step):
        # no gap reaches the dead time, so one chain of jumps runs the whole stream
        ticks = np.arange(3 * (1 << 16) + 5, dtype=np.int64)
        kept = tags._dead_time_filter(ticks, float(step))
        assert kept.tolist() == ticks[::step].tolist()
        assert kept.tolist() == oracles.dead_time_loop(ticks, float(step)).tolist()

    def test_one_chain_through_a_million_clicks(self):
        # every gap is below the dead time: one chain takes every other click
        ticks = np.arange(10**6, dtype=np.int64)
        kept = tags._dead_time_filter(ticks, 2.0)
        assert kept.tolist() == oracles.dead_time_loop(ticks, 2.0).tolist() == ticks[::2].tolist()

    @pytest.mark.parametrize("chains", [1, 2, tags._SCALAR_CHAINS, tags._SCALAR_CHAINS + 1,
                                        3 * tags._SCALAR_CHAINS])
    @pytest.mark.parametrize("dead", [3.0, 4.5])
    def test_long_chains_around_the_scalar_handover(self, chains, dead):
        # runs of close clicks split by gaps past the dead time: one chain per
        # run, of many lengths, so the walk goes scalar part of the way through
        rng = np.random.default_rng(chains)
        gaps = rng.integers(1, 3, 40_000)
        gaps[rng.choice(gaps.size, chains - 1, replace=False)] = 10
        ticks = np.cumsum(gaps)
        kept = tags._dead_time_filter(ticks, dead)
        assert kept.tolist() == oracles.dead_time_loop(ticks, dead).tolist()

    def test_jump_skips_whole_blocks(self):
        # a long burst falls inside the first click's dead time
        burst = np.arange(1, 2 * (1 << 16) + 100, dtype=np.int64)
        tail = burst[-1] + 1000 + 500 * np.arange(1 << 16, dtype=np.int64)
        ticks = np.concatenate(([0], burst, tail))
        dead = float(burst[-1] + 1000)
        kept = tags._dead_time_filter(ticks, dead)
        assert kept[:2].tolist() == [0, tail[0]]
        assert kept.tolist() == oracles.dead_time_loop(ticks, dead).tolist()

    def test_walk_holds_no_list_of_every_target(self):
        # past the input and the result, the jump table (8 bytes a click) and
        # the kept flags (1 byte) are the only arrays of the input's size, as
        # the tables are filled in blocks (three block-sized temporaries:
        # search keys, positions and indices); a Python list of all 10**6
        # jump targets would add over 36 MB
        ticks = 3 * np.arange(1_000_000, dtype=np.int64)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = tags._dead_time_filter(ticks, 300.0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert kept.tolist() == ticks[::100].tolist()
        assert peak < 4 * ticks.nbytes
        assert peak <= 9 * ticks.size + kept.nbytes + 3 * 8 * tags._DEAD_TIME_BLOCK

    @settings(max_examples=100, deadline=None)
    @given(ticks=sorted_ticks, dead=st.integers(2, 60).map(float) | st.floats(1.0, 400.0),
           block=st.integers(1, 9))
    def test_any_table_block_equals_loop(self, ticks, dead, block):
        # the jump table and the gap test filled a few clicks at a time, so
        # chains of jumps and sure clicks cross many block edges
        with mock.patch.object(tags, "_DEAD_TIME_BLOCK", block):
            kept = tags._dead_time_filter(ticks, dead)
        assert kept.tolist() == oracles.dead_time_loop(ticks, dead).tolist()

    @pytest.mark.parametrize("edge_gap", [1, 9, 10])
    def test_sure_click_and_jumps_at_the_table_block_edge(self, edge_gap):
        # clicks one tick apart over two blocks and a bit, with a gap of
        # edge_gap before the first click of the second block.  At a 10-tick
        # dead time that click is sure after a gap of 10; after 9 the chain
        # from the first click jumps across the edge onto it, and after 1 over it
        n = tags._DEAD_TIME_BLOCK
        gaps = np.ones(2 * n + 7, dtype=np.int64)
        gaps[n] = edge_gap
        ticks = np.cumsum(gaps)
        kept = tags._dead_time_filter(ticks, 10.0)
        assert kept.tolist() == oracles.dead_time_loop(ticks, 10.0).tolist()
        assert (ticks[n] in kept) == (edge_gap > 1) and kept[0] == ticks[0]


def open_pulses(u, floor):
    """For each uniform of numpy's multiplication method, whether the pulse
    it multiplies into is still open after it."""
    opened = np.empty(u.size, dtype=bool)
    prod = 1.0
    for i, x in enumerate(u.tolist()):
        prod *= x
        opened[i] = prod > floor
        if not opened[i]:
            prod = 1.0
    return opened


class TestPoissonHot:
    """The non-empty pulses rebuilt from uniforms against rng.poisson."""

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1),
           mu=st.floats(0.0, tags._REBUILD_MAX_MU, exclude_min=True)
           | st.floats(0.0, 10.0, exclude_min=True, exclude_max=True)
           | st.sampled_from([1e-6, 0.05, 9.99]),
           count=st.integers(1, 300_000))
    # a batch of only high uniforms, one of which closes its pulse; the
    # last leaves a pulse open into the next batch
    @example(seed=13, mu=0.3, count=3)
    # a batch ending on a pulse just opened, and on one grown over two highs
    @example(seed=10, mu=0.3, count=64)
    @example(seed=14, mu=0.3, count=64)
    # one pulse open across two batch edges
    @example(seed=170, mu=0.3, count=1)
    @example(seed=5, mu=0.0, count=1000)
    def test_same_pulses_and_state_as_poisson(self, seed, mu, count):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        index, n_pairs = tags._poisson_hot(rng, mu, count)
        ref_index, ref_pairs = oracles.poisson_hot(ref, mu, count)
        assert index.dtype == n_pairs.dtype == np.int64
        assert index.tolist() == ref_index.tolist()
        assert n_pairs.tolist() == ref_pairs.tolist()
        # the binomial draws that follow see the same generator
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_examples_reach_the_batch_edge_cases(self):
        mu = 0.3
        assert mu <= tags._REBUILD_MAX_MU
        floor = math.exp(-mu)
        u = np.random.default_rng(13).random(3)
        assert (u > floor).all() and u[0] * u[1] <= floor
        u = np.random.default_rng(10).random(64)
        assert u[62] <= floor < u[63]
        u = np.random.default_rng(14).random(64)
        assert u[61] <= floor < u[62] and u[62] * u[63] > floor
        u = np.random.default_rng(170).random(3)
        assert 1.0 * u[0] * u[1] > floor >= 1.0 * u[0] * u[1] * u[2]

    @pytest.mark.parametrize("block, seed", [(1, 28), (2, 1), (7, 4), (tags._UNIFORM_BLOCK, 3)])
    def test_pulses_open_across_uniform_blocks(self, monkeypatch, block, seed):
        # more pulses than two blocks of uniforms at mu = 0.3: the first two
        # batches are whole blocks, and at these seeds a pulse is left open at
        # the end of each, so its product carries across the block edge
        monkeypatch.setattr(tags, "_UNIFORM_BLOCK", block)
        opened = open_pulses(np.random.default_rng(seed).random(2 * block), math.exp(-0.3))
        assert opened[block - 1] and opened[2 * block - 1]
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        index, n_pairs = tags._poisson_hot(rng, 0.3, 2 * block + 11)
        ref_index, ref_pairs = oracles.poisson_hot(ref, 0.3, 2 * block + 11)
        assert index.tolist() == ref_index.tolist()
        assert n_pairs.tolist() == ref_pairs.tolist()
        assert rng.bit_generator.state == ref.bit_generator.state


class TestSimulateTags:
    def test_deterministic_given_seed(self):
        cfg = SimulationConfig(duration=5000 * REP, mean_pairs_per_pulse=0.05,
                               jitter_std=100e-12, dark_rates=(200.0, 0.0, 50.0), seed=3)
        s1, s2 = simulate_tags(cfg), simulate_tags(cfg)
        assert np.array_equal(s1.channels, s2.channels)
        assert np.array_equal(s1.timestamps, s2.timestamps)

    def test_seed_changes_stream(self):
        a = sim(5000, seed=1)
        b = sim(5000, seed=2)
        assert not (len(a) == len(b) and np.array_equal(a.timestamps, b.timestamps))

    def test_no_pairs_no_darks_empty(self):
        stream = sim(10_000, mean_pairs_per_pulse=0.0)
        assert len(stream) == 0

    def test_lossless_limit_pairs_click_in_the_same_slot(self):
        n_pulses = 100_000
        stream = sim(n_pulses, mean_pairs_per_pulse=0.01, herald_transmittance=1.0,
                     signal_transmittance=1.0, seed=4)
        heralds = stream.channel_timestamps(2)
        signals = np.sort(np.concatenate([stream.channel_timestamps(1),
                                          stream.channel_timestamps(3)]))
        pair_pulses = np.count_nonzero(np.random.default_rng(4).poisson(0.01, n_pulses))
        assert heralds.size == pair_pulses
        assert np.isin(heralds, signals).all()

    def test_singles_match_closed_form(self):
        mu, q, eta_s, rho = 0.05, 0.3, 0.5, 0.47
        n_pulses = 1_000_000
        stream = sim(n_pulses, mean_pairs_per_pulse=mu, herald_transmittance=q,
                     signal_transmittance=eta_s, splitter_ratio=rho, seed=11)
        probs = oracles.pulse_click_probabilities(mu, q, eta_s * rho, eta_s * (1 - rho))
        counts = counts_by_channel(stream)
        for channel, key in ((1, "A"), (2, "H"), (3, "B")):
            expected = n_pulses * probs[key]
            sigma = math.sqrt(n_pulses * probs[key] * (1.0 - probs[key]))
            assert abs(counts[channel] - expected) <= 3.0 * sigma

    def test_dead_time_monotonicity(self):
        kwargs = dict(mean_pairs_per_pulse=0.1, herald_transmittance=0.6,
                      signal_transmittance=0.8, dark_rates=(500.0, 500.0, 500.0), seed=9)
        previous = None
        for dead in (0.0, 1e-6, 15e-6, 50e-6):
            counts = counts_by_channel(sim(200_000, dead_time=dead, **kwargs))
            if previous is not None:
                for channel in (1, 2, 3):
                    assert counts.get(channel, 0) <= previous.get(channel, 0)
            previous = counts

    def test_dark_counts_only(self):
        duration = 0.01
        rate = 50_000.0
        stream = simulate_tags(SimulationConfig(
            duration=duration, mean_pairs_per_pulse=0.0,
            dark_rates=(rate, 0.0, 0.0), dead_time=0.0, seed=7))
        n = counts_by_channel(stream).get(1, 0)
        assert abs(n - rate * duration) <= 3.0 * math.sqrt(rate * duration)
        # uniform arrival: mean timestamp near mid-acquisition
        mean_t = stream.timestamps.mean() * TICK_SECONDS
        assert abs(mean_t - duration / 2) <= 3.0 * duration / math.sqrt(12 * n)

    def test_jitter_spreads_clicks_off_the_pulse_grid(self):
        jitter = 200e-12
        stream = sim(200_000, jitter_std=jitter, seed=13)
        ticks = stream.channel_timestamps(2).astype(float)
        slots = np.rint(ticks / REP_TICKS)
        residual_ticks = ticks - slots * REP_TICKS
        measured = residual_ticks.std() * TICK_SECONDS
        # quantization adds ~ (81 ps)^2/12 in variance
        expected = math.sqrt(jitter**2 + TICK_SECONDS**2 / 12.0)
        assert measured == pytest.approx(expected, rel=0.1)

    def test_unsorted_clicks_with_same_tick_arrivals_are_pinned(self):
        # 10 ns ticks, 20 ns jitter and MHz darks: clicks arrive unsorted and
        # some share a tick; the stream is pinned to its np.unique-based bytes
        stream = simulate_tags(SimulationConfig(
            duration=20_000 * REP, mean_pairs_per_pulse=0.2, herald_transmittance=0.3,
            signal_transmittance=0.5, dark_rates=(2e6, 5e6, 2e6), jitter_std=20e-9,
            dead_time=50e-9, tick_duration=10e-9, seed=3))
        digest = hashlib.sha256(stream.channels.tobytes() + stream.timestamps.tobytes())
        assert counts_by_channel(stream) == {1: 2754, 2: 5107, 3: 2812}
        assert digest.hexdigest() == (
            "944d0bcd19581e57b3ababfd268d109818681179a69b4f74208e31b5f46e43a3")

    @pytest.mark.parametrize("overrides, counts, expected", [
        # 2.5e6 pulses span three 1e6-pulse chunks
        (dict(duration=2_500_000 * REP, mean_pairs_per_pulse=0.05, dead_time=15e-6),
         {1: 6486, 2: 5250, 3: 6730},
         "8a4c069fa7c9bfbfa43c76d16c0650e27291ba0e41c29da0823a805eb30afd8a"),
        (dict(duration=1_200_000 * REP, mean_pairs_per_pulse=3.0, herald_transmittance=0.3,
              signal_transmittance=0.5, dark_rates=(2e4, 5e4, 2e4), jitter_std=50e-12,
              dead_time=1e-6),
         {1: 60081, 2: 60977, 3: 60546},
         "a17ede23ddb0d026697ba286787ad8c367eca0980d9008fe86d8c699c008b1c8"),
    ])
    def test_multi_chunk_streams_are_pinned(self, overrides, counts, expected):
        # pinned to the bytes of one rng.poisson variate per pulse
        stream = simulate_tags(SimulationConfig(seed=12, **overrides))
        digest = hashlib.sha256(stream.channels.tobytes() + stream.timestamps.tobytes())
        assert counts_by_channel(stream) == counts
        assert digest.hexdigest() == expected

    def test_memory_above_the_stream_is_bounded_per_click(self, tmp_path):
        # 2.5e6 pulses in three chunks at mu = 0.3 and 100 ns of dead time:
        # about a million clicks.  Above the stream it returns, simulating and
        # writing it hold each chunk's clicks (8 bytes a click before the dead
        # time), one channel's sorted clicks and jump table, the merge's sort
        # order, and blocks of uniforms and records: 21.6 bytes a click
        # measured, against 67.5 with whole-stream temporaries.
        config = SimulationConfig(duration=2_500_000 * REP, mean_pairs_per_pulse=0.3,
                                  herald_transmittance=0.9, signal_transmittance=0.9,
                                  dead_time=100e-9, seed=5)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            stream = simulate_tags(config)
            write_tags_binary(stream, tmp_path / "tags.bin")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        held = stream.channels.nbytes + stream.timestamps.nbytes
        assert held == 9 * len(stream) and len(stream) > 10**6
        assert peak - held <= 24 * len(stream)

    def test_thermal_statistics_differ_from_poisson(self):
        a = sim(200_000, pair_statistics="poisson", seed=31)
        b = sim(200_000, pair_statistics="thermal", seed=31)
        assert not np.array_equal(a.timestamps, b.timestamps)

    @pytest.mark.parametrize("overrides", [
        {"mean_pairs_per_pulse": -0.1},
        {"herald_transmittance": 1.2},
        {"signal_transmittance": -0.3},
        {"splitter_ratio": 2.0},
        {"dark_rates": (-1.0, 0.0, 0.0)},
        {"dark_rates": (0.0, 0.0)},
        {"dead_time": -1e-6},
        {"jitter_std": -1e-12},
        {"pair_statistics": "uniform"},
        {"rep_period": 0.0},
        {"tick_duration": 0.0},
        {"duration": -1.0},
        {"dead_time": math.nan},
    ])
    def test_invalid_config_rejected(self, overrides):
        base = dict(duration=100 * REP, mean_pairs_per_pulse=0.05)
        base.update(overrides)
        with pytest.raises(ValueError):
            SimulationConfig(**base)

    def test_pulses_shorter_than_a_tick_rejected(self):
        # a 1 s run at 1e-300 s would otherwise ask for about 1e300 pulses
        with pytest.raises(ValueError, match=r"rep_period \(1e-300 s\).*tick_duration \(8.1e-11 s\)"):
            SimulationConfig(duration=1.0, mean_pairs_per_pulse=0.05, rep_period=1e-300)
        one_tick = SimulationConfig(duration=1e-6, mean_pairs_per_pulse=0.05,
                                    rep_period=TICK_SECONDS)
        assert one_tick.n_pulses == round(1e-6 / TICK_SECONDS)

    @pytest.mark.parametrize("duration", [1e300, math.inf, 7.5e8])
    def test_duration_beyond_int64_ticks_rejected(self, duration):
        # ceil(duration / 81 ps) must fit the stream's int64 duration_ticks
        with pytest.raises(ValueError, match=r"2\*\*63 - 1"):
            SimulationConfig(duration=duration, mean_pairs_per_pulse=0.05)
        assert SimulationConfig(duration=7.4e8, mean_pairs_per_pulse=0.05).duration == 7.4e8

    def test_jitter_past_the_int64_tick_range_rejected(self):
        with pytest.raises(ValueError, match="jitter_std"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no cast warning on the way
                sim(10_000, jitter_std=1e18)

    def test_jittered_clicks_outside_the_acquisition(self):
        # a click jittered before the start is clamped to tick 0; one jittered
        # past the end keeps its tick (docs/formats.md, jitter_ps), and the
        # stream keeps the acquisition's length
        stream = sim(10_000, jitter_std=10.0)
        assert stream.timestamps.min() == 0
        assert stream.duration_ticks == math.ceil(10_000 * REP / TICK_SECONDS)
        assert stream.timestamps.max() > stream.duration_ticks

    @pytest.mark.parametrize("statistics", ["poisson", "thermal"])
    def test_largest_mean_pairs_per_pulse_accepted(self, statistics):
        stream = sim(100, mean_pairs_per_pulse=1e15, pair_statistics=statistics)
        assert counts_by_channel(stream) == {1: 100, 2: 100, 3: 100}
        with pytest.raises(ValueError, match=r"mean_pairs_per_pulse must be at most 1e\+15, got 1e\+30"):
            SimulationConfig(duration=100 * REP, mean_pairs_per_pulse=1e30)


def histogram(bin_width, counts):
    """A CoincidenceHistogram of the given counts, centred on zero delay."""
    return CoincidenceHistogram(
        bin_width=bin_width, delay_range=bin_width * (len(counts) // 2), counts=counts,
        tick_duration=TICK_SECONDS, duration_ticks=12345, ch_a=1, ch_b=2, n_ch_a=7, n_ch_b=9)


class TestTextWriters:
    """The numpy integer layout against the per-record writers it replaces."""

    @staticmethod
    def assert_same_bytes(write, oracle, value, tmp_path):
        write(value, tmp_path / "new")
        oracle(value, tmp_path / "old")
        assert (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(records=st.lists(st.tuples(st.integers(1, 3),
                                      st.integers(0, 2**63 - 1) | st.integers(0, 1000))))
    @example(records=[(1, 0), (2, 9), (3, 10), (1, 2**63 - 1)])
    @example(records=[(2, 0)])
    @example(records=[])
    def test_tags_text_equals_per_record_writer(self, tmp_path_factory, records):
        self.assert_same_bytes(write_tags_text, oracles.write_tags_text_records,
                               from_records(records),
                               tmp_path_factory.mktemp("tags"))

    @pytest.mark.parametrize("block", [1, 7])
    def test_tags_text_across_block_edges(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(tags, "_TEXT_BLOCK", block)
        stream = sim(3000, jitter_std=120e-12, seed=4)
        assert len(stream) % block or block == 1
        self.assert_same_bytes(write_tags_text, oracles.write_tags_text_records,
                               stream, tmp_path)

    @settings(max_examples=40, deadline=None)
    @given(records=st.lists(st.tuples(st.integers(1, 3),
                                      st.integers(0, 2**63 - 1) | st.integers(0, 1000))))
    @example(records=[])
    def test_tags_binary_equals_per_record_writer(self, tmp_path_factory, records):
        self.assert_same_bytes(write_tags_binary, oracles.write_tags_binary_records,
                               from_records(records), tmp_path_factory.mktemp("bin"))

    @pytest.mark.parametrize("block", [1, 7])
    def test_tags_binary_across_block_edges(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(tags, "_TEXT_BLOCK", block)
        stream = sim(3000, jitter_std=120e-12, seed=4)
        assert len(stream) % block or block == 1
        self.assert_same_bytes(write_tags_binary, oracles.write_tags_binary_records,
                               stream, tmp_path)

    def test_empty_stream_writes_the_header_only(self, tmp_path):
        empty = TagStream(np.zeros(0, np.int64), np.zeros(0, np.int64), tick_duration=50e-12)
        write_tags_text(empty, tmp_path / "tags.txt")
        assert (tmp_path / "tags.txt").read_bytes() == b"#tick_ps 50\n"

    @settings(max_examples=60, deadline=None)
    @given(bin_width=st.integers(1, 10**6),
           counts=st.lists(st.integers(0, 2**63 - 1) | st.just(0), max_size=40))
    @example(bin_width=1, counts=[0])
    @example(bin_width=1, counts=[5])
    @example(bin_width=7, counts=[0, 3, 0])
    @example(bin_width=2**63 - 1, counts=[2**63 - 1, 0, 1])
    def test_coincidence_csv_equals_per_record_writer(self, tmp_path_factory, bin_width, counts):
        counts = counts[:(len(counts) - 1) // 2 * 2 + 1] or [0]  # an odd number of bins
        self.assert_same_bytes(write_coincidence_csv, oracles.write_coincidence_csv_records,
                               histogram(bin_width, counts), tmp_path_factory.mktemp("csv"))

    @pytest.mark.parametrize("block", [1, 7])
    def test_coincidence_csv_across_block_edges(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(tags, "_TEXT_BLOCK", block)
        counts = np.random.default_rng(block).integers(0, 3, 2 * 30 + 1)
        hist = histogram(10, counts)
        assert hist.delay_centers.min() < 0 and (counts == 0).any()
        self.assert_same_bytes(write_coincidence_csv, oracles.write_coincidence_csv_records,
                               hist, tmp_path)

    def test_coincidence_csv_of_a_simulated_stream(self, tmp_path):
        stream = sim(50_000, jitter_std=120e-12, seed=2)
        hist = coincidence_histogram(stream, 1, 2, bin_width=10, delay_range=2000)
        self.assert_same_bytes(write_coincidence_csv, oracles.write_coincidence_csv_records,
                               hist, tmp_path)

    @settings(max_examples=60, deadline=None)
    @given(bin_width=st.integers(1, 10**6),
           counts=st.lists(st.integers(0, 2**63 - 1) | st.just(0), max_size=40))
    @example(bin_width=1, counts=[0])
    @example(bin_width=2**63 - 1, counts=[2**63 - 1, 0, 1])
    def test_coincidence_json_equals_list_writer(self, tmp_path_factory, bin_width, counts):
        counts = counts[:(len(counts) - 1) // 2 * 2 + 1] or [0]  # an odd number of bins
        self.assert_same_bytes(write_coincidence_json, oracles.write_coincidence_json_lists,
                               histogram(bin_width, counts), tmp_path_factory.mktemp("json"))

    @pytest.mark.parametrize("block", [1, 7, 61, 62])
    def test_coincidence_json_across_block_edges(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(tags, "_TEXT_BLOCK", block)
        counts = np.random.default_rng(block).integers(0, 3, 2 * 30 + 1)
        self.assert_same_bytes(write_coincidence_json, oracles.write_coincidence_json_lists,
                               histogram(10, counts), tmp_path)

    def test_coincidence_json_memory_bounded_by_block(self, tmp_path):
        # +-10**6 bins of 7-digit delays: 24 MB of text, 190 MB peak as Python lists
        hist = histogram(3, np.arange(2 * 10**6 + 1) % 1000)
        tracemalloc.start()
        try:
            write_coincidence_json(hist, tmp_path / "coinc.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 16 MB delays array and a few blocks of text (19.9 MB measured)
        assert peak < 2 * 8 * hist.counts.size

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(-2**63, 2**63 - 1), st.integers(-9, 9)),
                         min_size=1))
    @example(rows=[(-2**63, 0), (0, -1), (2**63 - 1, 10)])
    def test_int_text_is_str_of_each_value(self, rows):
        a, b = (np.array(column, dtype=np.int64) for column in zip(*rows))
        want = "".join(f"{x};{y}|" for x, y in rows).encode()
        assert tags._int_text((a, b), b";|") == want

    def test_memory_bounded_by_block(self, tmp_path):
        # 10**6 records of 19-digit timestamps: 22 MB of text
        n = 1_000_000
        ticks = np.arange(n, dtype=np.int64) * 4099 + 2**62
        stream = TagStream(np.ones(n, np.int64), ticks)
        tracemalloc.start()
        try:
            write_tags_text(stream, tmp_path / "tags.txt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = (tmp_path / "tags.txt").stat().st_size
        assert size == len("#tick_ps 81\n") + 22 * n
        # the text of one block, its layout matrix and the translated copy
        # are a few blocks' worth (6.0 MB measured); the whole text is 22 MB
        block_text = 22 * tags._TEXT_BLOCK
        assert peak < 6 * block_text < size / 2


class TestResultWriters:
    def test_coincidence_csv_echoes_parameters(self, tmp_path):
        stream = sim(50_000, seed=2)
        hist = coincidence_histogram(stream, 1, 2, bin_width=10, delay_range=2000)
        path = tmp_path / "coinc.csv"
        write_coincidence_csv(hist, path)
        text = path.read_text()
        assert "# bin_width_ticks 10" in text
        assert "# delay_range_ticks 2000" in text
        assert "# channels 1,2" in text
        assert "delay_ticks,count" in text
        rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        assert len(rows) == 1 + hist.counts.size

    def test_coincidence_json_roundtrip_and_determinism(self, tmp_path):
        stream = sim(50_000, seed=2)
        hist = coincidence_histogram(stream, 1, 2, bin_width=10, delay_range=2000)
        path = tmp_path / "coinc.json"
        write_coincidence_json(hist, path)
        first = path.read_bytes()
        write_coincidence_json(hist, path)
        assert path.read_bytes() == first
        payload = json.loads(first)
        assert payload["schema"] == "taperfwm.coincidences/1"
        assert payload["counts"] == hist.counts.tolist()
        assert payload["delay_ticks"] == hist.delay_centers.tolist()

    def test_g2_writers(self, tmp_path):
        stream = sim(200_000, seed=3)
        hist = heralded_g2(stream, window=10, m_max=4)
        csv_path = tmp_path / "g2.csv"
        json_path = tmp_path / "g2.json"
        write_g2_csv(hist, csv_path)
        write_g2_json(hist, json_path)
        text = csv_path.read_text()
        assert "# window_ticks 10" in text
        assert f"# n_heralds {hist.n_heralds}" in text
        assert "separation,g2,triples" in text
        rows = [line.split(",") for line in text.splitlines()
                if line and not line.startswith(("#", "separation"))]
        assert [float(g) for _, g, _ in rows] == hist.g2.tolist()
        payload = json.loads(json_path.read_text())
        assert payload["schema"] == "taperfwm.g2h/1"
        assert payload["g2"] == hist.g2.tolist()
        assert payload["triples"] == hist.triples.tolist()
