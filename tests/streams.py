"""Tag-stream helpers for the tests: a stream from records, and its clicks per channel."""

import numpy as np

from taperfwm.tags import TICK_SECONDS, TagStream


def from_records(records, tick_duration=TICK_SECONDS, duration_ticks=None) -> TagStream:
    """A stream of (channel, timestamp) pairs given in any order, sorted by
    (timestamp, channel)."""
    pairs = np.array([(c, t) for c, t in records], dtype=np.int64).reshape(-1, 2)
    ch, ts = pairs[:, 0], pairs[:, 1]
    order = np.lexsort((ch, ts))
    return TagStream(ch[order], ts[order], tick_duration, duration_ticks)


def counts_by_channel(stream: TagStream) -> dict:
    """Clicks per channel, for the channels that have any."""
    return {int(c): int(n) for c, n in zip(*np.unique(stream.channels, return_counts=True))}
