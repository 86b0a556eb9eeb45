"""Test helpers for channel tables: hand-built tables and single-rate lookup."""

import numpy as np

from electrolum.dissipators import ChannelTable


def channel_table(rows) -> ChannelTable:
    """A table of (from_index, to_index, rate, freq, bath) rows; empty for no rows."""
    rows = list(rows)
    columns = zip(*rows) if rows else ((),) * 5
    return ChannelTable(*(np.array(col, dtype=dtype)
                          for col, dtype in zip(columns, (int, int, float, float, str))))


def find_channel(channels: ChannelTable, from_index: int, to_index: int) -> float:
    """Rate of the channel from_index -> to_index, or 0.0 if absent/gated away."""
    for ch in channels:
        if ch.from_index == from_index and ch.to_index == to_index:
            return ch.rate
    return 0.0
