"""Test helpers for the bath rate matrices: hand-built records and single-rate lookup."""

import numpy as np

from electrolum.dissipators import BathRates


def bath_rates(energies, cavity=None, electron_in=None, electron_out=None) -> BathRates:
    """A record of hand-built rate matrices [to, from]; a bath left out has no channel."""
    zero = np.zeros((len(energies),) * 2)
    return BathRates(*(zero if rates is None else rates
                       for rates in (cavity, electron_in, electron_out)), energies)


def find_channel(channels: BathRates, from_index: int, to_index: int) -> float:
    """Summed rate of the jumps from_index -> to_index, or 0.0 if none is open."""
    return float(sum(rates[to_index, from_index] for rates in
                     (channels.cavity, channels.electron_in, channels.electron_out)))
