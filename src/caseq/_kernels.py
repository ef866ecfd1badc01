"""Spectrum kernel: the per-grid-point sinc sum over the subcarriers."""

from __future__ import annotations

import numpy as np

_CHUNK = 8192


def spectrum_power(freqs: np.ndarray, amps: np.ndarray, sub_freqs: np.ndarray,
                   pulse_t: float) -> np.ndarray:
    """|sum_n amps[n] * D(f - sub_freqs[n])|^2 on the frequency grid.

    D(v) = T * sinc(v T) * exp(-1j pi v T) is the transform of the
    duration-T rectangular pulse.  Evaluated in frequency chunks to bound
    the broadcast temporaries.
    """
    out = np.empty(len(freqs), dtype=np.float64)
    for start in range(0, len(freqs), _CHUNK):
        f = freqs[start:start + _CHUNK, None]
        v = (f - sub_freqs[None, :]) * pulse_t
        d = pulse_t * np.sinc(v) * np.exp(-1j * np.pi * v)
        acc = d @ amps
        out[start:start + _CHUNK] = np.abs(acc) ** 2
    return out
