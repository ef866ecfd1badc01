"""Spectrum kernel: the subcarrier sum in partial-fraction form.

The duration-T rectangular pulse has transform
D(v) = T sinc(v T) exp(-1j pi v T) = (1 - exp(-2j pi v T)) / (2j pi v), so

    sum_n a_n D(f - x_n) = [A(f) - exp(-2j pi f T) B(f)] / (2j pi),
    A(f) = sum_n a_n / (f - x_n),  B(f) = sum_n a_n c_n / (f - x_n),

with c_n = exp(2j pi x_n T), both from one real matrix product per frequency
chunk.  Near x_n, A and exp(-2j pi f T) B cancel (at f = x_n both are
infinite), so the terms with |f - x_n| T < 1 are zeroed in the matrix and
added in exact sinc form.  As x_n = n gamma, they lie in the columns
floor(f / gamma) + k with |k| <= w = ceil(1 / (gamma T)) + 1.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 8192


def spectrum_power(freqs: np.ndarray, amps: np.ndarray, gamma: float,
                   pulse_t: float) -> np.ndarray:
    """|sum_n amps[n] D(f - n gamma)|^2 per grid point, via one (chunk x N) buffer."""
    n = len(amps)
    sub_freqs = np.arange(n, dtype=np.float64) * gamma
    # x T and f T are reduced mod 1 before the 2 pi scaling, so a phase
    # carries only the rounding of the product, however large it is
    twisted = amps * np.exp(2j * np.pi * np.mod(sub_freqs * pulse_t, 1.0))
    coef = np.stack([amps.real, amps.imag, twisted.real, twisted.imag], axis=1)
    w = int(np.ceil(1.0 / (gamma * pulse_t))) + 1
    out = np.empty(len(freqs), dtype=np.float64)
    buf = np.empty((min(_CHUNK, len(freqs)), n), dtype=np.float64)
    for start in range(0, len(freqs), _CHUNK):
        f = freqs[start:start + _CHUNK]
        inv = np.subtract(f[:, None], sub_freqs, out=buf[:len(f)])
        with np.errstate(divide="ignore"):
            np.reciprocal(inv, out=inv)
        # clipped before the cast: a row far outside the band has no candidate
        cand = np.floor(np.clip(f / gamma, -w - 1, n + w)).astype(np.int64)[:, None] \
            + np.arange(-w, w + 1)
        vt = (f[:, None] - sub_freqs[np.clip(cand, 0, n - 1)]) * pulse_t
        rows, k = np.nonzero((np.abs(vt) < 1.0) & (cand >= 0) & (cand < n))
        cols, vt = cand[rows, k], vt[rows, k]
        inv[rows, cols] = 0.0
        a, b = (inv @ coef).view(np.complex128).T  # A(f) and B(f)
        acc = (a - np.exp(-2j * np.pi * np.mod(f * pulse_t, 1.0)) * b) / (2j * np.pi)
        terms = amps[cols] * (pulse_t * np.sinc(vt) * np.exp(-1j * np.pi * vt))
        acc += np.bincount(rows, terms.real, len(f)) \
            + 1j * np.bincount(rows, terms.imag, len(f))
        out[start:start + _CHUNK] = np.abs(acc) ** 2
    return out
