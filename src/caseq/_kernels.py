"""Spectrum kernel: the subcarrier sum in partial-fraction form.

The duration-T rectangular pulse has transform
D(v) = T sinc(v T) exp(-1j pi v T) = (1 - exp(-2j pi v T)) / (2j pi v), so

    sum_n a_n D(f - x_n) = [A(f) - exp(-2j pi f T) B(f)] / (2j pi),
    A(f) = sum_n a_n / (f - x_n),  B(f) = sum_n a_n c_n / (f - x_n),

with c_n = exp(2j pi x_n T).  The two Cauchy sums share one real matrix of
1/(f - x_n), so a frequency chunk costs one matrix product and one exp per
grid point.  Near a subcarrier A and exp(-2j pi f T) B cancel, and at
f = x_n both are infinite, so every term with |f - x_n| T < 1 is left out of
the Cauchy sums and added in its exact sinc form instead; each grid point
has only a few such terms.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 8192


def spectrum_power(freqs: np.ndarray, amps: np.ndarray, sub_freqs: np.ndarray,
                   pulse_t: float) -> np.ndarray:
    """|sum_n amps[n] * D(f - sub_freqs[n])|^2 on the frequency grid.

    D(v) = T * sinc(v T) * exp(-1j pi v T) is the transform of the
    duration-T rectangular pulse.  Evaluated in frequency chunks to bound
    the (chunk x N) temporaries.
    """
    # x T and f T are reduced mod 1 before the 2 pi scaling, so a phase
    # carries only the rounding of the product, however large it is
    twisted = amps * np.exp(2j * np.pi * np.mod(sub_freqs * pulse_t, 1.0))
    coef = np.stack([amps.real, amps.imag, twisted.real, twisted.imag], axis=1)
    out = np.empty(len(freqs), dtype=np.float64)
    for start in range(0, len(freqs), _CHUNK):
        f = freqs[start:start + _CHUNK]
        v = f[:, None] - sub_freqs[None, :]
        near = np.abs(v) * pulse_t < 1.0
        inv = np.divide(1.0, v, out=np.zeros_like(v), where=~near)
        cauchy = inv @ coef
        a_sum = cauchy[:, 0] + 1j * cauchy[:, 1]
        b_sum = cauchy[:, 2] + 1j * cauchy[:, 3]
        acc = (a_sum - np.exp(-2j * np.pi * np.mod(f * pulse_t, 1.0)) * b_sum) \
            / (2j * np.pi)
        rows, cols = np.nonzero(near)
        vt = v[rows, cols] * pulse_t
        terms = amps[cols] * (pulse_t * np.sinc(vt) * np.exp(-1j * np.pi * vt))
        acc += np.bincount(rows, terms.real, len(f)) \
            + 1j * np.bincount(rows, terms.imag, len(f))
        out[start:start + _CHUNK] = np.abs(acc) ** 2
    return out
