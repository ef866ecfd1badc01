"""Spectrum kernel: the subcarrier sum in partial-fraction form.

The duration-T rectangular pulse has transform
D(v) = T sinc(v T) exp(-1j pi v T) = (1 - exp(-2j pi v T)) / (2j pi v), so

    sum_n a_n D(f - x_n) = [A(f) - exp(-2j pi f T) B(f)] / (2j pi),
    A(f) = sum_n a_n / (f - x_n),  B(f) = sum_n a_n c_n / (f - x_n),

with c_n = exp(2j pi x_n T), both from one real matrix product per frequency
chunk.  The Cauchy matrix 1/(f - x_n) is held subcarrier-major, in one
N x chunk buffer: row n is one long subtract over the chunk's frequencies,
and the product is the 4 x N coefficients times the buffer.  Near x_n, A
and exp(-2j pi f T) B cancel (at f = x_n both are infinite), so the terms
with |f - x_n| T < 1 are zeroed in the matrix and added in exact sinc form.
As x_n = n gamma, they lie in the rows n = floor(f / gamma) + k with
|k| <= w = ceil(1 / (gamma T)) + 1, which are sought only for the points
with -(w + 1) < f / gamma < N + w.  So the Cauchy matrix, O(N) per point,
is the kernel's cost; the near field is O(w) per point near the band and
nothing elsewhere.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 8192


def spectrum_power(freqs: np.ndarray, amps: np.ndarray, gamma: float,
                   pulse_t: float) -> np.ndarray:
    """|sum_n amps[n] D(f - n gamma)|^2 per grid point, via one (N x chunk) buffer."""
    n = len(amps)
    sub_freqs = np.arange(n, dtype=np.float64) * gamma
    # x T and f T are reduced mod 1 before the 2 pi scaling, so a phase
    # carries only the rounding of the product, however large it is
    twisted = amps * np.exp(2j * np.pi * np.mod(sub_freqs * pulse_t, 1.0))
    coef = np.stack([amps.real, amps.imag, twisted.real, twisted.imag])
    w = int(np.ceil(1.0 / (gamma * pulse_t))) + 1
    out = np.empty(len(freqs), dtype=np.float64)
    buf = np.empty((n, min(_CHUNK, len(freqs))), dtype=np.float64)
    acc_buf, b_buf = np.empty((2, buf.shape[1]), dtype=complex)
    for start in range(0, len(freqs), _CHUNK):
        f = freqs[start:start + _CHUNK]
        inv = np.subtract(f, sub_freqs[:, None], out=buf[:, :len(f)])
        with np.errstate(divide="ignore"):
            np.reciprocal(inv, out=inv)
        # only a point with -(w + 1) < f / gamma < n + w has a candidate row in
        # [0, n); the others, far outside the band too, are never cast to int
        pos = f / gamma
        near = np.flatnonzero((pos > -w - 1) & (pos < n + w))
        cand = np.floor(pos[near]).astype(np.int64)[:, None] + np.arange(-w, w + 1)
        vt = (f[near, None] - sub_freqs[np.clip(cand, 0, n - 1)]) * pulse_t
        rows, k = np.nonzero((np.abs(vt) < 1.0) & (cand >= 0) & (cand < n))
        cols, vt, rows = cand[rows, k], vt[rows, k], near[rows]
        inv[cols, rows] = 0.0
        # A(f) and B(f), as (4 x N) @ (N x chunk): the transposed product
        # inv.T @ coef.T took 3 to 5 times as long at N = 139 to 720
        a_re, a_im, b_re, b_im = coef @ inv
        # (A - exp(-2j pi f T) B) / (2j pi), in place, operation for operation
        acc = np.multiply(1j, a_im, out=acc_buf[:len(f)])
        np.add(a_re, acc, out=acc)
        b = np.multiply(1j, b_im, out=b_buf[:len(f)])
        np.add(b_re, b, out=b)
        np.multiply(np.exp(-2j * np.pi * np.mod(f * pulse_t, 1.0)), b, out=b)
        np.subtract(acc, b, out=acc)
        np.divide(acc, 2j * np.pi, out=acc)
        if len(rows):
            terms = amps[cols] * (pulse_t * np.sinc(vt) * np.exp(-1j * np.pi * vt))
            acc += np.bincount(rows, terms.real, len(f)) \
                + 1j * np.bincount(rows, terms.imag, len(f))
        out[start:start + _CHUNK] = np.abs(acc) ** 2
    return out
