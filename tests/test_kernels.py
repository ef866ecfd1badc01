import math

import numpy as np
import pytest

from caseq import _kernels


def _workload(n=96, points=4096):
    rng = np.random.default_rng(0)
    amps = np.exp(2j * np.pi * rng.random(n)) / math.sqrt(n)
    f = np.linspace(-4.0 * n, 5.0 * n, points)
    return f, amps, 1, 1.125


def _closed_form(f, amps, gamma, t):
    """Unchunked sum_n a_n (1 - exp(-2j pi v T)) / (2j pi v), v = f - n gamma."""
    v = f[:, None] - np.arange(len(amps)) * gamma
    safe = np.where(v == 0, 1.0, v)
    d = np.where(v == 0, t, (1 - np.exp(-2j * np.pi * safe * t))
                 / (2j * np.pi * safe))
    return np.abs(d @ amps) ** 2


def _mask_kernel(freqs, amps, sub_freqs, pulse_t):
    """Reference: the same partial-fraction sums with the near field found by
    a full-matrix mask, |f - x_n| T < 1 tested for every (f, n) pair."""
    twisted = amps * np.exp(2j * np.pi * np.mod(sub_freqs * pulse_t, 1.0))
    coef = np.stack([amps.real, amps.imag, twisted.real, twisted.imag], axis=1)
    out = np.empty(len(freqs), dtype=np.float64)
    for start in range(0, len(freqs), _kernels._CHUNK):
        f = freqs[start:start + _kernels._CHUNK]
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
        out[start:start + _kernels._CHUNK] = np.abs(acc) ** 2
    return out


def _edge_grid(n, gamma, t, rng):
    """Points on every subcarrier, at and one ulp either side of x_n +- 1/T,
    between subcarriers, at the band edges and far outside, shuffled."""
    x = np.arange(n, dtype=np.float64) * gamma
    switch = np.concatenate([x + 1.0 / t, x - 1.0 / t])
    edges = np.concatenate([switch, np.nextafter(switch, np.inf),
                            np.nextafter(switch, -np.inf)])
    between = x + gamma * rng.random(n)
    far = np.array([-1e300, -1e19, -1e6 * n, -3.0 * n * gamma, x[-1] + 3.0 * n * gamma,
                    1e6 * n, 1e19, 1e300])
    return rng.permutation(np.concatenate([x, edges, between, far]))


@pytest.mark.parametrize("gamma, t", [(1, 1.125), (1, 1 + 33 / 256), (2, 1.5), (2, 1.0),
                                      (1, 0.3)],
                         ids=["g1-t1.125", "g1-t1.129", "g2-t1.5", "g2-t1", "g1-t0.3"])
@pytest.mark.parametrize("n, points", [(48, None), (139, 2 * _kernels._CHUNK + 37)],
                         ids=["one-chunk", "seams"])
@pytest.mark.filterwarnings("error")  # e.g. an int cast of a far-out f / gamma
def test_index_near_field_matches_mask_bit_for_bit(gamma, t, n, points):
    # 1/(gamma T) is non-integer except at gamma 2, T 1, and above 1 at T 0.3;
    # the seams grid repeats the edge points across three chunks
    rng = np.random.default_rng(n * 10 + gamma)
    amps = np.exp(2j * np.pi * rng.random(n)) / math.sqrt(n)
    f = _edge_grid(n, gamma, t, rng)
    if points:
        f = np.resize(f, points)
    assert (len(f) < _kernels._CHUNK) == (points is None)
    got = _kernels.spectrum_power(f, amps, gamma, t)
    want = _mask_kernel(f, amps, np.arange(n, dtype=np.float64) * gamma, t)
    assert np.isfinite(got).all()
    assert np.array_equal(got, want)


def test_fallback_always_importable():
    # The kernel is plain numpy: importable and usable with no build step.
    f, amps, gamma, t = _workload()
    out = _kernels.spectrum_power(f, amps, gamma, t)
    assert out.shape == f.shape
    assert (out >= 0).all()


def test_selected_kernel_matches_fallback():
    # A grid longer than one chunk checks the chunk seams against an
    # unchunked evaluation of the closed form.
    f, amps, gamma, t = _workload(points=2 * _kernels._CHUNK + 37)
    a = _kernels.spectrum_power(f, amps, gamma, t)
    b = _closed_form(f, amps, gamma, t)
    assert np.max(np.abs(a - b)) <= 1e-9 * max(a.max(), b.max())
