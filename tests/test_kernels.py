import math

import numpy as np

from caseq import _kernels


def _workload(n=96, points=4096):
    rng = np.random.default_rng(0)
    amps = np.exp(2j * np.pi * rng.random(n)) / math.sqrt(n)
    sub = np.arange(float(n))
    f = np.linspace(-4.0 * n, 5.0 * n, points)
    return f, amps, sub, 1.125


def _closed_form(f, amps, sub, t):
    """Unchunked sum_n a_n (1 - exp(-2j pi v T)) / (2j pi v), v = f - f_n."""
    v = f[:, None] - sub[None, :]
    safe = np.where(v == 0, 1.0, v)
    d = np.where(v == 0, t, (1 - np.exp(-2j * np.pi * safe * t))
                 / (2j * np.pi * safe))
    return np.abs(d @ amps) ** 2


def test_fallback_always_importable():
    # The kernel is plain numpy: importable and usable with no build step.
    f, amps, sub, t = _workload()
    out = _kernels.spectrum_power(f, amps, sub, t)
    assert out.shape == f.shape
    assert (out >= 0).all()


def test_selected_kernel_matches_fallback():
    # A grid longer than one chunk checks the chunk seams against an
    # unchunked evaluation of the closed form.
    f, amps, sub, t = _workload(points=2 * _kernels._CHUNK + 37)
    a = _kernels.spectrum_power(f, amps, sub, t)
    b = _closed_form(f, amps, sub, t)
    assert np.max(np.abs(a - b)) <= 1e-9 * max(a.max(), b.max())
