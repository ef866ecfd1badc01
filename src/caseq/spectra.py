"""Baseband power spectrum of the single-symbol rectangularly-pulsed
preamble, out-of-band power fractions, and sidelobe decay-slope fits.

The symbol spans one pulse of duration T = (1 + alpha) T_d carrying the
N subcarriers at spacing gamma/T_d.  Each subcarrier tone is referenced
to the center of the useful (post-guard) subinterval; with that reference
the pulse-edge derivatives reduce exactly to the plain and twisted
index-power moments of chi, so measured sidelobe decay tracks the
vanishing-moment order.  Frequencies are reported as offsets from the
occupied-band center, normalized by the signal bandwidth gamma*N/T_d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import _CHUNK, spectrum_power
from .seqforge import MAX_DENSE_TABLE_BYTES, CaSequence, Family


class ResolutionError(ValueError):
    """Grid too coarse (or window too poor) for the requested measurement."""


@dataclass
class SpectrumResult:
    freqs: np.ndarray        # normalized offsets from band center
    power: np.ndarray        # linear power spectrum values
    total_power: float       # trapezoid integral over the grid
    meta: dict = field(default_factory=dict)


def _subcarrier_amps(chi: np.ndarray, cfg) -> np.ndarray:
    """Per-subcarrier amplitudes of chi (rows of members) with the tone phase reference.

    Referencing tone n to t = T_g + T_d/2 multiplies q[n] by
    exp(-2j pi f_n (alpha + 1/2)); combined with the alternating sign in q
    this leaves chi[n] * exp(-2j pi n alpha gamma) / sqrt(N).
    """
    ag = cfg.alpha_gamma
    n = chi.shape[-1]
    frac = (np.arange(n, dtype=np.int64) * ag.numerator) % ag.denominator
    return (chi / math.sqrt(n)) * np.exp(-2j * np.pi * frac / ag.denominator)


def compute_spectrum(seq: CaSequence, grid_span: float = 64.0,
                     grid_points: int = 2 ** 20) -> SpectrumResult:
    """Analytic baseband power spectrum on a symmetric grid.

    grid_span is in units of the signal bandwidth gamma*N/T_d; the grid is
    symmetric about the occupied-band center.  Values are exact per grid
    point (no FFT aliasing of the tail): the kernel sums the subcarriers in
    partial-fraction form and every term within 1/T of its subcarrier in
    sinc form.
    """
    cfg = seq.cfg
    if grid_points < 4096:
        raise ResolutionError("need at least 4096 grid points")
    if not grid_span >= 4:  # NaN too
        raise ResolutionError(f"grid span {grid_span} below 4 bandwidths cannot hold the tail")
    bandwidth = cfg.gamma * seq.n  # in subcarrier-spacing units (1/T_d)
    if grid_points < 4 * grid_span * seq.n:
        raise ResolutionError("grid cannot resolve the subcarrier spacing")
    need = 24 * grid_points + 8 * min(_CHUNK, grid_points) * seq.n  # 3 grids, kernel buffer
    if need > MAX_DENSE_TABLE_BYTES:
        raise ResolutionError(
            f"{grid_points} grid points at N={seq.n} need {need / 2 ** 30:.3g} GiB of grid arrays "
            f"and kernel buffer, above the limit of {MAX_DENSE_TABLE_BYTES / 2 ** 30:g} GiB")
    center = 0.5 * (seq.n - 1) * cfg.gamma
    norm = np.linspace(-grid_span / 2.0, grid_span / 2.0, grid_points)
    freqs = center + norm * bandwidth
    power = spectrum_power(freqs, _subcarrier_amps(seq.chi, cfg), cfg.gamma, cfg.pulse_duration)
    total = float(np.trapezoid(power, norm))
    return SpectrumResult(freqs=norm, power=power, total_power=total, meta={
        "n": seq.n, "gamma": cfg.gamma, "alpha": str(cfg.alpha),
        "grid_span": grid_span, "grid_points": grid_points,
    })


def lobe_maxima(spec: SpectrumResult) -> tuple[np.ndarray, np.ndarray]:
    """Per-lobe peak points (freq > 0 side), suppressing the nulls."""
    p = spec.power
    f = spec.freqs
    interior = (p[1:-1] > p[:-2]) & (p[1:-1] >= p[2:])
    idx = np.nonzero(interior)[0] + 1
    keep = f[idx] > 0
    return f[idx][keep], p[idx][keep]


def estimate_decay_order(spec: SpectrumResult,
                         fit_window: tuple[float, float]) -> float:
    """Least-squares slope of log10(lobe-peak power) vs log10(frequency).

    The window is in normalized frequency offsets and must start beyond
    1.5x the half-bandwidth so the fit sees only true sidelobes.
    """
    lo, hi = fit_window
    if not lo >= 0.75:  # NaN too
        raise ResolutionError(f"fit window start {lo} is not above 1.5x the half-band")
    if not hi <= spec.freqs[-1]:
        raise ResolutionError(f"fit window end {hi} is not within the grid span")
    f, p = lobe_maxima(spec)
    sel = (f >= lo) & (f <= hi) & (p > 0)
    if np.count_nonzero(sel) < 10:
        raise ResolutionError(
            f"only {np.count_nonzero(sel)} lobes in window {fit_window}")
    x = np.log10(f[sel])
    y = np.log10(p[sel])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


_EULER_GAMMA = 0.5772156649015329


def _cin_si(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cin(|x|) and Si(x) elementwise, within about 2e-15 absolute.

    Cin(x) = gamma_E + ln x - Ci(x) = int_0^x (1 - cos t) / t dt is entire
    and even, with Cin(0) = 0.  Below |x| = 4 both come from their power
    series; above, from E_1(i|x|) by its continued fraction (modified
    Lentz), with Ci = -Re E_1 and Si = pi/2 + Im E_1.
    """
    t = np.abs(x)
    cin, si = np.empty_like(t), np.empty_like(t)
    small = t < 4.0
    s = t[small]
    term, cin_s, si_s = s.copy(), np.zeros_like(s), s.copy()
    for k in range(1, 18):  # the last terms are below 1e-18 at |x| = 4
        term = term * s / (2 * k)           # (-1)^(k-1) x^2k / (2k)!
        cin_s += term / (2 * k)
        term = term * -s / (2 * k + 1)      # (-1)^k x^(2k+1) / (2k+1)!
        si_s += term / (2 * k + 1)
    cin[small], si[small] = cin_s, si_s
    big = t[~small]
    b = 1.0 + 1j * big
    c = np.full_like(b, 1e300)  # c_0 = infinity: the first step sets c = b
    d = h = 1.0 / b
    done = np.zeros(big.shape, dtype=bool)
    for i in range(1, 100):  # 47 steps at |x| = 4, fewer above
        b = b + 2.0
        d = 1.0 / (b - i * i * d)
        c = b - i * i / c
        h = np.where(done, h, h * c * d)
        done |= np.abs(c * d - 1.0) < np.finfo(np.float64).eps
        if done.all():
            break
    e1 = h * np.exp(-1j * big)
    cin[~small] = _EULER_GAMMA + np.log(big) + e1.real
    si[~small] = np.pi / 2 + e1.imag
    return cin, np.copysign(si, x)


def _lag_terms(cfg, n: int) -> tuple[np.ndarray, np.ndarray]:
    """P and Q of _band_kernel over the lag l = n - m, zero at l = 0, with
    e_l = exp(2j pi l alpha gamma) from the exact fraction."""
    ag = cfg.alpha_gamma
    lag = np.arange(1 - n, n, dtype=np.int64)
    e = np.exp(2j * np.pi * ((lag * ag.numerator) % ag.denominator) / ag.denominator)
    d = 4 * np.pi ** 2 * cfg.gamma * np.where(lag == 0, np.inf, lag)
    idx = np.subtract.outer(np.arange(n), np.arange(n)) + (n - 1)
    return ((1.0 + e) / d)[idx], (1j * (1.0 - e) / d)[idx]


def _band_kernel(p: np.ndarray, q: np.ndarray, u1: np.ndarray, u2: np.ndarray,
                 pulse_t: float) -> np.ndarray:
    """K_B[n, m] = int D(f - x_n) conj(D(f - x_m)) df over a band whose
    edges lie at u1 and u2 from x_n.  With c = 2 pi T, d = (n - m) gamma,
    dCin and dSi the changes of Cin(c|u|) and Si(c u) from u1 to u2,
    P = (1 + e_l) / (4 pi^2 d) and Q = 1j (1 - e_l) / (4 pi^2 d), partial
    fractions give P (dCin_n - dCin_m) + Q (dSi_n + dSi_m) off the diagonal
    (the log singularities cancel into Cin), and the diagonal is
    [T Si(c u) / pi - T^2 u sinc^2(T u)] from u1 to u2."""
    cin, si = _cin_si(2 * np.pi * pulse_t * np.stack([u1, u2]))
    dcin, dsi = cin[1] - cin[0], si[1] - si[0]
    k = p * (dcin[:, None] - dcin)
    k += q * (dsi[:, None] + dsi)
    edge = pulse_t ** 2 * (u2 * np.sinc(pulse_t * u2) ** 2 - u1 * np.sinc(pulse_t * u1) ** 2)
    np.fill_diagonal(k, pulse_t * dsi / np.pi - edge)
    return k


def _quad(amps: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Re a^T K conj(a) for each row a of amps."""
    return np.einsum("jm,jm->j", amps @ k, amps.conj()).real


def out_of_band_fraction(family: Family, bandwidths: list[float],
                         grid_span: float = 16.0,
                         grid_points: int = 2 ** 16) -> list[tuple[float, float]]:
    """Family-average out-of-band power fraction, in dB, per bandwidth.

    Returns (B, eta_db) rows.  A member's fraction is (total - inside) / total, exact
    with no frequency grid: inside = Re a^T K_B conj(a) (not a^H K_B a) over
    [f_1, f_2] = center -+ B gamma N / 2, and the Parseval total = Re a^T K_0 conj(a),
    K_0 = 2 pi Q + T I being K_B as the band grows to every f.  Per B: O(N) sine and
    cosine integrals, one N x N assembly, one (J x N) @ (N x N) product.  The 72 N^2
    bytes of live N x N arrays (P, Q, K_B, two temporaries) are refused above
    MAX_DENSE_TABLE_BYTES before any is allocated.

    Rounding floor: a member's fraction is off by about 1e-15 (-150 dB); against a
    40-digit evaluation of the same forms, by at most 7e-16 at N = 48, 139 and 838,
    where a pma48 member reads -155 dB for an exact -172 dB.  grid_span and
    grid_points are unused; callers pass them positionally.
    """
    if not all(b > 0 and math.isfinite(b) for b in bandwidths):
        raise ResolutionError(f"bandwidths {bandwidths} must be finite and positive")
    cfg, n = family.cfg, family.n
    if 72 * n * n > MAX_DENSE_TABLE_BYTES:
        raise ResolutionError(
            f"eta at N={n} needs {72 * n * n / 2 ** 30:.3g} GiB of N x N kernels, "
            f"above the limit of {MAX_DENSE_TABLE_BYTES / 2 ** 30:g} GiB")
    pulse_t = cfg.pulse_duration
    u = (0.5 * (n - 1) - np.arange(n)) * cfg.gamma  # band center minus x_n
    amps = _subcarrier_amps(family.chi_matrix(), cfg)
    p, q = _lag_terms(cfg, n)
    total = 2 * np.pi * _quad(amps, q) + pulse_t * np.sum(np.abs(amps) ** 2, axis=1)
    rows = []
    for b in bandwidths:
        half = b * cfg.gamma * n / 2.0
        inside = _quad(amps, _band_kernel(p, q, u - half, u + half, pulse_t))
        frac = np.mean(np.maximum(total - inside, 0.0) / total)
        rows.append((b, 10.0 * math.log10(max(frac, 1e-300))))
    return rows


def spectrum_csv_rows(spec: SpectrumResult) -> list[tuple[float, float]]:
    """(normalized_freq, power_db) rows; zero-power points are floored."""
    floor = np.maximum(spec.power, 1e-300)
    return list(zip(spec.freqs.tolist(), (10.0 * np.log10(floor)).tolist()))
