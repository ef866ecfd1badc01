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
from dataclasses import dataclass

import numpy as np

from ._kernels import _CHUNK, spectrum_power
from .seqforge import MAX_DENSE_TABLE_BYTES, CaSequence, Family

ETA_FLOOR = 1e-15  # eta's rounding floor (-150 dB): family fractions below it read it


class ResolutionError(ValueError):
    """Grid too coarse (or window too poor) for the requested measurement."""


@dataclass
class SpectrumResult:
    freqs: np.ndarray        # normalized offsets from band center
    power: np.ndarray        # linear power spectrum values
    total_power: float       # trapezoid integral over the grid


def _subcarrier_amps(chi: np.ndarray, cfg) -> np.ndarray:
    """Per-subcarrier amplitudes of chi (rows of members) with the tone phase reference.

    Referencing tone n to t = T_g + T_d/2 multiplies q[n] by
    exp(-2j pi f_n (alpha + 1/2)); combined with the alternating sign in q
    this leaves chi[n] * exp(-2j pi n alpha gamma) / sqrt(N).
    """
    n = chi.shape[-1]
    return (chi / math.sqrt(n)) * cfg.tone_twist(n)


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
    return SpectrumResult(freqs=norm, power=power, total_power=total)


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


def _hilbert(x: np.ndarray) -> np.ndarray:
    """(Hx)_n = sum_{m != n} x_m / (n - m) along the last axis: the Toeplitz kernel
    1/l in a circulant of length 2^ceil(log2(2N - 1)), one FFT convolution."""
    n = x.shape[-1]
    kernel = np.zeros(1 << (2 * n - 2).bit_length())
    kernel[1:n] = 1.0 / np.arange(1, n)
    kernel[:-n:-1] = -kernel[1:n]
    return np.fft.ifft(np.fft.fft(x, kernel.size) * np.fft.fft(kernel))[..., :n]


def _energy_terms(chi: np.ndarray, cfg) -> np.ndarray:
    """[|a|^2, 2 Re(a P conj(a)), 2 Re(a Q conj(a))] (J x 3N), a the amplitudes of chi.

    Off its diagonal K_B[n, m] = P_l (dCin_n - dCin_m) + Q_l (dSi_n + dSi_m), l = n - m,
    4 pi^2 gamma l (P_l, Q_l) = (1 + e_l, 1j (1 - e_l)), e_l = exp(2j pi l alpha gamma).
    As P_-l = -conj(P_l) and Q_-l = conj(Q_l), that part of the form is 2 Re sum a (dCin
    P conj(a) + dSi Q conj(a)), and 4 pi^2 gamma (P, Q) conj(a) = (1, 1j) (H conj(a) +-
    e H(conj(e a))) with the Hilbert transform H and e a = chi / sqrt(N)."""
    amps, c = _subcarrier_amps(chi, cfg), chi / math.sqrt(chi.shape[-1])
    h, hc = _hilbert(np.stack([amps.conj(), c.conj()])) / (2 * np.pi ** 2 * cfg.gamma)
    direct, twisted = amps * h, c * hc
    return np.concatenate([np.abs(amps) ** 2, (direct + twisted).real,
                           (twisted - direct).imag], axis=-1)


def _band_weights(u1: np.ndarray, u2: np.ndarray, pulse_t: float) -> np.ndarray:
    """w with Re a^T K_B conj(a) = _energy_terms(chi) @ w, K_B[n, m] = int D(f - x_n)
    conj(D(f - x_m)) df over the band whose edges lie at u1 and u2 from x_n (rows:
    bands): [diag K_B, dCin, dSi], the changes of Cin(2 pi T|u|), Si(2 pi T u) from u1 to u2."""
    cin, si = _cin_si(2 * np.pi * pulse_t * np.stack([u1, u2]))
    dcin, dsi = cin[1] - cin[0], si[1] - si[0]
    edge = pulse_t ** 2 * (u2 * np.sinc(pulse_t * u2) ** 2 - u1 * np.sinc(pulse_t * u1) ** 2)
    return np.concatenate([pulse_t * dsi / np.pi - edge, dcin, dsi], axis=-1)


def out_of_band_fraction(family: Family, bandwidths: list[float],
                         grid_span: float = 16.0,
                         grid_points: int = 2 ** 16) -> list[tuple[float, float]]:
    """Family-average out-of-band power fraction, in dB, per bandwidth.

    Returns (B, eta_db) rows.  A member's fraction is (total - inside) / total, exact
    with no frequency grid: inside = Re a^T K_B conj(a) (not a^H K_B a) over
    [f_1, f_2] = center -+ B gamma N / 2, and the Parseval total is the same form with
    the weights (T, 0, pi) of the band grown to every f.  Two FFT products per member,
    O(N) special-function values per B; members go in blocks of about 2^14 entries.

    Rounding floor: against a 40-digit evaluation of the same forms, a member's fraction
    is off by at most 2.7e-16 (11 members of pma48, zc139, apma139, apma838; B = 0.5 to
    8), so family fractions below ETA_FLOOR = 1e-15 (-150 dB) read it: pma48 at B = 8,
    exact -172 dB, reads -150 dB.  grid_span and grid_points are unused positionals.
    """
    if not all(b > 0 and math.isfinite(b) for b in bandwidths):
        raise ResolutionError(f"bandwidths {bandwidths} must be finite and positive")
    cfg, n, pulse_t = family.cfg, family.n, family.cfg.pulse_duration
    u = (0.5 * (n - 1) - np.arange(n)) * cfg.gamma  # band center minus x_n
    half = np.array(bandwidths)[:, None] * (cfg.gamma * n / 2.0)
    weights = [np.repeat([pulse_t, 0.0, np.pi], n), *_band_weights(u - half, u + half, pulse_t)]
    fracs = np.zeros(len(bandwidths))
    rows = max(1, 2 ** 14 // n)
    for lo in range(0, len(family), rows):
        terms = _energy_terms(family.chi_matrix()[lo:lo + rows], cfg)
        # pairwise sums: a BLAS product's running sums cost 10 ulp at N = 839
        total, *inside = [np.sum(terms * w, axis=-1) for w in weights]
        fracs += np.sum((total - np.array(inside)) / total, axis=1)
    return [(b, 10.0 * math.log10(max(f / len(family), ETA_FLOOR)))
            for b, f in zip(bandwidths, fracs)]


def spectrum_csv_rows(spec: SpectrumResult) -> tuple[np.ndarray, np.ndarray]:
    """The CSV's (normalized_freq, power_db) columns, as arrays; zero-power
    points are floored."""
    return spec.freqs, 10.0 * np.log10(np.maximum(spec.power, 1e-300))
