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

from ._kernels import spectrum_power
from .seqforge import CaSequence, Family


class ResolutionError(ValueError):
    """Grid too coarse (or window too poor) for the requested measurement."""


@dataclass
class SpectrumResult:
    freqs: np.ndarray        # normalized offsets from band center
    power: np.ndarray        # linear power spectrum values
    total_power: float       # trapezoid integral over the grid
    meta: dict = field(default_factory=dict)


def _subcarrier_amps(seq: CaSequence) -> np.ndarray:
    """Per-subcarrier amplitudes including the tone phase reference.

    Referencing tone n to t = T_g + T_d/2 multiplies q[n] by
    exp(-2j pi f_n (alpha + 1/2)); combined with the alternating sign in q
    this leaves chi[n] * exp(-2j pi n alpha gamma) / sqrt(N).
    """
    cfg = seq.cfg
    ag = cfg.alpha_gamma
    idx = np.arange(seq.n, dtype=np.int64)
    frac = (idx * ag.numerator) % ag.denominator
    return (seq.chi / math.sqrt(seq.n)) * np.exp(-2j * np.pi * frac / ag.denominator)


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
    if grid_span < 4:
        raise ResolutionError("grid span below 4 bandwidths cannot hold the tail")
    bandwidth = cfg.gamma * seq.n  # in subcarrier-spacing units (1/T_d)
    if grid_points < 4 * grid_span * seq.n:
        raise ResolutionError("grid cannot resolve the subcarrier spacing")
    sub_freqs = np.arange(seq.n, dtype=np.float64) * cfg.gamma
    center = 0.5 * (sub_freqs[0] + sub_freqs[-1])
    norm = np.linspace(-grid_span / 2.0, grid_span / 2.0, grid_points)
    freqs = center + norm * bandwidth
    power = spectrum_power(freqs, _subcarrier_amps(seq), sub_freqs,
                           cfg.pulse_duration)
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
    if lo < 0.75:
        raise ResolutionError("fit window must start above 1.5x the half-band")
    if hi > spec.freqs[-1]:
        raise ResolutionError("fit window exceeds the grid span")
    f, p = lobe_maxima(spec)
    sel = (f >= lo) & (f <= hi) & (p > 0)
    if np.count_nonzero(sel) < 10:
        raise ResolutionError(
            f"only {np.count_nonzero(sel)} lobes in window {fit_window}")
    x = np.log10(f[sel])
    y = np.log10(p[sel])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def _exact_total_power(seq: CaSequence) -> float:
    """Integral of the power spectrum over all frequencies (Parseval).

    Equals a^H K a over the subcarrier amplitudes a, with
    K[n, m] = int_0^T exp(2j pi (x_m - x_n) t) dt and x_n = n gamma, divided
    by the bandwidth gamma*N so it is in the normalized-frequency units of
    SpectrumResult.total_power.  exp(2j pi (x_m - x_n) T) reduces exactly to
    exp(2j pi (m - n) alpha gamma), evaluated from the exact fraction.
    """
    cfg = seq.cfg
    ag = cfg.alpha_gamma
    pulse_t = cfg.pulse_duration
    idx = np.arange(seq.n, dtype=np.int64)
    lag = idx[None, :] - idx[:, None]
    frac = (lag * ag.numerator) % ag.denominator
    delta = lag * float(cfg.gamma)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.where(lag == 0, pulse_t,
                     (np.exp(2j * np.pi * frac / ag.denominator) - 1.0)
                     / (2j * np.pi * delta))
    a = _subcarrier_amps(seq)
    return float(np.real(a.conj() @ k @ a)) / (cfg.gamma * seq.n)


def out_of_band_fraction(family: Family, bandwidths: list[float],
                         grid_span: float = 16.0,
                         grid_points: int = 2 ** 16) -> list[tuple[float, float]]:
    """Family-average out-of-band power fraction, in dB, per bandwidth.

    For each normalized bandwidth B, the fraction is the exact total power
    minus the trapezoid integral of the spectrum over |f| <= B/2, over the
    exact total.  The integral runs to the exact band edges: its end cells
    stop at +-B/2, where the power is interpolated linearly.  Returned as
    (B, eta_db) rows.
    """
    if max(bandwidths) > grid_span:
        raise ResolutionError("bandwidth request exceeds the grid span")
    specs = [compute_spectrum(s, grid_span, grid_points)
             for s in family.sequences]
    totals = [_exact_total_power(s) for s in family.sequences]
    rows = []
    for b in bandwidths:
        half = b / 2.0
        fracs = []
        for sp, total in zip(specs, totals):
            inb = np.abs(sp.freqs) < half
            edge = np.interp([-half, half], sp.freqs, sp.power)
            inside = float(np.trapezoid(np.r_[edge[0], sp.power[inb], edge[1]],
                                        np.r_[-half, sp.freqs[inb], half]))
            fracs.append(max(total - inside, 0.0) / total)
        rows.append((b, 10.0 * math.log10(max(np.mean(fracs), 1e-300))))
    return rows


def spectrum_csv_rows(spec: SpectrumResult) -> list[tuple[float, float]]:
    """(normalized_freq, power_db) rows; zero-power points are floored."""
    floor = np.maximum(spec.power, 1e-300)
    return list(zip(spec.freqs.tolist(), (10.0 * np.log10(floor)).tolist()))
