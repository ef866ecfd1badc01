import math
import weakref
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from caseq import factorlab as fl
from caseq import seqforge as sf
from caseq import spectra as sp
from caseq._kernels import spectrum_power
from caseq.seqforge import CaSequence


def _single_subcarrier(cfg):
    """q = e_0 (all power on the first subcarrier)."""
    chi = np.zeros(cfg.n_seq, dtype=complex)
    chi[0] = math.sqrt(cfg.n_seq)
    return CaSequence(chi, cfg)


def _assert_matches_mpmath(freqs, amps, gamma, pulse_t):
    """spectrum_power against sum_n a_n (1 - exp(-2j pi v T)) / (2j pi v),
    v = f - n gamma, in mpmath, within 1e-9 of the in-band peak; every value
    must be finite."""
    got = spectrum_power(freqs, amps, gamma, pulse_t)
    assert np.isfinite(got).all()
    sub = np.arange(len(amps), dtype=np.float64) * gamma
    peak = spectrum_power(np.linspace(sub[0], sub[-1], 4096), amps, gamma,
                          pulse_t).max()
    with mpmath.workdps(30):
        t = mpmath.mpf(pulse_t)
        for f, value in zip(freqs, got):
            acc = mpmath.mpc(0)
            for a, x in zip(amps, sub):
                v = mpmath.mpf(f) - mpmath.mpf(x)
                d = t if v == 0 else (1 - mpmath.expjpi(-2 * v * t)) / (2j * mpmath.pi * v)
                acc += mpmath.mpc(a.real, a.imag) * d
            assert abs(value - float(abs(acc) ** 2)) <= 1e-9 * peak, f


def _assert_single_tone_eta(cfg):
    """eta of |T sinc(fT)|^2 outside [y1, y2] in y = fT units is
    1 - (S(y2) - S(y1)), S(y) = (Si(2 pi y) - sin^2(pi y) / (pi y)) / pi;
    the tone sits on subcarrier 0; span 16, 2^14 points, within 0.02 dB."""
    fam = sf.Family(sequences=[_single_subcarrier(cfg)], kind="tone",
                    cfg=cfg, sd_order_bound=0)
    bandwidths = [1.0, 2.0, 4.0, 8.0]
    rows = sp.out_of_band_fraction(fam, bandwidths, grid_span=16,
                                   grid_points=2 ** 14)
    t = cfg.pulse_duration
    bandwidth = cfg.gamma * cfg.n_seq
    center = 0.5 * (cfg.n_seq - 1) * cfg.gamma

    def s(y):
        z = mpmath.pi * y
        return (mpmath.si(2 * z) - mpmath.sin(z) ** 2 / z) / mpmath.pi

    for b, eta_db in rows:
        inside = s((center + b * bandwidth / 2) * t) - s((center - b * bandwidth / 2) * t)
        exact_db = 10.0 * math.log10(float(1 - inside))
        assert abs(eta_db - exact_db) < 0.02, (b, eta_db, exact_db)


class TestComputeSpectrum:
    def test_single_subcarrier_is_squared_sinc(self):
        cfg = sf.WaveformConfig(4, gamma=2, alpha=Fraction(1, 2))
        seq = _single_subcarrier(cfg)
        spec = sp.compute_spectrum(seq, grid_span=8, grid_points=4096)
        t = cfg.pulse_duration
        bandwidth = cfg.gamma * cfg.n_seq
        center = 0.5 * (0 + (cfg.n_seq - 1) * cfg.gamma)
        f_actual = center + spec.freqs * bandwidth
        expected = (t * np.sinc(f_actual * t)) ** 2
        assert np.allclose(spec.power, expected, rtol=1e-9, atol=1e-12)

    def test_grid_symmetric_and_power_nonnegative(self, cfg_a48):
        fam = sf.build_family("pma", cfg_a48)
        spec = sp.compute_spectrum(fam.sequences[0], grid_span=8,
                                   grid_points=4096)
        assert np.allclose(spec.freqs, -spec.freqs[::-1])
        assert (spec.power >= 0).all()
        assert math.isfinite(spec.total_power)

    def test_resolution_guards(self, cfg_a48):
        fam = sf.build_family("pma", cfg_a48)
        with pytest.raises(sp.ResolutionError):
            sp.compute_spectrum(fam.sequences[0], grid_span=8, grid_points=1024)
        for span in (2, float("nan")):
            with pytest.raises(sp.ResolutionError):
                sp.compute_spectrum(fam.sequences[0], grid_span=span, grid_points=4096)

    @pytest.mark.parametrize("limit, refused", [(24 * 4096, False), (24 * 4096 - 1, True)])
    def test_grid_limit_counts_24_bytes_per_point(self, cfg_a48, monkeypatch, limit, refused):
        seq = sf.build_family("pma", cfg_a48).sequences[0]
        monkeypatch.setattr(sp, "MAX_DENSE_TABLE_BYTES", limit)
        if refused:
            with pytest.raises(sp.ResolutionError, match="GiB"):
                sp.compute_spectrum(seq, grid_span=8, grid_points=4096)
        else:
            assert len(sp.compute_spectrum(seq, grid_span=8, grid_points=4096).power) == 4096

    def test_masked_integrals_add_to_total(self, cfg_a48):
        fam = sf.build_family("dpma", cfg_a48, kappa=2)
        spec = sp.compute_spectrum(fam.sequences[0], grid_span=8,
                                   grid_points=8192)
        inb = np.abs(spec.freqs) <= 0.75
        inside = np.trapezoid(np.where(inb, spec.power, 0.0), spec.freqs)
        outside = np.trapezoid(np.where(~inb, spec.power, 0.0), spec.freqs)
        assert abs(inside + outside - spec.total_power) <= 1e-10 * spec.total_power


class TestKernels:
    def test_compiled_and_fallback_agree(self, cfg_a48):
        """Chunked vectorised kernel against a per-grid-point loop."""
        fam = sf.build_family("pma", cfg_a48)
        seq = fam.sequences[0]
        sub = np.arange(48.0) * cfg_a48.gamma
        f = np.linspace(sub.mean() - 200, sub.mean() + 200, 4096)
        t = cfg_a48.pulse_duration
        amps = np.ascontiguousarray(seq.chi / math.sqrt(48))
        a = spectrum_power(f, amps, cfg_a48.gamma, t)
        b = np.array([abs(np.sum(amps * t * np.sinc((x - sub) * t)
                                 * np.exp(-1j * np.pi * (x - sub) * t))) ** 2
                      for x in f])
        scale = max(a.max(), b.max())
        assert np.max(np.abs(a - b)) <= 1e-9 * scale

    def test_matches_mpmath_oracle(self):
        """Sinc sum against sum_n a_n (1 - exp(-2j pi v T)) / (2j pi v) in mpmath."""
        rng = np.random.default_rng(7)
        n, gamma, pulse_t = 48, 2, 1.5
        amps = np.exp(2j * np.pi * rng.random(n)) / math.sqrt(n)
        sub = np.arange(n, dtype=np.float64) * gamma
        span = sub[-1] - sub[0]
        on_subcarrier = sub[17:18]
        main_lobe = sub[0] + span * rng.random(4)
        far_tail = np.concatenate([sub[-1] + span * rng.uniform(20.0, 200.0, 3),
                                   sub[0] - span * rng.uniform(20.0, 200.0, 3)])
        freqs = np.concatenate([on_subcarrier, main_lobe, far_tail])
        _assert_matches_mpmath(freqs, amps, gamma, pulse_t)

    def test_matches_mpmath_oracle_at_near_far_switch(self):
        """N=839 oracle where the partial-fraction form can fail: on and just
        off a subcarrier, on both sides of |f - x_n| T = 1, and far out."""
        rng = np.random.default_rng(11)
        cfg = sf.WaveformConfig(839, gamma=1, alpha=Fraction(33, 256))
        n, pulse_t = cfg.n_seq, cfg.pulse_duration
        amps = np.exp(2j * np.pi * rng.random(n))
        sub = np.arange(n, dtype=np.float64) * cfg.gamma
        span = sub[-1] - sub[0]
        x = sub[419]
        near = x + np.array([0.0, 1e-9, -1e-6, 1e-3])
        switch = x + np.array([1 - 1e-9, 1 + 1e-9, -1 + 1e-6, -1 - 1e-6]) / pulse_t
        far_tail = np.concatenate([sub[-1] + span * rng.uniform(20.0, 200.0, 3),
                                   sub[0] - span * rng.uniform(20.0, 200.0, 3)])
        _assert_matches_mpmath(np.concatenate([near, switch, far_tail]),
                               amps, cfg.gamma, pulse_t)

    def test_matches_mpmath_oracle_at_band_edges_gamma_2(self):
        """N=839 at gamma 2, where 1/(gamma T) = 1/3: on, just off and on both
        sides of |f - x_n| T = 1 at the first and last subcarriers, where the
        near-field column window runs past [0, N), midway between subcarriers,
        and far out."""
        rng = np.random.default_rng(13)
        cfg = sf.WaveformConfig(839, gamma=2, alpha=Fraction(1, 2))
        n, pulse_t = cfg.n_seq, cfg.pulse_duration
        amps = np.exp(2j * np.pi * rng.random(n))
        sub = np.arange(n, dtype=np.float64) * cfg.gamma
        span = sub[-1] - sub[0]
        offsets = np.concatenate([[0.0, 1e-9, -1e-6],
                                  np.array([1 - 1e-9, 1 + 1e-9, -1 + 1e-6, -1 - 1e-6]) / pulse_t])
        edges = np.concatenate([sub[0] + offsets, sub[-1] + offsets,
                                [sub[0] + 1.0, sub[-1] - 1.0]])
        far_tail = np.concatenate([sub[-1] + span * rng.uniform(20.0, 200.0, 3),
                                   sub[0] - span * rng.uniform(20.0, 200.0, 3)])
        _assert_matches_mpmath(np.concatenate([edges, far_tail]), amps, cfg.gamma, pulse_t)


class TestDecaySlopes:
    def test_single_tone_slope(self):
        cfg = sf.WaveformConfig(4, gamma=2, alpha=Fraction(1, 2))
        spec = sp.compute_spectrum(_single_subcarrier(cfg), grid_span=64,
                                   grid_points=2 ** 16)
        slope = sp.estimate_decay_order(spec, (2.0, 24.0))
        assert abs(slope - (-2.0)) < 0.3

    def test_zc_slope(self):
        cfg = sf.WaveformConfig(139, gamma=1, alpha=Fraction(33, 256))
        zc = sf.build_zc_sequence(1, 139, cfg)
        spec = sp.compute_spectrum(zc, grid_span=64, grid_points=2 ** 18)
        slope = sp.estimate_decay_order(spec, (2.0, 24.0))
        assert abs(slope - (-2.0)) < 0.3

    def test_pma_outpaces_degenerate(self, cfg_a48):
        slopes = {}
        for kind, kappa in (("pma", 0), ("dpma", 3)):
            fam = sf.build_family(kind, cfg_a48, kappa=kappa)
            spec = sp.compute_spectrum(fam.sequences[0], grid_span=64,
                                       grid_points=2 ** 18)
            slopes[kappa] = sp.estimate_decay_order(spec, (2.0, 24.0))
        assert slopes[0] < slopes[3] - 4  # orders 5 vs 2

    def test_window_guards(self, cfg_a48):
        fam = sf.build_family("pma", cfg_a48)
        spec = sp.compute_spectrum(fam.sequences[0], grid_span=8,
                                   grid_points=4096)
        with pytest.raises(sp.ResolutionError):
            sp.estimate_decay_order(spec, (0.2, 3.0))
        with pytest.raises(sp.ResolutionError):
            sp.estimate_decay_order(spec, (2.0, 100.0))


class TestOutOfBand:
    def test_eta_limits_and_monotonicity(self, cfg_a48):
        fam = sf.build_family("pma", cfg_a48)
        rows = sp.out_of_band_fraction(fam, [1e-6, 0.5, 1.0, 1.25, 2.0, 4.0],
                                       grid_span=16, grid_points=2 ** 14)
        etas = [eta for _, eta in rows]
        assert etas[0] > -0.1  # everything out of band
        assert all(a >= b for a, b in zip(etas, etas[1:]))

    def test_compact_family_beats_zc_baseline(self, cfg_a48):
        pma = sf.build_family("pma", cfg_a48)
        zc = sf.build_family("zc", cfg_a48, count=2, min_csd=24, roots=(1, 5))
        eta_pma = sp.out_of_band_fraction(pma, [1.5], 16, 2 ** 14)[0][1]
        eta_zc = sp.out_of_band_fraction(zc, [1.5], 16, 2 ** 14)[0][1]
        assert eta_pma < eta_zc - 20  # tens of dB more compact

    def test_members_folded_in_one_at_a_time(self, cfg_a48, monkeypatch):
        # at most the previous member's spectrum and the current one are alive
        refs, compute = [], sp.compute_spectrum

        def tracked(*args):
            spec = compute(*args)
            refs.append(weakref.ref(spec))
            assert sum(r() is not None for r in refs) <= 2
            return spec

        monkeypatch.setattr(sp, "compute_spectrum", tracked)
        fam = sf.build_family("dpma", cfg_a48, kappa=2)
        sp.out_of_band_fraction(fam, [1.0, 2.0], grid_span=16, grid_points=2 ** 12)
        assert len(refs) == len(fam) > 2

    def test_single_tone_matches_sine_integral(self):
        _assert_single_tone_eta(sf.WaveformConfig(4, gamma=2, alpha=Fraction(1, 2)))

    def test_single_tone_band_edge_on_main_lobe(self):
        """At N=48 the B=1 edge cuts the tone's main lobe, where a
        half-cell past the edge biases the in-band integral."""
        _assert_single_tone_eta(sf.WaveformConfig(48, gamma=1, alpha=Fraction(1, 8)))

    def test_bandwidth_beyond_grid_rejected(self, cfg_a48):
        fam = sf.build_family("pma", cfg_a48)
        with pytest.raises(sp.ResolutionError):
            sp.out_of_band_fraction(fam, [20.0], grid_span=16,
                                    grid_points=2 ** 14)


class TestCsShiftInvariance:
    def test_subfamily_lobe_envelopes_match(self, cfg_a48):
        fam = sf.build_family("pma", cfg_a48)
        envs = []
        for _, m in sf.cs_subfamily(fam, 0):
            spec = sp.compute_spectrum(m, grid_span=32, grid_points=2 ** 16)
            f, p = sp.lobe_maxima(spec)
            sel = (f >= 2.0) & (f <= 12.0)
            envs.append(p[sel])
        size = min(len(e) for e in envs)
        a, b = envs[0][:size], envs[1][:size]
        assert np.max(np.abs(a / b - 1.0)) < 0.01
