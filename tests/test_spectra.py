import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from caseq import factorlab as fl
from caseq import seqforge as sf
from caseq import spectra as sp
from caseq._kernels import spectrum_power
from caseq.seqforge import CaSequence

import paper_oracle as po


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
    tone = CaSequence(_single_subcarrier(cfg).chi[np.newaxis], cfg)
    fam = sf.Family(sequences=tone, kind="tone", cfg=cfg, sd_order_bound=0)
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

    @pytest.mark.parametrize("points", [4096, 16384])
    @pytest.mark.parametrize("refused", [False, True])
    def test_grid_limit_counts_grid_arrays_and_chunk_buffer(self, cfg_a48, monkeypatch,
                                                            points, refused):
        # 24 B per grid point, and the kernel's float64 buffer of min(8192, points) x N
        seq = sf.build_family("pma", cfg_a48).sequences[0]
        limit = 24 * points + 8 * min(8192, points) * 48
        monkeypatch.setattr(sp, "MAX_DENSE_TABLE_BYTES", limit - 1 if refused else limit)
        if refused:
            with pytest.raises(sp.ResolutionError, match="GiB"):
                sp.compute_spectrum(seq, grid_span=8, grid_points=points)
        else:
            assert len(sp.compute_spectrum(seq, grid_span=8, grid_points=points).power) == points

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

    def test_never_computes_a_spectrum(self, cfg_a48, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eta sampled a spectrum")

        monkeypatch.setattr(sp, "compute_spectrum", refuse)
        monkeypatch.setattr(sp, "spectrum_power", refuse)
        fam = sf.build_family("dpma", cfg_a48, kappa=2)
        assert len(sp.out_of_band_fraction(fam, [1.0, 2.0])) == 2

    def test_single_tone_matches_sine_integral(self):
        _assert_single_tone_eta(sf.WaveformConfig(4, gamma=2, alpha=Fraction(1, 2)))

    def test_single_tone_band_edge_on_main_lobe(self):
        """At N=48 the B=1 edge cuts the tone's main lobe, where a
        half-cell past the edge biases the in-band integral."""
        _assert_single_tone_eta(sf.WaveformConfig(48, gamma=1, alpha=Fraction(1, 8)))

    def test_bandwidth_beyond_grid_span_accepted(self, cfg_a48):
        fam = sf.build_family("dpma", cfg_a48, kappa=2)
        (_, eta8), (_, eta20) = sp.out_of_band_fraction(fam, [8.0, 20.0], grid_span=16,
                                                        grid_points=2 ** 14)
        assert eta20 <= eta8

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bandwidth_not_finite_and_positive_rejected(self, cfg_a48, bad):
        fam = sf.build_family("pma", cfg_a48)
        with pytest.raises(sp.ResolutionError, match="finite and positive"):
            sp.out_of_band_fraction(fam, [bad, 1.0])

    @pytest.mark.parametrize("members", [8, 838])
    def test_peak_memory_within_a_block_of_members(self, cfg_b839, members):
        """Members go in blocks of about 2^14 entries: traced allocations stay
        within 512 bytes per block entry whatever J is, below the 11.2 MB of
        one J x N complex copy at J = 838."""
        fam = sf.build_family("pma", cfg_b839)
        fam = sf.Family(sequences=fam.sequences[:members], kind="pma", cfg=cfg_b839,
                        sd_order_bound=0)
        tracemalloc.start()
        try:
            sp.out_of_band_fraction(fam, BENCHMARK_BANDWIDTHS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 512 * 2 ** 14

    def test_rows_below_the_floor_read_the_floor(self, cfg_a48):
        """pma48 at B = 8 is -172 dB exact, below the -150 dB rounding floor."""
        fam = sf.build_family("pma", cfg_a48)
        assert sp.out_of_band_fraction(fam, [8.0]) == [(8.0, -150.0)]


BENCHMARK_BANDWIDTHS = [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0]


def _benchmark_eta_families(cfg_b139):
    """The benchmark's eta families: 20-member multiroot zc139 and apma139."""
    return (sf.build_family("zc", cfg_b139, count=20, min_csd=13),
            sf.build_family("apma", cfg_b139,
                            decomp=fl.Decomposition.from_parts(139, (50, 45, 44))))


def _grid_eta(fam, bandwidths, points):
    """eta the grid way, the oracle for the closed form: the exact total
    (Parseval in time: |sum_n a_n exp(2j pi x_n t)|^2 over the pulse, by
    Gauss-Legendre on 32 panels) minus the trapezoid integral of a span-16
    grid over |f| <= B/2, whose end cells stop at the band edges, where the
    power is interpolated linearly; per member, averaged, in dB."""
    cfg = fam.cfg
    g, w = np.polynomial.legendre.leggauss(64)
    h = cfg.pulse_duration / 32
    t = ((np.arange(32)[:, None] + (g + 1) / 2) * h).ravel()
    phases = np.exp(2j * np.pi * np.outer(np.arange(fam.n) * cfg.gamma, t))
    fracs = []
    for seq in fam.sequences:
        spec = sp.compute_spectrum(seq, 16.0, points)
        total = np.abs(sp._subcarrier_amps(seq.chi, cfg) @ phases) ** 2 @ np.tile(w, 32) * h / 2
        total /= cfg.gamma * fam.n  # in normalized frequency, as the grid
        row = []
        for b in bandwidths:
            inb = np.abs(spec.freqs) < b / 2
            edge = np.interp([-b / 2, b / 2], spec.freqs, spec.power)
            inside = np.trapezoid(np.r_[edge[0], spec.power[inb], edge[1]],
                                  np.r_[-b / 2, spec.freqs[inb], b / 2])
            row.append((total - inside) / total)
        fracs.append(row)
    return 10 * np.log10(np.mean(fracs, axis=0))


def _eta_40_digits(seq, bandwidths):
    """Each B's out-of-band fraction of one member from the same quadratic
    forms as out_of_band_fraction, evaluated in 40-digit arithmetic."""
    cfg, n = seq.cfg, seq.n
    with mpmath.workdps(40):
        a = [mpmath.mpc(z.real, z.imag) for z in sp._subcarrier_amps(seq.chi, cfg)]
        t = 1 + mpmath.mpf(cfg.alpha.numerator) / cfg.alpha.denominator
        c = 2 * mpmath.pi * t
        ag = cfg.alpha_gamma
        e = {lag: mpmath.expjpi(2 * mpmath.mpf(lag * ag.numerator % ag.denominator)
                                / ag.denominator) for lag in range(1 - n, n)}
        p = {lag: (1 + e[lag]) / (4 * mpmath.pi ** 2 * lag * cfg.gamma) for lag in e if lag}
        q = {lag: 1j * (1 - e[lag]) / (4 * mpmath.pi ** 2 * lag * cfg.gamma) for lag in e if lag}

        def cin(x):
            return mpmath.euler + mpmath.log(abs(x)) - mpmath.ci(abs(x)) if x else 0

        def form(diag, off):  # Re a^T K conj(a)
            return sum(abs(a[i]) ** 2 * diag[i] for i in range(n)) + sum(
                (a[i] * off(i, j) * mpmath.conj(a[j])).real
                for i in range(n) for j in range(n) if i != j)

        total = form([t] * n, lambda i, j: 2 * mpmath.pi * q[i - j])
        fracs = []
        for b in bandwidths:
            half = mpmath.mpf(b) * cfg.gamma * n / 2
            u = [[(n - 1) * cfg.gamma / mpmath.mpf(2) + s * half - k * cfg.gamma
                  for k in range(n)] for s in (-1, 1)]
            dcin = [cin(c * y) - cin(c * x) for x, y in zip(*u)]
            dsi = [mpmath.si(c * y) - mpmath.si(c * x) for x, y in zip(*u)]
            edge = [(mpmath.sin(mpmath.pi * t * y) ** 2 / (mpmath.pi ** 2 * y) if y else 0)
                    - (mpmath.sin(mpmath.pi * t * x) ** 2 / (mpmath.pi ** 2 * x) if x else 0)
                    for x, y in zip(*u)]
            inside = form([t * si / mpmath.pi - ed for si, ed in zip(dsi, edge)],
                          lambda i, j: p[i - j] * (dcin[i] - dcin[j])
                          + q[i - j] * (dsi[i] + dsi[j]))
            fracs.append(float((total - inside) / total))
    return fracs


class TestClosedFormEta:
    @pytest.mark.parametrize("x", [0.0, 1e-9, np.nextafter(4.0, 0.0), 4.0,
                                   np.nextafter(4.0, 5.0), 7.3, 4e4])
    def test_sine_and_cosine_integrals_match_mpmath(self, x):
        xs = np.array([x, -x])
        cin, si = sp._cin_si(xs)
        with mpmath.workdps(30):
            ref_cin = mpmath.euler + mpmath.log(x) - mpmath.ci(x) if x else 0
            for got_cin, got_si, v in zip(cin, si, xs):
                assert abs(got_cin - float(ref_cin)) <= 1e-14
                assert abs(got_si - float(mpmath.si(v))) <= 1e-14

    @pytest.mark.parametrize("n", [2, 3, 48, 139, 839])
    def test_hilbert_matches_the_explicit_product(self, n):
        rng = np.random.default_rng(n)
        x = np.exp(2j * np.pi * rng.random((2, n)))
        lag = np.subtract.outer(np.arange(n), np.arange(n))
        kernel = np.where(lag == 0, 0.0, 1.0 / np.where(lag == 0, 1, lag))
        assert np.max(np.abs(sp._hilbert(x) - x @ kernel.T)) <= 1e-14

    def test_band_kernel_entries_match_quadrature(self):
        """K_B[n, m] against mpmath.quad of D(f - x_n) conj(D(f - x_m)) over a
        band whose lower edge is subcarrier 2 (u = 0 there).  The entries come
        by polarization from the in-band energies E(a) = Re a^T K_B conj(a):
        K_nn = E(e_n), Re K_nm = (E(e_n + e_m) - E(e_n) - E(e_m)) / 2 and
        Im K_nm = (E(e_n + 1j e_m) - E(e_n) - E(e_m)) / 2."""
        cfg = sf.WaveformConfig(8, gamma=1, alpha=Fraction(1, 8))
        t = cfg.pulse_duration
        x = np.arange(8.0)
        lo, hi = 2.0, 5.6
        weights = sp._band_weights(lo - x, hi - x, t)

        def energy(a):  # chi = sqrt(N) e a, e_n = exp(2j pi n alpha gamma)
            chi = math.sqrt(8) * np.exp(2j * np.pi * np.arange(8) / 8) * a
            return float(sp._energy_terms(chi[None], cfg)[0] @ weights)

        def d(v):
            return mpmath.mpf(t) if v == 0 else (
                (1 - mpmath.expjpi(-2 * v * t)) / (2j * mpmath.pi * v))

        unit = np.eye(8)
        with mpmath.workdps(20):
            for n, m in [(2, 2), (5, 5), (0, 0), (2, 5), (5, 2), (0, 7), (3, 4)]:
                if n == m:
                    k = energy(unit[n])
                else:
                    both = energy(unit[n]) + energy(unit[m])
                    k = complex(energy(unit[n] + unit[m]) - both,
                                energy(unit[n] + 1j * unit[m]) - both) / 2
                ref = mpmath.quad(lambda f: d(f - n) * mpmath.conj(d(f - m)),
                                  [lo, 3, 4, 5, hi])
                assert abs(k - complex(ref)) <= 1e-14, (n, m)

    def test_eta_matches_a_fine_grid(self, cfg_b139):
        """3 members each of zc139 and apma139 against a 2^19-point grid at
        the benchmark's bandwidths; at B = 1 the grid's own edge error is
        about 1e-4 dB."""
        for fam in _benchmark_eta_families(cfg_b139):
            fam = sf.Family(sequences=fam.sequences[:3], kind=fam.kind, cfg=cfg_b139,
                            sd_order_bound=0)
            got = [eta for _, eta in sp.out_of_band_fraction(fam, BENCHMARK_BANDWIDTHS)]
            grid = _grid_eta(fam, BENCHMARK_BANDWIDTHS, 2 ** 19)
            assert np.max(np.abs(np.array(got) - grid)) < 1e-3

    def test_rounding_floor(self, cfg_a48, cfg_b139):
        """The docstring's floor: a pma48 member's fractions are within 1e-15
        of a 40-digit evaluation, also at B = 8, where the exact -172 dB is
        reported at the floor; the benchmark's rows (apma139, zc139) lie at
        least 40 dB above it."""
        bandwidths = [1.0, 2.0, 4.0, 8.0]
        first = sf.build_family("pma", cfg_a48).sequences[:1]
        seq = first[0]
        one = sf.Family(sequences=first, kind="pma", cfg=cfg_a48, sd_order_bound=0)
        got = [10 ** (eta / 10) for _, eta in sp.out_of_band_fraction(one, bandwidths)]
        assert np.max(np.abs(np.array(got) - _eta_40_digits(seq, bandwidths))) <= 1e-15
        for fam in _benchmark_eta_families(cfg_b139):
            rows = sp.out_of_band_fraction(fam, BENCHMARK_BANDWIDTHS)
            assert min(eta for _, eta in rows) >= -150.0 + 40.0


class TestCsShiftInvariance:
    def test_subfamily_lobe_envelopes_match(self, cfg_a48):
        fam = sf.build_family("pma", cfg_a48)
        envs = []
        for _, m in po.cs_subfamily(fam, 0):
            spec = sp.compute_spectrum(m, grid_span=32, grid_points=2 ** 16)
            f, p = sp.lobe_maxima(spec)
            sel = (f >= 2.0) & (f <= 12.0)
            envs.append(p[sel])
        size = min(len(e) for e in envs)
        a, b = envs[0][:size], envs[1][:size]
        assert np.max(np.abs(a / b - 1.0)) < 0.01
