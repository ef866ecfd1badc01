import math
from fractions import Fraction

import numpy as np
import pytest

from caseq import factorlab as fl
from caseq import seqforge as sf
from caseq import seqverify as sv
from caseq.seqforge import CaSequence


def _chi_with_time_samples(time_samples, cfg):
    """CaSequence whose inverse-DFT equals the given time-domain vector."""
    n = len(time_samples)
    q = np.fft.fft(time_samples) / math.sqrt(n)  # unitary forward DFT
    idx = np.arange(n)
    signs = np.where((idx * cfg.gamma) % 2 == 0, 1.0, -1.0)
    return CaSequence(signs * q * math.sqrt(n), cfg)


class TestCheckCa:
    def test_pma_is_ca(self, cfg_a48):
        fam = sf.build_family("pma", cfg_a48)
        assert sv.check_ca(fam.sequences[0]) < 1e-12

    def test_zc_is_ca(self):
        assert sv.check_ca(sf.build_zc_sequence(1, 139)) < 1e-12

    def test_gaussian_negative_control(self, cfg_a48):
        rng = np.random.default_rng(5)
        chi = rng.normal(size=48) + 1j * rng.normal(size=48)
        seq = CaSequence(chi, cfg_a48)
        assert sv.check_ca(seq) > 0.1


class TestCheckZac:
    def test_pma_zac(self, cfg_a48):
        fam = sf.build_family("pma", cfg_a48)
        assert sv.check_zac(fam.sequences[0]) < 1e-9

    def test_truncated_m_sequence_time_series_fails_zac(self, cfg_b839):
        # the raw +-1 register stream, truncated, used as time samples
        bits = sf.m_sequence()[:839]
        bpsk = (1.0 - 2.0 * bits) / math.sqrt(839)
        seq = _chi_with_time_samples(bpsk.astype(complex), cfg_b839)
        assert sv.check_zac(seq) > 1e-3

    def test_constant_chi_delta_in_time(self, cfg_a48):
        seq = CaSequence(np.ones(48, dtype=complex), cfg_a48)
        # constant magnitude in frequency: off-peak autocorrelation vanishes
        assert sv.check_zac(seq) < 1e-12

    def test_duality_ca_implies_zac(self, cfg_b839):
        decomp = fl.Decomposition.from_parts(839, (396, 243, 200))
        fam = sf.build_family("hat_dpma", cfg_b839, kappa=3, decomp=decomp)
        for seq in fam.sequences[:5]:
            if sv.check_ca(seq) <= 1e-12:
                assert sv.check_zac(seq) <= 1e-9 * seq.n


class TestMeasureSdOrder:
    def test_pma_48_condition_a(self, cfg_a48):
        fam = sf.build_family("pma", cfg_a48)
        order, capped, first = sv.measure_sd_order(fam.sequences[0])
        assert order == 5 and not capped
        assert first > sv.moment_tolerance(48, 5)

    def test_dpma_orders(self, cfg_a48):
        for kappa in (1, 2, 3):
            fam = sf.build_family("dpma", cfg_a48, kappa=kappa)
            order, capped, _ = sv.measure_sd_order(fam.sequences[0])
            assert order >= fam.sd_order_bound
            assert not capped

    def test_zc_order_zero(self):
        order, capped, first = sv.measure_sd_order(sf.build_zc_sequence(1, 139))
        assert order == 0 and not capped
        assert first > sv.moment_tolerance(139, 0)

    def test_condition_b_needs_both_moment_kinds(self, cfg_b839):
        decomp = fl.Decomposition.from_parts(839, (396, 243, 200))
        fam = sf.build_family("hat_dpma", cfg_b839, kappa=2, decomp=decomp)
        order, capped, _ = sv.measure_sd_order(fam.sequences[0])
        assert order >= fam.sd_order_bound == 1

    def test_pma_condition_b_floor(self):
        cfg = sf.WaveformConfig(48, gamma=1, alpha=Fraction(33, 256))
        fam = sf.build_family("pma", cfg)
        assert fam.sd_order_bound == 2  # floor(5/2)
        order, _, _ = sv.measure_sd_order(fam.sequences[0])
        assert order >= 2

    def test_cyclic_shift_preserves_order(self, cfg_a48):
        fam = sf.build_family("pma", cfg_a48)
        leader = fam.sequences[0]
        base_order, _, _ = sv.measure_sd_order(leader)
        for member in sf.cs_subfamily(leader):
            order, _, _ = sv.measure_sd_order(member)
            assert order >= base_order

    def test_moment_tolerance_is_cached_sum(self):
        sv.moment_tolerance.cache_clear()
        for n, beta in ((48, 5), (839, 6), (48, 5)):
            assert sv.moment_tolerance(n, beta) == sv.MOMENT_RTOL * float(
                sum(float(i) ** beta for i in range(n)))
        assert sv.moment_tolerance.cache_info().hits == 1

    def test_beta_cap_guard(self, cfg_a48):
        fam = sf.build_family("pma", cfg_a48)
        with pytest.raises(ValueError):
            sv.measure_sd_order(fam.sequences[0], beta_cap=9)


class TestCheckFamily:
    def test_apma_report(self, cfg_b139):
        decomp = fl.Decomposition.from_parts(139, (50, 45, 44))
        fam = sf.build_family("apma", cfg_b139, decomp=decomp)
        rep = sv.check_family(fam)
        assert rep.size == 20
        assert rep.gram_max_offdiag <= 1e-9
        assert rep.ca_max_dev <= 1e-12
        assert rep.zac_max_offpeak <= 1e-9 * 139
        assert rep.measured_sd_order >= fam.sd_order_bound
        assert rep.condition == "B"

    def test_collinear_members_flagged(self, cfg_a48):
        fam = sf.build_family("pma", cfg_a48)
        seq = fam.sequences[0]
        negated = CaSequence(-seq.chi, cfg_a48, meta=dict(seq.meta))
        mixed = sf.Family(sequences=[seq, negated], kind="pma", cfg=cfg_a48,
                          sd_order_bound=0)
        rep = sv.check_family(mixed)
        assert abs(rep.gram_max_offdiag - 1.0) < 1e-12

    def test_multiroot_zc_offdiag_level(self, cfg_b139):
        fam = sf.build_family("zc", cfg_b139, count=8, min_csd=34)
        rep = sv.check_family(fam, beta_cap=2)
        # cross-root pairs sit at 1/sqrt(N)
        assert abs(rep.gram_max_offdiag - 1 / math.sqrt(139)) < 0.02

    def test_report_serializes(self, cfg_a48):
        fam = sf.build_family("pma", cfg_a48)
        rep = sv.check_family(fam)
        data = rep.to_dict()
        assert set(data) >= {"ca_max_dev", "zac_max_offpeak", "gram_max_offdiag",
                             "measured_sd_order", "condition"}
