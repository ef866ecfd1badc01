import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from caseq import factorlab as fl
from caseq import seqforge as sf
from caseq import seqverify as sv
from caseq.seqforge import CaSequence

import paper_oracle as po


def _chi_with_time_samples(time_samples, cfg):
    """chi (as a one-row matrix) whose inverse DFT equals the given time-domain vector."""
    n = len(time_samples)
    q = np.fft.fft(time_samples) / math.sqrt(n)  # unitary forward DFT
    idx = np.arange(n)
    signs = np.where((idx * cfg.gamma) % 2 == 0, 1.0, -1.0)
    return (signs * q * math.sqrt(n))[None, :]


def _zc_row(cfg=None):
    return sf.build_zc_sequence(1, 139, cfg).chi[None, :]


class TestAmplitudeChecks:
    def test_pma_is_ca(self, cfg_a48):
        ca, _ = sv.amplitude_checks(sf.build_family("pma", cfg_a48).chi_matrix())
        assert ca.shape == (2,) and ca.max() < 1e-12

    def test_zc_is_ca(self):
        assert sv.amplitude_checks(_zc_row())[0][0] < 1e-12

    def test_gaussian_negative_control(self):
        rng = np.random.default_rng(5)
        chi = rng.normal(size=48) + 1j * rng.normal(size=48)
        assert sv.amplitude_checks(chi[None, :])[0][0] > 0.1

    def test_pma_zac(self, cfg_a48):
        _, zac = sv.amplitude_checks(sf.build_family("pma", cfg_a48).chi_matrix())
        assert zac.max() < 1e-9

    def test_truncated_m_sequence_time_series_fails_zac(self, cfg_b839):
        # the raw +-1 register stream, truncated, used as time samples
        bits = sf.m_sequence()[:839]
        bpsk = (1.0 - 2.0 * bits) / math.sqrt(839)
        chi = _chi_with_time_samples(bpsk.astype(complex), cfg_b839)
        assert sv.amplitude_checks(chi)[1][0] > 1e-3

    def test_constant_chi_delta_in_time(self):
        # constant magnitude in frequency: off-peak autocorrelation vanishes
        assert sv.amplitude_checks(np.ones((1, 48), dtype=complex))[1][0] < 1e-12

    def test_duality_ca_implies_zac(self, cfg_b839):
        decomp = fl.Decomposition.from_parts(839, (396, 243, 200))
        fam = sf.build_family("hat_dpma", cfg_b839, kappa=3, decomp=decomp)
        ca, zac = sv.amplitude_checks(fam.chi_matrix()[:5])
        assert (ca <= 1e-12).any()
        assert (zac[ca <= 1e-12] <= 1e-9 * fam.n).all()


def _leader_order(fam, beta_cap=sv.DEFAULT_BETA_CAP):
    """(order, capped, magnitude) of the first member."""
    orders, capped, mags = sv.sd_orders(fam.chi_matrix()[:1], fam.cfg, beta_cap)
    return int(orders[0]), bool(capped[0]), float(mags[0])


class TestSdOrders:
    def test_pma_48_condition_a(self, cfg_a48):
        order, capped, first = _leader_order(sf.build_family("pma", cfg_a48))
        assert order == 5 and not capped
        assert first > sv.moment_tolerance(48, 5)

    def test_dpma_orders(self, cfg_a48):
        for kappa in (1, 2, 3):
            fam = sf.build_family("dpma", cfg_a48, kappa=kappa)
            orders, capped, _ = sv.sd_orders(fam.chi_matrix(), cfg_a48, sv.DEFAULT_BETA_CAP)
            assert orders.min() >= fam.sd_order_bound
            assert not capped.any()

    def test_zc_order_zero(self):
        cfg = sf.WaveformConfig(n_seq=139)
        orders, capped, first = sv.sd_orders(_zc_row(cfg), cfg, sv.DEFAULT_BETA_CAP)
        assert orders[0] == 0 and not capped[0]
        assert first[0] > sv.moment_tolerance(139, 0)

    def test_condition_b_needs_both_moment_kinds(self, cfg_b839):
        decomp = fl.Decomposition.from_parts(839, (396, 243, 200))
        fam = sf.build_family("hat_dpma", cfg_b839, kappa=2, decomp=decomp)
        order, capped, _ = _leader_order(fam)
        assert order >= fam.sd_order_bound == 1

    def test_pma_condition_b_floor(self):
        cfg = sf.WaveformConfig(48, gamma=1, alpha=Fraction(33, 256))
        fam = sf.build_family("pma", cfg)
        assert fam.sd_order_bound == 2  # floor(5/2)
        assert _leader_order(fam)[0] >= 2

    def test_cyclic_shift_preserves_order(self, cfg_a48):
        fam = sf.build_family("pma", cfg_a48)
        base_order = _leader_order(fam)[0]
        shifted = np.vstack([m.chi for _, m in po.cs_subfamily(fam, 0)])
        orders, _, _ = sv.sd_orders(shifted, cfg_a48, sv.DEFAULT_BETA_CAP)
        assert orders.min() >= base_order

    def test_moment_tolerance_is_cached_sum(self):
        sv.moment_tolerance.cache_clear()
        for n, beta in ((48, 5), (839, 6), (48, 5)):
            assert sv.moment_tolerance(n, beta) == sv.MOMENT_RTOL * sum(
                i ** beta for i in range(n))
        assert sv.moment_tolerance.cache_info().hits == 1

    def test_beta_cap_guard(self, cfg_a48):
        with pytest.raises(ValueError):
            _leader_order(sf.build_family("pma", cfg_a48), beta_cap=9)

    def test_moments_in_column_blocks_stay_below_two_chi(self):
        # one pma member at N = 2^20, condition A: 16 column blocks of 2^16,
        # against 168 MiB for the powers and their complex cast in one piece
        cfg = sf.WaveformConfig(2 ** 20, gamma=4, alpha=Fraction(1, 4))
        chi = sf.build_family("pma", cfg, count=1).chi_matrix()
        tracemalloc.start()
        try:
            orders, capped, _ = sv.sd_orders(chi, cfg, sv.DEFAULT_BETA_CAP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (orders.tolist(), capped.tolist()) == ([sv.DEFAULT_BETA_CAP + 1], [True])
        assert peak < 2 * chi.nbytes


_B839 = sf.WaveformConfig(839, gamma=1, alpha=Fraction(33, 256))
_GRAM_FAMILIES = {
    "pma839": lambda: sf.build_family("pma", _B839),
    "apma139": lambda: sf.build_family("apma", _B139, decomp=_D139),
    "pn_two": lambda: sf.build_family("pn", sf.WaveformConfig(13), count=2, min_csd=1),
    "near_dpma720": lambda: sf.build_family(
        "near_dpma", sf.WaveformConfig(720, gamma=1, alpha=Fraction(33, 256)), kappa=3),
    "pn839": lambda: sf.build_family("pn", _B839, count=64, min_csd=13),
}


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
        chi = fam.sequences[0].chi
        mixed = sf.Family(sequences=CaSequence(np.array([chi, -chi]), cfg_a48), kind="pma",
                          cfg=cfg_a48, sd_order_bound=0)
        rep = sv.check_family(mixed)
        assert abs(rep.gram_max_offdiag - 1.0) < 1e-12

    def test_peak_memory_below_half_a_stack(self, cfg_b839):
        """Beside the family's own stack, check_family holds row blocks of about
        1 MiB and no J x J Gram or J x N conjugate copy: its traced peak stays
        below half of one J x N complex block (5.4 MiB at pma839)."""
        fam = sf.build_family("pma", cfg_b839)
        tracemalloc.start()
        try:
            sv.check_family(fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 16 * len(fam) * fam.n

    @pytest.mark.parametrize("name", ["pma839", "apma139", "pn_two"])
    def test_gram_blocks_tile_rows_and_meet_each_pair_once(self, monkeypatch, name):
        fam = _GRAM_FAMILIES[name]()
        j, calls, blocks, gram_matrix = len(fam), [], [], sv.gram_matrix

        def recorded(family, lo=0, hi=None):
            calls.append((lo, min(j, hi)))
            blocks.append(gram_matrix(family, lo, hi))
            return blocks[-1]

        monkeypatch.setattr(sv, "gram_matrix", recorded)
        sv.check_family(fam)
        rows = max(1, 2 ** 16 // j)
        assert calls == [(lo, min(j, lo + rows)) for lo in range(0, j, rows)]
        visits = np.zeros((j, j), dtype=int)
        full = gram_matrix(fam)
        for (lo, hi), block in zip(calls, blocks):
            assert block.shape == (hi - lo, j - lo)
            assert np.abs(block - full[lo:hi, lo:]).max() <= 1e-15
            visits[lo:hi, lo:] += np.arange(lo, j) > np.arange(lo, hi)[:, None]
        assert (visits == np.triu(np.ones((j, j), dtype=int), 1)).all()

    def test_blocked_amplitude_checks_equal_one_call(self, cfg_b839):
        fam = sf.build_family("pma", cfg_b839)
        fam.chi_matrix()[-1, 5] *= 1.01  # a defect in the last row block only
        ca, zac = sv.amplitude_checks(fam.chi_matrix())
        rep = sv.check_family(fam)
        assert (rep.ca_max_dev, rep.zac_max_offpeak) == (float(ca.max()), float(zac.max()))
        assert rep.ca_max_dev > 1e-3

    @pytest.mark.parametrize("name", ["pma839", "near_dpma720", "pn839"])
    def test_blocked_maximum_matches_full_gram(self, name):
        fam = _GRAM_FAMILIES[name]()
        got = sv.check_family(fam).gram_max_offdiag
        assert abs(got - sv.max_offdiag(sv.gram_matrix(fam))) <= 1e-15
        if name == "pn839":
            assert abs(got - 0.206) < 5e-4

    def test_multiroot_zc_offdiag_level(self, cfg_b139):
        fam = sf.build_family("zc", cfg_b139, count=8, min_csd=34)
        rep = sv.check_family(fam, beta_cap=2)
        # cross-root pairs sit at 1/sqrt(N)
        assert abs(rep.gram_max_offdiag - 1 / math.sqrt(139)) < 0.02

    def test_oversized_gram_refused_up_front(self, monkeypatch):
        # 30000 pn members would need a 30000^2 complex Gram (13.4 GiB)
        fam = sf.build_family("pn", sf.WaveformConfig(13), count=30000, min_csd=1)
        monkeypatch.setattr(sv, "gram_matrix", lambda family: pytest.fail("Gram formed"))
        with pytest.raises(sf.DomainError, match="GiB"):
            sv.check_family(fam)

    @pytest.mark.parametrize("limit, refused", [(16 * 5 ** 2, False), (16 * 5 ** 2 - 1, True)])
    def test_gram_limit_counts_sixteen_bytes_per_pair(self, monkeypatch, limit, refused):
        fam = sf.build_family("pn", sf.WaveformConfig(13), count=5, min_csd=2)
        monkeypatch.setattr(sv, "MAX_DENSE_TABLE_BYTES", limit)
        if refused:
            with pytest.raises(sf.DomainError, match="Gram"):
                sv.check_family(fam)
        else:
            assert sv.check_family(fam).size == 5

    def test_report_serializes(self, cfg_a48):
        fam = sf.build_family("pma", cfg_a48)
        rep = sv.check_family(fam)
        data = rep.to_dict()
        assert set(data) >= {"ca_max_dev", "zac_max_offpeak", "gram_max_offdiag",
                             "measured_sd_order", "condition"}


def _fsum_moment(seq, beta, twisted):
    """Reference moment: sum_n w[n] n^beta chi[n] in exact partial sums."""
    n = np.arange(seq.n, dtype=np.float64)
    vals = (n ** beta) * seq.chi
    if twisted:
        ag = seq.cfg.alpha_gamma
        frac = (np.arange(seq.n, dtype=np.int64) * ag.numerator) % ag.denominator
        vals = vals * np.exp(-2j * np.pi * (frac / ag.denominator))
    return complex(math.fsum(vals.real), math.fsum(vals.imag))


def _oracle_sd_order(seq, beta_cap):
    """Reference decay order: one member, one exponent at a time, fsum moments."""
    twisted = seq.cfg.condition == "B"
    last = 0.0
    for beta in range(beta_cap + 1):
        mags = [abs(_fsum_moment(seq, beta, False))]
        if twisted:
            mags.append(abs(_fsum_moment(seq, beta, True)))
        if max(mags) > sv.moment_tolerance(seq.n, beta):
            return beta, False, max(mags)
        last = max(mags)
    return beta_cap + 1, True, last


def _oracle_zac(seq):
    """Reference autocorrelation check: three FFTs of one member."""
    q_t = np.fft.ifft(seq.q) * math.sqrt(seq.n)  # unitary inverse DFT
    corr = np.fft.ifft(np.abs(np.fft.fft(q_t)) ** 2)
    return float(np.max(np.abs(corr[1:])))


def _moment_bound(n, beta):
    """The module's stated float bound, N u sum n^beta."""
    return n * np.finfo(np.float64).eps / 2 * sum(float(i) ** beta for i in range(n))


_A48 = sf.WaveformConfig(48, gamma=2, alpha=Fraction(1, 2))
_B48 = sf.WaveformConfig(48, gamma=1, alpha=Fraction(33, 256))
_B139 = sf.WaveformConfig(139, gamma=1, alpha=Fraction(33, 256))
_D139 = fl.Decomposition.from_parts(139, (50, 45, 44))

FAMILIES = {
    "pma": lambda: sf.build_family("pma", _A48),
    "pma_condition_b": lambda: sf.build_family("pma", _B48),
    "dpma": lambda: sf.build_family("dpma", _A48, kappa=2),
    "near_dpma": lambda: sf.build_family("near_dpma", _A48, kappa=3),
    "hat_pma": lambda: sf.build_family("hat_pma", _B139, decomp=_D139),
    "hat_dpma": lambda: sf.build_family("hat_dpma", _B139, kappa=1, decomp=_D139),
    "apma": lambda: sf.build_family("apma", _B139, decomp=_D139),
    "adpma": lambda: sf.build_family("adpma", _B139, kappa=1, decomp=_D139),
    "zc": lambda: sf.build_family("zc", _B139, count=8, min_csd=34),
    "pn": lambda: sf.build_family("pn", _B139, count=8, min_csd=26),
    "apma_count": lambda: sf.build_family("apma", _B139, decomp=_D139, count=5),
}


def _mixed_family():
    """pma48: a member, the other one doubled (not CA), and the first one
    bent so that its order breaks at 2."""
    seqs = sf.build_family("pma", _A48).sequences
    bend = np.zeros(48)
    bend[19:22] = (1e-2, -2e-2, 1e-2)  # kills no moment below beta = 2
    members = CaSequence(np.array([seqs[0].chi, 2.0 * seqs[1].chi, seqs[0].chi + bend]), _A48)
    return sf.Family(sequences=members, kind="pma", cfg=_A48, sd_order_bound=0)


class TestBatchedVerifier:
    @pytest.mark.parametrize("beta_cap", [2, 6])
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_family_matches_per_member_oracle(self, name, beta_cap):
        fam = FAMILIES[name]()
        rep = sv.check_family(fam, beta_cap=beta_cap)
        oracle = [_oracle_sd_order(s, beta_cap) for s in fam.sequences]
        assert rep.measured_sd_order == min(o[0] for o in oracle)
        assert rep.sd_order_capped == any(o[1] for o in oracle)
        assert (rep.condition, rep.size) == (fam.cfg.condition, len(fam.sequences))
        orders, capped, _ = sv.sd_orders(fam.chi_matrix(), fam.cfg, beta_cap)
        assert list(zip(orders.tolist(), capped.tolist())) == [o[:2] for o in oracle]

    @pytest.mark.parametrize("beta_cap", [3, 6])
    def test_mixed_family_takes_minimum_and_capped_over_members(self, beta_cap):
        fam = _mixed_family()
        rep = sv.check_family(fam, beta_cap=beta_cap)
        oracle = [_oracle_sd_order(s, beta_cap) for s in fam.sequences]
        assert [o[0] for o in oracle] == [min(5, beta_cap + 1)] * 2 + [2]
        assert rep.measured_sd_order == 2
        assert rep.sd_order_capped == any(o[1] for o in oracle) == (beta_cap < 5)
        assert abs(rep.ca_max_dev - 1.0) < 1e-12
        got = zip(*sv.sd_orders(fam.chi_matrix(), fam.cfg, beta_cap))
        for (order, capped, mag), (got_order, got_capped, got_mag) in zip(oracle, got):
            assert (got_order, got_capped) == (order, capped)
            assert abs(got_mag - mag) <= _moment_bound(48, min(order, beta_cap))

    @pytest.mark.parametrize("n,kind,kappa,parts", [
        (839, "pma", 0, None), (1151, "adpma", 1, (468, 440, 243))])
    def test_moments_within_stated_bound_of_fsum(self, n, kind, kappa, parts):
        cfg = sf.WaveformConfig(n, gamma=1, alpha=Fraction(33, 256))
        decomp = None if parts is None else fl.Decomposition.from_parts(n, parts)
        fam = sf.build_family(kind, cfg, kappa=kappa, decomp=decomp)
        moments = sv._moments(fam.chi_matrix(), cfg, sv.DEFAULT_BETA_CAP)
        assert moments.shape == (len(fam), 2, sv.DEFAULT_BETA_CAP + 1)
        for beta in range(sv.DEFAULT_BETA_CAP + 1):
            bound = _moment_bound(n, beta)
            for twisted in (False, True):
                ref = np.array([_fsum_moment(s, beta, twisted) for s in fam.sequences])
                gap = np.abs(moments[:, int(twisted), beta] - ref)
                assert gap.max() <= bound, (beta, twisted, gap.max() / bound)

    @pytest.mark.parametrize("name", ["pma", "dpma", "hat_dpma", "adpma", "zc", "pn"])
    def test_batched_zac_matches_three_fft_check(self, name):
        fam = FAMILIES[name]()
        _, zac = sv.amplitude_checks(fam.chi_matrix())
        for seq, got in zip(fam.sequences, zac):
            ref = _oracle_zac(seq)
            assert abs(got - ref) <= 1e-15
            assert sv.amplitude_checks(seq.chi[None, :])[1][0] == got

    def test_batched_zac_flags_perturbed_member(self, cfg_b139):
        fam = sf.build_family("apma", cfg_b139, decomp=_D139)
        chi = fam.chi_matrix()
        chi[3, 10] *= 1.01
        _, zac = sv.amplitude_checks(chi)
        bent = CaSequence(chi[3], cfg_b139)
        assert abs(zac[3] - _oracle_zac(bent)) <= 1e-15
        assert zac[3] > 1e-9 * 139
        assert np.delete(zac, 3).max() <= 1e-9 * 139

    @pytest.mark.parametrize("beta_cap", [-1, 9])
    def test_beta_cap_outside_domain_raises(self, cfg_a48, beta_cap):
        fam = sf.build_family("pma", cfg_a48)
        with pytest.raises(fl.DomainError):
            sv.check_family(fam, beta_cap=beta_cap)
        with pytest.raises(fl.DomainError):
            sv.sd_orders(fam.chi_matrix(), fam.cfg, beta_cap)

    @pytest.mark.parametrize("beta_cap", [0, 8])
    def test_beta_cap_domain_ends(self, cfg_a48, beta_cap):
        fam = sf.build_family("pma", cfg_a48)
        rep = sv.check_family(fam, beta_cap=beta_cap)
        assert rep.measured_sd_order == min(5, beta_cap + 1)
