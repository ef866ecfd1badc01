import dataclasses
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from caseq import factorlab as fl
from caseq import rachsim as rc
from caseq import seqforge as sf
from caseq.factorlab import DomainError


@pytest.fixture(scope="module")
def apma139():
    cfg = sf.WaveformConfig(139, gamma=1, alpha=Fraction(33, 256))
    decomp = fl.Decomposition.from_parts(139, (50, 45, 44))
    return sf.build_family("apma", cfg, decomp=decomp)


@pytest.fixture(scope="module")
def zc139():
    """Two ZC roots, 15 cyclic shifts each: a non-orthogonal candidate set."""
    cfg = sf.WaveformConfig(139, gamma=1, alpha=Fraction(33, 256))
    return sf.build_family("zc", cfg, count=30, min_csd=9)


def _sigmas(family, pick, profile):
    """sigma_fie and sigma_c of the picked members, from their leakage tables."""
    return rc._variances(rc._leakage_tables(family, pick, profile, 1250.0), profile.powers)


def _closed_form(family, pick, profile, beta, phi):
    sigma_fie, sigma_c = _sigmas(family, pick, profile)
    return rc._closed_forms(sigma_fie, sigma_c, beta, phi), sigma_c


class TestChannelProfile:
    def test_flat_fading(self):
        prof = rc.ChannelProfile.flat_fading()
        assert prof.delays_s == (0.0,)
        assert prof.sigma_rms_s == 0.0

    def test_shipped_profiles(self):
        umi = rc.ChannelProfile.shipped("umi")
        ind = rc.ChannelProfile.shipped("ind")
        assert abs(umi.sigma_rms_s - 65e-9) < 1e-12
        assert abs(ind.sigma_rms_s - 20e-9) < 1e-12
        assert abs(sum(umi.powers) - 1.0) < 1e-9
        assert umi.sigma_rms_s > ind.sigma_rms_s

    def test_profile_file_round_trip(self, tmp_path):
        path = tmp_path / "prof.json"
        path.write_text(json.dumps({
            "name": "two-tap",
            "normalize": True,
            "taps": [{"delay_ns": 0.0, "power_db": 0.0},
                     {"delay_ns": 100.0, "power_db": -3.0}],
        }))
        prof = rc.ChannelProfile.load(path)
        assert prof.name == "two-tap"
        assert abs(sum(prof.powers) - 1.0) < 1e-12

    def test_invalid_profiles(self):
        with pytest.raises(DomainError):
            rc.ChannelProfile("bad", (0.0, 0.0), (0.5, 0.5))
        with pytest.raises(DomainError):
            rc.ChannelProfile("bad", (0.0, 1e-9), (0.9, 0.3))

    @pytest.mark.parametrize("delays,powers,match", [
        ((0.0, 1e-7), (1.5, -0.5), "powers"),
        ((0.0, 1e-7), (math.nan, math.nan), "powers"),
        ((0.0, 1e-7), (math.inf, 0.0), "powers"),
        ((-1e-9, 0.0), (0.5, 0.5), "delays"),
        ((0.0, math.nan), (0.5, 0.5), "delays"),
        ((0.0, math.inf), (0.5, 0.5), "delays"),
    ], ids=["negative_power", "nan_powers", "inf_power", "negative_delay", "nan_delay",
            "inf_delay"])
    def test_non_finite_or_negative_taps_refused(self, delays, powers, match):
        with pytest.raises(DomainError, match=match):
            rc.ChannelProfile("bad", delays, powers)

    def test_nan_power_db_in_file_refused(self):
        with pytest.raises(DomainError, match="powers"):
            rc.ChannelProfile.from_dict({"name": "x", "taps": [
                {"delay_ns": 0.0, "power_db": 0.0}, {"delay_ns": 50.0, "power_db": math.nan}]})


class TestClosedForms:
    def test_flat_fading_orthogonal_family(self, apma139):
        phi = 2.0
        beta = -math.log(1e-2) / phi
        cf, sigma_c = _closed_form(apma139, np.arange(len(apma139)),
                                   rc.ChannelProfile.flat_fading(), beta, phi)
        assert abs(cf["p_fa"] - 1e-2) < 1e-12
        assert abs(cf["p_fid"] - cf["p_fa"]) < 1e-9  # orthogonal minimum
        assert abs(sigma_c - 139.0) < 1e-9
        expected_pc = math.exp(-beta * phi / (1 + phi * 139))
        assert abs(cf["p_c"] - expected_pc) < 1e-12

    def test_beta_rule_hits_target_p_fa(self, apma139):
        phi = 10 ** 0.7
        beta = (5.0 / phi) * math.log(10.0)
        cf, _ = _closed_form(apma139, np.arange(6), rc.ChannelProfile.flat_fading(),
                             beta, phi)
        assert abs(cf["p_fa"] - 1e-5) < 1e-18

    def test_sigma_fie_shrinks_with_delay_spread(self, apma139):
        every = np.arange(len(apma139))
        umi, _ = _sigmas(apma139, every, rc.ChannelProfile.shipped("umi"))
        ind, _ = _sigmas(apma139, every, rc.ChannelProfile.shipped("ind"))
        ff, sigma_c = _sigmas(apma139, every, rc.ChannelProfile.flat_fading())
        assert ff.max() < 1e-15      # orthogonal pairs leak nothing flat
        assert ind.max() < umi.max()  # shorter spread, less leakage
        assert abs(sigma_c - 139.0) < 1e-9


class TestRunSimulation:
    def test_mc_matches_closed_forms(self, apma139):
        cfg = rc.RaSimConfig(family=apma139, snr_db_list=[0.0], trials=60000,
                             seed=21, profile=rc.ChannelProfile.flat_fading(),
                             p_fa_target=1e-2)
        res = rc.run_simulation(cfg)
        entry = res.per_snr[0]
        # p_fa and p_c against the binomial sd at the closed form, p_fid
        # against its reported per-trial sigma
        events = {"p_fa": cfg.trials * len(apma139), "p_c": cfg.trials}
        for metric in ("p_fa", "p_fid", "p_c"):
            est, sigma = entry.mc[metric]
            cf = entry.closed_form[metric]
            if metric in events:
                sigma = rc.binomial_sd(cf, events[metric])
            assert abs(est - cf) <= 3 * max(sigma, 1e-9)

    def test_score_sigma_near_one(self):
        # 1 miss in 2048 trials where the closed form expects 7.25: the
        # Wilson half-width about the estimate puts it 5.6 sigma out, the
        # binomial sd at the closed form 2.3 sigma
        n = 2048
        est, p0 = 1.0 - 1.0 / n, 1.0 - 7.25 / n
        assert (est - p0) / rc.wilson_sigma(n - 1, n) == pytest.approx(5.59, abs=0.01)
        assert (est - p0) / rc.binomial_sd(p0, n) == pytest.approx(2.33, abs=0.01)

    def test_no_request_statistic_is_exponential(self, apma139):
        # Kolmogorov-Smirnov against Exp(mean 1/phi) at the 1% level
        phi = 2.0
        q = apma139.sequences[0].q
        rng = np.random.Generator(np.random.Philox(key=[31, 32]))
        draws = 100000
        z = rc._cscg(rng, (draws, 139), variance=1.0 / phi)
        y = np.sort(np.abs(z @ np.conj(q)) ** 2)
        cdf = 1.0 - np.exp(-phi * y)
        empirical = (np.arange(1, draws + 1) - 0.5) / draws
        ks = np.max(np.abs(cdf - empirical))
        assert ks < 1.63 / math.sqrt(draws)  # 1% critical value

    def test_mean_correlator_energy(self, apma139):
        # E Y(q_i) = 1/phi + sigma_fie for i != k, 1/phi + sigma_c for i = k
        prof = rc.ChannelProfile.shipped("umi")
        q = apma139.q_matrix()[:4]
        sigma_fie, sigma_c = _sigmas(apma139, np.arange(4), prof)
        phi = 1.0
        rng = np.random.Generator(np.random.Philox(key=[41, 42]))
        trials = 60000
        k = 1
        gains = rc._cscg(rng, (trials, len(prof.delays_s))) * np.sqrt(
            np.asarray(prof.powers))
        phases = np.exp(-2j * np.pi * 1250.0 * np.outer(
            np.asarray(prof.delays_s), np.arange(139)))
        h = gains @ phases
        z = rc._cscg(rng, (trials, 139), variance=1.0 / phi)
        r = math.sqrt(139) * q[k] * h + z
        y = np.abs(r @ q.conj().T) ** 2
        for i in range(4):
            expected = 1.0 / phi + (sigma_c if i == k else sigma_fie[i, k])
            se = 3 * expected / math.sqrt(trials)
            assert abs(y[:, i].mean() - expected) < 3 * se

    def test_seeded_determinism(self, apma139):
        cfg = rc.RaSimConfig(family=apma139, snr_db_list=[-4.0, 4.0],
                             trials=5000, seed=5,
                             profile=rc.ChannelProfile.shipped("ind"),
                             p_fa_target=1e-2)
        a = rc.run_simulation(cfg)
        b = rc.run_simulation(cfg)
        for ea, eb in zip(a.per_snr, b.per_snr):
            assert ea.mc == eb.mc

    def test_batch_boundaries_do_not_change_tallies(self, apma139, monkeypatch):
        cfg = rc.RaSimConfig(family=apma139, snr_db_list=[0.0], trials=6000,
                             seed=9, profile=rc.ChannelProfile.flat_fading(),
                             p_fa_target=1e-2)
        full = rc.run_simulation(cfg)
        monkeypatch.setattr(rc, "BATCH", 1024)
        # different batch split draws different streams; only check validity
        split = rc.run_simulation(cfg)
        est_full = full.per_snr[0].mc["p_fa"][0]
        est_split = split.per_snr[0].mc["p_fa"][0]
        assert abs(est_full - est_split) < 5e-3

    def test_subset_draw_is_seeded(self, apma139):
        a = rc._subset(apma139, 8, seed=3)
        b = rc._subset(apma139, 8, seed=3)
        c = rc._subset(apma139, 8, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_csv_rows(self, apma139):
        cfg = rc.RaSimConfig(family=apma139, snr_db_list=[0.0], trials=2000,
                             seed=2, profile=rc.ChannelProfile.flat_fading(),
                             p_fa_target=1e-2)
        rows = rc.result_csv_rows(rc.run_simulation(cfg))
        assert len(rows) == 3
        assert {r[1] for r in rows} == {"p_fa", "p_fid", "p_c"}

    def test_unresolvable_target_warns(self, apma139):
        cfg = rc.RaSimConfig(family=apma139, snr_db_list=[0.0], trials=1000,
                             seed=1, profile=rc.ChannelProfile.flat_fading(),
                             p_fa_target=1e-6)
        with pytest.warns(UserWarning, match="cannot resolve"):
            rc.run_simulation(cfg)

    def test_tiny_threshold_flags_every_correlator(self, apma139):
        cfg = rc.RaSimConfig(family=apma139, snr_db_list=[0.0], trials=200,
                             seed=11, profile=rc.ChannelProfile.shipped("umi"),
                             j_sequences=8, beta=1e-30)
        entry = rc.run_simulation(cfg).per_snr[0]
        for metric in ("p_fa", "p_fid", "p_c"):
            assert entry.mc[metric][0] == 1.0
            assert entry.closed_form[metric] == pytest.approx(1.0)

    def test_noiseless_flat_fading_identifies_exactly_the_request(self, apma139):
        # at 100 dB the noise and the orthogonal leakage stay far below beta,
        # while the matched output N |g|^2 exceeds it unless |g|^2 < 7e-9
        cfg = rc.RaSimConfig(family=apma139, snr_db_list=[100.0], trials=1000,
                             seed=12, profile=rc.ChannelProfile.flat_fading(),
                             j_sequences=8, beta=1e-6)
        mc = rc.run_simulation(cfg).per_snr[0].mc
        assert (mc["p_fa"][0], mc["p_fid"][0], mc["p_c"][0]) == (0.0, 0.0, 1.0)

    def test_config_validation(self, apma139):
        # apma139 has 20 members
        for bad, match in [
            ({}, "exactly one"),
            ({"p_fa_target": 1e-2, "beta": 1.0}, "exactly one"),
            ({"p_fa_target": 1e-2, "trials": 1}, "trials"),
            ({"p_fa_target": 1e-2, "j_sequences": 100}, "identification sequences"),
            ({"p_fa_target": 1e-2, "j_sequences": 1}, "identification sequences"),
            ({"p_fa_target": 1e-2, "j_sequences": 0}, "identification sequences"),
            ({"p_fa_target": 0.0}, "p_fa_target"),
            ({"p_fa_target": 1.0}, "p_fa_target"),
            ({"p_fa_target": 2.0}, "p_fa_target"),
            ({"p_fa_target": math.nan}, "p_fa_target"),
            ({"beta": 0.0}, "beta"),
            ({"beta": -1.0}, "beta"),
            ({"beta": math.inf}, "beta"),
            ({"beta": math.nan}, "beta"),
            ({"p_fa_target": 1e-2, "snr_db_list": [0.0, math.nan]}, "SNR"),
            ({"p_fa_target": 1e-2, "snr_db_list": [math.inf]}, "SNR"),
            ({"p_fa_target": 1e-2, "delta_f_hz": math.nan}, "delta_f_hz"),
            ({"p_fa_target": 1e-2, "delta_f_hz": 0.0}, "delta_f_hz"),
        ]:
            kwargs = {"snr_db_list": [0.0], "trials": 10, **bad}
            with pytest.raises(DomainError, match=match):
                rc.RaSimConfig(family=apma139, seed=1,
                               profile=rc.ChannelProfile.flat_fading(), **kwargs)


class TestCorrelatorModel:
    def test_flat_fading_leakage_is_scaled_gram(self, zc139):
        # one tap at zero delay: C_0 = sqrt(N) Q Q^H, the same channel on every tone
        q = zc139.q_matrix()
        leak = rc._leakage(q, rc.ChannelProfile.flat_fading(), 1250.0)
        sigma_fie, sigma_c = _sigmas(zc139, np.arange(30), rc.ChannelProfile.flat_fading())
        gram = math.sqrt(139) * q @ q.conj().T
        assert leak.shape == (1, 30, 30)
        assert np.max(np.abs(leak[0] - gram)) <= 1e-12 * math.sqrt(139)
        assert abs(sigma_c - 139.0) < 1e-9
        off = ~np.eye(30, dtype=bool)
        assert np.allclose(sigma_fie[off], np.abs(gram.T[off]) ** 2, rtol=1e-12, atol=0)

    def test_complete_family_conserves_tap_power(self):
        # rows of a unitary Q: every C_l[k, :] has energy N, so each column
        # of sigma_fie plus sigma_c adds up to N times the unit total power
        n = 64
        q = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / math.sqrt(n)
        prof = rc.ChannelProfile.shipped("umi")
        leak = rc._leakage(q, prof, 1250.0)
        sigma_fie, sigma_c = rc._variances(rc._dense_tables(q, prof, 1250.0), prof.powers)
        assert np.allclose(np.sum(np.abs(leak) ** 2, axis=2), n, rtol=1e-12, atol=0)
        assert np.allclose(sigma_fie.sum(axis=0) + sigma_c, n, rtol=1e-12, atol=0)

    def test_two_tap_signal_variance_matches_tone_sum(self, apma139):
        # sigma_c = (1/N) sum_l p_l |sum_n exp(-2j pi df n tau_l)|^2 for a
        # constant-amplitude family: the tones' channel correlation summed
        prof = rc.ChannelProfile("two-tap", (0.0, 200e-9), (0.5, 0.5))
        n, df = 139, 1250.0
        _, sigma_c = _sigmas(apma139, np.arange(len(apma139)), prof)
        expected = sum(p * abs(np.exp(-2j * np.pi * df * t * np.arange(n)).sum()) ** 2
                       for t, p in zip(prof.delays_s, prof.powers)) / n
        assert abs(sigma_c - expected) <= 1e-12 * expected
        assert expected < n - 1e-3  # the second tap decorrelates the tones

    def test_matches_correlating_the_tone_observation(self, zc139):
        # the same draw of k, tap gains and N-tone noise z, pushed through the
        # leakage tensor and through sqrt(N) q_k*h + z correlated against q
        prof = rc.ChannelProfile.shipped("umi")
        q = zc139.q_matrix()
        n = q.shape[1]
        leak = rc._leakage(q, prof, 1250.0)
        rng = np.random.Generator(np.random.Philox(key=[51, 52]))
        k = int(rng.integers(0, len(q)))
        gains = rc._cscg(rng, len(prof.delays_s)) * np.sqrt(np.asarray(prof.powers))
        z = rc._cscg(rng, n, variance=0.5)
        h = gains @ np.exp(-2j * np.pi * 1250.0 * np.outer(prof.delays_s, np.arange(n)))
        tones = (math.sqrt(n) * q[k] * h + z) @ q.conj().T
        model = np.tensordot(gains, leak[:, k, :], axes=1) + z @ q.conj().T
        assert np.max(np.abs(model - tones)) <= 1e-12 * np.max(np.abs(tones))

    def test_closed_forms_match_per_pair_loop(self, zc139):
        # reference: the per-tap cross products and the per-k loop over i != k
        prof = rc.ChannelProfile.shipped("umi")
        q = zc139.q_matrix()
        j, n = q.shape
        ref = np.zeros((j, j))
        for delay, p in zip(prof.delays_s, prof.powers):
            ph = np.exp(-2j * np.pi * 1250.0 * delay * np.arange(n))
            ref += p * n * np.abs(q.conj() @ (q * ph).T) ** 2
        np.fill_diagonal(ref, 0.0)
        sigma_fie, _ = _sigmas(zc139, np.arange(j), prof)
        assert np.max(np.abs(sigma_fie - ref)) <= 1e-12 * ref.max()
        phi = 10 ** 0.2
        beta = -math.log(1e-2) / phi
        cf, _ = _closed_form(zc139, np.arange(j), prof, beta, phi)
        for k in range(j):
            loop = sum(math.exp(-beta * phi / (1.0 + phi * ref[i, k]))
                       for i in range(j) if i != k) / (j - 1)
            assert abs(cf["p_fid_per_k"][k] - loop) <= 1e-12

    @pytest.mark.parametrize("n, count, min_csd", [(139, 30, 9), (13, 20, 1)])
    def test_coloured_noise_covariance(self, n, count, min_csd):
        # E[w_i conj(w_j)] = var M[i, j]; each sample-covariance entry has
        # standard error var sqrt(M_ii M_jj / T) = var / sqrt(T), and 5 of
        # them bound the largest of J^2 entries.  (13, 20) has more
        # sequences than tones, so M is singular and Cholesky cannot factor it.
        cfg = sf.WaveformConfig(n, gamma=1, alpha=Fraction(33, 256))
        q = sf.build_family("zc", cfg, count=count, min_csd=min_csd).q_matrix()
        gram = q.conj() @ q.T
        colour = rc._noise_colour(gram)
        assert colour is not None
        var, draws = 0.25, 40000
        rng = np.random.Generator(np.random.Philox(key=[53, 54]))
        w = rc._noise(rng, (draws, len(q)), var, colour)
        cov = w.T @ w.conj() / draws
        assert np.max(np.abs(cov - var * gram)) < 5 * var / math.sqrt(draws)
        assert np.max(np.abs(gram - np.eye(len(q)))) > 0.08  # not a white set

    def test_orthogonal_family_takes_white_path(self, apma139, cfg_b139):
        # M from the recipe of pma and from the dense Gram of apma
        pma = sf.build_family("pma", cfg_b139)
        for fam in (pma, apma139):
            tables = rc._leakage_tables(fam, np.arange(len(fam)),
                                        rc.ChannelProfile.flat_fading(), 1250.0)
            assert tables.colour is None

    def test_common_random_numbers_across_families(self, apma139, cfg_b139):
        # no-request outputs are the same white draws for any orthogonal
        # family with the same J, so the false-alarm tallies coincide
        pma = sf.build_family("pma", cfg_b139)
        res = [rc.run_simulation(rc.RaSimConfig(
            family=fam, snr_db_list=[0.0, 6.0], trials=3000, seed=7,
            profile=rc.ChannelProfile.shipped("umi"), j_sequences=16,
            p_fa_target=1e-2)) for fam in (pma, apma139)]
        for a, b in zip(res[0].per_snr, res[1].per_snr):
            assert a.mc["p_fa"] == b.mc["p_fa"]

    def test_p_fid_sigma_tracks_spread_across_seeds(self, zc139):
        # Under the umi profile the J - 1 false identifications of a trial
        # share a channel draw.  Over 40 seeds, (S - 1) s^2 / sigma^2 of the
        # p_fid estimates must fall in the 99% chi-square band with 39
        # degrees of freedom, [19.996, 65.476], for the mean reported sigma.
        # A binomial (Wilson) sigma over trials * (J - 1) events does not.
        seeds, trials = 40, 100
        est, sigma, wilson = [], [], []
        for seed in range(1000, 1000 + seeds):
            res = rc.run_simulation(rc.RaSimConfig(
                family=zc139, snr_db_list=[2.0], trials=trials, seed=seed,
                profile=rc.ChannelProfile.shipped("umi"), p_fa_target=1e-2))
            p, sig = res.per_snr[0].mc["p_fid"]
            events = trials * (len(zc139) - 1)
            est.append(p)
            sigma.append(sig)
            wilson.append(rc.wilson_sigma(round(p * events), events))
        spread = (seeds - 1) * np.var(est, ddof=1)
        assert 19.996 <= spread / np.mean(sigma) ** 2 <= 65.476
        assert spread / np.mean(wilson) ** 2 > 65.476


_A48 = sf.WaveformConfig(48, gamma=2, alpha=Fraction(1, 2))
_B48 = sf.WaveformConfig(48, gamma=1, alpha=Fraction(33, 256))
_B139 = sf.WaveformConfig(139, gamma=1, alpha=Fraction(33, 256))
_B720 = sf.WaveformConfig(720, gamma=1, alpha=Fraction(33, 256))


class TestLeakageTables:
    @pytest.mark.parametrize("kind, cfg, kappa, count, j", [
        ("pma", _A48, 0, None, None),
        ("pma", _B139, 0, None, None),
        ("dpma", _A48, 2, None, None),
        ("dpma", _B48, 2, None, None),
        ("dpma", _B720, 2, None, None),
        ("near_dpma", _B48, 3, None, None),
        ("pma", _B139, 0, None, 16),
        ("dpma", _B720, 2, 50, 20),
    ], ids=["pma48_A", "pma139_B", "dpma48_k2_A", "dpma48_k2_B", "dpma720_k2_B",
            "near_dpma48_k3_B", "pma139_subset16", "dpma720_k2_count50_subset20"])
    def test_recipe_tables_match_dense_leakage(self, kind, cfg, kappa, count, j):
        fam = sf.build_family(kind, cfg, kappa=kappa, count=count)
        pick = rc._subset(fam, j or len(fam), seed=3)
        prof = rc.ChannelProfile.shipped("umi")
        tables = rc._leakage_tables(fam, pick, prof, 1250.0)
        assert tables.source == "recipe"
        assert tables.table.shape == (len(prof.delays_s), fam.n)
        dense = rc._leakage(fam.q_matrix()[pick], prof, 1250.0)
        assert np.max(np.abs(tables.table[:, tables.index] - dense)) <= 1e-12 * math.sqrt(fam.n)
        assert tables.colour is None

    @pytest.mark.parametrize("profile", ["umi", "ind"])
    @pytest.mark.parametrize("j, recipe_sum", [(32, "per_tap"), (138, "product")])
    def test_recipe_and_dense_runs_agree(self, cfg_b139, profile, j, recipe_sum):
        # the same family with its recipe stripped takes the dense path; the
        # 139-column recipe table is summed in one product at J = 138 and
        # tap by tap at J = 32, the J^2-column dense table always tap by tap
        fam = sf.build_family("pma", cfg_b139)
        res = {}
        for source, f, tap_sum in (("recipe", fam, recipe_sum),
                                   ("dense", dataclasses.replace(fam, meta={}), "per_tap")):
            res[source] = rc.run_simulation(rc.RaSimConfig(
                family=f, snr_db_list=[-4.0, 4.0], trials=3000, seed=13,
                profile=rc.ChannelProfile.shipped(profile), j_sequences=j,
                p_fa_target=1e-2))
            echo = res[source].config_echo
            assert (echo["leakage"], echo["noise"], echo["tap_sum"]) == (source, "white", tap_sum)
        assert res["recipe"].config_echo["table_bytes"] < res["dense"].config_echo["table_bytes"]
        for a, b in zip(res["recipe"].per_snr, res["dense"].per_snr):
            assert a.mc == b.mc
            for metric in ("p_fa", "p_fid", "p_c"):
                assert a.closed_form[metric] == pytest.approx(b.closed_form[metric],
                                                              rel=1e-12, abs=0)
        assert res["recipe"].sigma_c == pytest.approx(res["dense"].sigma_c, rel=1e-12)

    def test_rows_that_disagree_with_the_recipe_refused(self, cfg_b139):
        fam = sf.build_family("pma", cfg_b139)
        rows = list(fam.sequences)
        rows[3], rows[7] = rows[7], rows[3]
        swapped = dataclasses.replace(fam, sequences=rows)
        cfg = rc.RaSimConfig(family=swapped, snr_db_list=[0.0], trials=10, seed=1,
                             profile=rc.ChannelProfile.flat_fading(), p_fa_target=1e-2)
        with pytest.raises(DomainError, match="recipe"):
            rc.run_simulation(cfg)

    def test_oversized_dense_tables_refused_up_front(self):
        # 30000 pn members would need an 8 x 30000^2 complex tensor (115 GB)
        fam = sf.build_family("pn", sf.WaveformConfig(13), count=30000, min_csd=1)
        cfg = rc.RaSimConfig(family=fam, snr_db_list=[0.0], trials=2, seed=1,
                             profile=rc.ChannelProfile.shipped("umi"), p_fa_target=1e-2)
        with pytest.raises(DomainError, match="GiB"):
            rc.run_simulation(cfg)

    def test_coloured_family_echoes_dense_coloured(self, zc139):
        res = rc.run_simulation(rc.RaSimConfig(
            family=zc139, snr_db_list=[0.0], trials=200, seed=1,
            profile=rc.ChannelProfile.shipped("umi"), p_fa_target=1e-2))
        echo = res.config_echo
        assert (echo["leakage"], echo["noise"], echo["tap_sum"]) == ("dense", "coloured", "per_tap")
        assert res.config_echo["table_bytes"] == (8 * 16 + 8) * 30 * 30

    def test_peak_memory_of_the_product_path(self, cfg_b839):
        # pma839 at J = 838 sums its 839-column table in one product, which
        # is freed before the noise is drawn: the traced peak stays below
        # 3.5 blocks of b x J complex (the per-tap sum peaked at 3.96)
        fam = sf.build_family("pma", cfg_b839)
        cfg = rc.RaSimConfig(family=fam, snr_db_list=[2.0], trials=2048, seed=5,
                             profile=rc.ChannelProfile.shipped("umi"), p_fa_target=1e-2)
        tracemalloc.start()
        try:
            echo = rc.run_simulation(cfg).config_echo
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert echo["tap_sum"] == "product"
        assert peak < 3.5 * 2048 * 838 * 16


class TestNoiseDraws:
    def test_cscg_is_circular_with_half_the_variance_per_part(self):
        # Re and Im each of variance var / 2, E[w^2] = 0; the bounds are five
        # standard errors of the sample moments over 200000 draws
        draws, var = 200000, 0.3
        w = rc._cscg(np.random.Generator(np.random.Philox(key=[61, 62])), draws, var)
        se_var = var / 2 * math.sqrt(2.0 / draws)
        assert abs(np.var(w.real) - var / 2) < 5 * se_var
        assert abs(np.var(w.imag) - var / 2) < 5 * se_var
        assert abs(np.mean(w * w)) < 5 * math.sqrt(2.0) * var / math.sqrt(draws)

    def test_white_noise_energy_is_exponential(self):
        # Kolmogorov-Smirnov against Exp(mean var) at the 1% level
        draws, var = 100000, 0.3
        energy = rc._noise_energy(np.random.Generator(np.random.Philox(key=[61, 62])),
                                  draws, var, None)
        cdf = 1.0 - np.exp(-np.sort(energy) / var)
        empirical = (np.arange(1, draws + 1) - 0.5) / draws
        assert np.max(np.abs(cdf - empirical)) < 1.63 / math.sqrt(draws)
