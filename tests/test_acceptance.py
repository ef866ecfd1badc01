"""Acceptance suite: one test per release criterion, each printing a
PASS line on success (run with -s to see them live).

Reference constants pin the expected factor sets, rotation
angles, and detection-probability brackets; tolerances are pinned here
and nowhere else.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from caseq import factorlab as fl
from caseq import rachsim as rc
from caseq import seqforge as sf
from caseq import seqverify as sv
from caseq import spectra as sp

import paper_oracle as po

CONDITION_A = dict(gamma=2, alpha=Fraction(1, 2))
CONDITION_B = dict(gamma=1, alpha=Fraction(33, 256))

# (kappa, mode) -> (ascending factor set, family size, family csd, available)
FLAT_REFERENCE = {
    48: {"min_csd": 4, "rows": {
        (0, "proper"): ((2, 2, 2, 2, 3), 2, 16, 2),
        (1, "proper"): ((2, 2, 3, 4), 6, 12, 6),
        (2, "proper"): ((3, 4, 4), 18, 12, 18),
        (3, "proper"): ((6, 8), 35, 6, 35),
        (3, "near"): ((6, 8), 35, 6, 35),
    }},
    144: {"min_csd": 12, "rows": {
        (0, "proper"): ((2, 2, 2, 2, 3, 3), 4, 48, 4),
        (1, "proper"): ((2, 2, 3, 3, 4), 12, 36, 12),
        (2, "proper"): ((3, 3, 4, 4), 36, 36, 36),
        (3, "proper"): ((4, 6, 6), 75, 24, 75),
        (3, "near"): ((4, 6, 6), 75, 24, 75),
        (4, "proper"): ((12, 12), 121, 12, 121),
        (4, "near"): ((12, 12), 121, 12, 121),
    }},
    288: {"min_csd": 24, "rows": {
        (0, "proper"): ((2, 2, 2, 2, 2, 3, 3), 4, 96, 4),
        (1, "proper"): ((2, 2, 2, 3, 3, 4), 12, 72, 12),
        (2, "proper"): ((2, 3, 3, 4, 4), 36, 72, 36),
        (3, "proper"): ((3, 4, 4, 6), 90, 48, 90),
        (3, "near"): ((3, 4, 4, 6), 90, 48, 90),
        (4, "proper"): ((6, 6, 8), 175, 36, 175),
        (4, "near"): ((4, 8, 9), 168, 32, 168),
        (5, "proper"): ((16, 18), 255, 16, 120),
        (5, "near"): ((16, 18), 255, 16, 120),
    }},
}

# n -> (parts, min_omega, {kappa: (size, augmented size)},
#       {kappa: per-part ascending factor sets})
CONCAT_REFERENCE = {
    139: ((50, 45, 44), 3, {0: (10, 20), 1: (30, 60)}, {
        0: [(2, 5, 5), (3, 3, 5), (2, 2, 11)],
        1: [(5, 10), (5, 9), (4, 11)],
    }),
    571: ((225, 196, 150), 4, {0: (32, 64), 1: (80, 160), 2: (126, 252)}, {
        0: [(3, 3, 5, 5), (2, 2, 7, 7), (2, 3, 5, 5)],
        1: [(5, 5, 9), (4, 7, 7), (5, 5, 6)],
        2: [(15, 15), (14, 14), (10, 15)],
    }),
    839: ((396, 243, 200), 5,
          {0: (16, 32), 1: (48, 96), 2: (112, 224), 3: (171, 342)}, {
        0: [(2, 2, 3, 3, 11), (3, 3, 3, 3, 3), (2, 2, 2, 5, 5)],
        1: [(3, 3, 4, 11), (3, 3, 3, 9), (2, 4, 5, 5)],
        2: [(6, 6, 11), (3, 9, 9), (5, 5, 8)],
        3: [(18, 22), (9, 27), (10, 20)],
    }),
    1151: ((468, 440, 243), 5,
           {0: (32, 64), 1: (64, 128), 2: (128, 256), 3: (208, 416)}, {
        0: [(2, 2, 3, 3, 13), (2, 2, 2, 5, 11), (3, 3, 3, 3, 3)],
        1: [(3, 3, 4, 13), (2, 4, 5, 11), (3, 3, 3, 9)],
        2: [(6, 6, 13), (5, 8, 11), (3, 9, 9)],
        3: [(18, 26), (20, 22), (9, 27)],
    }),
}

ROTATION_CASES = [
    ((50, 45, 44), (0.0, 125.12, 236.77)),
    ((225, 196, 150), (0.0, 138.98, 239.06)),
]

PC_COMPLEMENT_RANGE = (8.65e-4, 8.23e-2)
SNR_BRACKET_DB = (-7.9, 11.9)


def _announce(num: int, name: str):
    print(f"\nACCEPTANCE {num} ({name}): PASS")


def test_criterion_1_factor_table_reproduction():
    start = time.time()
    for n, spec_rows in FLAT_REFERENCE.items():
        min_csd = spec_rows["min_csd"]
        for (kappa, mode), (factors, size, csd, avail) in spec_rows["rows"].items():
            fs = fl.factor_set(n, kappa, mode)
            assert fs.sorted_ascending() == factors, (n, kappa, mode)
            assert fs.family_size == size, (n, kappa, mode)
            assert fs.family_csd == csd, (n, kappa, mode)
            assert fl.available_with_min_csd(fs, min_csd) == avail, (n, kappa, mode)
    elapsed = time.time() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    _announce(1, "factor-set table, sizes/CSDs/availability exact")


def test_criterion_2_concatenated_table_reproduction():
    start = time.time()
    min_omegas = {}
    for n, (parts, min_omega, sizes, factor_sets) in CONCAT_REFERENCE.items():
        decomp = fl.Decomposition.from_parts(n, parts)
        assert decomp.min_omega == min_omega, n
        min_omegas[n] = decomp.min_omega
        # the decomposition search reaches at least the reference level
        assert fl.mpo_decompose(n).mpo >= min_omega, n
        cfg = sf.WaveformConfig(n_seq=n, **CONDITION_B)
        for kappa, (size, aug_size) in sizes.items():
            kind = "hat_pma" if kappa == 0 else "hat_dpma"
            fam = sf.build_family(kind, cfg, kappa=kappa, decomp=decomp)
            assert len(fam) == size, (n, kappa)
            got_sets = [tuple(sorted(f)) for f in fam.meta["factor_sets"]]
            assert got_sets == factor_sets[kappa], (n, kappa)
            aug = sf.augment_family(fam)
            assert len(aug) == aug_size, (n, kappa)
    assert [min_omegas[n] for n in (139, 571, 839, 1151)] == [3, 4, 5, 5]
    elapsed = time.time() - start
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s"
    _announce(2, "concatenated-family table, sizes and levels exact")


def test_criterion_3_rotation_solver():
    for parts, ref_deg in ROTATION_CASES:
        sol = sf.solve_rotation(parts)
        for got, ref in zip(sol.theta, ref_deg):
            assert abs(math.degrees(got) - ref) <= 0.05, (parts, ref)
        assert sol.residual <= 1e-6 * sum(parts), parts
    _announce(3, "rotation angles within 0.05 deg, residual bounded")


def _all_table_families():
    for n, spec_rows in FLAT_REFERENCE.items():
        cfg = sf.WaveformConfig(n_seq=n, **CONDITION_A)
        for (kappa, mode) in spec_rows["rows"]:
            if kappa == 0:
                yield sf.build_family("pma", cfg)
            elif mode == "near":
                if kappa >= 3:
                    yield sf.build_family("near_dpma", cfg, kappa=kappa)
            else:
                yield sf.build_family("dpma", cfg, kappa=kappa)
    for n, (parts, _, sizes, _) in CONCAT_REFERENCE.items():
        cfg = sf.WaveformConfig(n_seq=n, **CONDITION_B)
        decomp = fl.Decomposition.from_parts(n, parts)
        for kappa in sizes:
            kind = "hat_pma" if kappa == 0 else "hat_dpma"
            fam = sf.build_family(kind, cfg, kappa=kappa, decomp=decomp)
            yield fam
            yield sf.augment_family(fam)


@pytest.fixture(scope="module")
def table_families():
    return list(_all_table_families())


def test_criterion_4_orthogonality_and_ca(table_families):
    for fam in table_families:
        q = fam.q_matrix()
        gram = q.conj() @ q.T
        off = np.abs(gram - np.eye(len(fam)))
        assert off.max() <= 1e-9, (fam.kind, fam.n)
        ca, zac = sv.amplitude_checks(fam.chi_matrix())
        assert ca.max() <= 1e-12, (fam.kind, fam.n)
        assert zac.max() <= 1e-9 * fam.n, (fam.kind, fam.n)
    _announce(4, "all families orthogonal, constant-amplitude, ZAC")


def test_criterion_5_sd_order_moments(table_families):
    def first_member_order(fam):
        orders, capped, first = sv.sd_orders(fam.chi_matrix()[:1], fam.cfg, sv.DEFAULT_BETA_CAP)
        return int(orders[0]), bool(capped[0]), float(first[0])

    # named cases first
    cfg_a48 = sf.WaveformConfig(48, **CONDITION_A)
    order, capped, first = first_member_order(sf.build_family("pma", cfg_a48))
    assert order >= 5 and not capped
    assert first > sv.moment_tolerance(48, order)

    order, capped, _ = first_member_order(sf.build_family("dpma", cfg_a48, kappa=2))
    assert order >= 3

    cfg_b839 = sf.WaveformConfig(839, **CONDITION_B)
    decomp = fl.Decomposition.from_parts(839, (396, 243, 200))
    fam = sf.build_family("hat_dpma", cfg_b839, kappa=2, decomp=decomp)
    assert fam.sd_order_bound == 1
    order, capped, _ = first_member_order(fam)
    assert order >= 1

    # blanket: every family member meets its family bound, and whenever the
    # boundary is measurable the first non-vanishing moment clears tolerance
    for fam in table_families:
        orders, capped, first = sv.sd_orders(fam.chi_matrix(), fam.cfg, sv.DEFAULT_BETA_CAP)
        for order, row_capped, row_first in zip(orders.tolist(), capped.tolist(), first.tolist()):
            assert order >= fam.sd_order_bound, (fam.kind, fam.n)
            if not row_capped:
                assert row_first > sv.moment_tolerance(fam.n, order), (fam.kind, fam.n)
    _announce(5, "measured vanishing-moment order >= claimed bound")


def test_criterion_6_lemmas_and_search_equivalence():
    rng = random.Random(2024)
    for _ in range(10 ** 4):
        m = rng.randint(2, 5)
        a = [rng.randint(2, 50) for _ in range(m)]
        b = [x + rng.randint(0, 10) for x in a]
        fa, fb = po.size_ratio(a), po.size_ratio(b)
        assert fa >= fb
        if any(x < y for x, y in zip(a, b)):
            assert fa > fb
    for _ in range(10 ** 4):
        pa, pb, pc, pd = sorted(rng.randint(2, 80) for _ in range(4))
        lhs = po.size_ratio([pa, pd]) * po.size_ratio([pb, pc])
        mid = po.size_ratio([pa, pc]) * po.size_ratio([pb, pd])
        rhs = po.size_ratio([pa, pb]) * po.size_ratio([pc, pd])
        assert lhs >= mid >= rhs
    done = 0
    while done < 10 ** 4:
        pa, pb, pc = sorted(rng.randint(2, 15) for _ in range(3))
        pd = rng.randint(pb * pc, pb * pc + 60)
        assert (po.size_ratio([pa, pb, pc])
                >= po.size_ratio([pa, pd]) * po.size_ratio([pb, pc]))
        done += 1

    checked = 0
    for n in range(8, 10 ** 4 + 1):
        pf = fl.prime_factorize(n)
        if not 3 <= pf.omega <= 7:
            continue
        assert (fl.exclusive_search_proper(pf, 1).family_size
                == fl.proper_factorization_kappa1(pf).family_size), n
        if pf.omega > 3:
            assert (fl.exclusive_search_proper(pf, 2).family_size
                    == fl.proper_factorization_kappa2(pf).family_size), n
        checked += 1
    assert checked > 3000
    _announce(6, f"lemmas at 1e4 tuples, search = closed forms on {checked} lengths")


def test_criterion_7_enumeration_counts():
    sets = list(po.pattern_codeword_sets((3, 2, 1)))
    assert len(sets) == 60

    out = po.codeword_conversion([(0, 1, 0, 1, 1, 0), (0, 1, 1), (1,)])
    assert out == [(0, 1, 0, 1, 1, 0), (0, 0, 1, 0, 0, 1), (1, 0, 0, 0, 0, 0)]

    for n in range(1, 21):
        for k in range(1, n + 1):
            count = sum(1 for _ in po.gosper_enumerate(n, k))
            assert count == math.comb(n, k), (n, k)
    _announce(7, "codeword-set counts, worked conversion, binomial totals")


def test_criterion_8_spectral_slopes():
    start = time.time()
    cfg_zc = sf.WaveformConfig(139, **CONDITION_B)
    spec = sp.compute_spectrum(sf.build_zc_sequence(1, 139, cfg_zc),
                               grid_span=64, grid_points=2 ** 20)
    zc_slope = sp.estimate_decay_order(spec, (2.0, 24.0))
    assert abs(zc_slope - (-2.0)) <= 0.3, zc_slope

    cfg48 = sf.WaveformConfig(48, **CONDITION_A)
    slopes = {}
    for kappa in (0, 1, 2, 3):
        kind = "pma" if kappa == 0 else "dpma"
        fam = sf.build_family(kind, cfg48, kappa=kappa)
        spec = sp.compute_spectrum(fam.sequences[0], grid_span=64,
                                   grid_points=2 ** 20)
        slopes[kappa] = sp.estimate_decay_order(spec, (2.0, 24.0))
    assert slopes[0] <= -10.0, slopes
    for kappa in (0, 1, 2):
        assert slopes[kappa] <= slopes[kappa + 1] - 1.0, slopes
    elapsed = time.time() - start
    assert elapsed < 300.0, f"criterion 8 took {elapsed:.1f}s"
    _announce(8, f"slopes zc={zc_slope:.2f}, kappa sweep {sorted(slopes.values())}")


def test_criterion_9_detection_cross_check():
    start = time.time()
    cfg = sf.WaveformConfig(139, **CONDITION_B)
    decomp = fl.Decomposition.from_parts(139, (50, 45, 44))
    fam = sf.build_family("apma", cfg, decomp=decomp)
    sim = rc.RaSimConfig(family=fam, snr_db_list=[0.0], trials=10 ** 6,
                         seed=2025, profile=rc.ChannelProfile.flat_fading(),
                         p_fa_target=1e-2)
    res = rc.run_simulation(sim)
    entry = res.per_snr[0]
    # p_fa and p_c against the binomial sd at the closed form, p_fid against
    # its reported per-trial sigma
    events = {"p_fa": sim.trials * len(fam), "p_c": sim.trials}
    for metric in ("p_fa", "p_fid", "p_c"):
        est, sigma = entry.mc[metric]
        cf = entry.closed_form[metric]
        if metric in events:
            sigma = rc.binomial_sd(cf, events[metric])
        assert abs(est - cf) <= 3.0 * max(sigma, 1e-12), (metric, est, cf, sigma)

    # threshold rule at the strict false-alarm target, closed forms
    n = 839
    for snr_db in SNR_BRACKET_DB:
        phi = 10.0 ** (snr_db / 10.0)
        beta = (5.0 / phi) * math.log(10.0)
        assert abs(math.exp(-beta * phi) - 1e-5) < 1e-17
        pc = math.exp(-beta * phi / (1.0 + phi * n))
        lo, hi = PC_COMPLEMENT_RANGE
        assert lo <= 1.0 - pc <= hi, (snr_db, 1.0 - pc)
    elapsed = time.time() - start
    assert elapsed < 600.0, f"criterion 9 took {elapsed:.1f}s"
    _announce(9, "Monte Carlo within 3 sigma of the closed forms; closed-form brackets hold")


def test_criterion_10_identification_ordering():
    start = time.time()
    cfg = sf.WaveformConfig(839, **CONDITION_B)
    decomp = fl.Decomposition.from_parts(839, (396, 243, 200))
    adpma = sf.build_family("adpma", cfg, kappa=1, decomp=decomp)
    zc = sf.build_family("zc", cfg, count=64, min_csd=26)
    assert len(adpma) == 96 and len(zc) == 64

    snrs = [-8.0, 2.0, 12.0]
    seed = 11
    trials = 20000
    results = {}
    for name, fam in (("adpma", adpma), ("zc", zc)):
        for pname in ("umi", "ind"):
            sim = rc.RaSimConfig(family=fam, snr_db_list=snrs, trials=trials,
                                 seed=seed, profile=rc.ChannelProfile.shipped(pname),
                                 j_sequences=64, p_fa_target=1e-2)
            results[(name, pname)] = rc.run_simulation(sim)
    gaps = {"umi": [], "ind": []}
    for pname in ("umi", "ind"):
        for i in range(len(snrs)):
            a = results[("adpma", pname)].per_snr[i].mc["p_fid"][0]
            z = results[("zc", pname)].per_snr[i].mc["p_fid"][0]
            assert a < z, (pname, snrs[i], a, z)
            gaps[pname].append(z - a)
    for g_umi, g_ind in zip(gaps["umi"], gaps["ind"]):
        assert g_ind > g_umi, (gaps["umi"], gaps["ind"])
    elapsed = time.time() - start
    assert elapsed < 600.0, f"criterion 10 took {elapsed:.1f}s"
    _announce(10, "orthogonal family beats multiroot baseline, gap widens")
