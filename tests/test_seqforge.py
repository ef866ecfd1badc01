import dataclasses
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from caseq import factorlab as fl
from caseq import seqforge as sf
from caseq.factorlab import DomainError, InfeasibleError


def inner(a, b):
    return complex(np.vdot(a.q, b.q))


class TestWaveformConfig:
    def test_condition_split(self):
        assert sf.WaveformConfig(48, gamma=2, alpha=Fraction(1, 2)).condition == "A"
        assert sf.WaveformConfig(48, gamma=4, alpha=Fraction(3, 4)).condition == "A"
        assert sf.WaveformConfig(839, gamma=1, alpha=Fraction(33, 256)).condition == "B"

    def test_validation(self):
        with pytest.raises(DomainError):
            sf.WaveformConfig(48, gamma=0)
        with pytest.raises(DomainError):
            sf.WaveformConfig(48, alpha=Fraction(5, 4))
        with pytest.raises(DomainError):
            sf.WaveformConfig(1)


class TestGSequence:
    def test_hand_computed_n6(self, ):
        cfg = sf.WaveformConfig(6, gamma=2, alpha=Fraction(1, 2))
        seq = sf.build_g_sequence((3, 2), (1, 1), cfg)
        w = np.exp(2j * np.pi / 3)
        expected = np.array([1, w, w ** 2, -1, -w, -w ** 2])
        assert np.allclose(seq.chi, expected, atol=1e-12)

    def test_per_digit_phase_restriction(self, cfg_a48):
        # each digit's assigned phases sum to zero over the digit range
        factors = (3, 2, 2, 2, 2)
        nu = (2, 1, 1, 1, 1)
        for m, a in enumerate(factors):
            total = sum(np.exp(2j * np.pi * nu[m] * l / a) for l in range(a))
            assert abs(total) < 1e-12

    def test_distinct_indices_orthogonal(self):
        cfg = sf.WaveformConfig(6, gamma=2, alpha=Fraction(1, 2))
        s1 = sf.build_g_sequence((3, 2), (1, 1), cfg)
        s2 = sf.build_g_sequence((3, 2), (2, 1), cfg)
        assert abs(inner(s1, s2)) < 1e-12

    def test_unit_modulus_and_norm(self, cfg_b839):
        seq = sf.build_g_sequence((839,), (5,), cfg_b839)
        assert np.max(np.abs(np.abs(seq.chi) - 1)) < 1e-12
        assert abs(np.linalg.norm(seq.q) - 1) < 1e-12

    def test_nu_out_of_range(self, cfg_a48):
        with pytest.raises(DomainError):
            sf.build_g_sequence((3, 2, 2, 2, 2), (3, 1, 1, 1, 1), cfg_a48)
        with pytest.raises(DomainError):
            sf.build_g_sequence((3, 2, 2, 2, 2), (0, 1, 1, 1, 1), cfg_a48)

    def test_factors_must_descend(self, cfg_a48):
        with pytest.raises(DomainError):
            sf.build_g_sequence((2, 2, 2, 2, 3), (1, 1, 1, 1, 1), cfg_a48)


class TestISequence:
    def test_weight_layout(self):
        cfg = sf.WaveformConfig(6, gamma=2, alpha=Fraction(1, 2))
        i = sf.build_i_sequence((2, 3), (1, 1), cfg)
        for l0 in range(2):
            for l1 in range(3):
                expected = np.exp(2j * np.pi * (l0 / 2 + l1 / 3))
                assert abs(i.chi[3 * l0 + l1] - expected) < 1e-12

    def test_digit_reversal_matches_g_construction(self):
        # reversing the digit order (and the index vector) reproduces the
        # descending-factor construction under an integer alpha*gamma
        cfg = sf.WaveformConfig(12, gamma=2, alpha=Fraction(1, 2))
        g = sf.build_g_sequence((3, 2, 2), (2, 1, 1), cfg)
        i = sf.build_i_sequence((2, 2, 3), (1, 1, 2), cfg)
        assert np.allclose(i.chi, g.chi, atol=1e-12)

    def test_orthogonality_over_indices(self):
        cfg = sf.WaveformConfig(12, gamma=2, alpha=Fraction(1, 2))
        seqs = [sf.build_i_sequence((2, 2, 3), nu, cfg)
                for nu in [(1, 1, 1), (1, 1, 2)]]
        assert abs(inner(seqs[0], seqs[1])) < 1e-12

    def test_ascending_required(self):
        cfg = sf.WaveformConfig(12, gamma=2, alpha=Fraction(1, 2))
        with pytest.raises(DomainError):
            sf.build_i_sequence((3, 2, 2), (1, 1, 1), cfg)


class TestRotation:
    @pytest.mark.parametrize("parts,ref_deg", [
        ((50, 45, 44), (0.0, 125.12, 236.77)),
        ((225, 196, 150), (0.0, 138.98, 239.06)),
        ((396, 243, 200), (0.0, 156.04, 209.57)),
        ((468, 440, 243), (0.0, 149.15, 248.20)),
    ])
    def test_reference_angles(self, parts, ref_deg):
        sol = sf.solve_rotation(parts, 1e-9)
        for got, ref in zip(sol.theta, ref_deg):
            assert abs(math.degrees(got) - ref) < 0.05
        assert sol.residual <= 1e-6 * sum(parts)
        assert abs(sum(sol.arc_angles) - 2 * math.pi) <= 1e-9

    def test_equilateral(self):
        sol = sf.solve_rotation((1, 1, 1), 1e-9)
        assert np.allclose([math.degrees(t) for t in sol.theta],
                           [0.0, 120.0, 240.0], atol=1e-6)

    def test_infeasible_cases(self):
        with pytest.raises(InfeasibleError):
            sf.solve_rotation((10, 4, 4))  # max part is half the total
        with pytest.raises(InfeasibleError):
            sf.solve_rotation((10, 9))  # two parts


class TestFamilies:
    def test_pma_48(self, cfg_a48):
        fam = sf.build_family("pma", cfg_a48)
        assert len(fam) == 2
        assert fam.family_csd == 16
        assert fam.sd_order_bound == 5

    def test_dpma_sizes_against_search(self, cfg_a48):
        for kappa, size in ((1, 6), (2, 18), (3, 35)):
            fam = sf.build_family("dpma", cfg_a48, kappa=kappa)
            assert len(fam) == size
            assert fam.sd_order_bound == 5 - kappa

    def test_near_dpma(self, cfg_a48):
        fam = sf.build_family("near_dpma", cfg_a48, kappa=3)
        assert len(fam) == 35

    def test_family_gram_orthogonal(self, cfg_a48):
        fam = sf.build_family("dpma", cfg_a48, kappa=2)
        q = fam.q_matrix()
        gram = q.conj() @ q.T
        off = np.abs(gram - np.eye(len(fam)))
        assert off.max() < 1e-9

    def test_hat_family_sizes(self, cfg_b139):
        decomp = fl.Decomposition.from_parts(139, (50, 45, 44))
        fam = sf.build_family("hat_pma", cfg_b139, decomp=decomp)
        assert len(fam) == 10  # min(16, 16, 10)
        fam = sf.build_family("hat_dpma", cfg_b139, kappa=1, decomp=decomp)
        assert len(fam) == 30

    def test_augment_doubles_and_stays_orthogonal(self, cfg_b139):
        decomp = fl.Decomposition.from_parts(139, (50, 45, 44))
        base = sf.build_family("hat_pma", cfg_b139, decomp=decomp)
        aug = sf.augment_family(base)
        assert len(aug) == 2 * len(base)
        q = aug.q_matrix()
        gram = q.conj() @ q.T
        assert np.abs(gram - np.eye(len(aug))).max() < 1e-9

    @pytest.mark.parametrize("kind", ["pma", "apma"])
    def test_count_keeps_only_its_own_rows(self, cfg_b139, kind):
        full = sf.build_family(kind, cfg_b139)
        fam = sf.build_family(kind, cfg_b139, count=1)
        assert full.sequences[0].chi.base is not None  # rows of one phase matrix
        for kept, ref in zip(fam.sequences, full.sequences):
            held = kept.chi if kept.chi.base is None else kept.chi.base
            assert held.nbytes == 139 * 16  # only the kept row was built
            assert np.array_equal(kept.chi, ref.chi)
        assert fam.meta == full.meta

    @pytest.mark.parametrize("parts", [(96, 43), (72, 35, 32)],
                             ids=["two_parts", "max_part_half"])
    def test_augment_without_rotation_is_infeasible(self, cfg_b139, parts):
        base = sf.build_family("hat_pma", cfg_b139,
                               decomp=fl.Decomposition.from_parts(139, parts))
        with pytest.raises(InfeasibleError, match="no rotation"):
            sf.augment_family(base)

    def test_apma_infeasible_for_unsplittable_length(self):
        cfg = sf.WaveformConfig(48, gamma=2, alpha=Fraction(1, 2))
        with pytest.raises(InfeasibleError):
            sf.build_family("apma", cfg)

    def test_sd_bound_condition_b(self, cfg_b839):
        decomp = fl.Decomposition.from_parts(839, (396, 243, 200))
        fam = sf.build_family("hat_dpma", cfg_b839, kappa=2, decomp=decomp)
        assert fam.sd_order_bound == (5 - 2) // 2

    def test_family_size_within_max_bound(self, cfg_a48, cfg_b139):
        # orthogonal families cannot exceed N - I (condition A), N - 2I (B)
        for kind, cfg, kw in (("pma", cfg_a48, {}),
                              ("dpma", cfg_a48, {"kappa": 3}),
                              ("hat_pma", cfg_b139,
                               {"decomp": fl.Decomposition.from_parts(
                                   139, (50, 45, 44))})):
            fam = sf.build_family(kind, cfg, **kw)
            bound = fam.n - fam.sd_order_bound if cfg.condition == "A" \
                else fam.n - 2 * fam.sd_order_bound
            assert len(fam) <= bound

    @pytest.mark.parametrize("kind,kappa", [
        ("pma", 1), ("hat_pma", 1), ("apma", 1), ("hat_dpma", 0), ("adpma", 0),
    ])
    def test_kappa_the_kind_ignores_rejected(self, cfg_b139, kind, kappa):
        with pytest.raises(DomainError, match="kappa"):
            sf.build_family(kind, cfg_b139, kappa=kappa)

    def test_decomposition_of_another_length_refused(self, cfg_b139):
        with pytest.raises(DomainError, match="decomposition of 140"):
            sf.build_family("hat_pma", cfg_b139,
                            decomp=fl.Decomposition.from_parts(140, (50, 45, 45)))

    @pytest.mark.parametrize("kind,kw,match", [
        ("pma", {"decomp": fl.Decomposition.from_parts(139, (50, 45, 44))}, "decomposition"),
        ("dpma", {"kappa": 1, "decomp": fl.Decomposition.from_parts(139, (50, 45, 44))},
         "decomposition"),
        ("zc", {"count": 10, "min_csd": 13,
                "decomp": fl.Decomposition.from_parts(139, (50, 45, 44))}, "decomposition"),
        ("pma", {"min_csd": 7}, "min_csd"),
        ("apma", {"min_csd": 7}, "min_csd"),
        ("zc", {"count": 10, "min_csd": 13, "kappa": 2}, "kappa"),
        ("pn", {"count": 10, "min_csd": 13, "kappa": 1}, "kappa"),
        ("zc", {"count": 10, "min_csd": 0}, "min_csd"),
        ("zc", {"count": -1, "min_csd": 13}, "count"),
        ("pn", {"count": 0, "min_csd": 13}, "count"),
    ], ids=["pma_decomp", "dpma_decomp", "zc_decomp", "pma_min_csd", "apma_min_csd",
            "zc_kappa", "pn_kappa", "zc_min_csd_0", "zc_count_negative", "pn_count_0"])
    def test_recipe_argument_the_kind_ignores_rejected(self, cfg_b139, kind, kw, match):
        with pytest.raises(DomainError, match=match):
            sf.build_family(kind, cfg_b139, **kw)

    def test_q_matrix_bit_identical_to_member_q(self, cfg_a48, cfg_b139):
        decomp = fl.Decomposition.from_parts(139, (50, 45, 44))
        for fam in (sf.build_family("dpma", cfg_a48, kappa=2),
                    sf.build_family("apma", cfg_b139, decomp=decomp)):
            stacked = np.vstack([s.q for s in fam.sequences])
            assert fam.q_matrix().tobytes() == stacked.tobytes()
            assert fam.chi_matrix().tobytes() == np.vstack(
                [s.chi for s in fam.sequences]).tobytes()

    def test_unknown_kind(self, cfg_a48):
        with pytest.raises(DomainError):
            sf.build_family("yl", cfg_a48)


def _oracle_phase_numerators(digits, bases, nu, weights, cfg):
    """Reference: integer numerators of one member, summed digit by digit."""
    ag, twisted = cfg.alpha_gamma, cfg.condition == "B"
    denom = math.lcm(*bases, ag.denominator if twisted else 1)
    numer = np.zeros(len(digits[0]), dtype=np.int64)
    for m, (l_m, a_m, v_m) in enumerate(zip(digits, bases, nu)):
        numer += (v_m * (denom // a_m)) * l_m
        if twisted and m % 2 == 1:
            numer += (ag.numerator * (denom // ag.denominator) * weights[m]) * l_m
    return numer, denom


def _oracle_chi(factors, nu, weights, cfg):
    """Reference: chi of one member built on its own, not as a matrix row."""
    n_index = np.arange(math.prod(factors))
    digits = [(n_index // w) % b for w, b in zip(weights, factors)]
    numer, denom = _oracle_phase_numerators(digits, factors, nu, weights, cfg)
    frac = np.mod(numer, denom)
    return np.exp(2j * np.pi * (frac / denom))


def _oracle_g_chi(factors, nu, cfg):
    weights = [math.prod(factors[:m]) for m in range(len(factors))]
    return _oracle_chi(factors, nu, weights, cfg)


def _all_nus(factors):
    return list(itertools.product(*(range(1, a) for a in factors)))


def _oracle_family(kind, cfg, kappa, decomp, count):
    """Reference: chi per member and the family meta, member by member."""
    if decomp is None:
        mode = "near" if kind == "near_dpma" else "proper"
        factors = fl.factor_set(cfg.n_seq, kappa, mode).sorted_descending()
        nus = _all_nus(factors)
        members = [_oracle_g_chi(factors, nu, cfg) for nu in nus]
        meta = {"factor_set": list(factors), "kappa": kappa,
                "nu_vectors": [list(v) for v in nus]}
        return members[:count], meta
    sets = [list(fl.factor_set(p, kappa).sorted_descending()) for p in decomp.parts]
    chosen = [[list(v) for v in nu_set] for nu_set in zip(*map(_all_nus, sets))]
    meta = {"decomposition": list(decomp.parts), "factor_sets": sets, "kappa": kappa,
            "nu_vectors": chosen, "no_sd_gain": fl.mpo_value(decomp.n) == fl.omega(decomp.n)}
    rotations = [None]
    if kind in ("apma", "adpma"):
        sol = sf.solve_rotation(decomp.parts)
        meta["theta_degrees"] = [math.degrees(t) for t in sol.theta]
        meta["rotation_residual"] = sol.residual
        rotations.append([math.radians(d) for d in meta["theta_degrees"]])
    members = []
    for rotation in rotations:
        for nu_set in chosen:
            pieces = [_oracle_g_chi(f, nu, cfg) for f, nu in zip(sets, nu_set)]
            if rotation is not None:
                pieces = [p * np.exp(1j * t) for p, t in zip(pieces, rotation)]
            members.append(np.concatenate(pieces))
    return members[:count], meta


COND_A = dict(gamma=2, alpha=Fraction(1, 2))
COND_B = dict(gamma=1, alpha=Fraction(33, 256))


class TestMatrixBuildBitIdentical:
    """Families built as one phase matrix equal the member-by-member build
    bit for bit: chi, family meta and the exported JSON."""

    @pytest.mark.parametrize("cond", [COND_A, COND_B], ids=["A", "B"])
    @pytest.mark.parametrize("kind,n,kappa,parts,count", [
        ("pma", 144, 0, None, None),
        ("dpma", 144, 1, None, None),
        ("dpma", 144, 2, None, 5),
        ("dpma", 720, 2, None, None),  # 144 x 720 entries: more than one row block
        ("near_dpma", 288, 4, None, None),
        ("hat_pma", 139, 0, (50, 45, 44), None),
        ("hat_dpma", 139, 1, (50, 45, 44), None),
        ("apma", 139, 0, (50, 45, 44), None),
        ("adpma", 139, 1, (50, 45, 44), None),
        ("adpma", 139, 1, (50, 45, 44), 37),
        ("hat_dpma", 571, 2, (225, 196, 150), None),
    ])
    def test_family_matches_member_by_member_oracle(self, cond, kind, n, kappa, parts, count):
        cfg = sf.WaveformConfig(n_seq=n, **cond)
        decomp = None if parts is None else fl.Decomposition.from_parts(n, parts)
        fam = sf.build_family(kind, cfg, kappa=kappa, decomp=decomp, count=count)
        members, meta = _oracle_family(kind, cfg, kappa, decomp, count)
        assert fam.meta == meta
        assert len(fam) == len(members)
        for seq, chi in zip(fam.sequences, members):
            assert seq.chi.tobytes() == chi.tobytes()
        oracle = dataclasses.replace(fam, meta=meta, sequences=[
            sf.CaSequence(chi, cfg) for chi in members])
        assert (sf.family_to_dict(fam, include_sequences=True)
                == sf.family_to_dict(oracle, include_sequences=True))
        # q_matrix scales chi_matrix in place, so the members must stay untouched
        assert fam.q_matrix().tobytes() == np.vstack([s.q for s in fam.sequences]).tobytes()
        assert all(seq.chi.tobytes() == chi.tobytes()
                   for seq, chi in zip(fam.sequences, members))

    @pytest.mark.parametrize("cond", [COND_A, COND_B], ids=["A", "B"])
    @pytest.mark.parametrize("factors", [(2, 2, 3), (2, 3, 4, 5), (2, 2, 2, 3, 3, 5)])
    def test_single_sequences_match_oracle(self, cond, factors):
        n = math.prod(factors)
        cfg = sf.WaveformConfig(n_seq=n, **cond)
        weights = [n // math.prod(factors[:m + 1]) for m in range(len(factors))]
        descending = tuple(reversed(factors))
        for nu in _all_nus(factors)[::7]:
            seq = sf.build_i_sequence(factors, nu, cfg)
            assert seq.chi.tobytes() == _oracle_chi(factors, nu, weights, cfg).tobytes()
            seq = sf.build_g_sequence(descending, nu[::-1], cfg)
            assert seq.chi.tobytes() == _oracle_g_chi(descending, nu[::-1], cfg).tobytes()


def _shifted_nu(fam, index, shift):
    """Index vector a cyclic shift of member index lands on: the leading
    index advances by shift / (N / A) modulo the largest factor A."""
    a = fam.meta["factor_set"][0]
    nu = fam.meta["nu_vectors"][index]
    return [(nu[0] + shift // (fam.n // a)) % a] + nu[1:]


class TestCsSubfamily:
    def test_admissible_shift_set(self, cfg_a48):
        fam = sf.build_family("pma", cfg_a48)
        # member 0 has nu = (1,1,1,1,1) and leading factor 3
        shifts = [k for k, _ in sf.cs_subfamily(fam, 0)]
        assert shifts == [0, 16]  # l = 2 = 3 - nu_0 excluded

    def test_members_match_direct_construction(self, cfg_a48):
        fam = sf.build_family("pma", cfg_a48)
        for index in range(len(fam)):
            for k, member in sf.cs_subfamily(fam, index):
                direct = sf.build_g_sequence((3, 2, 2, 2, 2),
                                             _shifted_nu(fam, index, k), cfg_a48)
                assert np.max(np.abs(member.chi - direct.chi)) < 1e-12

    def test_shift_theorem_in_time_domain(self, cfg_a48):
        fam = sf.build_family("pma", cfg_a48)
        leader = fam.sequences[0]
        n = leader.n
        t_leader = np.fft.ifft(leader.q) * math.sqrt(n)
        for k, member in sf.cs_subfamily(fam, 0):
            t_member = np.fft.ifft(member.q) * math.sqrt(n)
            assert np.allclose(t_member, np.roll(t_leader, -k), atol=1e-12)

    def test_subfamilies_tile_family(self, cfg_a48):
        fam = sf.build_family("dpma", cfg_a48, kappa=2)  # factors {4,4,3}
        seen = set()
        reached = []
        for index, nu in enumerate(fam.meta["nu_vectors"]):
            if tuple(nu[1:]) in seen:
                continue
            seen.add(tuple(nu[1:]))
            members = sf.cs_subfamily(fam, index)
            assert len(members) == fam.meta["factor_set"][0] - 1
            reached += [tuple(_shifted_nu(fam, index, k)) for k, _ in members]
        assert sorted(reached) == sorted(map(tuple, fam.meta["nu_vectors"]))

    @pytest.mark.parametrize("index", [-1, 2])
    def test_index_outside_family_refused(self, cfg_a48, index):
        with pytest.raises(DomainError, match="index"):
            sf.cs_subfamily(sf.build_family("pma", cfg_a48), index)

    def test_concatenated_family_refused(self, cfg_b139):
        with pytest.raises(DomainError, match="flat"):
            sf.cs_subfamily(sf.build_family("hat_pma", cfg_b139), 0)


class TestBaselines:
    def test_zc_unit_modulus(self):
        for n, root in ((139, 3), (140, 3)):
            seq = sf.build_zc_sequence(root, n)
            assert np.max(np.abs(np.abs(seq.chi) - 1)) < 1e-12

    def test_zc_time_domain_zac(self):
        seq = sf.build_zc_sequence(1, 139)
        q_t = np.fft.ifft(seq.q) * math.sqrt(139)
        corr = np.fft.ifft(np.abs(np.fft.fft(q_t)) ** 2)
        assert np.max(np.abs(corr[1:])) < 1e-9

    def test_zc_cross_correlation_magnitude(self):
        s1 = sf.build_zc_sequence(1, 139)
        s2 = sf.build_zc_sequence(2, 139)
        assert abs(abs(inner(s1, s2)) - 1 / math.sqrt(139)) < 1e-9

    def test_zc_root_must_be_coprime(self):
        with pytest.raises(DomainError):
            sf.build_zc_sequence(7, 140)

    def test_multiroot_family_layout(self, cfg_b839):
        fam = sf.build_family("zc", cfg_b839, count=64, min_csd=26)
        assert len(fam) == 64
        roots = [m["root"] for m in fam.meta["members"]]
        assert roots.count(1) == 32 and roots.count(2) == 32
        for seq, m in zip(fam.sequences, fam.meta["members"]):
            base = sf.build_zc_sequence(m["root"], 839, cfg_b839).chi
            shift = np.exp(2j * np.pi * np.arange(839) * m["cyclic_shift"] / 839)
            assert np.allclose(seq.chi, base * shift, atol=1e-9)

    def test_m_sequence_period_and_balance(self):
        bits = sf.m_sequence()
        assert len(bits) == 2 ** 15 - 1
        # maximal-length property: 2^14 ones short of balance by exactly one
        assert int(bits.sum()) == 2 ** 14

    def test_pn_family(self, cfg_b839):
        fam = sf.build_family("pn", cfg_b839, count=64, min_csd=26)
        assert len(fam) == 64
        bits = sf.m_sequence()
        signs = np.where(np.arange(839) % 2 == 0, 1.0, -1.0)
        for k, seq in enumerate(fam.sequences):  # member k starts 26 k into the stream
            assert np.array_equal(seq.chi, signs * (1.0 - 2.0 * bits[26 * k:26 * k + 839]))
        q = fam.q_matrix()
        gram = np.abs(q.conj() @ q.T - np.eye(64))
        assert gram.max() > 1e-3  # not an orthogonal family

    def test_pn_budget_error(self, cfg_b839):
        with pytest.raises(DomainError):
            sf.build_family("pn", cfg_b839, count=2000, min_csd=26)

    def test_m_sequence_computed_once_and_read_only(self):
        bits = sf.m_sequence()
        assert sf.m_sequence() is bits
        with pytest.raises(ValueError):
            bits[0] = 0
        # all-ones start, then b[i + 15] = b[i] ^ b[i + 1] (register X^15 + X^14 + 1)
        assert bits[:15].all()
        assert np.array_equal(bits[15:], bits[:-15] ^ bits[1:-14])

    def test_pn_chi_size_refused_before_gather(self, monkeypatch):
        # n 32767, 8191 members at spacing 4: a 4.0 GiB complex chi
        monkeypatch.setattr(sf, "m_sequence", lambda: pytest.fail("bits gathered"))
        with pytest.raises(DomainError, match="GiB"):
            sf.build_family("pn", sf.WaveformConfig(32767), count=8191, min_csd=4)

    @pytest.mark.parametrize("limit, refused", [(16 * 5 * 13, False), (16 * 5 * 13 - 1, True)])
    def test_pn_chi_limit_counts_sixteen_bytes_per_entry(self, monkeypatch, limit, refused):
        monkeypatch.setattr(sf, "MAX_DENSE_TABLE_BYTES", limit)
        if refused:
            with pytest.raises(DomainError, match="chi"):
                sf.build_family("pn", sf.WaveformConfig(13), count=5, min_csd=2)
        else:
            assert len(sf.build_family("pn", sf.WaveformConfig(13), count=5, min_csd=2)) == 5


@pytest.mark.parametrize("kind, members, kwargs", [
    ("pma", 138, {}),
    ("hat_pma", 10, {"decomp": (50, 45, 44)}),  # part family sizes 16, 16 and 10
    ("apma", 20, {"decomp": (50, 45, 44)}),  # augmenting doubles the hat members
    ("zc", 10, {"count": 10, "min_csd": 13}),
    # a count builds, and is checked for, only the leading members
    ("pma", 3, {"count": 3}),
    ("apma", 4, {"decomp": (50, 45, 44), "count": 4}),  # hat members only
    ("apma", 13, {"decomp": (50, 45, 44), "count": 13}),  # 10 hat and 3 rotated
], ids=["pma139", "hat_pma139", "apma139", "zc139", "pma139_count3", "apma139_count4",
        "apma139_count13"])
@pytest.mark.parametrize("refused", [False, True], ids=["at_limit", "byte_below"])
def test_chi_limit_counts_sixteen_bytes_per_entry(monkeypatch, cfg_b139, kind, members, kwargs,
                                                  refused):
    kwargs = dict(kwargs)
    if "decomp" in kwargs:
        kwargs["decomp"] = fl.Decomposition.from_parts(139, kwargs["decomp"])
    monkeypatch.setattr(sf, "MAX_DENSE_TABLE_BYTES", 16 * members * 139 - refused)
    if refused:  # before any row exists
        monkeypatch.setattr(sf, "_phase_rows", lambda *a, **k: pytest.fail("rows built"))
        monkeypatch.setattr(sf, "build_zc_sequence", lambda *a, **k: pytest.fail("rows built"))
        with pytest.raises(DomainError, match="GiB of chi"):
            sf.build_family(kind, cfg_b139, **kwargs)
    else:
        fam = sf.build_family(kind, cfg_b139, **kwargs)
        assert len(fam) == members
        if kind in ("pma", "apma") and "count" in kwargs:  # the leading members of the full family
            monkeypatch.setattr(sf, "MAX_DENSE_TABLE_BYTES", 2 ** 30)
            full = sf.build_family(kind, cfg_b139, **{**kwargs, "count": None})
            assert np.array_equal(fam.q_matrix(), full.q_matrix()[:members])
            assert fam.meta == full.meta


def _round_trip(fam, include_sequences=False):
    """Export, reload through JSON text, and check the reload is bit-exact."""
    data = sf.family_to_dict(fam, include_sequences=include_sequences)
    back = sf.family_from_dict(json.loads(json.dumps(data)))
    assert len(back) == len(fam)
    assert sf.family_to_dict(back, include_sequences=include_sequences) == data
    for a, b in zip(fam.sequences, back.sequences):
        assert a.chi.tobytes() == b.chi.tobytes()
    return back


def _edit_nu(d):
    d["nu_vectors"][0][0] += 1


def _edit_factor_set(d):
    d["factor_set"] = [8, 6]


def _edit_value(d):
    d["sequences"][0][0][0] += 1e-12


class TestFamilyJson:
    @pytest.mark.parametrize("kind,kw", [
        ("pma", {}),
        ("dpma", {"kappa": 2}),
        ("near_dpma", {"kappa": 3}),
    ])
    def test_flat_round_trip(self, cfg_a48, kind, kw):
        _round_trip(sf.build_family(kind, cfg_a48, **kw))

    @pytest.mark.parametrize("kind,kappa", [
        ("hat_pma", 0), ("hat_dpma", 1), ("apma", 0),
    ])
    def test_concatenated_round_trip(self, cfg_b139, kind, kappa):
        # decomposition computed by the builder, then read back from the JSON
        _round_trip(sf.build_family(kind, cfg_b139, kappa=kappa))

    def test_augmented_round_trip_bit_exact(self, cfg_b139):
        decomp = fl.Decomposition.from_parts(139, (50, 45, 44))
        fam = sf.build_family("adpma", cfg_b139, kappa=1, decomp=decomp)
        assert len(_round_trip(fam)) == 60

    def test_baseline_round_trip(self, cfg_b839):
        _round_trip(sf.build_family("zc", cfg_b839, count=10, min_csd=26))

    def test_pn_round_trip(self, cfg_b839):
        _round_trip(sf.build_family("pn", cfg_b839, count=10, min_csd=26))

    @pytest.mark.parametrize("kind,kw", [
        ("dpma", {"kappa": 2}),
        ("adpma", {"kappa": 1}),
    ])
    def test_values_round_trip(self, cfg_a48, cfg_b139, kind, kw):
        cfg = cfg_a48 if kind == "dpma" else cfg_b139
        _round_trip(sf.build_family(kind, cfg, **kw), include_sequences=True)

    def test_leading_members_round_trip(self, cfg_b139):
        # a family cut to its leading members exports size < nu_vectors and
        # reloads as exactly those members
        decomp = fl.Decomposition.from_parts(139, (50, 45, 44))
        fam = sf.build_family("apma", cfg_b139, decomp=decomp)
        cut = dataclasses.replace(fam, sequences=fam.sequences[:2])
        back = _round_trip(cut, include_sequences=True)
        assert len(back) == 2 and len(back.meta["nu_vectors"]) == len(fam) // 2
        counted = sf.build_family("apma", cfg_b139, decomp=decomp, count=2)
        assert sf.family_to_dict(counted) == sf.family_to_dict(cut)

    @pytest.mark.parametrize("count", [0, 3])
    def test_count_out_of_range(self, cfg_a48, count):
        assert len(sf.build_family("pma", cfg_a48)) == 2
        with pytest.raises(DomainError, match="count"):
            sf.build_family("pma", cfg_a48, count=count)

    def test_float_fields_match_to_ulps(self, cfg_b139):
        fam = sf.build_family("adpma", cfg_b139, kappa=1,
                              decomp=fl.Decomposition.from_parts(139, (50, 45, 44)))
        data = json.loads(json.dumps(sf.family_to_dict(fam, include_sequences=True)))
        theta = data["theta_degrees"][1]
        data["theta_degrees"][1] = float(np.nextafter(theta, np.inf))
        data["sequences"][30][7][1] = float(np.nextafter(data["sequences"][30][7][1], 2.0))
        sf.family_from_dict(data)
        data["theta_degrees"][1] = theta + 1e-9
        with pytest.raises(DomainError, match="theta_degrees"):
            sf.family_from_dict(data)

    def test_values_export(self, cfg_a48):
        fam = sf.build_family("pma", cfg_a48)
        data = sf.family_to_dict(fam, include_sequences=True)
        arr = np.array(data["sequences"][0])
        assert np.array_equal(arr[:, 0] + 1j * arr[:, 1], fam.sequences[0].chi)

    @pytest.mark.parametrize("edit,key", [
        (_edit_nu, "nu_vectors"),
        (lambda d: d.update(sd_order_bound=9), "sd_order_bound"),
        (_edit_factor_set, "factor_set"),
        (lambda d: d.update(comment="hand-tuned"), "comment"),
        (_edit_value, "sequences"),
    ], ids=["nu_vectors", "sd_order_bound", "factor_set", "extra_key", "sequences"])
    def test_tampered_json_refused(self, cfg_a48, edit, key):
        fam = sf.build_family("dpma", cfg_a48, kappa=2)
        data = json.loads(json.dumps(sf.family_to_dict(fam, include_sequences=True)))
        sf.family_from_dict(data)
        edit(data)
        with pytest.raises(DomainError, match=key):
            sf.family_from_dict(data)

    @pytest.mark.parametrize("data", [
        [1, 2], {}, {"kind": "pma", "n": 48, "gamma": True, "alpha": "1/2"},
        {"kind": "pma", "n": 48, "gamma": 2, "alpha": "1/0"},
        {"kind": "hat_pma", "n": 139, "gamma": 1, "alpha": "33/256",
         "decomposition": 5},
    ], ids=["list", "empty", "bool_gamma", "zero_denominator", "int_decomposition"])
    def test_malformed_recipe_refused(self, data):
        with pytest.raises(DomainError):
            sf.family_from_dict(data)
