import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from caseq import factorlab as fl
from caseq.factorlab import DomainError, InfeasibleError


def brute_force_size_ratio(factors):
    """Direct evaluation of (prod - 1) / prod(a - 1), kept independent."""
    top = 1
    bottom = 1
    for a in factors:
        top *= a
        bottom *= a - 1
    return Fraction(top - 1, bottom)


class TestPrimeFactorize:
    def test_table_example(self):
        pf = fl.prime_factorize(48)
        assert pf.primes == (2, 2, 2, 2, 3)
        assert pf.omega == 5

    def test_prime_input(self):
        assert fl.prime_factorize(2).primes == (2,)

    def test_large_prime(self):
        # independently: no divisor up to sqrt(839) ~ 28.9
        assert all(839 % d for d in range(2, 29))
        assert fl.prime_factorize(839).primes == (839,)

    def test_rejects_below_two(self):
        for bad in (1, 0, -5):
            with pytest.raises(DomainError):
                fl.prime_factorize(bad)

    def test_trial_division_stops_at_its_bound(self, monkeypatch):
        # a 17-digit prime has no factor up to the bound and is above its square
        with pytest.raises(DomainError, match="trial division"):
            fl.prime_factorize(10000000000000061)
        bound = fl.TRIAL_DIVISION_BOUND
        assert fl.prime_factorize(2 ** 60).primes == (2,) * 60
        assert fl.prime_factorize(1000000000039).primes == (1000000000039,)  # below bound**2
        assert fl.prime_factorize(1048573 * 1048571).primes == (1048571, 1048573)
        assert 1048573 < bound < 1048583
        with pytest.raises(DomainError, match="trial division"):
            fl.prime_factorize(1048583 ** 2)  # both factors above the bound
        primorial = math.prod(_first_primes(15))
        assert fl.prime_factorize(primorial).primes == tuple(_first_primes(15))
        # the bound, not the size of n, decides: at a bound of 1000 the next trial
        # divisor is 1001, so a cofactor below 1001**2 is settled as prime and
        # a larger one without a factor up to 1000 is refused
        monkeypatch.setattr(fl, "TRIAL_DIVISION_BOUND", 1000)
        assert fl.prime_factorize(4 * 1000003).primes == (2, 2, 1000003)
        assert fl.prime_factorize(997 * 1009).primes == (997, 1009)
        with pytest.raises(DomainError, match="no prime factor up to 1000"):
            fl.prime_factorize(4 * 1002017)
        with pytest.raises(DomainError, match="trial division"):
            fl.prime_factorize(1009 * 1013)

    def test_product_reconstructs(self):
        for n in range(2, 500):
            pf = fl.prime_factorize(n)
            assert math.prod(pf.primes) == n
            assert list(pf.primes) == sorted(pf.primes)


class TestSizeRatio:
    def test_pair_of_twos(self):
        assert fl.size_ratio([2, 2]) == Fraction(3, 1)

    def test_no_monotonicity_across_unordered_tuples(self):
        assert fl.size_ratio([2, 5, 5]) == Fraction(49, 16)
        assert fl.size_ratio([2, 2, 11]) == Fraction(43, 10)
        assert not fl.size_ratio([2, 5, 5]) >= fl.size_ratio([2, 2, 11])

    def test_three_four_four(self):
        assert fl.size_ratio([3, 4, 4]) == Fraction(47, 18)

    def test_matches_direct_formula(self):
        rng = random.Random(7)
        for _ in range(200):
            tup = [rng.randint(2, 30) for _ in range(rng.randint(1, 5))]
            assert fl.size_ratio(tup) == brute_force_size_ratio(tup)

    def test_rejects_entries_at_or_below_one(self):
        with pytest.raises(DomainError):
            fl.size_ratio([2, 1])
        with pytest.raises(DomainError):
            fl.size_ratio([])


class TestClosedFormFactorizations:
    @pytest.mark.parametrize("n,factors,size,csd", [
        (48, (2, 2, 3, 4), 6, 12),
        (144, (2, 2, 3, 3, 4), 12, 36),
        (288, (2, 2, 2, 3, 3, 4), 12, 72),
    ])
    def test_kappa1(self, n, factors, size, csd):
        fs = fl.proper_factorization_kappa1(fl.prime_factorize(n))
        assert fs.sorted_ascending() == factors
        assert fs.family_size == size
        assert fs.family_csd == csd

    @pytest.mark.parametrize("n,factors,size", [
        (48, (3, 4, 4), 18),
        (144, (3, 3, 4, 4), 36),
        (288, (2, 3, 3, 4, 4), 36),
    ])
    def test_kappa2(self, n, factors, size):
        fs = fl.proper_factorization_kappa2(fl.prime_factorize(n))
        assert fs.sorted_ascending() == factors
        assert fs.family_size == size

    def test_kappa2_merge_three_branch(self):
        # primes (2, 2, 2, 11): 2*2 < 11 forces the three-smallest merge
        fs = fl.proper_factorization_kappa2(fl.prime_factorize(88))
        assert fs.sorted_ascending() == (8, 11)

    def test_level_errors(self):
        with pytest.raises(DomainError):
            fl.proper_factorization_kappa1(fl.prime_factorize(6))
        with pytest.raises(DomainError):
            fl.proper_factorization_kappa2(fl.prime_factorize(12))


class TestIntegerPartitions:
    def test_example_five_three(self):
        assert fl.integer_partitions(5, 3) == [(3, 1, 1), (2, 2, 1)]

    def test_all_ones(self):
        assert fl.integer_partitions(4, 4) == [(1, 1, 1, 1)]

    def test_six_three(self):
        assert fl.integer_partitions(6, 3) == [(4, 1, 1), (3, 2, 1), (2, 2, 2)]

    def test_more_parts_than_total(self):
        assert fl.integer_partitions(3, 5) == []

    def test_against_exhaustive_enumeration(self):
        # oracle: filter all tuples with entries in 1..total
        def oracle(total, parts):
            import itertools
            out = []
            for tup in itertools.product(range(total, 0, -1), repeat=parts):
                if sum(tup) == total and list(tup) == sorted(tup, reverse=True):
                    out.append(tup)
            return out

        for total in range(1, 9):
            for parts in range(1, total + 1):
                got = fl.integer_partitions(total, parts)
                assert sorted(got, reverse=True) == sorted(oracle(total, parts),
                                                           reverse=True)
                assert got == sorted(got, reverse=True)  # descending-lex order


class TestGosper:
    def test_three_choose_two(self):
        assert list(fl.gosper_enumerate(3, 2)) == [0b011, 0b101, 0b110]

    def test_counts_match_binomials(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                values = list(fl.gosper_enumerate(n, k))
                assert len(values) == math.comb(n, k)
                assert len(set(values)) == len(values)
                assert values == sorted(values)
                assert all(bin(v).count("1") == k for v in values)

    def test_width_cap(self):
        with pytest.raises(DomainError):
            next(fl.gosper_enumerate(63, 2))

    def test_weight_exceeds_length(self):
        with pytest.raises(DomainError):
            next(fl.gosper_enumerate(3, 4))

    def test_pattern_codeword_sets_count(self):
        sets = list(fl.pattern_codeword_sets((3, 2, 1)))
        assert len(sets) == math.comb(6, 3) * math.comb(3, 2) * math.comb(1, 1)
        assert len(set(sets)) == len(sets)


class TestCodewordConversion:
    def test_worked_example(self):
        out = fl.codeword_conversion([(0, 1, 0, 1, 1, 0), (0, 1, 1), (1,)])
        assert out == [(0, 1, 0, 1, 1, 0), (0, 0, 1, 0, 0, 1), (1, 0, 0, 0, 0, 0)]

    def test_single_codeword_identity(self):
        assert fl.codeword_conversion([(1, 1, 1)]) == [(1, 1, 1)]

    def test_two_group_trace(self):
        assert fl.codeword_conversion([(1, 0), (1,)]) == [(1, 0), (0, 1)]

    def test_outputs_partition_positions(self):
        for pattern in fl.integer_partitions(6, 3):
            for cwset in fl.pattern_codeword_sets(pattern):
                full = fl.codeword_conversion(cwset)
                assert all(len(cw) == 6 for cw in full)
                assert [sum(cw) for cw in full] == list(pattern)
                total = [sum(bits) for bits in zip(*full)]
                assert total == [1] * 6

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            fl.codeword_conversion([(1, 0, 0), (1, 1, 1)])


class TestExclusiveSearch:
    @pytest.mark.parametrize("n,kappa,factors,size", [
        (48, 3, (6, 8), 35),
        (288, 4, (6, 6, 8), 175),
        (144, 4, (12, 12), 121),
        (288, 5, (16, 18), 255),
        (144, 3, (4, 6, 6), 75),
        (288, 3, (3, 4, 4, 6), 90),
    ])
    def test_table_rows(self, n, kappa, factors, size):
        fs = fl.exclusive_search_proper(fl.prime_factorize(n), kappa)
        assert fs.sorted_ascending() == factors
        assert fs.family_size == size

    def test_full_merge_level_one(self):
        fs = fl.exclusive_search_proper(fl.prime_factorize(48), 4)
        assert fs.factors == (48,)
        assert fs.family_size == 47

    def test_matches_closed_forms(self):
        rng = random.Random(3)
        candidates = [n for n in range(8, 2000)
                      if 3 <= fl.prime_factorize(n).omega <= 6]
        for n in rng.sample(candidates, 60):
            pf = fl.prime_factorize(n)
            searched = fl.exclusive_search_proper(pf, 1).family_size
            assert searched == fl.proper_factorization_kappa1(pf).family_size
            assert searched == fl.factor_set(n, 1).family_size
            if pf.omega > 3:
                searched = fl.exclusive_search_proper(pf, 2).family_size
                assert searched == fl.proper_factorization_kappa2(pf).family_size
                assert searched == fl.factor_set(n, 2).family_size

    def test_kappa_out_of_range(self):
        pf = fl.prime_factorize(48)
        with pytest.raises(DomainError):
            fl.exclusive_search_proper(pf, 0)
        with pytest.raises(DomainError):
            fl.exclusive_search_proper(pf, 5)

    def test_size_grows_with_kappa(self):
        for n in (48, 144, 288, 360):
            pf = fl.prime_factorize(n)
            sizes = [fl.exclusive_search_proper(pf, k).family_size
                     for k in range(1, pf.omega)]
            assert sizes == sorted(sizes)
            assert math.prod(p - 1 for p in pf.primes) <= sizes[0]


class TestNearProper:
    @pytest.mark.parametrize("n,kappa,factors,size", [
        (288, 4, (4, 8, 9), 168),
        (288, 5, (16, 18), 255),
        (48, 3, (6, 8), 35),
        (144, 3, (4, 6, 6), 75),
        (144, 4, (12, 12), 121),
        (288, 3, (3, 4, 4, 6), 90),
    ])
    def test_table_rows(self, n, kappa, factors, size):
        fs = fl.near_proper_factorization(fl.prime_factorize(n), kappa)
        assert fs.sorted_ascending() == factors
        assert fs.family_size == size

    def test_never_exceeds_proper(self):
        for n in (96, 240, 288, 360, 480, 720, 960):
            pf = fl.prime_factorize(n)
            for kappa in range(3, pf.omega - 1):
                near = fl.near_proper_factorization(pf, kappa).family_size
                proper = fl.exclusive_search_proper(pf, kappa).family_size
                assert near <= proper

    def test_preconditions(self):
        with pytest.raises(DomainError):
            fl.near_proper_factorization(fl.prime_factorize(24), 3)  # omega 4
        pf = fl.prime_factorize(96)
        with pytest.raises(DomainError):
            fl.near_proper_factorization(pf, 2)
        with pytest.raises(DomainError):
            fl.near_proper_factorization(pf, pf.omega - 1)


def _oracle_factor_multisets(pf, level):
    """Oracle: the paper's enumeration run afresh for one n, with weight
    patterns, codeword sets and codeword conversion over its own primes."""
    found = set()
    for pattern in fl.integer_partitions(pf.omega, level):
        for cwset in fl.pattern_codeword_sets(pattern):
            full = fl.codeword_conversion(cwset)
            found.add(tuple(sorted(
                math.prod(p for p, bit in zip(pf.primes, cw) if bit) for cw in full)))
    return found


@lru_cache(maxsize=None)
def _stirling2_recurrence(n, k):
    """S(n, k) by S(n, k) = k S(n-1, k) + S(n-1, k-1), independent of the library."""
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * _stirling2_recurrence(n - 1, k) + _stirling2_recurrence(n - 1, k - 1)


def _first_primes(count):
    primes = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


class TestFactorizations:
    def test_matches_per_length_enumeration(self):
        checked = 0
        for n in range(2, 1000):
            pf = fl.prime_factorize(n)
            if not 2 <= pf.omega <= 7:
                continue
            for kappa in range(1, pf.omega):
                level = pf.omega - kappa
                got = list(fl._factorizations(n, level))
                assert set(got) == _oracle_factor_multisets(pf, level), (n, kappa)
                # each multiset once, ascending, and yielded in lexicographic order
                assert got == sorted(set(got)), (n, kappa)
                assert all(list(f) == sorted(f) for f in got), (n, kappa)
                checked += 1
        assert checked > 1500

    @pytest.mark.parametrize("omega", range(1, 9))
    def test_counts_are_stirling_and_partition_numbers(self, omega):
        squarefree = math.prod(_first_primes(omega))
        for level in range(1, omega + 1):
            # distinct primes: the set partitions into level blocks
            assert (sum(1 for _ in fl._factorizations(squarefree, level))
                    == _stirling2_recurrence(omega, level))
            # one prime: the integer partitions of the exponent into level parts
            assert (sum(1 for _ in fl._factorizations(2 ** omega, level))
                    == len(fl.integer_partitions(omega, level)))
        assert list(fl._factorizations(squarefree, omega + 1)) == []

    def test_oversized_search_refused_and_prime_powers_answered(self):
        pf = fl.prime_factorize(200560490130)  # 11 distinct primes: S(11, 5) = 246730 at kappa 6
        assert pf.omega == 11 and _stirling2_recurrence(11, 5) > fl.MAX_SEARCH_PARTITIONS
        with pytest.raises(DomainError, match="limit"):
            fl.exclusive_search_proper(pf, 6)
        with pytest.raises(DomainError, match="limit"):
            fl.factor_set(200560490130, 6, "exhaustive")
        # a prime power has one factor multiset per partition of its exponent
        for omega, factors, size in [(11, (4, 4, 4, 4, 8), 567), (12, (4,) * 6, 729)]:
            level = omega - 6
            candidates = sorted(tuple(sorted(2 ** a for a in part))
                                for part in fl.integer_partitions(omega, level))
            best = max(candidates, key=lambda f: math.prod(a - 1 for a in f))
            assert (best, math.prod(a - 1 for a in best)) == (factors, size)
            fs = fl.factor_set(2 ** omega, 6, "exhaustive")
            assert (fs.factors, fs.family_size) == (factors, size)
            assert fl.exclusive_search_proper(fl.prime_factorize(2 ** omega), 6) == fs
        # the closed form needs no enumeration and stays available
        assert fl.factor_set(2 ** 11, 1).family_size == 3

    def test_deep_and_wide_inputs(self):
        # 1199 factors: the walk keeps its own stack, not the interpreter's
        assert list(fl._factorizations(2 ** 1200, 1199)) == [(2,) * 1198 + (4,)]
        # 30 distinct primes, one merge: C(30, 2) multisets; the best merges 2 * 3
        primes = _first_primes(30)
        assert sum(1 for _ in fl._factorizations(math.prod(primes), 29)) == 435
        fs = fl.factor_set(math.prod(primes), 1, "exhaustive")
        assert fs.factors == tuple(sorted([6] + primes[2:]))
        # 16 distinct primes at level 2: 2^16 - 2 divisors can be a factor, more than
        # the limit, yet 2^15 - 1 multisets are within it and answered
        primes = _first_primes(16)
        assert sum(1 for _ in fl._factorizations(math.prod(primes), 2)) == 2 ** 15 - 1
        # 62 distinct primes at level 31: refused from the divisor count, unwalked
        with pytest.raises(DomainError, match="limit"):
            next(fl._factorizations(math.prod(_first_primes(62)), 31))

    def test_factor_budget_bounds_deep_searches(self, monkeypatch):
        # every search the Stirling count allowed fits the budget: at kappa = 1
        # and level L there are up to C(L + 1, 2) multisets (L = 315 is the largest)
        assert max(level * math.comb(level + 1, 2) for level in range(1, 400)
                   if math.comb(level + 1, 2) <= fl.MAX_SEARCH_PARTITIONS) \
            <= fl.MAX_SEARCH_FACTORS
        # 2^60 at level 30: 5604 multisets of 30 factors, answered exactly at the budget
        pf = fl.prime_factorize(2 ** 60)
        monkeypatch.setattr(fl, "MAX_SEARCH_FACTORS", 30 * 5604)
        assert fl.exclusive_search_proper(pf, 30).factors == (4,) * 30
        monkeypatch.setattr(fl, "MAX_SEARCH_FACTORS", 30 * 5604 - 1)
        with pytest.raises(DomainError, match="more than 5603 multisets of 30 factors"):
            fl.exclusive_search_proper(pf, 30)

    def test_deep_prime_powers_refused_unwalked(self):
        # 2^(L + kappa) at level L has one multiset per partition of kappa into at
        # most L parts: p(41) = 44583 is within the limit, p(42) = 53174 is not
        assert sum(1 for _ in fl._factorizations(2 ** 82, 41)) == 44583
        # the refusal comes before the first multiset, whatever the depth
        for exponent, kappa in [(84, 42), (3000, 1500), (3000, 2000)]:
            with pytest.raises(DomainError, match="limit"):
                next(fl._factorizations(2 ** exponent, exponent - kappa))
            with pytest.raises(DomainError, match="limit"):
                fl.exclusive_search_proper(fl.prime_factorize(2 ** exponent), kappa)


@lru_cache(maxsize=None)
def _oracle_mpo(n: int) -> int:
    """Memoized depth-first search over non-increasing partitions; an
    independent path from the production bitmask reachability."""

    def feasible(s: int, cap: int, t: int) -> bool:
        if s == 0:
            return True
        for v in range(min(s, cap), 1, -1):
            if fl.prime_factorize(v).omega >= t and feasible(s - v, v, t):
                return True
        return False

    t = 1
    while feasible(n, n, t + 1):
        t += 1
    return t


def _oracle_split(n: int, t: int, cap: int, min_parts: int):
    """Brute force over every non-increasing tuple of parts <= cap with
    omega >= t: the fewest parts (at least min_parts), then the
    lexicographically largest tuple; None when there is none."""
    values = [v for v in range(min(n, cap), 1, -1) if fl.prime_factorize(v).omega >= t]

    def tuples(s, k, bound):
        if k == 1:
            if s in values and s <= bound:
                yield (s,)
            return
        for v in values:
            if v <= min(s, bound) and v * k >= s:
                yield from ((v,) + rest for rest in tuples(s - v, k - 1, v))

    for k in range(min_parts, n // 2 + 1):
        found = list(tuples(n, k, n))
        if found:
            return max(found)
    return None


def _oracle_decompose(n: int, restricted: bool):
    """(parts, mpo) by the mpo_decompose rule, parts None when infeasible."""
    best = _oracle_mpo(n)
    if not restricted:
        return _oracle_split(n, best, n, 1), best
    for t in range(best, 0, -1):
        parts = _oracle_split(n, t, (n - 1) // 2, 3)
        if parts is not None:
            return parts, best
    return None, best


class TestMpo:
    def test_reference_values(self):
        assert fl.mpo_value(139) == 3
        assert fl.mpo_value(839) == 5
        assert fl.mpo_value(48) == 5  # 2^4 * 3: no decomposition beats omega
        assert fl.mpo_value(1151) == 5

    def test_571_exact_value(self):
        # 280 + 243 + 48 = 571 with omega 5 for every part; heuristic
        # searches tend to stop at 4 for this length
        assert fl.prime_factorize(280).omega == 5
        assert fl.prime_factorize(243).omega == 5
        assert fl.prime_factorize(48).omega == 5
        assert fl.mpo_value(571) == 5

    def test_witness_validity(self):
        for n in (139, 571, 839, 1151, 48, 90):
            d = fl.mpo_decompose(n)
            assert sum(d.parts) == n
            assert d.min_omega == d.mpo
            assert d.at_mpo

    def test_restriction_a_witness(self):
        d = fl.mpo_decompose(139, require_restriction_a=True)
        assert d.satisfies_restriction_a
        assert d.min_omega == 3 and d.at_mpo

    def test_restriction_a_fallback_level(self):
        # 48 reaches level 5 only as a single part; best compliant is 4
        d = fl.mpo_decompose(48, require_restriction_a=True)
        assert d.satisfies_restriction_a
        assert d.min_omega == 4
        assert d.mpo == 5
        assert not d.at_mpo

    def test_oracle_agreement_small(self):
        for n in range(2, 201):
            assert fl.mpo_value(n) == _oracle_mpo(n), n

    def test_mpo_at_least_omega(self):
        for n in range(2, 400):
            assert fl.mpo_value(n) >= fl.prime_factorize(n).omega

    def test_gain_happens_exactly_off_the_three_smooth_forms(self):
        # a decomposition can beat omega(n) iff n is not 2^a 3^b p^e with
        # (p, max e) in {(5,3), (7,2), (11,1)}
        def is_form(n):
            m = n
            while m % 2 == 0:
                m //= 2
            while m % 3 == 0:
                m //= 3
            for p, cap in ((5, 3), (7, 2), (11, 1)):
                rest, e = m, 0
                while rest % p == 0:
                    rest //= p
                    e += 1
                if rest == 1 and e <= cap:
                    return True
            return False

        for n in range(2, 401):
            gain = fl.mpo_value(n) > fl.prime_factorize(n).omega
            assert gain == (not is_form(n)), n

    @pytest.mark.parametrize("restricted", [False, True], ids=["plain", "restricted"])
    def test_witness_matches_brute_force(self, restricted):
        kinds = set()
        for n in range(2, 151):
            parts, best = _oracle_decompose(n, restricted)
            if parts is None:
                with pytest.raises(InfeasibleError):
                    fl.mpo_decompose(n, require_restriction_a=restricted)
                kinds.add("infeasible")
                continue
            d = fl.mpo_decompose(n, require_restriction_a=restricted)
            assert (d.parts, d.mpo) == (parts, best), n
            kinds.add("at_mpo" if d.at_mpo else "fallback")
        assert kinds == ({"infeasible", "at_mpo", "fallback"} if restricted else {"at_mpo"})

    @pytest.mark.parametrize("n, plain, restricted, mpo", [
        (139, (112, 27), (68, 63, 8), 3),
        (839, (567, 272), (416, 243, 180), 5),
        (1151, (891, 180, 80), (567, 552, 32), 5),
        (838, (486, 352), (408, 270, 160), 6),
        (1117, (729, 324, 64), (552, 405, 160), 6),
    ])
    def test_pinned_witnesses(self, n, plain, restricted, mpo):
        assert (fl.mpo_decompose(n).parts, fl.mpo_decompose(n).mpo) == (plain, mpo)
        d = fl.mpo_decompose(n, require_restriction_a=True)
        assert (d.parts, d.mpo) == (restricted, mpo)

    def test_supplied_decomposition(self):
        d = fl.Decomposition.from_parts(571, (225, 196, 150))
        assert d.min_omega == 4
        assert d.satisfies_restriction_a
        assert d.mpo == 5 and not d.at_mpo

    def test_invalid_parts_rejected(self):
        with pytest.raises(DomainError):
            fl.Decomposition(10, (5, 4))
        with pytest.raises(DomainError):
            fl.Decomposition(10, (4, 5, 1))


class TestAvailableWithMinCsd:
    def test_table_restriction(self):
        fs = fl.exclusive_search_proper(fl.prime_factorize(288), 5)
        assert fl.available_with_min_csd(fs, 24) == 120

    def test_unrestricted_when_csd_large_enough(self):
        fs = fl.exclusive_search_proper(fl.prime_factorize(48), 3)
        assert fl.available_with_min_csd(fs, 4) == 35

    def test_min_csd_one(self):
        fs = fl.proper_factorization_kappa1(fl.prime_factorize(144))
        assert fl.available_with_min_csd(fs, 1) == fs.family_size

    def test_rejects_nonpositive(self):
        fs = fl.proper_factorization_kappa1(fl.prime_factorize(144))
        with pytest.raises(DomainError):
            fl.available_with_min_csd(fs, 0)


class TestLemmas:
    """Exact-rational order relations behind the factorization choices.

    The acceptance suite re-runs these at 10^4 tuples; keep the unit run
    lighter.
    """

    def test_componentwise_monotonicity(self):
        rng = random.Random(11)
        for _ in range(1500):
            m = rng.randint(1, 5)
            a = [rng.randint(2, 50) for _ in range(m)]
            b = [x + rng.randint(0, 8) for x in a]
            fa, fb = fl.size_ratio(a), fl.size_ratio(b)
            assert fa >= fb
            # strictness needs a second entry: a 1-tuple has ratio 1 always
            if m >= 2 and any(x < y for x, y in zip(a, b)):
                assert fa > fb

    def test_single_entry_ratio_is_one(self):
        assert fl.size_ratio([7]) == 1
        assert fl.size_ratio([30]) == 1

    def test_pairing_order(self):
        rng = random.Random(12)
        for _ in range(1500):
            pa, pb, pc, pd = sorted(rng.randint(2, 60) for _ in range(4))
            lhs = fl.size_ratio([pa, pd]) * fl.size_ratio([pb, pc])
            mid = fl.size_ratio([pa, pc]) * fl.size_ratio([pb, pd])
            rhs = fl.size_ratio([pa, pb]) * fl.size_ratio([pc, pd])
            assert lhs >= mid >= rhs

    def test_triple_merge_dominates_when_product_small(self):
        rng = random.Random(13)
        checked = 0
        while checked < 1500:
            pa, pb, pc = sorted(rng.randint(2, 12) for _ in range(3))
            pd = rng.randint(pb * pc, pb * pc + 40)
            if pd < pc:
                continue
            assert (fl.size_ratio([pa, pb, pc])
                    >= fl.size_ratio([pa, pd]) * fl.size_ratio([pb, pc]))
            checked += 1
