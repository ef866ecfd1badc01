"""Number-theoretic engine behind the sequence-family constructions.

Provides prime factorization, the family-size ratio f, proper and
near-proper coarse factorizations at degeneracy level kappa, integer
partition and fixed-weight codeword enumeration, the codeword conversion
that turns weight patterns into prime groupings, additive decompositions
maximizing the minimum prime-omega over parts, and the count of sequences
available under a minimum cyclic-shifting-distance restriction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence


class DomainError(ValueError):
    """Input outside the domain an operation is defined on."""


class InfeasibleError(ValueError):
    """A mathematically infeasible request (no solution exists)."""


# A weight pattern: non-increasing positive ints, one entry per factor group.
OmegaPattern = tuple[int, ...]


@dataclass(frozen=True)
class PrimeFactorization:
    """Multiset of prime factors of ``n``, stored ascending."""

    n: int
    primes: tuple[int, ...]

    @property
    def omega(self) -> int:
        """Number of prime factors counted with multiplicity."""
        return len(self.primes)


@dataclass(frozen=True)
class FactorSet:
    """A multiplicative splitting of ``n`` into factors, each >= 2.

    ``kappa`` is the degeneracy level: the number of merges applied to the
    prime factorization, i.e. omega(n) minus the number of factors.
    """

    n: int
    factors: tuple[int, ...]
    kappa: int

    def __post_init__(self):
        if math.prod(self.factors) != self.n:
            raise DomainError(f"factors {self.factors} do not multiply to {self.n}")
        if any(a < 2 for a in self.factors):
            raise DomainError("every factor must be >= 2")

    @property
    def family_size(self) -> int:
        """Number of orthogonal sequences the factor set supports."""
        return math.prod(a - 1 for a in self.factors)

    @property
    def family_csd(self) -> int:
        """Cyclic shifting distance n / max(factors)."""
        return self.n // max(self.factors)

    def sorted_ascending(self) -> tuple[int, ...]:
        return tuple(sorted(self.factors))

    def sorted_descending(self) -> tuple[int, ...]:
        return tuple(sorted(self.factors, reverse=True))


@dataclass(frozen=True)
class Decomposition:
    """Additive split n = sum of parts, each part >= 2, non-increasing."""

    n: int
    parts: tuple[int, ...]
    #: largest achievable min-omega over all decompositions of n (set by
    #: mpo_decompose; equals min_omega when the witness attains it).
    mpo: int = field(default=0, compare=False)

    def __post_init__(self):
        if sum(self.parts) != self.n:
            raise DomainError(f"parts {self.parts} do not sum to {self.n}")
        if any(p < 2 for p in self.parts):
            raise DomainError("every part must be >= 2")
        if list(self.parts) != sorted(self.parts, reverse=True):
            raise DomainError("parts must be non-increasing")

    @property
    def min_omega(self) -> int:
        return min(prime_factorize(p).omega for p in self.parts)

    @property
    def satisfies_restriction_a(self) -> bool:
        """At least three parts and no part as large as half the total."""
        return len(self.parts) >= 3 and 2 * max(self.parts) < self.n

    @property
    def at_mpo(self) -> bool:
        return self.mpo == self.min_omega

    @classmethod
    def from_parts(cls, n: int, parts: Sequence[int]) -> "Decomposition":
        d = cls(n, tuple(sorted(parts, reverse=True)))
        return Decomposition(d.n, d.parts, mpo=mpo_value(n))


def prime_factorize(n: int) -> PrimeFactorization:
    """Factor ``n`` by trial division; primes returned ascending."""
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    return _prime_factorize_cached(n)


@lru_cache(maxsize=None)
def _prime_factorize_cached(n: int) -> PrimeFactorization:
    primes = []
    m = n
    for p in (2, 3):
        while m % p == 0:
            primes.append(p)
            m //= p
    p = 5
    while p * p <= m:
        for q in (p, p + 2):
            while m % q == 0:
                primes.append(q)
                m //= q
        p += 6
    if m > 1:
        primes.append(m)
    return PrimeFactorization(n, tuple(primes))


def omega(n: int) -> int:
    """Prime factor count of n with multiplicity."""
    return prime_factorize(n).omega


def size_ratio(factors: Sequence[int]) -> Fraction:
    """Exact family-size ratio (prod(a) - 1) / prod(a - 1) for entries > 1."""
    if not factors:
        raise DomainError("empty factor tuple")
    if any(a <= 1 for a in factors):
        raise DomainError(f"all entries must exceed 1, got {tuple(factors)}")
    return Fraction(math.prod(factors) - 1, math.prod(a - 1 for a in factors))


def proper_factorization_kappa1(pf: PrimeFactorization) -> FactorSet:
    """Level-(omega-1) factorization of largest family size.

    Merges the two smallest primes; optimal by monotonicity of the size
    ratio in each entry.
    """
    if pf.omega <= 2:
        raise DomainError(f"kappa=1 needs omega > 2, got omega={pf.omega}")
    p = pf.primes
    return FactorSet(pf.n, tuple(sorted((p[0] * p[1],) + p[2:])), kappa=1)


def proper_factorization_kappa2(pf: PrimeFactorization) -> FactorSet:
    """Level-(omega-2) factorization of largest family size.

    Either the three smallest primes merge into one factor, or the four
    smallest merge pairwise as {p0*p3, p1*p2}; the first wins exactly when
    p1*p2 < p3.
    """
    if pf.omega <= 3:
        raise DomainError(f"kappa=2 needs omega > 3, got omega={pf.omega}")
    return FactorSet(pf.n, _merge_two_levels(pf.primes), kappa=2)


def _merge_two_levels(factors: Sequence[int]) -> tuple[int, ...]:
    """Two levels down in one step, ascending: merge the three smallest
    factors when A1*A2 < A3, else merge {A0, A3} and {A1, A2}."""
    a = sorted(factors)
    if a[1] * a[2] < a[3]:
        merged = [a[0] * a[1] * a[2]] + a[3:]
    else:
        merged = [a[0] * a[3], a[1] * a[2]] + a[4:]
    return tuple(sorted(merged))


def integer_partitions(total: int, parts: int) -> list[OmegaPattern]:
    """All non-increasing positive patterns of fixed length summing to total.

    Ordered lexicographically descending, e.g. (5, 3) -> [(3,1,1), (2,2,1)].
    Returns [] when parts > total; raises on nonpositive arguments.
    """
    if total < 1 or parts < 1:
        raise DomainError("total and parts must be positive")
    out: list[OmegaPattern] = []

    def rec(remaining: int, slots: int, cap: int, prefix: tuple[int, ...]):
        if slots == 0:
            if remaining == 0:
                out.append(prefix)
            return
        # each of the remaining slots holds at least 1
        hi = min(cap, remaining - (slots - 1))
        lo = -(-remaining // slots)  # ceil: keep non-increasing feasible
        for v in range(hi, lo - 1, -1):
            rec(remaining - v, slots - 1, v, prefix + (v,))

    rec(total, parts, total, ())
    return out


def gosper_enumerate(length: int, weight: int) -> Iterator[int]:
    """Yield all ``length``-bit integers of Hamming weight ``weight`` ascending.

    Classic carry-propagation bit trick; bit i of a yielded value marks
    position i of the codeword.  length is capped at 62 bits.
    """
    if length > 62:
        raise DomainError(f"codeword length {length} exceeds the 62-bit cap")
    if weight <= 0 or weight > length:
        raise DomainError(f"need 0 < weight <= length, got ({length}, {weight})")
    x = (1 << weight) - 1
    limit = 1 << length
    while x < limit:
        yield x
        c = x & -x
        r = x + c
        x = (((r ^ x) >> 2) // c) | r


def bits_of(codeword: int, length: int) -> tuple[int, ...]:
    """Expand an integer codeword to its bit tuple (index m = bit m)."""
    return tuple((codeword >> m) & 1 for m in range(length))


def codeword_conversion(codewords: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Expand nested short codewords to full-length ones over all positions.

    Codeword 0 claims positions of the full index set directly; codeword
    n claims among the positions left unclaimed by codewords 0..n-1, in
    order.  Inputs therefore shrink: len(codeword n) equals the number of
    positions still free before it.  Outputs all have the full length,
    keep their input weights, and partition the position set.
    """
    if not codewords:
        raise DomainError("no codewords given")
    full = len(codewords[0])
    free = list(range(full))
    out: list[tuple[int, ...]] = []
    for cw in codewords:
        if len(cw) != len(free):
            raise DomainError(
                f"codeword of length {len(cw)} does not match {len(free)} free positions"
            )
        expanded = [0] * full
        taken = []
        for pos, bit in zip(free, cw):
            if bit:
                expanded[pos] = 1
                taken.append(pos)
        out.append(tuple(expanded))
        free = [p for p in free if p not in taken]
    if free:
        raise DomainError(f"codewords leave positions {free} unclaimed")
    return out


def pattern_codeword_sets(pattern: Sequence[int]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All codeword sets realizing a weight pattern over sum(pattern) positions.

    For pattern entry w_m, the m-th codeword has length equal to the tail
    sum of the pattern from m on, and weight w_m; the product of binomial
    coefficients counts the sets yielded.
    """
    tail = [sum(pattern[m:]) for m in range(len(pattern))]

    def rec(m: int, prefix: tuple[tuple[int, ...], ...]):
        if m == len(pattern):
            yield prefix
            return
        if tail[m] == pattern[m]:
            # forced all-ones codeword
            yield from rec(m + 1, prefix + ((1,) * pattern[m],))
            return
        for cw in gosper_enumerate(tail[m], pattern[m]):
            yield from rec(m + 1, prefix + (bits_of(cw, tail[m]),))

    yield from rec(0, ())


#: Most set partitions S(omega, omega - kappa) one exhaustive search may enumerate.
MAX_SEARCH_PARTITIONS = 50_000


@lru_cache(maxsize=None)
def _partition_skeleton(omega: int, level: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Set partitions of the prime positions 0..omega-1 into ``level`` blocks,
    from weight patterns, codeword sets and codeword conversion; they do not
    depend on the primes, so one enumeration serves every n of that omega."""
    found = {tuple(sorted(tuple(m for m, bit in enumerate(cw) if bit)
                          for cw in codeword_conversion(cwset)))
             for pattern in integer_partitions(omega, level)
             for cwset in pattern_codeword_sets(pattern)}
    return tuple(sorted(found))


def _factor_multisets(pf: PrimeFactorization, level: int) -> set[tuple[int, ...]]:
    """All distinct factor multisets of n with exactly ``level`` factors."""
    return {tuple(sorted(math.prod(pf.primes[m] for m in block) for block in blocks))
            for blocks in _partition_skeleton(pf.omega, level)}


def exclusive_search_proper(pf: PrimeFactorization, kappa: int) -> FactorSet:
    """Exhaustive search for a level-(omega-kappa) factor set of maximum
    family size.

    Keeps the factor multiset maximizing prod(A_m - 1) over the cached
    partition skeleton, ties to the lexicographically smallest; more than
    MAX_SEARCH_PARTITIONS partitions are refused before enumerating.
    """
    if not 1 <= kappa <= pf.omega - 1:
        raise DomainError(f"kappa must be in [1, {pf.omega - 1}], got {kappa}")
    level = pf.omega - kappa
    # the Stirling number S(omega, level) of set partitions to enumerate
    partitions = sum((-1) ** j * math.comb(level, j) * (level - j) ** pf.omega
                     for j in range(level + 1)) // math.factorial(level)
    if partitions > MAX_SEARCH_PARTITIONS:
        raise DomainError(
            f"exhaustive search of n={pf.n} at kappa={kappa} spans {partitions} "
            f"prime groupings, above the limit {MAX_SEARCH_PARTITIONS}")
    # max keeps the first of equal sizes: the smallest in sorted order
    best = max(sorted(_factor_multisets(pf, level)),
               key=lambda factors: math.prod(a - 1 for a in factors))
    return FactorSet(pf.n, best, kappa=kappa)


def near_proper_factorization(pf: PrimeFactorization, kappa: int) -> FactorSet:
    """Closed-form level-(omega-kappa) factorization for kappa >= 3.

    Recursion seeded with the proper level-(omega-1) or level-(omega-2)
    set: at each step, sort ascending and either merge the three smallest
    factors (when A1*A2 < A3) or merge {A0,A3} and {A1,A2}.
    """
    if pf.omega <= 4:
        raise DomainError(f"near-proper needs omega > 4, got omega={pf.omega}")
    if not 3 <= kappa <= pf.omega - 2:
        raise DomainError(f"kappa must be in [3, {pf.omega - 2}], got {kappa}")
    first = proper_factorization_kappa1 if kappa % 2 else proper_factorization_kappa2
    current = first(pf).sorted_ascending()
    for _ in range((kappa - 1) // 2):
        current = _merge_two_levels(current)
    return FactorSet(pf.n, current, kappa=kappa)


FACTOR_SET_MODES = ("proper", "near", "exhaustive")


def factor_set(n: int, kappa: int = 0, mode: str = "proper") -> FactorSet:
    """The factor set of n at degeneracy level kappa.

    kappa = 0 gives the primes.  Mode "near" takes the near-proper
    recursion; "proper" takes the closed forms where they hold (kappa = 1
    with omega > 2, kappa = 2 with omega > 3).  Every other case runs the
    exhaustive search, which rejects kappa outside [1, omega - 1].
    """
    if mode not in FACTOR_SET_MODES:
        raise DomainError(f"unknown factor-set mode {mode!r}")
    pf = prime_factorize(n)
    if kappa == 0:
        return FactorSet(n, pf.primes, kappa=0)
    if mode == "near":
        return near_proper_factorization(pf, kappa)
    if mode == "proper" and kappa == 1 and pf.omega > 2:
        return proper_factorization_kappa1(pf)
    if mode == "proper" and kappa == 2 and pf.omega > 3:
        return proper_factorization_kappa2(pf)
    return exclusive_search_proper(pf, kappa)


def mpo_value(n: int) -> int:
    """Largest t such that n is a sum of integers >= 2, each with omega >= t.

    Single-part sums are allowed, so the result is at least omega(n).
    """
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    t = prime_factorize(n).omega
    while _split(n, t + 1, cap=n, min_parts=1) is not None:
        t += 1
    return t


@lru_cache(maxsize=8)
def _omega_table(n: int) -> tuple[int, ...]:
    """omega(v) for v = 0..n (0 at v < 2), sieved by prime powers."""
    omegas = [0] * (n + 1)
    for p in range(2, n + 1):
        if omegas[p] == 0:  # no smaller prime divides p
            power = p
            while power <= n:
                for m in range(power, n + 1, power):
                    omegas[m] += 1
                power *= p
    return tuple(omegas)


@lru_cache(maxsize=512)
def _split(n: int, t: int, cap: int, min_parts: int) -> tuple[int, ...] | None:
    """n as the fewest parts (at least min_parts), each <= cap with omega
    >= t, and of those the lexicographically largest non-increasing; None
    when there is none.

    layers[k] is the bitmask of the sums of exactly k parts.  The witness is
    read off greedily: the largest v in any j-part split of s bounds every
    other part of that split, so the parts come out non-increasing.
    """
    omegas = _omega_table(n)
    values = [v for v in range(min(n, cap), 1, -1) if omegas[v] >= t]
    mask = (1 << (n + 1)) - 1
    layers = [1]
    while len(layers) <= min_parts or not layers[-1] >> n & 1:
        layer = 0
        for v in values:
            layer |= layers[-1] << v
        layer &= mask
        if not layer:
            return None
        layers.append(layer)
    parts, s = [], n
    for below in reversed(layers[:-1]):
        parts.append(next(v for v in values if v <= s and below >> (s - v) & 1))
        s -= parts[-1]
    return tuple(parts)


def mpo_decompose(n: int, require_restriction_a: bool = False) -> Decomposition:
    """Witness decomposition at the largest achievable min-omega level.

    Without the restriction the witness may be a single part.  With it,
    the witness must have at least 3 parts, none reaching half of n; when
    no such witness exists at the top level, the best compliant lower
    level is returned (Decomposition.at_mpo is then False).
    """
    best_t = mpo_value(n)
    if not require_restriction_a:
        return Decomposition(n, _split(n, best_t, cap=n, min_parts=1), mpo=best_t)
    for t in range(best_t, 0, -1):
        parts = _split(n, t, cap=(n - 1) // 2, min_parts=3)
        if parts is not None:
            return Decomposition(n, parts, mpo=best_t)
    raise InfeasibleError(
        f"no decomposition of {n} with >= 3 parts below {n}/2 at any level")


def available_with_min_csd(fs: FactorSet, min_csd: int) -> int:
    """Sequences usable from a family under a minimum cyclic-shift distance.

    Each of the family_size/(A_max - 1) shift subfamilies keeps
    floor((A_max - 1) / ceil(min_csd / family_csd)) members.
    """
    if min_csd < 1:
        raise DomainError(f"min_csd must be >= 1, got {min_csd}")
    a_max = max(fs.factors)
    per_subfamily = (a_max - 1) // -(-min_csd // fs.family_csd)
    return (fs.family_size // (a_max - 1)) * per_subfamily
