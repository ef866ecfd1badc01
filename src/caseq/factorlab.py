"""Number-theoretic engine behind the sequence-family constructions.

Provides prime factorization, proper and near-proper coarse factorizations
at degeneracy level kappa, additive decompositions maximizing the minimum
prime-omega over parts, and the count of sequences available under a
minimum cyclic-shifting-distance restriction.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence


class DomainError(ValueError):
    """Input outside the domain an operation is defined on."""


class InfeasibleError(ValueError):
    """A mathematically infeasible request (no solution exists)."""


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
    def mpo(self) -> int:
        """Largest achievable min-omega over all decompositions of n; equals
        min_omega when these parts attain it."""
        return mpo_value(self.n)

    @property
    def satisfies_restriction_a(self) -> bool:
        """At least three parts and no part as large as half the total."""
        return len(self.parts) >= 3 and 2 * max(self.parts) < self.n

    @property
    def at_mpo(self) -> bool:
        return self.mpo == self.min_omega

    @classmethod
    def from_parts(cls, n: int, parts: Sequence[int]) -> "Decomposition":
        return cls(n, tuple(sorted(parts, reverse=True)))


#: Largest trial divisor: a cofactor above its square with no smaller prime
#: factor is refused, as its primality is not settled.
TRIAL_DIVISION_BOUND = 2 ** 20


def prime_factorize(n: int) -> PrimeFactorization:
    """Factor ``n`` by trial division up to TRIAL_DIVISION_BOUND; primes
    returned ascending."""
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
        if p > TRIAL_DIVISION_BOUND:
            raise DomainError(f"n={n} has a cofactor {m} with no prime factor up to "
                              f"{TRIAL_DIVISION_BOUND}, where trial division stops")
        for q in (p, p + 2):
            while m % q == 0:
                primes.append(q)
                m //= q
        p += 6
    if m > 1:
        primes.append(m)
    return PrimeFactorization(n, tuple(primes))


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


#: Most factor multisets (multiplicative partitions of n) one search may visit.
MAX_SEARCH_PARTITIONS = 50_000
#: Most factors, summed over those multisets, one search may visit: a deep
#: search costs its level per multiset.  A search with at most
#: MAX_SEARCH_PARTITIONS set partitions of its primes stays below it: the
#: largest level * S(omega, level) among them is 315 * C(316, 2) = 15_677_550.
MAX_SEARCH_FACTORS = 16_000_000


def _check_search_size(exps: Sequence[int], level: int) -> None:
    """Refuse before any walk a search with provably more than
    MAX_SEARCH_PARTITIONS multisets of ``level`` factors, for the n with
    prime exponents ``exps`` and kappa = Omega(n) - level >= 0, from two floors:

    - a divisor of at most kappa + 1 primes is a factor of some multiset
      (for level > 1), and a multiset holds at most level of them;
    - the prime counts of the factors, less one each, are a partition of
      kappa into at most level parts, and every such partition is met.
    """
    kappa = sum(exps) - level
    counts = [1]  # counts[w]: the divisors of w <= kappa + 1 primes
    for e in exps:
        counts = [sum(counts[max(0, w - e):w + 1]) for w in range(min(kappa + 2, len(counts) + e))]
    ways = [1] + [0] * kappa  # ways[t]: the partitions of t into parts up to `part`
    for part in range(1, min(level, kappa) + 1):
        if ways[kappa] > MAX_SEARCH_PARTITIONS:
            break
        for t in range(part, kappa + 1):
            ways[t] += ways[t - part]
    if ways[kappa] > MAX_SEARCH_PARTITIONS or (
            level > 1 and sum(counts) - 1 > level * MAX_SEARCH_PARTITIONS):
        raise DomainError(f"n with prime exponents {tuple(exps)} has more than "
                          f"{MAX_SEARCH_PARTITIONS} multisets of {level} factors, above the limit")


def _next_factors(primes: tuple[int, ...], rest: int, left: int, low: int) -> list[int]:
    """The factors d >= low, ascending, that can come next when ``rest``, the
    product of the ascending ``primes``, splits into ``left`` ascending factors.

    spare = len(primes) - left merges remain, so d holds at most spare + 1
    primes, and d**left <= rest.  A prime of rest // d below d shares a factor
    with another prime, so at most twice the merges left after d are below
    d; hence d <= primes[2 * spare].
    """
    spare = len(primes) - left
    cap = primes[2 * spare] if 2 * spare < len(primes) else rest
    found = [(1, 0, 0)]  # a divisor, its prime count and the first prime it may take next;
    # the loop walks the list as it grows
    for d, count, j in found:
        # the next prime is the first of its value from j on: each divisor once
        while j < len(primes) and count <= spare and d * primes[j] <= cap and (
                (d * primes[j]) ** left <= rest):
            found.append((d * primes[j], count + 1, j + 1))
            j = bisect.bisect_right(primes, primes[j], j)
    # the primes of rest // d below d: those below d, less d's own when d is composite
    return sorted(d for d, count, _ in found[1:] if d >= low and
                  bisect.bisect_left(primes, d) - count * (count > 1) <= 2 * (spare - count + 1))


def _without(primes: tuple[int, ...], d: int) -> tuple[int, ...]:
    """The ascending ``primes`` less those of d, a divisor of their product."""
    kept = []
    for i, p in enumerate(primes):
        if d == 1:
            return (*kept, *primes[i:])
        if d % p:
            kept.append(p)
        else:
            d //= p
    return tuple(kept)


def _factorizations(n: int, level: int) -> Iterator[tuple[int, ...]]:
    """Each multiset of exactly ``level`` factors >= 2 with product n, once,
    as an ascending tuple and in lexicographic order.

    A depth-first walk on an explicit stack (no recursion limit).  An entry
    puts factor d at ``depth`` of the one shared ``head`` and leaves ``rest``
    to split; it keeps its parent's primes, so the stack holds no copies.
    """
    primes = prime_factorize(n).primes
    if level > len(primes):
        return
    _check_search_size([len(list(run)) for _, run in itertools.groupby(primes)], level)
    head: list[int] = []
    stack = [(0, 1, n, primes)]  # factor 1 at depth 0 stands for the empty head
    while stack:
        depth, d, rest, parent = stack.pop()
        del head[depth:]
        head.append(d)
        if depth == level - 1:
            yield (*head[1:], rest)
            continue
        primes = _without(parent, d)
        stack.extend((depth + 1, c, rest // c, primes)
                     for c in reversed(_next_factors(primes, rest, level - depth, d)))


def exclusive_search_proper(pf: PrimeFactorization, kappa: int) -> FactorSet:
    """Exhaustive search for a level-(omega-kappa) factor set maximizing the
    family size prod(A_m - 1) over _factorizations, ties to the first (the
    lexicographically smallest); more than MAX_SEARCH_PARTITIONS multisets,
    or MAX_SEARCH_FACTORS factors in all, are refused."""
    if not 1 <= kappa <= pf.omega - 1:
        raise DomainError(f"kappa must be in [1, {pf.omega - 1}], got {kappa}")
    level = pf.omega - kappa
    limit = min(MAX_SEARCH_PARTITIONS, MAX_SEARCH_FACTORS // level)
    multisets = _factorizations(pf.n, level)
    best = max(itertools.islice(multisets, limit),
               key=lambda factors: math.prod(a - 1 for a in factors))
    if next(multisets, None) is not None:
        raise DomainError(f"exhaustive search of n={pf.n} at kappa={kappa} meets more "
                          f"than {limit} multisets of {level} factors, above the limit")
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
    return _top_split(n, n.bit_length() - 1, n, 1)[0]  # omega(v <= n) <= log2 n


def _top_split(n: int, top: int, cap: int, min_parts: int) -> tuple[int, tuple[int, ...] | None]:
    """The highest level t <= top with a _split, and its parts, (0, None) if none: a split
    at t is one at every lower t, and the high levels admit few values and fail fast."""
    for t in range(top, 0, -1):
        parts = _split(n, t, cap, min_parts)
        if parts is not None:
            return t, parts
    return 0, None


@lru_cache(maxsize=8)
def _omega_table(bits: int) -> tuple[int, ...]:
    """omega(v) for v < 2^bits (0 at v < 2), sieved by prime powers: one sieve
    serves every n of bit length bits."""
    n = (1 << bits) - 1
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
    omegas = _omega_table(n.bit_length())
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
    cap, min_parts = ((n - 1) // 2, 3) if require_restriction_a else (n, 1)
    parts = _top_split(n, mpo_value(n), cap, min_parts)[1]
    if parts is None:
        raise InfeasibleError(f"no decomposition of {n} with >= 3 parts below {n}/2 at any level")
    return Decomposition(n, parts)


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
