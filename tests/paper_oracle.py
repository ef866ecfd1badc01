"""The paper's enumeration and single-sequence constructions, kept as test
oracles: the pipeline in caseq no longer calls them.

From factorlab's side: the prime-factor count, the family-size ratio f, the
integer partitions of Omega(n) into weight patterns, fixed-weight codeword
enumeration, and the codeword conversion that turns weight patterns into
prime groupings.  From seqforge's side: the G and I single sequences, each
built on its own from its digit phases, and cyclic-shift subfamilies; and
the phase rows of a flat family from the full mixed-radix digit array.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from caseq.factorlab import DomainError, prime_factorize
from caseq.seqforge import CaSequence, Family, WaveformConfig

# A weight pattern: non-increasing positive ints, one entry per factor group.
OmegaPattern = tuple[int, ...]


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


def _unit_phases(numerators: np.ndarray, denominator: int) -> np.ndarray:
    """exp(2j*pi*numerators/denominator), the fraction reduced mod 1 first."""
    return np.exp(2j * np.pi * (np.mod(numerators, denominator) / denominator))


def _digit_phase_chi(factors: Sequence[int], nu: Sequence[int], weights: Sequence[int],
                     cfg: WaveformConfig) -> np.ndarray:
    """chi of one index vector: digit l_m = (n // weights[m]) % A_m contributes
    phase 2*pi*nu_m*l_m/A_m, and under a fractional alpha*gamma the odd digits
    add 2*pi*alpha*gamma*l_m*weights[m]; the phase is an integer numerator over
    one common denominator until the single exp."""
    if len(nu) != len(factors) or not all(1 <= v < a for v, a in zip(nu, factors)):
        raise DomainError(f"index vector {tuple(nu)} needs one integer in [1, A - 1] "
                          f"per factor A of {tuple(factors)}")
    ag, twisted = cfg.alpha_gamma, cfg.condition == "B"
    denom = math.lcm(*factors, ag.denominator if twisted else 1)
    n_index = np.arange(math.prod(factors))
    numer = np.zeros(len(n_index), dtype=np.int64)
    for m, (a, v, w) in enumerate(zip(factors, nu, weights)):
        coef = v * (denom // a)
        if twisted and m % 2:
            coef += ag.numerator * (denom // ag.denominator) * w
        numer += coef * ((n_index // w) % a)
    return _unit_phases(numer, denom)


def build_g_sequence(factors: Sequence[int], nu: Sequence[int],
                     cfg: WaveformConfig) -> CaSequence:
    """Phase-assigned sequence over descending factors of N.

    Index n decomposes in the mixed radix with digit weights
    phi_0 = 1, phi_m = prod(factors[:m]); digit m contributes phase
    2*pi*nu_m*l_m/A_m, and under a fractional alpha*gamma the odd digits
    add 2*pi*alpha*gamma*l_m*phi_m.
    """
    if list(factors) != sorted(factors, reverse=True) or math.prod(factors) != cfg.n_seq:
        raise DomainError(f"factors must be sorted descending and multiply to {cfg.n_seq}")
    weights = [math.prod(factors[:m]) for m in range(len(factors))]
    return CaSequence(_digit_phase_chi(factors, nu, weights, cfg), cfg)


def build_i_sequence(factors: Sequence[int], nu: Sequence[int],
                     cfg: WaveformConfig) -> CaSequence:
    """Companion construction over ascending factors with reversed weights
    psi_m = N / prod(factors[:m+1]), psi_last = 1."""
    n = cfg.n_seq
    if list(factors) != sorted(factors) or math.prod(factors) != n:
        raise DomainError(f"factors must be sorted ascending and multiply to {n}")
    weights = [n // math.prod(factors[:m + 1]) for m in range(len(factors))]
    return CaSequence(_digit_phase_chi(factors, nu, weights, cfg), cfg)


def cs_subfamily(family: Family, index: int) -> list[tuple[int, CaSequence]]:
    """Cyclic-shift subfamily of member index of a flat phase-assigned family,
    as (shift, member) pairs.

    With A the largest factor and nu_0 the member's leading index, the
    admissible shifts are l*N/A for l in 0..A-1 except l = A - nu_0;
    shifting by k multiplies q[n] by exp(2j*pi*n*k/N), which lands on the
    member whose leading index is (nu_0 + l) mod A.
    """
    if "factor_set" not in family.meta:
        raise DomainError(f"cyclic-shift subfamilies need a flat family, not {family.kind}")
    if not 0 <= index < len(family):
        raise DomainError(f"member index must be in [0, {len(family) - 1}], got {index}")
    n, a = family.n, family.meta["factor_set"][0]
    # the paper's numbering: member index takes the index-th vector of the
    # lexicographic product of range(1, A) over the descending factor set
    nus = list(itertools.product(*(range(1, f) for f in family.meta["factor_set"])))
    step, v0 = n // a, nus[index][0]
    chi = family.sequences[index].chi
    return [(k, CaSequence(chi * _unit_phases(np.arange(n) * k, n), family.cfg))
            for k in range(0, n, step) if k != (a - v0) * step]


def phase_rows(factors: Sequence[int], nus: np.ndarray, cfg: WaveformConfig) -> np.ndarray:
    """chi of every index vector in nus, one row each, from the level x N digit
    array: the numerators are coef @ digits in int64, over the least common
    denominator D of seqforge._phase_rows, reduced by % before one exp per entry."""
    weights = [math.prod(factors[:m]) for m in range(len(factors))]
    ag, twisted = cfg.alpha_gamma, cfg.condition == "B"
    tw = [w if twisted and m % 2 else 0 for m, w in enumerate(weights)]
    denom = math.lcm(*factors, *(ag.denominator // math.gcd(ag.denominator, w) for w in tw))
    n_index = np.arange(math.prod(factors))
    digits = np.array([(n_index // w) % a for w, a in zip(weights, factors)])
    twist = [ag.numerator * w * denom // ag.denominator for w in tw]
    coef = np.asarray(nus, dtype=np.int64) * [denom // a for a in factors] + twist
    return _unit_phases(coef @ digits, denom)
