"""Construction of constant-amplitude sequences and their orthogonal families.

Sequences are specified in frequency domain by a unit-modulus vector chi;
the transmitted vector is q[n] = N^(-1/2) (-1)^(n*gamma) chi[n].  Families
come in several kinds: phase-assigned over a factor multiset of N (pma and
its degenerate variants), concatenations over an additive decomposition of
N (hat kinds), phase-rotation-augmented concatenations (apma/adpma), plus
Zadoff-Chu and m-sequence baselines.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import factorlab
from .factorlab import (
    Decomposition,
    DomainError,
    FactorSet,
    InfeasibleError,
    prime_factorize,
)

FAMILY_KINDS = (
    "pma", "dpma", "near_dpma", "hat_pma", "hat_dpma", "apma", "adpma", "zc", "pn",
)
HAT_KINDS = ("hat_pma", "hat_dpma", "apma", "adpma")
ORTHOGONAL_KINDS = ("pma", "dpma", "near_dpma", "hat_pma", "hat_dpma", "apma", "adpma")

#: Most bytes one dense table may take: the simulator's leakage tables (L x J^2
#: complex entries and a J x J index), the verifier's complex Gram, every
#: family's J x N chi and a spectrum's grid arrays.  Larger ones are refused
#: before anything is allocated.
MAX_DENSE_TABLE_BYTES = 2 ** 30


@dataclass(frozen=True)
class WaveformConfig:
    """OFDM waveform parameters, with the useful-interval length as time unit.

    alpha is the guard ratio (an exact rational so the integrality of
    alpha*gamma is decided exactly); gamma the subcarrier interleaving
    factor.  Durations: T_d = 1, T_g = alpha, T = 1 + alpha; subcarrier
    spacing 1/T_d = 1.
    """

    n_seq: int
    gamma: int = 1
    alpha: Fraction = Fraction(33, 256)

    def __post_init__(self):
        if self.n_seq < 2:
            raise DomainError("sequence length must be >= 2")
        if self.gamma < 1:
            raise DomainError("gamma must be a positive integer")
        if not 0 < self.alpha < 1:
            raise DomainError("alpha must lie in (0, 1)")

    @property
    def alpha_gamma(self) -> Fraction:
        return self.alpha * self.gamma

    @property
    def condition(self) -> str:
        """'A' when alpha*gamma is an integer, else 'B'."""
        return "A" if self.alpha_gamma.denominator == 1 else "B"

    @property
    def pulse_duration(self) -> float:
        return 1.0 + float(self.alpha)


def _signs(n: int, gamma: int) -> np.ndarray:
    """(-1)^(n*gamma) for n = 0..n-1, the sign carried from chi to q."""
    return np.where((np.arange(n) * gamma) % 2 == 0, 1.0, -1.0)


def _unit_phases(numerators: np.ndarray, denominator: int) -> np.ndarray:
    """exp(2j*pi*numerators/denominator) with the fraction reduced mod 1 first.

    Keeping the phase an exact integer ratio until the single trig call
    avoids accumulation drift over products of many roots of unity.
    """
    frac = np.mod(numerators, denominator)
    return np.exp(2j * np.pi * (frac / denominator))


@dataclass(frozen=True)
class CaSequence:
    """A length-N unit-modulus frequency-domain sequence; the recipe that
    built a family member lives in its Family.meta."""

    chi: np.ndarray
    cfg: WaveformConfig

    @property
    def n(self) -> int:
        return len(self.chi)

    @property
    def q(self) -> np.ndarray:
        """Transmitted vector N^(-1/2) (-1)^(n*gamma) chi[n]."""
        return _signs(self.n, self.cfg.gamma) * self.chi / math.sqrt(self.n)


@dataclass
class Family:
    """A set of same-length sequences built by one construction."""

    sequences: list[CaSequence]
    kind: str
    cfg: WaveformConfig
    sd_order_bound: int
    family_csd: int | None = None
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.sequences)

    @property
    def n(self) -> int:
        return self.cfg.n_seq

    def chi_matrix(self) -> np.ndarray:
        """Member chi vectors stacked as rows (len(family) x N)."""
        return np.vstack([s.chi for s in self.sequences])

    def q_matrix(self) -> np.ndarray:
        """Member q vectors stacked as rows (len(family) x N): the same
        operations as CaSequence.q, in place on the stacked chi."""
        q = self.chi_matrix()
        q *= _signs(self.n, self.cfg.gamma)
        q /= math.sqrt(self.n)
        return q


@dataclass(frozen=True)
class RotationSolution:
    """Per-part rotation phases closing the part-length vectors to zero."""

    theta: tuple[float, ...]
    radius_estimate: float
    arc_angles: tuple[float, ...]
    residual: float
    epsilon: float


def _phase_rows(factors: Sequence[int], nus: Sequence[Sequence[int]], cfg: WaveformConfig,
                weights: Sequence[int] | None = None) -> np.ndarray:
    """chi of every index vector in nus as the rows of one matrix, with the
    phases of build_g_sequence over digit weights (default phi_m) kept as
    integer numerators over one common denominator until the exp call."""
    if weights is None:
        weights = list(itertools.accumulate(factors[:-1], operator.mul, initial=1))
    nu = np.array(nus)
    if (nu.dtype.kind not in "iu" or nu.shape != (len(nus), len(factors))
            or not ((nu >= 1) & (nu < np.array(factors))).all()):
        raise DomainError(f"index vectors need one integer in [1, A - 1] per factor A "
                          f"of {tuple(factors)}")
    ag, twisted = cfg.alpha_gamma, cfg.condition == "B"
    denom = math.lcm(*factors, ag.denominator if twisted else 1)
    n_index = np.arange(math.prod(factors))
    digits = np.array([(n_index // w) % a for w, a in zip(weights, factors)])
    # numerator coefficient of digit l_m in row j: nu_jm * denom/A_m plus the twist
    twist = [ag.numerator * (denom // ag.denominator) * w if twisted and m % 2 else 0
             for m, w in enumerate(weights)]
    coef = nu.astype(np.int64) * [denom // a for a in factors] + twist
    chi = np.empty((len(nus), len(n_index)), dtype=complex)
    rows = max(1, 2 ** 16 // len(n_index))  # keeps each block's transients near 1 MiB
    for lo in range(0, len(nus), rows):
        chi[lo:lo + rows] = _unit_phases(coef[lo:lo + rows] @ digits, denom)
    return chi


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
    return CaSequence(_phase_rows(factors, [nu], cfg)[0], cfg)


def build_i_sequence(factors: Sequence[int], nu: Sequence[int],
                     cfg: WaveformConfig) -> CaSequence:
    """Companion construction over ascending factors with reversed weights
    psi_m = N / prod(factors[:m+1]), psi_last = 1."""
    n = cfg.n_seq
    if list(factors) != sorted(factors) or math.prod(factors) != n:
        raise DomainError(f"factors must be sorted ascending and multiply to {n}")
    weights = [n // math.prod(factors[:m + 1]) for m in range(len(factors))]
    return CaSequence(_phase_rows(factors, [nu], cfg, weights)[0], cfg)


def _hat_members(parts: Sequence[int], factor_sets: Sequence[Sequence[int]],
                 nu_sets: Sequence[Sequence[Sequence[int]]], cfg: WaveformConfig,
                 rotation: Sequence[float] | None = None) -> list[CaSequence]:
    """Concatenations of per-part phase-assigned subsequences, one member per
    entry of nu_sets (one index vector per part).  Part rho is built like
    build_g_sequence over its descending factor set, as one block of columns
    of a single phase matrix, times exp(1j*rotation[rho]) when rotated; the
    sign in q uses the absolute index across the concatenation."""
    if sum(parts) != cfg.n_seq:
        raise DomainError(f"decomposition of {sum(parts)}, config says {cfg.n_seq}")
    blocks = []  # each block is rotated as it is built, so one unrotated block lives at a time
    for rho, factors in enumerate(factor_sets):
        block = _phase_rows(factors, [s[rho] for s in nu_sets], cfg)
        blocks.append(block if rotation is None else block * np.exp(1j * rotation[rho]))
    return [CaSequence(row, cfg) for row in np.concatenate(blocks, axis=1)]


def _nu_vectors(factors: Sequence[int]) -> list[tuple[int, ...]]:
    """All admissible index vectors, lexicographic."""
    return list(itertools.product(*(range(1, a) for a in factors)))


def solve_rotation(parts: Sequence[int], epsilon: float = 1e-9,
                   max_iter: int = 200) -> RotationSolution:
    """Rotation phases making the part-length vectors sum to zero.

    Bisection on the first arc angle of the circumscribed circle of the
    polygon with the part lengths as edges; feasible exactly when there
    are at least 3 parts and no part reaches half the perimeter.
    """
    parts = tuple(parts)
    total = sum(parts)
    if list(parts) != sorted(parts, reverse=True):
        raise DomainError("parts must be non-increasing")
    if len(parts) < 3 or 2 * max(parts) >= total:
        raise InfeasibleError(
            f"no rotation exists for parts {parts}: need >= 3 parts, "
            f"max part below half the total")
    theta_lo, theta_hi = 0.0, 2.0 * math.pi
    arcs = None
    for _ in range(max_iter):
        theta_mid = 0.5 * (theta_lo + theta_hi)
        radius = parts[0] / (2.0 * math.sin(theta_mid / 2.0))
        arcs = [theta_mid]
        for p in parts[1:]:
            arg = 1.0 - p * p / (2.0 * radius * radius)
            arcs.append(math.acos(max(-1.0, min(1.0, arg))))
        gap = sum(arcs) - 2.0 * math.pi
        if abs(gap) <= epsilon:
            break
        if gap < 0:
            theta_lo = theta_mid
        else:
            theta_hi = theta_mid
    else:
        raise InfeasibleError(f"rotation bisection did not reach {epsilon}")
    theta = [0.0]
    for rho in range(1, len(parts)):
        theta.append(theta[-1] + 0.5 * (arcs[rho - 1] + arcs[rho]))
    residual = abs(sum(p * np.exp(1j * t) for p, t in zip(parts, theta)))
    return RotationSolution(tuple(theta), radius, tuple(arcs), float(residual), epsilon)


def _sd_bound(level: int, cfg: WaveformConfig) -> int:
    return level if cfg.condition == "A" else level // 2


def _check_chi_size(kind: str, members: int, n: int) -> None:
    """Refuse a complex J x N chi above MAX_DENSE_TABLE_BYTES before any row exists."""
    need = 16 * members * n
    if need > MAX_DENSE_TABLE_BYTES:
        raise DomainError(
            f"{members} {kind} members of length {n} need {need / 2 ** 30:.4g} GiB of chi, "
            f"above the limit of {MAX_DENSE_TABLE_BYTES / 2 ** 30:g} GiB")


def _kept_members(kind: str, size: int, count: int | None, n: int) -> int:
    """How many leading members of a family of ``size`` to build: all, or
    ``count`` in [1, size]; their chi is checked before any row exists."""
    if count is not None and not 1 <= count <= size:
        raise DomainError(f"count must be in [1, {size}] for this {kind} family")
    kept = size if count is None else count
    _check_chi_size(kind, kept, n)
    return kept


def _build_flat_family(kind: str, fs: FactorSet, cfg: WaveformConfig,
                       count: int | None) -> Family:
    kept = _kept_members(kind, fs.family_size, count, cfg.n_seq)
    factors = fs.sorted_descending()
    nus = _nu_vectors(factors)
    return Family(
        sequences=[CaSequence(row, cfg) for row in _phase_rows(factors, nus[:kept], cfg)],
        kind=kind, cfg=cfg,
        sd_order_bound=_sd_bound(len(factors), cfg),
        family_csd=fs.family_csd,
        meta={"factor_set": list(factors), "kappa": fs.kappa,
              "nu_vectors": [list(v) for v in nus]},
    )


def _build_hat_family(kind: str, decomp: Decomposition,
                      factor_sets: list[FactorSet], cfg: WaveformConfig,
                      kappa: int, kept: int) -> Family:
    per_part_factors = [fs.sorted_descending() for fs in factor_sets]
    # member i takes the i-th index vector of every part
    chosen = [[list(v) for v in nu_set] for nu_set in zip(*map(_nu_vectors, per_part_factors))]
    return Family(
        sequences=_hat_members(decomp.parts, per_part_factors, chosen[:kept], cfg),
        kind=kind, cfg=cfg,
        sd_order_bound=_sd_bound(decomp.min_omega - kappa, cfg),
        family_csd=None,
        meta={"decomposition": list(decomp.parts),
              "factor_sets": [list(f) for f in per_part_factors],
              "kappa": kappa,
              "nu_vectors": chosen,
              "no_sd_gain": decomp.mpo == prime_factorize(decomp.n).omega},
    )


def build_family(kind: str, cfg: WaveformConfig, kappa: int = 0,
                 decomp: Decomposition | None = None,
                 count: int | None = None, min_csd: int | None = None,
                 roots: Sequence[int] = (1, 2)) -> Family:
    """Construct a sequence family of the given kind.

    kappa selects the degeneracy level for dpma/near_dpma/hat_dpma/adpma
    and must be 0 for the other kinds;
    decomp supplies the additive decomposition for hat kinds (computed
    when omitted) and is refused for the others.  count/min_csd/roots
    configure the zc and pn baselines, and min_csd is refused for the other
    kinds, where count keeps the leading members of the full family.
    """
    if kind not in FAMILY_KINDS:
        raise DomainError(f"unknown family kind {kind!r}")
    if kind in ("pma", "hat_pma", "apma", "zc", "pn") and kappa != 0:
        raise DomainError(f"{kind} families take kappa = 0, got {kappa}")
    if decomp is not None and kind not in HAT_KINDS:
        raise DomainError(f"{kind} families take no decomposition")
    if kind in ("zc", "pn"):
        if count is None or min_csd is None or min(count, min_csd) < 1:
            raise DomainError(f"{kind} baseline needs a count and a min_csd of at least 1")
        if kind == "zc":
            return build_multiroot_zc_family(cfg, count, min_csd, roots)
        return build_pn_family(cfg, count, min_csd)
    if min_csd is not None:
        raise DomainError(f"min_csd applies to the zc and pn baselines, not {kind}")
    return _build_structured_family(kind, cfg, kappa, decomp, count)


def _build_structured_family(kind: str, cfg: WaveformConfig, kappa: int,
                             decomp: Decomposition | None, count: int | None) -> Family:
    """The flat or concatenated family of the given kind, only its leading
    ``count`` members built when count is given."""
    n = cfg.n_seq
    if kind == "pma":
        return _build_flat_family(kind, factorlab.factor_set(n), cfg, count)

    if kind in ("dpma", "near_dpma"):
        pf = prime_factorize(n)
        if pf.omega <= 2:
            raise DomainError(f"degenerate families need omega > 2, got {pf.omega}")
        if not 1 <= kappa <= pf.omega - 1:
            raise DomainError(f"kappa must be in [1, {pf.omega - 1}]")
        mode = "near" if kind == "near_dpma" else "proper"
        return _build_flat_family(kind, factorlab.factor_set(n, kappa, mode), cfg, count)

    # the concatenated kinds, HAT_KINDS
    augmented = kind in ("apma", "adpma")
    if decomp is None:
        if augmented:
            pf = prime_factorize(n)
            decomp = factorlab.mpo_decompose(n, require_restriction_a=True)
            if not decomp.at_mpo and decomp.mpo == pf.omega:
                raise InfeasibleError(
                    f"augmentation infeasible for N={n}: the largest "
                    f"min-omega level {decomp.mpo} equals omega(N) and is "
                    f"achieved only without >= 3 parts below N/2")
        else:
            decomp = factorlab.mpo_decompose(n)
    elif decomp.mpo == 0:
        decomp = Decomposition(n, decomp.parts, mpo=factorlab.mpo_value(n))
    if kind in ("hat_dpma", "adpma") and not 1 <= kappa <= decomp.min_omega - 1:
        raise DomainError(
            f"{kind} needs kappa in [1, {decomp.min_omega - 1}] for parts "
            f"{decomp.parts}, got {kappa}")
    factor_sets = [factorlab.factor_set(p, kappa) for p in decomp.parts]
    # member i takes the i-th index vector of every part; augmenting appends
    # a rotated copy of each, after all of them
    size = min(fs.family_size for fs in factor_sets)
    kept = _kept_members(kind, size * (1 + augmented), count, n)
    base_kind = "hat_dpma" if kappa else "hat_pma"
    fam = _build_hat_family(base_kind, decomp, factor_sets, cfg, kappa, min(kept, size))
    if augmented:
        fam = augment_family(fam, rotated=kept - len(fam))
        fam.kind = kind
    return fam


def augment_family(base: Family, rotated: int | None = None) -> Family:
    """Double a concatenated family by appending per-part phase-rotated copies
    of its index vectors, or of only the first ``rotated`` of them.

    The rotation phases solve the closure condition over the part lengths,
    so each rotated copy is orthogonal to its original; all cross pairs are
    orthogonal already by the phase-assignment structure.
    """
    if base.kind not in ("hat_pma", "hat_dpma"):
        raise DomainError(f"can only augment hat families, got {base.kind!r}")
    parts = tuple(base.meta["decomposition"])
    sol = solve_rotation(parts, epsilon=1e-9)
    # the phases come from the exported degrees, so theta_degrees alone
    # reproduces the rotated members bit for bit
    theta_deg = [math.degrees(t) for t in sol.theta]
    theta = [math.radians(d) for d in theta_deg]
    nu_sets = base.meta["nu_vectors"][:rotated]
    copies = _hat_members(parts, base.meta["factor_sets"], nu_sets, base.cfg,
                          rotation=theta) if nu_sets else []
    new_kind = "apma" if base.kind == "hat_pma" else "adpma"
    meta = dict(base.meta)
    meta["theta_degrees"] = theta_deg
    meta["rotation_residual"] = sol.residual
    return Family(
        sequences=list(base.sequences) + copies, kind=new_kind, cfg=base.cfg,
        sd_order_bound=base.sd_order_bound, family_csd=None, meta=meta)


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
    step, v0 = n // a, family.meta["nu_vectors"][index][0]
    chi = family.sequences[index].chi
    return [(k, CaSequence(chi * _unit_phases(np.arange(n) * k, n), family.cfg))
            for k in range(0, n, step) if k != (a - v0) * step]


def build_zc_sequence(root: int, n: int, cfg: WaveformConfig | None = None) -> CaSequence:
    """Zadoff-Chu sequence of the given root, as a transmitted baseline.

    chi absorbs the alternating sign so that q is exactly the normalized
    Zadoff-Chu vector.
    """
    if cfg is None:
        cfg = WaveformConfig(n_seq=n)
    if math.gcd(root, n) != 1:
        raise DomainError(f"root {root} not coprime to {n}")
    k = np.arange(n)
    if n % 2:
        zc = _unit_phases(-root * (k * (k + 1) // 2), n)
    else:
        zc = _unit_phases(-root * k * k, 2 * n)
    return CaSequence(_signs(n, cfg.gamma) * zc, cfg)


def build_multiroot_zc_family(cfg: WaveformConfig, count: int, min_csd: int,
                              roots: Sequence[int] = (1, 2)) -> Family:
    """Baseline of cyclically shifted Zadoff-Chu sequences.

    floor(N/min_csd) shifts come from the first root; the remainder from
    the following roots.  Shifts within a root are orthogonal; sequences
    from different roots are not.
    """
    n = cfg.n_seq
    per_root = n // min_csd
    if count > per_root * len(roots):
        raise DomainError(
            f"{count} sequences need more than {len(roots)} roots at "
            f"min_csd={min_csd}")
    _check_chi_size("zc", count, n)
    used = [{"root": root, "cyclic_shift": k * min_csd}
            for root in roots for k in range(per_root)][:count]
    bases = {m["root"]: build_zc_sequence(m["root"], n, cfg).chi for m in used}
    seqs = [CaSequence(bases[m["root"]] * _unit_phases(np.arange(n) * m["cyclic_shift"], n), cfg)
            for m in used]
    return Family(sequences=seqs, kind="zc", cfg=cfg, sd_order_bound=0,
                  family_csd=min_csd,
                  meta={"roots": list(roots), "min_csd": min_csd, "members": used})


@functools.cache
def m_sequence(register_len: int = 15, taps: tuple[int, ...] = (15, 14)) -> np.ndarray:
    """Maximal-length LFSR bit sequence, period 2**register_len - 1.

    taps give the delayed outputs XOR-ed into the input, 1-indexed;
    the register starts all-ones.  Computed once per (register_len, taps)
    and returned read-only, as every caller shares the array.
    """
    period = (1 << register_len) - 1
    state = [1] * register_len
    bits = np.empty(period, dtype=np.int8)
    for i in range(period):
        bits[i] = state[-1]
        fb = 0
        for t in taps:
            fb ^= state[t - 1]
        state = [fb] + state[:-1]
    bits.flags.writeable = False
    return bits


def build_pn_family(cfg: WaveformConfig, count: int, min_csd: int) -> Family:
    """BPSK m-sequence baseline: members are offsets of one long register run.

    The register polynomial is X^15 + X^14 + 1; member k starts at offset
    k*min_csd into the period-32767 bit stream and is truncated to N.
    """
    n = cfg.n_seq
    period = (1 << 15) - 1
    if n > period:
        raise DomainError(f"sequence length {n} exceeds the register period {period}")
    if count * min_csd > period:
        raise DomainError(
            f"{count} members at spacing {min_csd} exceed the register period")
    _check_chi_size("pn", count, n)
    bits = m_sequence()[(np.arange(count)[:, None] * min_csd + np.arange(n)) % period]
    rows = (1.0 - 2.0 * bits).astype(np.complex128)
    rows *= _signs(n, cfg.gamma)
    return Family(sequences=[CaSequence(row, cfg) for row in rows], kind="pn", cfg=cfg,
                  sd_order_bound=0, family_csd=min_csd,
                  meta={"min_csd": min_csd, "taps": [15, 14]})


def family_to_dict(family: Family, include_sequences: bool = False) -> dict:
    """JSON-ready description; sequences regenerate from the metadata."""
    out = {
        "kind": family.kind,
        "n": family.n,
        "gamma": family.cfg.gamma,
        "alpha": f"{family.cfg.alpha.numerator}/{family.cfg.alpha.denominator}",
        "sd_order_bound": family.sd_order_bound,
        "family_csd": family.family_csd,
        "size": len(family),
    }
    for key in ("factor_set", "factor_sets", "decomposition", "nu_vectors",
                "theta_degrees", "kappa", "roots", "min_csd", "members",
                "taps", "no_sd_gain"):
        if key in family.meta:
            out[key] = family.meta[key]
    if include_sequences:
        out["sequences"] = [
            [[float(c.real), float(c.imag)] for c in seq.chi]
            for seq in family.sequences
        ]
    return out


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_int, value))


#: The fields a family is rebuilt from, with their JSON type checks; every
#: other field of a family JSON follows from these.
_REQUIRED_FIELDS = {
    "kind": lambda v: isinstance(v, str), "n": _is_int, "gamma": _is_int,
    "alpha": lambda v: isinstance(v, str) and re.fullmatch(r"\d+/[1-9]\d*", v)}
_OPTIONAL_FIELDS = {"kappa": _is_int, "decomposition": _is_int_list, "size": _is_int,
                    "min_csd": _is_int, "roots": _is_int_list}

#: Fields computed in floating point (libm, numpy), compared with the
#: rebuild to a few ulps so a file loads where rounding differs slightly.
_FLOAT_FIELDS = ("theta_degrees", "sequences")


def _matches(key: str, rebuilt, stored) -> bool:
    if key not in _FLOAT_FIELDS:
        return rebuilt == stored
    try:
        a, b = np.asarray(rebuilt, dtype=float), np.asarray(stored, dtype=float)
    except (TypeError, ValueError):
        return False
    return a.shape == b.shape and np.allclose(a, b, rtol=1e-15, atol=1e-14)


def family_from_dict(data: dict) -> Family:
    """Rebuild a family from the recipe in its exported description.

    The recipe fields go through build_family; every other field, and the
    sequence values when present, must match what family_to_dict exports
    for the rebuild, so a file edited away from its recipe is refused
    rather than trusted.
    """
    if not isinstance(data, dict):
        raise DomainError(f"family JSON must be an object, not {type(data).__name__}")
    bad = [k for k, ok in _REQUIRED_FIELDS.items() if not ok(data.get(k))]
    bad += [k for k, ok in _OPTIONAL_FIELDS.items() if k in data and not ok(data[k])]
    if bad:
        raise DomainError(f"family JSON has missing or malformed fields {bad}")
    num, den = data["alpha"].split("/")
    cfg = WaveformConfig(n_seq=data["n"], gamma=data["gamma"],
                         alpha=Fraction(int(num), int(den)))
    recipe = {arg: data[key] for key, arg in
              (("kappa", "kappa"), ("size", "count"), ("min_csd", "min_csd"))
              if key in data}
    if "decomposition" in data:
        recipe["decomp"] = Decomposition(cfg.n_seq, tuple(data["decomposition"]))
    if "roots" in data:
        recipe["roots"] = tuple(data["roots"])
    family = build_family(data["kind"], cfg, **recipe)
    rebuilt = family_to_dict(family, include_sequences="sequences" in data)
    differ = sorted(k for k in rebuilt.keys() | data.keys()
                    if k not in rebuilt or k not in data
                    or not _matches(k, rebuilt[k], data[k]))
    if differ:
        raise DomainError(f"family JSON does not match its recipe in {differ}")
    return family
