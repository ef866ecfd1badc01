"""Random-access channel-identification simulator.

One-shot model: a terminal sends the k-th of J identification sequences
over a tapped-delay-line Rayleigh channel; the receiver correlates the
N-tone frequency-domain observation against all J candidates and
thresholds the squared magnitudes.  The correlator outputs are linear in
the tap gains and the noise, y = sum_l g_l C_l[k, :] + w, so the Monte
Carlo samples these J numbers directly from the leakage tensor C_l and
coloured J-dimensional noise (white when the candidates are orthogonal),
and the closed-form false-alarm, false-identification and
correct-identification probabilities read their variances from the same
tensor.  The tensor is held as a lookup, C_l[k, i] = table[l, index[k, i]],
built from the family's recipe: one entry per tone and tap for a flat
family, the dense tensor for a concatenated or multiroot zc one.  Any other
family (pn, or one without its recipe) gets the dense tensor of products.
The trials of each keyed batch run in row blocks of about 2^14 correlator
outputs, so a run holds the O(L N + J^2) tables plus one block; the blocks
draw the batch's numbers in order, so the block size changes no tally.
Each block's draws serve every SNR: a batch's numbers come from one
SFC64 stream keyed by the seed and the batch index, so estimates at
different SNRs share them (common random numbers) while the trials within
an SNR are independent.  A table of at most 2J columns is multiplied by a
block's tap gains whole; a wider one is gathered tap by tap.  Gains and
request noise are complex Gaussians from normal draws.  Estimates come with
one-sigma half-widths: z=1 Wilson intervals for p_fa and p_c, and the
per-trial standard error for p_fid, whose J - 1 events in a trial share one
channel draw.
"""

from __future__ import annotations

import importlib.resources
import itertools
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .factorlab import DomainError
from .seqforge import (MAX_DENSE_TABLE_BYTES, Family, _nu_rows, _phase_rows, _zc_rows,
                       build_zc_sequence)

#: Monte Carlo batch size; tallies are merged per batch with a batch-keyed
#: stream, so results do not depend on how batches are scheduled.
BATCH = 4096
#: correlator outputs per Monte Carlo block: a batch's trials run BLOCK // J
#: at a time, so each block's complex outputs stay near 256 KiB
BLOCK = 2 ** 14


@dataclass(frozen=True)
class ChannelProfile:
    """Tapped-delay-line profile: strictly increasing delays, unit total power."""

    name: str
    delays_s: tuple[float, ...]
    powers: tuple[float, ...]

    def __post_init__(self):
        if len(self.delays_s) != len(self.powers):
            raise DomainError("delay/power length mismatch")
        if not all(0 <= d < math.inf for d in self.delays_s):
            raise DomainError(f"tap delays must be finite and non-negative, got {self.delays_s}")
        if not all(0 <= p < math.inf for p in self.powers):
            raise DomainError(f"tap powers must be finite and non-negative, got {self.powers}")
        if list(self.delays_s) != sorted(set(self.delays_s)):
            raise DomainError("delays must be strictly increasing")
        if abs(sum(self.powers) - 1.0) > 1e-9:
            raise DomainError(f"tap powers sum to {sum(self.powers)}, not 1")

    @property
    def sigma_rms_s(self) -> float:
        p = np.asarray(self.powers)
        d = np.asarray(self.delays_s)
        mean = float(p @ d)
        return math.sqrt(max(float(p @ d**2) - mean * mean, 0.0))

    @classmethod
    def flat_fading(cls) -> "ChannelProfile":
        return cls("flat-fading", (0.0,), (1.0,))

    @classmethod
    def from_dict(cls, data: dict) -> "ChannelProfile":
        try:
            name = data["name"]
            delays = tuple(float(t["delay_ns"]) * 1e-9 for t in data["taps"])
            powers = np.array([10.0 ** (float(t["power_db"]) / 10.0) for t in data["taps"]])
        except (TypeError, KeyError, ValueError, OverflowError) as exc:
            raise DomainError(
                f"profile needs a name and taps [{{delay_ns, power_db}}, ...]: {exc!r}"
            ) from exc
        if not (np.isfinite(powers).all() and powers.sum() > 0):
            raise DomainError(f"linear tap powers {powers.tolist()} need finite values, sum > 0")
        if data.get("normalize", True):
            powers = powers / powers.sum()
        return cls(name, delays, tuple(float(p) for p in powers))

    @classmethod
    def load(cls, path: str | Path) -> "ChannelProfile":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    @classmethod
    def shipped(cls, name: str) -> "ChannelProfile":
        """One of the packaged synthetic short-delay profiles."""
        fname = {"umi": "umi_sc_synth_65ns.json", "ind": "ind_synth_20ns.json"}.get(
            name, name)
        ref = importlib.resources.files("caseq") / "profiles" / fname
        return cls.from_dict(json.loads(ref.read_text()))


@dataclass
class RaSimConfig:
    family: Family
    snr_db_list: Sequence[float]
    trials: int
    seed: int
    profile: ChannelProfile
    #: number of identification sequences; drawn from the family at random
    #: (with the run seed) when smaller than the family
    j_sequences: int | None = None
    #: threshold rule: target false-alarm probability (beta = -ln(pfa)/phi)...
    p_fa_target: float | None = None
    #: ...or a fixed threshold value
    beta: float | None = None
    delta_f_hz: float = 1250.0

    def __post_init__(self):
        if (self.p_fa_target is None) == (self.beta is None):
            raise DomainError("set exactly one of p_fa_target or beta")
        if self.j_sequences is None:
            self.j_sequences = len(self.family)
        if not 2 <= self.j_sequences <= len(self.family):
            raise DomainError(f"identification sequences must number 2 to the family "
                              f"size {len(self.family)}, got {self.j_sequences}")
        if self.trials < 2:
            raise DomainError("trials must be >= 2: the p_fid sigma is a per-trial spread")
        if self.p_fa_target is not None and not 0.0 < self.p_fa_target < 1.0:
            raise DomainError(f"p_fa_target must be in (0, 1), got {self.p_fa_target}")
        if self.beta is not None and not (math.isfinite(self.beta) and self.beta > 0.0):
            raise DomainError(f"beta must be a finite positive threshold, got {self.beta}")
        if self.seed < 0:
            raise DomainError(f"seed must be a non-negative integer, got {self.seed}")
        if not all(math.isfinite(s) for s in self.snr_db_list):
            raise DomainError(f"SNRs must be finite, got {list(self.snr_db_list)}")
        if not (math.isfinite(self.delta_f_hz) and self.delta_f_hz > 0.0):
            raise DomainError(f"delta_f_hz must be finite and positive, got {self.delta_f_hz}")

    def beta_at(self, phi: float) -> float:
        if self.beta is not None:
            return self.beta
        return -math.log(self.p_fa_target) / phi


@dataclass
class RaSnrResult:
    snr_db: float
    beta: float
    mc: dict            # metric -> (estimate, one-sigma half-width)
    closed_form: dict   # metric -> value


@dataclass
class RaResult:
    config_echo: dict
    per_snr: list[RaSnrResult]
    sigma_c: float


def _exponential(rng: np.random.Generator, shape, variance: float) -> np.ndarray:
    """Exponential draws of the given mean, -variance log(1 - u), one uniform
    each: the law of |w|^2 for w ~ CN(0, variance)."""
    x = rng.random(shape)
    np.log1p(np.negative(x, out=x), out=x)
    x *= -variance
    return x


def _cscg(rng: np.random.Generator, shape, variance: float = 1.0) -> np.ndarray:
    """Circularly-symmetric complex Gaussians: real and imaginary parts are
    standard normals scaled by sqrt(variance / 2), drawn interleaved into one
    float array and viewed as complex."""
    w = rng.standard_normal((*np.atleast_1d(shape), 2))
    w *= math.sqrt(variance / 2.0)
    return w.view(complex)[..., 0]


def _rng(seed: int, *key: int) -> np.random.Generator:
    """The generator of one keyed stream: SFC64 seeded by a SeedSequence of
    the run seed and a spawn key.  Batch b draws from key (0, b) and the
    member subset from (1,), so no two streams of a run share a key."""
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(seed, spawn_key=key)))


def _tap_phases(n: int, profile: ChannelProfile, delta_f_hz: float) -> np.ndarray:
    """sqrt(N) exp(-2j pi df n tau_l), tap l's channel over the N tones as the
    correlators pick it up (L x N)."""
    idx = np.arange(n)
    return np.array([math.sqrt(n) * np.exp(-2j * np.pi * delta_f_hz * delay * idx)
                     for delay in profile.delays_s])


def _leakage(q_matrix: np.ndarray, profile: ChannelProfile,
             delta_f_hz: float) -> np.ndarray:
    """Leakage tensor of any candidate set by dense products (L x J x J).

    C_l[k, i] = sqrt(N) sum_n q_k[n] exp(-2j pi df n tau_l) conj(q_i[n]) is
    what the i-th correlator picks up through tap l when q_k is sent.
    """
    q_h = q_matrix.conj().T
    tensor = np.empty((len(profile.delays_s), len(q_matrix), len(q_matrix)), dtype=complex)
    for c, ph in zip(tensor, _tap_phases(q_matrix.shape[1], profile, delta_f_hz)):
        np.matmul(q_matrix * ph, q_h, out=c)
    return tensor


@dataclass(frozen=True)
class _LeakageTables:
    """The leakage tensor of the picked members as a lookup,
    C_l[k, i] = table[l, index[k, i]], and the `_noise_colour` of their Gram
    matrix M = conj(Q) Q^T (None for white correlator noise)."""

    table: np.ndarray   # L x W
    index: np.ndarray   # J x J, into the W columns
    colour: np.ndarray | None
    source: str         # "recipe" or "dense"


def _digit_index(factors: Sequence[int], nu: np.ndarray) -> np.ndarray:
    """Where q_k conj(q_i) reads a `_digit_table`: sum_m ((nu_km - nu_im) mod A_m) phi_m.
    A difference of two digits in [1, A_m) lies in (-A_m, A_m), so the mod adds A_m
    where it is negative."""
    index = np.zeros((len(nu), len(nu)), dtype=np.intp)
    term = np.empty_like(index)
    for col, a, w in zip(nu.T, factors, np.cumprod([1, *factors[:-1]])):
        np.subtract.outer(col, col, out=term)
        np.add(term, a, out=term, where=term < 0)
        term *= w
        index += term
    return index


def _digit_table(phases: np.ndarray, factors: Sequence[int]) -> np.ndarray:
    """The ifftn of each row of phases over the mixed-radix digits of its columns."""
    # n = sum_m l_m phi_m puts digit l_0 on the fastest axis: factors reversed
    shaped = phases.reshape(len(phases), *factors[::-1])
    return np.fft.ifftn(shaped, axes=range(1, len(factors) + 1)).reshape(len(phases), -1)


def _check_rows(family: Family, pick: np.ndarray, rebuild, cols=slice(None)) -> None:
    """Refuse picked rows whose cols are more than 1e-12 from rebuild(s), the recipe's
    at positions s of pick, rather than simulate them under the wrong model."""
    step = max(1, 2 ** 16 // family.n)  # as in seqforge._phase_rows: transients near 1 MiB
    for at in (slice(lo, lo + step) for lo in range(0, len(pick), step)):
        stored, rebuilt = family.chi_matrix()[pick[at], cols], rebuild(at)
        if stored.shape != rebuilt.shape or not np.abs(stored - rebuilt).max() <= 1e-12:
            raise DomainError(f"{family.kind} family rows do not match the recipe in its meta")


def _recipe_tables(family: Family, pick: np.ndarray, profile: ChannelProfile,
                   delta_f_hz: float) -> _LeakageTables:
    """Tables of a flat phase-assigned family from its factor set and nu.

    q_k conj(q_i) = N^-1 exp(2j pi sum_m (nu_km - nu_im) l_m / A_m): the sign
    and the condition-B twist cancel.  So C_l[k, i] = G_l[d], where G_l is
    sqrt(N) times the ifftn of tap l's phases over the mixed-radix digits
    and d is the `_digit_index`: an L x N table.  M[i, k] is 1 where d = 0
    and 0 elsewhere: the picked nu are distinct, so M is the identity and
    the noise is white.  The picked rows are first checked against the recipe.
    """
    factors = family.meta["factor_set"]
    nu = _nu_rows(factors, pick)
    _check_rows(family, pick, lambda s: _phase_rows(factors, nu[s], family.cfg))
    table = _digit_table(_tap_phases(family.n, profile, delta_f_hz), factors)
    return _LeakageTables(table, _digit_index(factors, nu), None, "recipe")


def _hat_tensor(family: Family, pick: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """C[l, k, i] of a concatenated family from its recipe, a slice per row of phases.

    Member k is base member b_k = k mod S (the base size), rotated by r_kp =
    exp(i theta_p) in part p when k >= S, else r_kp = 1.  So C[l, k, i] = sum_p
    r_kp conj(r_ip) T_pl[d_p[k, i]]: T_pl is N_p / N times the `_digit_table` of
    part p's columns of row l, d_p its `_digit_index` of b_k and b_i."""
    factor_sets, parts = family.meta["factor_sets"], family.meta["decomposition"]
    size = min(math.prod(a - 1 for a in f) for f in factor_sets)
    turn = np.exp(1j * np.radians(family.meta.get("theta_degrees", [0.0] * len(parts))))
    rot = np.where((pick >= size)[:, None], turn, 1.0)  # J x P
    tensor = np.zeros((len(phases), len(pick), len(pick)), dtype=complex)
    for f, stop, length, r in zip(factor_sets, np.cumsum(parts), parts, rot.T):
        nu, cols = _nu_rows(f, pick % size), slice(stop - length, stop)
        _check_rows(family, pick, lambda s: _phase_rows(f, nu[s], family.cfg) * r[s, None], cols)
        table = _digit_table(phases[:, cols], f) * (length / family.n)
        index, pair = _digit_index(f, nu), np.outer(r, r.conj())
        for c, row in zip(tensor, table):
            c += row[index] * pair
    return tensor


def _zc_tensor(family: Family, pick: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """C[l, k, i] of a multiroot zc family from its recipe, a slice per row of phases.

    chi_k = b_k exp(2j pi s_k n / N), b_k the sequence of its root, so C[l, k, i]
    is entry (s_k - s_i) mod N of the ifft of b_k conj(b_i) times row l."""
    members = [family.meta["members"][p] for p in pick]
    _check_rows(family, pick, lambda s: _zc_rows(members[s], family.cfg))
    roots, shifts = np.array([(m["root"], m["cyclic_shift"]) for m in members]).T
    lag = np.subtract.outer(shifts, shifts) % family.n
    tensor = np.empty((len(phases), len(pick), len(pick)), dtype=complex)
    bases = {r: build_zc_sequence(r, family.n, family.cfg).chi for r in set(roots.tolist())}
    for ra, rb in itertools.product(bases, repeat=2):
        k, i = np.flatnonzero(roots == ra)[:, None], np.flatnonzero(roots == rb)
        tensor[:, k, i] = np.fft.ifft(bases[ra] * bases[rb].conj() * phases)[:, lag[k, i]]
    return tensor


def _dense_tables(q_matrix: np.ndarray, profile: ChannelProfile,
                  delta_f_hz: float) -> _LeakageTables:
    """Tables of any candidate set: the `_leakage` tensor, one row per tap,
    at index[k, i] = k J + i."""
    j = len(q_matrix)
    return _LeakageTables(_leakage(q_matrix, profile, delta_f_hz).reshape(-1, j * j),
                          np.arange(j * j).reshape(j, j),
                          _noise_colour(q_matrix.conj() @ q_matrix.T), "dense")


def _leakage_tables(family: Family, pick: np.ndarray, profile: ChannelProfile,
                    delta_f_hz: float) -> _LeakageTables:
    """Tables of the picked members: `_recipe_tables` for a flat family; the dense
    form from the recipe of a concatenated (factor_sets) or multiroot zc (members)
    one, whose zero-delay row sqrt(N) 1 before the taps gives sqrt(N) M^T for the
    noise colour; `_dense_tables` for any other family or one without its recipe."""
    if "factor_set" in family.meta:
        return _recipe_tables(family, pick, profile, delta_f_hz)
    j, n = len(pick), family.n
    need = (16 * len(profile.delays_s) + 8) * j * j
    if need > MAX_DENSE_TABLE_BYTES:
        raise DomainError(
            f"{j} {family.kind} sequences need {need / 2 ** 30:.1f} GiB of dense leakage "
            f"tables, above the limit of {MAX_DENSE_TABLE_BYTES / 2 ** 30:g} GiB")
    if "factor_sets" not in family.meta and "members" not in family.meta:
        return _dense_tables(family.sequences[pick].q, profile, delta_f_hz)
    build = _hat_tensor if "factor_sets" in family.meta else _zc_tensor
    tensor = build(family, pick, np.vstack([np.full(n, math.sqrt(n)),
                                            _tap_phases(n, profile, delta_f_hz)]))
    return _LeakageTables(tensor[1:].reshape(-1, j * j), np.arange(j * j).reshape(j, j),
                          _noise_colour(tensor[0].T / math.sqrt(n)), "recipe")


def _variances(tables: _LeakageTables,
               powers: Sequence[float]) -> tuple[np.ndarray, np.ndarray, float]:
    """The leakage variances the closed forms read, per table column.

    s = sum_l p_l |table_l|^2 holds, for every (k, i) with index[k, i] = w,
    sigma_fie[i, k] = sum_l p_l |C_l[k, i]|^2 = s[w].  pairs[w] counts the
    off-diagonal (k, i) that read column w, from one bincount of the index, and
    sums to J (J - 1).  sigma_c = sum_l p_l |C_l[k, k]|^2 averaged over k; every
    k of a constant-amplitude family gives
    sigma_c = (1/N) sum_l p_l |sum_n exp(-2j pi df n tau_l)|^2.
    """
    s = np.zeros(tables.table.shape[1])
    for row, p in zip(tables.table, powers):
        s += p * np.abs(row) ** 2
    diagonal = np.diagonal(tables.index)
    pairs = np.bincount(tables.index.ravel(), minlength=len(s))
    np.subtract.at(pairs, diagonal, 1)
    return s, pairs, float(np.mean(s[diagonal]))


def _closed_forms(s: np.ndarray, pairs: np.ndarray, sigma_c: float, beta: float,
                  phi: float) -> dict:
    """Exact p_fa, p_fid and p_c for the exponential correlator statistics with
    the `_variances` s, pairs and sigma_c.

    p_fid is P(|y_i|^2 > beta) = exp(-beta phi / (1 + phi sigma_fie[i, k])) averaged
    over the J (J - 1) pairs i != k: one exp per column, weighted by its pair
    count, O(W) per SNR.
    """
    p_false = np.multiply(s, phi)
    p_false += 1.0
    np.divide(-beta * phi, p_false, out=p_false)
    np.exp(p_false, out=p_false)
    return {
        "p_fa": math.exp(-beta * phi),
        "p_fid": float(pairs @ p_false) / float(pairs.sum()),
        "p_c": math.exp(-beta * phi / (1.0 + phi * sigma_c)),
    }


def _noise_colour(gram: np.ndarray) -> np.ndarray | None:
    """A with A^T conj(A) = M, the Gram matrix conj(Q) Q^T, or None when M
    is the identity to 1e-9 (orthogonal rows: white correlator noise).

    White J-dimensional noise times A has covariance E[w_i conj(w_j)] =
    M[i, j], that of N-dimensional white noise correlated against the rows
    of Q.  A = chol(M)^T; when M is singular (more sequences than tones),
    A = sqrt(Lambda) V^T from its eigendecomposition.
    """
    if np.allclose(gram, np.eye(len(gram)), rtol=0.0, atol=1e-9):
        return None
    try:
        return np.linalg.cholesky(gram).T
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(gram)
        return np.sqrt(np.clip(vals, 0.0, None))[:, None] * vecs.T


def _noise(rng: np.random.Generator, shape, variance: float,
           colour: np.ndarray | None) -> np.ndarray:
    """Correlator-output noise: white CN(0, variance) draws, coloured by A."""
    w = _cscg(rng, shape, variance)
    return w if colour is None else w @ colour


def _noise_energy(rng: np.random.Generator, shape, variance: float,
                  colour: np.ndarray | None) -> np.ndarray:
    """|w|^2 of `_noise` in law.  For white noise that is an exponential of
    mean `variance` from one uniform per entry, `_exponential`; no complex
    draw is made."""
    if colour is None:
        return _exponential(rng, shape, variance)
    return np.abs(_noise(rng, shape, variance, colour)) ** 2


def wilson_sigma(successes: int, n: int) -> float:
    """Half-width of the z=1 Wilson interval about the estimate successes / n.

    It is an interval for the unknown p, not a sigma for scoring the estimate
    against a known p: near 0 or 1 it is far below the binomial sd there
    (see `binomial_sd`)."""
    if n == 0:
        return 0.0
    p = successes / n
    denom = 1.0 + 1.0 / n
    return math.sqrt(p * (1.0 - p) / n + 1.0 / (4.0 * n * n)) / denom


def binomial_sd(p: float, n: int) -> float:
    """sqrt(p (1 - p) / n), the sd of a mean of n independent Bernoulli(p)
    events: the sigma for scoring an estimate against a closed-form p."""
    return math.sqrt(p * (1.0 - p) / n)


def _subset(family: Family, j: int, seed: int) -> np.ndarray:
    """Sorted indices of the j members identified: the whole family, or a
    seeded draw from it."""
    if j == len(family):
        return np.arange(j)
    return np.sort(_rng(seed, 1).choice(len(family), size=j, replace=False))


def run_simulation(cfg: RaSimConfig) -> RaResult:
    """Monte Carlo tallies with closed-form columns attached.

    `trials` request trials (uniform requested index k, fresh channel and
    noise) and `trials` no-request trials, drawn once and tallied at every
    SNR.  The J correlator outputs are sampled directly:
    y = sum_l g_l C_l[k, :] + sd w for a request and y = sd w without one,
    with tap gains g_l ~ CN(0, p_l), the leakage C_l[k, i] =
    table[l, index[k, i]] of `_leakage_tables` built once per run, w white
    CN(0, 1) noise times chol(M)^T, M = conj(Q) Q^T, and sd = sqrt(1/snr).
    This is the distribution of correlating the N-tone observation
    sqrt(N) q_k*h + z against the candidates.  For orthogonal families M is
    the identity to 1e-9: the multiply is skipped, and a no-request trial
    draws only |w|^2, a unit-mean exponential, which is a false alarm at an
    SNR when it exceeds beta / sd^2 = beta snr.  The closed forms read the
    same tables, as per-column variances and pair counts (`_variances`):
    O(W) work per SNR, not O(J^2).

    Each batch runs its request trials, then its no-request trials, in row
    blocks of max(1, BLOCK // J) trials, about 2^14 complex outputs (256 KiB)
    per block.  Each block forms its tap sum and its noise once, and then
    tallies |y|^2 > beta at each SNR in turn into per-SNR integer counts.
    Besides the O(L N + J^2) tables and O(W) variances, a run holds one block's
    outputs and its batch's k and gains, not b x J arrays.  The tap sum
    depends on the table width W.  For W <= 2J (a recipe family picked at
    J >= N/2) the r x W product of a block's gains and the table is formed
    and gathered at index[k_r, :] + r W; otherwise the L taps are gathered
    from the table one at a time.  `config_echo["tap_sum"]` says which ran.

    All randomness derives from SFC64 streams keyed by (seed, batch index)
    (`_rng`), drawn in the order k, tap gains, request noise, no-request
    noise, so a rerun of the same config is bit-identical and two families
    with the same J consume the same white draws.  Every SNR reads the same
    draws (common random numbers), so an SNR's tallies do not depend on
    which other SNRs are listed, or in what order; estimates at different
    SNRs are correlated, while the trials within one SNR stay independent.
    Under a p_fa target, beta snr = -ln p_fa at every SNR, so the p_fa
    tally and its closed form are the same at every SNR.  A Generator fills
    its arrays in C order, so the blocks in turn draw exactly a whole
    batch's noise: the block size changes no tally.  Complex draws are pairs
    of standard normals.

    The p_fa and p_c sigmas are z=1 Wilson half-widths about the estimate.
    The J - 1 false-identification events of a trial share its channel
    draw, so the p_fid sigma is the standard error of the per-trial
    false-identification fraction, std(ddof=1) / sqrt(trials).
    """
    fam = cfg.family
    pick = _subset(fam, cfg.j_sequences, cfg.seed)
    j = len(pick)
    tables = _leakage_tables(fam, pick, cfg.profile, cfg.delta_f_hz)
    if cfg.p_fa_target is not None and cfg.trials * j * cfg.p_fa_target < 10:
        warnings.warn(
            f"{cfg.trials} trials cannot resolve p_fa={cfg.p_fa_target:g}; "
            f"rely on the closed-form column and validate at a relaxed target",
            stacklevel=2)
    variance, pairs, sigma_c = _variances(tables, cfg.profile.powers)
    colour = tables.colour
    tap_p = np.sqrt(np.asarray(cfg.profile.powers))
    width = tables.table.shape[1]
    # one product of the gains by a narrow table beats L gathers over the block
    product = width <= 2 * j
    rows = max(1, BLOCK // j)  # trials per block of correlator outputs

    phis = [10.0 ** (snr_db / 10.0) for snr_db in cfg.snr_db_list]
    betas = [cfg.beta_at(phi) for phi in phis]
    # for unit-variance noise w, a request output is sig + sd w with noise of
    # variance sd^2 = 1/snr, and a no-request trial is a false alarm when
    # |w|^2 > beta phi
    sds = [math.sqrt(1.0 / phi) for phi in phis]
    fa_bounds = [beta * phi for beta, phi in zip(betas, phis)]
    fa_count, c_count, fid_sum, fid_sq = ([0] * len(phis) for _ in range(4))
    for batch_idx, done in enumerate(range(0, cfg.trials, BATCH)):
        b = min(BATCH, cfg.trials - done)
        rng = _rng(cfg.seed, 0, batch_idx)
        # draws depend on J only: k, tap gains, request noise, then
        # no-request noise, in that order; the noise of the blocks in turn
        # is the batch's noise in C order, and every SNR reads the same draws
        ks = rng.integers(0, j, size=b)
        gains = _cscg(rng, (b, len(tap_p))) * tap_p
        for lo in range(0, b, rows):
            k, g = ks[lo:lo + rows], gains[lo:lo + rows]
            at = np.take(tables.index, k, axis=0, mode="clip")
            if product:
                # row r of the r x W product at index[k_r, :]
                at += np.arange(len(k))[:, None] * width
                sig = np.take((g @ tables.table).reshape(-1), at, mode="clip")
            else:
                sig = np.take(tables.table[0], at, mode="clip") * g[:, :1]
                for l in range(1, len(tap_p)):
                    sig += np.take(tables.table[l], at, mode="clip") * g[:, l, None]
            w = _noise(rng, at.shape, 1.0, colour)
            y = np.empty_like(w)
            for s, (sd, beta) in enumerate(zip(sds, betas)):
                np.multiply(w, sd, out=y)
                y += sig
                hits = np.abs(y) ** 2 > beta
                own = hits[np.arange(len(k)), k]
                fid = hits.sum(axis=1) - own
                c_count[s] += int(own.sum())
                fid_sum[s] += int(fid.sum())
                fid_sq[s] += int((fid * fid).sum())
        for lo in range(0, b, rows):
            energy = _noise_energy(rng, (min(rows, b - lo), j), 1.0, colour)
            for s, bound in enumerate(fa_bounds):
                fa_count[s] += int(np.count_nonzero(energy > bound))

    per_snr = []
    t = cfg.trials
    n_fa = t * j
    for s, (snr_db, phi, beta) in enumerate(zip(cfg.snr_db_list, phis, betas)):
        # sample variance of the per-trial count, from exact integer sums
        fid_var = (t * fid_sq[s] - fid_sum[s] ** 2) / (t * (t - 1))
        mc = {
            "p_fa": (fa_count[s] / n_fa, wilson_sigma(fa_count[s], n_fa)),
            "p_fid": (fid_sum[s] / (t * (j - 1)), math.sqrt(fid_var / t) / (j - 1)),
            "p_c": (c_count[s] / t, wilson_sigma(c_count[s], t)),
        }
        cf = _closed_forms(variance, pairs, sigma_c, beta, phi)
        per_snr.append(RaSnrResult(
            snr_db=snr_db, beta=beta, mc=mc,
            closed_form={m: cf[m] for m in ("p_fa", "p_fid", "p_c")}))
    return RaResult(
        config_echo={
            "n": fam.n, "j": j, "kind": fam.kind, "trials": cfg.trials,
            "seed": cfg.seed, "profile": cfg.profile.name,
            "delta_f_hz": cfg.delta_f_hz,
            "snr_db_list": [float(s) for s in cfg.snr_db_list],
            "p_fa_target": cfg.p_fa_target, "beta": cfg.beta,
            "leakage": tables.source,
            "noise": "white" if colour is None else "coloured",
            "tap_sum": "product" if product else "per_tap",
            "table_bytes": tables.table.nbytes + tables.index.nbytes,
        },
        per_snr=per_snr,
        sigma_c=sigma_c,
    )


def result_csv_rows(result: RaResult) -> list[tuple]:
    """(snr_db, metric, mc_value, ci_halfwidth, closed_form) rows."""
    rows = []
    for entry in result.per_snr:
        for metric in ("p_fa", "p_fid", "p_c"):
            est, sig = entry.mc[metric]
            rows.append((entry.snr_db, metric, est, sig, entry.closed_form[metric]))
    return rows
